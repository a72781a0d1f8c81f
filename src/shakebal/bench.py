"""Benchmark harness: repeated seeded runs per algorithm per iteration
budget, grouped statistics, and CSV emitters for convergence traces,
runtime growth and polar cost profiles.

All CSV output is UTF-8 with LF line endings, '.' decimal separator, and
floats written as their shortest round-trip representation, so a file can
be parsed back and re-summarized to bit-identical statistics.  Schemas:

    results.csv      algorithm,budget,experiment,seed,m1,m2,phi1,phi2,
                     raw_cost,c1,c2,total_cost,wall_time_s,status
    summary.csv      algorithm,budget,metric,average,best,worst
                     (metric in {cost, wall_time_s})
    convergence.csv  algorithm,seed,iteration,best_cost
    runtime.csv      algorithm,seed,iteration,cumulative_seconds
    polar.csv        theta_rad,r_unbalanced,r_<name>,...

Failed runs stay in the results table as rows with status "failed" (empty
numeric fields) so experiment numbers remain aligned with seeds; they are
excluded from the statistics.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .mechanism import DecisionVector, MechanismConfig, profile_arrays, theta_grid
from .objective import ObjectiveSpec, evaluate, make_objective
from .optimizers import (
    ALGORITHM_NAMES,
    OPTIMIZERS,
    AbcParams,
    BgaParams,
    HgapsoParams,
    PsoParams,
    RunResult,
)
from .optimizers.common import require_finite

RESULTS_HEADER = [
    "algorithm", "budget", "experiment", "seed", "m1", "m2", "phi1", "phi2",
    "raw_cost", "c1", "c2", "total_cost", "wall_time_s", "status",
]
SUMMARY_HEADER = ["algorithm", "budget", "metric", "average", "best", "worst"]
CONVERGENCE_HEADER = ["algorithm", "seed", "iteration", "best_cost"]
RUNTIME_HEADER = ["algorithm", "seed", "iteration", "cumulative_seconds"]


def default_optimizer_params() -> dict:
    return {
        "pso": PsoParams(),
        "abc": AbcParams(),
        "bga": BgaParams(),
        "hgapso": HgapsoParams(),
    }


@dataclass
class BenchSettings:
    """Which algorithms run, at which iteration budgets, how often, and
    from which seed: the ``bench.*`` section of a config file."""

    algorithms: tuple[str, ...] = ALGORITHM_NAMES
    iteration_budgets: tuple[int, ...] = (200, 300)
    repeats: int = 10
    base_seed: int = 1

    def __post_init__(self) -> None:
        require_finite(self)
        self.algorithms = tuple(self.algorithms)
        self.iteration_budgets = tuple(int(b) for b in self.iteration_budgets)
        unknown = [a for a in self.algorithms if a not in OPTIMIZERS]
        if unknown:
            raise ValueError(
                f"unknown algorithms {unknown}: algorithms contains unknown names;"
                f" choose from {list(ALGORITHM_NAMES)}"
            )
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        if not self.iteration_budgets or any(b < 1 for b in self.iteration_budgets):
            raise ValueError(f"iteration_budgets must be non-empty positive (got {self.iteration_budgets})")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1 (got {self.repeats})")


@dataclass
class ExperimentPlan(BenchSettings):
    """One benchmark campaign: the bench settings plus the problem and the
    optimizer parameters."""

    mechanism: MechanismConfig = field(default_factory=MechanismConfig)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    optimizer_params: dict = field(default_factory=default_optimizer_params)


@dataclass
class ResultRow:
    """One line of results.csv; ``result`` keeps the full trace in memory
    and ``error`` the reason of a failed run ("Type: message"); neither is
    serialized."""

    algorithm: str
    budget: int
    experiment: int
    seed: int
    m1: float | None = None
    m2: float | None = None
    phi1: float | None = None
    phi2: float | None = None
    raw_cost: float | None = None
    c1: float | None = None
    c2: float | None = None
    total_cost: float | None = None
    wall_time_s: float | None = None
    status: str = "ok"
    result: RunResult | None = None
    error: str | None = None


@dataclass
class SummaryRow:
    """One line of summary.csv."""

    algorithm: str
    budget: int
    metric: str
    average: float
    best: float
    worst: float


def _with_iterations(params, budget: int):
    return dataclasses.replace(params, iterations=budget)


def _execute_run(task) -> ResultRow:
    """Run one (algorithm, budget, experiment) cell; exceptions become a
    failed row so the plan keeps going."""
    algorithm, budget, experiment, seed, cfg, spec, params = task
    row = ResultRow(algorithm=algorithm, budget=budget, experiment=experiment, seed=seed)
    try:
        objective = make_objective(cfg, spec)
        result = OPTIMIZERS[algorithm](
            objective, spec.bounds, _with_iterations(params, budget), seed
        )
        dv = DecisionVector.from_array(result.best_x)
        breakdown = evaluate(cfg, dv, spec)
        row.m1, row.m2, row.phi1, row.phi2 = dv.m_1, dv.m_2, dv.phi_1, dv.phi_2
        row.raw_cost = breakdown.raw_cost
        row.c1 = breakdown.c1
        row.c2 = breakdown.c2
        row.total_cost = breakdown.total
        row.wall_time_s = result.wall_time
        row.result = result
    except Exception as exc:
        row.status = "failed"
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def run_plan(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Execute every (algorithm, budget, repeat) cell of the plan.

    Repeat r (1-based experiment number) always runs with seed
    base_seed + r - 1, for every algorithm and budget, mirroring the
    "same initial conditions per experiment column" reading of the
    protocol.  Rows come back in deterministic (algorithm, budget,
    experiment) order regardless of ``jobs``.
    """
    tasks = [
        (
            algorithm,
            budget,
            r + 1,
            plan.base_seed + r,
            plan.mechanism,
            plan.objective,
            plan.optimizer_params[algorithm],
        )
        for algorithm in plan.algorithms
        for budget in plan.iteration_budgets
        for r in range(plan.repeats)
    ]
    if jobs <= 1 or len(tasks) == 1:
        return [_execute_run(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_execute_run, tasks))


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Average/best/worst of cost and wall time per (algorithm, budget).

    Groups appear in first-encounter order; failed rows are skipped, and a
    group with no successful row is omitted.
    """
    groups: dict[tuple[str, int], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.budget), []).append(row)
    out: list[SummaryRow] = []
    for (algorithm, budget), members in groups.items():
        ok = [r for r in members if r.status == "ok"]
        if not ok:
            continue
        costs = [r.total_cost for r in ok]
        times = [r.wall_time_s for r in ok]
        out.append(
            SummaryRow(algorithm, budget, "cost", sum(costs) / len(costs), min(costs), max(costs))
        )
        out.append(
            SummaryRow(
                algorithm, budget, "wall_time_s", sum(times) / len(times), min(times), max(times)
            )
        )
    return out


# ----------------------------------------------------------------------
# CSV io
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    """Shortest representation that parses back to the exact float."""
    if value is None:
        return ""
    return repr(float(value))


def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def write_results(rows: list[ResultRow], path) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.algorithm,
                    r.budget,
                    r.experiment,
                    r.seed,
                    _fmt(r.m1),
                    _fmt(r.m2),
                    _fmt(r.phi1),
                    _fmt(r.phi2),
                    _fmt(r.raw_cost),
                    _fmt(r.c1),
                    _fmt(r.c2),
                    _fmt(r.total_cost),
                    _fmt(r.wall_time_s),
                    r.status,
                ]
            )


def parse_results(path) -> list[ResultRow]:
    """Read results.csv back; traces are not recoverable from the file."""
    rows: list[ResultRow] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RESULTS_HEADER:
            raise ValueError(f"unexpected results header {header}")
        for rec in reader:
            opt = lambda s: None if s == "" else float(s)
            rows.append(
                ResultRow(
                    algorithm=rec[0],
                    budget=int(rec[1]),
                    experiment=int(rec[2]),
                    seed=int(rec[3]),
                    m1=opt(rec[4]),
                    m2=opt(rec[5]),
                    phi1=opt(rec[6]),
                    phi2=opt(rec[7]),
                    raw_cost=opt(rec[8]),
                    c1=opt(rec[9]),
                    c2=opt(rec[10]),
                    total_cost=opt(rec[11]),
                    wall_time_s=opt(rec[12]),
                    status=rec[13],
                )
            )
    return rows


def write_summary(summary: list[SummaryRow], path) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for s in summary:
            writer.writerow(
                [s.algorithm, s.budget, s.metric, _fmt(s.average), _fmt(s.best), _fmt(s.worst)]
            )


def emit_convergence(rows: list[ResultRow], path) -> None:
    """Best-so-far trace per run: iteration 0 is the initial population
    best, so a run of N iterations contributes N+1 rows."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CONVERGENCE_HEADER)
        for row in rows:
            if row.result is None:
                continue
            for iteration, best in enumerate(row.result.trace):
                writer.writerow([row.algorithm, row.seed, iteration, _fmt(best)])


def emit_runtime_growth(rows: list[ResultRow], path) -> None:
    """Cumulative wall-clock checkpoints: one row per completed iteration
    (iteration column is 1-based).  Raises if any run carries no timing
    checkpoints rather than fabricating zeros."""
    for row in rows:
        if row.result is not None and row.result.time_trace.size == 0:
            raise ValueError(
                f"run ({row.algorithm}, seed {row.seed}) has no timing checkpoints"
            )
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUNTIME_HEADER)
        for row in rows:
            if row.result is None:
                continue
            for k, elapsed in enumerate(row.result.time_trace, start=1):
                writer.writerow([row.algorithm, row.seed, k, _fmt(elapsed)])


def emit_polar(
    cfg: MechanismConfig,
    dv_unbalanced: DecisionVector,
    solutions: list[tuple[str, DecisionVector]],
    n_samples: int,
    path,
) -> None:
    """Radial cost profile r(theta) = |p1| + |p2| for the unbalanced state
    and each named solution, one column per solution."""
    theta = theta_grid(n_samples)
    columns = [("unbalanced", dv_unbalanced)] + list(solutions)
    radial = []
    for _, dv in columns:
        p1, p2, _, _ = profile_arrays(cfg, dv, theta)
        radial.append(np.abs(p1) + np.abs(p2))
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta_rad"] + [f"r_{name}" for name, _ in columns])
        for k in range(n_samples):
            writer.writerow([_fmt(theta[k])] + [_fmt(col[k]) for col in radial])


def results_equal_modulo_time(path_a, path_b) -> bool:
    """Byte-level comparison of two results.csv files ignoring the
    wall_time_s column (the only nondeterministic field)."""
    def normalized(path):
        out = io.StringIO()
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            writer = csv.writer(out, lineterminator="\n")
            header = next(reader)
            idx = header.index("wall_time_s")
            writer.writerow(header)
            for rec in reader:
                rec[idx] = ""
                writer.writerow(rec)
        return out.getvalue()

    return normalized(path_a) == normalized(path_b)
