"""Benchmark harness: repeated seeded runs per algorithm per iteration
budget, grouped statistics, and CSV emitters for convergence traces,
runtime growth and polar cost profiles.

Every CSV goes through one table writer: UTF-8 with LF line endings, '.'
decimal separator, and each float written as its shortest round-trip
representation, so a file can be parsed back and re-summarized to
bit-identical statistics.  The record dataclasses are the schema; each
column list is named once, in its ``*_HEADER`` constant:

    results.csv      RESULTS_HEADER, the ResultRow fields written per run
    summary.csv      SUMMARY_HEADER, the SummaryRow fields in order
    convergence.csv  CONVERGENCE_HEADER, best cost so far per iteration
    runtime.csv      RUNTIME_HEADER, cumulative seconds per iteration
    polar.csv        theta_rad, then one r_<name> column per profile

Failed runs stay in the results table as rows with status "failed" (empty
numeric fields) so experiment numbers remain aligned with seeds; they are
excluded from the statistics.
"""

from __future__ import annotations

import csv
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
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
from .optimizers.bga import chromosome_length
from .optimizers.common import require_finite, require_seed

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
        require_seed(self.base_seed, "base_seed")


@dataclass
class ExperimentPlan(BenchSettings):
    """One benchmark campaign: the bench settings plus the problem and the
    optimizer parameters."""

    mechanism: MechanismConfig = field(default_factory=MechanismConfig)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    optimizer_params: dict = field(default_factory=default_optimizer_params)

    def __post_init__(self) -> None:
        super().__post_init__()
        # reject bga settings that no BGA or HGAPSO run could breed with
        hgapso = self.optimizer_params.get("hgapso")
        for bga in (self.optimizer_params.get("bga"), hgapso and hgapso.bga):
            if bga is not None:
                chromosome_length(bga, self.objective.bounds.dimension)


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


def _failed(task, exc: Exception) -> ResultRow:
    return ResultRow(*task[:4], status="failed", error=f"{type(exc).__name__}: {exc}")


def _execute_run(task) -> ResultRow:
    """Run one (algorithm, budget, experiment) cell; exceptions become a
    failed row so the plan keeps going."""
    algorithm, budget, experiment, seed, cfg, spec, params = task
    try:
        objective = make_objective(cfg, spec)
        params = dataclasses.replace(params, iterations=budget)
        result = OPTIMIZERS[algorithm](objective, spec.bounds, params, seed)
        dv = DecisionVector.from_array(result.best_x)
        cost = evaluate(cfg, dv, spec)
    except Exception as exc:
        return _failed(task, exc)
    return ResultRow(
        algorithm, budget, experiment, seed, dv.m_1, dv.m_2, dv.phi_1, dv.phi_2,
        cost.raw_cost, cost.c1, cost.c2, cost.total, result.wall_time, result=result,
    )


def _collect(future, task) -> ResultRow:
    """The row of a submitted run; a worker that died (BrokenProcessPool)
    fails the runs it took with it."""
    try:
        return future.result()
    except Exception as exc:
        return _failed(task, exc)


def _run_alone(tasks, jobs: int) -> list[ResultRow]:
    """Rows of ``tasks``, each run on a fresh pool of its own, ``jobs``
    pools at a time: a worker that dies fails only its own run."""
    rows = []
    for start in range(0, len(tasks), jobs):
        wave = tasks[start:start + jobs]
        with ExitStack() as stack:
            pools = [stack.enter_context(ProcessPoolExecutor(max_workers=1)) for _ in wave]
            futures = [pool.submit(_execute_run, t) for pool, t in zip(pools, wave)]
            rows += [_collect(f, t) for f, t in zip(futures, wave)]
    return rows


def run_plan(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Execute every (algorithm, budget, repeat) cell of the plan.

    Repeat r (1-based experiment number) always runs with seed
    base_seed + r - 1, for every algorithm and budget, mirroring the
    "same initial conditions per experiment column" reading of the
    protocol.  Rows come back in deterministic (algorithm, budget,
    experiment) order regardless of ``jobs``.  A worker process that
    crashes breaks the pool and every run still pending on it; each of
    those runs once more on a fresh pool of its own, and one that crashes
    again stays failed, with the reason.
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
        futures = [pool.submit(_execute_run, t) for t in tasks]
        rows = [_collect(f, t) for f, t in zip(futures, tasks)]
    lost = [i for i, f in enumerate(futures) if isinstance(f.exception(), BrokenProcessPool)]
    for i, row in zip(lost, _run_alone([tasks[i] for i in lost], jobs)):
        rows[i] = row
    return rows


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

def _float_columns(record_type) -> list[str]:
    """The fields a record dataclass annotates as float (annotations are
    strings in this module)."""
    return [f.name for f in dataclasses.fields(record_type) if f.type.startswith("float")]


def _write_csv(path, header, records, floats) -> None:
    """The one table writer: ``header``, then one line per record (a
    sequence of cells).  A cell of a column named in ``floats`` is written
    as repr(float(v)), the shortest text that parses back to the same
    float, whatever numeric type holds it; None is an empty field, and any
    other cell is written with str."""
    is_float = [name in floats for name in header]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if f and v is not None else v for v, f in zip(rec, is_float)]
            for rec in records
        )


def write_results(rows: list[ResultRow], path) -> None:
    records = ([getattr(r, name) for name in RESULTS_HEADER] for r in rows)
    _write_csv(path, RESULTS_HEADER, records, _float_columns(ResultRow))


def parse_results(path) -> list[ResultRow]:
    """Read results.csv back; traces are not recoverable from the file."""
    types = {f.name: f.type for f in dataclasses.fields(ResultRow)}
    parse = {"str": str, "int": int, "float | None": lambda t: None if t == "" else float(t)}
    with open(path, encoding="utf-8", newline="") as fh:
        header, *records = csv.reader(fh)
    if header != RESULTS_HEADER:
        raise ValueError(f"unexpected results header {header}")
    return [ResultRow(**{n: parse[types[n]](t) for n, t in zip(header, rec)}) for rec in records]


def write_summary(summary: list[SummaryRow], path) -> None:
    records = (dataclasses.astuple(s) for s in summary)
    _write_csv(path, SUMMARY_HEADER, records, _float_columns(SummaryRow))


def emit_convergence(rows: list[ResultRow], path) -> None:
    """Best-so-far trace per run: iteration 0 is the initial population
    best, so a run of N iterations contributes N+1 rows."""
    records = (
        (row.algorithm, row.seed, iteration, best)
        for row in rows
        if row.result is not None
        for iteration, best in enumerate(row.result.trace)
    )
    _write_csv(path, CONVERGENCE_HEADER, records, CONVERGENCE_HEADER[-1:])


def emit_runtime_growth(rows: list[ResultRow], path) -> None:
    """Cumulative wall-clock checkpoints: one row per completed iteration
    (iteration column is 1-based).  Raises if any run carries no timing
    checkpoints rather than fabricating zeros."""
    for row in rows:
        if row.result is not None and row.result.time_trace.size == 0:
            raise ValueError(
                f"run ({row.algorithm}, seed {row.seed}) has no timing checkpoints"
            )
    records = (
        (row.algorithm, row.seed, k, elapsed)
        for row in rows
        if row.result is not None
        for k, elapsed in enumerate(row.result.time_trace, start=1)
    )
    _write_csv(path, RUNTIME_HEADER, records, RUNTIME_HEADER[-1:])


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
    header = ["theta_rad"] + [f"r_{name}" for name, _ in columns]
    _write_csv(path, header, zip(theta, *radial), header)


def results_equal_modulo_time(path_a, path_b) -> bool:
    """Cell-by-cell comparison of two results.csv files ignoring the
    wall_time_s column (the only nondeterministic field)."""
    def normalized(path):
        with open(path, encoding="utf-8", newline="") as fh:
            header, *records = csv.reader(fh)
        idx = header.index("wall_time_s")
        for rec in records:
            rec[idx] = ""
        return header, records

    return normalized(path_a) == normalized(path_b)
