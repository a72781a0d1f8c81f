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
    runtime.csv      RUNTIME_HEADER, seconds attributed to the run by the
                     end of each iteration (``RunResult.time_trace``)
    polar.csv        theta_rad, then one r_<name> column per profile

Failed runs stay in the results table as rows with status "failed" (empty
numeric fields) so experiment numbers remain aligned with seeds; they are
excluded from the statistics.  Every plan runs in worker processes, and
``run_plan`` builds every row, the same under every start method; a run
that raises, or whose worker dies, fails alone, and the plan goes on.  The
budgets of one seed of a budget-free algorithm share one run, so those
rows' wall times overlap; every other column is the run's alone.
"""

from __future__ import annotations

import csv
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .mechanism import DecisionVector, MechanismConfig, profile_arrays, theta_grid
from .objective import ObjectiveSpec, evaluate, make_objective, require_finite_cost
from .optimizers import ALGORITHM_NAMES, BUDGET_FREE, PARAMS, STEPS, RunResult, lockstep
from .optimizers.bga import chromosome_length
from .optimizers.common import require_finite, require_integers, require_seed

RESULTS_HEADER = [
    "algorithm", "budget", "experiment", "seed", "m1", "m2", "phi1", "phi2",
    "raw_cost", "c1", "c2", "total_cost", "wall_time_s", "status",
]
SUMMARY_HEADER = ["algorithm", "budget", "metric", "average", "best", "worst"]
CONVERGENCE_HEADER = ["algorithm", "seed", "iteration", "best_cost"]
RUNTIME_HEADER = ["algorithm", "seed", "iteration", "cumulative_seconds"]


def default_optimizer_params() -> dict:
    return {name: cls() for name, cls in PARAMS.items()}


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
        require_integers(self)
        self.algorithms = tuple(self.algorithms)
        unknown = [a for a in self.algorithms if a not in STEPS]
        if unknown:
            raise ValueError(
                f"unknown algorithms {unknown}: algorithms contains unknown names;"
                f" choose from {list(STEPS)}"
            )
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        if not self.iteration_budgets or any(b < 1 for b in self.iteration_budgets):
            raise ValueError(f"iteration_budgets must be non-empty positive (got {self.iteration_budgets})")
        # a repeated entry would run each of its runs again
        for name in ("algorithms", "iteration_budgets"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat (got {list(values)})")
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
        # an algorithm without an entry runs with its defaults
        for name, given in self.optimizer_params.items():
            if name not in PARAMS:
                raise ValueError(f"optimizer_params names unknown algorithm {name!r}")
            if not isinstance(given, PARAMS[name]):
                raise ValueError(
                    f"optimizer_params[{name!r}] must be {PARAMS[name].__name__}"
                    f" (got {type(given).__name__})"
                )
        self.optimizer_params = params = {**default_optimizer_params(), **self.optimizer_params}
        # reject bga settings that no BGA or HGAPSO run could breed with
        for bga in (params["bga"], params["hgapso"].bga):
            chromosome_length(bga, self.objective.bounds.dimension)
        require_finite_cost(self.mechanism, self.objective)


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


def _reason(exc: Exception) -> str:
    """How a failed row names its failure: "Type: message"."""
    return f"{type(exc).__name__}: {exc}"


def _row(cfg, spec, run, outcome) -> ResultRow:
    """The row of one run (algorithm, budget, experiment, seed, params,
    generator) from its group's outcome: the RunResult, read at the run's
    budget (``RunResult.first``), or the reason the run failed."""
    if isinstance(outcome, str):
        return ResultRow(*run[:4], status="failed", error=outcome)
    try:
        result = outcome.first(run[1])
        dv = DecisionVector.from_array(result.best_x)
        cost = evaluate(cfg, dv, spec)
    except Exception as exc:
        return _row(cfg, spec, run, _reason(exc))
    return ResultRow(
        *run[:4], dv.m_1, dv.m_2, dv.phi_1, dv.phi_2,
        cost.raw_cost, cost.c1, cost.c2, cost.total, result.wall_time, result=result,
    )


def _execute_share(cfg, spec, groups) -> list:
    """Run a worker's share in lockstep, one generator per group at the
    group's largest budget: per group, its RunResult or the reason it
    failed, as text, since an exception need not unpickle."""
    longest = [max(group, key=lambda run: run[1]) for group in groups]
    outcomes = lockstep(
        make_objective(cfg, spec),
        [lambda tracked, g=g, p=p, s=s: g(tracked, spec.bounds, p, s) for _, _, _, s, p, g in longest],
    )
    return [_reason(o) if isinstance(o, Exception) else o for o in outcomes]


def require_jobs(jobs: int) -> None:
    """Reject a worker count below 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")


def run_plan(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Execute every (algorithm, budget, repeat) run of the plan.

    Repeat r (1-based experiment number) always runs with seed
    base_seed + r - 1, for every algorithm and budget, mirroring the
    "same initial conditions per experiment column" reading of the
    protocol.  The runs of one seed of a budget-free algorithm
    (``optimizers.BUDGET_FREE``) form one group, which runs once, at its
    largest budget; every other run is a group of its own.  The groups, in
    the order of their first run, are dealt round-robin into min(jobs,
    groups) shares, and each worker runs its share in lockstep
    (``optimizers.lockstep``), with the results each run would have alone.
    Every row is built here, read off its group's run at its own budget
    (``_row``), in (algorithm, budget, experiment) order at any ``jobs``.
    Each run carries its generator, read from ``STEPS`` here and pickled by
    reference, so a plan gives the same rows under every start method.

    Each share runs on a one-worker pool of its own, ``jobs`` pools at a
    time.  A failed outcome that covers more than one run reruns each of
    those runs alone, on a pool of its own: a shared run that raised, or a
    share whose worker crashed (BrokenProcessPool), one of whose
    generators does not pickle, or that raised.  A run that fails alone
    fails its row, with the reason.  So every row, ok or failed, is the
    one the run gives alone, and the plan goes on.
    """
    require_jobs(jobs)
    cfg, spec = plan.mechanism, plan.objective
    runs = [
        (a, b, r + 1, plan.base_seed + r, dataclasses.replace(plan.optimizer_params[a], iterations=b), STEPS[a])
        for a in plan.algorithms
        for b in plan.iteration_budgets
        for r in range(plan.repeats)
    ]
    keyed: dict[tuple, list[int]] = {}
    for i, (a, b, _, seed, _, _) in enumerate(runs):
        keyed.setdefault((a, seed, None if a in BUDGET_FREE else b), []).append(i)
    groups = list(keyed.values())
    workers = min(jobs, len(groups))
    shares = [groups[w::workers] for w in range(workers)]
    rows = [None] * len(runs)
    while shares:
        wave, shares = shares[:jobs], shares[jobs:]
        with ExitStack() as stack:
            pools = [stack.enter_context(ProcessPoolExecutor(max_workers=1)) for _ in wave]
            futures = [
                p.submit(_execute_share, cfg, spec, [[runs[i] for i in group] for group in share])
                for p, share in zip(pools, wave)
            ]
        for future, share in zip(futures, wave):
            try:
                outcomes = future.result()
            except Exception as exc:
                share, outcomes = [[i for group in share for i in group]], [_reason(exc)]
            for group, outcome in zip(share, outcomes):
                if isinstance(outcome, str) and len(group) > 1:
                    shares += [[[i]] for i in group]
                else:
                    for i in group:
                        rows[i] = _row(cfg, spec, runs[i], outcome)
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
        for metric, column in (("cost", "total_cost"), ("wall_time_s", "wall_time_s")):
            values = [getattr(r, column) for r in ok]
            out.append(SummaryRow(algorithm, budget, metric, sum(values) / len(values), min(values), max(values)))
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
    sequence of values).  A value of a column named in ``floats`` is
    written as repr(float(v)), the shortest text that parses back to the
    same float, whatever numeric type holds it; None is an empty field,
    and any other value is written with str."""
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
    """Read results.csv back, refusing by its path:line a record of the
    wrong length or status, or whose numeric fields are not all empty if
    failed and all given if ok; traces are not recoverable from the file."""
    types = {f.name: f.type for f in dataclasses.fields(ResultRow)}
    parse = {"str": str, "int": int, "float | None": lambda t: None if t == "" else float(t)}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        (_, header), *records = [(reader.line_num, rec) for rec in reader]
    if header != RESULTS_HEADER:
        raise ValueError(f"unexpected results header {header}")
    floats = [header.index(name) for name in _float_columns(ResultRow)]
    for line, rec in records:
        status = rec[-1] if len(rec) == len(header) else None
        if status not in ("ok", "failed") or {rec[k] == "" for k in floats} != {status == "failed"}:
            raise ValueError(f"{path}:{line}: malformed results record {rec}")
    return [ResultRow(**{n: parse[types[n]](t) for n, t in zip(header, rec)}) for _, rec in records]


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
    """Cumulative seconds attributed to each run: one row per completed
    iteration (iteration column is 1-based).  Raises if any run carries no timing
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
    solutions: list[tuple[str, DecisionVector]],
    n_samples: int,
    path,
) -> None:
    """Radial cost profile r(theta) = |p1| + |p2| for the unbalanced state
    (no counterweights, the ``r_unbalanced`` column) and each named
    solution, one column per solution."""
    theta = theta_grid(n_samples)
    columns = [("unbalanced", DecisionVector.zero())] + list(solutions)
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
