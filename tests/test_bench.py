"""Benchmark harness: row accounting, determinism, statistics and the CSV
round-trips."""

import csv
import dataclasses
import hashlib
import io
import math
import os
import re
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from shakebal import bench, optimizers
from shakebal.bench import (
    CONVERGENCE_HEADER,
    RESULTS_HEADER,
    RUNTIME_HEADER,
    SUMMARY_HEADER,
    BenchSettings,
    ExperimentPlan,
    ResultRow,
    SummaryRow,
    emit_convergence,
    emit_polar,
    emit_runtime_growth,
    parse_results,
    results_equal_modulo_time,
    run_plan,
    summarize,
    write_results,
)
from shakebal.mechanism import DecisionVector, MechanismConfig
from shakebal.objective import ObjectiveSpec, default_search_bounds
from shakebal.optimizers import BUDGET_FREE, STEPS, AbcParams, BgaParams, HgapsoParams, PsoParams, RunResult, lockstep
from shakebal.optimizers.abc_colony import abc_steps
from shakebal.optimizers.pso import pso_steps

from _oracles import polar_area_oracle

TINY_PARAMS = {
    "pso": PsoParams(population=8, iterations=10),
    "abc": AbcParams(food_sources=4, iterations=10),
    "bga": BgaParams(population=8, iterations=10),
    "hgapso": HgapsoParams(population=8, iterations=10),
}


@pytest.fixture
def unchecked_overflow(monkeypatch):
    """Let a plan whose cost can overflow be built, which the load check
    (``require_finite_cost``) refuses, so that its runs fail as they run."""
    monkeypatch.setattr(bench, "require_finite_cost", lambda cfg, spec: None)


@pytest.fixture
def serial_pool(monkeypatch):
    """Make each pool run its tasks at submit, in this process, so that no
    worker starts; the list of each pool's ``max_workers``, in order."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    return sizes


# Roster entries whose worker dies; module-level, so that a worker started
# by any start method unpickles them by reference.
def crash(*args):
    os._exit(3)


def crash_on_seed_1(tracked, bounds, params, seed):
    if seed == 1:
        os._exit(3)
    return pso_steps(tracked, bounds, params, seed)


def refuse():
    raise RuntimeError("refused an iteration")


def abc_ending_after(iterations, end, tracked, bounds, params, seed):
    """ABC's run, which calls ``end`` when it is sent the values of its
    iteration ``iterations + 1``: a budget-free roster entry whose runs at
    budgets up to ``iterations`` are ABC's, and whose longer runs fail."""
    steps = abc_steps(tracked, bounds, params, seed)
    values = None
    while True:
        if len(tracked.trace) > iterations:
            end()
        try:
            X = steps.send(values)
        except StopIteration:
            return
        values = yield X


def tiny_plan(**overrides) -> ExperimentPlan:
    fields = dict(
        algorithms=("pso", "abc"),
        iteration_budgets=(10,),
        repeats=2,
        base_seed=1,
        objective=ObjectiveSpec(n_samples=64),
        optimizer_params=TINY_PARAMS,
    )
    fields.update(overrides)
    return ExperimentPlan(**fields)


def test_single_cell_plan_gives_one_row():
    rows = run_plan(tiny_plan(algorithms=("pso",), repeats=1))
    assert len(rows) == 1
    assert rows[0].status == "ok"
    assert rows[0].experiment == 1
    assert rows[0].seed == 1


def test_row_count_and_order():
    rows = run_plan(tiny_plan(iteration_budgets=(5, 10)))
    assert len(rows) == 2 * 2 * 2
    keys = [(r.algorithm, r.budget, r.experiment) for r in rows]
    assert keys == sorted(keys, key=lambda k: (["pso", "abc"].index(k[0]), k[1], k[2]))
    # repeat r always uses seed base_seed + r - 1, for every cell
    assert all(r.seed == r.experiment for r in rows)


def test_plan_is_deterministic_modulo_wall_time(tmp_path):
    plan = tiny_plan()
    a, b = run_plan(plan), run_plan(plan)
    write_results(a, tmp_path / "a.csv")
    write_results(b, tmp_path / "b.csv")
    assert results_equal_modulo_time(tmp_path / "a.csv", tmp_path / "b.csv")


def test_parallel_execution_matches_serial(tmp_path, pools):
    plan = tiny_plan()
    write_results(run_plan(plan, jobs=1), tmp_path / "serial.csv")
    write_results(run_plan(plan, jobs=2), tmp_path / "parallel.csv")
    assert results_equal_modulo_time(tmp_path / "serial.csv", tmp_path / "parallel.csv")
    # 24 runs of four algorithms dealt into 2 or 3 shares, each share
    # holding 1 or 2 seeds of every cell
    plan = tiny_plan(algorithms=tuple(TINY_PARAMS), iteration_budgets=(5, 10), repeats=3)
    write_results(run_plan(plan, jobs=1), tmp_path / "serial.csv")
    for jobs in (2, 3):
        write_results(run_plan(plan, jobs=jobs), tmp_path / "parallel.csv")
        assert results_equal_modulo_time(tmp_path / "serial.csv", tmp_path / "parallel.csv")


def test_one_process_runs_the_plan_in_one_lockstep(monkeypatch, serial_pool):
    sizes = []

    def counted(objective, runs):
        sizes.append(len(runs))
        return lockstep(objective, runs)

    monkeypatch.setattr(bench, "lockstep", counted)
    rows = run_plan(tiny_plan(iteration_budgets=(5, 10)), jobs=1)
    assert serial_pool == [1]
    # 4 PSO runs, and one ABC run per seed at budget 10 for both budgets
    assert sizes == [2 * 2 + 2]
    assert [r.status for r in rows] == ["ok"] * 8


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_shared_budgets_give_the_rows_of_separate_runs(tmp_path, jobs):
    # abc and bga run once per seed, at budget 10, for budgets 5 and 10
    assert {"abc", "bga"} <= BUDGET_FREE
    plan = tiny_plan(algorithms=tuple(TINY_PARAMS), iteration_budgets=(10, 5), repeats=2)
    rows = run_plan(plan, jobs=jobs)
    apart = [row for b in (10, 5) for row in run_plan(dataclasses.replace(plan, iteration_budgets=(b,)))]
    apart.sort(key=lambda r: (list(TINY_PARAMS).index(r.algorithm), -r.budget))
    assert [r.status for r in rows] == ["ok"] * 16
    for name, emit in (("results", write_results), ("convergence", emit_convergence), ("runtime", emit_runtime_growth)):
        emit(rows, tmp_path / f"{name}.csv")
        emit(apart, tmp_path / f"{name}-apart.csv")
    assert results_equal_modulo_time(tmp_path / "results.csv", tmp_path / "results-apart.csv")
    assert (tmp_path / "convergence.csv").read_bytes() == (tmp_path / "convergence-apart.csv").read_bytes()

    def keys(name):
        with open(tmp_path / name, newline="") as fh:
            return [rec[:3] for rec in csv.reader(fh)]

    assert keys("runtime.csv") == keys("runtime-apart.csv")
    for row, alone in zip(rows, apart):
        assert row.result.evaluations == alone.result.evaluations
        assert np.array_equal(row.result.evaluation_trace, alone.result.evaluation_trace)
        assert row.wall_time_s == row.result.time_trace[-1]


@pytest.mark.parametrize("end", [refuse, partial(os._exit, 3)], ids=["raises", "dies"])
def test_a_shared_run_that_ends_early_leaves_the_shorter_rows_alone(tmp_path, monkeypatch, pools, end):
    alone = run_plan(tiny_plan(algorithms=("abc",)), jobs=1)
    pools.clear()
    monkeypatch.setitem(STEPS, "abc", partial(abc_ending_after, 10, end))
    rows = run_plan(tiny_plan(algorithms=("abc",), iteration_budgets=(10, 20)), jobs=1)
    assert [(r.budget, r.status) for r in rows] == [(10, "ok"), (10, "ok"), (20, "failed"), (20, "failed")]
    # one rule whether the shared run raised or its worker died: the share,
    # then each of its 4 runs alone on a pool of its own
    assert pools == [1] * 5
    # the reason each 20-iteration run gives alone
    reason = "RuntimeError: refused an iteration" if end is refuse else "BrokenProcessPool: "
    assert all(r.error.startswith(reason) for r in rows[2:])
    write_results(rows[:2], tmp_path / "rows.csv")
    write_results(alone, tmp_path / "alone.csv")
    assert results_equal_modulo_time(tmp_path / "rows.csv", tmp_path / "alone.csv")
    for row, solo in zip(rows, alone):
        assert np.array_equal(row.result.trace, solo.result.trace)


def test_a_shared_run_crosses_back_from_its_worker_once(pools):
    # the worker returns the seed's one RunResult, and both of its rows are
    # read off it in this process
    short, long = run_plan(tiny_plan(algorithms=("abc",), iteration_budgets=(5, 10), repeats=1), jobs=1)
    assert (short.budget, long.budget) == (5, 10)
    assert np.shares_memory(short.result.trace, long.result.trace)


def test_an_algorithm_is_added_by_its_roster_entry_alone(monkeypatch, pools):
    # a fifth entry in STEPS and PARAMS, and nowhere else, runs in a plan
    monkeypatch.setitem(optimizers.STEPS, "pso2", STEPS["pso"])
    monkeypatch.setitem(optimizers.PARAMS, "pso2", PsoParams)
    pso, pso2 = (
        run_plan(tiny_plan(algorithms=(a,), optimizer_params={a: TINY_PARAMS["pso"]}), jobs=1)
        for a in ("pso", "pso2")
    )
    assert [r.algorithm for r in pso2] == ["pso2", "pso2"]
    for a, b in zip(pso, pso2):
        assert dataclasses.replace(b, algorithm="pso", wall_time_s=None, result=None) == dataclasses.replace(
            a, wall_time_s=None, result=None
        )
        assert np.array_equal(a.result.trace, b.result.trace)
        assert np.array_equal(a.result.best_x, b.result.best_x)


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_cell_split_across_workers_matches_serial(tmp_path, jobs):
    # one cell of 3 runs, dealt into shares of 2 + 1 (jobs=2) or 1 + 1 + 1
    # (jobs=3), each share run in lockstep in a worker
    plan = tiny_plan(algorithms=("abc",), repeats=3)
    rows = run_plan(plan, jobs=jobs)
    assert [(r.experiment, r.seed, r.status) for r in rows] == [(k, k, "ok") for k in (1, 2, 3)]
    write_results(run_plan(plan), tmp_path / "serial.csv")
    write_results(rows, tmp_path / "parallel.csv")
    assert results_equal_modulo_time(tmp_path / "serial.csv", tmp_path / "parallel.csv")


@pytest.mark.parametrize("jobs", [0, -1, -20])
def test_jobs_below_one_are_rejected(jobs):
    with pytest.raises(ValueError, match=rf"^jobs must be >= 1 \(got {jobs}\)$"):
        run_plan(tiny_plan(), jobs=jobs)


def test_the_pool_has_no_more_workers_than_tasks(serial_pool):
    rows = run_plan(tiny_plan(), jobs=10**6)
    assert serial_pool == [1, 1, 1, 1]  # 4 runs, dealt into 4 shares of 1 run
    assert [r.status for r in rows] == ["ok"] * 4


def test_failed_runs_stay_in_the_table(unchecked_overflow):
    plan = tiny_plan(
        algorithms=("pso",),
        repeats=2,
        objective=ObjectiveSpec(
            n_samples=64,
            bounds=default_search_bounds(MechanismConfig()),
            penalty_weight=1e308,  # any infeasible point costs inf and aborts the run
            c1_max=1e-12,
            c2_max=1e-12,
        ),
    )
    rows = run_plan(plan)
    assert len(rows) == 2
    assert all(r.status == "failed" for r in rows)
    assert all(r.total_cost is None for r in rows)
    assert [r.seed for r in rows] == [1, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_crash_fails_its_rows_and_the_plan_goes_on(tmp_path, monkeypatch, pools, jobs):
    monkeypatch.setitem(STEPS, "pso", crash)
    rows = run_plan(tiny_plan(algorithms=("pso",), repeats=3), jobs=jobs)
    assert [(r.algorithm, r.experiment, r.seed) for r in rows] == [("pso", k, k) for k in (1, 2, 3)]
    assert [r.status for r in rows] == ["failed"] * 3
    assert all(r.error.startswith("BrokenProcessPool: ") for r in rows)
    write_results(rows, tmp_path / "results.csv")
    assert [r.status for r in parse_results(tmp_path / "results.csv")] == ["failed"] * 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_crash_fails_only_its_own_run(tmp_path, monkeypatch, pools, jobs):
    plan = tiny_plan(algorithms=("pso",), repeats=3)
    serial = run_plan(plan, jobs=1)
    monkeypatch.setitem(STEPS, "pso", crash_on_seed_1)
    rows = run_plan(plan, jobs=jobs)
    assert [(r.experiment, r.status) for r in rows] == [(1, "failed"), (2, "ok"), (3, "ok")]
    assert rows[0].error.startswith("BrokenProcessPool: ")
    write_results(rows[1:], tmp_path / "parallel.csv")
    write_results(serial[1:], tmp_path / "serial.csv")
    assert results_equal_modulo_time(tmp_path / "serial.csv", tmp_path / "parallel.csv")


def test_worker_crash_reruns_only_its_own_share(monkeypatch, pools):
    monkeypatch.setitem(STEPS, "pso", crash_on_seed_1)
    rows = run_plan(tiny_plan(algorithms=("pso",), repeats=4), jobs=2)
    assert [r.status for r in rows] == ["failed", "ok", "ok", "ok"]
    # shares {1, 3} and {2, 4}: only seeds 1 and 3 rerun, each on its own pool
    assert pools == [1, 1, 1, 1]


def test_a_roster_entry_that_does_not_pickle_fails_its_rows(monkeypatch, pools):
    # the generator is pickled into the worker, under every start method
    monkeypatch.setitem(STEPS, "pso", lambda *args: pso_steps(*args))
    rows = run_plan(tiny_plan(algorithms=("pso",)), jobs=1)
    assert [r.status for r in rows] == ["failed", "failed"]
    assert all("pickle" in r.error for r in rows)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_that_does_not_pickle_fails_alone(tmp_path, monkeypatch, jobs):
    # runs (pso 1, pso 2, abc 1, abc 2) in one share at jobs=1, and in
    # shares {pso 1, abc 1} and {pso 2, abc 2} at jobs=2
    plan = tiny_plan()
    clean = run_plan(plan, jobs=jobs)
    monkeypatch.setitem(STEPS, "pso", lambda *args: pso_steps(*args))
    rows = run_plan(plan, jobs=jobs)
    assert [(r.algorithm, r.status) for r in rows] == [("pso", "failed")] * 2 + [("abc", "ok")] * 2
    assert all("pickle" in r.error for r in rows[:2])
    write_results(rows[2:], tmp_path / "rows.csv")
    write_results(clean[2:], tmp_path / "clean.csv")
    assert results_equal_modulo_time(tmp_path / "rows.csv", tmp_path / "clean.csv")


def deterministic_output(out: Path) -> bytes:
    """results.csv with its wall-time column emptied, then convergence.csv:
    the part of a campaign's output that repeats bit for bit."""
    buf = io.StringIO()
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        writer = csv.writer(buf, lineterminator="\n")
        header = next(reader)
        writer.writerow(header)
        for rec in reader:
            rec[header.index("wall_time_s")] = ""
            writer.writerow(rec)
    return buf.getvalue().encode() + (out / "convergence.csv").read_bytes()


def test_the_benchmark_campaign_output_is_pinned(tmp_path):
    # the plan of perfbench's campaign workload: the default problem and
    # parameters, 4 algorithms x budgets 200 and 300 x 2 repeats.  Bit-exact
    # under numpy's Generator as of 2.4, like the short runs pinned in
    # test_optimizers; a change of any run's draws or arithmetic moves it
    rows = run_plan(ExperimentPlan(iteration_budgets=(200, 300), repeats=2, base_seed=1))
    assert [r.status for r in rows] == ["ok"] * 16
    write_results(rows, tmp_path / "results.csv")
    emit_convergence(rows, tmp_path / "convergence.csv")
    digest = hashlib.sha256(deterministic_output(tmp_path)).hexdigest()
    assert digest == "48c14e4e5371843f64a9cd15d16bd065607af54e6798eed6ad9632a01f0ae8ee"


def test_a_plan_whose_cost_can_overflow_is_rejected():
    doomed = ObjectiveSpec(n_samples=64, penalty_weight=1e308, c1_max=1e-12, c2_max=1e-12)
    with pytest.raises(ValueError, match="can make the cost overflow"):
        tiny_plan(objective=doomed)


def test_failed_run_records_its_reason(tmp_path, unchecked_overflow):
    plan = tiny_plan(
        algorithms=("pso",),
        repeats=1,
        objective=ObjectiveSpec(n_samples=64, penalty_weight=1e308, c1_max=1e-12, c2_max=1e-12),
    )
    (row,) = run_plan(plan)
    assert row.status == "failed"
    assert row.error.startswith("NonFiniteObjectiveError: objective returned non-finite value inf")
    # the reason is not part of the pinned results.csv schema
    write_results([row], tmp_path / "results.csv")
    assert parse_results(tmp_path / "results.csv")[0].error is None


def test_summarize_basics():
    rows = [
        ResultRow("pso", 10, k + 1, k + 1, total_cost=c, wall_time_s=t, status="ok")
        for k, (c, t) in enumerate([(1.0, 0.3), (2.0, 0.1), (3.0, 0.2)])
    ]
    summary = summarize(rows)
    cost = next(s for s in summary if s.metric == "cost")
    assert (cost.average, cost.best, cost.worst) == (2.0, 1.0, 3.0)
    time_row = next(s for s in summary if s.metric == "wall_time_s")
    assert (time_row.average, time_row.best, time_row.worst) == (pytest.approx(0.2), 0.1, 0.3)


def test_summarize_single_row_group():
    rows = [ResultRow("abc", 10, 1, 1, total_cost=5.0, wall_time_s=1.0, status="ok")]
    summary = summarize(rows)
    assert all(s.average == s.best == s.worst for s in summary)


def ok_row(algorithm, budget, k, total_cost, wall_time_s) -> ResultRow:
    """An ok row of experiment and seed k with every numeric field given,
    as ``parse_results`` requires; the fields not named are 0.0."""
    return ResultRow(algorithm, budget, k, k, *[0.0] * 7, total_cost, wall_time_s)


# Cost column of the published PSO group at budget 200; used purely as a
# format fixture for the emit -> parse -> summarize round trip.
PSO_200_COSTS = [
    29853.3719, 29853.3845, 29853.3894, 29853.4599, 29853.3913,
    29853.3205, 29853.2973, 29853.2971, 29853.3101, 29853.3096,
]


def test_published_pso_group_round_trips(tmp_path):
    rows = [ok_row("pso", 200, k + 1, c, 0.0) for k, c in enumerate(PSO_200_COSTS)]
    write_results(rows, tmp_path / "results.csv")
    back = parse_results(tmp_path / "results.csv")
    assert [r.total_cost for r in back] == PSO_200_COSTS
    cost = next(s for s in summarize(back) if s.metric == "cost")
    assert cost.best == 29853.2971
    assert cost.worst == 29853.4599


def test_summary_round_trip_is_exact(tmp_path):
    rows = run_plan(tiny_plan())
    write_results(rows, tmp_path / "results.csv")
    assert summarize(parse_results(tmp_path / "results.csv")) == summarize(rows)


def test_float_formatting_round_trips(tmp_path):
    value = 1.0 / 3.0 * 29853.2971
    rows = [ok_row("pso", 10, 1, value, 0.0)]
    write_results(rows, tmp_path / "results.csv")
    assert parse_results(tmp_path / "results.csv")[0].total_cost == value


def test_results_bytes_are_pinned(tmp_path):
    rows = [
        ResultRow(
            "hgapso", 300, 7, 7,
            m1=np.float64(0.2), m2=0.0, phi1=np.float64(math.pi), phi2=1e-17,
            raw_cost=1377.08858153382, c1=np.float64(1874.0), c2=2,  # an int in a float column
            total_cost=1377.08858153382, wall_time_s=np.float32(0.1), status="ok",
        ),
        ResultRow("bga", 200, 3, 3, status="failed", error="ValueError: not written"),
    ]
    write_results(rows, tmp_path / "results.csv")
    assert (tmp_path / "results.csv").read_bytes() == (
        b"algorithm,budget,experiment,seed,m1,m2,phi1,phi2,"
        b"raw_cost,c1,c2,total_cost,wall_time_s,status\n"
        b"hgapso,300,7,7,0.2,0.0,3.141592653589793,1e-17,1377.08858153382,1874.0,2.0,"
        b"1377.08858153382,0.10000000149011612,ok\n"
        b"bga,200,3,3,,,,,,,,,,failed\n"
    )


def test_every_results_column_round_trips(tmp_path, unchecked_overflow):
    doomed = ObjectiveSpec(n_samples=64, penalty_weight=1e308, c1_max=1e-12, c2_max=1e-12)
    failed = run_plan(tiny_plan(algorithms=("pso",), repeats=1, objective=doomed))
    rows = run_plan(tiny_plan()) + failed
    assert [r.status for r in rows][-2:] == ["ok", "failed"]
    write_results(rows, tmp_path / "results.csv")
    back = parse_results(tmp_path / "results.csv")
    table = lambda rs: [[getattr(r, name) for name in RESULTS_HEADER] for r in rs]
    assert table(back) == table(rows)
    kinds = [type(getattr(back[0], name)).__name__ for name in RESULTS_HEADER]
    assert kinds == ["str", "int", "int", "int"] + ["float"] * 9 + ["str"]


@pytest.mark.parametrize(
    "record",
    [
        "pso,10,2,2",
        "pso,10,2,2,,,,,,,,,,failed,",
        "pso,10,2,2,,,,,,,,,,done",
        "pso,10,2,2,,,,,,,,,,ok",
        "pso,10,2,2,1.0,2.0,0.5,1.5,3.0,0.0,0.0,3.0,,ok",
        "pso,10,2,2,1.0,,,,,,,,,failed",
    ],
    ids=[
        "too-few-fields", "a-field-too-many", "no-such-status",
        "ok-without-costs", "ok-without-time", "failed-with-a-cost",
    ],
)
def test_a_malformed_results_record_is_refused(tmp_path, record):
    path = tmp_path / "results.csv"
    write_results([ResultRow("pso", 10, 1, 1, status="failed")], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: malformed results record "):
        parse_results(path)


def test_headers_are_the_record_fields():
    names = [f.name for f in dataclasses.fields(ResultRow)]
    assert names[: len(RESULTS_HEADER)] == RESULTS_HEADER
    assert [f.name for f in dataclasses.fields(SummaryRow)] == SUMMARY_HEADER


def test_readme_csv_table_matches_the_headers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `(\w+\.csv)` \| `([^`]*)`", readme, flags=re.M))
    assert table["results.csv"].split(",") == RESULTS_HEADER
    assert table["summary.csv"].split(",") == SUMMARY_HEADER
    assert table["convergence.csv"].split(",") == CONVERGENCE_HEADER
    assert table["runtime.csv"].split(",") == RUNTIME_HEADER
    assert table["polar.csv"].startswith("theta_rad,")


# ----------------------------------------------------------------------
# emitters
# ----------------------------------------------------------------------

def _rows_with_traces(iterations=10):
    return run_plan(tiny_plan(algorithms=("pso",), repeats=1,
                              optimizer_params={"pso": PsoParams(population=8, iterations=iterations)},
                              iteration_budgets=(iterations,)))


def test_convergence_rows_per_run(tmp_path):
    rows = _rows_with_traces(iterations=10)
    emit_convergence(rows, tmp_path / "convergence.csv")
    with open(tmp_path / "convergence.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 11  # initial best + one per iteration
    assert [int(r["iteration"]) for r in records] == list(range(11))
    best = [float(r["best_cost"]) for r in records]
    assert all(b <= a for a, b in zip(best, best[1:]))


def test_convergence_empty_results_is_header_only(tmp_path):
    emit_convergence([], tmp_path / "convergence.csv")
    content = (tmp_path / "convergence.csv").read_text()
    assert content == "algorithm,seed,iteration,best_cost\n"


def test_runtime_rows_and_monotonicity(tmp_path):
    rows = _rows_with_traces(iterations=10)
    emit_runtime_growth(rows, tmp_path / "runtime.csv")
    with open(tmp_path / "runtime.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 10
    seconds = [float(r["cumulative_seconds"]) for r in records]
    assert all(b >= a for a, b in zip(seconds, seconds[1:]))


def test_each_runs_last_runtime_row_is_its_wall_time(tmp_path):
    rows = run_plan(tiny_plan(algorithms=tuple(TINY_PARAMS)))
    write_results(rows, tmp_path / "results.csv")
    emit_runtime_growth(rows, tmp_path / "runtime.csv")
    with open(tmp_path / "results.csv", newline="") as fh:
        walls = [(r["algorithm"], r["seed"], r["wall_time_s"]) for r in csv.DictReader(fh)]
    with open(tmp_path / "runtime.csv", newline="") as fh:
        # one budget: (algorithm, seed) names a run, and its rows end at its last iteration
        last = {(r["algorithm"], r["seed"]): r["cumulative_seconds"] for r in csv.DictReader(fh)}
    assert len(walls) == len(last) == 8
    assert [(a, s, last[a, s]) for a, s, _ in walls] == walls


def test_runtime_refuses_missing_checkpoints(tmp_path):
    result = RunResult(
        best_x=np.zeros(4), best_f=0.0,
        trace=np.zeros(3), evaluations=10, wall_time=0.1, time_trace=np.empty(0),
    )
    rows = [ResultRow("pso", 2, 1, 1, status="ok", result=result)]
    with pytest.raises(ValueError, match="timing"):
        emit_runtime_growth(rows, tmp_path / "runtime.csv")


def test_polar_profile_rows(tmp_path):
    cfg = MechanismConfig()
    emit_polar(cfg, [("fix", DecisionVector(0.2, 0.0, math.pi, 0.0))],
               360, tmp_path / "polar.csv")
    with open(tmp_path / "polar.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records = list(reader)
    assert header == ["theta_rad", "r_unbalanced", "r_fix"]
    assert len(records) == 360
    assert float(records[1][0]) == pytest.approx(2 * math.pi / 360)


def test_polar_zero_mechanism_is_all_zero(tmp_path):
    cfg = MechanismConfig(m_c=0.0, m_p=0.0, m_0=0.0)
    emit_polar(cfg, [], 360, tmp_path / "polar.csv")
    with open(tmp_path / "polar.csv", newline="") as fh:
        next(fh)
        assert all(float(line.split(",")[1]) == 0.0 for line in fh)


def test_polar_balanced_area_smaller_when_cost_dropped(tmp_path):
    # optimize briefly, then recompute both areas from the emitted file
    cfg = MechanismConfig(m_c=0.0, m_p=0.0)
    spec = ObjectiveSpec(n_samples=64)
    plan = tiny_plan(algorithms=("pso",), repeats=1, mechanism=cfg, objective=spec,
                     iteration_budgets=(60,),
                     optimizer_params={"pso": PsoParams(population=20, iterations=60)})
    row = run_plan(plan)[0]
    assert row.total_cost < row.result.trace[0]  # the optimizer did reduce cost
    balanced = DecisionVector(row.m1, row.m2, row.phi1, row.phi2)
    emit_polar(cfg, [("pso", balanced)], 720, tmp_path / "polar.csv")
    data = np.genfromtxt(tmp_path / "polar.csv", delimiter=",", names=True)
    assert polar_area_oracle(data["r_pso"]) < polar_area_oracle(data["r_unbalanced"])


def test_plan_validation():
    with pytest.raises(ValueError, match="unknown algorithms"):
        ExperimentPlan(algorithms=("pso", "nope"))
    with pytest.raises(ValueError, match="repeats"):
        ExperimentPlan(repeats=0)
    with pytest.raises(ValueError, match="budgets"):
        ExperimentPlan(iteration_budgets=())
    # a repeated entry would run each of its runs again under the same seeds
    with pytest.raises(ValueError, match=re.escape("algorithms must not repeat (got ['pso', 'pso'])")):
        ExperimentPlan(algorithms=("pso", "pso"), iteration_budgets=(3, 3), repeats=2)
    with pytest.raises(ValueError, match=re.escape("iteration_budgets must not repeat (got [3, 5, 3])")):
        tiny_plan(iteration_budgets=(3, 5, 3.0))
    # optimizer_params must hold one params object of its own class per
    # algorithm it names; a planned algorithm it does not name runs with
    # its defaults
    with pytest.raises(ValueError, match=re.escape("optimizer_params names unknown algorithm 'nope'")):
        tiny_plan(optimizer_params={"pso": PsoParams(), "nope": PsoParams()})
    with pytest.raises(ValueError, match=re.escape("optimizer_params['abc'] must be AbcParams (got PsoParams)")):
        tiny_plan(optimizer_params={"abc": PsoParams()})
    with pytest.raises(ValueError, match=re.escape("must be HgapsoParams (got BgaParams)")):
        tiny_plan(optimizer_params={"hgapso": BgaParams()})
    plan = tiny_plan(optimizer_params={"pso": TINY_PARAMS["pso"]})
    assert plan.optimizer_params == {**bench.default_optimizer_params(), "pso": TINY_PARAMS["pso"]}
    assert [(r.algorithm, r.status) for r in run_plan(plan)] == [("pso", "ok")] * 2 + [("abc", "ok")] * 2


@pytest.mark.parametrize(
    "params",
    [
        {"bga": BgaParams(crossover_points=70)},
        {"hgapso": HgapsoParams(bga=BgaParams(crossover_points=70))},
        {"pso": PsoParams(), "bga": BgaParams(bits_per_variable=8, crossover_points=32)},
    ],
)
def test_plan_rejects_crossover_points_no_chromosome_has(params):
    # 16 bits x 4 variables leave 63 cut positions, 8 bits x 4 leave 31
    with pytest.raises(ValueError, match=r"crossover_points must be <= chromosome length - 1"):
        ExperimentPlan(algorithms=("pso",), optimizer_params=params)
    ExperimentPlan(optimizer_params={"bga": BgaParams(crossover_points=63)})


def test_negative_base_seed_is_rejected():
    with pytest.raises(ValueError, match=r"base_seed must be >= 0 \(got -1\)"):
        BenchSettings(base_seed=-1)
    with pytest.raises(ValueError, match="base_seed"):
        ExperimentPlan(base_seed=-3)
