"""Benchmark harness: row accounting, determinism, statistics and the CSV
round-trips."""

import csv
import dataclasses
import math
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

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
from shakebal.optimizers import OPTIMIZERS, AbcParams, BgaParams, HgapsoParams, PsoParams, RunResult

from _oracles import polar_area_oracle

TINY_PARAMS = {
    "pso": PsoParams(population=8, iterations=10),
    "abc": AbcParams(food_sources=4, iterations=10),
    "bga": BgaParams(population=8, iterations=10),
    "hgapso": HgapsoParams(population=8, iterations=10),
}


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


def test_parallel_execution_matches_serial(tmp_path):
    plan = tiny_plan()
    write_results(run_plan(plan, jobs=1), tmp_path / "serial.csv")
    write_results(run_plan(plan, jobs=2), tmp_path / "parallel.csv")
    assert results_equal_modulo_time(tmp_path / "serial.csv", tmp_path / "parallel.csv")


def test_failed_runs_stay_in_the_table():
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


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched optimizer reaches the workers only through fork",
)
def test_worker_crash_fails_its_rows_and_the_plan_goes_on(tmp_path, monkeypatch):
    def crash(*args):
        os._exit(3)

    monkeypatch.setitem(OPTIMIZERS, "pso", crash)
    rows = run_plan(tiny_plan(algorithms=("pso",), repeats=3), jobs=2)
    assert [(r.algorithm, r.experiment, r.seed) for r in rows] == [("pso", k, k) for k in (1, 2, 3)]
    assert [r.status for r in rows] == ["failed"] * 3
    assert all(r.error.startswith("BrokenProcessPool: ") for r in rows)
    write_results(rows, tmp_path / "results.csv")
    assert [r.status for r in parse_results(tmp_path / "results.csv")] == ["failed"] * 3


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched optimizer reaches the workers only through fork",
)
def test_worker_crash_fails_only_its_own_run(tmp_path, monkeypatch):
    plan = tiny_plan(algorithms=("pso",), repeats=3)
    serial = run_plan(plan, jobs=1)
    pso = OPTIMIZERS["pso"]

    def crash_on_seed_1(objective, bounds, params, seed):
        if seed == 1:
            os._exit(3)
        return pso(objective, bounds, params, seed)

    monkeypatch.setitem(OPTIMIZERS, "pso", crash_on_seed_1)
    rows = run_plan(plan, jobs=2)
    assert [(r.experiment, r.status) for r in rows] == [(1, "failed"), (2, "ok"), (3, "ok")]
    assert rows[0].error.startswith("BrokenProcessPool: ")
    write_results(rows[1:], tmp_path / "parallel.csv")
    write_results(serial[1:], tmp_path / "serial.csv")
    assert results_equal_modulo_time(tmp_path / "serial.csv", tmp_path / "parallel.csv")


def test_failed_run_records_its_reason(tmp_path):
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


# Cost column of the published PSO group at budget 200; used purely as a
# format fixture for the emit -> parse -> summarize round trip.
PSO_200_COSTS = [
    29853.3719, 29853.3845, 29853.3894, 29853.4599, 29853.3913,
    29853.3205, 29853.2973, 29853.2971, 29853.3101, 29853.3096,
]


def test_published_pso_group_round_trips(tmp_path):
    rows = [
        ResultRow("pso", 200, k + 1, k + 1, total_cost=c, wall_time_s=0.0, status="ok")
        for k, c in enumerate(PSO_200_COSTS)
    ]
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
    rows = [ResultRow("pso", 10, 1, 1, total_cost=value, wall_time_s=0.0, status="ok")]
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


def test_every_results_column_round_trips(tmp_path):
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


def test_runtime_refuses_missing_checkpoints(tmp_path):
    result = RunResult(
        algorithm="pso", seed=1, best_x=np.zeros(4), best_f=0.0,
        trace=np.zeros(3), evaluations=10, wall_time=0.1, time_trace=np.empty(0),
    )
    rows = [ResultRow("pso", 2, 1, 1, status="ok", result=result)]
    with pytest.raises(ValueError, match="timing"):
        emit_runtime_growth(rows, tmp_path / "runtime.csv")


def test_polar_profile_rows(tmp_path):
    cfg = MechanismConfig()
    emit_polar(cfg, DecisionVector.zero(), [("fix", DecisionVector(0.2, 0.0, math.pi, 0.0))],
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
    emit_polar(cfg, DecisionVector.zero(), [], 360, tmp_path / "polar.csv")
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
    emit_polar(cfg, DecisionVector.zero(), [("pso", balanced)], 720, tmp_path / "polar.csv")
    data = np.genfromtxt(tmp_path / "polar.csv", delimiter=",", names=True)
    assert polar_area_oracle(data["r_pso"]) < polar_area_oracle(data["r_unbalanced"])


def test_plan_validation():
    with pytest.raises(ValueError, match="unknown algorithms"):
        ExperimentPlan(algorithms=("pso", "nope"))
    with pytest.raises(ValueError, match="repeats"):
        ExperimentPlan(repeats=0)
    with pytest.raises(ValueError, match="budgets"):
        ExperimentPlan(iteration_budgets=())


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
