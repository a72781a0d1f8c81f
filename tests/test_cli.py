"""CLI subcommands: outputs, exit codes, flag precedence, idempotence."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from shakebal import bench, cli, config, objective
from shakebal.bench import parse_results
from shakebal.cli import main
from shakebal.optimizers import STEPS

FAST_CFG = """
objective.n_samples = 64
pso.population = 8
pso.iterations = 12
abc.food_sources = 4
abc.iterations = 12
bga.population = 8
bga.iterations = 12
hgapso.population = 8
hgapso.iterations = 12
bench.algorithms = pso, abc
bench.iteration_budgets = 10
bench.repeats = 2
"""


def crash(*args):
    """A roster entry whose worker dies; module-level, so that a worker
    started by any start method unpickles it by reference."""
    os._exit(3)


@pytest.fixture
def unchecked_overflow(monkeypatch):
    """Let a config whose cost can overflow load, which the load check
    (``require_finite_cost``) refuses, so that its runs fail as they run."""
    for module in (bench, config):
        monkeypatch.setattr(module, "require_finite_cost", lambda cfg, spec: None)


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


def test_help_lists_subcommands_and_flags(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("balance", "calibrate", "bench", "profile"):
        assert sub in out
    assert main(["balance", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--algo", "--iters", "--seed", "--out", "--force", "--config"):
        assert flag in out
    assert "default" in out  # defaults are shown


def test_usage_error_exits_1(capsys):
    assert main([]) == 1
    assert main(["balance", "--algo", "nope"]) == 1


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["balance", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "not found" in capsys.readouterr().err


def test_config_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mechanism.L = -1\n")
    assert main(["balance", "--config", str(bad)]) == 1
    assert "mechanism.L" in capsys.readouterr().err


def test_balance_prints_solution_and_writes_files(fast_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["balance", "--config", fast_cfg, "--algo", "pso", "--iters", "15",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    for field in ("m1", "m2", "phi1", "phi2", "raw_cost", "c1", "c2", "total_cost"):
        assert field in stdout
    assert "iterations   15" in stdout  # flag overrode the config value
    with open(out / "convergence.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 16
    assert (out / "polar.csv").exists()


def test_existing_outputs_need_force(fast_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["balance", "--config", fast_cfg, "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 1
    assert "--force" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


def test_balance_is_idempotent_modulo_nothing(fast_cfg, tmp_path, capsys):
    # no wall-time fields in balance outputs, so reruns are byte-identical
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["balance", "--config", fast_cfg, "--seed", "7"]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b)]) == 0
    for name in ("convergence.csv", "polar.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_calibrate_prints_and_rewrites_config(fast_cfg, tmp_path, capsys):
    new_cfg = tmp_path / "calibrated.cfg"
    code = main(["calibrate", "--config", fast_cfg, "--samples", "200", "--seed", "0",
                 "--write-config", str(new_cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "c1_max" in out and "c2_max" in out
    text = new_cfg.read_text()
    assert "objective.c1_max = " in text
    assert "bench.repeats = 2" in text  # original content preserved
    # the rewritten file parses and keeps the recommended values
    from shakebal.config import parse_config
    parsed = parse_config(new_cfg)
    printed_c1 = float(out.split("c1_max")[1].split()[0])
    assert parsed.objective.c1_max == printed_c1


def test_bench_writes_all_outputs(fast_cfg, tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--config", fast_cfg, "--out", str(out), "--jobs", "1"]) == 0
    rows = parse_results(out / "results.csv")
    assert len(rows) == 2 * 1 * 2  # 2 algorithms x 1 budget x 2 repeats
    for name in ("results.csv", "summary.csv", "convergence.csv", "runtime.csv"):
        assert (out / name).exists()
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert {s["metric"] for s in summary} == {"cost", "wall_time_s"}
    for s in summary:
        assert float(s["best"]) <= float(s["average"]) <= float(s["worst"])


def test_bench_rejects_a_non_finite_config_value(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text(FAST_CFG + "mechanism.omega = nan\n")
    assert main(["bench", "--config", str(bad), "--out", str(tmp_path / "b"), "--jobs", "1"]) == 1
    assert "mechanism.omega" in capsys.readouterr().err
    assert not (tmp_path / "b" / "results.csv").exists()


@pytest.mark.parametrize("omega", ["1e154", "1e160"])
def test_bench_rejects_a_mechanism_that_overflows(tmp_path, capsys, omega):
    bad = tmp_path / "huge.cfg"
    bad.write_text(f"mechanism.omega = {omega}\n")
    assert main(["bench", "--config", str(bad), "--out", str(tmp_path / "b"), "--jobs", "1"]) == 1
    assert f"{bad}:1: mechanism.omega: omega = " in capsys.readouterr().err
    assert not (tmp_path / "b" / "results.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["profile", "--samples", "4", "--solutions", "SOLUTIONS", "--out", "OUT"],
         "--samples: n_samples must be >= 8 (got 4)"),
        (["calibrate", "--samples", "0"], "--samples: n_random must be >= 1 (got 0)"),
        (["calibrate", "--fraction", "2"], "--fraction: fraction must be in (0, 1] (got 2.0)"),
        (["balance", "--iters", "0", "--out", "OUT"], "--iters: iterations must be >= 1 (got 0)"),
    ],
)
def test_bad_flag_value_exits_1_with_one_line(tmp_path, capsys, argv, message):
    solutions = tmp_path / "solutions.csv"
    solutions.write_text("name,m1,m2,phi1,phi2\nguess,0.2,0.0,3.14159,0.0\n")
    paths = {"SOLUTIONS": str(solutions), "OUT": str(tmp_path / "o")}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_oversized_grid_exits_1_before_any_allocation(fast_cfg, tmp_path, capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the grid was allocated before its size was checked")

    bad = tmp_path / "big.cfg"
    bad.write_text("objective.n_samples = 1e9\n")
    assert main(["balance", "--config", str(bad), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}:1: objective.n_samples: n_samples must be <= 1048576 (got 1000000000)\n"
    solutions = tmp_path / "solutions.csv"
    solutions.write_text("name,m1,m2,phi1,phi2\nguess,0.2,0.0,3.14159,0.0\n")
    monkeypatch.setattr(np, "arange", no_allocation)
    argv = ["profile", "--config", fast_cfg, "--solutions", str(solutions),
            "--samples", "1000000000", "--out", str(tmp_path / "p")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --samples: n_samples must be <= 1048576 (got 1000000000)\n"
    assert not (tmp_path / "p").exists()


def test_oversized_calibration_exits_1_before_the_draw(fast_cfg, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("calibrate drew its samples before their count was checked")

    monkeypatch.setattr(objective, "substream", no_draw)
    assert main(["calibrate", "--config", fast_cfg, "--samples", "1000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --samples: n_random must be <= 1048576 (got 1000000000)\n"


def test_balance_failure_gives_the_reason(fast_cfg, tmp_path, capsys, unchecked_overflow):
    doomed = tmp_path / "doomed.cfg"
    doomed.write_text(FAST_CFG + "objective.penalty_weight = 1e308\nobjective.c1_max = 1e-12\n")
    assert main(["balance", "--config", str(doomed), "--out", str(tmp_path / "b")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: run aborted: NonFiniteObjectiveError: ")
    assert len(captured.err.splitlines()) == 1


def test_balance_whose_worker_dies_exits_2_with_the_reason(fast_cfg, tmp_path, capfd, monkeypatch, pools):
    monkeypatch.setitem(STEPS, "pso", crash)
    assert main(["balance", "--config", fast_cfg, "--algo", "pso", "--out", str(tmp_path / "b")]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: run aborted: BrokenProcessPool: ")
    assert not (tmp_path / "b" / "convergence.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("bga.crossover_points", "70"), ("bench.base_seed", "-1"), ("bench.algorithms", "pso, pso")],
)
def test_bench_rejects_a_value_no_run_could_use(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG + f"{key} = {value}\n")
    assert main(["bench", "--config", str(bad), "--out", str(tmp_path / "b"), "--jobs", "1"]) == 1
    lineno = FAST_CFG.count("\n") + 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:{lineno}: {key}: ")
    assert not (tmp_path / "b" / "results.csv").exists()


@pytest.mark.parametrize("command", ["balance", "calibrate"])
def test_negative_seed_flag_exits_1_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "o"
    argv = [command, "--seed", "-1"] + (["--out", str(out)] if command == "balance" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --seed: seed must be >= 0 (got -1)\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_bench_rejects_jobs_below_one_before_any_output(fast_cfg, tmp_path, capsys, jobs):
    out = tmp_path / "b"
    assert main(["bench", "--config", fast_cfg, "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: --jobs: jobs must be >= 1 (got {jobs})\n"
    assert not out.exists()


def test_bench_rejects_a_cost_that_can_overflow_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "doomed.cfg"
    cfg.write_text(FAST_CFG + "objective.c1_max = 1e-320\n")
    out = tmp_path / "b"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 1
    lineno = FAST_CFG.count("\n") + 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {cfg}:{lineno}: objective.c1_max: c1_max = 1e-320, ")
    assert not out.exists()


def test_bench_says_why_each_run_failed(tmp_path, capsys, unchecked_overflow):
    cfg = tmp_path / "doomed.cfg"
    # every point is infeasible, and its penalty overflows to inf
    cfg.write_text(FAST_CFG + "objective.penalty_weight = 1e308\nobjective.c1_max = 1e-12\n")
    out = tmp_path / "b"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4  # one per run
    assert lines[0].startswith(
        "warning: pso@10 experiment 1 (seed 1) failed: NonFiniteObjectiveError: "
    )
    assert all("NonFiniteObjectiveError" in line for line in lines)
    with open(out / "results.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-1] == "status"
    assert [r[-1] for r in rows] == ["failed"] * 4


def test_profile_reads_named_solutions(fast_cfg, tmp_path):
    solutions = tmp_path / "solutions.csv"
    solutions.write_text(
        "name,m1,m2,phi1,phi2\nguess,0.2,0.0,3.14159,0.0\nother,0.1,0.1,1.0,2.0\n"
    )
    out = tmp_path / "prof"
    code = main(["profile", "--config", fast_cfg, "--solutions", str(solutions),
                 "--samples", "90", "--out", str(out)])
    assert code == 0
    with open(out / "polar.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["theta_rad", "r_unbalanced", "r_guess", "r_other"]
        assert len(list(reader)) == 90


def test_profile_rejects_bad_solutions_file(fast_cfg, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("m1,m2\n1,2\n")
    assert main(["profile", "--config", fast_cfg, "--solutions", str(bad),
                 "--out", str(tmp_path / "p")]) == 1
    assert "expected header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, reason",
    [
        ("bad,nan,0,0,0", "m_1 must be finite (got nan)"),
        ("huge,inf,0,1,0", "m_1 must be finite (got inf)"),
        ("huge,0,0,inf,0", "phi_1 must be finite (got inf)"),
    ],
)
def test_profile_rejects_a_non_finite_solution(fast_cfg, tmp_path, capsys, row, reason):
    solutions = tmp_path / "solutions.csv"
    solutions.write_text(f"name,m1,m2,phi1,phi2\nguess,0.2,0.0,3.14159,0.0\n{row}\n")
    out = tmp_path / "p"
    assert main(["profile", "--config", fast_cfg, "--solutions", str(solutions),
                 "--out", str(out)]) == 1
    rec = row.split(",")
    assert capsys.readouterr().err == f"error: {solutions}:3: bad solution row {rec} ({reason})\n"
    assert not out.exists()


@pytest.mark.parametrize("row, count", [("a,0.1,0,0,0,junk", 6), ("a,0.1,0,0", 4)], ids=["long", "short"])
def test_profile_rejects_a_row_without_five_fields(fast_cfg, tmp_path, capsys, row, count):
    solutions = tmp_path / "solutions.csv"
    solutions.write_text(f"name,m1,m2,phi1,phi2\n{row}\n")
    out = tmp_path / "p"
    assert main(["profile", "--config", fast_cfg, "--solutions", str(solutions),
                 "--out", str(out)]) == 1
    rec = row.split(",")
    assert capsys.readouterr().err == f"error: {solutions}:2: bad solution row {rec} (expected 5 fields, got {count})\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, error",
    [
        ("unbalanced,0.2,0,0,0", "2: solution name 'unbalanced' is reserved for the unbalanced profile"),
        ("a,0.2,0,0,0\n a ,0.1,0,0,0", "3: solution name 'a' repeats line 2"),
        (",0.2,0,0,0", "2: solution name '' is empty"),
    ],
    ids=["reserved", "repeated", "empty"],
)
def test_profile_rejects_a_name_that_would_head_an_ambiguous_column(fast_cfg, tmp_path, capsys, rows, error):
    solutions = tmp_path / "solutions.csv"
    solutions.write_text(f"name,m1,m2,phi1,phi2\n{rows}\n")
    out = tmp_path / "p"
    assert main(["profile", "--config", fast_cfg, "--solutions", str(solutions),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {solutions}:{error}\n"
    assert not out.exists()


def test_calibrate_refuses_to_overwrite_its_config_copy(fast_cfg, tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("calibrate sampled before checking its output path")

    monkeypatch.setattr(cli, "calibrate_bounds", no_sampling)
    existing = tmp_path / "calibrated.cfg"
    existing.write_bytes(b"objective.c1_max = 1.0\r\n# kept\n")
    before = existing.read_bytes()
    argv = ["calibrate", "--config", fast_cfg, "--samples", "200", "--write-config", str(existing)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: refusing to overwrite existing output: {existing}\n"
    assert existing.read_bytes() == before


def test_calibrate_rejects_a_config_copy_in_a_missing_directory(fast_cfg, tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("calibrate sampled before checking its output path")

    monkeypatch.setattr(cli, "calibrate_bounds", no_sampling)
    target = tmp_path / "absent" / "x.cfg"
    assert main(["calibrate", "--config", fast_cfg, "--write-config", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --write-config: no such directory: {target.parent}\n"


def test_calibrate_refuses_a_zero_bound_with_no_counterweight_mass(tmp_path, capsys):
    # no crank or unbalance mass: the moment row p3 is 0, so is every C1
    cfg = tmp_path / "massless.cfg"
    cfg.write_text("mechanism.m_0 = 0\nmechanism.m_c = 0\n")
    target = tmp_path / "calibrated.cfg"
    argv = ["calibrate", "--config", str(cfg), "--samples", "200", "--write-config", str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the recommended bounds would not load: c1_max must be > 0 (got 0.0)\n"
    assert not target.exists()


def test_calibrate_refuses_bounds_whose_cost_can_overflow(tmp_path, capsys):
    target = tmp_path / "calibrated.cfg"
    argv = ["calibrate", "--samples", "200", "--fraction", "1e-320", "--write-config", str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: the recommended bounds would not load: c1_max = ")
    assert "can make the cost overflow" in line
    assert not target.exists()


@pytest.mark.parametrize("command", [["balance", "--iters", "2"], ["bench", "--jobs", "1"], ["profile"]])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_out_that_cannot_be_a_directory_exits_1(fast_cfg, tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("")
    argv = command + ["--config", fast_cfg, "--out", str(tmp_path / out)]
    if command == ["profile"]:
        solutions = tmp_path / "solutions.csv"
        solutions.write_text("name,m1,m2,phi1,phi2\nzero,0,0,0,0\n")
        argv += ["--solutions", str(solutions)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot create directory {tmp_path / out}: ")
    assert err.count("\n") == 1


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "shakebal", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "balance" in proc.stdout
