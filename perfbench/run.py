"""shakebal benchmark: the solve, campaign and sweep workloads.

    python3 perfbench/run.py --workload solve|campaign|sweep|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; shakebal is imported from ``src/``
(nothing is installed).  Every input is generated from ``--seed``.  Each
workload is a closed loop with one caller that repeats a fixed round of
work until ``--seconds`` have passed, checks every output, and prints a
report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off: ``setup_s`` and ``work_per_s`` (see :func:`work_per_s`).
With ``--trace 1`` rounds run in untraced/traced pairs on the same seeds:
the traced rounds give the per-layer metrics, the pair gives the tracing
overhead, and the exact counts of the two must agree bit for bit.
README.md beside this file maps layers to metrics and workloads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import NullTracer, Tracer  # noqa: E402

ALGOS = ("pso", "abc", "bga", "hgapso")
# raw cost of the certified optimum of the default mechanism; the grid is
# exact there because p2 vanishes identically
FROZEN_REF_RAW = 1377.08858153382
REF_RTOL = 1e-9
BEAT_REF_RTOL = 1e-12  # a run may undercut the reference by rounding only
HIT_GAP = 1e-3
SETUP_REPEATS = 11
CAMPAIGN_BUDGETS = (200, 300)
CAMPAIGN_REPEATS = 2
SWEEP_POINTS = 200  # per part per round
SWEEP_CHECKED = 2  # points per part per round checked on the fine grid
PENALTY_FRACTION = 0.1
FINE_FACTOR = 8
# loose enough for the grid cost's ~n**-2 error and for an exact cost
COST_RTOL = 1e-3
PROBE_REPEATS = 30
STEP_PERCENTILE = 95  # of step latency; see work_per_s


class Ctx:
    """What every round of one workload run shares."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.seed = seed
        self.trace = trace
        self.problems: list[str] = []
        self.jobs = 1
        OUT.mkdir(exist_ok=True)
        self.tag = f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
        self.config_path = OUT / f"{self.tag}.cfg"

    def round_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout: float = 170.0) -> tuple[float, str]:
    """Run a Python child to completion; returns (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=timeout,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stdout


def median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def throughput(rounds: list) -> float:
    """Median over rounds of the round's completed units per second."""
    return median(r["units"] / r["time"] for r in rounds)


def work_per_s(rounds: list, jobs: int = 1) -> float:
    """Units of work per second, with the round time rebuilt from the
    STEP_PERCENTILE latency of its shortest timed steps.

    Shared hosts can alternate between a fast and a slow speed every few
    seconds, with a share of fast time that changes from run to run; any
    central statistic of a long step then follows that share.  A short step
    falls in one speed, and the 95th percentile of many of them sits in the
    slow speed, which most runs contain.  The steps are the optimizer
    iterations of each algorithm when a round is made of runs, else the
    rounds themselves.  What the steps do not cover (initial population,
    evaluate(), interpreter and pool start, the CSV writers) is added as its
    median time over rounds.
    """
    if "runs" not in rounds[0]:
        return rounds[0]["units"] / np.percentile([r["time"] for r in rounds], STEP_PERCENTILE)
    steps = {}
    for rnd in rounds:
        for run in rnd["runs"]:
            steps.setdefault(run["algo"], []).append(run["iter_s"])
    tail = {algo: np.percentile(np.concatenate(v), STEP_PERCENTILE) for algo, v in steps.items()}
    compute = sum(run["iter_s"].size * tail[run["algo"]] for run in rounds[0]["runs"]) / jobs
    rest = median(rnd["time"] - sum(run["iter_s"].sum() for run in rnd["runs"]) / jobs
                  for rnd in rounds)
    return rounds[0]["units"] / (compute + rest)


# ----------------------------------------------------------------------
# inputs and reference
# ----------------------------------------------------------------------

def write_config(path: Path, base_seed: int) -> None:
    """The default mechanism and objective spelled out, plus the campaign
    plan; parse_config must give back exactly the defaults."""
    from shakebal import MechanismConfig, ObjectiveSpec

    lines = [f"mechanism.{f.name} = {getattr(MechanismConfig(), f.name)!r}"
             for f in dataclasses.fields(MechanismConfig)]
    spec = ObjectiveSpec()
    for key in ("n_samples", "c1_max", "c2_max", "penalty_weight"):
        lines.append(f"objective.{key} = {getattr(spec, key)!r}")
    lines += [
        "bench.algorithms = " + ", ".join(ALGOS),
        "bench.iteration_budgets = " + ", ".join(map(str, CAMPAIGN_BUDGETS)),
        f"bench.repeats = {CAMPAIGN_REPEATS}",
        f"bench.base_seed = {base_seed}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference(ctx: Ctx):
    """Certified optimum of the default mechanism: the first counterweight
    cancels the unbalance mass, the second is empty."""
    from shakebal import DecisionVector, MechanismConfig, ObjectiveSpec, evaluate

    cfg = MechanismConfig()
    x_ref = DecisionVector(cfg.m_0 * cfg.R_0 / cfg.r_1, 0.0, cfg.alpha + math.pi, 0.0)
    ref = evaluate(cfg, x_ref, ObjectiveSpec())
    if abs(ref.raw_cost - FROZEN_REF_RAW) > REF_RTOL * FROZEN_REF_RAW:
        ctx.problem(f"reference raw cost {ref.raw_cost!r} != frozen {FROZEN_REF_RAW!r}")
    return ref


def fine_grid_agrees(ctx: Ctx, cfg, dv, breakdown) -> bool:
    """The grid cost against polar areas of the plain profile functions on
    a grid FINE_FACTOR times finer."""
    from shakebal import polar_area
    from shakebal.mechanism import profile_arrays, theta_grid

    p1, p2, p3, p4 = profile_arrays(cfg, dv, theta_grid(FINE_FACTOR * 720))
    fine = (polar_area(np.abs(p1) + np.abs(p2)), polar_area(np.abs(p3)), polar_area(np.abs(p4)))
    got = (breakdown.raw_cost, breakdown.c1, breakdown.c2)
    ok = all(abs(a - b) <= COST_RTOL * abs(b) + 1e-12 for a, b in zip(got, fine))
    if not ok:
        ctx.problem(f"grid cost {got} disagrees with fine grid {fine} at {dv}")
    return ok


def penalty_consistent(ctx: Ctx, spec, b) -> bool:
    expected = max(0.0, b.c1 - spec.c1_max) / spec.c1_max + max(0.0, b.c2 - spec.c2_max) / spec.c2_max
    ok = (math.isclose(b.violation, expected, rel_tol=1e-12, abs_tol=0.0)
          and math.isclose(b.total, b.raw_cost + spec.penalty_weight * b.violation, rel_tol=1e-12))
    if not ok:
        ctx.problem(f"penalty bookkeeping off: {b}")
    return ok


# ----------------------------------------------------------------------
# set-up and probes
# ----------------------------------------------------------------------

def measure_setup(ctx: Ctx) -> dict:
    """Fresh interpreter -> import shakebal -> parse_config -> objective
    ready, SETUP_REPEATS times; medians."""
    walls, imports, parses = [], [], []
    for _ in range(SETUP_REPEATS):
        wall, out = run_child([str(HERE / "setup_probe.py"), str(ctx.config_path)])
        split = json.loads(out.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(split["import_s"])
        parses.append(split["parse_s"])
    return {"setup_s": median(walls), "config.import_s": median(imports),
            "config.parse_s": median(parses)}


def probes(ctx: Ctx) -> dict:
    """Layer microbenchmarks: one 50-point population through the
    make_objective callback, and the BGA codec per chromosome."""
    from shakebal import MechanismConfig, ObjectiveSpec, make_objective
    from shakebal.optimizers import decode_bits, encode_point

    spec = ObjectiveSpec()
    objective = make_objective(MechanismConfig(), spec)
    points = spec.bounds.lerp(np.random.default_rng([ctx.seed, 7]).random((50, 4)))
    gen, codec = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for x in points:
            objective(x)
        t1 = time.perf_counter()
        for x in points:
            decode_bits(encode_point(x, spec.bounds, 16), spec.bounds, 16)
        t2 = time.perf_counter()
        gen.append(t1 - t0)
        codec.append((t2 - t1) / len(points))
    return {"objective.gen50_ms": 1e3 * median(gen), "bga.codec_us": 1e6 * median(codec)}


# ----------------------------------------------------------------------
# solve: back-to-back balance runs in-process
# ----------------------------------------------------------------------

def solve_prepare(ctx: Ctx) -> None:
    from shakebal import MechanismConfig, ObjectiveSpec
    from shakebal.bench import default_optimizer_params

    ctx.cfg = MechanismConfig()
    ctx.spec = ObjectiveSpec()
    ctx.params = default_optimizer_params()
    ctx.ref = reference(ctx)


def solve_round(ctx: Ctx, k: int, tracer) -> dict:
    """One seeded 300-iteration run per algorithm, then evaluate(best_x)."""
    from shakebal import DecisionVector, evaluate, make_objective
    from shakebal.optimizers import OPTIMIZERS

    seed = ctx.round_seed(k)
    runs, failed, busy = [], 0, 0.0
    for algo in ALGOS:
        params = ctx.params[algo]
        t0 = time.perf_counter()
        with tracer.span(f"optimizers.{algo}", seed=seed):
            objective = tracer.rollup("objective.call", make_objective(ctx.cfg, ctx.spec))
            result = OPTIMIZERS[algo](objective, ctx.spec.bounds, params, seed)
        with tracer.span("objective.evaluate.shared"):
            b = evaluate(ctx.cfg, DecisionVector.from_array(result.best_x), ctx.spec)
        wall = time.perf_counter() - t0
        busy += wall
        gap = b.total / ctx.ref.total - 1.0
        checks = {
            "in bounds": ctx.spec.bounds.contains(result.best_x),
            "evaluate(best_x) == best_f": b.total == result.best_f,
            "trace length": result.trace.size == params.iterations + 1,
            "trace non-increasing": bool(np.all(np.diff(result.trace) <= 0.0)),
            "no better than reference": gap >= -BEAT_REF_RTOL,
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failed += 1
            ctx.problem(f"{algo} seed {seed}: failed {bad}")
        runs.append({
            "algo": algo, "wall": wall, "gap": gap, "evals": result.evaluations,
            "penalized": b.violation > 0,
            "iter_s": np.diff(result.time_trace, prepend=0.0),
        })
    exact = [(r["algo"], r["evals"], float(r["gap"]).hex()) for r in runs]
    return {"time": busy, "units": len(runs), "failed": failed, "runs": runs, "exact": exact}


def solve_layers(untraced: list, tracer: Tracer) -> dict:
    out = {}
    calls = tracer.named("objective.call")
    out["objective.calls"] = sum(s["count"] for s in calls)
    out["objective.us_per_call"] = 1e6 * sum(s["busy"] for s in calls) / max(1, out["objective.calls"])
    evals = tracer.named("objective.evaluate.shared")
    out["evaluate.us_shared"] = 1e6 * median(s["busy"] for s in evals)
    first = untraced[0]["runs"]
    out["evaluate.penalized_share"] = sum(r["penalized"] for r in first) / len(first)
    for algo in ALGOS:
        spans = tracer.named(f"optimizers.{algo}")
        run_busy = [s["busy"] for s in spans]
        obj_busy = [sum(c["busy"] for c in tracer.children(s, "objective.call")) for s in spans]
        out[f"{algo}.objective_share"] = sum(obj_busy) / sum(run_busy)
        out[f"{algo}.bookkeeping_s"] = median(r - o for r, o in zip(run_busy, obj_busy))
        mine = [r for rnd in untraced for r in rnd["runs"] if r["algo"] == algo]
        out[f"{algo}.iter_ms"] = 1e3 * median(np.concatenate([r["iter_s"] for r in mine]))
        out[f"{algo}.evals"] = mine[0]["evals"]
        out[f"{algo}.gap"] = mine[0]["gap"]
    return out


def solve_report(untraced: list) -> dict:
    runs = [r for rnd in untraced for r in rnd["runs"]]
    out = {f"{algo}.run_s": median(r["wall"] for r in runs if r["algo"] == algo) for algo in ALGOS}
    out["gap_p50"] = median(r["gap"] for r in runs)
    out["hit_rate"] = sum(r["gap"] <= HIT_GAP for r in runs) / len(runs)
    out["runs_per_s"] = throughput(untraced)
    return out


# ----------------------------------------------------------------------
# campaign: `shakebal bench --jobs <nproc>` on a generated config
# ----------------------------------------------------------------------

def campaign_prepare(ctx: Ctx) -> None:
    # nproc, but at least 2 so that the pool always runs, and at most 4 to
    # keep memory small
    ctx.jobs = max(2, min(len(os.sched_getaffinity(0)), 4))
    ctx.ref = reference(ctx)


def _deterministic_csv(out_dir: Path) -> bytes:
    """results.csv with the wall-time column emptied, then convergence.csv:
    the part of a campaign's output that repeats bit for bit."""
    buf = io.StringIO()
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        writer = csv.writer(buf, lineterminator="\n")
        header = next(reader)
        idx = header.index("wall_time_s")
        writer.writerow(header)
        for rec in reader:
            rec[idx] = ""
            writer.writerow(rec)
    return buf.getvalue().encode() + (out_dir / "convergence.csv").read_bytes()


def _iteration_times(out_dir: Path) -> list:
    """Per-run iteration durations from runtime.csv, in row order."""
    cumulative = []
    with open(out_dir / "runtime.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _, _, iteration, seconds in reader:
            if iteration == "1":
                cumulative.append([])
            cumulative[-1].append(float(seconds))
    return [np.diff(np.array(c), prepend=0.0) for c in cumulative]


def check_campaign(ctx: Ctx, out_dir: Path) -> tuple[list, int]:
    """Rows, groups and summary.csv complete and consistent; every row's
    point in bounds, re-evaluating to its cost, no better than the
    reference.  Returns (rows, failed)."""
    from shakebal import DecisionVector, MechanismConfig, ObjectiveSpec, evaluate
    from shakebal.bench import parse_results, summarize

    rows = parse_results(out_dir / "results.csv")
    cfg, spec = MechanismConfig(), ObjectiveSpec()
    expected = len(ALGOS) * len(CAMPAIGN_BUDGETS) * CAMPAIGN_REPEATS
    failed = 0
    for row in rows:
        x = np.array([row.m1, row.m2, row.phi1, row.phi2]) if row.status == "ok" else None
        ok = row.status == "ok" and spec.bounds.contains(x)
        if ok:
            b = evaluate(cfg, DecisionVector.from_array(x), spec)
            ok = b.total == row.total_cost and b.total / ctx.ref.total - 1.0 >= -BEAT_REF_RTOL
        if not ok:
            failed += 1
            ctx.problem(f"campaign row {row.algorithm}@{row.budget} seed {row.seed} failed its checks")
    with open(out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
        summary = list(csv.DictReader(fh))
    recomputed = summarize(rows)
    whole = (
        len(rows) == expected
        and len(summary) == 2 * len(ALGOS) * len(CAMPAIGN_BUDGETS)
        and len(recomputed) == len(summary)
        and all(
            float(s["best"]) <= float(s["average"]) <= float(s["worst"])
            and (s["algorithm"], int(s["budget"]), s["metric"]) == (r.algorithm, r.budget, r.metric)
            and (float(s["average"]), float(s["best"]), float(s["worst"])) == (r.average, r.best, r.worst)
            for s, r in zip(summary, recomputed)
        )
    )
    n_conv = (out_dir / "convergence.csv").read_text(encoding="utf-8").count("\n") - 1
    n_time = (out_dir / "runtime.csv").read_text(encoding="utf-8").count("\n") - 1
    whole = whole and n_conv == sum(r.budget + 1 for r in rows) and n_time == sum(r.budget for r in rows)
    if not whole:
        ctx.problem(f"campaign output in {out_dir} incomplete or inconsistent")
        failed = max(failed, expected)
    return rows, failed


def campaign_round(ctx: Ctx, k: int, tracer) -> dict:
    """One whole campaign through the CLI (tracing off) or through the
    traced replay of cmd_bench's calls (tracing on), on the same plan."""
    config = OUT / f"{ctx.tag}-k{k}.cfg"
    write_config(config, base_seed=ctx.round_seed(k) * CAMPAIGN_REPEATS)
    traced = isinstance(tracer, Tracer)
    out_dir = OUT / f"{ctx.tag}-k{k}-{'replay' if traced else 'cli'}"
    if traced:
        spans_path = out_dir.with_suffix(".jsonl")
        wall, _ = run_child([str(HERE / "bench_replay.py"), str(config), str(out_dir),
                             str(ctx.jobs), str(spans_path)])
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
    else:
        wall, _ = run_child(["-m", "shakebal", "bench", "--config", str(config), "--out",
                             str(out_dir), "--jobs", str(ctx.jobs), "--force"])
        spans = []
    rows, failed = check_campaign(ctx, out_dir)
    det = _deterministic_csv(out_dir)
    ok = [r for r in rows if r.status == "ok"]
    runs = [{"algo": r.algorithm, "budget": r.budget, "wall": r.wall_time_s, "iter_s": iter_s,
             "gap": r.total_cost / ctx.ref.total - 1.0}
            for r, iter_s in zip(ok, _iteration_times(out_dir))]
    shutil.rmtree(out_dir)
    return {"time": wall, "units": len(rows), "failed": failed, "runs": runs, "spans": spans,
            "csv_bytes": len(det), "exact": hashlib.sha256(det).hexdigest()}


def campaign_layers(ctx: Ctx, untraced: list, traced: list) -> dict:
    out = {}
    busy, eff, summ, write = [], [], [], []
    obj = {a: [] for a in ALGOS}
    for rnd in traced:
        spans = rnd["spans"]
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        plan_s = by_name["bench.run_plan"][0]["busy"]
        row_busy = sum(s["busy"] for a in ALGOS for s in by_name.get(f"optimizers.{a}", []))
        busy.append(row_busy)
        eff.append(row_busy / (ctx.jobs * plan_s))
        summ.append(by_name["bench.summarize"][0]["busy"])
        write.append(sum(by_name[n][0]["busy"] for n in (
            "bench.write_results", "bench.write_summary", "bench.emit_convergence",
            "bench.emit_runtime_growth")))
        for a in ALGOS:
            obj[a] += [s for s in by_name.get(f"optimizers.{a}", []) if s["budget"] == 300]
    out["bench.worker_busy_s"] = median(busy)
    out["bench.parallel_efficiency"] = median(eff)
    out["bench.summarize_s"] = median(summ)
    out["bench.write_s"] = median(write)
    out["bench.csv_bytes"] = untraced[0]["csv_bytes"]
    timed = [s for a in ALGOS for s in obj[a] if s["objective_busy_s"] is not None]
    out["objective.calls"] = sum(s["evals"] for s in timed)
    out["objective.us_per_call"] = (
        1e6 * sum(s["objective_busy_s"] for s in timed) / max(1, out["objective.calls"]))
    for a in ALGOS:
        mine = [s for s in obj[a] if s["objective_busy_s"] is not None]
        out[f"{a}.objective_share"] = (
            sum(s["objective_busy_s"] for s in mine) / sum(s["busy"] for s in mine) if mine else 0.0)
        out[f"{a}.bookkeeping_s"] = median(s["busy"] - s["objective_busy_s"] for s in mine)
        out[f"{a}.iter_ms"] = 1e3 * median(
            np.concatenate([np.diff(s["iter_s"], prepend=0.0) for s in obj[a]]))
        first = [s for s in traced[0]["spans"] if s["name"] == f"optimizers.{a}" and s["budget"] == 300]
        out[f"{a}.evals"] = first[0]["evals"]
        runs = [r for r in untraced[0]["runs"] if r["algo"] == a and r["budget"] == 300]
        out[f"{a}.gap"] = runs[0]["gap"]
    return out


def campaign_report(untraced: list) -> dict:
    runs = [r for rnd in untraced for r in rnd["runs"] if r["budget"] == 300]
    out = {f"{a}.run_s": median(r["wall"] for r in runs if r["algo"] == a) for a in ALGOS}
    out["gap_p50"] = median(r["gap"] for r in runs)
    out["hit_rate"] = sum(r["gap"] <= HIT_GAP for r in runs) / len(runs)
    out["runs_per_s"] = throughput(untraced)
    return out


# ----------------------------------------------------------------------
# sweep: the objective alone
# ----------------------------------------------------------------------

def random_mechanism(rng):
    """A valid mechanism drawn across the ranges, masses exactly 0 one time
    in five."""
    from shakebal import MechanismConfig

    def mass():
        return 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 1.0))

    R = float(rng.uniform(0.01, 0.1))
    return MechanismConfig(
        m_c=mass(), m_p=mass(), R=R, L=R + float(rng.uniform(0.0, 0.4)),
        omega=float(rng.uniform(1.0, 200.0)), m_0=mass(), R_0=float(rng.uniform(0.01, 0.1)),
        alpha=float(rng.uniform(0.0, 2 * math.pi)), a_1=float(rng.uniform(0.05, 0.3)),
        a_2=float(rng.uniform(0.05, 0.3)), theta_0=float(rng.uniform(0.0, 2 * math.pi)),
        r_1=float(rng.uniform(0.01, 0.1)), r_2=float(rng.uniform(0.01, 0.1)),
    )


def sweep_prepare(ctx: Ctx) -> None:
    """Criterion 5's cancellation mechanism, with constraint bounds
    calibrated low enough that many points pay the exterior penalty."""
    from shakebal import MechanismConfig, ObjectiveSpec, calibrate_bounds, default_search_bounds

    ctx.cfg = MechanismConfig(m_c=0.0, m_p=0.0)
    ctx.bounds = default_search_bounds(ctx.cfg)
    c1, c2 = calibrate_bounds(ctx.cfg, ctx.bounds, 1000, PENALTY_FRACTION, seed=ctx.seed)
    ctx.spec = ObjectiveSpec(c1_max=c1, c2_max=c2, bounds=ctx.bounds)


def sweep_round(ctx: Ctx, k: int, tracer) -> dict:
    from shakebal import DecisionVector, ObjectiveSpec, calibrate_bounds, default_search_bounds, evaluate

    seed = ctx.round_seed(k)
    rng = np.random.default_rng([ctx.seed, k])
    shared = [DecisionVector.from_array(x) for x in ctx.bounds.lerp(rng.random((SWEEP_POINTS, 4)))]
    fresh = []
    for _ in range(SWEEP_POINTS):
        cfg = random_mechanism(rng)
        bounds = default_search_bounds(cfg)
        fresh.append((cfg, DecisionVector.from_array(bounds.lerp(rng.random(4))),
                      ObjectiveSpec(bounds=bounds)))

    t0 = time.perf_counter()
    with tracer.span("objective.calibrate_bounds", points=SWEEP_POINTS):
        c1, c2 = calibrate_bounds(ctx.cfg, ctx.bounds, SWEEP_POINTS, 0.5, seed=seed)
    t1 = time.perf_counter()
    ev = tracer.rollup("objective.evaluate.shared", evaluate)
    shared_out = [ev(ctx.cfg, dv, ctx.spec) for dv in shared]
    t2 = time.perf_counter()
    ev = tracer.rollup("objective.evaluate.fresh", evaluate)
    fresh_out = [ev(cfg, dv, spec) for cfg, dv, spec in fresh]
    t3 = time.perf_counter()

    failed = 0
    if not (math.isfinite(c1) and math.isfinite(c2) and c1 > 0 and c2 > 0):
        failed += SWEEP_POINTS
        ctx.problem(f"calibrate_bounds gave {c1}, {c2}")
    for i, b in enumerate(shared_out):
        ok = penalty_consistent(ctx, ctx.spec, b)
        if i < SWEEP_CHECKED:
            ok = fine_grid_agrees(ctx, ctx.cfg, shared[i], b) and ok
        failed += not ok
    for i, ((cfg, dv, spec), b) in enumerate(zip(fresh, fresh_out)):
        ok = penalty_consistent(ctx, spec, b)
        if i < SWEEP_CHECKED:
            ok = fine_grid_agrees(ctx, cfg, dv, b) and ok
        failed += not ok
    penalized = sum(b.violation > 0 for b in shared_out)
    digest = hashlib.sha256(np.array(
        [c1, c2] + [b.total for b in shared_out] + [b.total for b in fresh_out]).tobytes()).hexdigest()
    return {"time": t3 - t0, "units": 3 * SWEEP_POINTS, "failed": failed,
            "parts": (t1 - t0, t2 - t1, t3 - t2), "penalized": penalized, "exact": (penalized, digest)}


def sweep_layers(untraced: list, tracer: Tracer) -> dict:
    out = {}
    calib = tracer.named("objective.calibrate_bounds")
    out["objective.calls"] = sum(s["points"] for s in calib)
    out["objective.us_per_call"] = 1e6 * sum(s["busy"] for s in calib) / max(1, out["objective.calls"])
    for part in ("shared", "fresh"):
        spans = tracer.named(f"objective.evaluate.{part}")
        out[f"evaluate.us_{part}"] = 1e6 * sum(s["busy"] for s in spans) / sum(s["count"] for s in spans)
    out["evaluate.penalized_share"] = untraced[0]["penalized"] / SWEEP_POINTS
    return out


def sweep_report(untraced: list) -> dict:
    names = ("calib_eval_per_s", "eval_shared_per_s", "eval_fresh_per_s")
    return {name: median(SWEEP_POINTS / rnd["parts"][i] for rnd in untraced)
            for i, name in enumerate(names)}


# ----------------------------------------------------------------------
# running a workload
# ----------------------------------------------------------------------

WORKLOADS = {
    "solve": (solve_prepare, solve_round, solve_report),
    "campaign": (campaign_prepare, campaign_round, campaign_report),
    "sweep": (sweep_prepare, sweep_round, sweep_report),
}

LAYER_UNITS = {
    "config.import_s": "s", "config.parse_s": "s",
    "objective.calls": "count", "objective.us_per_call": "us", "objective.gen50_ms": "ms",
    "evaluate.us_shared": "us", "evaluate.us_fresh": "us", "evaluate.penalized_share": "share",
    "bga.codec_us": "us",
    "bench.worker_busy_s": "s", "bench.parallel_efficiency": "share", "bench.summarize_s": "s",
    "bench.write_s": "s", "bench.csv_bytes": "bytes",
    **{f"{a}.{m}": u for a in ALGOS for m, u in (
        ("run_s", "s"), ("objective_share", "share"), ("bookkeeping_s", "s"),
        ("iter_ms", "ms"), ("evals", "count"), ("gap", "ratio"))},
    "gap_p50": "ratio", "hit_rate": "share", "runs_per_s": "1/s",
    "calib_eval_per_s": "1/s", "eval_shared_per_s": "1/s", "eval_fresh_per_s": "1/s",
    "failed_share": "share", "trace.overhead_share": "share", "trace.spans": "count",
}


def fingerprint() -> dict:
    import shakebal

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "shakebal": shakebal.__version__, "commit": commit,
        "thread_env": {k: os.environ[k] for k in threads if k in os.environ},
    }


def run_rounds(ctx: Ctx, round_fn, seconds: float):
    """Rounds until `seconds` have passed.  Traced runs alternate which of
    each same-seed untraced/traced pair goes first."""
    untraced, traced = [], []
    tracer = Tracer() if ctx.trace else None
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < seconds:
        for on in ((False, True) if k % 2 == 0 else (True, False)) if ctx.trace else (False,):
            if on:
                with tracer.span("round", k=k):
                    traced.append(round_fn(ctx, k, tracer))
            else:
                untraced.append(round_fn(ctx, k, NullTracer()))
        k += 1
    return untraced, traced, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    prepare, round_fn, report = WORKLOADS[name]
    ctx = Ctx(name, seed, trace)
    write_config(ctx.config_path, base_seed=1)
    from shakebal.config import AppConfig, parse_config

    parsed = parse_config(ctx.config_path)
    if (parsed.mechanism, parsed.objective) != (AppConfig().mechanism, AppConfig().objective):
        ctx.problem("generated config does not parse back to the defaults")
    setup = measure_setup(ctx)
    prepare(ctx)
    untraced, traced, tracer = run_rounds(ctx, round_fn, seconds)

    attempted = sum(r["units"] for r in untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)
    for u, t in zip(untraced, traced):
        if u["exact"] != t["exact"]:
            failed += u["units"]
            ctx.problem(f"exact counts differ between traced and untraced round: {u['exact']} != {t['exact']}")
    named = {**report(untraced), "failed_share": failed / attempted}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(untraced), "round_s": [r["time"] for r in untraced],
        "fingerprint": fingerprint(), "named": named,
        "problems": ctx.problems,
        "e2e": {
            "setup_s": setup["setup_s"],
            "work_per_s": work_per_s(untraced, ctx.jobs),
        },
        "attempted": attempted, "failed": failed,
    }
    if trace:
        layers = dict.fromkeys(LAYER_UNITS, 0.0)
        layers.update({k: v for k, v in setup.items() if k != "setup_s"})
        layers.update(probes(ctx))
        if name == "solve":
            layers.update(solve_layers(untraced, tracer))
        elif name == "campaign":
            layers.update(campaign_layers(ctx, untraced, traced))
        else:
            layers.update(sweep_layers(untraced, tracer))
        layers.update(named)
        u = median(r["time"] for r in untraced)
        layers["trace.overhead_share"] = (median(r["time"] for r in traced) - u) / u
        layers["trace.spans"] = len(tracer.spans) + sum(len(r.get("spans", [])) for r in traced)
        result["layers"] = layers
        tracer.write(OUT / f"{ctx.tag}-spans.jsonl")
    with open(OUT / f"{ctx.tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)
    return result


E2E_UNITS = {"setup_s": "s", "work_per_s": "1/s"}


def print_report(result: dict) -> None:
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  rounds {result['rounds']}  trace {result['trace']}")
    print("   machine " + json.dumps(result["fingerprint"]))
    for key, value in {**result["e2e"], **result["named"]}.items():
        unit = E2E_UNITS.get(key) or LAYER_UNITS[key]
        print(f"   {w}.{key:<24} {value:.6g} {unit}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "shakebal" / "__init__.py").is_file():
        print(f"error: no shakebal sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_report(result)

    def metrics(result):
        if args.trace:
            return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in result["layers"].items()}
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["e2e"].items()}

    if len(results) == 1:
        out = metrics(results[0])
    else:
        out = {f"{r['workload']}.{k}": v for r in results for k, v in metrics(r).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
