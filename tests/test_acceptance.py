"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The criteria pin both
tolerances and runtime budgets; the runtime asserts use time.perf_counter
around the criterion body.
"""

import csv
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from shakebal.bench import parse_results, results_equal_modulo_time
from shakebal.mechanism import DecisionVector, MechanismConfig, profile_arrays
from shakebal.objective import ObjectiveSpec, calibrate_bounds, default_search_bounds, evaluate, make_objective, polar_area
from shakebal.optimizers import (
    AbcParams,
    BgaParams,
    HgapsoParams,
    PsoParams,
    inertia_weight,
    optimize_abc,
    optimize_bga,
    optimize_hgapso,
    optimize_pso,
    selection_probabilities,
)
from shakebal.testfns import hypercube_bounds, sphere

from _oracles import CFG_KEYS, DV_KEYS, oracle_p1, oracle_p2, oracle_p3, oracle_p4, random_params

SEEDS = range(1, 11)


def _report(number: int, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    return passed


def test_criterion_1_equation_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        params = random_params(rng)
        cfg = MechanismConfig(**{k: params[k] for k in CFG_KEYS})
        dv = DecisionVector(**{k: params[k] for k in DV_KEYS})
        theta = rng.uniform(0.0, 2 * math.pi)
        for profile, oracle in zip(
            profile_arrays(cfg, dv, theta), (oracle_p1, oracle_p2, oracle_p3, oracle_p4)
        ):
            want = oracle(params, theta)
            rel = abs(float(profile) - want) / (1.0 + abs(want))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-12 and elapsed < 1.0
    assert _report(1, passed, f"p1..p4 vs term-by-term oracle, worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_analytic_cancellation():
    t0 = time.perf_counter()
    cfg = MechanismConfig(m_c=0.0, m_p=0.0, m_0=1.0, R_0=0.5, alpha=0.7, omega=1.0, r_1=0.25)
    dv = DecisionVector(m_1=2.0, m_2=0.0, phi_1=cfg.alpha + math.pi, phi_2=0.0)
    b = evaluate(cfg, dv, ObjectiveSpec(n_samples=1024))
    elapsed = time.perf_counter() - t0
    passed = b.raw_cost <= 1e-9 and b.c1 <= 1e-9 and b.c2 <= 1e-9 and elapsed < 1.0
    assert _report(
        2, passed, f"antiphase counterweight: f={b.raw_cost:.2e} c1={b.c1:.2e} c2={b.c2:.2e}"
    )


def test_criterion_3_quadrature():
    t0 = time.perf_counter()
    circle_err = abs(polar_area(np.ones(720)) - math.pi)
    theta = 2 * math.pi * np.arange(1024) / 1024
    cosine_err = abs(polar_area(np.abs(np.cos(theta))) - math.pi / 2)
    cfg = MechanismConfig()
    a = evaluate(cfg, DecisionVector.zero(), ObjectiveSpec(n_samples=720)).raw_cost
    b = evaluate(cfg, DecisionVector.zero(), ObjectiveSpec(n_samples=1440)).raw_cost
    doubling_rel = abs(b - a) / a
    elapsed = time.perf_counter() - t0
    passed = circle_err <= 1e-12 and cosine_err <= 1e-6 and doubling_rel < 1e-8 and elapsed < 1.0
    assert _report(
        3,
        passed,
        f"unit circle err {circle_err:.1e}, |cos| err {cosine_err:.1e}, "
        f"n-doubling rel {doubling_rel:.2e} (stated bound 1e-8)",
    )


def test_criterion_4_sphere_sanity():
    t0 = time.perf_counter()
    box = hypercube_bounds(4)
    cases = [
        ("pso", optimize_pso, PsoParams(population=50, iterations=300), 1e-4),
        ("abc", optimize_abc, AbcParams(food_sources=25, iterations=300, limit=100), 1e-4),
        ("bga", optimize_bga, BgaParams(population=50, iterations=300), 1e-1),
        ("hgapso", optimize_hgapso, HgapsoParams(population=50, iterations=300), 1e-2),
    ]
    summary = []
    passed = True
    for name, optimize, params, threshold in cases:
        hits = sum(optimize(sphere, box, params, seed=s).best_f <= threshold for s in SEEDS)
        summary.append(f"{name} {hits}/10 <= {threshold:g}")
        passed = passed and hits >= 9
    elapsed = time.perf_counter() - t0
    passed = passed and elapsed < 30.0
    assert _report(4, passed, f"4-D sphere, seeds 1-10: {', '.join(summary)} ({elapsed:.1f}s)")


def _cancellation_problem():
    """The balancing task with an exactly reachable zero: default mechanism
    minus the crank/slider masses, constraint bounds calibrated for it."""
    cfg = MechanismConfig(m_c=0.0, m_p=0.0)
    bounds = default_search_bounds(cfg)
    c1_max, c2_max = calibrate_bounds(cfg, bounds, n_random=2000, fraction=0.5, seed=0)
    spec = ObjectiveSpec(c1_max=c1_max, c2_max=c2_max, bounds=bounds)
    return cfg, spec


def test_criterion_5_balancing_effectiveness():
    t0 = time.perf_counter()
    cfg, spec = _cancellation_problem()
    unbalanced = evaluate(cfg, DecisionVector.zero(), spec).total
    objective = make_objective(cfg, spec)
    target = 0.01 * unbalanced

    cases = [
        ("pso", optimize_pso, lambda n: PsoParams(population=50, iterations=n), (200, 300)),
        ("abc", optimize_abc, lambda n: AbcParams(food_sources=25, iterations=n), (200, 300)),
        ("bga", optimize_bga, lambda n: BgaParams(population=50, iterations=n), (300,)),
        ("hgapso", optimize_hgapso, lambda n: HgapsoParams(population=50, iterations=n), (300,)),
    ]
    summary = []
    passed = True
    for name, optimize, make_params, budgets in cases:
        for budget in budgets:
            hits = sum(
                optimize(objective, spec.bounds, make_params(budget), seed=s).best_f <= target
                for s in SEEDS
            )
            summary.append(f"{name}@{budget} {hits}/10")
            passed = passed and hits >= 8
    elapsed = time.perf_counter() - t0
    passed = passed and elapsed < 60.0
    assert _report(
        5, passed,
        f"total <= 1% of unbalanced ({unbalanced:.1f}): {', '.join(summary)} ({elapsed:.1f}s)",
    )


def _run_bench(out_dir, jobs=None) -> None:
    cmd = [sys.executable, "-m", "shakebal", "bench", "--out", str(out_dir)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_criterion_6_protocol_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench"
    _run_bench(out)
    rows = parse_results(out / "results.csv")
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    groups = {(r.algorithm, r.budget) for r in rows}
    ordered = all(
        float(s["best"]) <= float(s["average"]) <= float(s["worst"]) for s in summary
    )
    elapsed = time.perf_counter() - t0
    passed = (
        len(rows) == 80
        and len(groups) == 8
        and len(summary) == 16  # cost + wall_time_s per group
        and ordered
        and elapsed < 300.0
    )
    assert _report(
        6, passed,
        f"default bench: {len(rows)} rows, {len(groups)} groups, "
        f"best<=avg<=worst {ordered} ({elapsed:.0f}s)",
    )


def test_criterion_7_determinism_across_jobs(tmp_path):
    t0 = time.perf_counter()
    _run_bench(tmp_path / "a", jobs=2)
    _run_bench(tmp_path / "b", jobs=1)
    identical = results_equal_modulo_time(
        tmp_path / "a" / "results.csv", tmp_path / "b" / "results.csv"
    )
    elapsed = time.perf_counter() - t0
    passed = identical and elapsed < 600.0
    assert _report(
        7, passed,
        f"default bench at --jobs 2 vs 1: results identical modulo wall_time_s = "
        f"{identical} ({elapsed:.0f}s)",
    )


def test_criterion_8_invariant_suite():
    t0 = time.perf_counter()
    box = hypercube_bounds(4)
    checks: dict[str, bool] = {}

    runs = [
        optimize_pso(sphere, box, PsoParams(population=20, iterations=50), seed=3),
        optimize_abc(sphere, box, AbcParams(food_sources=10, iterations=50), seed=3),
        optimize_bga(sphere, box, BgaParams(population=20, iterations=50), seed=3),
        optimize_hgapso(sphere, box, HgapsoParams(population=20, iterations=50), seed=3),
    ]
    checks["monotone traces"] = all(np.all(np.diff(r.trace) <= 0) for r in runs)
    checks["box feasibility"] = all(box.contains(r.best_x) for r in runs)

    rng = np.random.default_rng(0)
    checks["abc probabilities"] = all(
        abs(selection_probabilities(rng.uniform(0.01, 10.0, 30)).sum() - 1.0) <= 1e-12
        for _ in range(100)
    )

    params = PsoParams(iterations=123, w_max=0.9, w_min=0.4)
    checks["inertia endpoints"] = (
        inertia_weight(params, 0) == params.w_max
        and inertia_weight(params, params.iterations) == params.w_min
    )

    cfg = MechanismConfig()
    spec = ObjectiveSpec()
    dv = DecisionVector(0.7, 0.3, 1.2, 4.5)
    dv_shift = DecisionVector(0.7, 0.3, 1.2 + 2 * math.pi, 4.5 - 2 * math.pi)
    a, b = evaluate(cfg, dv, spec), evaluate(cfg, dv_shift, spec)
    checks["2pi-periodic cost"] = abs(a.total - b.total) <= 1e-12 * a.total

    s = 2.5
    fast = MechanismConfig(omega=s * cfg.omega)
    theta = np.linspace(0.0, 2 * math.pi, 64)
    p_fast, p_slow = profile_arrays(fast, dv, theta), profile_arrays(cfg, dv, theta)
    checks["omega^2 forces"] = bool(
        np.allclose(p_fast[0], s**2 * p_slow[0], rtol=1e-12)
        and np.allclose(p_fast[1], s**2 * p_slow[1], rtol=1e-12)
    )
    free = ObjectiveSpec(c1_max=1e30, c2_max=1e30)
    checks["omega^4 cost"] = (
        evaluate(fast, dv, free).raw_cost
        == pytest.approx(s**4 * evaluate(cfg, dv, free).raw_cost, rel=1e-12)
    )

    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks.items() if not good]
    passed = not failed and elapsed < 30.0
    assert _report(
        8, passed,
        "all invariants hold" if not failed else f"failed: {', '.join(failed)}",
    )
