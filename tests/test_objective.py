"""Quadrature, cost breakdown, penalty behavior and bound calibration."""

import dataclasses
import math

import numpy as np
import pytest

from shakebal.mechanism import DecisionVector, MechanismConfig, profile_arrays, theta_grid
from shakebal.objective import (
    GridEvaluator,
    ObjectiveSpec,
    _abs_product_integral,
    _abs_product_integrals,
    _quartic_zero_columns,
    _quartic_zeros,
    calibrate_bounds,
    default_search_bounds,
    evaluate,
    make_objective,
    polar_area,
    require_finite_cost,
)
from shakebal.optimizers import Bounds, substream

from _oracles import (
    CFG_KEYS,
    DV_KEYS,
    brute_force_breakdown,
    oracle_p1,
    oracle_p2,
    oracle_p3,
    oracle_p4,
    random_params,
)

# brute_force_breakdown(DEFAULT_PARAMS, n=1e5), frozen; the test also
# recomputes it live so oracle drift cannot go unnoticed
BRUTE_FORCE_DEFAULT_TOTAL = 7566.160111823795

DEFAULT_PARAMS = dict(
    m_c=0.5, m_p=0.3, R=0.05, L=0.2, omega=2 * math.pi * 10, m_0=0.2, R_0=0.04,
    alpha=0.0, a_1=0.1, a_2=0.15, theta_0=math.pi, r_1=0.04, r_2=0.04,
    m_1=0.0, m_2=0.0, phi_1=0.0, phi_2=0.0,
)


def cancellation_setup():
    """Config and the exact counterweight that kills all four profiles."""
    cfg = MechanismConfig(m_c=0.0, m_p=0.0, m_0=1.0, R_0=0.5, alpha=0.7, omega=1.0, r_1=0.25)
    dv = DecisionVector(m_1=2.0, m_2=0.0, phi_1=cfg.alpha + math.pi, phi_2=0.0)
    return cfg, dv


# ----------------------------------------------------------------------
# polar_area
# ----------------------------------------------------------------------

def test_unit_circle_area():
    for n in (8, 64, 720):
        assert polar_area(np.ones(n)) == pytest.approx(math.pi, rel=1e-12)


def test_zero_radius_area():
    assert polar_area(np.zeros(32)) == 0.0


def test_abs_cosine_area():
    theta = theta_grid(1024)
    assert polar_area(np.abs(np.cos(theta))) == pytest.approx(math.pi / 2, abs=1e-6)


def test_polar_area_rejects_bad_radii():
    with pytest.raises(ValueError, match=">= 0"):
        polar_area(np.array([1.0, -0.1, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        polar_area(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        polar_area(np.array([1.0, np.inf]))


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------

def test_zero_mechanism_costs_nothing():
    cfg = MechanismConfig(m_c=0.0, m_p=0.0, m_0=0.0)
    b = evaluate(cfg, DecisionVector.zero(), ObjectiveSpec())
    assert b.raw_cost == b.c1 == b.c2 == b.total == 0.0


def test_cancellation_point_costs_nothing():
    cfg, dv = cancellation_setup()
    b = evaluate(cfg, dv, ObjectiveSpec(n_samples=1024))
    assert b.raw_cost <= 1e-12
    assert b.c1 <= 1e-12
    assert b.c2 <= 1e-12


def test_matches_brute_force_oracle():
    spec = ObjectiveSpec()
    live = brute_force_breakdown(
        DEFAULT_PARAMS, n=100_000, penalty_weight=spec.penalty_weight,
        c1_max=spec.c1_max, c2_max=spec.c2_max,
    )
    assert live["total"] == pytest.approx(BRUTE_FORCE_DEFAULT_TOTAL, rel=1e-9)
    got = evaluate(MechanismConfig(), DecisionVector.zero(), spec)
    assert got.total == pytest.approx(BRUTE_FORCE_DEFAULT_TOTAL, rel=1e-4)


def assert_matches_oracle(params: dict) -> None:
    cfg = MechanismConfig(**{k: params[k] for k in CFG_KEYS})
    dv = DecisionVector(**{k: params[k] for k in DV_KEYS})
    got = evaluate(cfg, dv, ObjectiveSpec())
    want = brute_force_breakdown(params, n=200_000)
    assert got.raw_cost == pytest.approx(want["f"], rel=1e-9), params
    assert got.c1 == pytest.approx(want["c1"], rel=1e-9), params
    assert got.c2 == pytest.approx(want["c2"], rel=1e-9), params


def test_exact_cost_matches_oracle_with_zeroed_masses():
    rng = np.random.default_rng(11)
    for _ in range(40):
        params = random_params(rng)
        for key in ("m_c", "m_p", "m_0", "m_1", "m_2"):
            if rng.random() < 1 / 3:
                params[key] = 0.0
        assert_matches_oracle(params)


def test_exact_cost_matches_oracle_on_degenerate_profiles():
    # no slider mass: p1 has no second harmonic, the quartic degenerates
    assert_matches_oracle({**DEFAULT_PARAMS, "m_p": 0.0, "m_1": 0.3, "phi_1": 2.0})
    # theta_0 = pi/2: the two slider second harmonics cancel in p1
    assert_matches_oracle({**DEFAULT_PARAMS, "theta_0": math.pi / 2, "m_2": 0.4, "phi_2": 1.0})
    # p2 == 0: only the sliders move, and they act along x
    assert_matches_oracle({**DEFAULT_PARAMS, "m_c": 0.0, "m_0": 0.0})
    # the zero mechanism
    assert_matches_oracle({**DEFAULT_PARAMS, "m_c": 0.0, "m_p": 0.0, "m_0": 0.0})


def tangent_zero_params() -> dict:
    """With m_c = m_0 = m_2 = 0, counterweight 1 sets the first harmonic of
    p1 freely: choose it so that p1 has a double zero at t = 2.2."""
    p = {**DEFAULT_PARAMS, "m_c": 0.0, "m_0": 0.0, "theta_0": 0.9}
    t_star = 2.2
    w2 = p["omega"] ** 2
    slider = p["m_p"] * p["R"] * w2
    second = slider * p["R"] / p["L"]
    t0 = p["theta_0"]
    c2, s2 = second * (1 + math.cos(2 * t0)), -second * math.sin(2 * t0)
    h = c2 * math.cos(2 * t_star) + s2 * math.sin(2 * t_star)
    dh = -2 * c2 * math.sin(2 * t_star) + 2 * s2 * math.cos(2 * t_star)
    # first harmonic (c1, s1) with c1 cos t + s1 sin t = -h, derivative -dh
    c1 = -h * math.cos(t_star) + dh * math.sin(t_star)
    s1 = -h * math.sin(t_star) - dh * math.cos(t_star)
    # counterweight 1 adds (g cos phi, -g sin phi) to what the sliders give
    x = c1 - slider * (1 + math.cos(t0))
    y = -(s1 + slider * math.sin(t0))
    p.update(m_1=math.hypot(x, y) / (p["r_1"] * w2), phi_1=math.atan2(y, x) % (2 * math.pi))
    return p


def test_exact_cost_matches_oracle_when_p1_touches_zero():
    p = tangent_zero_params()
    t_star = 2.2
    w2 = p["omega"] ** 2
    cfg = MechanismConfig(**{k: p[k] for k in CFG_KEYS})
    dv = DecisionVector(**{k: p[k] for k in DV_KEYS})
    touch = profile_arrays(cfg, dv, np.array([t_star - 1e-4, t_star, t_star + 1e-4]))[0]
    assert abs(touch[1]) <= 1e-12 * w2
    assert np.sign(touch[0]) == np.sign(touch[2]) != 0
    assert_matches_oracle(p)


def test_grid_evaluator_matches_mechanism_functions():
    rng = np.random.default_rng(3)
    cfg = MechanismConfig()
    theta = theta_grid(720)
    for _ in range(20):
        dv = DecisionVector(*rng.uniform(0.0, 5.0, 2), *rng.uniform(0.0, 2 * math.pi, 2))
        params = {**dataclasses.asdict(cfg), **dataclasses.asdict(dv)}
        table = profile_arrays(cfg, dv, theta)
        for got, oracle in zip(table, (oracle_p1, oracle_p2, oracle_p3, oracle_p4)):
            want = [oracle(params, t) for t in theta]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * cfg.omega**2)


def test_penalty_kicks_in_exactly_at_the_bounds():
    cfg = MechanismConfig()
    rng = np.random.default_rng(4)
    for _ in range(50):
        dv = DecisionVector(*rng.uniform(0.0, 10.0, 2), *rng.uniform(0.0, 2 * math.pi, 2))
        free = evaluate(cfg, dv, ObjectiveSpec(c1_max=1e30, c2_max=1e30))
        tight = evaluate(cfg, dv, ObjectiveSpec(c1_max=free.c1 / 2, c2_max=free.c2 / 2))
        # total >= f always; equality iff both constraints hold
        assert free.total == free.raw_cost
        assert free.violation == 0.0
        assert tight.total > tight.raw_cost
        assert tight.violation == pytest.approx(2.0, rel=1e-12)  # both at 2x their bound


def test_omega_scaling_is_quartic():
    base = MechanismConfig()
    fast = MechanismConfig(omega=3.0 * base.omega)
    dv = DecisionVector(0.4, 0.7, 1.0, 5.0)
    spec = ObjectiveSpec(c1_max=1e30, c2_max=1e30)
    a = evaluate(base, dv, spec)
    b = evaluate(fast, dv, spec)
    assert b.raw_cost == pytest.approx(3.0**4 * a.raw_cost, rel=1e-12)
    assert b.c1 == pytest.approx(3.0**4 * a.c1, rel=1e-12)
    assert b.c2 == pytest.approx(3.0**4 * a.c2, rel=1e-12)


def test_phase_rotation_invariance():
    # Rotating every phase-bearing angle by a whole number of grid steps
    # re-labels the sample points, so the cost is unchanged.  Only holds
    # with the phase-free crank/slider terms absent (m_c = m_p = 0).
    spec = ObjectiveSpec(n_samples=720)
    shift = 2 * math.pi * 97 / spec.n_samples
    cfg = MechanismConfig(m_c=0.0, m_p=0.0, alpha=0.3)
    rot = MechanismConfig(m_c=0.0, m_p=0.0, alpha=0.3 + shift, theta_0=cfg.theta_0 + shift)
    dv = DecisionVector(0.8, 0.5, 1.1, 4.0)
    dv_rot = DecisionVector(0.8, 0.5, 1.1 + shift, 4.0 + shift)
    a = evaluate(cfg, dv, spec)
    b = evaluate(rot, dv_rot, spec)
    assert b.raw_cost == pytest.approx(a.raw_cost, rel=1e-12)
    assert b.c1 == pytest.approx(a.c1, rel=1e-12)
    assert b.c2 == pytest.approx(a.c2, rel=1e-12)


def test_phi_shift_by_two_pi_leaves_cost_unchanged():
    cfg = MechanismConfig()
    spec = ObjectiveSpec()
    dv = DecisionVector(0.8, 0.5, 1.1, 4.0)
    shifted = DecisionVector(0.8, 0.5, 1.1 + 2 * math.pi, 4.0 + 2 * math.pi)
    assert evaluate(cfg, shifted, spec).total == pytest.approx(
        evaluate(cfg, dv, spec).total, rel=1e-12
    )


def test_doubling_samples_barely_moves_the_cost():
    # The cost is exact and n_samples only sets the plotting grid, so the
    # two readings agree to rounding (the acceptance suite asserts 1e-8).
    cfg = MechanismConfig()
    a = evaluate(cfg, DecisionVector.zero(), ObjectiveSpec(n_samples=720))
    b = evaluate(cfg, DecisionVector.zero(), ObjectiveSpec(n_samples=1440))
    assert abs(b.raw_cost - a.raw_cost) / a.raw_cost < 1e-5


def test_objective_callback_matches_evaluate():
    cfg = MechanismConfig()
    spec = ObjectiveSpec()
    fn = make_objective(cfg, spec)
    x = np.array([0.3, 0.2, 1.0, 2.0])
    assert fn(x) == evaluate(cfg, DecisionVector.from_array(x), spec).total


def test_spec_validation():
    with pytest.raises(ValueError, match="n_samples"):
        ObjectiveSpec(n_samples=4)
    with pytest.raises(ValueError, match="c1_max"):
        ObjectiveSpec(c1_max=0.0)
    with pytest.raises(ValueError, match="penalty_weight"):
        ObjectiveSpec(penalty_weight=-1.0)
    with pytest.raises(ValueError, match="lower"):
        Bounds(np.array([1.0]), np.array([0.0]))


def test_spec_grid_size_is_bounded_both_ways():
    with pytest.raises(ValueError, match=r"^n_samples must be >= 8 \(got 4\)$"):
        ObjectiveSpec(n_samples=4)
    with pytest.raises(ValueError, match=r"^n_samples must be <= 1048576 \(got 1000000000\)$"):
        ObjectiveSpec(n_samples=10**9)
    assert ObjectiveSpec(n_samples=2**20).n_samples == 2**20


def test_spec_rejects_non_finite_values_and_negative_mass_bounds():
    for field in ("c1_max", "c2_max", "penalty_weight"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ObjectiveSpec(**{field: bad})
    box = default_search_bounds()
    for j, name in ((0, "m1_min"), (1, "m2_min")):
        lower = box.lower.copy()
        lower[j] = -1.0
        with pytest.raises(ValueError, match=name):
            ObjectiveSpec(bounds=Bounds(lower, box.upper))


@pytest.mark.filterwarnings("error")
def test_cost_bounds_hold_over_the_search_box():
    rng = np.random.default_rng(11)
    cfgs = [MechanismConfig()] + [
        MechanismConfig(**{k: p[k] for k in CFG_KEYS}) for p in (random_params(rng) for _ in range(4))
    ]
    for cfg in cfgs:
        spec = ObjectiveSpec(bounds=default_search_bounds(cfg))
        bounds = require_finite_cost(cfg, spec)
        # random points, and the heaviest counterweights at random phases
        X = spec.bounds.lerp(rng.random((300, 4)))
        X[:100, :2] = spec.bounds.upper[:2]
        parts = [evaluate(cfg, DecisionVector.from_array(x), spec) for x in X]
        sampled = [max(getattr(b, name) for b in parts) for name in ("raw_cost", "c1", "c2")]
        assert all(s <= b for s, b in zip(sampled, bounds)), (sampled, bounds)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c1_max, accepted", [(1e-290, True), (1e-300, False), (1e-320, False)])
def test_a_spec_whose_cost_can_overflow_is_rejected(c1_max, accepted):
    cfg = MechanismConfig()
    spec = ObjectiveSpec(c1_max=c1_max)
    values = make_objective(cfg, spec).batch(spec.bounds.lerp(substream(5, 0).random((200, 4))))
    if accepted:
        require_finite_cost(cfg, spec)
        assert np.isfinite(values).all()
    else:
        message = rf"^c1_max = {c1_max!r}, c2_max = .* and penalty_weight = .* can make the cost overflow"
        with pytest.raises(ValueError, match=message):
            require_finite_cost(cfg, spec)
        assert not np.isfinite(values).all()


# ----------------------------------------------------------------------
# zeros of p1 (closed-form quartic)
# ----------------------------------------------------------------------

def p_of(row, t):
    c1, s1, c2, s2 = row
    return c1 * np.cos(t) + s1 * np.sin(t) + c2 * np.cos(2 * t) + s2 * np.sin(2 * t)


def sign_changes(row, n: int = 20_001) -> np.ndarray:
    """Where p changes sign on an n-point grid over a turn, refined by
    bisection to the last bits."""
    t = np.linspace(0.0, 2 * math.pi, n)
    v = p_of(row, t)
    i = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)
    lo, hi, sign_lo = t[i], t[i + 1], np.sign(v[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = np.sign(p_of(row, mid)) == sign_lo
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def assert_cuts_every_sign_change(row, zeros=None) -> None:
    cuts = np.array(_quartic_zeros(*row))
    for z in sign_changes(row) if zeros is None else zeros:
        gap = np.abs((cuts - z + math.pi) % (2 * math.pi) - math.pi)
        assert gap.min() <= 1e-9, (row, z, cuts)


def assert_columns_match_rows(rows) -> None:
    """_quartic_zero_columns and _abs_product_integrals give the scalar
    results bit for bit, on the rows and on random p2 factors."""
    rows = [tuple(map(float, row)) for row in rows]
    p2 = [tuple(b) for b in np.random.default_rng(len(rows)).standard_normal((len(rows), 2))]
    columns = tuple(np.array(col) for col in zip(*rows))
    with np.errstate(all="ignore"):
        zeros = _quartic_zero_columns(*columns)
        areas = _abs_product_integrals(columns, tuple(np.array(col) for col in zip(*p2)))
    assert [list(map(float.hex, z)) for z in zeros.tolist()] == [
        list(map(float.hex, _quartic_zeros(*row))) for row in rows
    ]
    assert list(map(float.hex, areas.tolist())) == [
        _abs_product_integral(row, b).hex() for row, b in zip(rows, p2)
    ]


def test_quartic_zeros_cut_every_sign_change_at_every_scale():
    rng = np.random.default_rng(31)
    rows = [rng.standard_normal(4) * 10.0 ** rng.uniform(-300, 300) for _ in range(150)]
    # coefficients of very different sizes within one row
    rows += [rng.standard_normal(4) * 10.0 ** rng.uniform(-8, 8, 4) for _ in range(150)]
    for row in rows:
        assert_cuts_every_sign_change(tuple(row))
    assert_columns_match_rows(rows)


def test_quartic_zeros_when_a_pivot_value_vanishes():
    # p(tau + pi) = 0 for tau = 0, pi/4, pi/2, 3 pi/4 in turn
    rng = np.random.default_rng(32)
    r = math.sqrt(0.5)
    rows = []
    for c1, s1, c2, s2 in rng.standard_normal((40, 4)):
        rows += [
            (c1, s1, c1, s2),
            (c1, s1, c2, r * (c1 + s1)),
            (c1, -c2, c2, s2),
            (c1, s1, c2, r * (c1 - s1)),
        ]
    # two, three and all four at once: p = cos 2t, sin 2t, cos t + cos 2t
    rows += [(0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0)]
    for row in rows:
        assert_cuts_every_sign_change(row)
    assert_columns_match_rows(rows)


def test_quartic_zeros_of_biquadratic_rows():
    # even rows with c1 c2 < 0 pivot at tau = 0, where the depressed
    # quartic has Q = 0; some of them have no real zero at all
    rng = np.random.default_rng(33)
    rows = [(c1, 0.0, -abs(c2) * np.sign(c1), 0.0) for c1, c2 in rng.standard_normal((100, 2))]
    rows += [(-1.0, 0.0, 1.0, 0.0), (-1.0, 0.0, 4.0, 0.0), (-4.0, 0.0, 1.0, 0.0)]
    for row in rows:
        assert_cuts_every_sign_change(row)
    assert_columns_match_rows(rows)


def test_quartic_zeros_at_a_near_tangent_double_zero():
    """p = first harmonic + (c2, s2), tuned so that p(t*) = v and
    p'(t*) = 0: a double zero for v = 0, two zeros 2 d apart near t* for
    v = -p''(t*) d**2 / 2."""
    rng = np.random.default_rng(34)
    rows = []
    for t_star, (c2, s2) in zip(rng.uniform(0, 2 * math.pi, 30), rng.standard_normal((30, 2))):
        h = c2 * math.cos(2 * t_star) + s2 * math.sin(2 * t_star)
        dh = -2 * c2 * math.sin(2 * t_star) + 2 * s2 * math.cos(2 * t_star)
        for d in (0.0, 1e-6, 1e-4, 1e-2):
            # p'' at t* is -v - 3 h, about -3 h
            v = 1.5 * h * d * d
            c1 = (v - h) * math.cos(t_star) + dh * math.sin(t_star)
            s1 = (v - h) * math.sin(t_star) - dh * math.cos(t_star)
            row = (c1, s1, c2, s2)
            rows.append(row)
            if d:
                pair = []
                for lo, hi in ((t_star - 3 * d, t_star), (t_star, t_star + 3 * d)):
                    for _ in range(80):
                        mid = 0.5 * (lo + hi)
                        lo, hi = (mid, hi) if np.sign(p_of(row, mid)) == np.sign(p_of(row, lo)) else (lo, mid)
                    pair.append(0.5 * (lo + hi))
                assert abs(p_of(row, pair[0])) < 1e-12 and abs(p_of(row, pair[1])) < 1e-12
                assert_cuts_every_sign_change(row, zeros=pair)
            assert_cuts_every_sign_change(row)
    assert_columns_match_rows(rows)


# ----------------------------------------------------------------------
# GridEvaluator.batch
# ----------------------------------------------------------------------

def assert_batch_matches_total(cfg: MechanismConfig, X: np.ndarray, spec=None) -> None:
    """batch(X) is [total(x) for x in X] bit for bit; NaN in the same rows."""
    evaluator = GridEvaluator(cfg, spec or ObjectiveSpec())
    got = evaluator.batch(X)
    want = np.array([evaluator.total(x) for x in X])
    assert got.shape == want.shape == (len(X),)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    assert list(map(float.hex, got[keep].tolist())) == list(map(float.hex, want[keep].tolist()))


def population_with_faces(rng, bounds: Bounds, n: int = 120) -> np.ndarray:
    """Uniform points, with rows on every face of the box: m in {0, max},
    phi in {0, 2*pi}, and both masses 0."""
    X = bounds.lerp(rng.random((n, 4)))
    for j in range(4):
        X[8 * j: 8 * j + 4, j] = bounds.lower[j]
        X[8 * j + 4: 8 * j + 8, j] = bounds.upper[j]
    X[32:36, :2] = 0.0
    return X


def wide_phase_box(bounds: Bounds) -> Bounds:
    """``bounds`` with each phase over [-2*pi, 4*pi]."""
    turn = 2 * math.pi
    return Bounds(
        np.array([*bounds.lower[:2], -turn, -turn]), np.array([*bounds.upper[:2], 2 * turn, 2 * turn])
    )


def test_batch_matches_total_on_random_mechanisms():
    rng = np.random.default_rng(21)
    for _ in range(30):
        params = random_params(rng)
        for key in ("m_c", "m_p", "m_0"):
            if rng.random() < 1 / 3:
                params[key] = 0.0
        cfg = MechanismConfig(**{k: params[k] for k in CFG_KEYS})
        # default spec for the penalty branch, loose bounds for the raw cost
        X = population_with_faces(rng, default_search_bounds(cfg))
        assert_batch_matches_total(cfg, X)
        assert_batch_matches_total(cfg, X, ObjectiveSpec(c1_max=1e30, c2_max=1e30))
        # phases beyond a turn, and ones that a single % wraps to 2*pi itself
        X = population_with_faces(rng, wide_phase_box(default_search_bounds(cfg)))
        X[40:44, 2:] = [[-1e-20, 0.0], [0.0, -4e-16], [-5e-300, -1e-20], [-1e-20, 4 * math.pi]]
        assert_batch_matches_total(cfg, X)


def test_batch_matches_total_on_degenerate_profiles():
    rng = np.random.default_rng(22)
    for overrides in (
        {"m_p": 0.0},  # no second harmonic in p1
        {"theta_0": math.pi / 2},  # the slider second harmonics cancel
        {"m_c": 0.0, "m_0": 0.0},  # p2 == 0 on the rows with both masses 0
        {"m_c": 0.0, "m_p": 0.0, "m_0": 0.0},  # the zero mechanism
    ):
        cfg = MechanismConfig(**overrides)
        assert_batch_matches_total(cfg, population_with_faces(rng, default_search_bounds(cfg)))


def test_batch_matches_total_at_a_tangent_zero():
    p = tangent_zero_params()
    cfg = MechanismConfig(**{k: p[k] for k in CFG_KEYS})
    x = np.array([p[k] for k in DV_KEYS])
    # the tangent point itself and points a few ulps to either side
    X = np.array([x, np.nextafter(x, 0.0), np.nextafter(x, 10.0)])
    assert_batch_matches_total(cfg, X)


def test_batch_matches_total_on_non_finite_rows():
    spec = ObjectiveSpec()
    X = population_with_faces(np.random.default_rng(23), spec.bounds, n=40)
    X[1, 0] = math.nan
    X[2, 2] = math.inf
    X[3, 1] = math.inf
    X[4, 3] = -math.inf
    assert_batch_matches_total(MechanismConfig(), X)
    # finite counterweights whose coefficients overflow (a mechanism whose
    # own table overflows is rejected by MechanismConfig)
    X_huge = X[5:].copy()
    X_huge[:, :2] *= 1e300
    assert_batch_matches_total(MechanismConfig(), X_huge)


def test_batch_raises_the_scalar_error_on_negative_mass():
    evaluator = GridEvaluator(MechanismConfig(), ObjectiveSpec())
    X = np.array([[0.1, 0.1, 1.0, 1.0], [0.1, -0.5, 1.0, 1.0], [-1.0, 0.1, 1.0, 1.0]])
    with pytest.raises(ValueError) as scalar:
        evaluator.total(X[1])
    with pytest.raises(ValueError) as batched:
        evaluator.batch(X)
    assert str(batched.value) == str(scalar.value) == "m_2 must be >= 0 (got -0.5)"
    with pytest.raises(ValueError, match="shape"):
        evaluator.batch(X[0])


def test_make_objective_is_the_evaluator():
    cfg = MechanismConfig()
    spec = ObjectiveSpec()
    fn = make_objective(cfg, spec)
    X = spec.bounds.lerp(np.random.default_rng(24).random((5, 4)))
    want = [evaluate(cfg, DecisionVector.from_array(x), spec).total for x in X]
    assert fn.batch(X).tolist() == want


# ----------------------------------------------------------------------
# calibrate_bounds
# ----------------------------------------------------------------------

def test_calibrate_zero_mechanism_is_degenerate():
    cfg = MechanismConfig(m_c=0.0, m_p=0.0, m_0=0.0)
    bounds = Bounds(np.zeros(4), np.array([0.0, 0.0, 2 * math.pi, 2 * math.pi]))
    assert calibrate_bounds(cfg, bounds, 200, seed=0) == (0.0, 0.0)


def test_calibrate_single_sample_is_exact():
    cfg = MechanismConfig()
    bounds = default_search_bounds(cfg)
    got = calibrate_bounds(cfg, bounds, n_random=1, fraction=1.0, seed=42)
    # reproduce the one sampled decision vector from the documented stream
    dv = DecisionVector.from_array(bounds.lerp(substream(42, 0).random(4)))
    b = evaluate(cfg, dv, ObjectiveSpec())
    assert got == (b.c1, b.c2)


def test_calibrate_is_the_max_of_evaluate_over_the_stream():
    cfg = MechanismConfig()
    for bounds in (default_search_bounds(cfg), wide_phase_box(default_search_bounds(cfg))):
        rng = substream(3, 0)
        areas = [evaluate(cfg, DecisionVector.from_array(bounds.lerp(rng.random(4))), ObjectiveSpec())
                 for _ in range(500)]
        got = calibrate_bounds(cfg, bounds, n_random=500, fraction=0.3, seed=3)
        assert got == (0.3 * max(b.c1 for b in areas), 0.3 * max(b.c2 for b in areas))


def test_calibrate_rejects_a_negative_mass_bound():
    cfg = MechanismConfig()
    bounds = Bounds(np.array([-1.0, 0.0, 0.0, 0.0]), default_search_bounds(cfg).upper)
    with pytest.raises(ValueError, match="m1_min must be >= 0"):
        calibrate_bounds(cfg, bounds, 100)


def test_calibrate_deterministic_per_seed():
    cfg = MechanismConfig()
    bounds = default_search_bounds(cfg)
    assert calibrate_bounds(cfg, bounds, 500, seed=5) == calibrate_bounds(cfg, bounds, 500, seed=5)


def test_calibrate_seeds_agree_within_ten_percent():
    cfg = MechanismConfig()
    bounds = default_search_bounds(cfg)
    a = calibrate_bounds(cfg, bounds, 10_000, fraction=0.5, seed=0)
    b = calibrate_bounds(cfg, bounds, 10_000, fraction=0.5, seed=1)
    assert a[0] == pytest.approx(b[0], rel=0.10)
    assert a[1] == pytest.approx(b[1], rel=0.10)


def test_calibrate_rejects_bad_fraction():
    cfg = MechanismConfig()
    with pytest.raises(ValueError, match="fraction"):
        calibrate_bounds(cfg, default_search_bounds(cfg), 100, fraction=0.0)
