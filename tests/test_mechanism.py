"""Profile equations: spelled-out examples, cancellation cases, the
term-by-term oracle comparison, and the checks on the harmonic table."""

import math

import numpy as np
import pytest

from shakebal.mechanism import (
    MAX_GRID_SAMPLES,
    DecisionVector,
    MechanismConfig,
    force_x,
    force_y,
    moment_x,
    moment_y,
    profile_arrays,
    theta_grid,
    wrap_angle,
)

from _oracles import CFG_KEYS, DV_KEYS, oracle_p1, oracle_p2, oracle_p3, oracle_p4, random_params

ZERO = DecisionVector.zero()
GRID = theta_grid(1024)


def massless_config(**overrides):
    fields = dict(m_c=0.0, m_p=0.0, m_0=0.0)
    fields.update(overrides)
    return MechanismConfig(**fields)


def split(params):
    cfg = MechanismConfig(**{k: params[k] for k in CFG_KEYS})
    dv = DecisionVector(**{k: params[k] for k in DV_KEYS})
    return cfg, dv


# ----------------------------------------------------------------------
# spelled-out values
# ----------------------------------------------------------------------

def test_all_masses_zero_gives_zero_everywhere():
    cfg = massless_config()
    for theta in GRID:
        assert force_x(cfg, ZERO, theta) == 0.0
        assert force_y(cfg, ZERO, theta) == 0.0
        assert moment_x(cfg, ZERO, theta) == 0.0
        assert moment_y(cfg, ZERO, theta) == 0.0


def test_force_x_unbalance_term_alone():
    cfg = massless_config(m_0=2.0, R_0=0.5, omega=10.0, alpha=0.0)
    assert force_x(cfg, ZERO, 0.0) == pytest.approx(100.0, rel=1e-12)


def test_force_y_unbalance_term_alone():
    cfg = massless_config(m_0=2.0, R_0=0.5, omega=10.0, alpha=0.0)
    assert force_y(cfg, ZERO, math.pi / 2) == pytest.approx(100.0, rel=1e-12)


def test_force_x_opposed_cranks_cancel():
    # two identical cranks half a turn apart: cos(t) + cos(t + pi) == 0
    cfg = massless_config(m_c=1.0, R=1.0, L=2.0, omega=1.0, theta_0=math.pi)
    assert np.max(np.abs(force_x(cfg, ZERO, GRID))) <= 1e-12


def test_moment_arms_of_disk3_counterweight():
    cfg = massless_config(r_2=1.0, omega=1.0, a_1=1.0, a_2=2.0)
    dv = DecisionVector(0.0, 1.0, 0.0, 0.0)
    assert moment_y(cfg, dv, 0.0) == pytest.approx(3.0, rel=1e-12)
    assert moment_x(cfg, dv, math.pi / 2) == pytest.approx(3.0, rel=1e-12)


def test_same_plane_cancellation_kills_all_profiles():
    # m_1*r_1 antiphase to the unbalance on the same disk: every profile
    # vanishes identically (unit-scale parameters, 1024-point grid)
    cfg = massless_config(m_0=1.0, R_0=0.5, alpha=0.7, omega=1.0, r_1=0.25)
    dv = DecisionVector(m_1=2.0, m_2=0.0, phi_1=cfg.alpha + math.pi, phi_2=0.0)
    for profile in profile_arrays(cfg, dv, GRID):
        assert np.max(np.abs(profile)) <= 1e-9


# ----------------------------------------------------------------------
# structural properties
# ----------------------------------------------------------------------

def test_linearity_in_each_mass():
    rng = np.random.default_rng(7)
    params = random_params(rng)
    theta = GRID[::64]
    for key in ("m_c", "m_p", "m_0", "m_1", "m_2"):
        single = dict(params, **{key: params[key]})
        doubled = dict(params, **{key: 2 * params[key]})
        zeroed = dict(params, **{key: 0.0})
        for fn in (force_x, force_y, moment_x, moment_y):
            cfg1, dv1 = split(single)
            cfg2, dv2 = split(doubled)
            cfg0, dv0 = split(zeroed)
            part1 = fn(cfg1, dv1, theta) - fn(cfg0, dv0, theta)
            part2 = fn(cfg2, dv2, theta) - fn(cfg0, dv0, theta)
            np.testing.assert_allclose(part2, 2.0 * part1, rtol=1e-12, atol=1e-12)


def test_periodicity():
    rng = np.random.default_rng(8)
    cfg, dv = split(random_params(rng))
    scale = cfg.omega**2
    for fn in (force_x, force_y, moment_x, moment_y):
        np.testing.assert_allclose(
            fn(cfg, dv, GRID + 2 * math.pi), fn(cfg, dv, GRID), rtol=0, atol=1e-10 * scale
        )


def test_omega_scaling_is_quadratic():
    rng = np.random.default_rng(9)
    params = random_params(rng)
    s = 3.7
    cfg, dv = split(params)
    cfg_fast, _ = split(dict(params, omega=s * params["omega"]))
    for fn in (force_x, force_y, moment_x, moment_y):
        np.testing.assert_allclose(
            fn(cfg_fast, dv, GRID), s**2 * fn(cfg, dv, GRID), rtol=1e-12
        )


def test_matches_term_by_term_oracle():
    rng = np.random.default_rng(123)
    oracles = {force_x: oracle_p1, force_y: oracle_p2, moment_x: oracle_p3, moment_y: oracle_p4}
    for _ in range(200):
        params = random_params(rng)
        cfg, dv = split(params)
        theta = rng.uniform(0.0, 2 * math.pi)
        for fn, oracle in oracles.items():
            want = oracle(params, theta)
            got = float(fn(cfg, dv, theta))
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_profile_arrays_matches_individual_ops():
    rng = np.random.default_rng(10)
    cfg, dv = split(random_params(rng))
    p1, p2, p3, p4 = profile_arrays(cfg, dv, GRID)
    np.testing.assert_array_equal(p1, force_x(cfg, dv, GRID))
    np.testing.assert_array_equal(p2, force_y(cfg, dv, GRID))
    np.testing.assert_array_equal(p3, moment_x(cfg, dv, GRID))
    np.testing.assert_array_equal(p4, moment_y(cfg, dv, GRID))


# ----------------------------------------------------------------------
# sampling grid
# ----------------------------------------------------------------------

def test_sample_profile_grid_definition():
    assert list(theta_grid(8)) == pytest.approx([k * math.pi / 4 for k in range(8)], abs=1e-15)


def test_sample_profile_rejects_tiny_grids():
    with pytest.raises(ValueError, match="n_samples"):
        theta_grid(7)


def test_theta_grid_rejects_a_huge_grid_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("theta_grid allocated before checking the size")

    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(ValueError, match=rf"n_samples must be <= {MAX_GRID_SAMPLES} \(got 1000000000\)"):
        theta_grid(10**9)


def test_sample_profile_zero_masses():
    for profile in profile_arrays(massless_config(), ZERO, theta_grid(16)):
        assert np.all(profile == 0.0)


def test_sample_profile_wraps_periodically():
    cfg = MechanismConfig()
    dv = DecisionVector(0.3, 0.1, 1.0, 2.0)
    theta = theta_grid(16)
    p1 = profile_arrays(cfg, dv, theta)[0]
    for t, want in zip(theta, p1):
        assert force_x(cfg, dv, t + 2 * math.pi) == pytest.approx(want, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# type invariants
# ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="L must be > 0"):
        MechanismConfig(L=-1.0)
    with pytest.raises(ValueError, match="m_c must be >= 0"):
        MechanismConfig(m_c=-0.1)
    with pytest.raises(ValueError, match="R/L"):
        MechanismConfig(R=0.3, L=0.2)
    with pytest.raises(ValueError, match="omega"):
        MechanismConfig(omega=0.0)


def test_angles_normalized_at_boundary():
    cfg = MechanismConfig(alpha=2 * math.pi + 1.0, theta_0=-math.pi / 2)
    assert cfg.alpha == pytest.approx(1.0)
    assert cfg.theta_0 == pytest.approx(3 * math.pi / 2)
    dv = DecisionVector(1.0, 1.0, phi_1=7.0, phi_2=-1.0)
    assert 0.0 <= dv.phi_1 < 2 * math.pi
    assert 0.0 <= dv.phi_2 < 2 * math.pi
    assert wrap_angle(2 * math.pi) == 0.0


def test_decision_vector_shift_by_two_pi_is_identity():
    cfg = MechanismConfig()
    a = DecisionVector(0.5, 0.2, 1.0, 2.0)
    b = DecisionVector(0.5, 0.2, 1.0 + 2 * math.pi, 2.0 - 2 * math.pi)
    np.testing.assert_allclose(
        profile_arrays(cfg, a, GRID), profile_arrays(cfg, b, GRID), rtol=0, atol=1e-9
    )


@pytest.mark.parametrize("omega", [1e150, 1e154, 1e160])
def test_config_rejects_a_mechanism_that_overflows(omega):
    # 1e160: omega**2 itself overflows; 1e150 and 1e154: the table is
    # finite, but its areas are not, so every cost would be NaN
    with pytest.raises(ValueError, match="omega = .* overflows"):
        MechanismConfig(omega=omega)


def test_decision_vector_rejects_negative_mass():
    with pytest.raises(ValueError, match="m_1"):
        DecisionVector(-0.1, 0.0, 0.0, 0.0)
