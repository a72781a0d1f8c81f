"""Independent oracles for the test suite.

Everything here is written directly from the printed force/moment sums and
shares no code with the package: scalar math for the term-by-term profile
checks, and a high-resolution trapezoid integration for the cost check.
``breed_oracle`` is the GA's breeding operator as a plain per-pair loop.

The scalar oracles are accurate to ~1e-13 relative, well inside the 1e-12
that the profile checks ask of the package: each angle sum theta + phi is
carried with its rounding error (``_cos``, ``_sin``), and the terms are
summed with ``math.fsum``.
"""

from __future__ import annotations

from math import cos, fsum, pi, sin

import numpy as np


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _cos(theta: float, phi: float = 0.0, k: int = 1) -> float:
    """cos(k * (theta + phi)), k in {1, 2}, without the rounding of the sum."""
    s, e = _two_sum(theta, phi)
    return cos(k * s) - k * e * sin(k * s)


def _sin(theta: float, phi: float = 0.0) -> float:
    """sin(theta + phi) without the rounding of the sum."""
    s, e = _two_sum(theta, phi)
    return sin(s) + e * cos(s)


def oracle_p1(p: dict, theta: float) -> float:
    """Sum Fx, term by term."""
    w2 = p["omega"] ** 2
    slider = p["m_p"] * p["R"] * w2
    crank = p["m_c"] * p["R"] * w2
    second = slider * p["R"] / p["L"]
    return fsum([
        slider * _cos(theta), second * _cos(theta, k=2),
        crank * _cos(theta),
        p["m_0"] * p["R_0"] * w2 * _cos(theta, p["alpha"]),
        p["m_1"] * p["r_1"] * w2 * _cos(theta, p["phi_1"]),
        p["m_2"] * p["r_2"] * w2 * _cos(theta, p["phi_2"]),
        slider * _cos(theta, p["theta_0"]), second * _cos(theta, p["theta_0"], k=2),
        crank * _cos(theta, p["theta_0"]),
    ])


def oracle_p2(p: dict, theta: float) -> float:
    """Sum Fy: no slider term."""
    w2 = p["omega"] ** 2
    return fsum([
        p["m_c"] * p["R"] * w2 * _sin(theta),
        p["m_0"] * p["R_0"] * w2 * _sin(theta, p["alpha"]),
        p["m_1"] * p["r_1"] * w2 * _sin(theta, p["phi_1"]),
        p["m_2"] * p["r_2"] * w2 * _sin(theta, p["phi_2"]),
        p["m_c"] * p["R"] * w2 * _sin(theta, p["theta_0"]),
    ])


def oracle_p3(p: dict, theta: float) -> float:
    """Sum Mx about plane 1: no slider term, crank 2 on arm 2*a_1 + a_2."""
    w2 = p["omega"] ** 2
    return fsum([
        p["m_0"] * p["R_0"] * w2 * _sin(theta, p["alpha"]) * p["a_1"],
        p["m_1"] * p["r_1"] * w2 * _sin(theta, p["phi_1"]) * p["a_1"],
        p["m_2"] * p["r_2"] * w2 * _sin(theta, p["phi_2"]) * (p["a_1"] + p["a_2"]),
        p["m_c"] * p["R"] * w2 * _sin(theta, p["theta_0"]) * (2 * p["a_1"] + p["a_2"]),
    ])


def oracle_p4(p: dict, theta: float) -> float:
    """Sum My about plane 1: slider 2 and crank 2 on arm 2*a_1 + a_2."""
    w2 = p["omega"] ** 2
    slider = p["m_p"] * p["R"] * w2
    arm_3 = 2 * p["a_1"] + p["a_2"]
    return fsum([
        p["m_0"] * p["R_0"] * w2 * _cos(theta, p["alpha"]) * p["a_1"],
        p["m_1"] * p["r_1"] * w2 * _cos(theta, p["phi_1"]) * p["a_1"],
        p["m_2"] * p["r_2"] * w2 * _cos(theta, p["phi_2"]) * (p["a_1"] + p["a_2"]),
        slider * _cos(theta, p["theta_0"]) * arm_3,
        slider * p["R"] / p["L"] * _cos(theta, p["theta_0"], k=2) * arm_3,
        p["m_c"] * p["R"] * w2 * _cos(theta, p["theta_0"]) * arm_3,
    ])


def random_params(rng: np.random.Generator) -> dict:
    """One valid random (config, counterweight) parameter set."""
    L = rng.uniform(0.1, 0.5)
    return {
        "m_c": rng.uniform(0.0, 2.0),
        "m_p": rng.uniform(0.0, 2.0),
        "R": rng.uniform(0.01, 1.0) * L,  # keeps R/L <= 1
        "L": L,
        "omega": rng.uniform(0.5, 100.0),
        "m_0": rng.uniform(0.0, 2.0),
        "R_0": rng.uniform(0.01, 0.2),
        "alpha": rng.uniform(0.0, 2 * pi),
        "a_1": rng.uniform(0.05, 0.5),
        "a_2": rng.uniform(0.05, 0.5),
        "theta_0": rng.uniform(0.0, 2 * pi),
        "r_1": rng.uniform(0.01, 0.2),
        "r_2": rng.uniform(0.01, 0.2),
        "m_1": rng.uniform(0.0, 5.0),
        "m_2": rng.uniform(0.0, 5.0),
        "phi_1": rng.uniform(0.0, 2 * pi),
        "phi_2": rng.uniform(0.0, 2 * pi),
    }


CFG_KEYS = ("m_c", "m_p", "R", "L", "omega", "m_0", "R_0", "alpha", "a_1", "a_2", "theta_0", "r_1", "r_2")
DV_KEYS = ("m_1", "m_2", "phi_1", "phi_2")


def brute_force_breakdown(p: dict, n: int = 100_000, penalty_weight: float = 1e6,
                          c1_max: float = None, c2_max: float = None) -> dict:
    """High-resolution cost oracle: trapezoid rule over [0, 2*pi] with the
    endpoint included, profiles spelled out independently."""
    theta = np.linspace(0.0, 2 * pi, n + 1)
    w2 = p["omega"] ** 2
    p1 = (
        p["m_p"] * p["R"] * w2 * (np.cos(theta) + p["R"] / p["L"] * np.cos(2 * theta))
        + p["m_c"] * p["R"] * w2 * np.cos(theta)
        + p["m_0"] * p["R_0"] * w2 * np.cos(theta + p["alpha"])
        + p["m_1"] * p["r_1"] * w2 * np.cos(theta + p["phi_1"])
        + p["m_2"] * p["r_2"] * w2 * np.cos(theta + p["phi_2"])
        + p["m_p"] * p["R"] * w2 * (np.cos(theta + p["theta_0"]) + p["R"] / p["L"] * np.cos(2 * (theta + p["theta_0"])))
        + p["m_c"] * p["R"] * w2 * np.cos(theta + p["theta_0"])
    )
    p2 = (
        p["m_c"] * p["R"] * w2 * np.sin(theta)
        + p["m_0"] * p["R_0"] * w2 * np.sin(theta + p["alpha"])
        + p["m_1"] * p["r_1"] * w2 * np.sin(theta + p["phi_1"])
        + p["m_2"] * p["r_2"] * w2 * np.sin(theta + p["phi_2"])
        + p["m_c"] * p["R"] * w2 * np.sin(theta + p["theta_0"])
    )
    p3 = (
        (
            p["m_0"] * p["R_0"] * w2 * np.sin(theta + p["alpha"])
            + p["m_1"] * p["r_1"] * w2 * np.sin(theta + p["phi_1"])
        )
        * p["a_1"]
        + (p["m_2"] * p["r_2"] * w2 * np.sin(theta + p["phi_2"])) * (p["a_1"] + p["a_2"])
        + (p["m_c"] * p["R"] * w2 * np.sin(theta + p["theta_0"])) * (2 * p["a_1"] + p["a_2"])
    )
    p4 = (
        (
            p["m_0"] * p["R_0"] * w2 * np.cos(theta + p["alpha"])
            + p["m_1"] * p["r_1"] * w2 * np.cos(theta + p["phi_1"])
        )
        * p["a_1"]
        + (p["m_p"] * p["R"] * w2 * (np.cos(theta + p["theta_0"]) + p["R"] / p["L"] * np.cos(2 * (theta + p["theta_0"]))))
        * (2 * p["a_1"] + p["a_2"])
        + (p["m_2"] * p["r_2"] * w2 * np.cos(theta + p["phi_2"])) * (p["a_1"] + p["a_2"])
        + (p["m_c"] * p["R"] * w2 * np.cos(theta + p["theta_0"])) * (2 * p["a_1"] + p["a_2"])
    )
    r = np.abs(p1) + np.abs(p2)
    f = 0.5 * np.trapezoid(r**2, theta)
    c1 = 0.5 * np.trapezoid(p3**2, theta)
    c2 = 0.5 * np.trapezoid(p4**2, theta)
    out = {"f": float(f), "c1": float(c1), "c2": float(c2)}
    if c1_max is not None and c2_max is not None:
        violation = max(0.0, out["c1"] - c1_max) / c1_max + max(0.0, out["c2"] - c2_max) / c2_max
        out["total"] = out["f"] + penalty_weight * violation
    return out


def polar_area_oracle(radii: np.ndarray) -> float:
    """The pinned quadrature formula restated for file round-trip checks."""
    radii = np.asarray(radii, dtype=float)
    return 0.5 * (2 * pi / radii.size) * float(np.sum(radii**2))


def multipoint_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, cut_points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Swap alternate segments between two chromosomes at the given cuts."""
    child_a = parent_a.copy()
    child_b = parent_b.copy()
    length = parent_a.size
    swap = False
    prev = 0
    for cut in list(np.sort(cut_points)) + [length]:
        if swap:
            child_a[prev:cut] = parent_b[prev:cut]
            child_b[prev:cut] = parent_a[prev:cut]
        swap = not swap
        prev = cut
    return child_a, child_b


def breed_oracle(rng: np.random.Generator, parents: np.ndarray, probs: np.ndarray, count: int, params) -> np.ndarray:
    """``bga.breed`` one pair at a time, with ``Generator.choice`` drawing
    the parents: the reference for its draw order and its children."""
    n, length = parents.shape
    p_mut = params.mutation_prob_per_bit
    if p_mut is None:
        p_mut = 1.0 / length
    cut_positions = np.arange(1, length)
    children = []
    while len(children) < count:
        ia, ib = rng.choice(n, size=2, p=probs)
        child_a, child_b = parents[ia].copy(), parents[ib].copy()
        if rng.random() < params.crossover_prob:
            cuts = rng.choice(cut_positions, size=params.crossover_points, replace=False)
            child_a, child_b = multipoint_crossover(parents[ia], parents[ib], cuts)
        child_a ^= rng.random(length) < p_mut
        child_b ^= rng.random(length) < p_mut
        children += [child_a, child_b][: count - len(children)]
    return np.array(children, dtype=bool).reshape(count, length)
