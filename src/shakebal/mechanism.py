"""Net shaking forces and moments of a double crank-slider with counterweights.

The mechanism is two identical crank-sliders mounted on one shaft (phase
offset ``theta_0``), with a known unbalance mass on disk 2 and two
counterweights (the optimization unknowns) on disks 2 and 3.  The four
profiles exposed here are the x/y force sums and x/y moment sums that the
frame sees over one shaft revolution:

    p1 = sum Fx      p2 = sum Fy      p3 = sum Mx      p4 = sum My

Moments are taken about plane 1, so crank-slider 1 contributes no moment.
Slider inertia acts along x only, hence the slider mass appears in p1 and
p4 but not in p2 and p3.  Each profile is a trigonometric polynomial of
degree <= 2 in theta; the mechanism holds them once, as the coefficient
table ``HarmonicTable``, from which the profile functions here and the
cost in ``objective`` are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizers.common import ranged, require_fields

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
# largest theta grid, and most calibrate_bounds samples: 8 MiB per float array
MAX_GRID_SAMPLES = 2**20


def wrap_angle(angle):
    """Normalize an angle, a float or an array, to [0, 2*pi).  The second
    ``%`` maps 2*pi, which the first gives for -1e-20, to 0."""
    return angle % TWO_PI % TWO_PI


@dataclass(frozen=True)
class MechanismConfig:
    """Fixed physical parameters of the mechanism.

    Units are consistent-by-convention: SI works, and so does any coherent
    system for the cost (every profile is linear in each mass and carries
    omega**2) and for PSO, BGA and HGAPSO, which only compare or rank
    costs, but not for ABC, whose fitness 1/(1 + f) depends on the scale.

    m_c      eccentric crank mass, identical on both crank-sliders
    m_p      equivalent slider mass, identical on both sliders
    R        crank radius
    L        connecting-rod length
    omega    shaft speed, rad/s
    m_0      known unbalance mass on disk 2
    R_0      radius of the unbalance mass
    alpha    angular position of the unbalance mass relative to the crank
    a_1      axial spacing plane1->plane2 and plane3->plane4
    a_2      axial spacing plane2->plane3
    theta_0  phase offset of the second crank-slider
    r_1      counterweight radius on disk 2 (fixed, the mass is the unknown)
    r_2      counterweight radius on disk 3

    The defaults are plausible lab-scale values; nothing downstream depends
    on them other than through these fields.  ``table``, not a field, is
    the mechanism's ``HarmonicTable``, built once on construction; a
    mechanism whose table or zero-counterweight areas overflow is rejected.
    """

    m_c: float = ranged(0.5, 0)
    m_p: float = ranged(0.3, 0)
    R: float = ranged(0.05, 0, open_low=True)
    L: float = ranged(0.2, 0, open_low=True)
    omega: float = ranged(TWO_PI * 10.0, 0, open_low=True)
    m_0: float = ranged(0.2, 0)
    R_0: float = ranged(0.04, 0, open_low=True)
    alpha: float = 0.0
    a_1: float = ranged(0.1, 0, open_low=True)
    a_2: float = ranged(0.15, 0, open_low=True)
    theta_0: float = math.pi
    r_1: float = ranged(0.04, 0, open_low=True)
    r_2: float = ranged(0.04, 0, open_low=True)

    def __post_init__(self) -> None:
        require_fields(self)
        # the slider second harmonic (R/L)cos(2*theta) is a small-ratio term
        if self.R / self.L > 1.0:
            raise ValueError(f"R must be <= L (got R/L = {self.R / self.L})")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))
        object.__setattr__(self, "theta_0", wrap_angle(self.theta_0))
        # a coefficient is finite if its row's area is
        try:
            table = HarmonicTable(self)
            sums = [*table.gains, *map(half_square_integral, table.base)]
        except OverflowError:  # omega**2
            sums = [math.inf]
        if not all(map(math.isfinite, sums)):
            raise ValueError(
                f"omega = {self.omega!r} with these masses and lengths overflows the"
                " profiles' harmonic coefficients or areas"
            )
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class DecisionVector:
    """Counterweight choice: masses m_1, m_2 and angles phi_1, phi_2.

    Angles are stored normalized to [0, 2*pi); every downstream evaluation
    is invariant under +2*pi shifts.
    """

    m_1: float
    m_2: float
    phi_1: float
    phi_2: float

    def __post_init__(self) -> None:
        if self.m_1 < 0:
            raise ValueError(f"m_1 must be >= 0 (got {self.m_1})")
        if self.m_2 < 0:
            raise ValueError(f"m_2 must be >= 0 (got {self.m_2})")
        object.__setattr__(self, "phi_1", wrap_angle(self.phi_1))
        object.__setattr__(self, "phi_2", wrap_angle(self.phi_2))

    @classmethod
    def zero(cls) -> "DecisionVector":
        """The unbalanced state: no counterweights."""
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, x) -> "DecisionVector":
        """Build from an optimizer point ordered (m_1, m_2, phi_1, phi_2)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (4,):
            raise ValueError(f"decision point must have shape (4,), got {x.shape}")
        return cls(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


class HarmonicTable:
    """The four profiles as coefficients on (cos t, sin t, cos 2t, sin 2t).

    A base row per profile from the config (``base``), plus the
    counterweight terms u_j = m_j r_j omega**2 (cos phi_j, sin phi_j), with
    the ``gains`` r_j omega**2: ``counterweights`` maps (m, phi) to u, and
    ``rows(u)``, affine in u, enters u in the forces directly and in the
    moments on the ``arms`` a_1 and a_1 + a_2.  p2 and p3 carry the first
    harmonic only: the sliders and their R/L second harmonic act along x.
    The test suite checks the table against the independent term-by-term
    oracle of ``tests/_oracles.py``.
    """

    def __init__(self, cfg: MechanismConfig):
        w2 = cfg.omega**2
        slider = cfg.m_p * cfg.R * w2
        second = slider * cfg.R / cfg.L  # slider R/L harmonic
        crank = cfg.m_c * cfg.R * w2
        unbal_c = cfg.m_0 * cfg.R_0 * w2 * math.cos(cfg.alpha)
        unbal_s = cfg.m_0 * cfg.R_0 * w2 * math.sin(cfg.alpha)
        # crank-slider 2 runs at theta + theta_0
        c_0, s_0 = math.cos(cfg.theta_0), math.sin(cfg.theta_0)
        c_00, s_00 = math.cos(2 * cfg.theta_0), math.sin(2 * cfg.theta_0)
        arm_3 = 2 * cfg.a_1 + cfg.a_2
        self.base = (
            (
                slider + crank + unbal_c + (slider + crank) * c_0,
                -unbal_s - (slider + crank) * s_0,
                second * (1.0 + c_00),
                -second * s_00,
            ),
            (unbal_s + crank * s_0, crank + unbal_c + crank * c_0),
            (cfg.a_1 * unbal_s + arm_3 * crank * s_0, cfg.a_1 * unbal_c + arm_3 * crank * c_0),
            (
                cfg.a_1 * unbal_c + arm_3 * (slider + crank) * c_0,
                -cfg.a_1 * unbal_s - arm_3 * (slider + crank) * s_0,
                arm_3 * second * c_00,
                -arm_3 * second * s_00,
            ),
        )
        self.gains = (cfg.r_1 * w2, cfg.r_2 * w2)
        self.arms = (cfg.a_1, cfg.a_1 + cfg.a_2)

    def counterweights(self, m_1, m_2, phi_1, phi_2, cos, sin):
        """u = (c_1, s_1, c_2, s_2) for floats (with math's cos/sin) or for
        columns (with numpy's) alike, each phi_j wrapped by ``wrap_angle``."""
        k1, k2 = self.gains
        g1, g2 = m_1 * k1, m_2 * k2
        phi_1, phi_2 = wrap_angle(phi_1), wrap_angle(phi_2)
        return g1 * cos(phi_1), g1 * sin(phi_1), g2 * cos(phi_2), g2 * sin(phi_2)

    def rows(self, c_1, s_1, c_2, s_2):
        """Rows (p1, p2, p3, p4) at u, floats or columns."""
        arm_1, arm_2 = self.arms
        fc, fs = c_1 + c_2, s_1 + s_2
        mc = arm_1 * c_1 + arm_2 * c_2
        ms = arm_1 * s_1 + arm_2 * s_2
        b1, b2, b3, b4 = self.base
        return (
            (b1[0] + fc, b1[1] - fs, b1[2], b1[3]),
            (b2[0] + fs, b2[1] + fc),
            (b3[0] + ms, b3[1] + mc),
            (b4[0] + mc, b4[1] - ms, b4[2], b4[3]),
        )

    def coefficients(self, dv: DecisionVector):
        """Rows (p1, p2, p3, p4) for one counterweight choice."""
        return self.rows(*self.counterweights(dv.m_1, dv.m_2, dv.phi_1, dv.phi_2, math.cos, math.sin))


def half_square_integral(row):
    """1/2 * integral of p**2 over a turn, by Parseval: pi/2 * sum(coef**2).

    ``row`` holds 2 or 4 coefficients, floats or equal-length columns; the
    sum runs left to right in both cases, so a column holds the float
    results.
    """
    if len(row) == 2:
        c, s = row
        return HALF_PI * (c * c + s * s)
    c1, s1, c2, s2 = row
    return HALF_PI * (c1 * c1 + s1 * s1 + c2 * c2 + s2 * s2)


def profile_arrays(cfg: MechanismConfig, dv: DecisionVector, theta):
    """All four profiles (p1, p2, p3, p4) at ``theta``, a scalar or an
    ndarray, evaluated from the mechanism's harmonic table."""
    theta = np.asarray(theta, dtype=float)
    basis = (np.cos(theta), np.sin(theta), np.cos(2 * theta), np.sin(2 * theta))
    return tuple(
        sum(c * b for c, b in zip(row, basis)) for row in cfg.table.coefficients(dv)
    )


def require_grid_size(n_samples: int) -> None:
    """Reject a theta grid too coarse to show a profile (< 8 points) or too
    large to allocate (> MAX_GRID_SAMPLES)."""
    if n_samples < 8:
        raise ValueError(f"n_samples must be >= 8 (got {n_samples})")
    if n_samples > MAX_GRID_SAMPLES:
        raise ValueError(f"n_samples must be <= {MAX_GRID_SAMPLES} (got {n_samples})")


def theta_grid(n_samples: int) -> np.ndarray:
    """Uniform grid theta_k = 2*pi*k/n, k = 0..n-1 (endpoint excluded).

    The profiles are 2*pi-periodic, so the missing endpoint repeats k = 0.
    Rejects a size outside [8, MAX_GRID_SAMPLES] before allocating.
    """
    require_grid_size(n_samples)
    return TWO_PI * np.arange(n_samples) / n_samples

