"""Net shaking forces and moments of a double crank-slider with counterweights.

The mechanism is two identical crank-sliders mounted on one shaft (phase
offset ``theta_0``), with a known unbalance mass on disk 2 and two
counterweights (the optimization unknowns) on disks 2 and 3.  The four
profiles exposed here are the x/y force sums and x/y moment sums that the
frame sees over one shaft revolution:

    p1 = sum Fx      p2 = sum Fy      p3 = sum Mx      p4 = sum My

Moments are taken about plane 1, so crank-slider 1 contributes no moment.
Slider inertia acts along x only, hence the slider mass appears in p1 and
p4 but not in p2 and p3.  All profiles are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizers.common import require_finite

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    return angle % TWO_PI


@dataclass(frozen=True)
class MechanismConfig:
    """Fixed physical parameters of the mechanism.

    Units are consistent-by-convention (SI works, but any coherent system
    does: every profile is linear in each mass and carries omega**2).

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
    on them other than through these fields.
    """

    m_c: float = 0.5
    m_p: float = 0.3
    R: float = 0.05
    L: float = 0.2
    omega: float = TWO_PI * 10.0
    m_0: float = 0.2
    R_0: float = 0.04
    alpha: float = 0.0
    a_1: float = 0.1
    a_2: float = 0.15
    theta_0: float = math.pi
    r_1: float = 0.04
    r_2: float = 0.04

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("m_c", "m_p", "m_0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (got {getattr(self, name)})")
        for name in ("R", "L", "R_0", "r_1", "r_2", "a_1", "a_2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0 (got {getattr(self, name)})")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0 (got {self.omega})")
        # the slider second harmonic (R/L)cos(2*theta) is a small-ratio term
        if self.R / self.L > 1.0:
            raise ValueError(f"R/L must be <= 1 (got {self.R / self.L})")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))
        object.__setattr__(self, "theta_0", wrap_angle(self.theta_0))


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

    def as_array(self) -> np.ndarray:
        return np.array([self.m_1, self.m_2, self.phi_1, self.phi_2])


@dataclass(frozen=True)
class DynamicsSample:
    """The four profiles at one crank angle."""

    theta: float
    p1: float
    p2: float
    p3: float
    p4: float


def force_x(cfg: MechanismConfig, dv: DecisionVector, theta):
    """Net x shaking force p1(theta).

    Term by term: slider 1 (primary + R/L secondary harmonic), crank 1,
    unbalance mass, both counterweights, slider 2 and crank 2 at the phase
    offset.  ``theta`` may be a scalar or an ndarray.
    """
    w2 = cfg.omega**2
    t2 = theta + cfg.theta_0
    return (
        cfg.m_p * cfg.R * w2 * (np.cos(theta) + (cfg.R / cfg.L) * np.cos(2 * theta))
        + cfg.m_c * cfg.R * w2 * np.cos(theta)
        + cfg.m_0 * cfg.R_0 * w2 * np.cos(theta + cfg.alpha)
        + dv.m_1 * cfg.r_1 * w2 * np.cos(theta + dv.phi_1)
        + dv.m_2 * cfg.r_2 * w2 * np.cos(theta + dv.phi_2)
        + cfg.m_p * cfg.R * w2 * (np.cos(t2) + (cfg.R / cfg.L) * np.cos(2 * t2))
        + cfg.m_c * cfg.R * w2 * np.cos(t2)
    )


def force_y(cfg: MechanismConfig, dv: DecisionVector, theta):
    """Net y shaking force p2(theta).

    No slider term: the sliders reciprocate along x only.
    """
    w2 = cfg.omega**2
    t2 = theta + cfg.theta_0
    return (
        cfg.m_c * cfg.R * w2 * np.sin(theta)
        + cfg.m_0 * cfg.R_0 * w2 * np.sin(theta + cfg.alpha)
        + dv.m_1 * cfg.r_1 * w2 * np.sin(theta + dv.phi_1)
        + dv.m_2 * cfg.r_2 * w2 * np.sin(theta + dv.phi_2)
        + cfg.m_c * cfg.R * w2 * np.sin(t2)
    )


def moment_x(cfg: MechanismConfig, dv: DecisionVector, theta):
    """Net moment about x, p3(theta), taken about plane 1.

    Sine analogue of the y-moment with no slider term; the crank-2 term
    carries the arm (2*a_1 + a_2).
    """
    w2 = cfg.omega**2
    t2 = theta + cfg.theta_0
    return (
        (
            cfg.m_0 * cfg.R_0 * w2 * np.sin(theta + cfg.alpha)
            + dv.m_1 * cfg.r_1 * w2 * np.sin(theta + dv.phi_1)
        )
        * cfg.a_1
        + (dv.m_2 * cfg.r_2 * w2 * np.sin(theta + dv.phi_2)) * (cfg.a_1 + cfg.a_2)
        + (cfg.m_c * cfg.R * w2 * np.sin(t2)) * (2 * cfg.a_1 + cfg.a_2)
    )


def moment_y(cfg: MechanismConfig, dv: DecisionVector, theta):
    """Net moment about y, p4(theta), taken about plane 1.

    Plane-2 terms (unbalance + counterweight 1) carry arm a_1, the disk-3
    counterweight carries (a_1 + a_2), and crank-slider 2 (slider primary +
    secondary plus crank) carries (2*a_1 + a_2).
    """
    w2 = cfg.omega**2
    t2 = theta + cfg.theta_0
    return (
        (
            cfg.m_0 * cfg.R_0 * w2 * np.cos(theta + cfg.alpha)
            + dv.m_1 * cfg.r_1 * w2 * np.cos(theta + dv.phi_1)
        )
        * cfg.a_1
        + (dv.m_2 * cfg.r_2 * w2 * np.cos(theta + dv.phi_2)) * (cfg.a_1 + cfg.a_2)
        + (cfg.m_p * cfg.R * w2 * (np.cos(t2) + (cfg.R / cfg.L) * np.cos(2 * t2)))
        * (2 * cfg.a_1 + cfg.a_2)
        + (cfg.m_c * cfg.R * w2 * np.cos(t2)) * (2 * cfg.a_1 + cfg.a_2)
    )


def profile_arrays(cfg: MechanismConfig, dv: DecisionVector, theta: np.ndarray):
    """All four profiles over a theta array: (p1, p2, p3, p4)."""
    theta = np.asarray(theta, dtype=float)
    return (
        force_x(cfg, dv, theta),
        force_y(cfg, dv, theta),
        moment_x(cfg, dv, theta),
        moment_y(cfg, dv, theta),
    )


def theta_grid(n_samples: int) -> np.ndarray:
    """Uniform grid theta_k = 2*pi*k/n, k = 0..n-1 (endpoint excluded).

    The profiles are 2*pi-periodic, so the missing endpoint repeats k = 0.
    Rejects n_samples < 8: coarser grids make the downstream quadrature
    meaningless.
    """
    if n_samples < 8:
        raise ValueError(f"n_samples must be >= 8 (got {n_samples})")
    return TWO_PI * np.arange(n_samples) / n_samples


def sample_profile(
    cfg: MechanismConfig, dv: DecisionVector, n_samples: int
) -> list[DynamicsSample]:
    """Sample p1..p4 on the uniform grid of ``theta_grid(n_samples)``."""
    theta = theta_grid(n_samples)
    p1, p2, p3, p4 = profile_arrays(cfg, dv, theta)
    return [
        DynamicsSample(float(theta[k]), float(p1[k]), float(p2[k]), float(p3[k]), float(p4[k]))
        for k in range(n_samples)
    ]
