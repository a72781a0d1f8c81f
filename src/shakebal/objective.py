"""Balancing cost: polar area of the force profile, with moment-area
constraints handled by an exterior penalty.

The cost is the area the radial curve r(theta) = |p1| + |p2| encloses in
polar coordinates over one revolution,

    A = 1/2 * integral of (|p1| + |p2|)**2 d(theta),

and it is computed exactly, with no grid, from the mechanism's harmonic
coefficient table (``mechanism.HarmonicTable``).  Every profile is a
trigonometric polynomial of degree <= 2, so the p1**2 + p2**2 part follows
from Parseval, and the cross term 2 |p1 p2| is integrated piecewise between
the zeros of p1 and p2 (see _abs_product_integral).  The same area reading
is applied to the two moment integrals C1 (over |p3|) and C2 (over |p4|).
Constraint violations are normalized against their bounds and added as
penalty_weight * sum(max(0, C - C_max) / C_max); an exterior penalty keeps
infeasible points informative for the derivative-free samplers instead of
rejecting them outright.

The cost has two kernels with one result: a scalar one for single points
(``evaluate``, calling the objective) and a batched one for a population
(``GridEvaluator.batch``), which returns the scalar value of every row bit
for bit.  Both take the (m, phi) -> u map and the u-affine rows of
``HarmonicTable``, as ``calibrate_bounds`` does, ``_assemble`` and the
branch test ``_cut_branch``; only their cut kernels differ.  Both stay,
since one scalar call takes about 20.55 us and a 1-row ``batch`` 0.354 ms
(``BENCH_29.json``, change tree: 2-vCPU x86-64, Python 3.11, numpy 2.4).

``polar_area`` is the periodic rectangle rule for radii sampled on a grid,
such as the plotted profiles of ``polar.csv``; the cost does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .mechanism import (
    HALF_PI, MAX_GRID_SAMPLES, TWO_PI, DecisionVector, MechanismConfig, half_square_integral,
    require_grid_size,
)
from .optimizers.common import Bounds, ranged, require_fields, substream

# Below this ratio of the sizes of p1's second and first harmonics, p1 is cut
# at the zeros of its first (see _cut_branch).  The second moves them by
# ~ratio, which changes the integral by ~ratio**2: below rounding.
SECOND_HARMONIC_CUTOFF = 1e-8
# Constraint bounds used when a config file does not set them: half of the
# largest C1/C2 seen over 10^4 uniform samples of the default search box on
# the default mechanism (calibrate_bounds with fraction=0.5, seed=0).
DEFAULT_C1_MAX = 242365.14329605742
DEFAULT_C2_MAX = 260486.7421214862


def default_search_bounds(cfg: MechanismConfig | None = None) -> Bounds:
    """Search box for (m_1, m_2, phi_1, phi_2): masses up to 50x the known
    unbalance mass, angles over a full turn."""
    m_0 = MechanismConfig().m_0 if cfg is None else cfg.m_0
    m_hi = 50.0 * m_0
    return Bounds(np.array([0.0, 0.0, 0.0, 0.0]), np.array([m_hi, m_hi, TWO_PI, TWO_PI]))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Plotting grid, constraint bounds, penalty weight and the search box
    for the four unknowns.

    The cost is exact; ``n_samples`` only sets the theta grid of the
    ``polar.csv`` that ``shakebal balance`` writes.
    """

    n_samples: int = 720
    c1_max: float = ranged(DEFAULT_C1_MAX, 0, open_low=True)
    c2_max: float = ranged(DEFAULT_C2_MAX, 0, open_low=True)
    penalty_weight: float = ranged(1e6, 0)
    bounds: Bounds = field(default_factory=default_search_bounds)

    def __post_init__(self) -> None:
        require_fields(self)
        require_grid_size(self.n_samples)
        if self.bounds.dimension != 4:
            raise ValueError(f"bounds must be 4-dimensional (got {self.bounds.dimension})")
        for name, low in (("m1_min", self.bounds.lower[0]), ("m2_min", self.bounds.lower[1])):
            if low < 0:
                raise ValueError(f"mass bound {name} must be >= 0 (got {low})")


@dataclass(frozen=True)
class CostBreakdown:
    """Raw polar-area cost, the two moment areas, and the penalized total."""

    raw_cost: float
    c1: float
    c2: float
    violation: float
    total: float


def polar_area(radii) -> float:
    """Area enclosed by a radial curve sampled at theta_k = 2*pi*k/n.

    Implements 1/2 * integral of r**2 d(theta) by the periodic rectangle
    rule.  Radii must be finite and non-negative.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 1:
        raise ValueError("radii must be a non-empty 1-d array")
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    if np.any(radii < 0):
        raise ValueError("radii must be >= 0")
    n = radii.size
    return 0.5 * (TWO_PI / n) * float(np.dot(radii, radii))


def _positive_part(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) per element, with max's NaN handling (NaN -> 0.0)."""
    return np.where(x > 0.0, x, 0.0)


def _line_zeros(c, s, atan2=math.atan2) -> list:
    """Both zeros of c*cos(t) + s*sin(t) = hypot(c, s) * cos(t - atan2(s, c))."""
    beta = atan2(s, c)
    return [beta - HALF_PI, beta + HALF_PI]


# The zeros of p = c1 cos t + s1 sin t + c2 cos 2t + s2 sin 2t, in closed
# form (_quartic_zeros).  With x = tan(u/2), (1 + x**2)**2 * p(u + tau) is
# a quartic in x whose leading coefficient is p(tau + pi); the pivot tau of
# largest |p(tau + pi)| keeps it away from 0 (the four values vanish
# together only for p == 0), so every root x is bounded.  The formula
# helpers below take floats or columns, like ``_antiderivative``.
_PIVOTS = (0.0, 0.25 * math.pi, HALF_PI, 0.75 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_max_zero = partial(max, 0.0)


def _pivot_rows(c1, s1, c2, s2) -> list:
    """Coefficients of p(u + tau) for each tau of ``_PIVOTS``."""
    r = _SQRT_HALF
    return [
        (c1, s1, c2, s2),
        (r * (c1 + s1), r * (s1 - c1), s2, -c2),
        (s1, -c1, -c2, -s2),
        (r * (s1 - c1), -r * (s1 + c1), -s2, c2),
    ]


def _depressed_quartic(c1, s1, c2, s2) -> tuple:
    """(shift, P, Q, R): the zeros u of the row are u = 2 atan(y - shift)
    for the roots y of y**4 + P y**2 + Q y + R."""
    lead = c2 - c1
    b = (2.0 * s1 - 4.0 * s2) / lead
    c = -6.0 * c2 / lead
    d = (2.0 * s1 + 4.0 * s2) / lead
    e = (c1 + c2) / lead
    shift = 0.25 * b
    shift2 = shift * shift
    P = c - 6.0 * shift2
    Q = d - 2.0 * shift * (c - 4.0 * shift2)
    R = e - shift * (d - shift * (c - 3.0 * shift2))
    return shift, P, Q, R


def _resolvent(P, Q, R) -> tuple:
    """(p, q, disc) of Ferrari's resolvent m**3 + P m**2 + (P**2/4 - R) m
    - Q**2/8, depressed to z**3 + p z + q by m = z - P/3; disc > 0 when it
    has one real root."""
    p = -P * P / 12.0 - R
    q = P * (R / 3.0 - P * P / 108.0) - Q * Q / 8.0
    return p, q, 0.25 * q * q + p * p * p / 27.0


def _one_real_root(p, q, disc, sqrt, cbrt, copysign):
    """The real root of z**3 + p z + q when disc > 0 (Cardano, with the
    cube root taken where nothing cancels)."""
    u = cbrt(-0.5 * q - copysign(sqrt(disc), q))
    return u - p / (3.0 * u)


def _largest_of_three(rho, cos_3phi, acos, cos):
    """The largest root 2 rho cos(phi) of z**3 + p z + q when disc <= 0,
    with rho = sqrt(-p/3) and cos(3 phi) = -q / (2 rho**3)."""
    return 2.0 * rho * cos(acos(cos_3phi) / 3.0)


def _ferrari_roots(P, Q, R, m, sqrt, copysign, positive) -> list:
    """The four roots y of y**4 + P y**2 + Q y + R, with m >= 0 the
    largest resolvent root, as the roots of y**2 -+ s y + P/2 + m +- T,
    s = sqrt(2 m) and T = Q / (2 s).

    T is taken as sign(Q) sqrt((P/2 + m)**2 - R), which does not divide by
    a small s; at m = 0 (Q = 0) the two factors are the biquadratic's.  A
    complex pair gives its real part twice.
    """
    half = 0.5 * sqrt(2.0 * m)
    base = 0.5 * P + m
    t = copysign(sqrt(positive(base * base - R)), Q)
    w1 = sqrt(positive(half * half - base - t))
    w2 = sqrt(positive(half * half - base + t))
    return [half - w1, half + w1, -half - w2, -half + w2]


def _value_and_slope(row, t, cos, sin) -> tuple:
    """p(t) and p'(t) for the row (c1, s1, c2, s2)."""
    c1, s1, c2, s2 = row
    cos_t, sin_t = cos(t), sin(t)
    cos_2t = 2.0 * cos_t * cos_t - 1.0
    sin_2t = 2.0 * sin_t * cos_t
    value = c1 * cos_t + s1 * sin_t + c2 * cos_2t + s2 * sin_2t
    slope = s1 * cos_t - c1 * sin_t + 2.0 * (s2 * cos_2t - c2 * sin_2t)
    return value, slope


def _cbrt(x: float) -> float:
    """Real cube root (math.cbrt needs Python 3.11)."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _quartic_zeros(c1: float, s1: float, c2: float, s2: float) -> list[float]:
    """Four cuts for p = c1 cos t + s1 sin t + c2 cos 2t + s2 sin 2t != 0:
    every real zero, and the real part of each complex root pair, mapped
    back to an angle.

    The row is divided by its largest coefficient, so that nothing
    overflows, and rotated to its pivot; the quartic is solved by Ferrari's
    method with the largest resolvent root, and each zero takes one Newton
    step on p.  A step of a radian or more is not taken: it comes from
    between two zeros closer than the solver's error, where either cut
    changes the integral by less than rounding.
    """
    big = max(abs(c1), abs(s1), abs(c2), abs(s2))
    unit = (c1 / big, s1 / big, c2 / big, s2 / big)
    pivots = _pivot_rows(*unit)
    leads = [abs(row[2] - row[0]) for row in pivots]
    k = leads.index(max(leads))
    shift, P, Q, R = _depressed_quartic(*pivots[k])
    p, q, disc = _resolvent(P, Q, R)
    if disc > 0.0:
        z = _one_real_root(p, q, disc, math.sqrt, _cbrt, math.copysign)
    else:
        rho = math.sqrt(max(0.0, -p / 3.0))
        rho3 = rho * rho * rho
        cos_3phi = min(1.0, max(-1.0, -0.5 * q / rho3)) if rho3 > 0.0 else 1.0
        z = _largest_of_three(rho, cos_3phi, math.acos, math.cos)
    m = max(0.0, z - P / 3.0)
    ys = _ferrari_roots(P, Q, R, m, math.sqrt, math.copysign, _max_zero)
    zeros = []
    for y in ys:
        t = 2.0 * math.atan(y - shift) + _PIVOTS[k]
        value, slope = _value_and_slope(unit, t, math.cos, math.sin)
        zeros.append(t - value / slope if abs(value) < abs(slope) else t)
    return zeros


def _antiderivative_coefficients(p1, p2) -> tuple:
    """(k0, c_1, s_1, c_2, s_2, c_3, s_3) of Q(t) = k0 t + sum over k = 1..3
    of (c_k sin kt - s_k cos kt), the antiderivative of p1 * p2.

    p1 * p2 = k0 + sum of (C_k cos kt + S_k sin kt), and c_k = C_k / k,
    s_k = S_k / k.  Floats or columns, like ``half_square_integral``.
    """
    c1, s1, c2, s2 = p1
    a, b = p2
    return (
        0.5 * (c1 * a + s1 * b),
        0.5 * (c2 * a + s2 * b), 0.5 * (s2 * a - c2 * b),
        0.25 * (c1 * a - s1 * b), 0.25 * (c1 * b + s1 * a),
        (c2 * a - s2 * b) / 6.0, (c2 * b + s2 * a) / 6.0,
    )


def _antiderivative(k, cuts, cos, sin) -> list:
    """Q at each cut, for the coefficients ``k`` of
    ``_antiderivative_coefficients``.  A cut is a float (with math's
    cos/sin) or an array of them (with numpy's): the formula is elementwise.
    """
    k0, c_1, s_1, c_2, s_2, c_3, s_3 = k
    q = []
    for t in cuts:
        cos_t, sin_t = cos(t), sin(t)
        cos_2t = 2.0 * cos_t * cos_t - 1.0
        sin_2t = 2.0 * sin_t * cos_t
        cos_3t = cos_t * (2.0 * cos_2t - 1.0)
        sin_3t = sin_t * (2.0 * cos_2t + 1.0)
        q.append(
            k0 * t
            + c_1 * sin_t - s_1 * cos_t
            + c_2 * sin_2t - s_2 * cos_2t
            + c_3 * sin_3t - s_3 * cos_3t
        )
    return q


def _variation(k0, q: list):
    """sum |Q(t_i+1) - Q(t_i)| over the sorted cuts and the wrap to
    t_0 + 2*pi, where Q(t + 2*pi) = Q(t) + 2*pi*k0; left to right."""
    q = q + [q[0] + TWO_PI * k0]
    total = abs(q[1] - q[0])
    for i in range(2, len(q)):
        total = total + abs(q[i] - q[i - 1])
    return total


def _cut_branch(c1, s1, c2, s2) -> tuple:
    """(finite, line, zero) of p1 = (c1, s1, c2, s2), floats or columns, by
    l1 = |c1| + |s1| and l2 = |c2| + |s2|: l1 + l2 < inf, l2 <= CUTOFF * l1
    and l1 == 0.  abs, + and * round alike on floats and columns."""
    l1 = abs(c1) + abs(s1)
    l2 = abs(c2) + abs(s2)
    return l1 + l2 < math.inf, l2 <= SECOND_HARMONIC_CUTOFF * l1, l1 == 0.0


def _abs_product_integral(p1, p2) -> float:
    """Exact integral over one turn of |p1(t) * p2(t)|.

    ``p1`` holds the coefficients (c1, s1, c2, s2) of a trigonometric
    polynomial of degree <= 2 and ``p2`` the coefficients (a, b) of
    a cos t + b sin t.  The turn is cut at every zero of both factors, and
    the degree-3 product is integrated exactly on each piece through its
    antiderivative Q; the integral is sum |Q(t_i+1) - Q(t_i)|.  Cutting
    inside an interval of constant sign leaves the sum unchanged, so every
    root of p1's quartic is used as a cut, a complex pair at its real
    part: no tolerance is needed and tangent zeros are harmless.  Where
    ``_cut_branch`` says so, p1 is cut at its first harmonic's zeros.
    """
    c1, s1, c2, s2 = p1
    a, b = p2
    if a == 0.0 and b == 0.0:
        return 0.0
    finite, line, zero = _cut_branch(c1, s1, c2, s2)
    if not finite:
        return math.nan
    if line and zero:
        return 0.0
    cuts = _line_zeros(c1, s1) if line else _quartic_zeros(c1, s1, c2, s2)
    cuts = sorted([t % TWO_PI for t in cuts + _line_zeros(a, b)])
    k = _antiderivative_coefficients(p1, p2)
    return _variation(k[0], _antiderivative(k, cuts, math.cos, math.sin))


def _columns(fn, *columns) -> np.ndarray:
    """A math function applied per element, as a float array.

    numpy's arctan2, arctan, arccos and power differ from libm's in the
    last bit on some hosts (AVX-512 builds), so the batched kernel sends
    atan2, atan, acos and the cube root's pow through ``math`` per
    element, each only on the rows whose value uses it.  Its + - * / sqrt,
    cos and sin are numpy's, which agree with ``math``.
    """
    values = map(fn, *(column.flat for column in columns))
    return np.fromiter(values, float, columns[0].size).reshape(columns[0].shape)


def _atan2_columns(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    return _columns(math.atan2, s, c)


def _cbrt_columns(x: np.ndarray) -> np.ndarray:
    """``_cbrt`` per element: the libm pow that its ``**`` calls."""
    return np.copysign(_columns(math.pow, np.abs(x), np.full(x.shape, 1.0 / 3.0)), x)


def _quartic_zero_columns(c1, s1, c2, s2) -> np.ndarray:
    """``_quartic_zeros`` of every row of coefficient columns, bit for bit,
    as an (M, 4) array: the same formulas, each branch taken per row."""
    big = np.max(np.abs([c1, s1, c2, s2]), axis=0)
    unit = (c1 / big, s1 / big, c2 / big, s2 / big)
    pivots = np.array(_pivot_rows(*unit))
    # the first largest |lead|, as list.index(max(...)) takes it
    k = np.argmax(np.abs(pivots[:, 2] - pivots[:, 0]), axis=0)
    shift, P, Q, R = _depressed_quartic(*np.choose(k, pivots))
    p, q, disc = _resolvent(P, Q, R)
    # each root branch on its own rows only; almost every row has disc > 0
    one = disc > 0.0
    if one.all():
        z = _one_real_root(p, q, disc, np.sqrt, _cbrt_columns, np.copysign)
    else:
        z = np.empty(p.shape)
        z[one] = _one_real_root(p[one], q[one], disc[one], np.sqrt, _cbrt_columns, np.copysign)
        three = ~one
        rho = np.sqrt(_positive_part(-p[three] / 3.0))
        rho3 = rho * rho * rho
        cos_3phi = np.where(rho3 > 0.0, np.clip(-0.5 * q[three] / rho3, -1.0, 1.0), 1.0)
        z[three] = _largest_of_three(rho, cos_3phi, partial(_columns, math.acos), np.cos)
    m = _positive_part(z - P / 3.0)
    y = np.array(_ferrari_roots(P, Q, R, m, np.sqrt, np.copysign, _positive_part))
    t = 2.0 * _columns(math.atan, y - shift) + np.take(_PIVOTS, k)
    value, slope = _value_and_slope(unit, t, np.cos, np.sin)
    return np.where(np.abs(value) < np.abs(slope), t - value / slope, t).T


def _cut_integrals(p1, p2, zeros: np.ndarray) -> np.ndarray:
    """The tail of ``_abs_product_integral`` for rows whose zeros of p1,
    ``zeros`` (M, k), are known: add the zeros of p2, sort, sum."""
    cuts = np.concatenate([zeros.T, _line_zeros(*p2, _atan2_columns)])
    cuts = np.sort(cuts % TWO_PI, axis=0)
    k = _antiderivative_coefficients(p1, p2)
    # all cuts of all rows at once, the i-th cut of every row in row i
    (q,) = _antiderivative(k, [cuts], np.cos, np.sin)
    return _variation(k[0], list(q))


def _abs_product_integrals(p1, p2) -> np.ndarray:
    """``_abs_product_integral`` of every row of coefficient columns, bit
    for bit.

    Each row is cut where the scalar function cuts it, by
    ``_quartic_zero_columns`` or ``_line_zeros``; every sum runs in the
    scalar order, and the transcendental functions that numpy rounds
    differently go through ``math`` per element (see ``_columns``).  Each
    row takes its branch from the scalar's ``_cut_branch``, so rows of NaN,
    of 0 and with a non-finite p2 come out as there, by the same operations.
    """
    c1, s1, c2, s2, a, b = np.broadcast_arrays(*p1, *p2)
    finite, line, zero = _cut_branch(c1, s1, c2, s2)
    live = (a != 0.0) | (b != 0.0)
    quartic = live & finite & ~line
    if quartic.all():
        return _cut_integrals((c1, s1, c2, s2), (a, b), _quartic_zero_columns(c1, s1, c2, s2))
    line &= live & finite & ~zero

    def rows(mask):
        return (c1[mask], s1[mask], c2[mask], s2[mask]), (a[mask], b[mask])

    out = np.where(live & ~finite, math.nan, 0.0)
    if quartic.any():
        out[quartic] = _cut_integrals(*rows(quartic), _quartic_zero_columns(*rows(quartic)[0]))
    if line.any():
        zeros = np.stack(_line_zeros(c1[line], s1[line], _atan2_columns), axis=1)
        out[line] = _cut_integrals(*rows(line), zeros)
    return out


def _assemble(spec: ObjectiveSpec, rows, abs_product, positive) -> tuple:
    """(raw, C1, C2, violation, total) of the rows (p1, p2, p3, p4), floats
    or columns, with their cut kernel and max(0, .) as ``positive``."""
    p1, p2, p3, p4 = rows
    # (|p1| + |p2|)**2 = p1**2 + p2**2 + 2 |p1 p2|
    raw = half_square_integral(p1) + half_square_integral(p2) + abs_product(p1, p2)
    c1 = half_square_integral(p3)
    c2 = half_square_integral(p4)
    violation = positive(c1 - spec.c1_max) / spec.c1_max + positive(c2 - spec.c2_max) / spec.c2_max
    return raw, c1, c2, violation, raw + spec.penalty_weight * violation


class GridEvaluator:
    """Exact cost evaluator, with no grid, over the mechanism's harmonic
    coefficient table (``mechanism.HarmonicTable``), which the test suite
    checks against the term-by-term oracle of ``tests/_oracles.py``.

    Calling the evaluator on one point (``total``) runs the scalar kernel,
    the fast one for single points.  ``batch`` scores a population (N, 4)
    in one vectorized pass and returns, bit for bit, what ``total`` returns
    for each row.
    """

    def __init__(self, cfg: MechanismConfig, spec: ObjectiveSpec):
        self.spec = spec
        self._table = cfg.table

    def breakdown(self, dv: DecisionVector) -> CostBreakdown:
        rows = self._table.coefficients(dv)
        return CostBreakdown(*_assemble(self.spec, rows, _abs_product_integral, _max_zero))

    def total(self, x: np.ndarray) -> float:
        return self.breakdown(DecisionVector.from_array(x)).total

    __call__ = total

    def batch(self, X) -> np.ndarray:
        """``total`` of every row of X (N, 4), bit for bit, as an (N,) array.

        The first row with a negative mass raises the ValueError that
        ``total`` raises for it.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 4:
            raise ValueError(f"decision points must have shape (N, 4), got {X.shape}")
        negative = (X[:, 0] < 0) | (X[:, 1] < 0)
        if negative.any():
            DecisionVector.from_array(X[np.argmax(negative)])
        # Python floats overflow to inf and nan without a warning; so does this
        with np.errstate(all="ignore"):
            rows = self._table.rows(*self._table.counterweights(*X.T, np.cos, np.sin))
            return _assemble(self.spec, rows, _abs_product_integrals, _positive_part)[-1]


def evaluate(cfg: MechanismConfig, dv: DecisionVector, spec: ObjectiveSpec) -> CostBreakdown:
    """Full cost breakdown of one counterweight choice."""
    return GridEvaluator(cfg, spec).breakdown(dv)


def make_objective(cfg: MechanismConfig, spec: ObjectiveSpec) -> GridEvaluator:
    """Objective for the optimizers over one shared coefficient table:
    callable on one point x -> penalized total, and ``.batch`` on a
    population."""
    return GridEvaluator(cfg, spec)


def require_finite_cost(cfg: MechanismConfig, spec: ObjectiveSpec) -> tuple[float, float, float]:
    """Bounds of (raw, C1, C2) over the search box of ``spec``; raises
    ValueError when the penalized total they bound is not finite, that is
    when the cost could overflow somewhere in the box.

    There the counterweights add at most k_1 m1_max + k_2 m2_max to the
    first-harmonic magnitude of each force row and a_1 k_1 m1_max +
    (a_1 + a_2) k_2 m2_max to each moment row (``HarmonicTable``); Parseval
    turns each row's bound into a bound on its area, and raw <= 2 (area of
    p1 + area of p2).  Python floats, so an overflow is inf, not a warning.
    """
    table = cfg.table
    (k_1, k_2), (arm_1, arm_2) = table.gains, table.arms
    m_1, m_2 = map(float, spec.bounds.upper[:2])
    force = k_1 * m_1 + k_2 * m_2
    moment = arm_1 * k_1 * m_1 + arm_2 * k_2 * m_2

    def area(row, reach):
        return half_square_integral((math.hypot(row[0], row[1]) + reach, 0.0, *row[2:]))

    b1, b2, b3, b4 = table.base
    raw = 2.0 * (area(b1, force) + area(b2, force))
    c1, c2 = area(b3, moment), area(b4, moment)
    if not math.isfinite(raw + spec.penalty_weight * (c1 / spec.c1_max + c2 / spec.c2_max)):
        raise ValueError(
            f"c1_max = {spec.c1_max!r}, c2_max = {spec.c2_max!r} and penalty_weight ="
            f" {spec.penalty_weight!r} can make the cost overflow in the search box up to"
            f" m1_max = {m_1!r} and m2_max = {m_2!r}, where raw <= {raw:.4g}, C1 <= {c1:.4g}"
            f" and C2 <= {c2:.4g}"
        )
    return raw, c1, c2


def calibrate_bounds(
    cfg: MechanismConfig,
    spec_bounds: Bounds,
    n_random: int,
    fraction: float = 0.5,
    seed: int = 0,
) -> tuple[float, float]:
    """Constraint bounds from the observed C1/C2 maxima of a random search.

    Samples ``n_random`` decision vectors uniformly in ``spec_bounds`` and
    returns (fraction * max C1, fraction * max C2).  A few thousand samples
    make the maxima stable across seeds; n_random >= 100 is a sensible
    floor, and more than MAX_GRID_SAMPLES is rejected before the draw.
    Deterministic per seed (own Philox stream).  The areas are the ones
    ``evaluate`` reports, bit for bit.
    """
    if n_random < 1:
        raise ValueError(f"n_random must be >= 1 (got {n_random})")
    if n_random > MAX_GRID_SAMPLES:
        raise ValueError(f"n_random must be <= {MAX_GRID_SAMPLES} (got {n_random})")
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1] (got {fraction})")
    ObjectiveSpec(bounds=spec_bounds)  # its checks of the box: 4-d, masses >= 0
    # n draws of random(4), as one (n, 4) draw of the same doubles
    X = spec_bounds.lerp(substream(seed, 0).random((n_random, 4)))
    _, _, p3, p4 = cfg.table.rows(*cfg.table.counterweights(*X.T, np.cos, np.sin))
    # the max over the samples and 0.0, skipping NaN as max() does
    c1_worst = float(np.fmax.reduce(half_square_integral(p3), initial=0.0))
    c2_worst = float(np.fmax.reduce(half_square_integral(p4), initial=0.0))
    return fraction * c1_worst, fraction * c2_worst
