"""Shared pieces of the four derivative-free minimizers.

Every optimizer takes an objective, a box, a params dataclass and a seed,
and returns a :class:`RunResult`.  The objective is a callable
x (d,) -> float.  It may also carry ``batch``, X (N, d) -> (N,) values
equal to calling it on each row; PSO, BGA and HGAPSO then score each
generation, and ABC its first population, in one ``batch`` call through
:meth:`TrackedObjective.batch`.  ABC's moves are sequential, one point at
a time.

A run's record lives in one :class:`TrackedObjective`: the evaluation
count, the incumbent, the best-so-far and timing traces and the clock.
An optimizer keeps only its update rule, calls ``checkpoint()`` after the
initial population and after each iteration, and returns ``finish()``.

Randomness comes from counter-based Philox streams derived per run and per
phase, so a run is bit-for-bit reproducible from its seed and adding a new
random-consuming phase cannot perturb the existing draw sequence.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

# spawn-key paths for the per-run sub-streams
INIT_STREAM = 0
SEARCH_STREAM = 1


def require_seed(seed: int, name: str = "seed") -> None:
    """Reject a negative seed, which no Philox stream accepts."""
    if seed < 0:
        raise ValueError(f"{name} must be >= 0 (got {seed})")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for one phase of one seeded run."""
    require_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def require_finite(obj) -> None:
    """Reject NaN and infinity in the float fields of a dataclass; a NaN
    would pass every range check after this one."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite (got {value})")


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned nan/inf; carries the offending point."""

    def __init__(self, point: np.ndarray, value: float):
        self.point = np.asarray(point, dtype=float).copy()
        self.value = value
        super().__init__(f"objective returned non-finite value {value!r} at point {self.point.tolist()}")


@dataclass
class Bounds:
    """Per-dimension box constraints (lower_j <= upper_j)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError(
                f"lower/upper must be 1-d arrays of equal length "
                f"(got {self.lower.shape} and {self.upper.shape})"
            )
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError(f"lower must be <= upper per dimension (got {self.lower} > {self.upper})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bounds):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def lerp(self, u) -> np.ndarray:
        """Map u in [0, 1]^d onto the box: lower + u*(upper - lower)."""
        return self.lower + np.asarray(u, dtype=float) * self.width

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass
class RunResult:
    """Outcome of one seeded optimizer run.

    trace       best-so-far objective value: entry 0 after the initial
                population evaluation, then one entry per iteration
                (length = iterations + 1, non-increasing)
    time_trace  cumulative wall seconds at the end of each iteration
                (length = iterations)
    """

    algorithm: str
    seed: int
    best_x: np.ndarray
    best_f: float
    trace: np.ndarray
    evaluations: int
    wall_time: float
    time_trace: np.ndarray = field(default_factory=lambda: np.empty(0))


class TrackedObjective:
    """The record of one run around the raw objective: counts evaluations,
    keeps the incumbent (first strict improvement, in call and row order),
    rejects non-finite values with a diagnostic naming the offending point,
    and collects the best-so-far and timing traces from its checkpoints."""

    __slots__ = ("fn", "evaluations", "best_f", "best_x", "trace", "time_trace", "_t0")

    def __init__(self, fn):
        self.fn = fn
        self.evaluations = 0
        self.best_f = np.inf
        self.best_x = None
        self.trace: list[float] = []
        self.time_trace: list[float] = []
        self._t0 = time.perf_counter()

    def __call__(self, x: np.ndarray) -> float:
        value = float(self.fn(x))
        if not np.isfinite(value):
            raise NonFiniteObjectiveError(x, value)
        self.evaluations += 1
        if value < self.best_f:
            self.best_f = value
            self.best_x = np.array(x, dtype=float)
        return value

    def batch(self, X: np.ndarray) -> np.ndarray:
        """Values of the rows of X (N, d), taken in row order: the counts,
        the incumbent (first strict improvement) and the non-finite error
        are those of calling this object on each row in turn.  Uses the
        objective's own ``batch`` when it has one."""
        X = np.asarray(X, dtype=float)
        fn_batch = getattr(self.fn, "batch", None)
        if fn_batch is None:
            return np.array([self(x) for x in X])
        values = np.asarray(fn_batch(X), dtype=float)
        finite = np.isfinite(values)
        n_ok = values.size if finite.all() else int(np.argmin(finite))
        self.evaluations += n_ok
        if n_ok:
            k = int(np.argmin(values[:n_ok]))
            if values[k] < self.best_f:
                self.best_f = float(values[k])
                self.best_x = X[k].copy()
        if n_ok < values.size:
            raise NonFiniteObjectiveError(X[n_ok], float(values[n_ok]))
        return values

    def checkpoint(self) -> None:
        """Append the incumbent's value to the trace.  Every checkpoint but
        the first (taken after the initial population) ends an iteration
        and also records the seconds since the run began."""
        if self.trace:
            self.time_trace.append(time.perf_counter() - self._t0)
        self.trace.append(self.best_f)

    def finish(self, algorithm: str, seed: int) -> RunResult:
        return RunResult(
            algorithm=algorithm,
            seed=seed,
            best_x=np.array(self.best_x, dtype=float),
            best_f=self.best_f,
            trace=np.array(self.trace),
            evaluations=self.evaluations,
            wall_time=time.perf_counter() - self._t0,
            time_trace=np.array(self.time_trace),
        )
