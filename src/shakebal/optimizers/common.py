"""Shared pieces of the four derivative-free minimizers.

Every optimizer is an ask/tell generator: it yields each population
(N, d) it wants scored, is sent the raw values, and records them in the
run's :class:`TrackedObjective`.  :func:`lockstep` drives any number of
such runs on one objective, scoring what all live runs ask for in one
call per round; ``optimize_*(objective, bounds, params, seed)`` is the
one-run case (:func:`single_run`).  The objective is a callable x (d,) ->
float.  It may also carry ``batch``, X (N, d) -> (N,) values equal to
calling it on each row, which then scores each round; without it, each
row is one call.

A run's record lives in one :class:`TrackedObjective`: the evaluation
count, the incumbent, the best-so-far and timing traces and the seconds
charged to the run.  An optimizer keeps only its update rule and
``record``s its values; it asks once per iteration, after its initial
population, so :func:`lockstep` closes an iteration each time the run
takes its values, and makes the run's RunResult when it returns.

Randomness comes from counter-based Philox streams derived per run and per
phase, so a run is bit-for-bit reproducible from its seed, alone or in
lockstep with others, and adding a new random-consuming phase cannot
perturb the existing draw sequence.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
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


def require_integers(obj) -> None:
    """Reject a non-integer in the fields of a dataclass annotated ``int``
    or ``tuple[int, ...]``, the integer kinds the config schema reads, and
    store an integral value such as 3.0 as the int it equals."""
    for f in dataclasses.fields(obj):
        if f.type in ("int", "tuple[int, ...]"):
            value = getattr(obj, f.name)
            items = (value,) if f.type == "int" else tuple(value)
            integral = (isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer() for v in items)
            if not all(integral):
                kind = "an integer" if f.type == "int" else "integers"
                raise ValueError(f"{f.name} must be {kind} (got {value!r})")
            ints = tuple(map(int, items))
            object.__setattr__(obj, f.name, ints[0] if f.type == "int" else ints)


def roulette(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The indices that ``Generator.choice(len(probs), p=probs)`` picks
    with these uniforms, minus its per-call checks of p."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned nan/inf; carries the offending point."""

    def __init__(self, point: np.ndarray, value: float):
        self.point = np.asarray(point, dtype=float).copy()
        self.value = value
        super().__init__(f"objective returned non-finite value {value!r} at point {self.point.tolist()}")

    def __reduce__(self):
        # rebuilt from both arguments, so it crosses a process boundary
        return type(self), (self.point, self.value)


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

    trace             best-so-far objective value: entry 0 after the initial
                      population evaluation, then one entry per iteration
                      (length = iterations + 1, non-increasing)
    wall_time         seconds attributed to the run (see :func:`lockstep`)
    time_trace        seconds attributed to the run by the end of each
                      iteration (length = iterations, non-decreasing,
                      ending at wall_time)
    best_x_trace      the incumbent point at each entry of ``trace``
                      (iterations + 1, d)
    evaluation_trace  the evaluations counted by each entry of ``trace``
                      (length = iterations + 1, ending at evaluations)

    ``first(b)`` reads the run's first b iterations off these traces.
    """

    best_x: np.ndarray
    best_f: float
    trace: np.ndarray
    evaluations: int
    wall_time: float
    time_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    best_x_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    evaluation_trace: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def first(self, iterations: int) -> RunResult:
        """The record of this run as it stood after its first
        ``iterations`` iterations: the whole RunResult of a run at that
        budget, for an optimizer whose update rule never reads its budget
        (``optimizers.BUDGET_FREE``), with the seconds this run was charged
        by then."""
        if not 1 <= iterations <= self.time_trace.size:
            raise ValueError(f"iterations must be in [1, {self.time_trace.size}] (got {iterations})")
        end = iterations + 1
        return RunResult(
            best_x=self.best_x_trace[iterations].copy(),
            best_f=float(self.trace[iterations]),
            trace=self.trace[:end],
            evaluations=int(self.evaluation_trace[iterations]),
            wall_time=float(self.time_trace[iterations - 1]),
            time_trace=self.time_trace[:iterations],
            best_x_trace=self.best_x_trace[:end],
            evaluation_trace=self.evaluation_trace[:end],
        )


def score(fn, X: np.ndarray) -> np.ndarray:
    """The values of ``fn`` on the rows of X (N, d): its own ``batch`` when
    it has one, else one call per row."""
    fn_batch = getattr(fn, "batch", None)
    if fn_batch is None:
        return np.array([float(fn(x)) for x in X])
    return np.asarray(fn_batch(X), dtype=float)


class TrackedObjective:
    """The record of one run around the raw objective: counts evaluations,
    keeps the incumbent (first strict improvement, in the order values are
    recorded), rejects non-finite values with a diagnostic naming the
    offending point, and collects the run's traces from its checkpoints:
    the incumbent's value and point, the evaluation count and the seconds
    charged to the run so far (``seconds``, which :func:`lockstep` adds).
    Each improvement stores a new incumbent array, and none is changed in
    place, so the point trace keeps references, not copies."""

    __slots__ = (
        "fn", "evaluations", "best_f", "best_x", "trace", "time_trace", "best_x_trace", "evaluation_trace", "seconds",
    )

    def __init__(self, fn):
        self.fn = fn
        self.evaluations = 0
        self.best_f = np.inf
        self.best_x = None
        self.trace: list[float] = []
        self.time_trace: list[float] = []
        self.best_x_trace: list[np.ndarray] = []
        self.evaluation_trace: list[int] = []
        self.seconds = 0.0

    def __call__(self, x: np.ndarray) -> float:
        """Score the point x and record it as a one-row ``record``."""
        return float(self.record(np.array(x, dtype=float, ndmin=2), np.array([float(self.fn(x))]))[0])

    def record(self, X: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Record the values of the rows of X (N, d), taken in row order:
        each finite value counts one evaluation, the incumbent moves on the
        first strict improvement, and the first non-finite value raises
        NonFiniteObjectiveError naming its row, after the rows before it
        are recorded."""
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
        """Append the incumbent's value and point and the evaluation count
        to the traces.  Every checkpoint but the first (taken after the
        initial population) ends an iteration and also records the seconds
        charged to the run so far."""
        if self.trace:
            self.time_trace.append(self.seconds)
        self.trace.append(self.best_f)
        self.best_x_trace.append(self.best_x)
        self.evaluation_trace.append(self.evaluations)

    def finish(self) -> RunResult:
        return RunResult(
            best_x=np.array(self.best_x, dtype=float),
            best_f=self.best_f,
            trace=np.array(self.trace),
            evaluations=self.evaluations,
            wall_time=self.seconds,
            time_trace=np.array(self.time_trace),
            best_x_trace=np.array(self.best_x_trace, dtype=float),
            evaluation_trace=np.array(self.evaluation_trace),
        )


def _score_round(fn, asks: dict) -> dict:
    """Each run's values for the population it asked for, from one call
    over all of them; if that call raises, each run's rows are scored on
    their own, and a run whose rows raise gets the exception."""
    if len(asks) > 1:
        try:
            values = score(fn, np.concatenate(list(asks.values())))
            return dict(zip(asks, np.split(values, np.cumsum([len(X) for X in asks.values()])[:-1])))
        except Exception:
            pass
    replies = {}
    for i, X in asks.items():
        try:
            replies[i] = score(fn, X)
        except Exception as exc:
            replies[i] = exc
    return replies


def lockstep(objective, runs: list) -> list:
    """Run seeded optimizer runs side by side on one objective.

    Each entry of ``runs`` takes the run's :class:`TrackedObjective` and
    returns its generator.  A generator yields each population (N, d) it
    wants scored, once per iteration after its initial one, is sent the
    raw values and records them in its TrackedObjective.  Each round
    scores what every live run asked for in one call (``score``).  Each
    step that takes a run's values ends an iteration, and checkpoints the
    run; when the generator returns, its record becomes its RunResult.
    Returns, per run, its RunResult or the exception that ended it; one
    run's failure ends only that run, and the others go on bit for bit as
    they would alone.

    Time is charged per run: the wall time of its own generator steps plus
    a share of each round's scoring, in proportion to its rows.  So the
    runs' wall times add up to the driver's.
    """
    tracks = [TrackedObjective(objective) for _ in runs]
    generators = [run(tracked) for run, tracked in zip(runs, tracks)]
    outcomes: list = [None] * len(runs)
    replies: dict = dict.fromkeys(range(len(runs)))
    while True:
        asks = {}
        for i, reply in replies.items():
            start = time.perf_counter()
            try:
                if isinstance(reply, Exception):
                    raise reply
                asks[i] = generators[i].send(reply)
            except StopIteration:
                pass
            except Exception as exc:
                outcomes[i] = exc
                continue
            tracks[i].seconds += time.perf_counter() - start
            if reply is not None:
                tracks[i].checkpoint()
            if i not in asks:
                outcomes[i] = tracks[i].finish()
        if not asks:
            return outcomes
        start = time.perf_counter()
        replies = _score_round(objective, asks)
        per_row = (time.perf_counter() - start) / sum(len(X) for X in asks.values())
        for i, X in asks.items():
            tracks[i].seconds += per_row * len(X)


def single_run(steps, objective, bounds: Bounds, params, seed: int, *hooks, **kwhooks) -> RunResult:
    """Run the optimizer generator ``steps`` alone on :func:`lockstep`, with
    any testing hooks as given: its RunResult, or the exception that ended
    it, raised."""
    (outcome,) = lockstep(objective, [lambda tracked: steps(tracked, bounds, params, seed, *hooks, **kwhooks)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
