"""Artificial bee colony minimizer.

A colony of 2*SN bees works SN food sources: the first half (employed
bees) refine their own source, the second half (onlookers) reinforce
sources picked fitness-proportionally, and exhausted sources are restarted
by scouts.  One neighbor move changes a single random dimension j against a
random partner k != i:

    v_j = x_ij + phi * (x_ij - x_kj),   phi ~ uniform[-1, 1]

and replaces the source only on improvement.  A source whose trial counter
exceeds ``limit`` is abandoned and re-seeded uniformly in the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (
    INIT_STREAM,
    SEARCH_STREAM,
    Bounds,
    RunResult,
    TrackedObjective,
    require_finite,
    require_integers,
    single_run,
    substream,
)


@dataclass(frozen=True)
class AbcParams:
    food_sources: int = 25
    iterations: int = 300
    limit: int = 100

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.food_sources < 2:
            raise ValueError(f"food_sources must be >= 2 (got {self.food_sources})")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1 (got {self.iterations})")
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1 (got {self.limit})")


def fitness_from_cost(cost: float) -> float:
    """Positive fitness for roulette selection: 1/(1+f) for f >= 0, else 1+|f|."""
    return 1.0 / (1.0 + cost) if cost >= 0 else 1.0 + abs(cost)


def selection_probabilities(fitness: np.ndarray) -> np.ndarray:
    """Normalize fitness values to onlooker probabilities P_i = fit_i / sum(fit)."""
    fitness = np.asarray(fitness, dtype=float)
    total = fitness.sum()
    if total <= 0:
        raise ValueError("fitness values must have a positive sum")
    return fitness / total


def move_draws(rng: np.random.Generator, count: int, d: int, partners: int) -> tuple:
    """The draws of ``count`` neighbor moves as arrays (j, k, phi): what
    calling rng.integers(d), rng.integers(partners) and
    rng.uniform(-1.0, 1.0) per move, in that order, returns.

    Generator.integers maps a 32-bit half of a 64-bit Philox word through
    Lemire's bounded multiply (low half first), and uniform takes a whole
    word.  So a move takes two words, and the phase draws them at once.
    When the generator holds a spare half word, a bound is 1 (no draw), or
    a multiply falls in Lemire's rejection zone (odds below bound / 2**32
    per draw), the stream is rewound and the calls are made one by one."""
    bit_generator = rng.bit_generator
    state = bit_generator.state
    if not state["has_uint32"] and d > 1 and partners > 1:
        words = bit_generator.random_raw(2 * count).reshape(count, 2)
        halves = np.stack([words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32])
        bounds = np.array([[d], [partners]], dtype=np.uint64)
        scaled = halves * bounds
        if np.all(scaled & 0xFFFFFFFF >= (2**32 - bounds) % bounds):
            j, k = (scaled >> 32).astype(np.int64)
            return j, k, -1.0 + 2.0 * ((words[:, 1] >> 11) * 2.0**-53)
        bit_generator.state = state
    draws = [(rng.integers(d), rng.integers(partners), rng.uniform(-1.0, 1.0)) for _ in range(count)]
    draws = np.array(draws, dtype=float).reshape(count, 3)
    return draws[:, 0].astype(np.int64), draws[:, 1].astype(np.int64), draws[:, 2]


def abc_steps(tracked: TrackedObjective, bounds: Bounds, params: AbcParams, seed: int):
    """Minimize the objective over ``bounds`` with an artificial bee
    colony: a generator that yields the initial sources, then the
    candidates of each phase, and returns the RunResult
    (``common.lockstep``).  ``optimize_abc(objective, bounds, params,
    seed)`` runs it alone.

    Per iteration the draw order is fixed: employed moves for sources
    0..SN-1 (each drawing dimension, partner, phi), then the SN onlooker
    picks in one batch followed by their moves, then scout re-seeds.  No
    draw of a phase depends on a move's outcome, so a phase draws all its
    moves first and asks for their candidates, built from the sources as
    they stand, in one batch.  It then walks the moves in order as the
    sequential algorithm does: each move's candidate is rebuilt from the
    current sources, and one that an earlier move of the phase changed is
    scored on its own.  So every value is recorded in move order, and the
    run is bit for bit the sequential one.
    """
    sn, d = params.food_sources, bounds.dimension
    lower, upper = bounds.lower, bounds.upper

    rng_init = substream(seed, INIT_STREAM)
    rng = substream(seed, SEARCH_STREAM)

    x = bounds.lerp(rng_init.random((sn, d)))
    f = tracked.record(x, (yield x))
    trials = np.zeros(sn, dtype=int)
    tracked.checkpoint()

    def phase(sources: np.ndarray):
        """One move per entry of ``sources``, speculated as above."""
        j, k, phi = move_draws(rng, sn, d, sn - 1)
        k += k >= sources  # the partner is any source but the one that moves
        xj = x[sources, j]
        guesses = x[sources]
        guesses[np.arange(sn), j] = np.clip(xj + phi * (xj - x[k, j]), lower[j], upper[j])
        values = yield guesses
        moves = zip(sources.tolist(), j.tolist(), k.tolist(), phi.tolist())
        for (i, j, k, phi), guess, value in zip(moves, guesses, values.tolist()):
            v = x[i].copy()
            v[j] = min(max(x[i, j] + phi * (x[i, j] - x[k, j]), lower[j]), upper[j])
            fv = tracked.tell(v, value) if v.tobytes() == guess.tobytes() else tracked(v)
            if fv < f[i]:
                x[i] = v
                f[i] = fv
                trials[i] = 0
            else:
                trials[i] += 1

    for _ in range(params.iterations):
        yield from phase(np.arange(sn))

        probs = selection_probabilities(np.array([fitness_from_cost(fi) for fi in f]))
        picks = rng.choice(sn, size=sn, p=probs)
        yield from phase(picks)

        for i in range(sn):
            if trials[i] > params.limit:
                x[i] = bounds.lerp(rng.random(d))
                f[i] = tracked(x[i])
                trials[i] = 0

        tracked.checkpoint()

    return tracked.finish("abc", seed)


def optimize_abc(objective, bounds: Bounds, params: AbcParams, seed: int) -> RunResult:
    """Minimize ``objective`` over ``bounds`` with an artificial bee
    colony: one run of :func:`abc_steps`."""
    return single_run(abc_steps, objective, bounds, params, seed)
