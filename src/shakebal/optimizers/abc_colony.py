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

import math
from dataclasses import dataclass

import numpy as np

from .common import (
    INIT_STREAM,
    SEARCH_STREAM,
    Bounds,
    TrackedObjective,
    ranged,
    require_fields,
    roulette,
    substream,
)


@dataclass(frozen=True)
class AbcParams:
    food_sources: int = ranged(25, 2)
    iterations: int = ranged(300, 1)
    limit: int = ranged(100, 1)

    def __post_init__(self) -> None:
        require_fields(self)


def fitness_from_cost(cost: float) -> float:
    """Positive fitness for roulette selection: 1/(1+f) for f >= 0, else 1+|f|.
    It depends on the cost's scale, so ABC's runs change with its units."""
    return 1.0 / (1.0 + cost) if cost >= 0 else 1.0 + abs(cost)


def colony_fitness(costs: np.ndarray) -> np.ndarray:
    """fitness_from_cost of each cost in one pass; 1 + |f| never divides by 0."""
    shifted = 1.0 + np.abs(costs)
    return np.where(costs >= 0, 1.0 / shifted, shifted)


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
    word.  So a move takes two words, and one call draws a whole phase's.
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
    colony: a generator that yields the initial sources, then each
    iteration's candidates, and records their values, run by
    ``common.lockstep``.  ``optimize_abc(objective, bounds, params, seed)``
    runs it alone.

    Per iteration the draw order is fixed: employed moves for sources
    0..SN-1 (each drawing dimension, partner, phi), then the SN uniforms
    that ``Generator.choice(SN, size=SN, p=probs)`` draws for the onlooker
    picks, then their moves, then scout re-seeds.  No draw before the
    scouts depends on a move's outcome, so an iteration draws them first
    and asks for all 2*SN candidates in one batch, guessed from the sources
    and the fitness at its start.  It then walks the employed moves and the
    onlooker moves in order as the sequential algorithm does, the picks
    taken from the fitness after the employed walk (``walk``).  A move's
    candidate can differ from its guess only when its source or its
    partner was replaced earlier in the iteration, or its onlooker pick
    is not the one guessed; only such a move is rebuilt from the current
    sources, and one that differs from its guess is scored on its own and
    replaces it.  Each phase is recorded in one ``record`` call, in move
    order, so the run is bit for bit the sequential one.
    """
    sn, d = params.food_sources, bounds.dimension
    lower, upper = bounds.lower, bounds.upper

    rng_init = substream(seed, INIT_STREAM)
    rng = substream(seed, SEARCH_STREAM)

    x = bounds.lerp(rng_init.random((sn, d)))
    f = tracked.record(x, (yield x)).tolist()
    trials = [0] * sn

    def picks(uniforms: np.ndarray) -> np.ndarray:
        """The onlooker picks from their uniforms, on the fitness as it stands."""
        return roulette(selection_probabilities(colony_fitness(np.array(f))), uniforms)

    def candidates(sources: np.ndarray, draws: tuple) -> np.ndarray:
        """The candidates of the moves of ``sources`` from x as it stands."""
        j, k, phi = draws
        k = k + (k >= sources)  # the partner is any source but the one that moves
        xj = x[sources, j]
        rows = x[sources]
        rows[np.arange(sn), j] = np.clip(xj + phi * (xj - x[k, j]), lower[j], upper[j])
        return rows

    def walk(
        sources: np.ndarray,
        guessed: np.ndarray,
        draws: tuple,
        guesses: np.ndarray,
        values: np.ndarray,
        replaced: set,
    ) -> None:
        """Apply a phase's moves in order, as described above, and record
        it; ``guessed`` holds the sources the guesses were built for, and
        ``replaced`` the sources replaced so far in the iteration."""
        values = values.tolist()
        moves = zip(sources.tolist(), guessed.tolist(), *(a.tolist() for a in draws))
        for m, (i, g, j, k, phi) in enumerate(moves):
            k += k >= i
            if i != g or i in replaced or k in replaced:
                v = x[i].copy()
                v[j] = min(max(x[i, j] + phi * (x[i, j] - x[k, j]), lower[j]), upper[j])
                if v.tobytes() != guesses[m].tobytes():
                    guesses[m], values[m] = v, float(tracked.fn(v))
            if not math.isfinite(values[m]):
                break  # the record below raises at this move
            if values[m] < f[i]:
                x[i] = guesses[m]
                f[i] = values[m]
                trials[i] = 0
                replaced.add(i)
            else:
                trials[i] += 1
        tracked.record(guesses, np.array(values))

    employed = np.arange(sn)
    for _ in range(params.iterations):
        moves = move_draws(rng, sn, d, sn - 1)
        uniforms = rng.random(sn)
        onlooker_moves = move_draws(rng, sn, d, sn - 1)
        guessed = picks(uniforms)
        X = np.concatenate([candidates(employed, moves), candidates(guessed, onlooker_moves)])
        values = yield X
        replaced = set()
        walk(employed, employed, moves, X[:sn], values[:sn], replaced)
        walk(picks(uniforms), guessed, onlooker_moves, X[sn:], values[sn:], replaced)

        for i in range(sn):
            if trials[i] > params.limit:
                x[i] = bounds.lerp(rng.random(d))
                f[i] = tracked(x[i])
                trials[i] = 0
