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
    substream,
)


@dataclass(frozen=True)
class AbcParams:
    food_sources: int = 25
    iterations: int = 300
    limit: int = 100

    def __post_init__(self) -> None:
        require_finite(self)
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


def optimize_abc(objective, bounds: Bounds, params: AbcParams, seed: int) -> RunResult:
    """Minimize ``objective`` over ``bounds`` with an artificial bee colony.

    Per iteration the draw order is fixed: employed moves for sources
    0..SN-1 (each drawing dimension, partner, phi), then the SN onlooker
    picks in one batch followed by their moves, then scout re-seeds.
    """
    sn, d = params.food_sources, bounds.dimension

    rng_init = substream(seed, INIT_STREAM)
    rng = substream(seed, SEARCH_STREAM)

    tracked = TrackedObjective(objective)
    x = bounds.lerp(rng_init.random((sn, d)))
    f = tracked.batch(x)
    trials = np.zeros(sn, dtype=int)
    tracked.checkpoint()

    def neighbor_move(i: int) -> None:
        j = int(rng.integers(d))
        k = int(rng.integers(sn - 1))
        if k >= i:
            k += 1
        phi = rng.uniform(-1.0, 1.0)
        v = x[i].copy()
        v[j] = x[i, j] + phi * (x[i, j] - x[k, j])
        v[j] = min(max(v[j], bounds.lower[j]), bounds.upper[j])
        fv = tracked(v)
        if fv < f[i]:
            x[i] = v
            f[i] = fv
            trials[i] = 0
        else:
            trials[i] += 1

    for _ in range(params.iterations):
        for i in range(sn):
            neighbor_move(i)

        probs = selection_probabilities(np.array([fitness_from_cost(fi) for fi in f]))
        picks = rng.choice(sn, size=sn, p=probs)
        for i in picks:
            neighbor_move(int(i))

        for i in range(sn):
            if trials[i] > params.limit:
                x[i] = bounds.lerp(rng.random(d))
                f[i] = tracked(x[i])
                trials[i] = 0

        tracked.checkpoint()

    return tracked.finish("abc", seed)
