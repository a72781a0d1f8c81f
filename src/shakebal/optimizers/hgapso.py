"""Hybrid GA/PSO minimizer (breeding-swarm style).

Each generation the population is ranked by cost; the top
``ceil(phi * population)`` elites receive one particle-swarm update
(PSO's own rule, ``pso.velocity``, with a persistent per-individual
velocity and personal best, and the current population best standing in
for the swarm best) and pass to the next generation directly.  The remaining slots are
filled by GA offspring bred from the whole encoded population by BGA's
own operator, ``bga.breed`` (rank roulette, multipoint crossover, per-bit
mutation, drawn per pair in its documented order), and decoded.
Offspring start with zero velocity and themselves as personal best.

With phi = 1 every individual is an elite and the dynamics degenerate to
plain PSO; the random-draw order still differs from ``optimize_pso`` (the
ranking permutes particle processing and the swarm attractor is the
population best rather than the all-time best), so traces agree
qualitatively rather than bitwise.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .bga import BgaParams, breed, chromosome_length, decode_bits, encode_point, rank_probabilities
from .common import (
    INIT_STREAM,
    SEARCH_STREAM,
    Bounds,
    TrackedObjective,
    require_finite,
    require_integers,
    substream,
)
from .pso import PsoParams, inertia_weight, velocity


@dataclass(frozen=True)
class HgapsoParams:
    population: int = 50
    iterations: int = 300
    breeding_ratio: float = 0.5
    # operator settings reused from the plain algorithms; their population
    # and iteration counts are ignored here
    pso: PsoParams = field(default_factory=PsoParams)
    bga: BgaParams = field(default_factory=BgaParams)

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.population < 2:
            raise ValueError(f"population must be >= 2 (got {self.population})")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1 (got {self.iterations})")
        if not (0.0 < self.breeding_ratio <= 1.0):
            raise ValueError(f"breeding_ratio must be in (0, 1] (got {self.breeding_ratio})")


def elite_count(breeding_ratio: float, population: int) -> int:
    """Number of PSO-enhanced elites per generation: ceil(phi * population)."""
    return min(population, math.ceil(breeding_ratio * population))


def hgapso_steps(tracked: TrackedObjective, bounds: Bounds, params: HgapsoParams, seed: int):
    """Minimize the objective over ``bounds`` with the GA/PSO hybrid: a
    generator that yields each generation to score and records its values,
    run by ``common.lockstep``.  ``optimize_hgapso(objective, bounds,
    params, seed)`` runs it alone."""
    pop, d = params.population, bounds.dimension
    nb = params.bga.bits_per_variable
    chromosome_length(params.bga, d)
    v_max = params.pso.v_max_fraction * bounds.width
    n_elite = elite_count(params.breeding_ratio, pop)
    # the inertia schedule runs over this hybrid's own generation count
    schedule = dataclasses.replace(params.pso, population=pop, iterations=params.iterations)

    rng_init = substream(seed, INIT_STREAM)
    rng = substream(seed, SEARCH_STREAM)

    x = bounds.lerp(rng_init.random((pop, d)))
    v = (rng_init.random((pop, d)) * 2.0 - 1.0) * v_max
    f = tracked.record(x, (yield x))
    pbest_x = x.copy()
    pbest_f = f.copy()

    for t in range(1, params.iterations + 1):
        w = inertia_weight(schedule, t)
        order = np.argsort(f, kind="stable")
        swarm_best = x[order[0]].copy()

        # elites, in rank order: one PSO step each; u[:, 0] and u[:, 1]
        # are the per-elite (U1, U2) pairs, drawn in the same order
        elite = order[:n_elite]
        u = rng.random((n_elite, 2, d))
        v_elite = velocity(
            params.pso, w, v[elite], x[elite], pbest_x[elite], swarm_best, u[:, 0], u[:, 1], v_max
        )

        # offspring fill the remaining slots, bred from the encoded population
        genomes = encode_point(x, bounds, nb)
        children = breed(rng, genomes, rank_probabilities(f), pop - n_elite, params.bga)
        offspring = decode_bits(children, bounds, nb)

        x = np.concatenate([bounds.clip(x[elite] + v_elite), offspring])
        v = np.concatenate([v_elite, np.zeros_like(offspring)])
        pbest_x = np.concatenate([pbest_x[elite], offspring])
        pbest_f = np.concatenate([pbest_f[elite], np.full(pop - n_elite, np.inf)])
        f = tracked.record(x, (yield x))
        improved = f < pbest_f
        pbest_x[improved] = x[improved]
        pbest_f[improved] = f[improved]
