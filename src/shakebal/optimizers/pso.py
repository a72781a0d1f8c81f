"""Particle swarm minimizer with linearly annealed inertia weight.

Update rules, per particle i and iteration t:

    v(t+1) = w(t)*v(t) + c1*U1*(pbest_i - x(t)) + c2*U2*(gbest - x(t))
    x(t+1) = x(t) + v(t+1)

with U1, U2 fresh uniform(0,1) draws per particle *per dimension* each
iteration, gbest the best point evaluated so far (the run's incumbent,
``TrackedObjective.best_x``), and the inertia weight annealed linearly:

    w(Iter) = w_max - (w_max - w_min)/Iter_max * Iter

Velocities are clamped to +/- v_max_fraction * box width and positions are
clamped to the box after every move (the acceleration constants default to
the small 0.25/0.15 pair, which needs both clamps to stay well-behaved).
The update of iteration t uses w(t) for t = 1..Iter_max, so the schedule
ends exactly at w_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (
    INIT_STREAM,
    SEARCH_STREAM,
    Bounds,
    TrackedObjective,
    require_fields,
    substream,
)


@dataclass(frozen=True)
class PsoParams:
    population: int = 50
    iterations: int = 300
    c1: float = 0.25
    c2: float = 0.15
    w_max: float = 0.9
    w_min: float = 0.4
    v_max_fraction: float = 0.5

    def __post_init__(self) -> None:
        require_fields(self)
        if self.population < 1:
            raise ValueError(f"population must be >= 1 (got {self.population})")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1 (got {self.iterations})")
        if not (self.w_max >= self.w_min >= 0):
            raise ValueError(f"need w_max >= w_min >= 0 (got {self.w_max}, {self.w_min})")
        for name in ("c1", "c2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (got {getattr(self, name)})")
        if self.v_max_fraction <= 0:
            raise ValueError(f"v_max_fraction must be > 0 (got {self.v_max_fraction})")


def inertia_weight(params: PsoParams, iteration: int) -> float:
    """Linear anneal: w_max at iteration 0, w_min at iteration iterations."""
    return params.w_max - (params.w_max - params.w_min) / params.iterations * iteration


def velocity(params: PsoParams, w: float, v, x, pbest_x, attractor, u1, u2, v_max) -> np.ndarray:
    """The update rule's new velocity, clamped to +/- v_max:
    w*v + c1*U1*(pbest_x - x) + c2*U2*(attractor - x)."""
    v = w * v + params.c1 * u1 * (pbest_x - x) + params.c2 * u2 * (attractor - x)
    return np.clip(v, -v_max, v_max)


def pso_steps(
    tracked: TrackedObjective,
    bounds: Bounds,
    params: PsoParams,
    seed: int,
    init_positions: np.ndarray | None = None,
    init_velocities: np.ndarray | None = None,
):
    """Minimize the objective over ``bounds`` with a particle swarm: a
    generator that yields each swarm to score and records its values, run
    by ``common.lockstep``.  ``optimize_pso(objective, bounds, params,
    seed)`` runs it alone.

    Positions and velocities are initialized uniformly at random (positions
    in the box, velocities in the +/- v_max clamp range) unless explicit
    ``init_positions`` / ``init_velocities`` arrays of shape
    (population, d) are supplied (testing / warm-start hook).
    """
    pop, d = params.population, bounds.dimension
    v_max = params.v_max_fraction * bounds.width

    rng_init = substream(seed, INIT_STREAM)
    rng = substream(seed, SEARCH_STREAM)

    if init_positions is None:
        x = bounds.lerp(rng_init.random((pop, d)))
    else:
        x = np.array(init_positions, dtype=float).reshape(pop, d)
    if init_velocities is None:
        v = (rng_init.random((pop, d)) * 2.0 - 1.0) * v_max
    else:
        v = np.array(init_velocities, dtype=float).reshape(pop, d)

    f = tracked.record(x, (yield x))
    pbest_x = x.copy()
    pbest_f = f.copy()

    for t in range(1, params.iterations + 1):
        w = inertia_weight(params, t)
        u1 = rng.random((pop, d))
        u2 = rng.random((pop, d))
        v = velocity(params, w, v, x, pbest_x, tracked.best_x, u1, u2, v_max)
        x = bounds.clip(x + v)
        f = tracked.record(x, (yield x))

        improved = f < pbest_f
        pbest_x[improved] = x[improved]
        pbest_f[improved] = f[improved]
