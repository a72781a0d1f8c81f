"""Binary-coded genetic minimizer: rank roulette, multipoint crossover,
per-bit mutation, elitism.

Each variable is a fixed-point code of ``bits_per_variable`` bits mapping
[lower_j, upper_j] linearly onto 0 .. 2**bits - 1 (all-zero bits decode to
the lower bound, all-one bits to the upper bound); a chromosome is the
concatenation over dimensions.  Selection is roulette on linear rank
weights (raw-fitness roulette is ill-posed for minimization), the best
``elitism`` individuals are copied unchanged, and the whole population is
decoded and evaluated every generation.  ``breed`` draws per pair, in this
order: the parents, the crossover test, the cuts, both mutation masks.  A
seed's results rest on that order; the children are then built at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (
    INIT_STREAM,
    SEARCH_STREAM,
    Bounds,
    TrackedObjective,
    require_finite,
    require_integers,
    roulette,
    substream,
)


@dataclass(frozen=True)
class BgaParams:
    population: int = 50
    iterations: int = 300
    bits_per_variable: int = 16
    crossover_points: int = 2
    crossover_prob: float = 0.9
    mutation_prob_per_bit: float | None = None  # None -> 1/(bits*d) at run time
    elitism: int = 1

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.population < 2 or self.population % 2 != 0:
            raise ValueError(f"population must be even and >= 2 (got {self.population})")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1 (got {self.iterations})")
        if not (8 <= self.bits_per_variable <= 32):
            raise ValueError(f"bits_per_variable must be in [8, 32] (got {self.bits_per_variable})")
        if self.crossover_points < 1:
            raise ValueError(f"crossover_points must be >= 1 (got {self.crossover_points})")
        if not (0.0 <= self.crossover_prob <= 1.0):
            raise ValueError(f"crossover_prob must be in [0, 1] (got {self.crossover_prob})")
        if self.mutation_prob_per_bit is not None and not (0.0 <= self.mutation_prob_per_bit <= 1.0):
            raise ValueError(
                f"mutation_prob_per_bit must be in [0, 1] (got {self.mutation_prob_per_bit})"
            )
        if self.elitism < 0:
            raise ValueError(f"elitism must be >= 0 (got {self.elitism})")
        if self.elitism >= self.population:
            raise ValueError(f"elitism must be < population (got {self.elitism} >= {self.population})")


def decode_bits(bits: np.ndarray, bounds: Bounds, bits_per_variable: int) -> np.ndarray:
    """Decode a chromosome (bool array (L,), MSB first per variable) to a
    point (d,), or a population (N, L) to points (N, d)."""
    nb = bits_per_variable
    scale = float((1 << nb) - 1)
    weights = (2.0 ** np.arange(nb - 1, -1, -1))
    # sums of distinct powers of two below 2**32: exact in any order
    ints = bits.reshape(*bits.shape[:-1], bounds.dimension, nb).astype(float) @ weights
    return bounds.lower + ints / scale * bounds.width


def encode_point(x: np.ndarray, bounds: Bounds, bits_per_variable: int) -> np.ndarray:
    """Encode a point (d,) to the nearest chromosome (L,), or points (N, d)
    to chromosomes (N, L) (inverse of decode_bits)."""
    nb = bits_per_variable
    scale = (1 << nb) - 1
    width = bounds.width
    frac = (np.asarray(x, dtype=float) - bounds.lower) / np.where(width > 0, width, 1.0)
    ints = np.minimum(np.maximum(np.rint(frac * scale).astype(np.int64), 0), scale)
    shifts = np.arange(nb - 1, -1, -1)  # MSB first
    bits = ((ints[..., None] >> shifts) & 1).astype(bool)
    return bits.reshape(*ints.shape[:-1], -1)


def rank_probabilities(costs: np.ndarray) -> np.ndarray:
    """Linear rank weights: the best individual gets weight N, the worst 1."""
    n = len(costs)
    order = np.argsort(costs, kind="stable")
    weights = np.empty(n, dtype=float)
    weights[order] = np.arange(n, 0, -1)
    return weights / weights.sum()


def chromosome_length(params: BgaParams, dimension: int) -> int:
    """Bits per chromosome over ``dimension`` variables; rejects more
    crossover points than the chromosome has cut positions."""
    length = params.bits_per_variable * dimension
    if params.crossover_points > length - 1:
        raise ValueError(
            f"crossover_points must be <= chromosome length - 1 ({length - 1}), "
            f"got {params.crossover_points}"
        )
    return length


def breed(
    rng: np.random.Generator, parents: np.ndarray, probs: np.ndarray, count: int, params: BgaParams
) -> np.ndarray:
    """``count`` offspring (count, L) of the chromosomes ``parents`` (N, L):
    per pair, a roulette draw of two parents on ``probs``, multipoint
    crossover with probability crossover_prob, and per-bit mutation of
    both children (rate 1/L unless set); the second child of the last pair
    is dropped when only one slot is left.

    Each pair draws, in this order: the two parent uniforms and the
    crossover test (``rng.random(3)``), the cut positions if it crosses
    over, then both mutation masks (``rng.random(2 * L)``), also for the
    dropped child.  This order fixes every run's results for a seed."""
    length = parents.shape[1]
    p_mut = params.mutation_prob_per_bit
    if p_mut is None:
        p_mut = 1.0 / length
    pairs = (count + 1) // 2
    cut_positions = np.arange(1, length)
    uniforms = np.empty((pairs, 3))
    cuts = np.full((pairs, params.crossover_points), length)  # a cut at L swaps no bit
    flips = np.empty((pairs, 2, length))
    for i in range(pairs):
        rng.random(out=uniforms[i])
        if uniforms[i, 2] < params.crossover_prob:
            cuts[i] = rng.choice(cut_positions, size=params.crossover_points, replace=False)
        rng.random(out=flips[i])
    a, b = parents[roulette(probs, uniforms[:, :2])].transpose(1, 0, 2)
    # a bit lies in a swapped segment after an odd number of cuts at or before it
    swap = (np.arange(length) >= cuts[:, :, None]).sum(axis=1) % 2 == 1
    children = np.stack([np.where(swap, b, a), np.where(swap, a, b)], axis=1) ^ (flips < p_mut)
    return children.reshape(2 * pairs, length)[:count]


def bga_steps(
    tracked: TrackedObjective,
    bounds: Bounds,
    params: BgaParams,
    seed: int,
    init_points: np.ndarray | None = None,
):
    """Minimize the objective over ``bounds`` with the binary GA: a
    generator that yields each decoded generation to score and returns the
    RunResult (``common.lockstep``).  ``optimize_bga(objective, bounds,
    params, seed)`` runs it alone.

    ``init_points`` (population, d) seeds the first generation through the
    encoder instead of random bits (testing hook).
    """
    pop, nb = params.population, params.bits_per_variable
    length = chromosome_length(params, bounds.dimension)

    rng_init = substream(seed, INIT_STREAM)
    rng = substream(seed, SEARCH_STREAM)

    if init_points is None:
        bits = rng_init.random((pop, length)) < 0.5
    else:
        bits = encode_point(np.asarray(init_points, dtype=float), bounds, nb).reshape(pop, length)
    points = decode_bits(bits, bounds, nb)
    costs = tracked.record(points, (yield points))
    tracked.checkpoint()

    for _ in range(params.iterations):
        elites = bits[np.argsort(costs, kind="stable")[: params.elitism]]
        children = breed(rng, bits, rank_probabilities(costs), pop - len(elites), params)
        bits = np.concatenate([elites, children])
        points = decode_bits(bits, bounds, nb)
        costs = tracked.record(points, (yield points))
        tracked.checkpoint()

    return tracked.finish("bga", seed)
