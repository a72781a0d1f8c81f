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
seed's results rest on that order.  The draws of a whole generation are
replayed from raw 64-bit words, bit for bit what the per-pair calls give,
and the children are then built at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .common import (
    INIT_STREAM,
    SEARCH_STREAM,
    Bounds,
    TrackedObjective,
    require_fields,
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
        require_fields(self)
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


# numpy's Generator.choice samples without replacement by Floyd's method
# from populations up to this size; above it, it may shuffle a tail instead
FLOYD_LIMIT = 10000


def pair_draws(rng: np.random.Generator, pairs: int, length: int, params: BgaParams, p_mut: float) -> tuple:
    """The draws of ``pairs`` breeding pairs, made by the per-pair calls in
    their order, as (parent uniforms (pairs, 2), cuts (pairs, k), mutated
    bits (pairs, 2, L)): ``rng.random(3)``, the cut positions 1 .. L-1 by
    ``rng.choice(size=k, replace=False)`` if the third uniform is below
    crossover_prob (else k cuts at L, which swap no bit), then
    ``rng.random(2 * L)``, a bit mutating where its uniform is below
    ``p_mut``."""
    cut_positions = np.arange(1, length)
    uniforms = np.empty((pairs, 3))
    cuts = np.full((pairs, params.crossover_points), length)
    flips = np.empty((pairs, 2, length))
    for i in range(pairs):
        rng.random(out=uniforms[i])
        if uniforms[i, 2] < params.crossover_prob:
            cuts[i] = rng.choice(cut_positions, size=params.crossover_points, replace=False)
        rng.random(out=flips[i])
    return uniforms[:, :2], cuts, flips < p_mut


@lru_cache(maxsize=16)
def lemire_bounds(top: int, k: int) -> tuple:
    """The bounds of the 2k - 1 draws of one ``choice`` of k of ``top``
    values, Floyd's then the shuffle's, and the low words below which
    Lemire's method rejects a multiply, (2**32 - bound) % bound; read-only,
    since they are cached."""
    bounds = np.concatenate([np.arange(top - k + 1, top + 1), np.arange(k, 1, -1)]).astype(np.uint64)
    rejected = (2**32 - bounds) % bounds
    bounds.flags.writeable = rejected.flags.writeable = False
    return bounds, rejected


def replayed_draws(
    rng: np.random.Generator, pairs: int, length: int, params: BgaParams, p_mut: float
) -> tuple | None:
    """What ``pair_draws`` returns and leaves in the bit generator,
    replayed from the generation's raw 64-bit words; None, with the stream
    as it was, when the replay cannot be exact.

    ``random`` takes a whole word per uniform, ``(word >> 11) * 2**-53``.
    ``choice`` takes 32-bit halves, the low half of a word first and its
    high half kept as a spare for the next 32-bit draw, which may be the
    next pair's.  Over the population 0 .. L-2 it runs Floyd's sampler, a
    Lemire draw ``half * bound >> 32`` for each j = L-1-k .. L-2 with bound
    j + 1, taking j for a value already drawn, then shuffles the k values
    with bounds k .. 2.  The order of the cuts is not used, so the shuffle
    is replayed only for its halves.  The replay gives way to the calls
    when a bound is 1 (k = L - 1; no half is drawn), when L - 1 exceeds
    FLOYD_LIMIT, when the bit generator keeps no spare half in its state
    (MT19937), and when a multiply falls in Lemire's rejection zone (odds
    below bound / 2**32 per draw)."""
    k, top = params.crossover_points, length - 1
    bit_generator = rng.bit_generator
    entry = bit_generator.state
    if "has_uint32" not in entry or k == top or top > FLOYD_LIMIT:
        return None
    held, per_pair = entry["has_uint32"], 3 + 2 * length
    words = bit_generator.random_raw(pairs * per_pair)
    view, limit = memoryview(words), params.crossover_prob * 2.0**53
    # a crossing's cut words follow its test: 2k - 1 halves, so k words, or
    # k - 1 when a spare half is held; either way the spare toggles
    spare, test, crossing, cut_at = held, 2, [], []
    for i in range(pairs):
        if test >= words.size:
            words = np.concatenate([words, bit_generator.random_raw(pairs * per_pair + len(cut_at) - words.size)])
            view = memoryview(words)
        if view[test] >> 11 < limit:
            taken = k - spare
            crossing.append(i)
            cut_at += range(test + 1, test + 1 + taken)
            spare ^= 1
            test += taken
        test += per_pair
    total = pairs * per_pair + len(cut_at)
    if total > words.size:
        words = np.concatenate([words, bit_generator.random_raw(total - words.size)])
    is_cut = np.zeros(total, dtype=bool)
    is_cut[cut_at] = True
    # a uniform is scaled * 2**-53, exactly, so it is below p_mut exactly
    # when scaled is below ceil(p_mut * 2**53)
    scaled = (words[~is_cut] >> 11).reshape(pairs, per_pair)
    uniforms = scaled[:, :2] * 2.0**-53
    mutated = (scaled[:, 3:] < math.ceil(p_mut * 2.0**53)).reshape(pairs, 2, length)

    cut_words = words[cut_at].astype("<u8", copy=False)
    halves = np.concatenate([np.full(held, entry["uinteger"], np.uint64), cut_words.view("<u4")])
    bounds, rejected = lemire_bounds(top, k)
    products = halves[: len(crossing) * bounds.size].reshape(len(crossing), bounds.size) * bounds
    if ((products & 0xFFFFFFFF) < rejected).any():
        bit_generator.state = entry
        return None
    drawn = (products[:, :k] >> 32).astype(np.int64)
    for t in range(1, k):
        repeated = (drawn[:, :t] == drawn[:, t, None]).any(axis=1)
        drawn[repeated, t] = top - k + t
    cuts = np.full((pairs, k), length)
    cuts[crossing] = drawn + 1

    left = (spare, int(halves[-1]) if cut_words.size else entry["uinteger"])
    if left != (held, entry["uinteger"]):
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = left
        bit_generator.state = state
    return uniforms, cuts, mutated


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
    dropped child.  This order fixes every run's results for a seed.  The
    whole generation's draws are replayed from raw words
    (``replayed_draws``), bit for bit what the per-pair calls
    (``pair_draws``) give, and those calls are made when the replay cannot
    be exact."""
    length = parents.shape[1]
    p_mut = params.mutation_prob_per_bit
    if p_mut is None:
        p_mut = 1.0 / length
    pairs = (count + 1) // 2
    draws = replayed_draws(rng, pairs, length, params, p_mut) or pair_draws(rng, pairs, length, params, p_mut)
    uniforms, cuts, mutated = draws
    couples = parents[roulette(probs, uniforms)]
    # a bit lies in a swapped segment after an odd number of cuts at or before it
    swap = np.logical_xor.reduce(np.arange(length) >= cuts[:, :, None], axis=1)
    swapped = (couples[:, 0] ^ couples[:, 1]) & swap
    children = couples ^ swapped[:, None] ^ mutated
    return children.reshape(2 * pairs, length)[:count]


def bga_steps(
    tracked: TrackedObjective,
    bounds: Bounds,
    params: BgaParams,
    seed: int,
    init_points: np.ndarray | None = None,
):
    """Minimize the objective over ``bounds`` with the binary GA: a
    generator that yields each decoded generation to score and records its
    values, run by ``common.lockstep``.  ``optimize_bga(objective, bounds,
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

    for _ in range(params.iterations):
        elites = bits[np.argsort(costs, kind="stable")[: params.elitism]]
        children = breed(rng, bits, rank_probabilities(costs), pop - len(elites), params)
        bits = np.concatenate([elites, children])
        points = decode_bits(bits, bounds, nb)
        costs = tracked.record(points, (yield points))
