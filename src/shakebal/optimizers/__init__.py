"""Four seeded, bounded, derivative-free minimizers over one callback interface."""

from .abc_colony import AbcParams, abc_steps, fitness_from_cost, optimize_abc, selection_probabilities
from .bga import BgaParams, bga_steps, decode_bits, encode_point, optimize_bga
from .common import Bounds, NonFiniteObjectiveError, RunResult, lockstep, substream
from .hgapso import HgapsoParams, elite_count, hgapso_steps, optimize_hgapso
from .pso import PsoParams, inertia_weight, optimize_pso, pso_steps

OPTIMIZERS = {
    "pso": optimize_pso,
    "abc": optimize_abc,
    "bga": optimize_bga,
    "hgapso": optimize_hgapso,
}

# the same algorithms as generators, for lockstep runs
STEPS = {
    "pso": pso_steps,
    "abc": abc_steps,
    "bga": bga_steps,
    "hgapso": hgapso_steps,
}

ALGORITHM_NAMES = tuple(OPTIMIZERS)

__all__ = [
    "AbcParams",
    "ALGORITHM_NAMES",
    "BgaParams",
    "Bounds",
    "HgapsoParams",
    "NonFiniteObjectiveError",
    "OPTIMIZERS",
    "PsoParams",
    "RunResult",
    "STEPS",
    "decode_bits",
    "elite_count",
    "encode_point",
    "fitness_from_cost",
    "inertia_weight",
    "lockstep",
    "optimize_abc",
    "optimize_bga",
    "optimize_hgapso",
    "optimize_pso",
    "selection_probabilities",
    "substream",
]
