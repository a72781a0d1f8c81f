"""Four seeded, bounded, derivative-free minimizers over one callback interface.

The roster, ``STEPS`` and ``PARAMS``, is the one place that pairs a name
with its generator and its params class; all else derives from it."""

from functools import partial

from .abc_colony import AbcParams, abc_steps, fitness_from_cost, selection_probabilities
from .bga import BgaParams, bga_steps, decode_bits, encode_point
from .common import Bounds, NonFiniteObjectiveError, RunResult, lockstep, single_run, substream
from .hgapso import HgapsoParams, elite_count, hgapso_steps
from .pso import PsoParams, inertia_weight, pso_steps

# name -> generator, for lockstep runs
STEPS = {
    "pso": pso_steps,
    "abc": abc_steps,
    "bga": bga_steps,
    "hgapso": hgapso_steps,
}
# name -> params class
PARAMS = {
    "pso": PsoParams,
    "abc": AbcParams,
    "bga": BgaParams,
    "hgapso": HgapsoParams,
}

ALGORITHM_NAMES = tuple(STEPS)

# the algorithms whose update rule never reads the iteration budget, so that
# a run at budget b is bit for bit the first b iterations of a longer run of
# its seed (``RunResult.first``); PSO and HGAPSO anneal their inertia over it
BUDGET_FREE = frozenset({"abc", "bga"})

# name -> one run, (objective, bounds, params, seed, *hooks) -> RunResult
OPTIMIZERS = {name: partial(single_run, steps) for name, steps in STEPS.items()}
optimize_pso, optimize_abc, optimize_bga, optimize_hgapso = OPTIMIZERS.values()

__all__ = [
    "AbcParams",
    "ALGORITHM_NAMES",
    "BgaParams",
    "BUDGET_FREE",
    "Bounds",
    "HgapsoParams",
    "NonFiniteObjectiveError",
    "OPTIMIZERS",
    "PARAMS",
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
