"""Dynamic counterweight balancing of a double crank-slider mechanism.

The library models the mechanism's shaking forces and moments, turns them
into a polar-area cost with moment constraints, and minimizes it with four
interchangeable seeded metaheuristics (PSO, ABC, BGA, HGAPSO).  A benchmark
harness reproduces the multi-seed experiment protocol; the ``shakebal``
CLI fronts all of it.
"""

from .bench import ExperimentPlan, ResultRow, SummaryRow, run_plan, summarize
from .mechanism import (
    DecisionVector,
    MechanismConfig,
    profile_arrays,
    theta_grid,
)
from .objective import (
    CostBreakdown,
    ObjectiveSpec,
    calibrate_bounds,
    default_search_bounds,
    evaluate,
    make_objective,
    polar_area,
)
from .optimizers import (
    AbcParams,
    BgaParams,
    Bounds,
    HgapsoParams,
    NonFiniteObjectiveError,
    PsoParams,
    RunResult,
    optimize_abc,
    optimize_bga,
    optimize_hgapso,
    optimize_pso,
)

__version__ = "0.1.0"
