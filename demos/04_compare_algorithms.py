"""A reduced benchmark campaign comparing the four algorithms.

Five seeded repeats per algorithm at one budget, summarized like the
full harness does (average / best / worst of cost and wall time).  The
full protocol is `shakebal bench`.
"""

from shakebal import ExperimentPlan, MechanismConfig, ObjectiveSpec, run_plan, summarize
from shakebal.optimizers import AbcParams, BgaParams, HgapsoParams, PsoParams

# under the spawn and forkserver start methods each worker imports this
# script again; the guard keeps the worker from running the plan itself
if __name__ == "__main__":
    plan = ExperimentPlan(
        algorithms=("pso", "abc", "bga", "hgapso"),
        iteration_budgets=(100,),
        repeats=5,
        base_seed=1,
        mechanism=MechanismConfig(),
        objective=ObjectiveSpec(),
        optimizer_params={
            "pso": PsoParams(population=30),
            "abc": AbcParams(food_sources=15),
            "bga": BgaParams(population=30),
            "hgapso": HgapsoParams(population=30),
        },
    )

    rows = run_plan(plan, jobs=2)
    print(f"{len(rows)} runs finished\n")
    print(f"{'algorithm':<10} {'budget':>6} {'avg cost':>12} {'best':>12} {'worst':>12}")
    for s in summarize(rows):
        if s.metric == "cost":
            print(f"{s.algorithm:<10} {s.budget:>6} {s.average:>12.4f} {s.best:>12.4f} {s.worst:>12.4f}")

    print(f"\n{'algorithm':<10} {'budget':>6} {'avg s':>9} {'best s':>9} {'worst s':>9}")
    for s in summarize(rows):
        if s.metric == "wall_time_s":
            print(f"{s.algorithm:<10} {s.budget:>6} {s.average:>9.2f} {s.best:>9.2f} {s.worst:>9.2f}")
