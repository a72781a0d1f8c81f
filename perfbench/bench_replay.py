"""Traced replay of ``shakebal bench``: the same public calls cmd_bench
makes, in the same order, each inside a span.

    PYTHONPATH=src python3 perfbench/bench_replay.py CONFIG OUT_DIR JOBS SPANS_PATH

Worker processes cannot reach this process's tracer, so the optimizer
functions are wrapped before the pool starts: each run times its objective
callback and carries the busy seconds back on the pickled RunResult as
``objective_busy_s``.  The wrap reaches the workers only under the ``fork``
start method (the Linux default before Python 3.14); elsewhere the value is
missing and the benchmark reports no objective split for the campaign.
Each finished run is then recorded as a child span of ``bench.run_plan``.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer  # noqa: E402

tracer = Tracer()
with tracer.span("config.import"):
    from shakebal import bench as bench_mod
    from shakebal import optimizers
    from shakebal.config import optimizer_params_map, parse_config


def _timed_optimizer(fn):
    def run(objective, bounds, params, seed):
        busy = 0.0

        def timed(x):
            nonlocal busy
            t0 = time.perf_counter()
            try:
                return objective(x)
            finally:
                busy += time.perf_counter() - t0

        result = fn(timed, bounds, params, seed)
        result.objective_busy_s = busy
        return result

    return run


def main(config_path: str, out_dir: str, jobs: int, spans_path: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with tracer.span("config.parse"):
        config = parse_config(config_path)
    for name, fn in list(optimizers.OPTIMIZERS.items()):
        optimizers.OPTIMIZERS[name] = _timed_optimizer(fn)
    plan = bench_mod.ExperimentPlan(
        algorithms=config.bench.algorithms,
        iteration_budgets=config.bench.iteration_budgets,
        repeats=config.bench.repeats,
        base_seed=config.bench.base_seed,
        mechanism=config.mechanism,
        objective=config.objective,
        optimizer_params=optimizer_params_map(config),
    )
    with tracer.span("bench.run_plan", jobs=jobs) as run_span:
        rows = bench_mod.run_plan(plan, jobs=jobs)
    with tracer.span("bench.write_results"):
        bench_mod.write_results(rows, out / "results.csv")
    with tracer.span("bench.summarize"):
        summary = bench_mod.summarize(rows)
    with tracer.span("bench.write_summary"):
        bench_mod.write_summary(summary, out / "summary.csv")
    with tracer.span("bench.emit_convergence"):
        bench_mod.emit_convergence(rows, out / "convergence.csv")
    with tracer.span("bench.emit_runtime_growth"):
        bench_mod.emit_runtime_growth(rows, out / "runtime.csv")
    for row in rows:
        if row.result is None:
            continue
        tracer.spans.append(
            {
                "id": len(tracer.spans),
                "name": f"optimizers.{row.algorithm}",
                "parent": run_span["id"],
                "start": None,
                "end": None,
                "count": 1,
                "busy": row.result.wall_time,
                "budget": row.budget,
                "seed": row.seed,
                "evals": row.result.evaluations,
                "objective_busy_s": getattr(row.result, "objective_busy_s", None),
                "iter_s": [float(t) for t in row.result.time_trace],
            }
        )
    tracer.write(spans_path)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
