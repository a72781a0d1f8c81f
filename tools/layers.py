"""Layer timings of shakebal, from one cost call up to a whole campaign.

    python tools/layers.py --out BENCH_<N>.json [--repeats 3] NAME=SRC ...

Each NAME=SRC names a source tree: SRC is the directory that holds the
``shakebal`` package (``src`` in a checkout).  The sub-layers are:

- one scalar cost call on the default problem (``scalar_us``);
- one ``batch`` call at 1, 25, 50 and 100 rows (``batch_ms``);
- each algorithm's 300-iteration run on the default problem, per seed,
  at R = 1, 2 and 10 seeds (``run_s``), the R seeds in lockstep
  (``optimizers.lockstep``), the share of that run's wall time spent
  in the objective (``objective_share``), and the number of ``batch``
  calls the R seeds made (``rounds``), an exact count that repeats from
  round to round;
- ``shakebal bench`` on the default config, at ``--jobs 1`` and
  ``--jobs 2`` (``bench_s``).

Each sub-layer runs in a short child process of its own, which imports
shakebal from SRC, once per tree and round, and the tree that goes first
alternates from one sub-layer to the next, so that a slow spell of the
host falls on every tree alike.  Every figure
written is the median over the rounds, with the samples beside it, and
the file records the host: nproc, Python and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BATCH_ROWS = (1, 25, 50, 100)
ALGORITHMS = ("pso", "abc", "bga", "hgapso")
SEEDS = (1, 2, 10)
ITERATIONS = 300
SCALAR_CALLS = 2000
BATCH_CALLS = 100
LAYERS = (
    ["scalar"]
    + [f"batch {rows}" for rows in BATCH_ROWS]
    + [f"run {name} {count}" for name in ALGORITHMS for count in SEEDS]
    + [f"bench {jobs}" for jobs in (1, 2)]
)


class Timed:
    """An objective, with the seconds spent in its calls and batches summed
    and its batches counted."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0
        self.rounds = 0

    def __call__(self, x):
        start = time.perf_counter()
        value = self.fn(x)
        self.seconds += time.perf_counter() - start
        return value

    def batch(self, X):
        self.rounds += 1
        start = time.perf_counter()
        values = self.fn.batch(X)
        self.seconds += time.perf_counter() - start
        return values


def child(src: str, layer: str, round_index: int) -> dict:
    """One in-process sub-layer, imported from ``src``: its figures, as a
    fragment of the tree's record."""
    sys.path.insert(0, src)
    import dataclasses

    import numpy as np

    from shakebal import optimizers
    from shakebal.bench import default_optimizer_params
    from shakebal.mechanism import MechanismConfig
    from shakebal.objective import ObjectiveSpec, make_objective

    spec = ObjectiveSpec()
    objective = make_objective(MechanismConfig(), spec)
    rng = np.random.default_rng(round_index)
    points = spec.bounds.lerp(rng.random((SCALAR_CALLS, 4)))
    kind, *args = layer.split()

    if kind == "scalar":
        objective(points[0])
        start = time.perf_counter()
        for x in points:
            objective(x)
        return {"scalar_us": 1e6 * (time.perf_counter() - start) / SCALAR_CALLS}

    if kind == "batch":
        X = points[:int(args[0])]
        objective.batch(X)
        start = time.perf_counter()
        for _ in range(BATCH_CALLS):
            objective.batch(X)
        return {"batch_ms": {args[0]: 1e3 * (time.perf_counter() - start) / BATCH_CALLS}}

    name, count = args[0], int(args[1])
    params = dataclasses.replace(default_optimizer_params()[name], iterations=ITERATIONS)
    steps = optimizers.STEPS[name]
    seeds = [round_index * 100 + s for s in range(count)]
    timed = Timed(objective)
    start = time.perf_counter()
    optimizers.lockstep(timed, [lambda t, s=s: steps(t, spec.bounds, params, s) for s in seeds])
    wall = time.perf_counter() - start
    return {
        "run_s": {name: {args[1]: wall / count}},
        "objective_share": {name: {args[1]: timed.seconds / wall}},
        "rounds": {name: {args[1]: timed.rounds}},
    }


def measure(src: str, layer: str, round_index: int) -> dict:
    """The figures of one sub-layer of the tree ``src``, from a process of
    its own."""
    kind, *args = layer.split()
    if kind == "bench":
        return {"bench_s": {args[0]: bench_seconds(src, int(args[0]))}}
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src, "--layer", layer, "--round", str(round_index)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def bench_seconds(src: str, jobs: int) -> float:
    """Wall seconds of ``shakebal bench --jobs JOBS`` on the default config."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "shakebal", "bench", "--out", out, "--jobs", str(jobs)],
            check=True, capture_output=True, env=env,
        )
        return time.perf_counter() - start


def merge(record: dict, fragment: dict) -> None:
    """Add a sub-layer's figures to a tree's record of one round."""
    for key, value in fragment.items():
        if isinstance(value, dict):
            merge(record.setdefault(key, {}), value)
        else:
            record[key] = value


def medians(samples: list):
    """The median of each leaf across a list of equally shaped dicts."""
    if isinstance(samples[0], dict):
        return {key: medians([s[key] for s in samples]) for key in samples[0]}
    return {"median": statistics.median(samples), "samples": samples}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="NAME=SRC")
    parser.add_argument("--out", help="the JSON file to write (required)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--layer", help=argparse.SUPPRESS)
    parser.add_argument("--round", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.layer, args.round)))
        return
    if not args.out or not args.trees or args.repeats < 1:
        parser.error("give --out, at least one NAME=SRC and --repeats >= 1")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    trees = {name: os.path.abspath(src) for name, src in trees.items()}
    rounds = {name: [] for name in trees}
    turn = 0
    for k in range(args.repeats):
        records = {name: {} for name in trees}
        for layer in LAYERS:
            # every tree in turn; alternate which tree goes first
            for name in list(trees) if turn % 2 == 0 else list(reversed(trees)):
                merge(records[name], measure(trees[name], layer, k + 1))
            turn += 1
        for name in trees:
            rounds[name].append(records[name])
            print(f"round {k + 1}/{args.repeats} {name}: bench {records[name]['bench_s']}", file=sys.stderr)
    import numpy

    record = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "repeats": args.repeats,
        "trees": {name: medians(samples) for name, samples in rounds.items()},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
