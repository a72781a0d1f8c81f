"""Layer timings of shakebal, from one cost call up to a whole campaign.

    python tools/layers.py --out BENCH_<N>.json [--repeats 3] NAME=SRC ...

Each NAME=SRC names a source tree: SRC is the directory that holds the
``shakebal`` package (``src`` in a checkout).  A round times, in a child
process that imports shakebal from SRC:

- one scalar cost call on the default problem (``scalar_us``);
- one ``batch`` call at 1, 25, 50 and 100 rows (``batch_ms``);
- each algorithm's 300-iteration run on the default problem, per seed,
  at R = 1, 2 and 10 seeds (``run_s``), the R seeds in lockstep
  (``optimizers.lockstep``), and the share of that run's wall time spent
  in the objective (``objective_share``);

and then ``shakebal bench`` on the default config, at ``--jobs 1`` and
``--jobs 2`` (``bench_s``), each in its own process.  The trees are
interleaved per layer: each round runs the child of every tree, then
``--jobs 1`` for every tree, then ``--jobs 2``, and the tree that goes
first alternates from round to round, so that a slow spell of the host
falls on all of them.  Every figure written is the median over the
rounds, with the samples beside it, and the file records the host:
nproc, Python and numpy.
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
SEEDS = (1, 2, 10)
ITERATIONS = 300
SCALAR_CALLS = 2000
BATCH_CALLS = 100


class Timed:
    """An objective, with the seconds spent in its calls and batches summed."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, x):
        start = time.perf_counter()
        value = self.fn(x)
        self.seconds += time.perf_counter() - start
        return value

    def batch(self, X):
        start = time.perf_counter()
        values = self.fn.batch(X)
        self.seconds += time.perf_counter() - start
        return values


def child(src: str, round_index: int) -> dict:
    """One round of the in-process layers, imported from ``src``."""
    sys.path.insert(0, src)
    import dataclasses

    import numpy as np

    from shakebal import optimizers
    from shakebal.bench import default_optimizer_params
    from shakebal.mechanism import MechanismConfig
    from shakebal.objective import ObjectiveSpec, make_objective

    cfg, spec = MechanismConfig(), ObjectiveSpec()
    objective = make_objective(cfg, spec)
    rng = np.random.default_rng(round_index)
    points = spec.bounds.lerp(rng.random((SCALAR_CALLS, 4)))
    out = {}

    start = time.perf_counter()
    for x in points:
        objective(x)
    out["scalar_us"] = 1e6 * (time.perf_counter() - start) / SCALAR_CALLS

    out["batch_ms"] = {}
    for rows in BATCH_ROWS:
        X = points[:rows]
        start = time.perf_counter()
        for _ in range(BATCH_CALLS):
            objective.batch(X)
        out["batch_ms"][str(rows)] = 1e3 * (time.perf_counter() - start) / BATCH_CALLS

    out["run_s"], out["objective_share"] = {}, {}
    for name, params in default_optimizer_params().items():
        params = dataclasses.replace(params, iterations=ITERATIONS)
        out["run_s"][name], out["objective_share"][name] = {}, {}
        steps = optimizers.STEPS[name]
        for count in SEEDS:
            seeds = [round_index * 100 + s for s in range(count)]
            timed = Timed(objective)
            start = time.perf_counter()
            optimizers.lockstep(timed, [lambda t, s=s: steps(t, spec.bounds, params, s) for s in seeds])
            wall = time.perf_counter() - start
            out["run_s"][name][str(count)] = wall / count
            out["objective_share"][name][str(count)] = timed.seconds / wall
    return out


def run_child(src: str, round_index: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src, "--round", str(round_index)],
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
    parser.add_argument("--round", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.round)))
        return
    if not args.out or not args.trees or args.repeats < 1:
        parser.error("give --out, at least one NAME=SRC and --repeats >= 1")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    trees = {name: os.path.abspath(src) for name, src in trees.items()}
    rounds = {name: [] for name in trees}
    for k in range(args.repeats):
        # each layer for every tree in turn; alternate which tree goes first
        order = list(trees) if k % 2 == 0 else list(reversed(trees))
        layers = {name: run_child(trees[name], k + 1) for name in order}
        for jobs in (1, 2):
            for name in order:
                layers[name].setdefault("bench_s", {})[str(jobs)] = bench_seconds(trees[name], jobs)
        for name in trees:
            rounds[name].append(layers[name])
            print(f"round {k + 1}/{args.repeats} {name}: bench {layers[name]['bench_s']}", file=sys.stderr)
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
