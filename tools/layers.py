"""Layer timings of shakebal, from one cost call up to a whole campaign.

    python tools/layers.py --out BENCH_<N>.json [--repeats 3] NAME=SRC ...

Each NAME=SRC names a source tree: SRC is the directory that holds the
``shakebal`` package (``src`` in a checkout).  The sub-layers are:

- one scalar cost call on the default problem (``scalar_us``), and one
  with m_c = m_p = 0 (``scalar_line_us``), the mechanism that perfbench's
  sweep shares, where every point takes the cost's line cut;
- one ``batch`` call at 1, 25, 50, 100, 300 and 1500 rows (``batch_ms``);
  a lockstep round of perfbench's campaign scores 200-300 rows, and one
  of the default ``shakebal bench --jobs 2`` about 1500;
- each algorithm's 300-iteration run on the default problem, per seed,
  at R = 1, 2 and 10 seeds (``run_s``), the R seeds in lockstep
  (``optimizers.lockstep``), the share of that run's wall time spent
  in the objective (``objective_share``), and the number of ``batch``
  calls the R seeds made (``rounds``), an exact count that repeats from
  round to round;
- ``shakebal bench`` on the default config, at ``--jobs 1`` and
  ``--jobs 2`` (``bench_s``).

Every tree is imported once into this process, as a package of its own
(``load``), and the trees take turns so that a slow spell of the host
falls on all of them alike: one cost call each at a time, TURN_ROUNDS
scoring rounds of a run each at a time (``take_turns``), and each bench
once per round.  The tree that goes first alternates from one call, run
or bench to the next, and from one round to the next.  Only ``shakebal
bench`` runs in a child process.
Every figure written is the median over the rounds, with the samples
beside it, and the file records the host: nproc, Python and numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

BATCH_ROWS = (1, 25, 50, 100, 300, 1500)
ALGORITHMS = ("pso", "abc", "bga", "hgapso")
SEEDS = (1, 2, 10)
ITERATIONS = 300
SCALAR_CALLS = 2000  # per tree and round
BATCH_CALLS = 400  # per tree, round and row count
TURN_ROUNDS = 2  # scoring rounds of one tree's run per turn
WARM_UP_ITERATIONS = 5  # of an untimed run per tree before the timed ones


class Timed:
    """An objective, with the seconds spent in its calls and batches summed
    and its batches counted; ``pause`` is called before every TURN_ROUNDS-th
    batch."""

    def __init__(self, fn, pause):
        self.fn = fn
        self.pause = pause
        self.seconds = 0.0
        self.rounds = 0

    def __call__(self, x):
        start = time.perf_counter()
        value = self.fn(x)
        self.seconds += time.perf_counter() - start
        return value

    def batch(self, X):
        self.rounds += 1
        if self.rounds % TURN_ROUNDS == 0:
            self.pause()
        start = time.perf_counter()
        values = self.fn.batch(X)
        self.seconds += time.perf_counter() - start
        return values


def load(package: str, src: str):
    """The ``shakebal`` package of ``src``, imported as ``package``, so that
    trees with the same module names live side by side in one process."""
    root = os.path.join(src, "shakebal")
    spec = importlib.util.spec_from_file_location(
        package, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return module


def in_turn(names: list, turn: int) -> list:
    """``names`` in order on even turns and reversed on odd ones."""
    return names if turn % 2 == 0 else names[::-1]


def cost_layers(trees: dict, round_index: int) -> dict:
    """Each tree's ``scalar_us``, ``scalar_line_us`` and ``batch_ms`` on
    its default problem, the trees taking turns call by call."""
    unit = np.random.default_rng(round_index).random((SCALAR_CALLS, 4))
    names, problems, scalars = list(trees), {}, {}
    seconds = {name: dict.fromkeys(("scalar", "scalar_line", *BATCH_ROWS), 0.0) for name in names}
    for name, shakebal in trees.items():
        spec = shakebal.objective.ObjectiveSpec()
        MechanismConfig = shakebal.mechanism.MechanismConfig
        objective = shakebal.objective.make_objective(MechanismConfig(), spec)
        line = shakebal.objective.make_objective(MechanismConfig(m_c=0.0, m_p=0.0), spec)
        points = spec.bounds.lerp(unit)
        objective(points[0])
        line(points[0])
        for rows in BATCH_ROWS:
            objective.batch(points[:rows])
        problems[name] = objective, points
        scalars[name] = {"scalar": objective, "scalar_line": line}
    for i in range(SCALAR_CALLS):
        for key in ("scalar", "scalar_line"):
            for name in in_turn(names, i):
                fn, x = scalars[name][key], problems[name][1][i]
                start = time.perf_counter()
                fn(x)
                seconds[name][key] += time.perf_counter() - start
    for i in range(BATCH_CALLS):
        for rows in BATCH_ROWS:
            for name in in_turn(names, i):
                objective, points = problems[name]
                X = points[:rows]
                start = time.perf_counter()
                objective.batch(X)
                seconds[name][rows] += time.perf_counter() - start
    return {
        name: {
            "scalar_us": 1e6 * s["scalar"] / SCALAR_CALLS,
            "scalar_line_us": 1e6 * s["scalar_line"] / SCALAR_CALLS,
            "batch_ms": {str(rows): 1e3 * s[rows] / BATCH_CALLS for rows in BATCH_ROWS},
        }
        for name, s in seconds.items()
    }


def take_turns(jobs: dict) -> dict:
    """Run each job, a callable of one argument ``pause``, in a thread of
    its own, one job at a time: the running job calls ``pause()`` to hand
    over to the next unfinished job, in the order of ``jobs``, and goes on
    when its turn comes back.  Returns, per job, (the seconds of its own
    turns, its return value or the exception that ended it).

    Where the OS lets a thread choose its CPUs, every job thread runs on
    the same one, so that no job gains or loses by the CPU it wakes on."""
    names = list(jobs)
    cpu = {min(os.sched_getaffinity(0))} if hasattr(os, "sched_setaffinity") else None
    turn = threading.Condition()
    live, current = list(names), [names[0]]
    seconds = dict.fromkeys(names, 0.0)
    outcomes = {}

    def hand_over(name: str, finished: bool = False) -> None:
        with turn:
            following = live[(live.index(name) + 1) % len(live)]
            if finished:
                live.remove(name)
            current[0] = following if live else None
            turn.notify_all()

    def wait(name: str) -> float:
        with turn:
            turn.wait_for(lambda: current[0] == name)
        return time.perf_counter()

    def run(name: str) -> None:
        if cpu is not None:
            os.sched_setaffinity(0, cpu)
        started = [wait(name)]

        def pause() -> None:
            seconds[name] += time.perf_counter() - started[0]
            hand_over(name)
            started[0] = wait(name)

        try:
            outcomes[name] = jobs[name](pause)
        except Exception as exc:
            outcomes[name] = exc
        finally:
            seconds[name] += time.perf_counter() - started[0]
            hand_over(name, finished=True)

    threads = [threading.Thread(target=run, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {name: (seconds[name], outcomes[name]) for name in names}


def lockstep_job(shakebal, name: str, count: int, round_index: int) -> tuple:
    """(the job, an untimed warm-up) of ``count`` seeds of algorithm
    ``name`` in lockstep in one tree, 300 iterations each.  The job takes
    the ``pause`` of ``take_turns`` and returns its Timed objective."""
    spec = shakebal.objective.ObjectiveSpec()
    objective = shakebal.objective.make_objective(shakebal.mechanism.MechanismConfig(), spec)
    params = dataclasses.replace(shakebal.bench.default_optimizer_params()[name], iterations=ITERATIONS)
    short = dataclasses.replace(params, iterations=WARM_UP_ITERATIONS)
    steps = shakebal.optimizers.STEPS[name]
    seeds = [round_index * 100 + s for s in range(count)]

    def job(pause) -> Timed:
        timed = Timed(objective, pause)
        shakebal.optimizers.lockstep(timed, [lambda t, s=s: steps(t, spec.bounds, params, s) for s in seeds])
        return timed

    def warm_up() -> None:
        shakebal.optimizers.lockstep(objective, [lambda t: steps(t, spec.bounds, short, 0)])

    return job, warm_up


def run_layer(trees: dict, name: str, count: int, round_index: int) -> dict:
    """Per tree, (seconds per seed, objective share, batch calls) of
    ``lockstep_job``; the trees' jobs take turns of TURN_ROUNDS scoring
    rounds, in the order of ``trees``, after the warm-ups and with cyclic
    garbage collection off."""
    made = {tree: lockstep_job(shakebal, name, count, round_index) for tree, shakebal in trees.items()}
    # a first run pays for what the process warms up, and a cyclic
    # collection falls on whichever tree runs at the time
    gc.collect()
    for _, warm_up in made.values():
        warm_up()
    gc.disable()
    try:
        turns = take_turns({tree: job for tree, (job, _) in made.items()})
    finally:
        gc.enable()
    figures = {}
    for tree, (seconds, timed) in turns.items():
        if isinstance(timed, Exception):
            raise timed
        figures[tree] = seconds / count, timed.seconds / seconds, timed.rounds
    return figures


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
    args = parser.parse_args()
    if not args.out or not args.trees or args.repeats < 1:
        parser.error("give --out, at least one NAME=SRC and --repeats >= 1")
    srcs = {}
    for tree in args.trees:
        name, sep, src = tree.partition("=")
        if not sep:
            parser.error(f"expected NAME=SRC, got {tree!r}")
        if name in srcs:
            parser.error(f"tree name {name!r} is given twice")
        srcs[name] = os.path.abspath(src)
    trees = {name: load(f"_layers_tree{i}", src) for i, (name, src) in enumerate(srcs.items())}
    rounds = {name: [] for name in trees}
    for k in range(1, args.repeats + 1):
        records = cost_layers(trees, k)
        for turn, (algo, count) in enumerate(itertools.product(ALGORITHMS, SEEDS), start=k):
            order = {name: trees[name] for name in in_turn(list(trees), turn)}
            for name, figures in run_layer(order, algo, count, k).items():
                for key, value in zip(("run_s", "objective_share", "rounds"), figures):
                    records[name].setdefault(key, {}).setdefault(algo, {})[str(count)] = value
        for turn, jobs in enumerate((1, 2), start=k):
            for name in in_turn(list(trees), turn):
                records[name].setdefault("bench_s", {})[str(jobs)] = bench_seconds(srcs[name], jobs)
        for name in trees:
            rounds[name].append(records[name])
            print(f"round {k}/{args.repeats} {name}: bench {records[name]['bench_s']}", file=sys.stderr)

    record = {
        "host": {
            # the CPUs this process may use, which ``shakebal bench`` defaults --jobs to
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
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
