"""Command-line front end.

    shakebal balance   one optimization run, prints the solution, writes
                       convergence.csv and polar.csv
    shakebal calibrate recommend constraint bounds from random sampling
    shakebal bench     full benchmark campaign (results/summary/convergence/
                       runtime CSVs)
    shakebal profile   polar cost profiles for named solutions from a CSV

Flags override config-file values, which override built-in defaults.
Output files are only overwritten with --force.  Exit codes: 0 success,
1 usage/config error, 2 run failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import bench as bench_mod
from .config import AppConfig, ConfigError, named_key, optimizer_params_map, parse_config, read_assignments
from .mechanism import DecisionVector, MechanismConfig, require_grid_size
from .objective import ObjectiveSpec, calibrate_bounds, require_finite_cost
from .optimizers import ALGORITHM_NAMES
from .optimizers.common import require_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2


class CliError(Exception):
    """Usage/config-level failure (exit code 1)."""


@contextmanager
def _flags(**flags: str):
    """Report a library ValueError on a flag's value as a usage error;
    ``flags`` maps each library parameter to its flag, and the parameter
    is picked by ``named_key``, as a config file's key is."""
    try:
        yield
    except ValueError as exc:
        name = named_key(str(exc), flags)
        if name is None:
            raise
        raise CliError(f"{flags[name]}: {exc}") from None


def _load_config(path: str | None) -> AppConfig:
    if path is None:
        return AppConfig()
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    return parse_config(path)


def _prepare_outputs(out_dir: str, names: list[str], force: bool) -> dict[str, Path]:
    """Create the output directory and refuse to clobber existing files
    unless --force was given."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"--out: cannot create directory {out_dir}: {exc.strerror}") from None
    targets = {name: out / name for name in names}
    if not force:
        existing = [str(p) for p in targets.values() if p.exists()]
        if existing:
            raise CliError(
                "refusing to overwrite existing output (use --force): " + ", ".join(existing)
            )
    return targets


def _plan(config: AppConfig, **settings) -> bench_mod.ExperimentPlan:
    """A campaign over the config's mechanism, objective and optimizers.

    The default constraint bounds were calibrated on the default
    mechanism, so a one-line notice on stderr names each bound that a
    config with another mechanism leaves at its default.
    """
    defaults = ObjectiveSpec()
    borrowed = [
        f"objective.{key}" for key in ("c1_max", "c2_max")
        if getattr(config.objective, key) == getattr(defaults, key)
    ]
    if borrowed and config.mechanism != MechanismConfig():
        print(
            f"note: default bounds on a non-default mechanism: {', '.join(borrowed)}"
            " (calibrated on the default mechanism; `shakebal calibrate` recommends"
            " bounds for this one)",
            file=sys.stderr,
        )
    return bench_mod.ExperimentPlan(
        **settings, mechanism=config.mechanism, objective=config.objective,
        optimizer_params=optimizer_params_map(config),
    )


def cmd_balance(args) -> int:
    """One run of the campaign's run path: a plan of one (algorithm,
    budget, seed) cell."""
    config = _load_config(args.config)
    with _flags(iterations="--iters", seed="--seed"):
        params = optimizer_params_map(config)[args.algo]
        if args.iters is not None:
            params = dataclasses.replace(params, iterations=args.iters)
        require_seed(args.seed)
    targets = _prepare_outputs(args.out, ["convergence.csv", "polar.csv"], args.force)

    plan = _plan(
        config, algorithms=(args.algo,), iteration_budgets=(params.iterations,), repeats=1,
        base_seed=args.seed,
    )
    [row] = bench_mod.run_plan(plan)
    if row.status != "ok":
        print(f"error: run aborted: {row.error}", file=sys.stderr)
        return EXIT_RUN_FAILURE

    print(f"{'algorithm':<12} {row.algorithm}")
    print(f"{'seed':<12} {row.seed}")
    print(f"{'iterations':<12} {row.budget}")
    for name in bench_mod.RESULTS_HEADER[4:12]:  # m1 .. total_cost
        print(f"{name:<12} {getattr(row, name):.10g}")

    bench_mod.emit_convergence([row], targets["convergence.csv"])
    bench_mod.emit_polar(
        config.mechanism,
        [(args.algo, DecisionVector.from_array(row.result.best_x))],
        config.objective.n_samples,
        targets["polar.csv"],
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    if args.write_config and os.path.exists(args.write_config):
        raise CliError(f"refusing to overwrite existing output: {args.write_config}")
    if args.write_config and not Path(args.write_config).parent.is_dir():
        raise CliError(f"--write-config: no such directory: {Path(args.write_config).parent}")
    with _flags(n_random="--samples", fraction="--fraction", seed="--seed"):
        c1_max, c2_max = calibrate_bounds(
            config.mechanism,
            config.objective.bounds,
            n_random=args.samples,
            fraction=args.fraction,
            seed=args.seed,
        )
    try:  # the loader's checks of the pair: a bound it would refuse is not recommended
        spec = dataclasses.replace(config.objective, c1_max=c1_max, c2_max=c2_max)
        require_finite_cost(config.mechanism, spec)
    except ValueError as exc:
        raise CliError(f"the recommended bounds would not load: {exc}") from None
    print(f"c1_max       {c1_max!r}")
    print(f"c2_max       {c2_max!r}")
    if args.write_config:
        lines: list[str] = []
        if args.config:
            dropped = {
                line for (section, key), (_, line) in read_assignments(args.config).items()
                if section == "objective" and key in ("c1_max", "c2_max")
            }
            with open(args.config, encoding="utf-8-sig") as fh:
                lines = [raw.rstrip("\n") for line, raw in enumerate(fh, start=1) if line not in dropped]
        lines.append(f"objective.c1_max = {c1_max!r}")
        lines.append(f"objective.c2_max = {c2_max!r}")
        Path(args.write_config).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote        {args.write_config}")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    with _flags(jobs="--jobs"):
        bench_mod.require_jobs(args.jobs)
    targets = _prepare_outputs(
        args.out,
        ["results.csv", "summary.csv", "convergence.csv", "runtime.csv"],
        args.force,
    )
    rows = bench_mod.run_plan(_plan(config, **vars(config.bench)), jobs=args.jobs)
    bench_mod.write_results(rows, targets["results.csv"])
    bench_mod.write_summary(bench_mod.summarize(rows), targets["summary.csv"])
    bench_mod.emit_convergence(rows, targets["convergence.csv"])
    bench_mod.emit_runtime_growth(rows, targets["runtime.csv"])

    failed = [r for r in rows if r.status != "ok"]
    print(f"completed {len(rows) - len(failed)}/{len(rows)} runs -> {args.out}")
    for r in failed:
        print(
            f"warning: {r.algorithm}@{r.budget} experiment {r.experiment} (seed {r.seed}) "
            f"failed: {r.error}",
            file=sys.stderr,
        )
    return EXIT_OK if len(failed) < len(rows) else EXIT_RUN_FAILURE


def _read_solutions(path: str) -> list[tuple[str, DecisionVector]]:
    """Named decision vectors from a CSV with header name,m1,m2,phi1,phi2.  A
    name heads a polar.csv column: it must be unique, non-empty, not "unbalanced"."""
    if not os.path.exists(path):
        raise CliError(f"solutions file not found: {path}")
    out: list[tuple[str, DecisionVector]] = []
    faults = {"": "is empty", "unbalanced": "is reserved for the unbalanced profile"}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["name", "m1", "m2", "phi1", "phi2"]:
            raise CliError(f"{path}: expected header 'name,m1,m2,phi1,phi2', got {header}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec or not "".join(rec).strip():
                continue
            try:
                if len(rec) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(rec)}")
                values = [float(v) for v in rec[1:]]
                # checked as written: DecisionVector wraps an infinite angle to nan
                for f, value in zip(dataclasses.fields(DecisionVector), values):
                    if not math.isfinite(value):
                        raise ValueError(f"{f.name} must be finite (got {value})")
                dv = DecisionVector(*values)
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: bad solution row {rec} ({exc})") from None
            name = rec[0].strip()
            if name in faults:
                raise CliError(f"{path}:{lineno}: solution name {name!r} {faults[name]}")
            faults[name] = f"repeats line {lineno}"
            out.append((name, dv))
    return out


def cmd_profile(args) -> int:
    config = _load_config(args.config)
    with _flags(n_samples="--samples"):
        require_grid_size(args.samples)
    solutions = _read_solutions(args.solutions)
    targets = _prepare_outputs(args.out, ["polar.csv"], args.force)
    bench_mod.emit_polar(config.mechanism, solutions, args.samples, targets["polar.csv"])
    print(f"wrote {targets['polar.csv']}")
    return EXIT_OK


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, which a cpuset
    narrows), where the platform tells, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shakebal",
        description="Counterweight balancing of a double crank-slider mechanism "
        "with four metaheuristics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, writes_files):
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.add_argument("--config", default=None, help="config file (section.key = value lines)")
        if writes_files:
            p.add_argument("--out", default="out", help="output directory")
            p.add_argument("--force", action="store_true", help="overwrite existing output files")
        p.set_defaults(func=func)
        return p

    p = add("balance", cmd_balance, "run one balancing optimization", writes_files=True)
    p.add_argument("--algo", choices=ALGORITHM_NAMES, default="pso", help="optimizer")
    p.add_argument("--iters", type=int, default=None, help="iteration budget (default: from config)")
    p.add_argument("--seed", type=int, default=1, help="random seed")

    p = add("calibrate", cmd_calibrate, "recommend c1_max/c2_max from random sampling",
              writes_files=False)
    p.add_argument("--samples", type=int, default=10000, help="number of random decision vectors")
    p.add_argument("--fraction", type=float, default=0.5, help="fraction of the observed maxima")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument(
        "--write-config", default=None, metavar="PATH",
        help="write a config copy with the recommended bounds filled in",
    )

    p = add("bench", cmd_bench, "run the full benchmark campaign", writes_files=True)
    p.add_argument("--jobs", type=int, default=usable_cpus(), help="parallel workers, one per usable CPU unless given")

    p = add("profile", cmd_profile, "polar cost profiles for named solutions", writes_files=True)
    p.add_argument("--solutions", required=True, help="CSV of solutions (name,m1,m2,phi1,phi2)")
    p.add_argument("--samples", type=int, default=360, help="theta grid resolution")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (CliError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
