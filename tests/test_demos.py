"""The demos run end to end as published."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, cwd, *paths):
    """Run one demo in a subprocess from ``cwd``, so files it writes stay
    there, with ``paths`` ahead of the sources on its PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, paths), str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize(
    "name",
    ["01_profiles.py", "02_cost_landscape.py", "04_compare_algorithms.py", "05_polar_profile.py"],
)
def test_demo_completes(tmp_path, name):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demo_03_balance_one_run_completes(tmp_path):
    proc = run_demo("03_balance_one_run.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "pso, seed 1, 300 iterations, 15050 evaluations" in proc.stdout
    assert "iter  300" in proc.stdout


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_demo_04_compares_every_algorithm_under_every_start_method(tmp_path, method):
    # a sitecustomize sets the start method before the demo runs, so that
    # each worker imports the demo file itself, as it would a user's script
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        f"import multiprocessing\nmultiprocessing.set_start_method({method!r}, force=True)\n"
    )
    proc = run_demo("04_compare_algorithms.py", tmp_path, site)
    assert proc.returncode == 0, proc.stderr
    finished, costs, times = proc.stdout.rstrip("\n").split("\n\n")
    assert finished == "20 runs finished"
    for table in (costs, times):
        assert [line.split()[0] for line in table.splitlines()[1:]] == ["pso", "abc", "bga", "hgapso"]
