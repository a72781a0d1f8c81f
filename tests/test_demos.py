"""The demos run end to end as published."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, cwd):
    """Run one demo in a subprocess from ``cwd``, so files it writes stay there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
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
