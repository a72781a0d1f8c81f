"""The layer script's loader: two source trees side by side in one process."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import shakebal

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("layers_tool", ROOT / "tools" / "layers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def packages():
    """Two package names, and their modules dropped from sys.modules after
    the test."""
    yield "_tree_a", "_tree_b"
    for name in [name for name in sys.modules if name.split(".")[0] in ("_tree_a", "_tree_b")]:
        del sys.modules[name]


def test_one_tree_loads_as_two_separate_packages(packages):
    src = str(Path(shakebal.__file__).parents[1])
    tool = load_tool()
    a, b = (tool.load(package, src) for package in packages)

    assert (a.__name__, b.__name__) == packages
    assert a.optimizers is not b.optimizers
    assert a.optimizers is sys.modules["_tree_a.optimizers"]
    assert b.optimizers is sys.modules["_tree_b.optimizers"]
    assert sys.modules["shakebal"] is shakebal

    x = np.array([3.0, 4.0, 1.0, 2.0])
    costs = [
        tree.objective.make_objective(tree.mechanism.MechanismConfig(), tree.objective.ObjectiveSpec())(x)
        for tree in (a, b, shakebal)
    ]
    assert len({float(cost).hex() for cost in costs}) == 1


@pytest.mark.parametrize(
    "trees, error",
    [(["src"], "expected NAME=SRC, got 'src'"), (["a=src", "a=src"], "tree name 'a' is given twice")],
)
def test_a_bad_tree_argument_exits_2_before_any_tree_loads(tmp_path, monkeypatch, capsys, trees, error):
    tool = load_tool()

    def measured(*args):
        raise AssertionError("a tree was measured")

    monkeypatch.setattr(tool, "cost_layers", measured)
    monkeypatch.setattr(tool, "load", measured)
    monkeypatch.setattr(sys, "argv", ["layers.py", "--out", str(tmp_path / "out.json"), *trees])
    with pytest.raises(SystemExit) as exit_:
        tool.main()
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {error}")
    assert not (tmp_path / "out.json").exists()
