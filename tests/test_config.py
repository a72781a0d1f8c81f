"""Config-file format: defaults, unit suffixes, overrides and diagnostics."""

import math
import re
from pathlib import Path

import pytest

from shakebal.config import (
    _BOUND_KEYS, _KEYS, AppConfig, BenchSettings, ConfigError, named_key, parse_config,
)
from shakebal.mechanism import MechanismConfig
from shakebal.objective import DEFAULT_C1_MAX


def load(tmp_path, text):
    path = tmp_path / "test.cfg"
    path.write_text(text)
    return parse_config(path)


def test_empty_file_gives_pure_defaults(tmp_path):
    cfg = load(tmp_path, "")
    assert cfg == AppConfig()
    assert cfg.objective.c1_max == DEFAULT_C1_MAX
    assert cfg.bench.iteration_budgets == (200, 300)
    assert cfg.bench.repeats == 10


def test_degree_suffix_converts_to_radians(tmp_path):
    cfg = load(tmp_path, "mechanism.alpha = 180deg\n")
    assert cfg.mechanism.alpha == pytest.approx(math.pi)


def test_rad_suffix_and_bare_number(tmp_path):
    cfg = load(tmp_path, "mechanism.alpha = 1.5rad\nmechanism.theta_0 = 1.0\n")
    assert cfg.mechanism.alpha == 1.5
    assert cfg.mechanism.theta_0 == 1.0


def test_scientific_notation_and_comments(tmp_path):
    cfg = load(
        tmp_path,
        """
        # full-line comment
        objective.penalty_weight = 2.5e5   # inline comment
        pso.population = 24
        """,
    )
    assert cfg.objective.penalty_weight == 2.5e5
    assert cfg.pso.population == 24


def test_invariant_violation_names_file_line_and_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mechanism.m_c = 0.4\nmechanism.L = -1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    message = str(err.value)
    assert "bad.cfg" in message
    assert ":2:" in message
    assert "mechanism.L" in message
    assert "must be > 0" in message


def test_unknown_key_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'mechanism.mass'"):
        load(tmp_path, "mechanism.mass = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load(tmp_path, "nosection.x = 1\n")


def test_malformed_value_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="malformed value"):
        load(tmp_path, "mechanism.L = fast\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        load(tmp_path, "pso.population = 12.5\n")


def test_malformed_line_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="section.key"):
        load(tmp_path, "just some words\n")


def test_a_key_set_twice_is_rejected_citing_both_lines(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("pso.population = 50\npso.c1 = 0.3\n\npso.population = 6\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:4: pso.population: set again (first set on line 1)"


def test_bench_lists(tmp_path):
    cfg = load(
        tmp_path,
        "bench.algorithms = pso, bga\nbench.iteration_budgets = 50, 100\nbench.repeats = 3\n",
    )
    assert cfg.bench.algorithms == ("pso", "bga")
    assert cfg.bench.iteration_budgets == (50, 100)
    assert cfg.bench.repeats == 3


def test_integer_lists_take_scientific_notation(tmp_path):
    cfg = load(tmp_path, "bench.iteration_budgets = 2e2, 3e2\n")
    assert cfg.bench.iteration_budgets == (200, 300)
    with pytest.raises(ConfigError, match=r"malformed value .*expected an integer, got '12\.5'"):
        load(tmp_path, "bench.iteration_budgets = 2e2, 12.5\n")


def test_bench_rejects_unknown_algorithm(tmp_path):
    with pytest.raises(ConfigError, match="unknown names"):
        load(tmp_path, "bench.algorithms = pso, nope\n")


def test_search_box_follows_the_unbalance_mass(tmp_path):
    cfg = load(tmp_path, "mechanism.m_0 = 0.5\n")
    assert cfg.objective.bounds.upper[0] == pytest.approx(25.0)  # 50 * m_0
    explicit = load(tmp_path, "mechanism.m_0 = 0.5\nobjective.m1_max = 3\nobjective.phi2_max = 90deg\n")
    assert explicit.objective.bounds.upper[0] == 3.0
    assert explicit.objective.bounds.upper[3] == pytest.approx(math.pi / 2)


def test_bad_bounds_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r":1: objective\.m1_min: m1_min must be <= m1_max"):
        load(tmp_path, "objective.m1_min = 5\nobjective.m1_max = 1\n")


def test_hgapso_reuses_operator_settings(tmp_path):
    cfg = load(tmp_path, "pso.c1 = 0.5\nbga.bits_per_variable = 12\n")
    assert cfg.hgapso.pso.c1 == 0.5
    assert cfg.hgapso.bga.bits_per_variable == 12


@pytest.mark.parametrize(
    "key",
    [
        "mechanism.omega", "mechanism.m_c", "mechanism.alpha", "mechanism.theta_0",
        "objective.c1_max", "objective.penalty_weight", "objective.m1_max", "objective.phi2_min",
        "pso.c1", "pso.w_min", "bga.crossover_prob", "bga.mutation_prob_per_bit",
        "hgapso.breeding_ratio",
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_are_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load(tmp_path, f"{key} = {value}\n")


@pytest.mark.parametrize(
    "key",
    ["pso.population", "abc.limit", "bench.repeats", "bench.base_seed", "bench.iteration_budgets"],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_integers_are_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match="expected an integer"):
        load(tmp_path, f"{key} = {value}\n")


@pytest.mark.parametrize("omega", ["1e154", "1e160"])
def test_mechanism_that_overflows_names_omega(tmp_path, omega):
    # 1e160 overflows omega**2; 1e154 gives a finite table but NaN costs
    with pytest.raises(ConfigError, match=r":2: mechanism\.omega: omega = .* overflows"):
        load(tmp_path, f"mechanism.m_c = 0.5\nmechanism.omega = {omega}\n")


def test_dataclasses_reject_non_finite_values():
    with pytest.raises(ValueError, match="omega must be finite"):
        MechanismConfig(omega=math.nan)
    with pytest.raises(ValueError, match="alpha must be finite"):
        MechanismConfig(alpha=math.inf)
    with pytest.raises(ValueError, match="repeats must be finite"):
        BenchSettings(repeats=math.nan)
    with pytest.raises(ValueError, match="base_seed must be finite"):
        BenchSettings(base_seed=math.inf)


def test_negative_mass_bound_is_rejected(tmp_path):
    path = tmp_path / "neg.cfg"
    path.write_text("objective.c1_max = 1e5\nobjective.m1_min = -1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    message = str(err.value)
    assert ":2:" in message
    assert "objective.m1_min" in message
    assert "must be >= 0" in message
    with pytest.raises(ConfigError, match="objective.m2_min"):
        load(tmp_path, "objective.m2_min = -0.5\n")


def test_too_many_crossover_points_name_the_key(tmp_path):
    # 16 bits x 4 variables leave 63 cut positions
    message = r":2: bga\.crossover_points: crossover_points must be <= chromosome length - 1 \(63\)"
    with pytest.raises(ConfigError, match=message):
        load(tmp_path, "bga.population = 8\nbga.crossover_points = 70\n")
    with pytest.raises(ConfigError, match=r":1: bga\.crossover_points: .*\(31\), got 32"):
        load(tmp_path, "bga.crossover_points = 32\nbga.bits_per_variable = 8\n")
    assert load(tmp_path, "bga.crossover_points = 63\n").hgapso.bga.crossover_points == 63


def test_elitism_of_the_whole_population_names_the_key(tmp_path):
    message = r":2: bga\.elitism: elitism must be < population \(got 50 >= 50\)"
    with pytest.raises(ConfigError, match=message):
        load(tmp_path, "bga.crossover_points = 3\nbga.elitism = 50\n")
    assert load(tmp_path, "bga.elitism = 49\n").bga.elitism == 49


def test_negative_base_seed_names_the_key(tmp_path):
    message = r":2: bench\.base_seed: base_seed must be >= 0 \(got -1\)"
    with pytest.raises(ConfigError, match=message):
        load(tmp_path, "bench.repeats = 2\nbench.base_seed = -1\n")
    assert load(tmp_path, "bench.base_seed = 0\n").bench.base_seed == 0


def test_oversized_grid_names_the_key(tmp_path):
    message = r":2: objective\.n_samples: n_samples must be <= 1048576 \(got 1000000000\)"
    with pytest.raises(ConfigError, match=message):
        load(tmp_path, "objective.c1_max = 1e5\nobjective.n_samples = 1e9\n")


def test_named_key_is_the_first_word_the_message_names():
    message = "elitism must be < population (got 4 >= 4)"
    assert named_key(message, {"population": 4, "elitism": 4}) == "elitism"
    assert named_key(message, {"population": 4}) == "population"
    assert named_key(message, {"iterations": 4}) is None


@pytest.mark.parametrize(
    "text, error",
    [
        ("objective.m1_max = 10\nobjective.m2_min = 3\nobjective.m2_max = 1\n",
         ":2: objective.m2_min: m2_min must be <= m2_max (got 3.0 > 1.0)"),
        ("objective.m1_max = -1\n", ":1: objective.m1_max: m1_min must be <= m1_max (got 0.0 > -1.0)"),
        ("objective.c1_max = 1e5\nobjective.m1_max = nan\n",
         ":2: objective.m1_max: m1_max must be finite (got nan)"),
        ("mechanism.m_c = 0.5\nmechanism.R = 0.5\nmechanism.L = 0.1\n",
         ":2: mechanism.R: R must be <= L (got R/L = 5.0)"),
        ("pso.population = 10\npso.c1 = -1\n", ":2: pso.c1: c1 must be >= 0 (got -1.0)"),
        ("pso.c1 = 1\npso.c2 = -0.5\n", ":2: pso.c2: c2 must be >= 0 (got -0.5)"),
        ("bga.population = 4\nbga.elitism = 4\n",
         ":2: bga.elitism: elitism must be < population (got 4 >= 4)"),
        ("bench.repeats = 2\nbench.algorithms = pso, pso\n",
         ":2: bench.algorithms: algorithms must not repeat (got ['pso', 'pso'])"),
        ("bench.repeats = 2\nbench.iteration_budgets = 2e2, 200\n",
         ":2: bench.iteration_budgets: iteration_budgets must not repeat (got [200, 200])"),
    ],
    ids=["box", "default-box", "nan-box", "R", "c1", "c2", "elitism", "algorithms", "budgets"],
)
def test_error_cites_the_first_key_its_message_names(tmp_path, text, error):
    path = tmp_path / "test.cfg"
    with pytest.raises(ConfigError) as err:
        load(tmp_path, text)
    assert str(err.value) == f"{path}{error}"


@pytest.mark.parametrize(
    "text, key",
    [
        ("objective.n_samples = 64\nobjective.c1_max = 1e-320\n", ":2: objective.c1_max: c1_max = 1e-320,"),
        ("objective.c2_max = 1e-300\n", ":1: objective.c2_max: c1_max = "),
        ("objective.penalty_weight = 1e308\n", ":1: objective.penalty_weight: c1_max = "),
        ("objective.m1_max = 1e200\n", ":1: objective.m1_max: c1_max = "),
    ],
    ids=["c1_max", "c2_max", "penalty_weight", "m1_max"],
)
def test_a_cost_that_can_overflow_is_rejected_at_its_line(tmp_path, text, key):
    path = tmp_path / "test.cfg"
    with pytest.raises(ConfigError) as err:
        load(tmp_path, text)
    assert str(err.value).startswith(f"{path}{key}")
    assert "can make the cost overflow in the search box" in str(err.value)


def _written(value) -> str:
    """A default as the file would spell it."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return repr(value)


def test_every_key_round_trips_its_default(tmp_path):
    defaults = AppConfig()
    values = {
        (section, key): getattr(getattr(defaults, section), key, None)
        for section, keys in _KEYS.items()
        for key in keys
    }
    box = defaults.objective.bounds
    for j, (lo, hi) in enumerate(_BOUND_KEYS):
        values[("objective", lo)] = float(box.lower[j])
        values[("objective", hi)] = float(box.upper[j])
    # None (BGA's per-bit mutation rate, resolved at run time) has no spelling
    unset = [name for name, value in values.items() if value is None]
    assert unset == [("bga", "mutation_prob_per_bit")]
    text = "".join(
        f"{section}.{key} = {_written(value)}\n"
        for (section, key), value in values.items()
        if value is not None
    )
    assert len(text.splitlines()) == 48
    assert load(tmp_path, text) == defaults


def test_readme_config_block_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    cfg = load(tmp_path, block)
    assert cfg.objective.bounds.upper[0] == 10.0
    assert cfg.mechanism.theta_0 == pytest.approx(math.pi)
