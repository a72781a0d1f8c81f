"""Config-file parsing for the CLI.

Format: one ``section.key = value`` assignment per line, ``#`` starts a
comment, blank lines ignored.  Numbers may use decimal or scientific
notation; angle-valued keys additionally accept a ``rad`` or ``deg``
suffix (``mechanism.alpha = 180deg``) and are stored in radians.  Unknown
keys are rejected; missing keys take the documented defaults; every
dataclass invariant is re-validated on load, and errors name the file,
line and key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bench import BenchSettings
from .mechanism import MechanismConfig
from .objective import ObjectiveSpec, default_search_bounds
from .optimizers import AbcParams, BgaParams, Bounds, HgapsoParams, PsoParams
from .optimizers.bga import chromosome_length


class ConfigError(Exception):
    """Malformed or invalid config file."""


@dataclass
class AppConfig:
    mechanism: MechanismConfig = field(default_factory=MechanismConfig)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    pso: PsoParams = field(default_factory=PsoParams)
    abc: AbcParams = field(default_factory=AbcParams)
    bga: BgaParams = field(default_factory=BgaParams)
    hgapso: HgapsoParams = field(default_factory=HgapsoParams)
    bench: BenchSettings = field(default_factory=BenchSettings)


# (section, key) -> value kind; key names match the dataclass fields
_KEYS = {
    "mechanism": {
        "m_c": "float", "m_p": "float", "R": "float", "L": "float", "omega": "float",
        "m_0": "float", "R_0": "float", "alpha": "angle", "a_1": "float", "a_2": "float",
        "theta_0": "angle", "r_1": "float", "r_2": "float",
    },
    "objective": {
        "n_samples": "int", "c1_max": "float", "c2_max": "float", "penalty_weight": "float",
        "m1_min": "float", "m1_max": "float", "m2_min": "float", "m2_max": "float",
        "phi1_min": "angle", "phi1_max": "angle", "phi2_min": "angle", "phi2_max": "angle",
    },
    "pso": {
        "population": "int", "iterations": "int", "c1": "float", "c2": "float",
        "w_max": "float", "w_min": "float", "v_max_fraction": "float",
    },
    "abc": {"food_sources": "int", "iterations": "int", "limit": "int"},
    "bga": {
        "population": "int", "iterations": "int", "bits_per_variable": "int",
        "crossover_points": "int", "crossover_prob": "float",
        "mutation_prob_per_bit": "float", "elitism": "int",
    },
    "hgapso": {"population": "int", "iterations": "int", "breeding_ratio": "float"},
    "bench": {
        "algorithms": "names", "iteration_budgets": "ints",
        "repeats": "int", "base_seed": "int",
    },
}

_BOUND_KEYS = ("m1_min", "m1_max", "m2_min", "m2_max", "phi1_min", "phi1_max", "phi2_min", "phi2_max")


def _parse_number(text: str) -> float:
    return float(text)


def _parse_angle(text: str) -> float:
    if text.endswith("deg"):
        return math.radians(float(text[: -len("deg")].strip()))
    if text.endswith("rad"):
        return float(text[: -len("rad")].strip())
    return float(text)


def _parse_value(kind: str, text: str):
    if kind == "float":
        return _parse_number(text)
    if kind == "angle":
        return _parse_angle(text)
    if kind == "int":
        value = float(text)
        if not math.isfinite(value) or value != int(value):
            raise ValueError(f"expected an integer, got {text!r}")
        return int(value)
    if kind == "names":
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if kind == "ints":
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    raise AssertionError(kind)


def _read_assignments(path) -> dict[tuple[str, str], tuple[object, int]]:
    """Parse the file into {(section, key): (value, line_number)}."""
    assignments: dict[tuple[str, str], tuple[object, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'section.key = value', got {raw.strip()!r}")
            name, _, text = line.partition("=")
            name = name.strip()
            text = text.strip()
            if "." not in name:
                raise ConfigError(f"{path}:{lineno}: key must be 'section.key', got {name!r}")
            section, _, key = name.partition(".")
            if section not in _KEYS or key not in _KEYS[section]:
                raise ConfigError(f"{path}:{lineno}: unknown key '{section}.{key}'")
            if not text:
                raise ConfigError(f"{path}:{lineno}: {section}.{key}: empty value")
            try:
                value = _parse_value(_KEYS[section][key], text)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: {section}.{key}: malformed value {text!r} ({exc})"
                ) from None
            assignments[(section, key)] = (value, lineno)
    return assignments


def _build_section(path, section: str, fields: dict, lines: dict, factory, other_keys=()):
    """Construct one dataclass, converting invariant errors to ConfigError
    that cite the offending key's line; ``other_keys`` are keys of the
    section the factory reads besides ``fields``."""
    try:
        return factory(**fields)
    except ValueError as exc:
        message = str(exc)
        blame = next((k for k in [*fields, *other_keys] if k in message.split()), None)
        if blame is None and fields:
            blame = next(iter(fields))
        if blame is not None and (section, blame) in lines:
            raise ConfigError(
                f"{path}:{lines[(section, blame)]}: {section}.{blame}: {message}"
            ) from None
        raise ConfigError(f"{path}: {section}: {message}") from None


def parse_config(path) -> AppConfig:
    """Load an AppConfig: documented defaults overridden by the file."""
    assignments = _read_assignments(path)
    lines = {key: lineno for key, (_, lineno) in assignments.items()}

    def section_fields(section: str) -> dict:
        return {
            key: value
            for (sec, key), (value, _) in assignments.items()
            if sec == section
        }

    mechanism = _build_section(path, "mechanism", section_fields("mechanism"), lines, MechanismConfig)

    obj_fields = section_fields("objective")
    bound_overrides = {k: obj_fields.pop(k) for k in _BOUND_KEYS if k in obj_fields}
    base = default_search_bounds(mechanism)
    lower = base.lower.copy()
    upper = base.upper.copy()
    for idx, (lo_key, hi_key) in enumerate(
        [("m1_min", "m1_max"), ("m2_min", "m2_max"), ("phi1_min", "phi1_max"), ("phi2_min", "phi2_max")]
    ):
        if lo_key in bound_overrides:
            lower[idx] = bound_overrides[lo_key]
        if hi_key in bound_overrides:
            upper[idx] = bound_overrides[hi_key]
    try:
        bounds = Bounds(lower, upper)
    except ValueError as exc:
        # only the file's own bounds can be at fault; a non-finite one first
        key = min(bound_overrides, key=lambda k: math.isfinite(bound_overrides[k]))
        raise ConfigError(
            f"{path}:{lines[('objective', key)]}: objective.{key}: bad search bounds: {exc}"
        ) from None
    objective = _build_section(
        path, "objective", obj_fields, lines, lambda **kw: ObjectiveSpec(bounds=bounds, **kw),
        other_keys=bound_overrides,
    )

    pso = _build_section(path, "pso", section_fields("pso"), lines, PsoParams)
    abc = _build_section(path, "abc", section_fields("abc"), lines, AbcParams)

    def bga_params(**kw) -> BgaParams:
        params = BgaParams(**kw)
        chromosome_length(params, objective.bounds.dimension)
        return params

    bga = _build_section(path, "bga", section_fields("bga"), lines, bga_params)
    hg_fields = section_fields("hgapso")
    hgapso = _build_section(
        path, "hgapso", hg_fields, lines, lambda **kw: HgapsoParams(pso=pso, bga=bga, **kw)
    )
    bench = _build_section(path, "bench", section_fields("bench"), lines, BenchSettings)

    return AppConfig(
        mechanism=mechanism,
        objective=objective,
        pso=pso,
        abc=abc,
        bga=bga,
        hgapso=hgapso,
        bench=bench,
    )


def optimizer_params_map(config: AppConfig) -> dict:
    return {"pso": config.pso, "abc": config.abc, "bga": config.bga, "hgapso": config.hgapso}
