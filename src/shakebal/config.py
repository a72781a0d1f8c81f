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

import dataclasses
import math
import typing
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


# The keys are the scalar fields of AppConfig's sections, plus the
# objective's search-box keys, (lower, upper) per decision variable, which
# set ObjectiveSpec.bounds.  Angle keys take a rad/deg suffix.
_BOUND_KEYS = tuple((f"{v}_min", f"{v}_max") for v in ("m1", "m2", "phi1", "phi2"))
_ANGLE_KEYS = {"alpha", "theta_0", *_BOUND_KEYS[2], *_BOUND_KEYS[3]}
# field annotation -> value kind; fields of any other type are not keys
_KINDS = {
    "float": "float", "float | None": "float", "int": "int",
    "tuple[str, ...]": "names", "tuple[int, ...]": "ints",
}


def _kind(key: str, annotation: str) -> str:
    return "angle" if key in _ANGLE_KEYS else _KINDS[annotation]


# section -> {key: value kind}
_KEYS = {
    section: {f.name: _kind(f.name, f.type) for f in dataclasses.fields(cls) if f.type in _KINDS}
    for section, cls in typing.get_type_hints(AppConfig).items()
}
_KEYS["objective"].update((key, _kind(key, "float")) for key in sum(_BOUND_KEYS, ()))


def _parse_angle(text: str) -> float:
    if text.endswith("deg"):
        return math.radians(float(text[: -len("deg")].strip()))
    if text.endswith("rad"):
        return float(text[: -len("rad")].strip())
    return float(text)


def _parse_int(text: str) -> int:
    value = float(text)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _parse_list(convert):
    return lambda text: tuple(convert(part.strip()) for part in text.split(",") if part.strip())


_PARSERS = {
    "float": float, "angle": _parse_angle, "int": _parse_int,
    "names": _parse_list(str), "ints": _parse_list(int),
}


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
                value = _PARSERS[_KEYS[section][key]](text)
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
    bound_overrides = {k: obj_fields.pop(k) for pair in _BOUND_KEYS for k in pair if k in obj_fields}
    base = default_search_bounds(mechanism)
    lower = [bound_overrides.get(lo, v) for (lo, _), v in zip(_BOUND_KEYS, base.lower)]
    upper = [bound_overrides.get(hi, v) for (_, hi), v in zip(_BOUND_KEYS, base.upper)]
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

    return AppConfig(mechanism, objective, pso, abc, bga, hgapso, bench)


def optimizer_params_map(config: AppConfig) -> dict:
    return {"pso": config.pso, "abc": config.abc, "bga": config.bga, "hgapso": config.hgapso}
