"""Config-file parsing for the CLI.

Format: one ``section.key = value`` assignment per line, ``#`` starts a
comment, blank lines ignored.  Numbers may use decimal or scientific
notation; angle-valued keys additionally accept a ``rad`` or ``deg``
suffix (``mechanism.alpha = 180deg``) and are stored in radians.  Unknown
keys, and a key set twice, are rejected; missing keys take the documented
defaults; every dataclass invariant is re-validated on load.

An error names the file and one rule picks its key (``named_key``): the
first word of the check's message that is a key this file sets in the
section.  The error cites that key's line, ``path:line: section.key:
message``, or reads ``path: section: message`` when the message names no
such key.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

from .bench import BenchSettings
from .mechanism import MechanismConfig
from .objective import ObjectiveSpec, default_search_bounds, require_finite_cost
from .optimizers import ALGORITHM_NAMES, AbcParams, BgaParams, Bounds, HgapsoParams, PsoParams
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
    "names": _parse_list(str), "ints": _parse_list(_parse_int),
}


def named_key(message: str, keys) -> str | None:
    """The first word of ``message`` that is one of ``keys``, or None."""
    return next((word for word in message.split() if word in keys), None)


def read_assignments(path) -> dict[tuple[str, str], tuple[object, int]]:
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
            if (section, key) in assignments:
                first = assignments[(section, key)][1]
                raise ConfigError(f"{path}:{lineno}: {section}.{key}: set again (first set on line {first})")
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


def parse_config(path) -> AppConfig:
    """Load an AppConfig: documented defaults overridden by the file."""
    assignments = read_assignments(path)

    def build(section: str, factory):
        """Construct one section from the keys the file sets in it."""
        fields = {key: value for (sec, key), (value, _) in assignments.items() if sec == section}
        try:
            return factory(**fields)
        except ValueError as exc:
            key = named_key(str(exc), fields)
            if key is None:
                raise ConfigError(f"{path}: {section}: {exc}") from None
            lineno = assignments[(section, key)][1]
            raise ConfigError(f"{path}:{lineno}: {section}.{key}: {exc}") from None

    mechanism = build("mechanism", MechanismConfig)

    def objective_spec(**kw) -> ObjectiveSpec:
        """The section with its search box, checked per dimension so that
        an error names the box key at fault."""
        base = default_search_bounds(mechanism)
        lower, upper = [], []
        for (lo, hi), low, high in zip(_BOUND_KEYS, base.lower, base.upper):
            low, high = kw.pop(lo, float(low)), kw.pop(hi, float(high))
            for key, value in ((lo, low), (hi, high)):
                if not math.isfinite(value):
                    raise ValueError(f"{key} must be finite (got {value})")
            if low > high:
                raise ValueError(f"{lo} must be <= {hi} (got {low} > {high})")
            lower.append(low)
            upper.append(high)
        spec = ObjectiveSpec(bounds=Bounds(lower, upper), **kw)
        require_finite_cost(mechanism, spec)
        return spec

    objective = build("objective", objective_spec)
    pso = build("pso", PsoParams)
    abc = build("abc", AbcParams)

    def bga_params(**kw) -> BgaParams:
        params = BgaParams(**kw)
        chromosome_length(params, objective.bounds.dimension)
        return params

    bga = build("bga", bga_params)
    hgapso = build("hgapso", lambda **kw: HgapsoParams(pso=pso, bga=bga, **kw))
    bench = build("bench", BenchSettings)

    return AppConfig(mechanism, objective, pso, abc, bga, hgapso, bench)


def optimizer_params_map(config: AppConfig) -> dict:
    return {name: getattr(config, name) for name in ALGORITHM_NAMES}
