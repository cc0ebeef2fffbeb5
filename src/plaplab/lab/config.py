"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, `#` comments.
A key appears at most once, and a key not documented here is an error.
Documented keys (all optional, with desk-scale defaults):

    p                 comma list of exponents            1.5, 2, 3
    grids             comma list of cells per side       32, 64
    seed              base seed                          7
    n_seeds           seeds per (p, M) case              5
    comps             solution components N              1
    bounds            x0, x1, y0, y1                     0, 1, 0, 1
    radii_ratio       dyadic ratio for radius sets       0.5
    r_min_cells       smallest radius in cell widths     2.0
    r_max_frac        largest radius / domain side       0.25
    modulus           family + params, e.g. 'power 0.3'  power 0.3
    young             family + params, e.g. 'power 4'    power 4
    lorentz_r         second Lorentz index               1.0
    stability_factor  allowed fitted-constant growth     2.0
    assert_mode       fail the process on violations     false

Values are checked when the config is built, and an error names its key
(and the file, from `ExperimentConfig.from_file`); p, grids, bounds, modulus
and young by the rules of the exponent, the mesh, the modulus and the Young
function they make (a modulus also at the diameter of bounds), and p and
grids repeat no value.  On every grid the runs' radii must fit: the larger
of r_min_cells and 2 cell widths is at most r_max_frac times the side.

Modulus families: power (beta), constant (none), log_inverse (sigma, then
optional scale) and dini_log (log_inverse at sigma = 1, optional scale).
Young families: power (q, then optional scale), exp or exp_type (gamma, q)
and linf_cap (q).
"""

import inspect
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from ..fluxmaps import Exponent
from ..grid import _cells_per_side, _square_bounds
from ..oscillation import constant_modulus, dini_log_modulus, log_inverse_modulus, power_modulus
from ..rearrange import CapYoung, ExpYoung, LorentzSpec, PowerYoung

__all__ = ["ExperimentConfig", "parse_config_file", "modulus_from_spec", "young_from_spec"]


def parse_config_file(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (t.strip() for t in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = val
    return out


@contextmanager
def _prefixed(prefix):
    """Re-raise a ValueError, or an OverflowError, as a ValueError with
    `prefix` (the key, the file) before its message."""
    try:
        yield
    except (OverflowError, ValueError) as err:
        raise ValueError(f"{prefix}: {err}") from err


def _family(kind, builders, name, args=()):
    """What the builder of family `name` makes of `args`, once they are checked
    against its parameters: a wrong count is a ValueError naming the family."""
    if name not in builders:
        raise ValueError(f"unknown {kind} {name!r}")
    try:
        inspect.signature(builders[name]).bind(*args)
    except TypeError as err:
        raise ValueError(f"{kind} {name!r}: {err}") from None
    return builders[name](*args)


_MODULI = {"power": power_modulus, "log_inverse": log_inverse_modulus,
           "constant": constant_modulus, "dini_log": dini_log_modulus}
_YOUNG = {"power": PowerYoung, "exp": ExpYoung, "exp_type": ExpYoung, "linf_cap": CapYoung}


# a modulus, a Young function from a config family name and its parameters
modulus_from_spec = partial(_family, "modulus family", _MODULI)
young_from_spec = partial(_family, "Young function family", _YOUNG)


def _spec(text):
    """A family's name and its arguments: 'power 0.3' -> ('power', (0.3,))."""
    name, *args = text.split() or [""]
    return name, tuple(float(x) for x in args)


def _rule(holds, says):
    """The rule of a value for which `holds` is true: ValueError '<says>, not <value>'."""
    def rule(value):
        if not holds(value):
            raise ValueError(f"{says}, not {value}")
        return value
    return rule


def _whole(text):
    """An integer literal, read exactly, or a float literal of whole value."""
    with suppress(ValueError):
        return int(text)
    with suppress(ValueError):
        if float(text).is_integer():
            return int(float(text))
    raise ValueError(f"must be a whole number, not {text!r}")


def _words(text):
    return text.replace(",", " ").split()


def _assert_mode(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(f"must be true or false, not {text!r}")
    return text.lower() == "true"


class _Key(NamedTuple):
    """A config key's field, reader of a value's text, and rule of a value (a
    ValueError where a run would fail, else what it builds); `many`: a list."""
    field: str
    read: Callable
    rule: Callable
    many: bool = False


_COUNT = _rule(lambda n: n >= 0, "must be at least 0")
_SOME = _rule(lambda n: n >= 1, "must be at least 1")
_DISTINCT = _rule(lambda v: len(set(v)) == len(v), "must not repeat a value")
_POSITIVE = _rule(lambda x: 0.0 < x < math.inf, "must be positive and finite")
_KEYS = {
    "p": _Key("ps", float, Exponent, many=True),
    "grids": _Key("grids", _whole, _cells_per_side, many=True),
    "seed": _Key("seed", _whole, _COUNT),
    "n_seeds": _Key("n_seeds", _whole, _SOME),
    "comps": _Key("comps", _whole, _SOME),
    "bounds": _Key("bounds", lambda t: tuple(float(x) for x in _words(t)), _square_bounds),
    "radii_ratio": _Key("radii_ratio", float, _rule(lambda x: 0.0 < x < 1.0, "must lie in (0, 1)")),
    "r_min_cells": _Key("r_min_cells", float, _POSITIVE),
    "r_max_frac": _Key("r_max_frac", float, _POSITIVE),
    "modulus": _Key("modulus_spec", _spec, lambda s: modulus_from_spec(*s)),
    "young": _Key("young_spec", _spec, lambda s: young_from_spec(*s)),
    "lorentz_r": _Key("lorentz_r", float, lambda r: LorentzSpec(2.0, r)),
    "stability_factor": _Key("stability_factor", float, _POSITIVE),
    "assert_mode": _Key("assert_mode", _assert_mode, bool),
}


@dataclass
class ExperimentConfig:
    ps: list = field(default_factory=lambda: [1.5, 2.0, 3.0])
    grids: list = field(default_factory=lambda: [32, 64])
    seed: int = 7
    n_seeds: int = 5
    comps: int = 1
    bounds: tuple = (0.0, 1.0, 0.0, 1.0)
    radii_ratio: float = 0.5
    r_min_cells: float = 2.0
    r_max_frac: float = 0.25
    modulus_spec: tuple = ("power", (0.3,))
    young_spec: tuple = ("power", (4.0,))
    lorentz_r: float = 1.0
    stability_factor: float = 2.0
    assert_mode: bool = False

    def __post_init__(self):
        # each key by the rule of what a run builds from it
        for key, row in _KEYS.items():
            value = getattr(self, row.field)
            with _prefixed(f"config key {key!r}"):
                if row.many and not value:
                    raise ValueError("need at least one value")
                for item in value if row.many else [value]:
                    row.rule(item)
                if row.many:
                    _DISTINCT(value)
        # norm-table evaluates the modulus at distances up to the domain's diameter
        x0, x1, y0, y1 = _square_bounds(self.bounds)
        diameter = math.hypot(x1 - x0, y1 - y0)
        with _prefixed(f"config key 'modulus' at the domain diameter {diameter:g}"):
            modulus_from_spec(*self.modulus_spec)(diameter)
        # radius sets run from r_min_cells * h to r_max_frac * side, and the
        # potential's ladder from 2h to r_max_frac * side
        r_max = self.r_max_frac * (x1 - x0)
        for M in self.grids:
            r_min = max(self.r_min_cells, 2.0) * ((x1 - x0) / M)
            if r_min > r_max:
                raise ValueError(f"config key 'grids': at M = {M} the smallest radius, "
                                 f"the larger of r_min_cells and 2 cell widths, {r_min:g} "
                                 f"exceeds r_max_frac * side = {r_max:g}")

    @classmethod
    def from_mapping(cls, kv):
        unknown = sorted(set(kv) - set(_KEYS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        values = {}
        for key, text in kv.items():
            row = _KEYS[key]
            with _prefixed(f"config key {key!r}"):
                values[row.field] = ([row.read(t) for t in _words(text)] if row.many
                                     else row.read(text))
        return cls(**values)

    @classmethod
    def from_file(cls, path):
        kv = parse_config_file(path)
        with _prefixed(path):
            return cls.from_mapping(kv)

    def echo(self):
        """Snapshot under the config keys, embedded into every report (which
        writes tuples as lists)."""
        return {key: getattr(self, row.field) for key, row in _KEYS.items()}
