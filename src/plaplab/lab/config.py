"""Flat key-value experiment configuration, and problem files (`load_problem`).

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
grids repeat no value.  Problem files read p, grid, bounds and comps alike.

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

import numpy as np

from ..fluxmaps import Exponent
from ..grid import (ElemField, Mesh, _cells_per_side, _square_bounds, read_elem_field,
                    read_nodal_field)
from ..oscillation import constant_modulus, dini_log_modulus, log_inverse_modulus, power_modulus
from ..rearrange import CapYoung, ExpYoung, LorentzSpec, PowerYoung
from ..solver import DirichletProblem
from . import cases

__all__ = ["ExperimentConfig", "parse_config_file", "load_problem", "modulus_from_spec",
           "young_from_spec"]


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


def load_problem(path):
    """Build a DirichletProblem from a flat key-value problem file, whose
    keys are each optional and at most once (any other key is an error):

        p          exponent, > 1                                   2
        grid       cells per side M                                32
        bounds     x0, x1, y0, y1                                  0, 1, 0, 1
        comps      number of solution components N                 1
        F          zero | file <path> | trig <seed> | amap <seed>  zero
        g          keep | zero | affine <a> <b> <c> | file <path> | trace <seed>

    'trig' builds a seeded truncated trigonometric series, 'amap' builds
    F = A(grad w) for a seeded smooth w, 'trace' builds a seeded rough
    piecewise-linear boundary trace.  'keep' (the default) takes the boundary
    data that comes with F: the trace of w for 'amap', zero otherwise.  Each
    value is checked by the rule of the object it builds, and a bad one
    raises ValueError naming the file and the key.
    """
    given = parse_config_file(path)
    unknown = sorted(set(given) - set(_PROBLEM_DEFAULTS))
    if unknown:
        raise ValueError(f"{path}: unknown problem key(s): {', '.join(unknown)}")
    kv = {**_PROBLEM_DEFAULTS, **given}

    def read(key, build):
        with _prefixed(f"{path}: problem key {key!r}"):
            return build(kv[key])

    p = read("p", _KEYS["p"].build)
    mesh = Mesh(read("bounds", _KEYS["bounds"].build), read("grid", _KEYS["grids"].build))
    comps = read("comps", _KEYS["comps"].build)
    zero = np.zeros((len(mesh.boundary_nodes), comps))
    pts = mesh.nodes[mesh.boundary_nodes]
    F, kept = read("F", lambda t: _source(t, {
        "zero": lambda: (ElemField.zeros(mesh, rows=comps), zero),
        "file": lambda file: (ElemField(_sized(read_elem_field(file).tensors,
                                               (mesh.num_elements, comps, 2))), zero),
        "trig": lambda seed: (cases.random_smooth_field(mesh, comps, _seeded(seed)), zero),
        "amap": lambda seed: cases.manufactured_problem_data(p, mesh, comps, _seeded(seed))[:2]}))
    # g's rule is the problem's own: finite values, one row per boundary node
    return read("g", lambda t: DirichletProblem(p, mesh, F, _source(t, {
        "keep": lambda: kept, "zero": lambda: zero,
        "affine": lambda a, b, c: np.repeat(
            (float(a) * pts[:, 0] + float(b) * pts[:, 1] + float(c))[:, None], comps, axis=1),
        "file": lambda file: _sized(read_nodal_field(file).values,
                                    (mesh.num_nodes, comps))[mesh.boundary_nodes],
        "trace": lambda seed: cases.rough_boundary_trace(mesh, comps, _seeded(seed))})))


_PROBLEM_DEFAULTS = {"p": "2.0", "grid": "32", "bounds": "0, 1, 0, 1", "comps": "1",
                     "F": "zero", "g": "keep"}


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


def _source(text, builders):
    """An F or g source built by the builder of its name."""
    return _family("source", builders, *_spec(text, str))


def _spec(text, read=float):
    """A family's name and its arguments: 'power 0.3' -> ('power', (0.3,))."""
    name, *args = text.split() or [""]
    return name, tuple(read(x) for x in args)


def _seeded(seed):
    return np.random.default_rng(_whole(seed))


def _sized(table, shape):
    if table.shape != shape:
        raise ValueError(f"the file holds a table of shape {table.shape}, not {shape}")
    return table


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

    def build(self, text):
        return self.rule(self.read(text))


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
