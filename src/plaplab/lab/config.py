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

Values are checked when the config is built, and an error names its key;
p, grids, bounds, modulus and young by the rules of the exponent, the mesh,
the modulus and the Young function they make.

Modulus families: power (beta), constant (none), log_inverse (sigma, then
optional scale, beta_cert, c_omega, cert_r_max) and dini_log (log_inverse at
sigma = 1, the same optional four).  Young families: power (q, then optional
scale), exp or exp_type (gamma, q) and linf_cap (q).
"""

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from ..fluxmaps import Exponent
from ..grid import (ElemField, Mesh, _cells_per_side, _square_bounds, read_elem_field,
                    read_nodal_field)
from ..oscillation import modulus_from_spec
from ..rearrange import LorentzSpec, young_from_spec
from ..solver import DirichletProblem
from . import cases

__all__ = ["ExperimentConfig", "parse_config_file", "load_problem"]


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
    kv = parse_config_file(path)
    unknown = sorted(set(kv) - {"p", "grid", "bounds", "comps", "F", "g"})
    if unknown:
        raise ValueError(f"{path}: unknown problem key(s): {', '.join(unknown)}")

    def read(key, default, rule):
        try:
            return rule(kv.get(key, default))
        except ValueError as err:
            raise ValueError(f"{path}: problem key {key!r}: {err}") from err

    p = read("p", "2.0", lambda t: Exponent(float(t)))
    mesh = Mesh(read("bounds", "0, 1, 0, 1", lambda t: _square_bounds(_floats(t))),
                read("grid", "32", lambda t: _cells_per_side(float(t))))
    comps = read("comps", "1", lambda t: _at_least(1)(int(t)))
    zero = np.zeros((len(mesh.boundary_nodes), comps))
    pts = mesh.nodes[mesh.boundary_nodes]
    F, kept = read("F", "zero", lambda t: _source(t, {
        "zero": lambda: (ElemField.zeros(mesh, rows=comps), zero),
        "file": lambda file: (ElemField(_sized(read_elem_field(file).tensors,
                                               (mesh.num_elements, comps, 2))), zero),
        "trig": lambda seed: (cases.random_smooth_field(mesh, comps, _seeded(seed)), zero),
        "amap": lambda seed: cases.manufactured_problem_data(p, mesh, comps, _seeded(seed))[:2]}))
    g = read("g", "keep", lambda t: _source(t, {
        "keep": lambda: kept, "zero": lambda: zero,
        "affine": lambda a, b, c: np.repeat(
            (float(a) * pts[:, 0] + float(b) * pts[:, 1] + float(c))[:, None], comps, axis=1),
        "file": lambda file: _sized(read_nodal_field(file).values,
                                    (mesh.num_nodes, comps))[mesh.boundary_nodes],
        "trace": lambda seed: cases.rough_boundary_trace(mesh, comps, _seeded(seed))}))
    return DirichletProblem(p, mesh, F, g)


def _source(text, builders):
    """An F or g source built by the builder of its name, once its arguments
    are checked against the builder's."""
    name, *args = text.split() or [""]
    if name not in builders:
        raise ValueError(f"unknown source {name!r}")
    try:
        inspect.signature(builders[name]).bind(*args)
    except TypeError as err:
        raise ValueError(f"source {name!r}: {err}") from None
    return builders[name](*args)


def _seeded(seed):
    return np.random.default_rng(int(seed))


def _sized(table, shape):
    if table.shape != shape:
        raise ValueError(f"the file holds a table of shape {table.shape}, not {shape}")
    return table


def _at_least(least):
    """The rule of a count: a value of at least `least`."""
    def rule(value):
        if not value >= least:
            raise ValueError(f"must be at least {least}, not {value}")
        return value
    return rule


def _floats(text):
    return [float(t) for t in str(text).replace(",", " ").split()]


def _ints(text):
    return [int(t) for t in str(text).replace(",", " ").split()]


def _spec(text):
    parts = text.split()
    return parts[0], tuple(float(x) for x in parts[1:])


def _assert_mode(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(f"config key 'assert_mode' must be true or false, not {text!r}")
    return text.lower() == "true"


_KEYS = {   # config key: (ExperimentConfig field, reader of its text)
    "p": ("ps", _floats),
    "grids": ("grids", _ints),
    "seed": ("seed", int),
    "n_seeds": ("n_seeds", int),
    "comps": ("comps", int),
    "bounds": ("bounds", lambda t: tuple(_floats(t))),
    "radii_ratio": ("radii_ratio", float),
    "r_min_cells": ("r_min_cells", float),
    "r_max_frac": ("r_max_frac", float),
    "modulus": ("modulus_spec", _spec),
    "young": ("young_spec", _spec),
    "lorentz_r": ("lorentz_r", float),
    "stability_factor": ("stability_factor", float),
    "assert_mode": ("assert_mode", _assert_mode),
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
        if not self.ps or not self.grids:
            raise ValueError("need at least one exponent and one grid size")
        if not (0.0 < self.radii_ratio < 1.0):
            raise ValueError("radii_ratio must lie in (0, 1)")
        for key in ("r_min_cells", "r_max_frac", "stability_factor"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ValueError(f"config key {key!r} must be positive and finite, not {value}")
        # each key by the rule of what a run builds from it
        for key, rule, values in (("p", Exponent, self.ps), ("grids", _cells_per_side, self.grids),
                                  ("bounds", _square_bounds, [self.bounds]),
                                  ("seed", _at_least(0), [self.seed]),
                                  ("n_seeds", _at_least(0), [self.n_seeds]),
                                  ("comps", _at_least(1), [self.comps]),
                                  ("lorentz_r", lambda r: LorentzSpec(2.0, r), [self.lorentz_r]),
                                  ("modulus", lambda s: modulus_from_spec(*s), [self.modulus_spec]),
                                  ("young", lambda s: young_from_spec(*s), [self.young_spec])):
            for value in values:
                try:
                    rule(value)
                except ValueError as err:
                    raise ValueError(f"config key {key!r}: {err}") from err

    @classmethod
    def from_mapping(cls, kv):
        unknown = sorted(set(kv) - set(_KEYS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**{_KEYS[key][0]: _KEYS[key][1](text) for key, text in kv.items()})

    @classmethod
    def from_file(cls, path):
        return cls.from_mapping(parse_config_file(path))

    def echo(self):
        """Snapshot under the config keys, embedded into every report (which
        writes tuples as lists)."""
        return {key: getattr(self, name) for key, (name, _) in _KEYS.items()}
