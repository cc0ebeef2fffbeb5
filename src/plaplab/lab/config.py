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

Values are checked when the config is built, and an error names its key;
p, grids and bounds by the rules of the exponent and the mesh they make.

Modulus families: power, constant, log_inverse (sigma, then optional scale,
beta_cert, c_omega, cert_r_max) and dini_log, log_inverse at sigma = 1.
"""

import math
from dataclasses import dataclass, field

from ..fluxmaps import Exponent
from ..grid import _cells_per_side, _square_bounds

__all__ = ["ExperimentConfig", "parse_config_file"]


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
        if self.n_seeds < 0:
            raise ValueError(f"config key 'n_seeds' must be at least 0, not {self.n_seeds}")
        if self.comps < 1:
            raise ValueError(f"config key 'comps' must be at least 1, not {self.comps}")
        for key in ("r_min_cells", "r_max_frac", "stability_factor"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ValueError(f"config key {key!r} must be positive and finite, not {value}")
        if not self.seed >= 0:
            raise ValueError(f"config key 'seed' must be at least 0, not {self.seed}")
        if not 1.0 <= self.lorentz_r <= math.inf:
            raise ValueError(f"config key 'lorentz_r' must lie in [1, inf], not {self.lorentz_r}")
        # the rules of the objects a run builds from these keys
        for key, rule, values in (("p", Exponent, self.ps), ("grids", _cells_per_side, self.grids),
                                  ("bounds", _square_bounds, [self.bounds])):
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
