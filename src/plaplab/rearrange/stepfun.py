"""Exact decreasing rearrangements as step functions.

A StepFunction is the nonincreasing, right-continuous profile of a
nonnegative field, stored piece by piece as (measure, value); rearrangements
are never resampled.  Its Lebesgue, Lorentz and Luxemburg norms are those of
the norm engine in `hardy`, which takes the profile as constant pieces; the
Marcinkiewicz functional is an exact sup over the piece boundaries, and the
running average f** is the engine's exact `average_transform`.
"""

import numpy as np

from .hardy import DecreasingPieces, LebesgueSpec, LorentzSpec, OrliczSpec, average_transform

__all__ = [
    "StepFunction",
    "PiecewiseConstant",
    "rearrange",
    "double_star",
    "lq_norm",
    "lorentz_norm",
    "luxemburg_norm",
    "marcinkiewicz_norm",
]


class PiecewiseConstant:
    """Nonnegative step data without the monotone invariant.

    Raw profiles like the indicator of (1, 2) feed the tail transform
    directly; their rearrangement is a StepFunction.
    """

    def __init__(self, values, measures):
        values = np.asarray(values, dtype=float)
        measures = np.asarray(measures, dtype=float)
        if values.shape != measures.shape or values.ndim != 1:
            raise ValueError("values and measures must be matching 1-d arrays")
        if not np.all((0.0 < measures) & (measures < np.inf)):
            raise ValueError("piece measures must be finite and positive")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("values must be finite and nonnegative")
        self.values = values
        self.measures = measures
        self.boundaries = np.cumsum(measures)   # right endpoints
        if not np.all(np.diff(self.boundaries, prepend=0.0) > 0.0):
            raise ValueError("a measure below an ulp of the running total leaves an empty piece")

    @property
    def total_measure(self):
        return float(self.boundaries[-1]) if len(self.boundaries) else 0.0


class StepFunction(PiecewiseConstant):
    """Nonincreasing step profile: value values[i] on a piece of measure measures[i]."""

    def __init__(self, values, measures):
        super().__init__(values, measures)
        values = self.values
        if np.any(np.diff(values) > 1e-12 * max(1.0, values.max(initial=0.0))):
            raise ValueError("values must be nonincreasing")

    @classmethod
    def from_samples(cls, values, measures):
        """Sort arbitrary nonnegative samples into a decreasing profile."""
        values = np.abs(np.asarray(values, dtype=float))
        measures = np.asarray(measures, dtype=float)
        order = np.argsort(-values, kind="stable")
        return cls(values[order], measures[order])

    def __call__(self, s):
        """Right-continuous evaluation; 0 beyond the support."""
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.boundaries, s, side="right")
        out = np.where(idx < len(self.values),
                       self.values[np.minimum(idx, len(self.values) - 1)], 0.0)
        return float(out) if out.ndim == 0 else out

    def measure_above(self, t):
        """Measure of the superlevel set {f* > t}, exact."""
        return float(np.sum(self.measures[self.values > t]))

    def scaled(self, factor):
        if factor < 0.0:
            raise ValueError("scaling factor must be nonnegative")
        return StepFunction(self.values * factor, self.measures.copy())


def rearrange(mesh, f):
    """Decreasing rearrangement of a per-element scalar field.

    Carries element areas as piece measures, so the result is exactly
    equimeasurable with |f| on the mesh.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.num_elements,):
        raise ValueError("need one scalar per element")
    return StepFunction.from_samples(np.abs(f), mesh.areas.copy())


def double_star(sf: StepFunction, s):
    """Running average (1/s) * integral of f* over (0, s), >= f*(s), at one
    s > 0 (a float) or at each of an array of them."""
    s = np.asarray(s, dtype=float)
    if not np.all(s > 0.0):
        raise ValueError("s must be positive")
    return average_transform(sf, horizon=s.max())(s)


def lq_norm(sf: StepFunction, q):
    """Lebesgue norm, 1 <= q <= inf; q = inf is the largest value."""
    return LebesgueSpec(q).norm(DecreasingPieces.from_step(sf))


def lorentz_norm(sf: StepFunction, q, r):
    """Two-parameter Lorentz functional of an admissible pair (`LorentzSpec`)."""
    return LorentzSpec(q, r).norm(DecreasingPieces.from_step(sf))


def luxemburg_norm(sf: StepFunction, phi):
    """Smallest lambda with sum of measure * phi(value / lambda) <= 1, to
    relative 1e-10; exact 0 for the zero profile."""
    return OrliczSpec(phi).norm(DecreasingPieces.from_step(sf))


def marcinkiewicz_norm(sf: StepFunction, eta):
    """Weak-type functional sup eta(s) f*(s) over the piece boundaries.

    For nondecreasing eta the supremum over each piece is attained at its
    right endpoint (with the piece's own value, i.e. the left limit of f*).
    """
    if len(sf.values) == 0:
        return 0.0
    weights = np.asarray(eta(sf.boundaries), dtype=float)
    if np.any(np.diff(weights) < -1e-12 * max(1.0, np.abs(weights).max())):
        raise ValueError("eta must be nondecreasing")
    return float(np.max(weights * sf.values))

