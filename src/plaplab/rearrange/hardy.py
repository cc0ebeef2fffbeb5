"""One-dimensional Hardy-type ratio checks behind the norm reduction principle.

Two operators act on decreasing step profiles phi:

* the running average  s -> (1/s) * integral_0^s phi(r) dr, whose pieces are
  exactly of the form b + a/s,
* the logarithmic tail  s -> integral_s^infty phi(r) dr / r, piecewise
  c + v log(s_i / s).

Both transforms are computed exactly piece by piece; the norms of the
transformed (no longer step) functions are integrated per piece with
adaptive quadrature.  Averages extend past the support of phi with their
exact C/s tail up to a finite horizon, so borderline exponents come out
large and growing instead of flatly infinite.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .stepfun import (StepFunction, _luxemburg_search, lorentz_norm,
                      luxemburg_norm, lq_norm)

__all__ = [
    "LebesgueSpec",
    "LorentzSpec",
    "OrliczSpec",
    "DecreasingPieces",
    "average_transform",
    "tail_log_transform",
    "xq_norm",
    "hardy_check_avg",
    "hardy_check_tail",
]

_QUAD_OPTS = dict(limit=200, epsabs=1e-12, epsrel=1e-10)


def _quad_log(fn, lo, hi):
    """Adaptive quadrature with decade splitting, robust on wide spans."""
    if hi <= lo:
        return 0.0
    anchor = max(lo, hi * 1e-16)
    cuts = [lo]
    c = anchor if lo == 0.0 else lo
    while c * 10.0 < hi:
        c *= 10.0
        cuts.append(c)
    cuts.append(hi)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b > a:
            val, _ = quad(fn, a, b, **_QUAD_OPTS)
            total += val
    return total


class DecreasingPieces:
    """A nonincreasing, nonnegative function given piecewise by callables."""

    def __init__(self, pieces):
        # pieces: list of (lo, hi, fn) with 0 <= lo < hi
        self.pieces = [(float(lo), float(hi), fn) for lo, hi, fn in pieces]
        for lo, hi, _ in self.pieces:
            if not (0.0 <= lo < hi):
                raise ValueError("piece endpoints must satisfy 0 <= lo < hi")

    def __call__(self, s):
        s = float(s)
        for lo, hi, fn in self.pieces:
            if lo < s <= hi or (lo == 0.0 and s <= hi):
                return max(float(fn(s)), 0.0)
        return 0.0

    def powered(self, expo):
        if expo <= 0.0:
            raise ValueError("exponent must be positive")
        return DecreasingPieces(
            [(lo, hi, (lambda f: (lambda s: f(s) ** expo))(fn))
             for lo, hi, fn in self.pieces])


def average_transform(sf: StepFunction, horizon=None):
    """Exact running average of a decreasing step profile.

    On the i-th piece the average equals v_i + (C_{i-1} - v_i S_{i-1}) / s
    with C the cumulative integral; past the support it decays like
    C_total / s, kept up to the horizon (default: the profile's own total
    measure, i.e. no extension).
    """
    pieces = []
    right = sf.boundaries
    left = np.concatenate([[0.0], right[:-1]])
    cum = np.concatenate([[0.0], np.cumsum(sf.measures * sf.values)])
    for i in range(len(sf.values)):
        v = sf.values[i]
        a = cum[i] - v * left[i]
        pieces.append((left[i], right[i],
                       (lambda vv, aa: (lambda s: vv + aa / s))(v, a)))
    total = sf.total_measure
    horizon = total if horizon is None else float(horizon)
    if horizon > total:
        c_total = float(cum[-1])
        pieces.append((total, horizon, (lambda s: c_total / s)))
    return DecreasingPieces(pieces)


def tail_log_transform(sf: StepFunction):
    """Exact logarithmic tail integral of a step profile.

    integral_s^infty phi(r) dr/r is v_i log(S_i / s) plus the accumulated
    contributions of the pieces beyond S_i; zero past the support.
    """
    right = sf.boundaries
    left = np.concatenate([[0.0], right[:-1]])
    # tail[i] = contribution of pieces strictly after piece i
    seg = sf.values * np.log(np.where(left > 0.0, right / np.maximum(left, 1e-300), 1.0))
    # the first piece reaches s = 0 where the log integral diverges; its own
    # segment value over (s, S_0] is handled in the closure below
    tails = np.concatenate([np.cumsum(seg[::-1])[::-1][1:], [0.0]])
    pieces = []
    for i in range(len(sf.values)):
        v = sf.values[i]
        s_hi = right[i]
        t = tails[i]
        pieces.append((left[i], right[i],
                       (lambda vv, hh, tt: (lambda s: vv * np.log(hh / s) + tt))(v, s_hi, t)))
    return DecreasingPieces(pieces)


@dataclass(frozen=True)
class LebesgueSpec:
    q: float

    def norm_step(self, sf):
        return lq_norm(sf, self.q)

    def norm_pieces(self, pw):
        total = 0.0
        for lo, hi, fn in pw.pieces:
            total += _quad_log(lambda s: fn(s) ** self.q, lo, hi)
        return total ** (1.0 / self.q)

    def label(self):
        return f"L^{self.q:g}"


@dataclass(frozen=True)
class LorentzSpec:
    q: float
    r: float

    def norm_step(self, sf):
        return lorentz_norm(sf, self.q, self.r)

    def norm_pieces(self, pw):
        if self.r == np.inf:
            best = 0.0
            for lo, hi, fn in pw.pieces:
                ss = np.geomspace(max(lo, hi * 1e-12), hi, 128)
                best = max(best, max(s ** (1.0 / self.q) * fn(s) for s in ss))
            return best
        expo = self.r / self.q - 1.0
        total = 0.0
        for lo, hi, fn in pw.pieces:
            total += _quad_log(lambda s: s ** expo * fn(s) ** self.r, lo, hi)
        return total ** (1.0 / self.r)

    def label(self):
        return f"L^({self.q:g},{self.r:g})"


@dataclass(frozen=True)
class OrliczSpec:
    phi: object

    def norm_step(self, sf):
        return luxemburg_norm(sf, self.phi)

    def norm_pieces(self, pw, rel_tol=1e-8):
        def modular(lam):
            total = 0.0
            for lo, hi, fn in pw.pieces:
                # cap so stray infinities from e.g. capped powers stay comparable
                total += _quad_log(
                    lambda s: min(float(self.phi(fn(s) / lam)), 1e300), lo, hi)
            return total if np.isfinite(total) else np.inf

        top = max(fn(lo if lo > 0 else hi * 1e-9) for lo, hi, fn in pw.pieces)
        if top == 0.0:
            return 0.0
        return _luxemburg_search(modular, max(top, 1.0), 2000,
                                 "no finite Luxemburg norm for this function", rel_tol)

    def label(self):
        return "Orlicz"


def xq_norm(spec, q0, obj):
    """The power-scaled functional f -> (X-norm of f^q0)^(1/q0)."""
    if isinstance(obj, StepFunction):
        return spec.norm_step(obj.powered(q0)) ** (1.0 / q0)
    return spec.norm_pieces(obj.powered(q0)) ** (1.0 / q0)


def hardy_check_avg(spec, p, family, horizon=None):
    """Averaged-Hardy ratios in the X^(1/p') scale, one per family member.

    ratio = || (1/s) int_0^s phi ||_{X^(1/p')} / || phi ||_{X^(1/p')}.
    A horizon of None extends each average to the largest total measure in
    the family, so members are compared over a common interval.
    """
    q0 = 1.0 / p.pprime
    if horizon is None:
        horizon = max(sf.total_measure for sf in family)
    ratios = []
    for sf in family:
        denom = xq_norm(spec, q0, sf)
        if denom == 0.0:
            ratios.append(0.0)
            continue
        avg = average_transform(sf, horizon=max(horizon, sf.total_measure))
        ratios.append(xq_norm(spec, q0, avg) / denom)
    return ratios


def hardy_check_tail(spec_x, spec_y, family):
    """Tail-Hardy ratios || int_s^inf phi dr/r ||_Y / || phi ||_X per member.

    Step profiles have compact support, so the tail integral is always
    finite; it is computed in exact piecewise-logarithmic form.
    """
    ratios = []
    for sf in family:
        denom = spec_x.norm_step(sf)
        if denom == 0.0:
            ratios.append(0.0)
            continue
        tail = tail_log_transform(sf)
        if isinstance(spec_y, (LebesgueSpec, LorentzSpec, OrliczSpec)):
            num = spec_y.norm_pieces(tail)
        else:
            raise TypeError("unsupported norm spec")
        ratios.append(num / denom)
    return ratios
