"""The norm engine for decreasing profiles, and the one-dimensional
Hardy-type ratio checks behind the norm reduction principle.

A DecreasingPieces stores a nonincreasing profile as coefficient arrays,
raised to one common power.  Three kinds of profile enter it exactly:

* a step profile phi (`DecreasingPieces.from_step`): constant pieces v,
* its running average  s -> (1/s) * integral_0^s phi(r) dr, whose pieces are
  exactly of the form v + a/s,
* its logarithmic tail  s -> integral_s^infty phi(r) dr / r, piecewise
  v log(S / s) + t with S the right end of the piece.

Every Lebesgue, Lorentz and Luxemburg norm in plaplab is evaluated here, on
all pieces at once:

* Lebesgue and Lorentz (finite r) norms are integrals of s^alpha f(s)^r.  A
  constant piece is integrated in closed form, a tail piece at 0 by an upper
  incomplete gamma function.  Every other piece goes to one fixed
  Gauss-Legendre rule on sub-intervals at most a decade wide, in log s, or
  in log(g / v) for a tail piece v log(S / s) + t that vanishes within a
  piece-length and a decade of it.  The rule of twice the order checks each
  piece: QuadratureError where the two differ by more than 1e-10 relative.
* The Lorentz r = inf functional is an exact sup: each piece's endpoints and
  the one interior stationary point of a tail piece.
* Orlicz (Luxemburg) norms take each constant piece as an exact one-node
  rule and every other piece by the same rule, a tail piece at 0 down to
  s = 1e-300.  The profile is evaluated at the nodes once, so each step of
  the Luxemburg search is one dot product.  A profile unbounded at 0 has an
  infinite norm under a Young function that is +inf past a finite point.

Averages extend past the support of phi with their exact C/s tail up to a
finite horizon, so borderline exponents come out large and growing instead
of flatly infinite.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaincc

__all__ = [
    "LebesgueSpec",
    "LorentzSpec",
    "OrliczSpec",
    "DecreasingPieces",
    "QuadratureError",
    "average_transform",
    "tail_log_transform",
    "xq_norm",
    "hardy_check_avg",
    "hardy_check_tail",
]

_ORDER = 16            # Gauss-Legendre nodes per sub-interval, checked at twice the order
_RTOL = 1e-10          # largest relative gap between the two rules on a piece
_TINY = 1e-300         # where the rule in s stops short of 0
_FLOOR = 1e-30         # where the rule in x stops short of a zero of g
_SEARCH_RTOL = 1e-10   # relative bracket width at which the Luxemburg search stops
_MAX_DOUBLINGS = 2000  # doublings of the Luxemburg bracket before it gives up
_NODES, _WEIGHTS = (np.concatenate(pair) for pair in zip(
    *(np.polynomial.legendre.leggauss(n) for n in (_ORDER, 2 * _ORDER))))


class QuadratureError(ArithmeticError):
    """The fixed rule and the rule of twice its order disagree on a piece.

    Carries the piece (index, lo, hi, tail, v, coefficient, power) and the
    integrals of both rules over it.
    """

    def __init__(self, piece, coarse, fine):
        super().__init__(
            f"Gauss-Legendre rules of order {_ORDER} and {2 * _ORDER} disagree on "
            f"piece {piece}: {coarse!r} vs {fine!r}")
        self.piece = piece
        self.coarse = coarse
        self.fine = fine


class DecreasingPieces:
    """A nonincreasing, nonnegative function given piecewise in closed form.

    Piece i lives on (lo[i], hi[i]] (on [0, hi[i]] when lo[i] = 0) and equals
    g_i(s) ** power, with g_i(s) = v[i] * log(hi[i] / s) + c[i] on a tail
    piece and v[i] + c[i] / s on an average piece; 0 off every piece.  An
    average piece that touches 0 must be constant (c = 0).
    """

    def __init__(self, lo, hi, tail, v, c, power=1.0):
        self.lo, self.hi, self.v, self.c = (np.asarray(x, dtype=float) for x in (lo, hi, v, c))
        self.tail = np.asarray(tail, dtype=bool)
        self.power = float(power)
        if not (self.lo.ndim == 1 and all(x.shape == self.lo.shape for x in
                                          (self.hi, self.tail, self.v, self.c))):
            raise ValueError("piece arrays must be matching 1-d arrays")
        if not np.all((0.0 <= self.lo) & (self.lo < self.hi)):
            raise ValueError("piece endpoints must satisfy 0 <= lo < hi")
        if np.any(self.hi[:-1] > self.lo[1:]):
            raise ValueError("pieces must be sorted and must not overlap")
        if np.any((self.lo == 0.0) & ~self.tail & (self.c != 0.0)):
            raise ValueError("an average piece that touches 0 must be constant")
        if not self.power > 0.0:
            raise ValueError("exponent must be positive")

    @classmethod
    def from_step(cls, sf):
        """A step profile as constant average pieces: values v, c = 0."""
        n = len(sf.values)
        return cls(_left_ends(sf), sf.boundaries, np.zeros(n, dtype=bool), sf.values,
                   np.zeros(n))

    def _base(self, k, logs):
        """The unpowered pieces k at s = exp(logs) > 0."""
        v, c = self.v[k], self.c[k]
        return np.where(self.tail[k], v * (np.log(self.hi[k]) - logs) + c,
                        v + c * np.exp(-logs))

    def _at_zero(self, k):
        """The limits of the unpowered pieces k at s = 0+."""
        v = self.v[k]
        return np.where(self.tail[k], np.where(v > 0.0, np.inf, self.c[k]), v)

    def _constant(self):
        """The constant pieces, average pieces with c = 0 and tail pieces
        with v = 0; each one's value is its limit at 0 (`_at_zero`)."""
        return np.where(self.tail, self.v == 0.0, self.c == 0.0)

    def __call__(self, s):
        """Evaluation on the pieces' half-open intervals; 0 off every piece."""
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.hi, s, side="left")
        k = np.minimum(idx, len(self.hi) - 1)
        inside = (idx < len(self.hi)) & ((s > self.lo[k]) | (self.lo[k] == 0.0))
        pos = s > 0.0
        g = np.where(pos, self._base(k, np.log(np.where(pos, s, 1.0))), self._at_zero(k))
        out = np.where(inside, np.maximum(g, 0.0) ** self.power, 0.0)
        return float(out) if out.ndim == 0 else out

    def powered(self, expo):
        if expo <= 0.0:
            raise ValueError("exponent must be positive")
        return DecreasingPieces(self.lo, self.hi, self.tail, self.v, self.c,
                                self.power * expo)


def _rule(pw, pieces):
    """Both Gauss-Legendre rules on the given pieces: (piece, log s, g, weight).

    A tail piece whose g = v log(hi / s) + c vanishes within one piece-length
    and one decade of it (c / v at most log(hi / lo) and log 10) is integrated
    in log x, x = g / v, so the rule resolves every power of g near its zero
    at s = hi exp(c / v); x runs down to at most _FLOOR of its upper end.
    Every other piece is integrated in log s, where g changes by at most a
    factor of 2 over a decade (in log x a farther zero would stretch each
    sub-interval over many units of the weight's exp(-x) decay).  A piece
    that touches 0 is taken down to s = _TINY, about 690 units of log s
    below its right end.  Sub-intervals are equal and at most a decade wide.
    Arrays are (sub-interval, node), the coarse rule's nodes first; the
    weights are those of ds.
    """
    lo, hi, v, c = pw.lo[pieces], pw.hi[pieces], pw.v[pieces], pw.c[pieces]
    lo = np.maximum(lo, _TINY)
    span = np.log(hi / lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = c / v
    in_x = pw.tail[pieces] & (v > 0.0) & (x0 <= np.minimum(span, np.log(10.0)))
    x0 = np.where(in_x, x0, 0.0)
    top = np.where(in_x, x0 + span, hi)
    bottom = np.where(in_x, np.maximum(x0, top * _FLOOR), lo)

    lbot, ltop = np.log(bottom), np.log(top)
    parts = np.maximum(np.ceil((ltop - lbot) / np.log(10.0)), 1.0).astype(np.intp)
    sub = np.repeat(np.arange(len(pieces)), parts)
    first = np.repeat(np.cumsum(parts) - parts, parts)
    half = 0.5 * ((ltop - lbot) / parts)[sub]
    left = lbot[sub] + 2.0 * half * (np.arange(len(sub)) - first)
    u = left[:, None] + half[:, None] * (_NODES + 1.0)
    var = np.exp(u)
    xk = in_x[sub][:, None]
    piece = pieces[sub]
    logs = np.where(xk, (np.log(hi) + x0)[sub][:, None] - var, u)
    g = np.where(xk, v[sub][:, None] * var, pw._base(piece[:, None], u))
    weights = _WEIGHTS * half[:, None] * var * np.where(xk, np.exp(logs), 1.0)
    return piece, logs, np.maximum(g, 0.0), weights


def _rule_sums(pw, piece, values):
    """Per-piece integrals of both rules; QuadratureError where they disagree."""
    n = len(pw.lo)
    coarse = np.bincount(piece, values[:, :_ORDER].sum(axis=1), minlength=n)
    fine = np.bincount(piece, values[:, _ORDER:].sum(axis=1), minlength=n)
    bad = np.flatnonzero(~(np.abs(coarse - fine) <= _RTOL * np.abs(fine)))
    if len(bad):
        i = int(bad[0])
        raise QuadratureError((i, float(pw.lo[i]), float(pw.hi[i]), bool(pw.tail[i]),
                               float(pw.v[i]), float(pw.c[i]), pw.power),
                              float(coarse[i]), float(fine[i]))
    return fine


def _tail_at_zero(pw, i, kappa, beta):
    """Closed-form integral of s^(kappa - 1) g(s)^beta over the tail piece i
    at 0, v > 0."""
    hi, v, c = pw.hi[i], pw.v[i], pw.c[i]
    # with s = hi exp(c/v - w): hi^kappa v^beta e^z int_{c/v}^inf w^beta
    # e^(-kappa w) dw, z = kappa c / v
    z, a = kappa * c / v, beta + 1.0
    if z < a + 1.0:
        return (hi ** kappa * v ** beta * kappa ** -a * np.exp(z)
                * gamma(a) * gammaincc(a, z))
    # the same without overflow for large z (scipy's Tricomi U(1, a + 1, z)
    # is this too, but 28 % off at a = 3 - 9e-16, just below an integer)
    return hi ** kappa * c ** beta * z * _scaled_upper_gamma(a, z) / kappa


def _scaled_upper_gamma(a, z):
    """e^z z^-a Gamma(a, z) for z >= a + 1, by Legendre's continued fraction
    (modified Lentz), whose denominators stay positive there: at most 64
    terms and 3e-15 from mpmath for a <= 400."""
    b = z + 1.0 - a
    c, d = np.inf, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d, c = 1.0 / (an * d + b), b + an / c
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"continued fraction for Gamma({a}, {z}) did not converge")


def _power_moment(pw, alpha, beta):
    """Integral of s^alpha f(s)^(beta / power) over every piece of pw."""
    kappa = alpha + 1.0
    const = pw._constant()
    total = np.sum(pw._at_zero(const) ** beta
                   * (pw.hi[const] ** kappa - pw.lo[const] ** kappa)) / kappa
    total += sum(_tail_at_zero(pw, i, kappa, beta)
                 for i in np.flatnonzero((pw.lo == 0.0) & ~const))
    rest = np.flatnonzero((pw.lo > 0.0) & ~const)
    if len(rest):
        piece, logs, g, weights = _rule(pw, rest)
        total += _rule_sums(pw, piece, weights * np.exp(alpha * logs) * g ** beta).sum()
    return float(total)


def _lorentz_sup(pw, q):
    """sup over s of s^(1/q) f(s), exact: endpoints and stationary points.

    With f = g^c this is the c-th power of the sup of s^(1/(q c)) g(s).  An
    average piece is monotone or has its stationary point at a minimum, so
    its sup sits at an endpoint; a tail piece peaks at s = hi exp(t/v - q c).
    """
    qc = q * pw.power
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        peak = pw.hi * np.exp(pw.c / pw.v - qc)
    inside = pw.tail & (peak > pw.lo) & (peak < pw.hi)
    k = np.concatenate([np.arange(len(pw.lo)), np.arange(len(pw.lo)), np.flatnonzero(inside)])
    s = np.concatenate([pw.lo, pw.hi, peak[inside]])
    pos = s > 0.0
    logs = np.log(np.where(pos, s, 1.0))
    h = np.maximum(pw._base(k, logs), 0.0) * np.exp(logs / qc)
    # at s = 0 the weight s^(1/(q c)) wins over the logarithm of a tail piece
    h = np.where(pos, h, 0.0 if qc < np.inf else pw._at_zero(k))
    return float(h.max(initial=0.0)) ** pw.power


def _luxemburg_search(modular, start):
    """Smallest lambda with modular(lambda) <= 1 for a nonincreasing modular.

    Doubles from start until the modular is at most 1 (ValueError after
    _MAX_DOUBLINGS), halves until it exceeds 1 to bracket the crossing, then
    bisects to _SEARCH_RTOL; 0 when the modular stays at most 1 down to
    lambda = 1e-300.
    """
    hi = start
    grow = 0
    while modular(hi) > 1.0:
        hi *= 2.0
        grow += 1
        if grow > _MAX_DOUBLINGS:
            raise ValueError("no finite Luxemburg norm for this profile")
    lo = hi
    while modular(lo) <= 1.0 and lo > 1e-300:
        lo *= 0.5
    if lo <= 1e-300:
        return 0.0
    while (hi - lo) > _SEARCH_RTOL * hi:
        mid = 0.5 * (hi + lo)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return float(hi)


@dataclass(frozen=True)
class LebesgueSpec:
    q: float

    def norm(self, pw):
        return _power_moment(pw, 0.0, self.q * pw.power) ** (1.0 / self.q)


@dataclass(frozen=True)
class LorentzSpec:
    q: float
    r: float

    def norm(self, pw):
        if self.r == np.inf:
            return _lorentz_sup(pw, self.q)
        return _power_moment(pw, self.r / self.q - 1.0, self.r * pw.power) ** (1.0 / self.r)


@dataclass(frozen=True)
class OrliczSpec:
    phi: object

    def norm(self, pw):
        # past a finite point phi is +inf, and a profile unbounded at 0
        # exceeds every multiple of that point on a set of positive measure
        unbounded = np.any((pw.lo == 0.0) & pw.tail & (pw.v > 0.0))
        if unbounded and self.phi.infinite_beyond < np.inf:
            return np.inf
        const = pw._constant()
        piece, _, g, weights = _rule(pw, np.flatnonzero(~const))
        f = g ** pw.power
        # the constant pieces are exact one-node rules
        f_fine = np.concatenate([f[:, _ORDER:].ravel(), pw._at_zero(const) ** pw.power])
        w_fine = np.concatenate([weights[:, _ORDER:].ravel(), (pw.hi - pw.lo)[const]])

        def modular(lam):
            with np.errstate(over="ignore"):
                total = float(self.phi(f_fine / lam) @ w_fine)
            return total if np.isfinite(total) else np.inf

        top = float(f_fine.max(initial=0.0))
        if top == 0.0:
            return 0.0
        lam = _luxemburg_search(modular, top)
        if lam > 0.0:
            with np.errstate(over="ignore"):
                _rule_sums(pw, piece, weights * self.phi(f / lam))
        return lam


def _left_ends(sf):
    """Left ends of a step profile's pieces."""
    return np.concatenate([[0.0], sf.boundaries[:-1]])


def average_transform(sf, horizon=None):
    """Exact running average of a decreasing step profile.

    On the i-th piece the average equals v_i + (C_{i-1} - v_i S_{i-1}) / s
    with C the cumulative integral; past the support it decays like
    C_total / s, kept up to the horizon (default: the profile's own total
    measure, i.e. no extension).
    """
    right, left = sf.boundaries, _left_ends(sf)
    cum = np.concatenate([[0.0], np.cumsum(sf.measures * sf.values)])
    lo, hi, v, a = left, right, sf.values, cum[:-1] - sf.values * left
    total = sf.total_measure
    horizon = total if horizon is None else float(horizon)
    if horizon > total:
        lo, hi = np.append(lo, total), np.append(hi, horizon)
        v, a = np.append(v, 0.0), np.append(a, cum[-1])
    return DecreasingPieces(lo, hi, np.zeros(len(lo), dtype=bool), v, a)


def tail_log_transform(sf):
    """Exact logarithmic tail integral of a step profile.

    integral_s^infty phi(r) dr/r is v_i log(S_i / s) plus the accumulated
    contributions of the pieces beyond S_i; zero past the support.
    """
    right, left = sf.boundaries, _left_ends(sf)
    # the first piece reaches s = 0, where its own log integral diverges; it
    # is a tail piece like the others, so its segment value is never formed
    seg = sf.values * np.log(np.where(left > 0.0, right / np.maximum(left, 1e-300), 1.0))
    # tails[i] = contribution of pieces strictly after piece i
    tails = np.concatenate([np.cumsum(seg[::-1])[::-1][1:], [0.0]])
    return DecreasingPieces(left, right, np.ones(len(right), dtype=bool), sf.values, tails)


def xq_norm(spec, q0, pw):
    """The power-scaled functional f -> (X-norm of f^q0)^(1/q0) of a
    DecreasingPieces."""
    return spec.norm(pw.powered(q0)) ** (1.0 / q0)


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
        denom = xq_norm(spec, q0, DecreasingPieces.from_step(sf))
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
        denom = spec_x.norm(DecreasingPieces.from_step(sf))
        if denom == 0.0:
            ratios.append(0.0)
            continue
        ratios.append(spec_y.norm(tail_log_transform(sf)) / denom)
    return ratios
