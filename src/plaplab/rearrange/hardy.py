"""The norm engine for decreasing profiles, and the one-dimensional
Hardy-type ratio checks behind the norm reduction principle.

A DecreasingPieces stores a family of nonincreasing profiles as stacked
coefficient arrays with a member index, all raised to one common power; a
single profile is the family of one.  Three kinds of profile enter it
exactly:

* a step profile phi (`DecreasingPieces.from_step`): constant pieces v,
* its running average  s -> (1/s) * integral_0^s phi(r) dr, whose pieces are
  exactly of the form v + a/s,
* its logarithmic tail  s -> integral_s^infty phi(r) dr / r, piecewise
  v log(S / s) + t with S the right end of the piece.

Each transform takes one step profile or a sequence of them and builds the
stacked family directly, each member's running sums from its own pieces.
`DecreasingPieces(...)` checks the pieces it is given; the families the
engine derives (from step profiles, which check their own pieces, by the
transforms and by powers) skip those checks.  Every Lebesgue, Lorentz and
Luxemburg norm in plaplab is evaluated here, on all pieces of all members
at once (`norms`; `norm` is the family of one):

* Lebesgue (finite q) and Lorentz (finite r) norms are integrals of
  s^alpha f(s)^r.  A constant piece is integrated in closed form, a tail
  piece at 0 by an upper incomplete gamma function.  Every other piece goes
  to one fixed Gauss-Legendre rule on sub-intervals at most a decade wide,
  in log s, or in log(g / v) for a tail piece v log(S / s) + t that vanishes
  within a piece-length and a decade of it.  The rule of twice the order
  checks each piece: QuadratureError where the two differ by more than
  1e-10 relative.
* The Lorentz r = inf functional, and with it the L^inf norm, is an exact
  sup: each piece's endpoints and the one interior stationary point of a
  tail piece.
* Orlicz (Luxemburg) norms take each constant piece as an exact one-node
  rule and every other piece by the same rule, a tail piece at 0 down to
  s = 1e-300.  The family is evaluated at the nodes once, so each step of
  the Luxemburg search, which bisects every member's bracket at once, is one
  array pass.  A profile unbounded at 0 has an infinite norm under a Young
  function that is +inf past a finite point.

A member's norm does not depend on the rest of the family: its sums are
taken in numpy's pairwise order over its own pieces, and its roots by
np.float_power, which rounds like the scalar power (numpy's vectorized
power can differ from it in the last bit).  So it is bitwise the norm of
that member alone.

Averages extend past the support of phi with their exact C/s tail up to a
finite horizon, so borderline exponents come out large and growing instead
of flatly infinite.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LebesgueSpec",
    "LorentzSpec",
    "OrliczSpec",
    "DecreasingPieces",
    "QuadratureError",
    "average_transform",
    "tail_log_transform",
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

    Carries the family member, the piece (index within the member, lo, hi,
    tail, v, coefficient, power) and the integrals of both rules over it.
    """

    def __init__(self, member, piece, coarse, fine):
        super().__init__(
            f"Gauss-Legendre rules of order {_ORDER} and {2 * _ORDER} disagree on "
            f"member {member}, piece {piece}: {coarse!r} vs {fine!r}")
        self.member = member
        self.piece = piece
        self.coarse = coarse
        self.fine = fine


class DecreasingPieces:
    """A family of nonincreasing, nonnegative functions given piecewise in
    closed form.

    Piece i belongs to member member[i] and lives on (lo[i], hi[i]] (on
    [0, hi[i]] when lo[i] = 0), where that member equals g_i(s) ** power,
    with g_i(s) = v[i] * log(hi[i] / s) + c[i] on a tail piece and
    v[i] + c[i] / s on an average piece; a member is 0 off its pieces.  The
    member index is sorted, each member's pieces are sorted and disjoint, and
    an average piece that touches 0 must be constant (c = 0).  The default
    is a single profile: every piece in member 0 of 1.
    """

    def __init__(self, lo, hi, tail, v, c, power=1.0, member=None, members=1):
        self._set(lo, hi, tail, v, c, power, np.zeros(len(lo)) if member is None else member,
                  members)
        if not (self.lo.ndim == 1 and all(x.shape == self.lo.shape for x in
                                          (self.hi, self.tail, self.v, self.c, self.member))):
            raise ValueError("piece arrays must be matching 1-d arrays")
        if np.any(np.diff(self.member) < 0) or not np.all(
                (0 <= self.member) & (self.member < self.members)):
            raise ValueError("the member index must be sorted and below the member count")
        if not np.all((0.0 <= self.lo) & (self.lo < self.hi)):
            raise ValueError("piece endpoints must satisfy 0 <= lo < hi")
        same = self.member[1:] == self.member[:-1]
        if np.any(same & (self.hi[:-1] > self.lo[1:])):
            raise ValueError("pieces must be sorted and must not overlap")
        if np.any((self.lo == 0.0) & ~self.tail & (self.c != 0.0)):
            raise ValueError("an average piece that touches 0 must be constant")

    def _set(self, lo, hi, tail, v, c, power, member, members):
        """The attributes in the constructor's dtypes, and the power's check;
        the families the engine derives are built by this alone."""
        self.lo, self.hi, self.v, self.c = (np.asarray(x, dtype=float) for x in (lo, hi, v, c))
        self.tail = np.asarray(tail, dtype=bool)
        self.member = np.asarray(member, dtype=np.intp)
        self.members = int(members)
        self.power = float(power)
        if not self.power > 0.0:
            raise ValueError("exponent must be positive")
        return self

    @classmethod
    def _derived(cls, *args):
        return cls.__new__(cls)._set(*args)

    @classmethod
    def from_step(cls, profiles):
        """Step profiles as constant average pieces: values v, c = 0.  Takes
        one profile or a sequence of them, one member each."""
        member, counts, lo, hi, v, _ = _steps(profiles)
        return cls._derived(lo, hi, np.zeros(len(lo), dtype=bool), v, np.zeros(len(lo)), 1.0,
                            member, len(counts))

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
        """Evaluation of a single profile on the pieces' half-open
        intervals; 0 off every piece."""
        if self.members != 1:
            raise ValueError(f"evaluation needs a single profile, not {self.members}")
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.hi, s, side="left")
        k = np.minimum(idx, len(self.hi) - 1)
        inside = (idx < len(self.hi)) & ((s > self.lo[k]) | (self.lo[k] == 0.0))
        pos = s > 0.0
        g = np.where(pos, self._base(k, np.log(np.where(pos, s, 1.0))), self._at_zero(k))
        out = np.where(inside, np.maximum(g, 0.0) ** self.power, 0.0)
        return float(out) if out.ndim == 0 else out

    def powered(self, expo):
        return self._derived(self.lo, self.hi, self.tail, self.v, self.c, self.power * expo,
                             self.member, self.members)


def _steps(profiles, horizon=None):
    """One step profile, or a sequence of them, stacked: the member index, each
    member's piece count, and each piece's left and right end, value and
    measure.  A horizon beyond a member's total measure T gives it one more
    piece, of value and measure 0, on (T, horizon]."""
    profiles = [profiles] if hasattr(profiles, "boundaries") else list(profiles)
    counts = np.array([len(sf.values) for sf in profiles], dtype=np.intp)
    hi, v, measure = (np.concatenate([np.zeros(0)] + [getattr(sf, key) for sf in profiles])
                      for key in ("boundaries", "values", "measures"))
    if horizon is not None:
        beyond = float(horizon) > np.array([sf.total_measure for sf in profiles])
        hi, v, measure = np.insert([hi, v, measure], np.cumsum(counts)[beyond],
                                   [[float(horizon)], [0.0], [0.0]], axis=1)
        counts = counts + beyond
    member = np.repeat(np.arange(len(profiles)), counts)
    lo = np.zeros(len(hi))
    lo[1:] = hi[:-1]
    lo[1:][member[1:] != member[:-1]] = 0.0      # each member's first piece
    return member, counts, lo, hi, v, measure


def _running_sums(counts, x):
    """Per member, np.cumsum of 0 and its own slice of x (counts[m] entries for
    member m), so that no sum depends on the rest of the family: entry
    i + member[i] is the sum of the pieces before piece i, and each member
    ends with one more entry, its total."""
    out = np.insert(x, np.cumsum(counts) - counts, 0.0)
    ends = np.cumsum(counts + 1)
    for a, b in zip((ends - counts - 1).tolist(), ends.tolist()):
        np.add.accumulate(out[a:b], out=out[a:b])     # np.cumsum, less its wrapper
    return out


def _member_sums(member, members, values):
    """Per member, np.sum of its own slice of values laid out by the sorted
    member index, so that a total does not depend on the rest of the family."""
    cuts = np.searchsorted(member, np.arange(members + 1)).tolist()
    return np.array([values[a:b].sum() for a, b in zip(cuts[:-1], cuts[1:])])


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
    below its right end, and a piece that ends at or below _TINY is left
    out (in s its nodes would fall past exp's range).  Sub-intervals are equal and at most a decade wide.
    Arrays are (sub-interval, node), the coarse rule's nodes first; the
    weights are those of ds.
    """
    pieces = pieces[pw.hi[pieces] > _TINY]
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
    piece, xs = pieces[sub], in_x[sub]    # on log-x rows x = var, s = hi exp(x0 - x)
    logs, g = u.copy(), np.empty(u.shape)
    logs[xs] = (np.log(hi) + x0)[sub[xs], None] - var[xs]
    g[xs] = v[sub[xs], None] * var[xs]
    g[~xs] = pw._base(piece[~xs, None], u[~xs])
    weights = _WEIGHTS * half[:, None] * var
    weights[xs] *= np.exp(logs[xs])
    return piece, logs, np.maximum(g, 0.0), weights


def _rule_sums(pw, piece, values):
    """Per-piece integrals of both rules; QuadratureError where they disagree."""
    n = len(pw.lo)
    coarse = np.bincount(piece, values[:, :_ORDER].sum(axis=1), minlength=n)
    fine = np.bincount(piece, values[:, _ORDER:].sum(axis=1), minlength=n)
    bad = np.flatnonzero(~(np.abs(coarse - fine) <= _RTOL * np.abs(fine)))
    if len(bad):
        i = int(bad[0])
        m = int(pw.member[i])
        raise QuadratureError(m, (i - int(np.searchsorted(pw.member, m)),
                                  float(pw.lo[i]), float(pw.hi[i]), bool(pw.tail[i]),
                                  float(pw.v[i]), float(pw.c[i]), pw.power),
                              float(coarse[i]), float(fine[i]))
    return fine


def _tail_at_zero(pw, k, kappa, beta):
    """Closed-form integrals of s^(kappa - 1) g(s)^beta over the tail pieces
    k at 0, v > 0."""
    hi, v, c = pw.hi[k], pw.v[k], pw.c[k]
    # with s = hi exp(c/v - w): hi^kappa v^beta e^z int_{c/v}^inf w^beta
    # e^(-kappa w) dw, z = kappa c / v
    z, a = kappa * c / v, beta + 1.0
    small = z < a + 1.0
    out = np.empty(len(k))
    out[small] = (hi[small] ** kappa * v[small] ** beta * kappa ** -a
                  * _exp_upper_gamma(a, z[small]))
    # the same without overflow for large z
    big = ~small
    out[big] = hi[big] ** kappa * c[big] ** beta * z[big] * _scaled_upper_gamma(a, z[big]) / kappa
    return out


def _exp_upper_gamma(a, z):
    """e^z Gamma(a, z) for 0 <= z < a + 1: e^z Gamma(a) less e^z gamma(a, z),
    the lower incomplete gamma by its power series z^a sum_k z^k / (a (a + 1)
    ... (a + k)).  Its terms fall by z / (a + k) < 1 each; a term below 1e-17
    of its sum no longer changes it."""
    term = np.full(z.shape, 1.0 / a)
    total = term.copy()
    for k in range(1, 10000):
        if np.all(term < 1e-17 * total):
            return math.gamma(a) * np.exp(z) - z ** a * total
        term = term * z / (a + k)
        total += term
    raise ArithmeticError(f"series for gamma({a}, z) did not converge")


def _scaled_upper_gamma(a, z):
    """e^z z^-a Gamma(a, z) for z >= a + 1, by Legendre's continued fraction
    (modified Lentz), whose denominators stay positive there: at most 64
    terms and 3e-15 from mpmath for a <= 400.  Each entry of z stops at its
    own convergence."""
    out = np.empty(z.shape)
    at = np.arange(len(z))
    b = z + 1.0 - a
    c, d = np.full(z.shape, np.inf), 1.0 / b
    h = d
    for i in range(1, 1000):
        if not len(at):
            return out
        an = -i * (i - a)
        b = b + 2.0
        d, c = 1.0 / (an * d + b), b + an / c
        h = h * (d * c)
        done = np.abs(d * c - 1.0) < 1e-15
        out[at[done]] = h[done]
        at, b, c, d, h = (x[~done] for x in (at, b, c, d, h))
    raise ArithmeticError(f"continued fraction for Gamma({a}, z) did not converge")


def _power_moment(pw, alpha, beta):
    """Integral of s^alpha f(s)^(beta / power) over the pieces of each member."""
    kappa = alpha + 1.0
    const = pw._constant()
    total = _member_sums(pw.member[const], pw.members, pw._at_zero(const) ** beta
                         * (pw.hi[const] ** kappa - pw.lo[const] ** kappa)) / kappa
    # a member's piece at 0 comes first, so each member has at most one
    at_zero = np.flatnonzero((pw.lo == 0.0) & ~const)
    if len(at_zero):
        total[pw.member[at_zero]] += _tail_at_zero(pw, at_zero, kappa, beta)
    rest = np.flatnonzero((pw.lo > 0.0) & ~const)
    if len(rest):
        piece, logs, g, weights = _rule(pw, rest)
        total += _member_sums(pw.member, pw.members,
                              _rule_sums(pw, piece, weights * np.exp(alpha * logs) * g ** beta))
    return total


def _lorentz_sup(pw, q):
    """sup over s of s^(1/q) f(s) per member, exact: endpoints and
    stationary points.

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
    best = np.zeros(pw.members)
    np.maximum.at(best, pw.member[k], h)
    return np.float_power(best, pw.power)


def _luxemburg_search(modular, start):
    """Smallest lambda with modular(lambda) <= 1, for each entry of start.

    modular maps an array of lambdas to the array of their modulars, each
    nonincreasing in its own lambda; a nan modular counts as above 1.  Each
    entry doubles from its start until its modular is at most 1 (ValueError
    after _MAX_DOUBLINGS, or where lambda overflows), halves until it
    exceeds 1 to bracket the crossing, then bisects to _SEARCH_RTOL; 0 where
    the modular stays at most 1 down to lambda = 1e-300.  The entries move
    together, one modular call a step, and each takes the steps it would
    take alone.
    """
    hi = np.array(start, dtype=float)
    grow = np.zeros(hi.shape, dtype=int)
    m = modular(hi)
    up = ~(m <= 1.0)
    while up.any():
        with np.errstate(over="ignore"):
            hi = np.where(up, 2.0 * hi, hi)
        grow += up
        stuck = np.flatnonzero(up & ((grow > _MAX_DOUBLINGS) | (hi == np.inf)))
        if len(stuck):
            raise ValueError(f"no finite Luxemburg norm for member {stuck[0]}: its "
                             f"modular stays above 1 through {grow[stuck[0]]} doublings")
        m = modular(hi)
        up = ~(m <= 1.0)
    lo = hi
    down = (m <= 1.0) & (lo > 1e-300)
    while down.any():
        lo = np.where(down, 0.5 * lo, lo)
        down &= (modular(lo) <= 1.0) & (lo > 1e-300)
    zero = lo <= 1e-300
    wide = ~zero
    while True:
        wide &= (hi - lo) > _SEARCH_RTOL * hi
        if not wide.any():
            return np.where(zero, 0.0, hi)
        # the modular at the midpoints of settled entries goes unused
        mid = 0.5 * (hi + lo)
        below = modular(mid) <= 1.0
        hi = np.where(wide & below, mid, hi)
        lo = np.where(wide & ~below, mid, lo)


class _Spec:
    """A norm: `norms` of a family, `norm` of a single profile."""

    def norm(self, pw):
        if pw.members != 1:
            raise ValueError(f"norm takes a single profile, not a family of {pw.members}")
        return float(self.norms(pw)[0])


@dataclass(frozen=True)
class LebesgueSpec(_Spec):
    """The L^q norm, 1 <= q <= inf: the Lorentz functional at r = q."""
    q: float

    def __post_init__(self):
        if not 1.0 <= self.q <= np.inf:
            raise ValueError(f"Lebesgue exponent must lie in [1, inf], not {self.q}")

    def norms(self, pw):
        return LorentzSpec(self.q, self.q).norms(pw)


@dataclass(frozen=True)
class LorentzSpec(_Spec):
    """The Lorentz functional of an admissible pair: (1, 1), (inf, inf) (the
    largest value), or 1 < q < inf with 1 <= r <= inf."""
    q: float
    r: float

    def __post_init__(self):
        q, r = self.q, self.r
        if not (q == r == 1.0 or q == r == np.inf or (1.0 < q < np.inf and 1.0 <= r <= np.inf)):
            raise ValueError(f"inadmissible Lorentz pair (q={q}, r={r}): need (1, 1), (inf, inf) "
                             f"or 1 < q < inf with r in [1, inf]")

    def norms(self, pw):
        if self.r == np.inf:
            return _lorentz_sup(pw, self.q)
        return np.float_power(_power_moment(pw, self.r / self.q - 1.0, self.r * pw.power),
                              1.0 / self.r)


@dataclass(frozen=True)
class OrliczSpec(_Spec):
    phi: object

    def norms(self, pw):
        out = np.zeros(pw.members)
        # past a finite point phi is +inf, and a profile unbounded at 0
        # exceeds every multiple of that point on a set of positive measure
        if self.phi.infinite_beyond < np.inf:
            out[pw.member[(pw.lo == 0.0) & pw.tail & (pw.v > 0.0)]] = np.inf
        const = pw._constant()
        piece, _, g, weights = _rule(pw, np.flatnonzero(~const))
        f = g ** pw.power
        # the fine rule's nodes and the constant pieces, exact one-node
        # rules, grouped by member
        node = np.concatenate([np.repeat(pw.member[piece], 2 * _ORDER), pw.member[const]])
        order = np.argsort(node, kind="stable")
        node = node[order]
        f_fine = np.concatenate([f[:, _ORDER:].ravel(), pw._at_zero(const) ** pw.power])[order]
        w_fine = np.concatenate([weights[:, _ORDER:].ravel(), (pw.hi - pw.lo)[const]])[order]
        top = np.zeros(pw.members)
        np.maximum.at(top, node, f_fine)

        # the members left to search, renumbered 0, 1, ...
        live = (top > 0.0) & (out == 0.0)
        keep = live[node]
        at = (np.cumsum(live) - 1)[node[keep]]
        f_live, w_live = f_fine[keep], w_fine[keep]
        n_live = int(live.sum())

        def modular(lam):
            return _member_sums(at, n_live, self.phi(f_live / lam[at]) * w_live)

        # one errstate for the whole search: entering it costs more than a
        # modular call on a small family
        with np.errstate(over="ignore", invalid="ignore"):
            out[live] = _luxemburg_search(modular, top[live])
            lam = out[pw.member[piece]]
            checked = (lam > 0.0) & (lam < np.inf)
            _rule_sums(pw, piece[checked],
                       weights[checked] * self.phi(f[checked] / lam[checked][:, None]))
        return out


def average_transform(profiles, horizon=None):
    """Exact running average of a decreasing step profile, or of each of a
    sequence of them.

    On the i-th piece the average equals v_i + (C_{i-1} - v_i S_{i-1}) / s
    with C the cumulative integral; past the support it decays like
    C_total / s, kept up to the horizon (default: each profile's own total
    measure, i.e. no extension).
    """
    member, counts, lo, hi, v, measure = _steps(profiles, horizon)
    a = _running_sums(counts, measure * v)[np.arange(len(lo)) + member] - v * lo
    return DecreasingPieces._derived(lo, hi, np.zeros(len(lo), dtype=bool), v, a, 1.0,
                                     member, len(counts))


def tail_log_transform(profiles):
    """Exact logarithmic tail integral of a step profile, or of each of a
    sequence of them.

    integral_s^infty phi(r) dr/r is v_i log(S_i / s) plus the accumulated
    contributions of the pieces beyond S_i; zero past the support.
    """
    member, counts, lo, hi, v, _ = _steps(profiles)
    # the first piece reaches s = 0, where its own log integral diverges; it
    # is a tail piece like the others, so its segment value is never formed
    seg = v * np.log(np.where(lo > 0.0, hi / np.maximum(lo, 1e-300), 1.0))
    # the pieces strictly after each piece, summed from the member's last one
    # down: the running sums of the reversed family, read back to front
    after = _running_sums(counts[::-1], seg[::-1])[::-1][np.arange(len(lo)) + member + 1]
    return DecreasingPieces._derived(lo, hi, np.ones(len(lo), dtype=bool), v, after, 1.0,
                                     member, len(counts))


def _ratios(num, denom):
    """num / denom per member as a list, 0 where denom is 0."""
    return np.divide(num, denom, out=np.zeros(len(denom)), where=denom != 0.0).tolist()


def hardy_check_avg(spec, p, family, horizon=None):
    """Averaged-Hardy ratios in the X^(1/p') scale, one per family member.

    ratio = || (1/s) int_0^s phi ||_{X^(1/p')} / || phi ||_{X^(1/p')}.
    A horizon of None extends each average to the largest total measure in
    the family, so members are compared over a common interval.
    """
    q0 = 1.0 / p.pprime
    if horizon is None:
        horizon = max((sf.total_measure for sf in family), default=0.0)
    # the X^(1/p') functional f -> (X-norm of f^q0)^(1/q0) of each side
    avg, step = (np.float_power(spec.norms(pw.powered(q0)), 1.0 / q0) for pw in
                 (average_transform(family, horizon), DecreasingPieces.from_step(family)))
    return _ratios(avg, step)


def hardy_check_tail(spec_x, spec_y, family):
    """Tail-Hardy ratios || int_s^inf phi dr/r ||_Y / || phi ||_X per member.

    Step profiles have compact support, so the tail integral is always
    finite; it is computed in exact piecewise-logarithmic form.
    """
    return _ratios(spec_y.norms(tail_log_transform(family)),
                   spec_x.norms(DecreasingPieces.from_step(family)))
