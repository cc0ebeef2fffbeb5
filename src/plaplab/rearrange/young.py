"""Young functions: closed forms, sampling, conjugation, and the
source-to-target transform used by the Orlicz gradient estimates.

Closed-form families cover powers, exponential types t^q * exp(t^gamma),
and the capped power that is t^q below 1 and +inf above.  Everything else
lives on a logarithmic grid (64 points per decade over [1e-8, 1e8] by
default) with power-law interpolation between nodes; conjugation of
sampled functions is a monotone O(grid) scan exploiting slope monotonicity.
"""

import numpy as np

__all__ = [
    "YoungFunction",
    "PowerYoung",
    "ExpYoung",
    "CapYoung",
    "JumpYoung",
    "SampledYoung",
    "orlicz_target",
    "HypothesisViolation",
    "default_grid",
]


class HypothesisViolation(ValueError):
    """A structural assumption on the Young function failed numerically."""

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


def default_grid(t_lo=1e-8, t_hi=1e8, per_decade=64):
    decades = np.log10(t_hi / t_lo)
    n = int(round(decades * per_decade)) + 1
    return np.logspace(np.log10(t_lo), np.log10(t_hi), n)


class YoungFunction:
    """Convex, nondecreasing, vanishing at 0; may take the value +inf."""

    infinite_beyond = np.inf      # where it turns +inf, for every t above

    def __call__(self, t):
        raise NotImplementedError

    def conjugate(self):
        return _numeric_conjugate(self)

    def reparam_power(self, lam):
        """The composed Young function t -> Phi(t^lam) (lam > 0)."""
        if lam <= 0.0:
            raise ValueError("reparameterization power must be positive")
        grid = default_grid()
        vals = self(grid ** lam)
        return SampledYoung(grid, vals, self.infinite_beyond ** (1.0 / lam))

    def min_log_slope(self):
        """Infimum of t Phi'(t) / Phi(t) over `default_grid()`, by log differences."""
        grid = default_grid()
        vals = np.asarray(self(grid), dtype=float)
        ok = np.isfinite(vals) & (vals > 0.0)
        t = np.log(grid[ok])
        v = np.log(vals[ok])
        if len(v) < 2:
            raise ValueError("not enough finite samples for a slope estimate")
        return float(np.min(np.diff(v) / np.diff(t)))


class PowerYoung(YoungFunction):
    """scale * t^q with q >= 1."""

    def __init__(self, q, scale=1.0):
        if q < 1.0 or scale <= 0.0:
            raise ValueError("need q >= 1 and a positive scale")
        self.q = float(q)
        self.scale = float(scale)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.scale * t ** self.q
        return float(out) if out.ndim == 0 else out

    def conjugate(self):
        if self.q == 1.0:
            return JumpYoung(self.scale)
        qc = self.q / (self.q - 1.0)
        scale = (self.scale * self.q) ** (1.0 - qc) / qc
        return PowerYoung(qc, scale)

    def reparam_power(self, lam):
        if lam > 0.0 and self.q * lam >= 1.0:
            return PowerYoung(self.q * lam, self.scale)
        return super().reparam_power(lam)

    def min_log_slope(self):
        return self.q


class ExpYoung(YoungFunction):
    """t^q * exp(t^gamma): behaves like t^q near 0 and exponentially at infinity."""

    def __init__(self, gamma, q):
        if gamma <= 0.0 or q < 1.0:
            raise ValueError("need gamma > 0 and q >= 1")
        self.gamma = float(gamma)
        self.q = float(q)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = t ** self.q * np.exp(t ** self.gamma)
        return float(out) if out.ndim == 0 else out

    def min_log_slope(self):
        return self.q


class CapYoung(YoungFunction):
    """t^q below the knee at 1, +inf beyond: the capped power family."""

    infinite_beyond = 1.0

    def __init__(self, q):
        if q < 1.0:
            raise ValueError("need q >= 1")
        self.q = float(q)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t <= 1.0, t ** self.q, np.inf)
        return float(out) if out.ndim == 0 else out

    def min_log_slope(self):
        return self.q


class JumpYoung(YoungFunction):
    """0 up to a threshold, +inf beyond (the conjugate of a linear function)."""

    def __init__(self, threshold):
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        self.threshold = self.infinite_beyond = float(threshold)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t <= self.threshold, 0.0, np.inf)
        return float(out) if out.ndim == 0 else out


class SampledYoung(YoungFunction):
    """Values on a log-spaced grid with power-law interpolation.

    Construction runs a discrete convexity scan (nondecreasing chord
    slopes); strictly positive values are required so the log-log
    interpolation is well defined.  Samples that are not finite are
    dropped; past infinite_beyond the function is +inf, not extrapolated.
    """

    def __init__(self, grid, vals, infinite_beyond=np.inf):
        self.infinite_beyond = float(infinite_beyond)
        grid = np.asarray(grid, dtype=float)
        vals = np.asarray(vals, dtype=float)
        keep = np.isfinite(vals) & (vals > 0.0)
        if keep.sum() < 8:
            raise ValueError("sampled Young function needs at least 8 positive values")
        self.grid = grid[keep]
        self.vals = vals[keep]
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(self.vals) < 0.0):
            raise ValueError("sampled values must be nondecreasing")
        slopes = np.diff(self.vals) / np.diff(self.grid)
        scale = max(slopes.max(), 1.0)
        if np.any(np.diff(slopes) < -1e-7 * scale):
            raise ValueError("sampled values failed the convexity scan")
        self._logt = np.log(self.grid)
        self._logv = np.log(self.vals)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t).astype(float)
        out = np.zeros_like(t)
        pos = t > 0.0
        if np.any(pos):
            lt = np.log(t[pos])
            lo_slope = (self._logv[1] - self._logv[0]) / (self._logt[1] - self._logt[0])
            hi_slope = (self._logv[-1] - self._logv[-2]) / (self._logt[-1] - self._logt[-2])
            lv = np.interp(lt, self._logt, self._logv)
            below = lt < self._logt[0]
            above = lt > self._logt[-1]
            lv[below] = self._logv[0] + lo_slope * (lt[below] - self._logt[0])
            lv[above] = self._logv[-1] + hi_slope * (lt[above] - self._logt[-1])
            out[pos] = np.exp(lv)
        out[t > self.infinite_beyond] = np.inf
        return float(out[0]) if scalar else out


def _numeric_conjugate(phi):
    """Legendre transform sup_t (s t - phi(t)) by a monotone argmax scan.

    The candidates t span 1e-28 to 1e28, much wider than the dual grid
    `default_grid()` of s, so the maximizer stays interior over the whole
    reported range.
    """
    grid = default_grid(1e-28, 1e28, 32)
    vals = np.asarray(phi(grid), dtype=float)
    finite = np.isfinite(vals)
    ts = grid[finite]
    vs = vals[finite]
    ss = default_grid()
    out = np.empty_like(ss)
    valid = len(ss)
    j = 0
    for i, s in enumerate(ss):
        best = s * ts[j] - vs[j]
        while j + 1 < len(ts):
            nxt = s * ts[j + 1] - vs[j + 1]
            if nxt >= best:
                best = nxt
                j += 1
            else:
                break
        if j == len(ts) - 1:
            # maximizer hit the candidate edge: beyond here the transform
            # would grow linearly instead of superlinearly; truncate
            valid = i
            break
        out[i] = best
    out = np.maximum(out[:valid], 0.0)
    return SampledYoung(ss[:valid], out)


def _cumulative_conj_over_rsq(phi_conj_grid, phi_conj_vals):
    """Exact-in-segments integral of conj(r) / r^2 from 0 with power interpolation.

    Returns cumulative values at the grid nodes; raises HypothesisViolation
    when the behavior near zero makes the integral diverge.
    """
    t = phi_conj_grid
    v = phi_conj_vals
    sigma0 = np.log(v[1] / v[0]) / np.log(t[1] / t[0])
    if sigma0 <= 1.0 + 1e-9:
        raise HypothesisViolation(
            "conjugate grows too slowly near zero; the regularizing integral diverges",
            measured=float(sigma0))
    a, b, va, vb = t[:-1], t[1:], v[:-1], v[1:]
    sigma = np.log(vb / va) / np.log(b / a)
    near_one = np.abs(sigma - 1.0) < 1e-9
    # float_power rounds like the scalar power; numpy's vectorized power can
    # differ from it in the last bit
    with np.errstate(divide="ignore", invalid="ignore"):
        power = (va * np.float_power(a, -sigma)
                 * (np.float_power(b, sigma - 1.0) - np.float_power(a, sigma - 1.0))
                 / (sigma - 1.0))
    seg = np.where(near_one, va / a * np.log(b / a), power)
    # the contribution of (0, t_0], then each segment's, added left to right
    return np.cumsum(np.concatenate([[v[0] / (t[0] * (sigma0 - 1.0))], seg]))


def orlicz_target(phi: YoungFunction, p):
    """Target Young function paired with a source Phi by the gradient estimates.

    Pipeline: conjugate Phi, accumulate t * integral_0^t conj(r)/r^2 dr on a
    log grid, conjugate again, and reparameterize t -> t^(p-1).  The two
    structural hypotheses are checked numerically first: the log-slope of
    Phi must stay above the conjugate exponent p' everywhere, and the
    regularizing integral must converge at zero.  Violations are rejected
    with the measured offending quantity attached.
    """
    pprime = p.pprime
    slope = phi.min_log_slope()
    if not slope > pprime * (1.0 + 1e-12):
        raise HypothesisViolation(
            f"inf of t Phi'(t)/Phi(t) is {slope:.6g}, not above p' = {pprime:.6g}",
            measured=float(slope))
    conj = phi.conjugate()
    grid = default_grid()
    cvals = np.asarray(conj(grid), dtype=float)
    keep = np.isfinite(cvals) & (cvals > 0.0)
    cum = _cumulative_conj_over_rsq(grid[keep], cvals[keep])
    G = SampledYoung(grid[keep], grid[keep] * cum)
    theta = _numeric_conjugate(G)
    # reparameterize the argument: Psi(tau) = Theta(tau^(p-1))
    tau = theta.grid ** (1.0 / (p.p - 1.0))
    return SampledYoung(tau, theta.vals)
