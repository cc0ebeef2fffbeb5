"""Tensor nonlinearities of the p-Laplace operator.

The two maps at the core of everything here are the flux map
``A(P) = |P|^(p-2) P`` and the natural quantity ``V(P) = |P|^((p-2)/2) P``,
acting on N x n matrices.  Alongside them live the shifted power functions
``(a + t)^(p-2) t^2``, whose convex-duality bookkeeping drives the
constant-fitting experiments.

All powers of tensor norms are evaluated as ``exp(e * log|P|)`` with an
explicit branch for ``|P| = 0``, so the continuous extensions A(0) = V(0) = 0
hold for every p > 1, including p < 2.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Exponent",
    "ShiftedPower",
    "frobenius",
    "a_map",
    "v_map",
    "a_inverse",
    "shifted_power",
    "equivalence_table",
    "ratio_band",
    "young_bound_check",
    "fit_young_constant",
    "shift_change_check",
    "fit_shift_change_constant",
    "random_tensor_pairs",
]


@dataclass(frozen=True)
class Exponent:
    """A growth exponent p in (1, inf) together with its conjugate p/(p-1)."""

    p: float
    pprime: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p <= 1.0:
            raise ValueError(f"exponent must satisfy p > 1, got p={self.p}")
        object.__setattr__(self, "pprime", self.p / (self.p - 1.0))
        if abs(1.0 / self.p + 1.0 / self.pprime - 1.0) > 1e-12:
            raise ValueError("conjugate exponent identity violated")

    def conjugate(self):
        return Exponent(self.pprime)


def frobenius(P):
    """Frobenius norm over the two trailing axes: a float for one tensor, an
    array for a batch."""
    P = np.asarray(P, dtype=float)
    norm = np.sqrt(np.einsum("...nk,...nk->...", P, P))
    return float(norm) if norm.ndim == 0 else norm


def _norm_power(r, expo):
    """r**expo via exp(expo*log r) with the r == 0 branch mapped to 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mask = r > 0.0
    if np.any(mask):
        out[mask] = np.exp(expo * np.log(r[mask]))
    return float(out) if out.ndim == 0 else out


def _power_scaled(P, expo):
    """|P|^expo P for a tensor or a batch of them, 0 where P = 0."""
    P = np.asarray(P, dtype=float)
    return np.asarray(_norm_power(frobenius(P), expo))[..., None, None] * P


def a_map(p: Exponent, P):
    """Flux map |P|^(p-2) P with A(0) = 0."""
    return _power_scaled(P, p.p - 2.0)


def v_map(p: Exponent, P):
    """Natural quantity |P|^((p-2)/2) P; |V(P)|^2 = |P|^p."""
    return _power_scaled(P, (p.p - 2.0) / 2.0)


def a_inverse(p: Exponent, W):
    """Inverse of the flux map: |W|^((2-p)/(p-1)) W, so a_map∘a_inverse = id."""
    return _power_scaled(W, (2.0 - p.p) / (p.p - 1.0))


def _shift_args(a, t):
    """The shift and the argument as float arrays; ValueError if either is < 0."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(a < 0.0):
        raise ValueError("shifted power needs a >= 0 and t >= 0")
    return a, t


def shifted_power(p: Exponent, a, t):
    """Shifted power function (a + t)^(p-2) t^2, extended by 0 at a = t = 0."""
    a, t = _shift_args(a, t)
    return _norm_power(a + t, p.p - 2.0) * (t * t)


@dataclass(frozen=True)
class ShiftedPower:
    """The convex function t -> (a + t)^(p-2) t^2 for a fixed shift a >= 0."""

    p: Exponent
    a: float

    def __post_init__(self):
        if self.a < 0.0:
            raise ValueError("shift a must be nonnegative")

    def __call__(self, t):
        return shifted_power(self.p, self.a, t)

    def derivative(self, t):
        """(p-2)(a+t)^(p-3) t^2 + 2 (a+t)^(p-2) t."""
        a, t = _shift_args(self.a, t)
        pv = self.p.p
        return ((pv - 2.0) * _norm_power(a + t, pv - 3.0) * t * t
                + 2.0 * _norm_power(a + t, pv - 2.0) * t)


def equivalence_table(p: Exponent, Ps, Qs):
    """The equivalence expressions of a batch of tensor pairs, as a dict of
    arrays.

    The first five vanish together exactly when P = Q, and their pairwise
    ratios stay in a p-dependent band that the lab fits by sampling:
      inner      (A(P) - A(Q)) . (P - Q)
      v_sq       |V(P) - V(Q)|^2
      mixed      (|P| + |Q|)^(p-2) |P - Q|^2
      phi_shift  shifted power at shift |Q| of |P - Q|
      phi_conj   conjugate shifted power at shift |Q|^(p-1) of |A(P) - A(Q)|
    and a_diff is |A(P) - A(Q)|.  One pair P, Q goes in as P[None], Q[None].
    """
    Ps = np.asarray(Ps, dtype=float)
    Qs = np.asarray(Qs, dtype=float)
    nP = frobenius(Ps)
    nQ = frobenius(Qs)
    AP = a_map(p, Ps)
    AQ = a_map(p, Qs)
    VP = v_map(p, Ps)
    VQ = v_map(p, Qs)
    diff = Ps - Qs
    ndiff = frobenius(diff)
    adiff = frobenius(AP - AQ)
    return {"inner": np.sum((AP - AQ) * diff, axis=(-2, -1)),
            "v_sq": np.sum((VP - VQ) ** 2, axis=(-2, -1)),
            "mixed": _norm_power(nP + nQ, p.p - 2.0) * ndiff * ndiff,
            "phi_shift": shifted_power(p, nQ, ndiff),
            "phi_conj": shifted_power(p.conjugate(), _norm_power(nQ, p.p - 1.0), adiff),
            "a_diff": adiff}


# Samples where every compared expression sits below this floor are 0/0
# noise and are excluded from ratio fits.
RATIO_FLOOR = 1e-300


def ratio_band(p: Exponent, Ps, Qs):
    """Largest max/min spread of the five equivalence expressions.

    Returns C such that every pairwise ratio over the sample lies in
    [1/C, C].  Near-zero samples (all expressions below RATIO_FLOOR)
    are dropped.
    """
    tab = equivalence_table(p, Ps, Qs)
    vals = np.stack([tab[k] for k in
                     ("inner", "v_sq", "mixed", "phi_shift", "phi_conj")])
    keep = vals.max(axis=0) > RATIO_FLOOR
    if not np.any(keep):
        raise ValueError("all samples degenerate; nothing to fit")
    vals = vals[:, keep]
    spread = vals.max(axis=0) / vals.min(axis=0)
    return float(spread.max())


def young_bound_check(p: Exponent, a, delta, t, s):
    """Pieces of the product bound t*s <= delta*phi_{p,a}(t) + c*phi_conj(s).

    Returns (t*s, (delta*phi_{p,a}(t), phi_{p',a^(p-1)}(s))) so callers can
    fit the constant c(delta, p) = sup (ts - delta*phi)_+ / phi_conj.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    lhs = t * s
    term_phi = delta * shifted_power(p, a, t)
    term_conj = shifted_power(p.conjugate(), _norm_power(np.asarray(a, float), p.p - 1.0), s)
    return lhs, (term_phi, term_conj)


def _excess_fit(lhs, absorbed, den):
    """Largest (lhs - absorbed)_+ / den over the samples where den >
    RATIO_FLOOR, or 0.0 when there is none."""
    excess = np.maximum(lhs - absorbed, 0.0)
    keep = den > RATIO_FLOOR
    if not np.any(keep):
        return 0.0
    return float(np.max(excess[keep] / den[keep]))


def fit_young_constant(p: Exponent, a, delta, ts, ss):
    """Monte-Carlo fit of c in the product bound over sample arrays."""
    lhs, (term_phi, term_conj) = young_bound_check(p, a, delta, ts, ss)
    return _excess_fit(lhs, term_phi, term_conj)


def shift_change_check(p: Exponent, P, Q, t, gamma):
    """Pieces of the shift-change bound between conjugate shifted powers.

    Returns (phi_{p',|P|^(p-1)}(t),
             (gamma^(1-max(p,2)) * phi_{p',|Q|^(p-1)}(t),
              gamma * |V(P) - V(Q)|^2)).
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    pc = p.conjugate()
    lhs = shifted_power(pc, _norm_power(frobenius(P), p.p - 1.0), t)
    term_shifted = gamma ** (1.0 - max(p.p, 2.0)) * shifted_power(
        pc, _norm_power(frobenius(Q), p.p - 1.0), t)
    term_v = gamma * np.sum((v_map(p, P) - v_map(p, Q)) ** 2, axis=(-2, -1))
    return lhs, (term_shifted, term_v)


def fit_shift_change_constant(p: Exponent, Ps, Qs, ts, gamma):
    """Monte-Carlo fit of c in the shift-change bound over sample batches."""
    lhs, (term_shifted, term_v) = shift_change_check(p, Ps, Qs, ts, gamma)
    return _excess_fit(lhs, term_v, term_shifted)


def random_tensor_pairs(rng, count, rows=2, cols=2, scale_decades=(-6.0, 6.0)):
    """Normal-entry tensor pairs with log-uniform magnitudes.

    The spread of scales exercises both the degenerate (|P| << |Q|) and
    singular (|P| ~ |Q|, both large) regimes that drive the equivalence
    constants.
    """
    lo, hi = scale_decades
    shape = (count, rows, cols)
    Ps = rng.standard_normal(shape) * 10.0 ** rng.uniform(lo, hi, size=(count, 1, 1))
    Qs = rng.standard_normal(shape) * 10.0 ** rng.uniform(lo, hi, size=(count, 1, 1))
    return Ps, Qs
