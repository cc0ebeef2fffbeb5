"""Oscillation-based seminorms, moduli of continuity, and the dyadic
oscillation potential.

A Modulus is a modulus-of-continuity family given by its closed form.  It,
its logarithmic integrals and their transforms (Dini, inverse-tail zeta)
take arrays: one numpy closed form per family, no quadrature and no loop.

The oscillation potential of a field at a point is the dyadic-in-radius sum
of q-mean oscillations weighted by log(1/theta), a Riemann sum of the
radial dr/r integral of per-ball oscillations.

Every ball statistic here (ball families, the potential) comes from the
grid's single ball kernel, which is batched over centers: a ball family is
one kernel call, and so is the potential at a (P, 2) array of points.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import ElemField, _ball_family_stats
from .maximal import RadiiSet, _check_margin

_ROW_BLOCK = 64       # rows of barycenter pairs per array pass of holder_seminorm

__all__ = [
    "Modulus",
    "PotentialParams",
    "DiniDivergence",
    "power_modulus",
    "log_inverse_modulus",
    "constant_modulus",
    "dini_log_modulus",
    "InscribedSups",
    "inscribed_sups",
    "campanato_seminorm",
    "default_ball_family",
    "vmo_modulus",
    "holder_seminorm",
    "dini_transform",
    "zeta_transform",
    "zeta_p",
    "oscillation_potential",
    "ball_family_oscillations",
]


class DiniDivergence(ArithmeticError):
    """The logarithmic integral of the modulus diverges at zero."""


@dataclass(frozen=True)
class Modulus:
    """Modulus of continuity given by its closed form.

    family: 'power' (r^beta, beta > 0), 'log_inverse' (log^(-sigma)(scale/r),
    sigma >= 0 and scale > 0; sigma = 1 is the Dini borderline
    1/log(scale/r)), or 'constant'.  Every parameter is finite.  A power
    modulus is almost decreasing with exponent beta and constant 1.
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in ("power", "log_inverse", "constant"):
            raise ValueError(f"unknown modulus family {self.family!r}")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.family} needs finite parameters, got {self.params}")
        if self.family == "power" and self.params[0] <= 0.0:
            raise ValueError(f"power needs beta > 0, got beta={self.params[0]}")
        # a negative sigma makes omega fall as r grows
        if self.family == "log_inverse" and self.params[0] < 0.0:
            raise ValueError(f"log_inverse needs sigma >= 0, got sigma={self.params[0]}")
        if self.family == "log_inverse" and self.params[1] <= 0.0:
            raise ValueError(f"log_inverse needs scale > 0, got scale={self.params[1]}")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("modulus arguments must be positive")
        if self.family == "power":
            (beta,) = self.params
            out = r ** beta
        elif self.family == "constant":
            out = np.ones_like(r)
        else:
            sigma, scale = self.params
            if np.any(r >= scale):
                raise ValueError(f"argument at or beyond the modulus scale {scale:g}")
            out = _log_ratio(scale, r) ** (-sigma)
        return float(out) if out.ndim == 0 else out

    # -- closed-form logarithmic integrals -----------------------------------

    @property
    def dini_finite(self):
        return self.family == "power" or (self.family == "log_inverse"
                                          and self.params[0] > 1.0)

    def integral_dr_over_r(self, a, b):
        """Closed form of integral_a^b omega(rho)/rho d rho, for any 0 <= a <= b
        (a == b gives 0), broadcast over arrays; scalars give a float.  a < 0,
        a > b or b at the scale of a log family raise ValueError, a == 0
        raises DiniDivergence unless the modulus is Dini-finite."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if not np.all((0.0 <= a) & (a <= b)):
            raise ValueError("need 0 <= a <= b")
        if self.family == "power":
            (beta,) = self.params
            out = (b ** beta - a ** beta) / beta
        elif np.any(a == 0.0) and not self.dini_finite:
            raise DiniDivergence("logarithmic integral diverges at zero")
        elif self.family == "constant":
            out = _log_ratio(b, a)
        else:
            sigma, scale = self.params
            if np.any(b >= scale):
                raise ValueError("integration range beyond the modulus scale")
            ta, tb = _log_ratio(scale, a), _log_ratio(scale, b)
            if sigma == 1.0:
                out = np.log(ta / tb)
            else:
                out = (tb ** (1.0 - sigma) - ta ** (1.0 - sigma)) / (sigma - 1.0)
        return float(out) if out.ndim == 0 else out


def _log_ratio(num, den):
    """log(num / den) for num > 0 and 0 <= den <= num: inf at den == 0, and
    a difference of logs where a subnormal den overflows the quotient."""
    with np.errstate(divide="ignore", over="ignore"):
        quotient = num / den
        return np.where(np.isinf(quotient), np.log(num) - np.log(den),
                        np.log(quotient))


def power_modulus(beta):
    return Modulus("power", (float(beta),))


def log_inverse_modulus(sigma, scale=math.e ** 2):
    return Modulus("log_inverse", (float(sigma), float(scale)))


def constant_modulus():
    return Modulus("constant", ())


def dini_log_modulus(scale=math.e ** 2):
    """1/log(scale/r): the log-inverse modulus at the Dini borderline sigma = 1."""
    return log_inverse_modulus(1.0, scale)


@dataclass(frozen=True)
class PotentialParams:
    """Radial range and dyadic ratio for the oscillation potential."""

    R: float
    theta: float
    p: object     # Exponent

    def __post_init__(self):
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, not {self.R}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")

    def radii(self, mesh):
        """R * theta^i, i = 0, 1, ..., down to twice the mesh width, as a RadiiSet
        (none when R is below 2h); its floor also keeps a radius within 1e-12
        relative below 2h."""
        return RadiiSet(2.0 * mesh.h, self.R, self.theta).values() if self.R >= 2.0 * mesh.h else []


# --- batched ball statistics -------------------------------------------------


def ball_family_oscillations(mesh, f, centers, radii, q):
    """Mean-oscillation of f over many balls, by one batched kernel call.

    centers: (C, 2) array; radii: list of radii shared by all centers.
    Returns (oscs, counts) arrays of shape (len(radii), C); empty balls get
    osc = nan and count 0.  Each ball's value equals the single-ball query's
    bitwise.
    """
    counts, _, oscs = _ball_family_stats(mesh, f.tensors, centers, radii, q)
    return oscs, counts


def default_ball_family(mesh):
    """Centers on a coarsened barycenter lattice with dyadic inscribed radii.

    Returns (centers, radii_list): shared dyadic radii from two cell widths
    up to the largest radius inscribed anywhere, with per-center
    admissibility decided by the boundary distance at query time.  The
    family holds every 2nd barycenter as a center, and its sups are sups
    over exactly these balls, not an approximation of a sup over all
    centers.
    """
    centers = mesh.barycenters[::2]
    r_min = 2.0 * mesh.h
    x0, x1, y0, y1 = mesh.bounds
    r_cap = 0.5 * min(x1 - x0, y1 - y0)
    radii = []
    r = r_min
    while r < r_cap:
        radii.append(r)
        r *= 2.0
    if not radii:
        raise ValueError("mesh too coarse for any inscribed ball")
    return centers, radii


@dataclass(frozen=True)
class InscribedSups:
    """Per radius of a ball family, the largest q-mean oscillation over the
    family's balls that lie inside the mesh, or None when there is none.

    One table serves every seminorm read off the family: the Campanato
    quotients and the VMO profile.
    """

    radii: list
    sups: list

    def campanato(self, omega):
        """Largest sup / omega(r) over the radii with an admissible ball."""
        quotients = [sup / omega(r) for sup, r in zip(self.sups, self.radii)
                     if sup is not None]
        if not quotients:
            raise ValueError("no admissible ball in the family")
        return max(quotients)

    def vmo_profile(self):
        """Nondecreasing rho -> sup over balls of radius <= rho; its .radii
        and .values expose the underlying table."""
        sups = np.maximum.accumulate(np.asarray(
            [0.0 if sup is None else sup for sup in self.sups]))
        radii = np.asarray(self.radii)

        def profile(rho):
            rho = float(rho)
            idx = np.searchsorted(radii, rho, side="right") - 1
            if idx < 0:
                return 0.0
            return float(sups[min(idx, len(sups) - 1)])

        profile.radii = radii
        profile.values = sups
        return profile


def inscribed_sups(mesh, f, q=1.0, family=None):
    """InscribedSups of f over a ball family, evaluating only its inscribed
    balls: one batched call per radius, on the centers whose boundary
    distance exceeds that radius.

    The default family puts centers on every 2nd barycenter with dyadic
    radii.  f is first shifted by minus its global mean.  That leaves every
    oscillation unchanged and makes a constant field read exactly zero.
    """
    centers, radii = default_ball_family(mesh) if family is None else family
    centers = np.asarray(centers, dtype=float)
    if len(centers) == 0 or len(radii) == 0:
        raise ValueError("empty ball family")
    centered = ElemField(f.tensors - f.tensors.mean(axis=0))
    inset = mesh.boundary_distance(centers)
    sups = []
    for r in radii:
        (oscs,), _ = ball_family_oscillations(mesh, centered, centers[inset > r], [r], q)
        oscs = oscs[np.isfinite(oscs)]
        sups.append(float(np.max(oscs)) if oscs.size else None)
    return InscribedSups(list(radii), sups)


def campanato_seminorm(mesh, f, omega, q=1.0, family=None):
    """Sup over a ball family of the q-mean oscillation divided by omega(r).

    The default family puts centers on every 2nd barycenter with dyadic
    radii, keeping only balls fully inside the mesh.
    """
    return inscribed_sups(mesh, f, q, family).campanato(omega)


def vmo_modulus(mesh, f, q=1.0):
    """Radius-indexed oscillation profile rho -> sup over balls of radius <= rho.

    Returns a nondecreasing callable; its .radii and .values expose the
    underlying dyadic table.
    """
    return inscribed_sups(mesh, f, q).vmo_profile()


def holder_seminorm(mesh, f, omega, max_pairs=10 ** 6):
    """Sup over barycenter pairs of |f(x) - f(y)| / omega(|x - y|).

    Pairs are subsampled deterministically (a fixed stride on the element
    list) so at most max_pairs are examined.  The pairs (i, j), j < i, go by
    blocks of _ROW_BLOCK rows i: the block against every earlier column as
    one rectangle, then the block's own lower triangle.  Each pair's ratio
    is formed as it would be alone, so the sup does not depend on the block.
    """
    n = mesh.num_elements
    stride = 1
    while (n // stride) * (n // stride - 1) // 2 > max_pairs:
        stride += 1
    idx = np.arange(0, n, stride)
    # coordinates and tensor components as contiguous rows
    x, y = mesh.barycenters[idx].T.copy()
    comps = f.tensors.reshape(n, -1)[idx].T.copy()

    def ratios(i, j):
        dist = np.hypot(x[i] - x[j], y[i] - y[j])
        dv = comps[0, i] - comps[0, j]
        sq = dv * dv
        for c in comps[1:]:                      # components left to right
            dv = c[i] - c[j]
            sq += dv * dv
        return np.sqrt(sq) / omega(dist)

    best = 0.0
    for lo in range(0, len(idx), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(idx))
        rows = np.arange(lo, hi)
        below, left = np.tril_indices(hi - lo, -1)
        for block in (ratios(rows[:, None], np.arange(lo)), ratios(below + lo, left + lo)):
            if block.size:
                best = np.maximum(best, block.max())     # carries a nan ratio
    return float(best)


def dini_transform(omega: Modulus):
    """Integrated modulus r -> integral_0^r omega(rho)/rho d rho.  It raises
    DiniDivergence exactly when omega.dini_finite is False."""
    return partial(omega.integral_dr_over_r, 0.0)


def zeta_transform(omega: Modulus, n, R0):
    """Inverse tail weight zeta(r) = 1 / integral_{r^(1/n)}^{R0^(1/n)} omega/rho,
    defined on (0, R0)."""
    if n < 1 or R0 <= 0.0:
        raise ValueError("need n >= 1 and R0 > 0")
    n, R0 = int(n), float(R0)

    def zeta(r):
        r = np.asarray(r, dtype=float)
        if not np.all((0.0 < r) & (r < R0)):
            raise ValueError("zeta is defined on (0, R0)")
        return 1.0 / omega.integral_dr_over_r(r ** (1.0 / n), R0 ** (1.0 / n))

    return zeta


def zeta_p(zeta, p):
    """The p-adjusted weight zeta^(1/(p-1)) as a callable."""
    expo = 1.0 / (p.p - 1.0)

    def weighted(r):
        return np.asarray(zeta(r)) ** expo

    return weighted


def oscillation_potential(mesh, F, x, params: PotentialParams):
    """Dyadic radial sum of mean oscillations of F around x.

    Sums osc_{p'}(F; B_{theta^i R}(x)) * log(1/theta) while theta^i R stays
    at or above twice the mesh width, a Riemann sum of the dr/r integral of
    per-ball oscillations.  x is one point, which gives a float, or a (P, 2)
    array, which gives a (P,) array from one kernel call.  The ball B_R(x)
    must be inside the mesh: MarginError names the first point whose ball is
    not.
    """
    R, theta = params.R, params.theta
    _check_margin(mesh, x, R, require_interior=True)
    if R < 2.0 * mesh.h:
        raise ValueError("R below mesh resolution")
    weight = math.log(1.0 / theta)
    # inside the mesh a ball of radius >= 2h holds its center's cell: never empty
    _, _, oscs = _ball_family_stats(mesh, F.tensors, x, params.radii(mesh),
                                    params.p.pprime)
    # the radii's rows added left to right, outermost first
    pot = sum(oscs * weight)
    return float(pot[0]) if np.ndim(x) == 1 else pot
