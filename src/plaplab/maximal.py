"""Discrete sharp and plain maximal operators on element fields.

The supremum over all balls through a point is replaced by a maximum over
centered balls with a geometrically decaying radius set.  That restriction
(and the dyadic radius quantization) only moves the fitted comparison
constants, which is all the experiments track.  Evaluation points must keep
a margin of the largest radius from the boundary unless clipped balls are
explicitly requested.
"""

from dataclasses import dataclass

import numpy as np

from .grid import (_ball_family_stats, _ball_members, _point_str, _require_nonempty,
                   ball_stats)

__all__ = [
    "RadiiSet",
    "MarginError",
    "sharp_maximal",
    "weighted_local_sharp",
    "plain_maximal",
    "riesz_ratio",
]


class MarginError(ValueError):
    """Evaluation point too close to the boundary for the largest radius."""


@dataclass(frozen=True)
class RadiiSet:
    """Radii r_max * ratio^k, k = 0, 1, ..., truncated below at r_min."""

    r_min: float
    r_max: float
    ratio: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.r_min <= self.r_max):
            raise ValueError("need 0 < r_min <= r_max")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")

    def values(self):
        out = []
        r = self.r_max
        while r >= self.r_min * (1.0 - 1e-12):
            out.append(r)
            r *= self.ratio
        return np.array(out)

    def below(self, cap):
        """The subset of radii strictly below cap (same ordering)."""
        vals = self.values()
        return vals[vals < cap]


def _check_margin(mesh, x, r_needed, require_interior):
    """MarginError naming the first of the points x (one point or a (P, 2)
    array) within r_needed of the boundary."""
    if not require_interior:
        return
    for point in np.reshape(x, (-1, 2)):
        if mesh.boundary_distance(point) <= r_needed:
            raise MarginError(
                f"point {_point_str(point)} is within {r_needed} of the boundary")


def sharp_maximal(mesh, f, q, radii: RadiiSet, x, require_interior=True):
    """Max over the radius set of the q-mean oscillation of f on B_r(x).

    x is one point, which gives a float, or a (P, 2) array of points, which
    gives a (P,) array from one batched kernel call; each entry equals the
    single-point value bitwise.  A failing margin or an empty ball raises
    for the first such point.  With require_interior=False balls are
    clipped by the domain instead of rejected, which changes only the
    fitted constants.
    """
    _check_margin(mesh, x, radii.r_max, require_interior)
    rs = radii.values()
    counts, _, oscs = _ball_family_stats(mesh, f, x, rs, q)
    for point, point_counts in zip(np.reshape(x, (-1, 2)), counts.T):
        _require_nonempty(point_counts, point, rs)
    out = np.maximum(0.0, oscs.max(axis=0))
    return float(out[0]) if np.ndim(x) == 1 else out


def weighted_local_sharp(mesh, f, q, omega, R, radii: RadiiSet, x,
                         require_interior=True):
    """Localized, weighted variant: max over r < R of osc_q / omega(r)."""
    if radii.r_max >= R:
        raise ValueError("radius set must stay strictly below the locality R")
    _check_margin(mesh, x, R, require_interior)
    rs = radii.below(R)
    counts, _, oscs = ball_stats(mesh, f, x, rs, q)
    _require_nonempty(counts, x, rs)
    return max(0.0, float(np.max(oscs / omega(rs))))


def _plain_maximal(mesh, norms, q, rs, x):
    """plain_maximal from the pointwise norms |f|, one ball gather per point."""
    members = _ball_members(mesh, x, rs)
    _require_nonempty([idx.size for idx in members], x, rs)
    best = 0.0
    for idx in members:
        w = np.full(idx.size, mesh.element_area)
        val = (np.sum(w * np.take(norms, idx) ** q) / w.sum()) ** (1.0 / q)
        best = max(best, val)
    return best


def plain_maximal(mesh, f, q, radii: RadiiSet, x, require_interior=True):
    """Max over the radius set of the q-mean of |f| on B_r(x)."""
    _check_margin(mesh, x, radii.r_max, require_interior)
    return _plain_maximal(mesh, f.norms(), q, radii.values(), x)


def riesz_ratio(mesh, f, q, radii: RadiiSet, stride=1):
    """Fitted constant in the rearranged maximal-function bound.

    Evaluates the plain maximal operator on interior barycenters, rearranges
    the resulting values, and fits the smallest C with
    (M^q f)*(s) <= C * ((|f|^q)**(s))^(1/q) at every breakpoint s.  The
    stride defines which points the fit uses (every stride-th interior
    barycenter); it does not approximate a sup over all points.
    """
    from .rearrange import StepFunction, double_star, rearrange

    pts = mesh.interior_points(radii.r_max * (1.0 + 1e-9), stride)
    if len(pts) == 0:
        raise MarginError("no interior points clear the largest radius")
    norms, rs = f.norms(), radii.values()
    vals = np.array([_plain_maximal(mesh, norms, q, rs, x) for x in pts])
    lhs = StepFunction.from_samples(vals, np.full(len(vals), mesh.element_area))
    rhs = rearrange(mesh, norms ** q)
    ratios = []
    s_prev = 0.0
    for m, v in zip(lhs.measures, lhs.values):
        s = s_prev + m
        rhs_val = double_star(rhs, s) ** (1.0 / q)
        if rhs_val > 0.0:
            ratios.append(v / rhs_val)
        s_prev = s
    if not ratios:
        return 0.0
    return float(max(ratios))
