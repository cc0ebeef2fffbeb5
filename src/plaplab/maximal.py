"""Discrete sharp and plain maximal operators on element fields.

The supremum over all balls through a point is replaced by a maximum over
centered balls with a geometrically decaying radius set.  That restriction
(and the dyadic radius quantization) only moves the fitted comparison
constants, which is all the experiments track.  Evaluation points must keep
a margin of the largest radius from the boundary unless clipped balls are
explicitly requested.  Every operator takes one point or a (P, 2) array of
points: an array is one call of the grid's ball kernel, and each entry is
bitwise the one-point value.
"""

from dataclasses import dataclass

import numpy as np

from .grid import _ball_family_stats, _point_str, _require_nonempty

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
        if not (0.0 < self.r_min <= self.r_max < np.inf):
            raise ValueError(f"need 0 < r_min <= r_max < inf, not {self.r_min}, {self.r_max}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")

    def values(self):
        out = []
        r = self.r_max
        while r >= self.r_min * (1.0 - 1e-12):
            out.append(r)
            r *= self.ratio
        return np.array(out)


def _check_margin(mesh, x, r_needed, require_interior):
    """MarginError naming the first of the points x (one point or a (P, 2)
    array) within r_needed of the boundary."""
    if not require_interior:
        return
    points = np.reshape(x, (-1, 2))
    near = np.flatnonzero(mesh.boundary_distance(points) <= r_needed)
    if near.size:
        raise MarginError(f"point {_point_str(points[near[0]])} is within "
                          f"{r_needed} of the boundary")


def _local_sharp(mesh, f, q, rs, weights, x, r_needed, require_interior):
    """max(0, max over the radii rs of osc_q(f; B_r(x)) / weights), at one
    point (a float) or at each point of a (P, 2) array (a (P,) array) from
    one kernel call."""
    _check_margin(mesh, x, r_needed, require_interior)
    counts, _, oscs = _ball_family_stats(mesh, f.tensors, x, rs, q)
    _require_nonempty(counts, x, rs)
    out = np.maximum(0.0, (oscs / weights).max(axis=0))
    return float(out[0]) if np.ndim(x) == 1 else out


def sharp_maximal(mesh, f, q, radii: RadiiSet, x, require_interior=True):
    """Max over the radius set of the q-mean oscillation of f on B_r(x).

    x is one point, which gives a float, or a (P, 2) array of points, which
    gives a (P,) array from one batched kernel call; each entry equals the
    single-point value bitwise.  A failing margin or an empty ball raises
    for the first such point.  With require_interior=False balls are
    clipped by the domain instead of rejected, which changes only the
    fitted constants.
    """
    return _local_sharp(mesh, f, q, radii.values(), 1.0, x, radii.r_max,
                        require_interior)


def weighted_local_sharp(mesh, f, q, omega, R, radii: RadiiSet, x,
                         require_interior=True):
    """Localized, weighted variant: max over r < R of osc_q / omega(r).

    x is one point or a (P, 2) array, as for sharp_maximal; the margin is R.
    """
    if radii.r_max >= R:
        raise ValueError("radius set must stay strictly below the locality R")
    rs = radii.values()
    return _local_sharp(mesh, f, q, rs, omega(rs)[:, None], x, R, require_interior)


def plain_maximal(mesh, f, q, radii: RadiiSet, x, require_interior=True):
    """Max over the radius set of the q-mean of |f| on B_r(x).

    x is one point or a (P, 2) array, as for sharp_maximal.  The q-means
    are the kernel's ball means of |f|^q.
    """
    _check_margin(mesh, x, radii.r_max, require_interior)
    rs = radii.values()
    counts, means, _ = _ball_family_stats(mesh, f.norms() ** q, x, rs, 1.0)
    _require_nonempty(counts, x, rs)
    out = (means ** (1.0 / q)).max(axis=0)
    return float(out[0]) if np.ndim(x) == 1 else out


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
    vals = plain_maximal(mesh, f, q, radii, pts)
    lhs = StepFunction.from_samples(vals, np.full(len(vals), mesh.element_area))
    rhs = double_star(rearrange(mesh, f.norms() ** q), lhs.boundaries) ** (1.0 / q)
    pos = rhs > 0.0
    return float(np.max(lhs.values[pos] / rhs[pos], initial=0.0))
