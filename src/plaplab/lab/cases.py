"""Seeded data builders shared by the experiments.

Coefficient draws are separated from mesh evaluation so the same continuum
datum can be realized on a mesh and on its refinement: refinement-stability
comparisons of fitted constants only make sense against fixed data.

Smooth fields are truncated trigonometric series with 8 modes; manufactured
cases interpolate a smooth potential w nodally and set F to the flux of its
discrete gradient, making that interpolant the exact discrete solution.
Rough boundary data are random piecewise-linear traces along the perimeter,
through 12 periodic knots.
"""

import numpy as np

from ..fluxmaps import a_map
from ..grid import ElemField, NodalField, gradient

__all__ = [
    "trig_series",
    "smooth_tensor_fn",
    "smooth_potential_fn",
    "boundary_knots",
    "random_smooth_field",
    "random_smooth_potential",
    "rough_boundary_trace",
    "manufactured_data",
    "manufactured_problem_data",
    "perimeter_coordinate",
]

N_MODES = 8


def trig_series(rng, n_components):
    """Seeded truncated trig series; returns evaluate(x, y) -> (len(x), N).

    Component c is the sum over the modes k of
    coef[c, k] * sin((pi f0) x + (pi f1) y + phase[c, k]), one mode at a time
    on contiguous vectors, summed in np.sum's pairwise order over 8 entries.
    """
    freq = rng.integers(1, 4, size=(n_components, N_MODES, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_components, N_MODES))
    coef = rng.normal(size=(n_components, N_MODES)) / (1.0 + np.sum(freq ** 2, axis=2))
    wx, wy = np.pi * freq[..., 0], np.pi * freq[..., 1]

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty((len(x), n_components))
        for c in range(n_components):
            t = [coef[c, k] * np.sin(wx[c, k] * x + wy[c, k] * y + phase[c, k])
                 for k in range(N_MODES)]
            out[:, c] = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
        return out

    return evaluate


def smooth_tensor_fn(rng, n_components):
    """Mesh-independent smooth tensor datum: evaluate(x, y) -> (len(x), N, 2)."""
    fx = trig_series(rng, n_components)
    fy = trig_series(rng, n_components)

    def evaluate(x, y):
        return np.stack([fx(x, y), fy(x, y)], axis=2)

    return evaluate


def smooth_potential_fn(rng, n_components):
    """Mesh-independent smooth potential: trig series plus a low-order polynomial."""
    series = trig_series(rng, n_components)
    lin = rng.normal(size=(n_components, 3)) * 0.5

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        vals = series(x, y)
        for c in range(n_components):
            vals[:, c] += lin[c, 0] * x + lin[c, 1] * y + lin[c, 2] * x * y
        return vals

    return evaluate


def random_smooth_field(mesh, n_components, rng):
    """Seeded smooth tensor field sampled at element barycenters."""
    return ElemField.from_callable(mesh, smooth_tensor_fn(rng, n_components), n_components)


def random_smooth_potential(mesh, n_components, rng):
    return NodalField.from_callable(mesh, smooth_potential_fn(rng, n_components), n_components)


def perimeter_coordinate(mesh, points):
    """Arc-length position of boundary points walking the rectangle edges;
    each point must lie exactly on an edge, as boundary nodes do."""
    x0, x1, y0, y1 = mesh.bounds
    W, H = x1 - x0, y1 - y0
    x, y = points[:, 0], points[:, 1]
    t = np.empty(len(points))
    on_bottom = y == y0
    on_right = (x == x1) & ~on_bottom
    on_top = (y == y1) & ~on_bottom & ~on_right
    on_left = ~(on_bottom | on_right | on_top)
    t[on_bottom] = x[on_bottom] - x0
    t[on_right] = W + (y[on_right] - y0)
    t[on_top] = W + H + (x1 - x[on_top])
    t[on_left] = 2 * W + H + (y1 - y[on_left])
    return t


def boundary_knots(rng, n_components):
    """Seeded periodic knot values for a rough piecewise-linear trace."""
    kv = rng.uniform(-1.0, 1.0, size=(n_components, 13))
    kv[:, -1] = kv[:, 0]
    return kv


def rough_boundary_trace(mesh, n_components, rng):
    """Random piecewise-linear periodic boundary values, one trace per component."""
    return trace_from_knots(mesh, boundary_knots(rng, n_components))


def trace_from_knots(mesh, knot_values):
    """Realize periodic knot values on a mesh's boundary nodes."""
    pts = mesh.nodes[mesh.boundary_nodes]
    t = perimeter_coordinate(mesh, pts)
    x0, x1, y0, y1 = mesh.bounds
    perim = 2.0 * ((x1 - x0) + (y1 - y0))
    knots = knot_values.shape[1] - 1
    knot_t = np.linspace(0.0, perim, knots + 1)
    out = np.empty((len(pts), knot_values.shape[0]))
    for c in range(knot_values.shape[0]):
        out[:, c] = np.interp(t, knot_t, knot_values[c])
    return out


def manufactured_data(p, mesh, potential_fn):
    """(F, g, w) for a potential evaluate(x, y) -> (len(x), N): w its nodal
    interpolant, F = A(grad w) and g its trace.  w is then the exact
    discrete solution: the weak-form defect vanishes identically."""
    w = NodalField(potential_fn(mesh.nodes[:, 0], mesh.nodes[:, 1]))
    F = ElemField(a_map(p, gradient(mesh, w).tensors))
    return F, w.values[mesh.boundary_nodes], w


def manufactured_problem_data(p, mesh, n_components, rng):
    """manufactured_data of a seeded smooth potential."""
    return manufactured_data(p, mesh, smooth_potential_fn(rng, n_components))
