"""Uniform P1 triangulations of axis-aligned squares with element fields.

A mesh splits an M x M grid of square cells into 2*M^2 right triangles,
every cell cut along its lower-left to upper-right diagonal so that meshes
are reproducible across runs.  Nodal fields carry vector data at vertices,
element fields carry one N x 2 tensor per triangle (gradients, right-hand
sides, flux fields).  Ball queries go by element barycenter against an open
ball, which gives exact per-ball measures and deterministic ties.  All
ball statistics come from one kernel, `ball_stats`.  It forms squared
distances once over the cells around the largest ball, from the separable
barycenter x and y coordinates, compares each radius only on its own cells,
and takes deviations from each ball mean directly.
"""

import functools
import math

import numpy as np

__all__ = [
    "Mesh",
    "NodalField",
    "ElemField",
    "EmptyBallError",
    "gradient",
    "integrate",
    "ball_elements",
    "ball_oscillation",
    "ball_stats",
    "boundary_values",
    "write_nodal_field",
    "read_nodal_field",
    "write_elem_field",
    "read_elem_field",
]


class EmptyBallError(ValueError):
    """A ball query hit no element barycenter (radius below resolution)."""


class Mesh:
    """Uniform triangulation of [x0, x1] x [y0, y1] with square cells.

    The two side lengths must agree (the cell width h is then unambiguous
    and every triangle has area h^2 / 2).
    """

    def __init__(self, bounds, cells_per_side):
        x0, x1, y0, y1 = (float(b) for b in bounds)
        M = int(cells_per_side)
        if M < 2:
            raise ValueError("need at least 2 cells per side")
        if x1 <= x0 or y1 <= y0:
            raise ValueError("degenerate bounds")
        if abs((x1 - x0) - (y1 - y0)) > 1e-12 * max(x1 - x0, y1 - y0):
            raise ValueError("only square domains are supported")
        self.bounds = (x0, x1, y0, y1)
        self.cells_per_side = M
        self.h = (x1 - x0) / M

        xs = np.linspace(x0, x1, M + 1)
        ys = np.linspace(y0, y1, M + 1)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        # node index = iy * (M+1) + ix
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])

        ix, iy = np.meshgrid(np.arange(M), np.arange(M), indexing="xy")
        ix = ix.ravel()
        iy = iy.ravel()
        n00 = iy * (M + 1) + ix
        n10 = n00 + 1
        n01 = n00 + (M + 1)
        n11 = n01 + 1
        lower = np.column_stack([n00, n10, n11])   # below the diagonal
        upper = np.column_stack([n00, n11, n01])   # above the diagonal
        self.elements = np.vstack([lower, upper]).astype(np.int64)

        self.element_area = 0.5 * self.h * self.h
        self.areas = np.full(len(self.elements), self.element_area)
        verts = self.nodes[self.elements]            # (E, 3, 2)
        self.barycenters = verts.mean(axis=1)

        on_edge = (
            np.isclose(self.nodes[:, 0], x0) | np.isclose(self.nodes[:, 0], x1)
            | np.isclose(self.nodes[:, 1], y0) | np.isclose(self.nodes[:, 1], y1)
        )
        self.boundary_nodes = np.flatnonzero(on_edge)
        self.interior_nodes = np.flatnonzero(~on_edge)

        # gradients of the three barycentric basis functions per element
        d1 = verts[:, 1] - verts[:, 0]
        d2 = verts[:, 2] - verts[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        inv_t = np.empty((len(det), 2, 2))
        inv_t[:, 0, 0] = d2[:, 1]
        inv_t[:, 0, 1] = -d2[:, 0]
        inv_t[:, 1, 0] = -d1[:, 1]
        inv_t[:, 1, 1] = d1[:, 0]
        inv_t /= det[:, None, None]
        grad = np.empty((len(det), 3, 2))
        grad[:, 1] = inv_t[:, 0]
        grad[:, 2] = inv_t[:, 1]
        grad[:, 0] = -grad[:, 1] - grad[:, 2]
        self.basis_gradients = grad

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_elements(self):
        return len(self.elements)

    @property
    def total_area(self):
        x0, x1, y0, y1 = self.bounds
        return (x1 - x0) * (y1 - y0)

    def boundary_distance(self, point):
        """Distance from a point to the boundary of the rectangle."""
        x0, x1, y0, y1 = self.bounds
        x, y = float(point[0]), float(point[1])
        return min(x - x0, x1 - x, y - y0, y1 - y)

    def locate_element(self, point):
        """Index of the triangle containing a point (ties go to the lower one)."""
        x0, x1, y0, y1 = self.bounds
        M = self.cells_per_side
        x, y = float(point[0]), float(point[1])
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            raise ValueError("point outside the mesh")
        ix = min(int((x - x0) / self.h), M - 1)
        iy = min(int((y - y0) / self.h), M - 1)
        # local coordinates in the cell decide the diagonal side
        lx = (x - x0) / self.h - ix
        ly = (y - y0) / self.h - iy
        cell = iy * M + ix
        return cell if ly <= lx else cell + M * M

    @functools.cached_property
    def _element_grid(self):
        # element index = triangle * M^2 + iy * M + ix, triangle 0 lower, 1 upper
        M = self.cells_per_side
        return np.arange(2 * M * M).reshape(2, M, M)

    @functools.cached_property
    def _barycenter_axes(self):
        """(xs, ys), each of shape (2, M): xs[t, ix] is the barycenter x of
        every triangle of kind t in cell column ix, ys[t, iy] the barycenter
        y of every one in cell row iy.  Nodes come from linspace/meshgrid,
        so a vertex x depends on ix alone and these reproduce `barycenters`
        exactly."""
        M = self.cells_per_side
        b = self.barycenters.reshape(2, M, M, 2)
        return b[:, 0, :, 0].copy(), b[:, :, 0, 1].copy()

    def cell_range(self, center, r):
        """Cells [ax, bx) x [ay, by), clipped to the mesh, met by the square
        of half side r around center, as (ax, bx, ay, by).

        Every barycenter lies h/3 inside its cell, so these cells hold every
        element whose barycenter is closer than r to the center, and a
        smaller r gives a sub-range.
        """
        M = self.cells_per_side

        def axis(c, lo):
            # clipped before floor, which rejects the +-inf that a huge r or
            # far c gives: a huge ball then holds the mesh, a far one nothing
            first = math.floor(min(max((c - r - lo) / self.h, 0.0), M))
            stop = math.floor(min(max((c + r - lo) / self.h, -1.0), M - 1)) + 1
            return first, stop

        return (axis(float(center[0]), self.bounds[0])
                + axis(float(center[1]), self.bounds[2]))

    def interior_points(self, margin, stride=1):
        """Barycenters at distance > margin from the boundary, subsampled."""
        x0, x1, y0, y1 = self.bounds
        b = self.barycenters
        d = np.minimum(np.minimum(b[:, 0] - x0, x1 - b[:, 0]),
                       np.minimum(b[:, 1] - y0, y1 - b[:, 1]))
        idx = np.flatnonzero(d > margin)
        return b[idx[::stride]]


class NodalField:
    """N real values per mesh node, stored as an (num_nodes, N) array."""

    def __init__(self, values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.ndim != 2:
            raise ValueError("nodal values must be a (nodes, components) array")
        if not np.all(np.isfinite(values)):
            raise ValueError("nodal values must be finite")
        self.values = values

    @property
    def components(self):
        return self.values.shape[1]

    @classmethod
    def from_callable(cls, mesh, fn, components=1):
        vals = np.asarray(fn(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        else:
            vals = vals.reshape(mesh.num_nodes, components)
        return cls(vals)

    @classmethod
    def zeros(cls, mesh, components=1):
        return cls(np.zeros((mesh.num_nodes, components)))


class ElemField:
    """One N x 2 tensor per element, stored as an (num_elements, N, 2) array."""

    def __init__(self, tensors):
        tensors = np.asarray(tensors, dtype=float)
        if tensors.ndim != 3 or tensors.shape[2] != 2:
            raise ValueError("element tensors must have shape (elements, N, 2)")
        if not np.all(np.isfinite(tensors)):
            raise ValueError("element tensors must be finite")
        self.tensors = tensors

    @property
    def rows(self):
        return self.tensors.shape[1]

    def norms(self):
        """Per-element Frobenius norms as a flat array."""
        return np.sqrt(np.einsum("enk,enk->e", self.tensors, self.tensors))

    @classmethod
    def from_callable(cls, mesh, fn, rows=1):
        """Sample a tensor-valued function at element barycenters."""
        b = mesh.barycenters
        vals = np.asarray(fn(b[:, 0], b[:, 1]), dtype=float)
        vals = vals.reshape(mesh.num_elements, rows, 2)
        return cls(vals)

    @classmethod
    def zeros(cls, mesh, rows=1):
        return cls(np.zeros((mesh.num_elements, rows, 2)))


def gradient(mesh, u: NodalField):
    """Per-triangle constant gradient of the P1 interpolant of u."""
    if u.values.shape[0] != mesh.num_nodes:
        raise ValueError("nodal field does not match the mesh")
    vert_vals = u.values[mesh.elements]            # (E, 3, N)
    grads = np.einsum("ein,eik->enk", vert_vals, mesh.basis_gradients)
    return ElemField(grads)


def integrate(mesh, f):
    """Integral of a per-element scalar, exact for element-wise constants."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.num_elements,):
        raise ValueError("need one scalar per element")
    return float(np.sum(mesh.areas * f))


def _ball_members(mesh, center, radii):
    """Per radius, the elements whose barycenter lies in the open ball
    B_r(center), in ascending element index (possibly empty).

    Squared distances are formed once over the cells of the largest ball,
    as an outer sum of the separable x and y terms; each radius is then
    compared only on its own cell sub-range.
    """
    center = np.asarray(center, dtype=float)
    if not np.all(np.isfinite(center)):
        raise ValueError(f"ball center {_point_str(center)} is not finite")
    for r in radii:
        if not 0.0 < r < math.inf:
            raise ValueError(f"ball radius {r} must be positive and finite")
    ax, bx, ay, by = mesh.cell_range(center, max(radii, default=0.0))
    xs, ys = mesh._barycenter_axes
    dx2 = (xs[:, ax:bx] - center[0]) ** 2
    dy2 = (ys[:, ay:by] - center[1]) ** 2
    d2 = dx2[:, None, :] + dy2[:, :, None]           # (triangle, iy, ix)
    members = []
    for r in radii:
        rx, sx, ry, sy = mesh.cell_range(center, r)
        box = (slice(None), slice(ry - ay, sy - ay), slice(rx - ax, sx - ax))
        members.append(mesh._element_grid[:, ry:sy, rx:sx][d2[box] < r * r])
    return members


def _point_str(x):
    """A point as plain floats, '(0.5, 0.5)', for error messages."""
    return str(tuple(np.asarray(x, dtype=float).tolist()))


def _require_nonempty(counts, center, radii):
    for count, r in zip(counts, radii):
        if count == 0:
            raise EmptyBallError(
                f"ball of radius {r} at {_point_str(center)} is below mesh resolution")


def ball_stats(mesh, f: ElemField, center, radii, q=1.0):
    """Element counts, mean tensors and q-mean oscillations over the open
    balls B_r(center), one per radius.

    Returns (counts, means, oscs) of shapes (R,), (R, N, 2) and (R,), with
    osc_q = (mean of |f - mean|^q)^(1/q) taken against the ball mean
    directly.  An empty ball has count 0 and nan mean and oscillation.
    Radii may come in any order.  A center or radius that is not finite,
    or a radius that is not positive, raises ValueError.  Members are
    gathered with np.take and weighted by the uniform element area.
    """
    if q < 1.0:
        raise ValueError("q must be at least 1")
    counts = np.zeros(len(radii), dtype=np.int64)
    means = np.full((len(radii),) + f.tensors.shape[1:], np.nan)
    oscs = np.full(len(radii), np.nan)
    for k, idx in enumerate(_ball_members(mesh, center, radii)):
        if idx.size == 0:
            continue
        w = np.full(idx.size, mesh.element_area)
        w /= w.sum()
        block = np.take(f.tensors, idx, axis=0)
        mean = np.einsum("e,enk->nk", w, block)
        block -= mean
        dev = np.einsum("enk,enk->e", block, block)
        np.sqrt(dev, out=dev)
        dev **= q
        dev *= w
        counts[k] = idx.size
        means[k] = mean
        oscs[k] = np.sum(dev) ** (1.0 / q)
    return counts, means, oscs


def ball_elements(mesh, center, r):
    """Elements whose barycenter lies in the open ball B_r(center)."""
    (idx,) = _ball_members(mesh, center, [r])
    _require_nonempty([idx.size], center, [r])
    return idx


def ball_oscillation(mesh, f: ElemField, center, r, q=1.0):
    """Area-weighted mean tensor and q-mean oscillation over a ball.

    Returns (mean, osc_q) with osc_q = (mean of |f - mean|^q)^(1/q).
    """
    counts, means, oscs = ball_stats(mesh, f, center, [r], q)
    _require_nonempty(counts, center, [r])
    return means[0], float(oscs[0])


def boundary_values(mesh, fn, components=1):
    """Sample a callable g(x, y) on the boundary nodes, as a (B, N) array."""
    pts = mesh.nodes[mesh.boundary_nodes]
    vals = np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return vals.reshape(len(pts), components)


# --- plain-text field tables ------------------------------------------------
#
# NodalField rows: node,comp,value     ElemField rows: elem,row,col,value
# Meshes are rebuilt from (bounds, M) and never serialized geometrically.


def write_nodal_field(path, u: NodalField):
    with open(path, "w") as fh:
        fh.write("node,comp,value\n")
        for node in range(u.values.shape[0]):
            for comp in range(u.values.shape[1]):
                fh.write(f"{node},{comp},{float(u.values[node, comp])!r}\n")


def _read_table(path, header, sizes):
    """Rows 'i_1,...,i_k,value' under a fixed header, as a dense array.

    sizes gives each index's extent, or None to take it from the largest
    index given.  Every index tuple must have exactly one row: a malformed
    row, an index out of range, a duplicate or a gap raises ValueError
    naming path:line.
    """
    k = len(sizes)
    keys, vals, lines = [], [], []
    with open(path) as fh:
        if fh.readline().strip() != header:
            raise ValueError(f"{path}:1: expected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                keys.append([int(t) for t in parts[:k]])
                vals.append(float(parts[k]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
            lines.append(lineno)
    if not lines:
        raise ValueError(f"{path}:1: no rows after the header")
    keys = np.array(keys)
    shape = tuple(int(keys[:, j].max()) + 1 if n is None else n
                  for j, n in enumerate(sizes))
    bad = np.flatnonzero(((keys < 0) | (keys >= shape)).any(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{lines[bad[0]]}: index out of range for shape {shape}")
    flat = np.ravel_multi_index(keys.T, shape)
    order = np.argsort(flat, kind="stable")
    # sorted, a complete table reads 0, 1, 2, ...: the first place it does
    # not is a duplicate (a repeat of the index before) or a gap
    bad = np.flatnonzero(flat[order] != np.arange(flat.size))
    if bad.size or flat.size < np.prod(shape):
        i = bad[0] if bad.size else flat.size
        dup = i < flat.size and flat[order[i]] < i
        index = tuple(int(t) for t in np.unravel_index(i - dup, shape))
        raise ValueError(f"{path}:{lines[order[i]] if i < flat.size else lines[-1]}: "
                         f"{'duplicate row' if dup else 'no row'} for index {index}")
    out = np.empty(shape)
    out.flat[flat] = vals
    return out


def read_nodal_field(path):
    return NodalField(_read_table(path, "node,comp,value", (None, None)))


def write_elem_field(path, f: ElemField):
    with open(path, "w") as fh:
        fh.write("elem,row,col,value\n")
        E, N, _ = f.tensors.shape
        for e in range(E):
            for r in range(N):
                for c in range(2):
                    fh.write(f"{e},{r},{c},{float(f.tensors[e, r, c])!r}\n")


def read_elem_field(path):
    return ElemField(_read_table(path, "elem,row,col,value", (None, None, 2)))
