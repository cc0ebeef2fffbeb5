"""Uniform P1 triangulations of axis-aligned squares with element fields.

A mesh splits an M x M grid of square cells into 2*M^2 right triangles,
every cell cut along its lower-left to upper-right diagonal so that meshes
are reproducible across runs.  Nodal fields carry vector data at vertices,
element fields carry one N x 2 tensor per triangle (gradients, right-hand
sides, flux fields).  Nodes are the (M + 1) x (M + 1) grid, row-major, and
elements the lower then the upper triangles of the M x M cells, row-major,
so every map between them is a slice of the node grid: a mesh is built from
its separable x and y axes, and the element gradient of a nodal field is a
difference stencil.  The stencil writes (N, 2, E) component planes, which
the solver works on; `gradient` is their (E, N, 2) transpose.  A point is
located exactly, by a search of the node axes.  No vertex connectivity
is stored.  Ball queries go by element barycenter against an open ball,
which gives exact per-ball measures and deterministic ties.  All ball
statistics come from one kernel, batched over centers and radii:
`ball_stats` takes one center or a (P, 2) array of them in one call, and
ball families are one call.  By bounded chunks of centers, it forms squared
distances once over each center's cells around the largest ball, from the
separable barycenter x and y coordinates, and compares each radius only on
the cells that can hold it.  Members are gathered with one np.take per
chunk, and means and deviations from each ball mean are segment sums, so a
ball's result does not depend on the other balls of a call.  Element
fields are stored as plain-text tables (`write_elem_field`,
`read_elem_field`), which `plaplab norm-table` reads.
"""

import functools
import itertools
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
    "write_elem_field",
    "read_elem_field",
]


class EmptyBallError(ValueError):
    """A ball query hit no element barycenter (radius below resolution)."""


def _square_bounds(bounds):
    """Four bounds (x0, x1, y0, y1) as floats; ValueError unless they are
    finite, with finite sides, and bound a square."""
    x0, x1, y0, y1 = (float(b) for b in bounds)
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise ValueError(f"mesh bounds {(x0, x1, y0, y1)} and side lengths must be finite")
    if x1 <= x0 or y1 <= y0:
        raise ValueError("degenerate bounds")
    if abs((x1 - x0) - (y1 - y0)) > 1e-12 * max(x1 - x0, y1 - y0):
        raise ValueError("only square domains are supported")
    return x0, x1, y0, y1


def _cells_per_side(cells):
    """A cell count as an int; ValueError unless it is a float-sized whole number >= 2."""
    try:
        whole = float(cells).is_integer()
    except OverflowError:
        raise ValueError("cells per side beyond a float's range") from None
    if not whole:
        raise ValueError(f"cells per side must be a whole number, not {cells!r}")
    if cells < 2:
        raise ValueError("need at least 2 cells per side")
    return int(cells)


class Mesh:
    """Uniform triangulation of [x0, x1] x [y0, y1] with square cells.

    The two side lengths must agree (the cell width h is then unambiguous
    and every triangle has area h^2 / 2).  The bounds and the side lengths
    must be finite, and the number of cells per side a whole number.
    """

    def __init__(self, bounds, cells_per_side):
        x0, x1, y0, y1 = _square_bounds(bounds)
        M = _cells_per_side(cells_per_side)
        self.bounds = (x0, x1, y0, y1)
        self.cells_per_side = M
        self.h = (x1 - x0) / M

        # node index = iy * (M+1) + ix, at (xs[ix], ys[iy])
        xs = np.linspace(x0, x1, M + 1)
        ys = np.linspace(y0, y1, M + 1)
        # (dx[ix], dy[iy]): the legs of the triangles of cell (ix, iy), as
        # differences of node coordinates, which round away from h
        self._node_axes = (xs, ys)
        self._cell_widths = (np.diff(xs), np.diff(ys))
        self.nodes = np.empty(((M + 1) * (M + 1), 2))
        node_grid = self.nodes.reshape(M + 1, M + 1, 2)
        node_grid[..., 0] = xs
        node_grid[..., 1] = ys[:, None]
        on_edge = np.ones((M + 1, M + 1), dtype=bool)
        on_edge[1:-1, 1:-1] = False
        self.boundary_nodes = np.flatnonzero(on_edge)
        self.interior_nodes = np.flatnonzero(~on_edge)

        self.element_area = 0.5 * self.h * self.h
        self.areas = np.full(self.num_elements, self.element_area)
        # A barycenter is the mean ((a + b) + c) / 3 of its vertices, the
        # corners (00, 10, 11) of a lower triangle and (00, 11, 01) of an
        # upper one, corner ij at (xs[ix + i], ys[iy + j]).  A vertex x
        # depends on ix alone and a vertex y on iy alone, so per triangle
        # kind t (0 lower, 1 upper) the barycenter x is bx[t, ix] and the
        # barycenter y is by[t, iy].
        x_lo, x_hi, y_lo, y_hi = xs[:-1], xs[1:], ys[:-1], ys[1:]
        bx = np.stack([(x_lo + x_hi) + x_hi, (x_lo + x_hi) + x_lo]) / 3.0
        by = np.stack([(y_lo + y_lo) + y_hi, (y_lo + y_hi) + y_hi]) / 3.0
        # (2, 2, M): the separable barycenter axes the ball kernel reads
        self._barycenter_axes = np.stack([bx, by])
        self.barycenters = np.empty((self.num_elements, 2))
        bary_grid = self.barycenters.reshape(2, M, M, 2)
        bary_grid[..., 0] = bx[:, None, :]
        bary_grid[..., 1] = by[:, :, None]

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_elements(self):
        return 2 * self.cells_per_side * self.cells_per_side

    def boundary_distance(self, points):
        """Distance to the boundary of the rectangle from one point (a
        float) or from each point of a (P, 2) array (a (P,) array)."""
        x0, x1, y0, y1 = self.bounds
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        d = np.minimum(np.minimum(x - x0, x1 - x), np.minimum(y - y0, y1 - y))
        return float(d) if d.ndim == 0 else d

    def locate_element(self, points):
        """Index of the triangle that holds a point, or an int array of them
        for a (P, 2) array of points.

        The cell is exact: np.searchsorted on the node axes puts a point on
        an interior grid line into the cell above or right of it, and one on
        the top or right edge into the last cell.  The triangle is the side
        of the cell's diagonal, tested against the node differences of the
        cell, taken relative to h so that the cross products neither
        underflow nor overflow; a point on the diagonal goes to the lower
        triangle.  A point outside the closed domain raises ValueError naming
        the first one.
        """
        points = np.asarray(points, dtype=float)
        xy = points.reshape(-1, 2)
        x, y = xy[:, 0], xy[:, 1]
        x0, x1, y0, y1 = self.bounds
        inside = (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        if not inside.all():
            raise ValueError(f"point {_point_str(xy[np.argmin(inside)])} outside the mesh")
        M = self.cells_per_side
        xs, ys = self._node_axes
        dx, dy = (w / self.h for w in self._cell_widths)
        ix = np.minimum(np.searchsorted(xs, x, side="right") - 1, M - 1)
        iy = np.minimum(np.searchsorted(ys, y, side="right") - 1, M - 1)
        upper = (y - ys[iy]) * dx[ix] > (x - xs[ix]) * dy[iy]
        elems = upper * (M * M) + iy * M + ix
        return int(elems[0]) if points.ndim == 1 else elems

    @functools.cached_property
    def _element_grid(self):
        # element index = triangle * M^2 + iy * M + ix, triangle 0 lower, 1 upper
        M = self.cells_per_side
        return np.arange(2 * M * M).reshape(2, M, M)

    def interior_points(self, margin, stride=1):
        """Barycenters at distance > margin from the boundary, subsampled."""
        idx = np.flatnonzero(self.boundary_distance(self.barycenters) > margin)
        return self.barycenters[idx[::stride]]


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


def _gradient_planes(mesh, values):
    """Per-triangle constant gradients of the P1 interpolant of (num nodes,
    N) nodal values, as (N, 2, E) component planes: planes[n, k] holds
    d u_n / d x_k of every element, in element order (t, iy, ix).

    A difference stencil on the node grid: with u00, u10, u01, u11 the values
    at the corners of cell (ix, iy) and dx, dy its side lengths, the lower
    triangle's gradient is ((u10 - u00) / dx, (u11 - u10) / dy) and the
    upper one's ((u11 - u01) / dx, (u01 - u00) / dy).  Each plane is one
    contiguous run of E doubles, so element products of planes are plain
    vector products.
    """
    if values.ndim != 2 or values.shape[0] != mesh.num_nodes:
        raise ValueError("nodal field does not match the mesh")
    M = mesh.cells_per_side
    dx, dy = mesh._cell_widths
    U = values.reshape(M + 1, M + 1, -1).transpose(2, 0, 1)     # [n, iy, ix]
    u00, u10, u01, u11 = U[:, :-1, :-1], U[:, :-1, 1:], U[:, 1:, :-1], U[:, 1:, 1:]
    planes = np.empty((U.shape[0], 2, 2, M, M))                 # [n, k, t, iy, ix]
    (lower_x, upper_x), (lower_y, upper_y) = planes.transpose(1, 2, 0, 3, 4)
    np.subtract(u10, u00, out=lower_x)
    np.subtract(u11, u10, out=lower_y)
    np.subtract(u11, u01, out=upper_x)
    np.subtract(u01, u00, out=upper_y)
    planes[:, 0] /= dx
    planes[:, 1] /= dy[:, None]
    return planes.reshape(U.shape[0], 2, 2 * M * M)


def gradient(mesh, u: NodalField):
    """Per-triangle constant gradient of the P1 interpolant of u: the planes
    of `_gradient_planes` transposed to (E, N, 2), in C order, so that
    gathers of whole element tensors (the ball kernel's) stay contiguous."""
    planes = _gradient_planes(mesh, u.values)
    return ElemField(np.ascontiguousarray(planes.transpose(2, 0, 1)))


def integrate(mesh, f):
    """Integral of a per-element scalar, exact for element-wise constants."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.num_elements,):
        raise ValueError("need one scalar per element")
    return float(np.sum(mesh.areas * f))


# Centers per kernel chunk are chosen so that one chunk's window of squared
# distances holds at most this many entries, which bounds the kernel's memory.
_CHUNK_ENTRIES = 1 << 18
# Radii above this act as it.  Axis offsets are clipped to the largest radius,
# which decides no ball differently, and so every squared distance stays
# finite: twice the square of this cap is below the largest double.
_R_CAP = 2.0 ** 511


def _ball_centers(centers):
    """Centers as a (C, 2) float array; a non-finite one raises ValueError."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    if not np.isfinite(centers).all():
        bad = centers[np.argmin(np.isfinite(centers).all(axis=1))]
        raise ValueError(f"ball center {_point_str(bad)} is not finite")
    return centers


def _ball_radii(radii):
    """Radii as Python floats, capped at _R_CAP; one that is not positive
    and finite raises ValueError."""
    out = []
    for r in radii:
        r = float(r)
        if not 0.0 < r < math.inf:
            raise ValueError(f"ball radius {r} must be positive and finite")
        out.append(min(r, _R_CAP))
    return out


def _ball_chunks(mesh, centers, radii):
    """The elements whose barycenter lies in the open ball B_r(c), for every
    center c of a (C, 2) array and every radius r of a list, by chunks of
    centers.

    Yields (lo, hi, members, counts) per chunk centers[lo:hi]: members[k]
    holds the members of the balls of radius radii[k], center after center,
    each ball's in (triangle, iy, ix) order, which is ascending element
    index, and counts[k] their numbers per center.

    A center's cell range at radius r is the cells met by the square of half
    side r around it: every barycenter lies h/3 inside its cell, so it holds
    every member.  A chunk's centers get windows of one shape that hold
    their ranges at r_max, so the chunk's squared distances
    (xs[t, ix] - cx)**2 + (ys[t, iy] - cy)**2 are one array, an outer sum
    of the separable barycenter axes.  Each radius is then compared with
    r * r on the sub-window that holds its ranges for the whole chunk.
    """
    if not radii:
        return
    M, h = mesh.cells_per_side, mesh.h
    axes = mesh._barycenter_axes
    R = len(radii)
    r_max = max(radii)
    k_max = radii.index(r_max)
    signed = np.array([-r for r in radii] + radii)
    origin = np.array(mesh.bounds[::2])[:, None]
    # flat index of axes[axis, t, 0]
    axis_rows = np.arange(0, 4 * M, M).reshape(2, 2, 1)
    side = min(M, 2.0 * r_max / h + 2.0)
    per_chunk = max(1, _CHUNK_ENTRIES // int(2.0 * side * side))
    for lo in range(0, len(centers), per_chunk):
        cs = centers[lo:lo + per_chunk]
        c = len(cs)
        # per (center, axis), the first cells floor(clip((c - r - origin) / h,
        # 0, M)) and then the stops floor(clip((c + r - origin) / h, -1, M - 1))
        # + 1.  The numerator is clipped first, so that a far center or a huge
        # radius cannot overflow the quotient.
        cells = cs[:, :, None] + signed - origin
        np.maximum(cells, -h, out=cells)
        np.minimum(cells, (M + 1) * h, out=cells)
        cells /= h
        np.floor(cells, out=cells)
        cells[:, :, R:] += 1.0
        np.maximum(cells, 0.0, out=cells)
        np.minimum(cells, M, out=cells)
        cells = cells.astype(np.int64)
        first = cells[:, :, k_max]
        w = max(int((cells[:, :, R + k_max] - first).max()), 0)
        start = np.minimum(first, M - w)                              # (c, 2)
        cells -= start[:, :, None]
        x0, y0 = cells[:, :, :R].min(axis=0).tolist()
        x1, y1 = cells[:, :, R:].max(axis=0).tolist()
        # offsets axes[axis, t, start + i] - center[axis], clipped to r_max:
        # that decides no ball of radius <= r_max differently
        offsets = np.take(axes, start[:, :, None, None] + axis_rows + np.arange(w))
        offsets -= cs[:, :, None, None]
        np.maximum(offsets, -r_max, out=offsets)
        np.minimum(offsets, r_max, out=offsets)
        offsets *= offsets
        d2 = offsets[:, 0, :, None, :] + offsets[:, 1, :, :, None]   # (c, t, iy, ix)
        elems = ((start[:, 1] * M + start[:, 0])[:, None, None, None]
                 + mesh._element_grid[:, :w, :w])
        members = []
        counts = np.empty((R, c), dtype=np.int64)
        for k, r in enumerate(radii):
            box = (slice(None), slice(None), slice(y0[k], y1[k]), slice(x0[k], x1[k]))
            inside = d2[box] < r * r
            members.append(elems[box][inside])
            counts[k] = inside.reshape(c, -1).sum(axis=1)
        yield lo, lo + c, members, counts


def _ball_members(mesh, center, radii):
    """Per radius, the elements whose barycenter lies in the open ball
    B_r(center), in ascending element index (possibly empty): the kernel's
    membership for one center."""
    for _, _, members, _ in _ball_chunks(mesh, _ball_centers(center),
                                         _ball_radii(radii)):
        return members
    return []


def _point_str(x):
    """A point as plain floats, '(0.5, 0.5)', for error messages."""
    return str(tuple(np.asarray(x, dtype=float).tolist()))


def _require_nonempty(counts, centers, radii):
    """EmptyBallError naming the first center with an empty ball and its
    first empty radius: counts is (R, C) over the (C, 2) centers, or (R,)
    for one center."""
    empty = np.atleast_2d(np.transpose(counts)) == 0
    if empty.any():
        j, k = np.argwhere(empty)[0]
        center = _point_str(np.reshape(centers, (-1, 2))[j])
        raise EmptyBallError(f"ball of radius {radii[k]} at {center} is below mesh resolution")


def _ball_family_stats(mesh, values, centers, radii, q):
    """Element counts, means and q-mean oscillations of an (E, ...) array of
    per-element values over the open balls B_r(c) of every center c of a
    (C, 2) array and every radius r.

    Returns (counts, means, oscs) of shapes (R, C), (R, C, ...) and (R, C).
    Per chunk of centers, the members of all its balls are gathered with
    one np.take, and every ball's sums are segment sums (np.add.reduceat),
    so a ball's result does not depend on the other balls of the call.
    """
    if q < 1.0:
        raise ValueError("q must be at least 1")
    centers, radii = _ball_centers(centers), _ball_radii(radii)
    shape = values.shape[1:]
    width = math.prod(shape)
    counts = np.zeros((len(radii), len(centers)), dtype=np.int64)
    means = np.full(counts.shape + shape, np.nan)
    oscs = np.full(counts.shape, np.nan)
    for lo, hi, members, chunk_counts in _ball_chunks(mesh, centers, radii):
        counts[:, lo:hi] = chunk_counts
        full = chunk_counts > 0
        n = chunk_counts[full]
        if n.size == 0:
            continue
        idx = np.concatenate(members)
        block = np.take(values, idx, axis=0).reshape(idx.size, width)
        starts = np.cumsum(n) - n
        mean = np.add.reduceat(block, starts, axis=0) / n[:, None]
        block -= np.repeat(mean, n, axis=0)
        block *= block
        dev = block[:, 0].copy()
        for j in range(1, width):
            dev += block[:, j]
        np.sqrt(dev, out=dev)
        dev **= q
        means[:, lo:hi][full] = mean.reshape((n.size,) + shape)
        oscs[:, lo:hi][full] = (np.add.reduceat(dev, starts) / n) ** (1.0 / q)
    return counts, means, oscs


def ball_stats(mesh, f: ElemField, center, radii, q=1.0):
    """Element counts, mean tensors and q-mean oscillations over the open
    balls B_r(center), one per radius.

    For one center, returns (counts, means, oscs) of shapes (R,), (R, N, 2)
    and (R,), with osc_q = (mean of |f - mean|^q)^(1/q) taken against the
    ball mean directly; for a (P, 2) array of centers, shapes (R, P),
    (R, P, N, 2) and (R, P) from one kernel call, each entry bitwise the
    one-center value.  An empty ball has count 0 and nan mean and
    oscillation.  Radii may come in any order.  A center or radius that is
    not finite, or a radius that is not positive, raises ValueError.
    """
    counts, means, oscs = _ball_family_stats(mesh, f.tensors, center, radii, q)
    if np.ndim(center) == 1:
        return counts[:, 0], means[:, 0], oscs[:, 0]
    return counts, means, oscs


def ball_elements(mesh, center, r):
    """Elements whose barycenter lies in the open ball B_r(center)."""
    (idx,) = _ball_members(mesh, center, [r])
    _require_nonempty([idx.size], center, [r])
    return idx


def ball_oscillation(mesh, f: ElemField, center, r, q=1.0):
    """Mean tensor and q-mean oscillation over a ball.

    Returns (mean, osc_q) with osc_q = (mean of |f - mean|^q)^(1/q) for one
    center, and (means, oscs) of shapes (P, N, 2) and (P,) for a (P, 2)
    array of centers, from one kernel call.  An empty ball raises
    EmptyBallError for the first center that has one.
    """
    counts, means, oscs = ball_stats(mesh, f, center, [r], q)
    _require_nonempty(counts, center, [r])
    return means[0], float(oscs[0]) if np.ndim(center) == 1 else oscs[0]


def boundary_values(mesh, fn, components=1):
    """Sample a callable g(x, y) on the boundary nodes, as a (B, N) array."""
    pts = mesh.nodes[mesh.boundary_nodes]
    vals = np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return vals.reshape(len(pts), components)


# --- element-field tables ---------------------------------------------------
#
# ElemField rows: elem,row,col,value
# Meshes are rebuilt from (bounds, M) and never serialized geometrically.


def _write_table(path, header, values):
    """An array as rows 'i_1,...,i_k,value' in C order under a header, in
    one join and one write; a value is written as its repr, which reads
    back to the same float."""
    # the trailing indices repeat for every leading one: format them once
    tails = ["".join(f"{j}," for j in i)
             for i in itertools.product(*map(range, values.shape[1:]))]
    keys = itertools.product(range(len(values)), tails)
    rows = [f"{i},{tail}{v!r}\n" for (i, tail), v in zip(keys, values.ravel().tolist())]
    with open(path, "w") as fh:
        fh.write("".join([header + "\n"] + rows))


def _read_table(path, header, sizes):
    """Rows 'i_1,...,i_k,value' under a fixed header, read in one np.loadtxt
    parse, as a dense array.  sizes gives each index's extent, or None to
    take it from the largest index given.  Blank lines are skipped.  Every
    index tuple must have exactly one row: no rows, a malformed row (a field
    that does not parse, too few or too many fields), an index out of range,
    a duplicate or a gap raises ValueError naming path:line."""
    with open(path) as fh:
        if fh.readline().strip() != header:
            raise ValueError(f"{path}:1: expected header {header!r}")
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"{path}:1: no rows after the header")
    k = len(sizes)
    dtype = [(f"i{j}", np.int64) for j in range(k)] + [("value", np.float64)]

    def parse(rows):
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)

    def row_lines():
        return [n for n, line in enumerate(lines, start=2) if line.strip()]

    try:
        table = parse(lines)     # skips empty lines, not whitespace-only ones
    except ValueError:
        # a malformed row, or a blank line of whitespace: find the first row
        # that does not parse alone
        rows = [line for line in lines if line.strip()]
        for lineno, line in zip(row_lines(), rows):
            try:
                parse([line])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line.strip()!r}") from exc
        table = parse(rows)
    keys = np.column_stack([table[f"i{j}"] for j in range(k)])
    vals = table["value"]
    shape = tuple(int(keys[:, j].max()) + 1 if n is None else n
                  for j, n in enumerate(sizes))
    bad = np.flatnonzero(((keys < 0) | (keys >= shape)).any(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{row_lines()[bad[0]]}: index out of range for shape {shape}")
    flat = np.ravel_multi_index(keys.T, shape)
    order = np.argsort(flat, kind="stable")
    # sorted, a complete table reads 0, 1, 2, ...: the first place it does
    # not is a duplicate (a repeat of the index before) or a gap
    bad = np.flatnonzero(flat[order] != np.arange(flat.size))
    if bad.size or flat.size < np.prod(shape):
        i = bad[0] if bad.size else flat.size
        dup = i < flat.size and flat[order[i]] < i
        index = tuple(int(t) for t in np.unravel_index(i - dup, shape))
        at = row_lines()
        raise ValueError(f"{path}:{at[order[i]] if i < flat.size else at[-1]}: "
                         f"{'duplicate row' if dup else 'no row'} for index {index}")
    out = np.empty(shape)
    out.flat[flat] = vals
    return out


def write_elem_field(path, f: ElemField):
    _write_table(path, "elem,row,col,value", f.tensors)


def read_elem_field(path):
    return ElemField(_read_table(path, "elem,row,col,value", (None, None, 2)))
