"""The lattice maps against the connectivity code they replaced.

Every mesh is a uniform M x M lattice, so its geometry, the element
gradient of a nodal field and the nodal load of an element flux are slices
of the (M + 1) x (M + 1) node grid.  The references below are the earlier
implementations, which go through the element connectivity of
`connectivity.py`: vertex gathers, per-element basis gradients, einsum and
bincount.  The mesh must
reproduce them bitwise; the gradient stencil, which divides by the same
differences of node coordinates, agrees with the sum of u_i grad(phi_i) to
rounding, and bitwise on the unit square at dyadic M; the load stencil is
the gradient's transpose.  The solver works on (N, 2, E) component planes:
the planes stencil is bitwise the (E, N, 2) stencil it replaced, and the
plane contraction is bitwise np.einsum at N = 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connectivity import connectivity, elements
from plaplab.grid import Mesh, NodalField, _gradient_planes, gradient
from plaplab.solver import _dot, _flux_load

SETTINGS = settings(max_examples=60, deadline=None)
EPS = np.finfo(float).eps

squares = st.tuples(st.integers(2, 12), st.floats(-10, 10), st.floats(-10, 10),
                    st.floats(0.1, 10))


def _square(M, x0, y0, side):
    return Mesh((x0, x0 + side, y0, y0 + side), M)


def reference_mesh(bounds, M):
    """Every attribute of a mesh, built from element connectivity."""
    x0, x1, y0, y1 = (float(b) for b in bounds)
    h = (x1 - x0) / M
    xs = np.linspace(x0, x1, M + 1)
    ys = np.linspace(y0, y1, M + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    iy, ix = np.divmod(np.arange(len(nodes)), M + 1)
    on_edge = np.isin(ix, (0, M)) | np.isin(iy, (0, M))
    elems = elements(M)
    verts = nodes[elems]
    barycenters = verts.mean(axis=1)
    b = barycenters.reshape(2, M, M, 2)
    element_area = 0.5 * h * h
    return {
        "bounds": (x0, x1, y0, y1), "cells_per_side": M, "h": h, "nodes": nodes,
        "boundary_nodes": np.flatnonzero(on_edge),
        "interior_nodes": np.flatnonzero(~on_edge),
        "element_area": element_area,
        "areas": np.full(len(elems), element_area), "barycenters": barycenters,
        "num_nodes": len(nodes), "num_elements": len(elems),
        "_element_grid": np.arange(2 * M * M).reshape(2, M, M),
        "_barycenter_axes": np.stack([b[:, 0, :, 0], b[:, :, 0, 1]]),
    }


def reference_gradient(mesh, u):
    """The sum of u_i grad(phi_i) over each element's vertices, by a gather."""
    elems, grads = connectivity(mesh)
    return np.einsum("ein,eik->enk", u.values[elems], grads)


def reference_stencil(mesh, u):
    """The (E, N, 2) difference stencil that preceded the planes."""
    M = mesh.cells_per_side
    dx, dy = np.diff(mesh.nodes[:M + 1, 0]), np.diff(mesh.nodes[::M + 1, 1])
    U = u.values.reshape(M + 1, M + 1, -1)
    u00, u10, u01, u11 = U[:-1, :-1], U[:-1, 1:], U[1:, :-1], U[1:, 1:]
    grads = np.empty((2, M, M, U.shape[2], 2))
    lower, upper = grads
    np.subtract(u10, u00, out=lower[..., 0])
    np.subtract(u11, u10, out=lower[..., 1])
    np.subtract(u11, u01, out=upper[..., 0])
    np.subtract(u01, u00, out=upper[..., 1])
    grads[..., 0] /= dx[:, None]
    grads[..., 1] /= dy[:, None, None]
    return grads.reshape(2 * M * M, -1, 2)


def assert_mesh_is_reference(mesh):
    expected = reference_mesh(mesh.bounds, mesh.cells_per_side)
    for name, value in expected.items():
        got = getattr(mesh, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert np.array_equal(got, value), name
        else:
            assert type(got) is type(value) and got == value, name


@SETTINGS
@given(squares)
def test_mesh_attributes_are_the_connectivity_reference(square):
    assert_mesh_is_reference(_square(*square))


@pytest.mark.parametrize("M", [24, 48, 256])
@pytest.mark.parametrize("bounds", [(0, 1, 0, 1), (-0.004, 0.004, -0.004, 0.004)])
def test_mesh_attributes_are_the_reference_at_bench_sizes(bounds, M):
    assert_mesh_is_reference(Mesh(bounds, M))


@SETTINGS
@given(squares, st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_gradient_stencil_matches_the_basis_gradients(square, comps, seed):
    mesh = _square(*square)
    u = NodalField(np.random.default_rng(seed).normal(size=(mesh.num_nodes, comps)))
    x0, x1, y0, y1 = mesh.bounds
    h = min(x1 - x0, y1 - y0) / mesh.cells_per_side
    err = np.abs(gradient(mesh, u).tensors - reference_gradient(mesh, u)).max()
    assert err <= 16 * EPS * np.abs(u.values).max() / h


@pytest.mark.parametrize("M", [2, 4, 8, 16])
def test_gradient_stencil_is_bitwise_on_the_dyadic_unit_square(M):
    mesh = Mesh((0, 1, 0, 1), M)
    u = NodalField(np.random.default_rng(M).normal(size=(mesh.num_nodes, 2)))
    assert np.array_equal(gradient(mesh, u).tensors, reference_gradient(mesh, u))


@SETTINGS
@given(squares, st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_planes_stencil_is_bitwise_the_gradient(square, comps, seed):
    mesh = _square(*square)
    u = NodalField(np.random.default_rng(seed).normal(size=(mesh.num_nodes, comps)))
    planes = _gradient_planes(mesh, u.values)
    assert planes.shape == (comps, 2, mesh.num_elements) and planes.flags.c_contiguous
    expected = reference_stencil(mesh, u)
    assert np.array_equal(planes.transpose(2, 0, 1), expected)
    assert np.array_equal(gradient(mesh, u).tensors, expected)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
def test_plane_dot_is_the_einsum(comps, E, seed):
    # left to right over (n, k): bitwise einsum at N = 1, and within the
    # rounding of a 2N-term sum, 4 N eps sum |x| |y|, above it
    rng = np.random.default_rng(seed)
    X, Y = (rng.normal(size=(E, comps, 2)) * 10.0 ** rng.uniform(-8, 8, size=(E, 1, 1))
            for _ in range(2))
    got = _dot(np.ascontiguousarray(X.transpose(1, 2, 0)),
               np.ascontiguousarray(Y.transpose(1, 2, 0)))
    expected = np.einsum("enk,enk->e", X, Y)
    if comps == 1:
        assert np.array_equal(got, expected)
    bound = 4 * comps * EPS * np.einsum("enk,enk->e", np.abs(X), np.abs(Y))
    assert np.all(np.abs(got - expected) <= bound)


@SETTINGS
@given(squares, st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_flux_load_is_the_adjoint_of_the_gradient(square, comps, seed):
    # sum over nodes of L(T) . v = sum over elements of |e| T_e : grad v_e,
    # to the rounding of L's terms |e| |T| |v| / h before they cancel; T and
    # grad v are (N, 2, E) planes
    mesh = _square(*square)
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(comps, 2, mesh.num_elements))
    v = NodalField(rng.normal(size=(mesh.num_nodes, comps)))
    lhs = float(np.sum(_flux_load(mesh, T) * v.values))
    rhs = float(np.sum(mesh.element_area * T * _gradient_planes(mesh, v.values)))
    scale = mesh.element_area * np.abs(T).sum() * np.abs(v.values).max() / mesh.h
    assert abs(lhs - rhs) <= 64 * EPS * scale
