import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connectivity import elements
from plaplab.grid import (ElemField, EmptyBallError, Mesh, NodalField,
                          ball_elements, ball_oscillation, boundary_values,
                          gradient, integrate, read_elem_field,
                          read_nodal_field, write_elem_field,
                          write_nodal_field)


@pytest.fixture
def unit_mesh():
    return Mesh((0, 1, 0, 1), 8)


def test_mesh_counts_and_area(unit_mesh):
    M = unit_mesh.cells_per_side
    assert unit_mesh.num_nodes == (M + 1) ** 2
    assert unit_mesh.num_elements == 2 * M * M
    assert np.sum(unit_mesh.areas) == pytest.approx(1.0, rel=1e-12)
    assert all(len(set(e)) == 3 for e in elements(M))


def test_boundary_nodes_exact(unit_mesh):
    x0, x1, y0, y1 = unit_mesh.bounds
    for i in unit_mesh.boundary_nodes:
        x, y = unit_mesh.nodes[i]
        assert x in (x0, x1) or y in (y0, y1)
    for i in unit_mesh.interior_nodes:
        x, y = unit_mesh.nodes[i]
        assert x0 < x < x1 and y0 < y < y1


def test_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        Mesh((0, 1, 0, 2), 8)        # not square
    with pytest.raises(ValueError):
        Mesh((0, 1, 0, 1), 1)


@pytest.mark.parametrize("bounds", [(0, math.nan, 0, 1), (0, 1, math.inf, 2),
                                    (-math.inf, 0, 0, 1), (-1e308, 1e308, -1e308, 1e308)])
def test_mesh_rejects_bounds_or_sides_that_are_not_finite(bounds):
    with pytest.raises(ValueError, match="must be finite"):
        Mesh(bounds, 4)


def test_mesh_rejects_a_cell_count_that_is_not_whole():
    for cells in (4.7, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="whole number"):
            Mesh((0, 1, 0, 1), cells)
    assert Mesh((0, 1, 0, 1), np.int64(4)).cells_per_side == 4
    # a count past a float's range is refused by the same rule, not an OverflowError
    with pytest.raises(ValueError, match="cells per side beyond a float's range"):
        Mesh((0, 1, 0, 1), 10 ** 400)


def test_locate_element(unit_mesh):
    for e in range(0, unit_mesh.num_elements, 7):
        b = unit_mesh.barycenters[e]
        assert unit_mesh.locate_element(b) == e


def test_locate_element_takes_an_array_of_points(unit_mesh):
    got = unit_mesh.locate_element(unit_mesh.barycenters)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.arange(unit_mesh.num_elements))
    assert unit_mesh.locate_element(np.empty((0, 2))).shape == (0,)


def test_locate_element_finds_the_cell_one_ulp_past_a_grid_line():
    # dividing by h put such points into the cell before
    mesh = Mesh((-1, 1, -1, 1), 96)
    xs = mesh.nodes[:97, 0]
    inside = np.nextafter(xs[1:-1], np.inf)
    pts = np.column_stack([inside, np.full(95, -1.0)])
    assert np.array_equal(mesh.locate_element(pts), np.arange(1, 96))
    pts = np.column_stack([np.full(95, -1.0), inside])
    assert np.array_equal(mesh.locate_element(pts), 96 * 96 + 96 * np.arange(1, 96))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(-10, 10), st.floats(-10, 10), st.floats(0.01, 10),
       st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.integers(-2, 2),
                          st.integers(-2, 2)), min_size=1, max_size=20))
def test_locate_element_is_exact(M, x0, y0, side, fractions):
    # the cell holds the point in exact arithmetic; the triangle is the side
    # of the exact diagonal, up to the rounding of the cross product
    mesh = Mesh((x0, x0 + side, y0, y0 + side), M)
    xs, ys = mesh.nodes[:M + 1, 0], mesh.nodes[::M + 1, 1]
    pts = []
    for fx, fy, sx, sy in fractions:
        # near a grid line, a few ulps either side of it
        x = np.clip(xs[int(fx * M)] + sx * np.spacing(xs[int(fx * M)]), xs[0], xs[-1])
        y = np.clip(y0 + fy * side, ys[0], ys[-1]) if sy == 0 else \
            np.clip(ys[int(fy * M)] + sy * np.spacing(ys[int(fy * M)]), ys[0], ys[-1])
        pts.append((x, y))
    pts = np.array(pts)
    for (x, y), e in zip(pts, mesh.locate_element(pts)):
        t, cell = divmod(int(e), M * M)
        iy, ix = divmod(cell, M)
        X, Y = Fraction(x), Fraction(y)
        assert Fraction(xs[ix]) <= X <= Fraction(xs[ix + 1])
        assert Fraction(ys[iy]) <= Y <= Fraction(ys[iy + 1])
        rx, ry = X - Fraction(xs[ix]), Y - Fraction(ys[iy])
        dx, dy = Fraction(xs[ix + 1]) - Fraction(xs[ix]), Fraction(ys[iy + 1]) - Fraction(ys[iy])
        cross = ry * dx - rx * dy
        if abs(cross) > 8 * Fraction(np.finfo(float).eps) * (abs(ry) * dx + abs(rx) * dy):
            assert t == (cross > 0)
        assert int(e) == mesh.locate_element((x, y))


@pytest.mark.parametrize("point", [(1.5, 0.5), (0.5, -1e-300), (np.nan, 0.5)])
def test_locate_element_names_the_first_point_outside(unit_mesh, point):
    pts = np.array([(0.5, 0.5), point, (2.0, 2.0)])
    with pytest.raises(ValueError, match=rf"point \({point[0]}, {point[1]}\) outside the mesh"):
        unit_mesh.locate_element(pts)


# --- gradient -------------------------------------------------------------------


def test_gradient_exact_for_affine(unit_mesh):
    u = NodalField.from_callable(unit_mesh, lambda x, y: 3.0 * x - 2.0 * y + 0.7)
    g = gradient(unit_mesh, u)
    assert np.allclose(g.tensors[:, 0, 0], 3.0, atol=1e-13)
    assert np.allclose(g.tensors[:, 0, 1], -2.0, atol=1e-13)


def test_gradient_of_constant_is_zero(unit_mesh):
    u = NodalField(np.full((unit_mesh.num_nodes, 2), 4.2))
    g = gradient(unit_mesh, u)
    assert np.allclose(g.tensors, 0.0, atol=1e-13)


def test_gradient_reference_triangle_hand_case():
    # u = x*y sampled at the corners (0,0), (h,0), (0,h) vanishes at all
    # three, so the P1 gradient on that triangle is exactly (0, 0); checked
    # against the mesh whose corner cell contains a congruent triangle with
    # barycentric gradients computed by hand
    h = 0.25
    verts = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
    vals = verts[:, 0] * verts[:, 1]
    assert np.allclose(vals, 0.0)
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    gl1 = np.array([d2[1], -d2[0]]) / det
    gl2 = np.array([-d1[1], d1[0]]) / det
    grad = vals[0] * (-gl1 - gl2) + vals[1] * gl1 + vals[2] * gl2
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_gradient_is_linear(unit_mesh):
    rng = np.random.default_rng(0)
    u1 = NodalField(rng.normal(size=(unit_mesh.num_nodes, 2)))
    u2 = NodalField(rng.normal(size=(unit_mesh.num_nodes, 2)))
    g12 = gradient(unit_mesh, NodalField(u1.values + 3.0 * u2.values))
    assert np.allclose(g12.tensors,
                       gradient(unit_mesh, u1).tensors
                       + 3.0 * gradient(unit_mesh, u2).tensors, rtol=1e-12)


def test_gradient_rejects_mismatch(unit_mesh):
    with pytest.raises(ValueError):
        gradient(unit_mesh, NodalField(np.zeros((5, 1))))


# --- quadrature -----------------------------------------------------------------


def test_integrate_constant(unit_mesh):
    assert integrate(unit_mesh, np.ones(unit_mesh.num_elements)) == pytest.approx(1.0)


def test_integrate_barycentric_linear_exact(unit_mesh):
    f = unit_mesh.barycenters[:, 0]
    assert integrate(unit_mesh, f) == pytest.approx(0.5, abs=1e-14)


def test_integrate_second_order():
    errs = []
    for M in (8, 16, 32, 64):
        mesh = Mesh((0, 1, 0, 1), M)
        f = np.sin(np.pi * mesh.barycenters[:, 0])
        errs.append(abs(integrate(mesh, f) - 2.0 / np.pi))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9


# --- ball queries ----------------------------------------------------------------


def test_ball_all_elements(unit_mesh):
    idx = ball_elements(unit_mesh, (0.5, 0.5), 10.0)
    assert len(idx) == unit_mesh.num_elements


def test_ball_below_resolution_raises(unit_mesh):
    with pytest.raises(EmptyBallError):
        ball_elements(unit_mesh, (0.0, 0.0), 1e-6)


def test_tiny_ball_at_barycenter_is_singleton(unit_mesh):
    b = unit_mesh.barycenters[10]
    idx = ball_elements(unit_mesh, b, unit_mesh.h / 4.0)
    # enumeration oracle
    expect = [e for e in range(unit_mesh.num_elements)
              if np.hypot(*(unit_mesh.barycenters[e] - b)) < unit_mesh.h / 4.0]
    assert list(idx) == expect


def test_ball_monotone_in_radius(unit_mesh):
    rs = [0.1, 0.2, 0.35, 0.9]
    sets = [set(ball_elements(unit_mesh, (0.4, 0.6), r)) for r in rs]
    for small, big in zip(sets, sets[1:]):
        assert small <= big


def test_ball_area_approaches_disc():
    mesh = Mesh((0, 1, 0, 1), 64)
    r = 8.5 * mesh.h
    idx = ball_elements(mesh, (0.5, 0.5), r)
    assert len(idx) * mesh.element_area == pytest.approx(np.pi * r * r, rel=0.1)


def test_ball_oscillation_constant_field(unit_mesh):
    f = ElemField(np.full((unit_mesh.num_elements, 2, 2), 3.3))
    mean, osc = ball_oscillation(unit_mesh, f, (0.5, 0.5), 0.3, 2.0)
    assert np.allclose(mean, 3.3)
    assert osc == pytest.approx(0.0, abs=1e-12)


def test_ball_oscillation_two_element_hand_case():
    # two colinear tensors of norms 0 and 2 with equal areas: mean norm 1,
    # osc_1 = 1; the 2x2 mesh's first cell pair is isolated by a small ball
    # around the cell midpoint
    mesh = Mesh((0, 1, 0, 1), 2)
    b0, b1 = 0, 4            # the two triangles of cell (0, 0)
    t = np.zeros((mesh.num_elements, 1, 2))
    t[b1, 0, 0] = 2.0
    f = ElemField(t)
    center = (0.25, 0.25)
    r = 0.15
    assert set(ball_elements(mesh, center, r)) == {b0, b1}
    mean, osc = ball_oscillation(mesh, f, center, r, 1.0)
    assert np.sqrt(np.sum(mean ** 2)) == pytest.approx(1.0)
    assert osc == pytest.approx(1.0)


def test_oscillation_jensen_monotone_in_q(unit_mesh):
    rng = np.random.default_rng(1)
    f = ElemField(rng.normal(size=(unit_mesh.num_elements, 2, 2)))
    _, o1 = ball_oscillation(unit_mesh, f, (0.5, 0.5), 0.4, 1.0)
    _, o2 = ball_oscillation(unit_mesh, f, (0.5, 0.5), 0.4, 2.0)
    _, o4 = ball_oscillation(unit_mesh, f, (0.5, 0.5), 0.4, 4.0)
    assert o1 <= o2 + 1e-14 and o2 <= o4 + 1e-14


def test_oscillation_shift_and_scale_invariance(unit_mesh):
    rng = np.random.default_rng(2)
    f = ElemField(rng.normal(size=(unit_mesh.num_elements, 1, 2)))
    shift = np.array([[2.0, -1.0]])
    g = ElemField(f.tensors + shift)
    _, of = ball_oscillation(unit_mesh, f, (0.5, 0.5), 0.3, 1.5)
    _, og = ball_oscillation(unit_mesh, g, (0.5, 0.5), 0.3, 1.5)
    assert of == pytest.approx(og, rel=1e-10)
    _, o3 = ball_oscillation(unit_mesh, ElemField(3.0 * f.tensors),
                             (0.5, 0.5), 0.3, 1.5)
    assert o3 == pytest.approx(3.0 * of, rel=1e-12)


# --- field tables -----------------------------------------------------------------


def test_field_io_round_trip(tmp_path, unit_mesh):
    rng = np.random.default_rng(3)
    u = NodalField(rng.normal(size=(unit_mesh.num_nodes, 2)))
    f = ElemField(rng.normal(size=(unit_mesh.num_elements, 2, 2)))
    up, fp = tmp_path / "u.csv", tmp_path / "f.csv"
    write_nodal_field(up, u)
    write_elem_field(fp, f)
    assert np.array_equal(read_nodal_field(up).values, u.values)
    assert np.array_equal(read_elem_field(fp).tensors, f.tensors)


def _write_nodal_field_per_entry(path, u):
    """Reference: the writer as one write per entry."""
    with open(path, "w") as fh:
        fh.write("node,comp,value\n")
        for node in range(u.values.shape[0]):
            for comp in range(u.values.shape[1]):
                fh.write(f"{node},{comp},{float(u.values[node, comp])!r}\n")


def _write_elem_field_per_entry(path, f):
    """Reference: the writer as one write per entry."""
    with open(path, "w") as fh:
        fh.write("elem,row,col,value\n")
        E, N, _ = f.tensors.shape
        for e in range(E):
            for r in range(N):
                for c in range(2):
                    fh.write(f"{e},{r},{c},{float(f.tensors[e, r, c])!r}\n")


@pytest.mark.parametrize("N", [1, 2])
def test_field_writers_match_the_per_entry_reference(tmp_path, unit_mesh, N):
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 1e16, 0.1])
    rng = np.random.default_rng(N)
    for scale in (1.0, 1e-300, 1e300):
        nodal = rng.normal(size=(unit_mesh.num_nodes, N)) * scale
        elem = rng.normal(size=(unit_mesh.num_elements, N, 2)) * scale
        nodal.flat[:special.size] = special
        elem.flat[:special.size] = special
        for write, ref, field in ((write_nodal_field, _write_nodal_field_per_entry,
                                   NodalField(nodal)),
                                  (write_elem_field, _write_elem_field_per_entry,
                                   ElemField(elem))):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write(got, field)
            ref(want, field)
            assert got.read_bytes() == want.read_bytes()


def test_field_io_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("elem,row,col,value\n0,0,0,1.0\n0,0,oops\n")
    with pytest.raises(ValueError, match=":3"):
        read_elem_field(path)
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match=":1"):
        read_elem_field(path)


@pytest.mark.parametrize("reader, header, rows", [
    (read_nodal_field, "node,comp,value", ["0,0,1.0", "{i},0,2.0"]),
    (read_elem_field, "elem,row,col,value",
     ["0,0,0,1.0", "0,0,1,1.0", "{i},0,0,2.0", "{i},0,1,2.0"]),
])
def test_field_tables_reject_gaps_and_duplicates(tmp_path, reader, header, rows):
    path = tmp_path / "t.csv"
    # rows for index 0 and 5 only: index 1 is missing, named at the first
    # row of index 5
    path.write_text("\n".join([header] + [r.format(i=5) for r in rows]) + "\n")
    at = 2 + len(rows) // 2
    with pytest.raises(ValueError, match=rf"t\.csv:{at}: no row for index \(1, 0"):
        reader(path)
    # index 0 given twice: the second row is named
    dup = [r.format(i=1) for r in rows] + [rows[0]]
    path.write_text("\n".join([header] + dup) + "\n")
    with pytest.raises(ValueError,
                       match=rf"t\.csv:{len(dup) + 1}: duplicate row for index \(0, 0"):
        reader(path)


def test_boundary_values_shape(unit_mesh):
    g = boundary_values(unit_mesh, lambda x, y: x + y)
    assert g.shape == (len(unit_mesh.boundary_nodes), 1)
