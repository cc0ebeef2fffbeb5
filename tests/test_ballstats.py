"""Property tests of the ball-statistics kernel against brute-force definitions.

Membership is checked against a full scan of every barycenter, the kernel
bitwise against a straightforward reference kernel, batched ball families
against the per-ball query, oscillations against the textbook formula, and
the norm table's oscillation seminorms against a constant shift of the
field.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.grid import (ElemField, EmptyBallError, Mesh, ball_elements,
                          ball_oscillation, ball_stats)
from plaplab.lab.config import ExperimentConfig
from plaplab.lab.experiments import norm_table
from plaplab.oscillation import ball_family_oscillations

SETTINGS = settings(max_examples=60, deadline=None)

meshes = st.builds(
    lambda M, x0, y0, side: Mesh((x0, x0 + side, y0, y0 + side), M),
    st.integers(2, 12), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(0.1, 4.0))
# positions in units of the domain: inside, on the boundary and outside
rel_points = st.tuples(
    st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])),
    st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])))
# radii in units of the cell width, down to far below any barycenter gap
rel_radii = st.lists(st.one_of(st.floats(1e-6, 0.2), st.floats(0.2, 20.0)),
                     min_size=1, max_size=4)
offsets = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))


def _point(mesh, rel):
    x0, x1, y0, y1 = mesh.bounds
    return np.array([x0 + rel[0] * (x1 - x0), y0 + rel[1] * (y1 - y0)])


def _field(mesh, seed, offset, rows=2):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=(mesh.num_elements, rows, 2))
    return signal, ElemField(signal + offset)


def _full_scan(mesh, center, r):
    d = mesh.barycenters - center
    return np.flatnonzero(d[:, 0] ** 2 + d[:, 1] ** 2 < r * r)


@SETTINGS
@given(meshes, rel_points, rel_radii)
def test_membership_is_the_full_scan(mesh, rel, radii):
    center = _point(mesh, rel)
    f = ElemField.zeros(mesh)
    counts, _, _ = ball_stats(mesh, f, center, [s * mesh.h for s in radii])
    for count, s in zip(counts, radii):
        r = s * mesh.h
        expect = _full_scan(mesh, center, r)
        assert count == expect.size
        if expect.size == 0:
            with pytest.raises(EmptyBallError):
                ball_elements(mesh, center, r)
        else:
            got = ball_elements(mesh, center, r)
            assert got.dtype == expect.dtype and np.array_equal(got, expect)


@SETTINGS
@given(meshes)
def test_barycenter_axes_reproduce_the_barycenters(mesh):
    xs, ys = mesh._barycenter_axes
    M = mesh.cells_per_side
    b = mesh.barycenters.reshape(2, M, M, 2)
    assert np.array_equal(b[..., 0], np.broadcast_to(xs[:, None, :], (2, M, M)))
    assert np.array_equal(b[..., 1], np.broadcast_to(ys[:, :, None], (2, M, M)))


def _reference_ball_stats(mesh, f, center, radii, q):
    """ball_stats the straightforward way, kept as the bitwise reference:
    every radius masked over the whole cell box of the largest one,
    distances from the gathered barycenters, fancy-index gathers and
    out-of-place arithmetic."""
    center = np.asarray(center, dtype=float)
    r_max = max(radii)

    def cell_range(c, lo):
        return (max(math.floor((c - r_max - lo) / mesh.h), 0),
                max(math.floor((c + r_max - lo) / mesh.h) + 1, 0))

    ax, bx = cell_range(float(center[0]), mesh.bounds[0])
    ay, by = cell_range(float(center[1]), mesh.bounds[2])
    M = mesh.cells_per_side
    cand = np.arange(2 * M * M).reshape(2, M, M)[:, ay:by, ax:bx].ravel()
    d = mesh.barycenters[cand] - center
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2
    counts = np.zeros(len(radii), dtype=np.int64)
    means = np.full((len(radii),) + f.tensors.shape[1:], np.nan)
    oscs = np.full(len(radii), np.nan)
    for k, r in enumerate(radii):
        idx = cand[d2 < r * r]
        if idx.size == 0:
            continue
        w = mesh.areas[idx]
        w = w / w.sum()
        block = f.tensors[idx]
        mean = np.einsum("e,enk->nk", w, block)
        diff = block - mean
        dev = np.sqrt(np.einsum("enk,enk->e", diff, diff))
        counts[k] = idx.size
        means[k] = mean
        oscs[k] = np.sum(w * dev ** q) ** (1.0 / q)
    return counts, means, oscs


ORDERS = {
    "as drawn": lambda rs: rs,
    "ascending": sorted,
    "descending": lambda rs: sorted(rs, reverse=True),
    "repeated": lambda rs: rs + rs[::-1] + rs[:1],
}


@SETTINGS
@given(meshes, rel_points, rel_radii, st.sampled_from(sorted(ORDERS)),
       st.one_of(st.floats(1.0, 4.0), st.sampled_from([1.0, 2.0, 3.0])),
       st.integers(1, 3), offsets, st.integers(0, 2 ** 16))
def test_kernel_is_bitwise_the_reference(mesh, rel, radii, order, q, rows,
                                         offset, seed):
    center = _point(mesh, rel)
    radii = ORDERS[order]([s * mesh.h for s in radii])
    _, f = _field(mesh, seed, offset, rows)
    got = ball_stats(mesh, f, center, radii, q)
    expect = _reference_ball_stats(mesh, f, center, radii, q)
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("center, r, named", [
    ((0.5, 0.5), math.inf, "radius inf"),
    ((math.inf, 0.5), 0.1, "center (inf, 0.5)"),
    ((0.5, math.nan), 0.1, "center (0.5, nan)"),
    ((0.5, 0.5), math.nan, "radius nan"),
])
def test_non_finite_query_is_a_value_error_naming_it(center, r, named):
    mesh = Mesh((0.0, 1.0, 0.0, 1.0), 8)
    with pytest.raises(ValueError, match=re.escape(named)):
        ball_stats(mesh, ElemField.zeros(mesh), center, [0.2, r])


def test_huge_radius_holds_the_mesh_and_a_far_center_is_empty():
    # (c -+ r - lo) / h overflows to +-inf here: the cell range must clip it
    mesh = Mesh((0.0, 1.0, 0.0, 1.0), 8)
    signal, f = _field(mesh, 0, 0.0)
    counts, means, _ = ball_stats(mesh, f, (0.5, 0.5), [1e308, 0.3])
    assert counts[0] == mesh.num_elements
    np.testing.assert_allclose(means[0], signal.mean(axis=0), rtol=1e-12, atol=1e-15)
    mean, osc = ball_oscillation(mesh, f, (0.5, 0.5), 1e308)
    assert np.array_equal(mean, means[0]) and np.isfinite(osc)
    for center in [(1e308, 0.5), (0.5, -1e308), (-1e308, 1e308)]:
        counts, _, _ = ball_stats(mesh, f, center, [0.2, 1e3])
        assert counts.tolist() == [0, 0]
        with pytest.raises(EmptyBallError):
            ball_oscillation(mesh, f, center, 0.2)


@SETTINGS
@given(meshes, st.lists(rel_points, min_size=1, max_size=5), rel_radii,
       st.floats(1.0, 4.0), offsets, st.integers(0, 2 ** 16))
def test_family_equals_single_balls_and_brute_force(mesh, rels, radii, q,
                                                    offset, seed):
    centers = np.array([_point(mesh, rel) for rel in rels])
    radii = [s * mesh.h for s in radii]
    signal, f = _field(mesh, seed, offset)
    oscs, counts = ball_family_oscillations(mesh, f, centers, radii, q)
    assert oscs.shape == counts.shape == (len(radii), len(centers))
    for j, center in enumerate(centers):
        for k, r in enumerate(radii):
            members = _full_scan(mesh, center, r)
            assert counts[k, j] == members.size
            if members.size == 0:
                assert np.isnan(oscs[k, j])
                with pytest.raises(EmptyBallError):
                    ball_oscillation(mesh, f, center, r, q)
                continue
            mean, osc = ball_oscillation(mesh, f, center, r, q)
            assert oscs[k, j] == osc                     # bitwise
            # the textbook formula on the unshifted signal
            block = signal[members]
            dev = np.sqrt(np.sum((block - block.mean(axis=0)) ** 2, axis=(1, 2)))
            ref = np.mean(dev ** q) ** (1.0 / q)
            slack = members.size * 1e-15 * (abs(offset) + 1.0)
            assert abs(osc - ref) <= 1e-9 * ref + slack
            assert np.allclose(mean, block.mean(axis=0) + offset,
                               rtol=1e-12, atol=slack)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_norm_table_oscillation_rows_shift_invariant(seed):
    # a 1e-3 signal riding on a constant tensor 1e6: every mean-oscillation
    # seminorm in the table must not see the shift
    mesh = Mesh((0.0, 1.0, 0.0, 1.0), 16)
    rng = np.random.default_rng(seed)
    signal = ElemField(1e-3 * rng.normal(size=(mesh.num_elements, 1, 2)))
    shifted = ElemField(signal.tensors + 1e6)
    cfg = ExperimentConfig()
    base = dict(norm_table(mesh, signal, cfg))
    moved = dict(norm_table(mesh, shifted, cfg))
    names = [n for n in base if n in ("BMO", "Campanato") or n.startswith("VMO[")]
    assert len(names) >= 4
    for name in names:
        assert abs(moved[name] - base[name]) <= 1e-6 * base[name], name
