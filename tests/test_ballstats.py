"""Property tests of the ball-statistics kernel against brute-force definitions.

Membership is checked against a full scan of every barycenter, the kernel
bitwise against a straightforward reference kernel in the same summation
order and within a stated bound of the area-weighted formula it replaced,
many-center calls (over several chunks) and the batched values of every
point-wise ball function bitwise against single-point calls, oscillations
against the textbook formula, and the norm table's oscillation seminorms
against a constant shift of the field.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import grid
from plaplab.fluxmaps import Exponent
from plaplab.grid import (ElemField, EmptyBallError, Mesh, ball_elements,
                          ball_oscillation, ball_stats)
from plaplab.lab.config import ExperimentConfig
from plaplab.lab.experiments import norm_table
from plaplab.maximal import (MarginError, RadiiSet, plain_maximal, sharp_maximal,
                             weighted_local_sharp)
from plaplab.oscillation import (PotentialParams, ball_family_oscillations,
                                 oscillation_potential, power_modulus)

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


def _reference_members(mesh, center, radii):
    """Per radius, the members the straightforward way: every radius masked
    over the whole cell box of the largest one, with distances from the
    gathered barycenters."""
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
    return [cand[d2 < r * r] for r in radii]


def _segment_sum(x):
    """A sum the way np.add.reduceat sums one segment: its first term plus
    the pairwise np.sum of the rest."""
    return x[0] + np.sum(x[1:]) if x.size > 1 else x[0]


def _reference_ball_stats(mesh, f, center, radii, q):
    """ball_stats the straightforward way, kept as the bitwise reference:
    fancy-index gathers, out-of-place arithmetic, each sum a _segment_sum,
    the components of |f - mean|^2 added left to right, and powers taken on
    arrays, as the kernel takes them."""
    counts = np.zeros(len(radii), dtype=np.int64)
    means = np.full((len(radii),) + f.tensors.shape[1:], np.nan)
    oscs = np.full(len(radii), np.nan)
    for k, idx in enumerate(_reference_members(mesh, center, radii)):
        n = idx.size
        if n == 0:
            continue
        block = f.tensors[idx].reshape(n, -1)
        mean = np.array([_segment_sum(col) for col in block.T]) / n
        diff = block - mean
        sq = diff * diff
        dev = sq[:, 0]
        for j in range(1, sq.shape[1]):
            dev = dev + sq[:, j]
        dev = np.sqrt(dev) ** q
        counts[k] = n
        means[k] = mean.reshape(f.tensors.shape[1:])
        oscs[k] = (np.array([_segment_sum(dev) / n]) ** (1.0 / q))[0]
    return counts, means, oscs


def _area_weighted_stats(mesh, values, center, radii, q):
    """The area-weighted formulas the kernel replaced, for the gap test: for
    a tensor field, weights area / sum(area), means and deviations by
    einsum; for a scalar field, the mean sum(area * v) / sum(area) that the
    plain maximal function took of |f|^q."""
    means = np.full((len(radii),) + values.shape[1:], np.nan)
    oscs = np.full(len(radii), np.nan)
    for k, idx in enumerate(_reference_members(mesh, center, radii)):
        if idx.size == 0:
            continue
        w = mesh.areas[idx]
        block = values[idx]
        if block.ndim == 1:
            means[k] = np.sum(w * block) / w.sum()
            dev = np.abs(block - means[k])
            w = w / w.sum()
        else:
            w = w / w.sum()
            means[k] = np.einsum("e,enk->nk", w, block)
            diff = block - means[k]
            dev = np.sqrt(np.einsum("enk,enk->e", diff, diff))
        oscs[k] = np.sum(w * dev ** q) ** (1.0 / q)
    return means, oscs


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


@SETTINGS
@given(meshes, rel_points, rel_radii,
       st.one_of(st.floats(1.0, 4.0), st.sampled_from([1.0, 2.0, 3.0])),
       st.integers(0, 3), offsets, st.integers(0, 2 ** 16))
def test_kernel_is_within_roundoff_of_the_area_weighted_formula(
        mesh, rel, radii, q, rows, offset, seed):
    # the kernel takes plain means (sum / n) where the replaced formulas
    # weighted by area: on a ball of n members with entries of magnitude at
    # most s, means agree to 2 n eps s per entry and q-mean oscillations to
    # 2 n eps (s + osc).  rows = 0 draws the scalar field |f|^q, whose ball
    # means are the plain maximal function's q-means.
    center = _point(mesh, rel)
    radii = [s * mesh.h for s in radii]
    _, f = _field(mesh, seed, offset, max(rows, 1))
    values = f.tensors if rows else f.norms() ** q
    _, means, oscs = grid._ball_family_stats(mesh, values, center, radii, q)
    means, oscs = means[:, 0], oscs[:, 0]
    old_means, old_oscs = _area_weighted_stats(mesh, values, center, radii, q)
    eps = np.finfo(float).eps
    for k, idx in enumerate(_reference_members(mesh, center, radii)):
        if idx.size == 0:
            assert np.isnan(oscs[k]) and np.isnan(old_oscs[k])
            continue
        bound = 2.0 * idx.size * eps * np.abs(values[idx]).max()
        assert np.abs(means[k] - old_means[k]).max() <= bound
        assert abs(oscs[k] - old_oscs[k]) <= bound + 2.0 * idx.size * eps * oscs[k]


@SETTINGS
@given(meshes, st.lists(rel_points, min_size=1, max_size=12), rel_radii,
       st.floats(1.0, 4.0), st.integers(1, 3), offsets, st.integers(0, 2 ** 16),
       st.sampled_from([1, 50, 400, grid._CHUNK_ENTRIES]))
def test_many_centers_equal_single_centers_bitwise(mesh, rels, radii, q, rows,
                                                   offset, seed, chunk_entries):
    # a small chunk constant spreads the centers over several chunks; no
    # ball's result may depend on the other centers or on the chunking
    centers = np.array([_point(mesh, rel) for rel in rels])
    radii = [s * mesh.h for s in radii]
    _, f = _field(mesh, seed, offset, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_CHUNK_ENTRIES", chunk_entries)
        counts, means, oscs = grid._ball_family_stats(mesh, f.tensors, centers,
                                                      radii, q)
    for j, center in enumerate(centers):
        one = ball_stats(mesh, f, center, radii, q)
        for got, expect in zip((counts[:, j], means[:, j], oscs[:, j]), one):
            assert got.tobytes() == expect.tobytes()
        assert counts[:, j].tolist() == [_full_scan(mesh, center, r).size
                                         for r in radii]


# every point-wise ball function as (call, axis of its points in the output)
POINTWISE = {
    "sharp_maximal": (lambda mesh, f, q, radii, x, interior:
                      sharp_maximal(mesh, f, q, radii, x, interior), 0),
    "weighted_local_sharp": (lambda mesh, f, q, radii, x, interior:
                             weighted_local_sharp(mesh, f, q, power_modulus(0.5),
                                                  1.01 * radii.r_max, radii, x,
                                                  interior), 0),
    "plain_maximal": (lambda mesh, f, q, radii, x, interior:
                      plain_maximal(mesh, f, q, radii, x, interior), 0),
    "ball_oscillation": (lambda mesh, f, q, radii, x, interior:
                         ball_oscillation(mesh, f, x, radii.r_min, q), 0),
    "ball_stats": (lambda mesh, f, q, radii, x, interior:
                   ball_stats(mesh, f, x, radii.values(), q), 1),
    "oscillation_potential": (lambda mesh, f, q, radii, x, interior:
                              oscillation_potential(mesh, f, x, PotentialParams(
                                  radii.r_max, 0.5, Exponent(3.0))), 0),
}


def _parts(result):
    return tuple(np.asarray(v) for v in (result if isinstance(result, tuple)
                                         else (result,)))


@pytest.mark.parametrize("name", sorted(POINTWISE))
@settings(max_examples=30, deadline=None)
@given(st.integers(8, 16), st.lists(st.tuples(*[st.one_of(st.floats(0.31, 0.69),
                                                          st.floats(0.0, 1.0))] * 2),
                                    min_size=1, max_size=10),
       st.sampled_from([1.0, 1.5, 2.0]), st.integers(0, 2 ** 16))
def test_batched_is_the_per_point_value(name, M, pts, q, seed):
    call, axis = POINTWISE[name]
    mesh = Mesh((0.0, 1.0, 0.0, 1.0), M)
    _, f = _field(mesh, seed, 0.0, 1)
    pts = np.array(pts)
    # margin failures and outer balls outside the mesh with the first, empty
    # balls with the second
    for radii, interior in [(RadiiSet(2.0 * mesh.h, 0.3), True),
                            (RadiiSet(0.3 * mesh.h, 0.3), False)]:
        single = []
        for x in pts:
            try:
                single.append(_parts(call(mesh, f, q, radii, x, interior)))
            except ValueError as exc:        # MarginError and EmptyBallError too
                single.append(exc)
        errors = [v for v in single if isinstance(v, Exception)]
        if errors:
            # the batch raises what the first failing point raises
            with pytest.raises(type(errors[0]), match=re.escape(str(errors[0]))) as info:
                call(mesh, f, q, radii, pts, interior)
            assert type(info.value) is type(errors[0])
        else:
            got = _parts(call(mesh, f, q, radii, pts, interior))
            for j, one in enumerate(single):
                for batch, part in zip(got, one):
                    entry = np.take(batch, j, axis=axis)
                    assert entry.dtype == part.dtype and entry.shape == part.shape
                    assert entry.tobytes() == part.tobytes()
        # no points give empty arrays
        none = _parts(call(mesh, f, q, radii, np.empty((0, 2)), interior))
        assert all(part.shape[axis] == 0 for part in none)


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
    # a huge numpy radius, and a huge radius at a far center
    counts, _, _ = ball_stats(mesh, f, (0.5, 0.5), np.array([1e308]))
    assert counts.tolist() == [mesh.num_elements]
    counts, _, _ = ball_stats(mesh, f, (0.5, 1e308), [1e308])
    assert counts.tolist() == [0]
    _, counts = ball_family_oscillations(
        mesh, f, [(0.5, 0.5), (1e308, 0.5), (0.5, 1e308)], np.array([0.2, 1e308]), 1.0)
    assert counts[:, 1:].tolist() == [[0, 0], [0, 0]]
    assert counts[1, 0] == mesh.num_elements
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
