import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.grid import ElemField, EmptyBallError, Mesh
from plaplab.maximal import (MarginError, RadiiSet, plain_maximal, riesz_ratio,
                             sharp_maximal, weighted_local_sharp)
from plaplab.oscillation import constant_modulus, power_modulus
from plaplab.rearrange import StepFunction, rearrange


def brute_force_sharp(mesh, f, q, radii, x):
    """Independent enumeration oracle: explicit loops, no shared code path."""
    best = 0.0
    for r in radii:
        members = []
        for e in range(mesh.num_elements):
            dx = mesh.barycenters[e, 0] - x[0]
            dy = mesh.barycenters[e, 1] - x[1]
            if dx * dx + dy * dy < r * r:
                members.append(e)
        if not members:
            continue
        mean = sum(f.tensors[e] for e in members) / len(members)
        osc = (sum(math.sqrt(float(np.sum((f.tensors[e] - mean) ** 2))) ** q
                   for e in members) / len(members)) ** (1.0 / q)
        best = max(best, osc)
    return best


def indicator_field(mesh, elements):
    t = np.zeros((mesh.num_elements, 1, 2))
    for e in elements:
        t[e, 0, 0] = 1.0
    return ElemField(t)


def test_radii_set_values():
    rs = RadiiSet(0.05, 0.4, 0.5)
    assert np.allclose(rs.values(), [0.4, 0.2, 0.1, 0.05])
    with pytest.raises(ValueError):
        RadiiSet(0.4, 0.05)
    with pytest.raises(ValueError):
        RadiiSet(0.1, 0.2, 1.5)


@pytest.mark.parametrize("r_max", [math.inf, math.nan])
def test_radii_set_needs_a_finite_largest_radius(r_max):
    # values() halves r_max until it falls below r_min, which inf never does
    with pytest.raises(ValueError, match="r_max"):
        RadiiSet(1e-3, r_max)


def test_margin_errors():
    mesh = Mesh((0, 1, 0, 1), 8)
    f = indicator_field(mesh, [0])
    radii = RadiiSet(0.1, 0.4)
    with pytest.raises(MarginError):
        sharp_maximal(mesh, f, 1.0, radii, (0.2, 0.5))
    with pytest.raises(MarginError):
        plain_maximal(mesh, f, 1.0, radii, (0.5, 0.95))
    # clipped evaluation is allowed on request
    assert sharp_maximal(mesh, f, 1.0, radii, (0.2, 0.5),
                         require_interior=False) >= 0.0


def test_error_messages_print_array_points_as_plain_floats():
    mesh = Mesh((0, 1, 0, 1), 8)
    f = indicator_field(mesh, [0])
    x = np.array([0.5, 0.5])
    with pytest.raises(MarginError, match=re.escape("point (0.5, 0.5) is within")):
        sharp_maximal(mesh, f, 1.0, RadiiSet(0.1, 0.6), x)
    with pytest.raises(EmptyBallError, match=re.escape("at (0.5, 0.5) is below")):
        sharp_maximal(mesh, f, 1.0, RadiiSet(1e-4, 1e-3), x)


def test_constant_field_vanishes():
    mesh = Mesh((0, 1, 0, 1), 8)
    f = ElemField(np.full((mesh.num_elements, 2, 2), 1.7))
    radii = RadiiSet(2 * mesh.h, 0.3)
    assert sharp_maximal(mesh, f, 1.0, radii, (0.5, 0.5)) <= 1e-12
    assert plain_maximal(mesh, f, 1.0, radii, (0.5, 0.5)) == \
        pytest.approx(1.7 * 2.0, rel=1e-12)   # |const| = 1.7 * sqrt(4)
    omega = power_modulus(0.5)
    assert weighted_local_sharp(mesh, f, 1.0, omega, 0.35, radii,
                                (0.5, 0.5)) <= 1e-10


@pytest.mark.parametrize("M", [4, 6])
def test_indicator_matches_enumeration_oracle(M):
    # every cell indicator, its own barycenter, radii {h, 2h, 4h}; the
    # covered-fraction formula 2 mu (1 - mu) is checked against enumeration
    mesh = Mesh((0, 1, 0, 1), M)
    h = mesh.h
    for cell in range(M * M):
        ix, iy = cell % M, cell // M
        elems = [cell, cell + M * M]
        f = indicator_field(mesh, elems)
        x = ((ix + 0.5) * h, (iy + 0.5) * h)
        radii = [h, 2 * h, 4 * h]
        got = sharp_maximal(mesh, f, 1.0, RadiiSet(h, 4 * h, 0.5), x,
                            require_interior=False)
        oracle = 0.0
        for r in radii:
            members = [e for e in range(mesh.num_elements)
                       if (mesh.barycenters[e, 0] - x[0]) ** 2
                       + (mesh.barycenters[e, 1] - x[1]) ** 2 < r * r]
            mu = sum(1 for e in members if e in elems) / len(members)
            oracle = max(oracle, 2.0 * mu * (1.0 - mu))
        assert got == pytest.approx(oracle, abs=1e-13)


def test_sharp_matches_brute_force_on_random_fields():
    mesh = Mesh((0, 1, 0, 1), 6)
    rng = np.random.default_rng(0)
    f = ElemField(rng.normal(size=(mesh.num_elements, 2, 2)))
    radii = RadiiSet(mesh.h, 4 * mesh.h, 0.5)
    for x in [(0.5, 0.5), (0.4, 0.31), (0.71, 0.68)]:
        got = sharp_maximal(mesh, f, 2.0, radii, x, require_interior=False)
        oracle = brute_force_sharp(mesh, f, 2.0, radii.values(), x)
        assert got == pytest.approx(oracle, rel=1e-12)


def test_plain_maximal_indicator_covered_fraction():
    mesh = Mesh((0, 1, 0, 1), 6)
    elems = [14, 14 + 36]
    f = indicator_field(mesh, elems)
    x = mesh.barycenters[14]
    radii = RadiiSet(mesh.h, 2 * mesh.h, 0.5)
    val = plain_maximal(mesh, f, 1.0, radii, x, require_interior=False)
    members = [e for e in range(mesh.num_elements)
               if np.hypot(*(mesh.barycenters[e] - x)) < mesh.h]
    frac = sum(1 for e in members if e in elems) / len(members)
    assert val >= frac - 1e-13


def test_sharp_at_most_twice_plain():
    rng = np.random.default_rng(1)
    mesh = Mesh((0, 1, 0, 1), 12)
    radii = RadiiSet(2 * mesh.h, 0.24, 0.5)
    pts = mesh.interior_points(0.25)[::7]
    for _ in range(20):
        f = ElemField(rng.normal(size=(mesh.num_elements, 2, 2)))
        for x in pts:
            s = sharp_maximal(mesh, f, 2.0, radii, x)
            m = plain_maximal(mesh, f, 2.0, radii, x)
            assert s <= 2.0 * m + 1e-13


def test_q_monotonicity():
    rng = np.random.default_rng(2)
    mesh = Mesh((0, 1, 0, 1), 10)
    f = ElemField(rng.normal(size=(mesh.num_elements, 1, 2)))
    radii = RadiiSet(2 * mesh.h, 0.3, 0.5)
    x = (0.5, 0.5)
    vals = [sharp_maximal(mesh, f, q, radii, x) for q in (1.0, 1.5, 2.0, 3.0)]
    assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))


def test_translation_and_scaling_invariance():
    rng = np.random.default_rng(3)
    mesh = Mesh((0, 1, 0, 1), 10)
    f = ElemField(rng.normal(size=(mesh.num_elements, 1, 2)))
    shifted = ElemField(f.tensors + np.array([[5.0, -2.0]]))
    radii = RadiiSet(2 * mesh.h, 0.3, 0.5)
    omega = power_modulus(0.4)
    x = (0.5, 0.5)
    assert sharp_maximal(mesh, f, 1.0, radii, x) == \
        pytest.approx(sharp_maximal(mesh, shifted, 1.0, radii, x), rel=1e-9)
    lam = 3.0
    assert sharp_maximal(mesh, ElemField(lam * f.tensors), 1.0, radii, x) == \
        pytest.approx(lam * sharp_maximal(mesh, f, 1.0, radii, x), rel=1e-12)
    w1 = weighted_local_sharp(mesh, f, 1.0, omega, 0.35, radii, x)
    w2 = weighted_local_sharp(mesh, shifted, 1.0, omega, 0.35, radii, x)
    assert w1 == pytest.approx(w2, rel=1e-9)


def test_weighted_with_unit_weight_reduces_to_sharp():
    rng = np.random.default_rng(4)
    mesh = Mesh((0, 1, 0, 1), 10)
    f = ElemField(rng.normal(size=(mesh.num_elements, 1, 2)))
    radii = RadiiSet(2 * mesh.h, 0.3, 0.5)
    x = (0.5, 0.5)
    assert weighted_local_sharp(mesh, f, 1.0, constant_modulus(), 0.31,
                                radii, x) == \
        pytest.approx(sharp_maximal(mesh, f, 1.0, radii, x), rel=1e-12)


def test_weighted_linear_field_radius_independent():
    # f = b . x with omega(r) = r: the per-radius quotient is r-independent
    # up to discretization; cross-checked against per-radius brute force
    mesh = Mesh((0, 1, 0, 1), 32)
    b = mesh.barycenters
    t = np.zeros((mesh.num_elements, 1, 2))
    t[:, 0, 0] = 2.0 * b[:, 0] - 1.0 * b[:, 1]
    f = ElemField(t)
    omega = power_modulus(1.0)
    x = (0.5, 0.5)
    quotients = []
    for r in (0.1, 0.2, 0.4):
        oracle = brute_force_sharp(mesh, f, 1.0, [r], x)
        quotients.append(oracle / omega(r))
    assert max(quotients) / min(quotients) < 1.15
    R = 0.45
    radii = RadiiSet(0.1, 0.4, 0.5)
    got = weighted_local_sharp(mesh, f, 1.0, omega, R, radii, x)
    assert got == pytest.approx(max(quotients), rel=1e-9)


def test_radii_cap_below_locality():
    mesh = Mesh((0, 1, 0, 1), 8)
    f = indicator_field(mesh, [0])
    with pytest.raises(ValueError):
        weighted_local_sharp(mesh, f, 1.0, power_modulus(0.5), 0.2,
                             RadiiSet(0.05, 0.3), (0.5, 0.5))


def test_riesz_rearranged_bound_stable():
    rng = np.random.default_rng(5)
    fits = []
    for M in (16, 32):
        mesh = Mesh((0, 1, 0, 1), M)
        radii = RadiiSet(2 * mesh.h, 0.2, 0.5)
        cs = [riesz_ratio(mesh, ElemField(rng.normal(size=(mesh.num_elements, 1, 2))),
                          2.0, radii, stride=3) for _ in range(20)]
        fits.append(max(cs))
    assert all(np.isfinite(c) for c in fits)
    assert max(fits) / min(fits) < 2.0


def per_piece_riesz_ratio(mesh, f, q, radii, stride):
    """riesz_ratio with f** at each breakpoint s of the maximal values'
    rearrangement from its own cumulative sum: (1/s) (C + v (s - S)) with C
    the integral up to the piece's left end S, or C_total / s past the
    support."""
    pts = mesh.interior_points(radii.r_max * (1.0 + 1e-9), stride)
    vals = plain_maximal(mesh, f, q, radii, pts)
    lhs = StepFunction.from_samples(vals, np.full(len(vals), mesh.element_area))
    rhs = rearrange(mesh, f.norms() ** q)
    ratios = []
    s = 0.0
    for m, v in zip(lhs.measures, lhs.values):
        s += m
        partial = np.concatenate([[0.0], np.cumsum(rhs.measures * rhs.values)])
        idx = int(np.searchsorted(rhs.boundaries, s, side="left"))
        if idx >= len(rhs.values):
            integral = partial[-1]
        else:
            left = rhs.boundaries[idx - 1] if idx > 0 else 0.0
            integral = partial[idx] + rhs.values[idx] * (s - left)
        rhs_val = (integral / s) ** (1.0 / q)
        if rhs_val > 0.0:
            ratios.append(v / rhs_val)
    return float(max(ratios, default=0.0))


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 32), st.integers(1, 2), st.floats(1.0, 4.0), st.floats(0.15, 0.3),
       st.integers(1, 4), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_riesz_ratio_is_the_per_piece_average(M, comps, q, r_max, stride, density, seed):
    mesh = Mesh((0, 1, 0, 1), M)
    rng = np.random.default_rng(seed)
    keep = rng.uniform(size=(mesh.num_elements, 1, 1)) < density
    f = ElemField(rng.normal(size=(mesh.num_elements, comps, 2)) * keep)
    radii = RadiiSet(min(2 * mesh.h, r_max), r_max, 0.5)
    expected = per_piece_riesz_ratio(mesh, f, q, radii, stride)
    got = riesz_ratio(mesh, f, q, radii, stride)
    assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_plain_maximal_is_one_kernel_call(monkeypatch):
    # the q-mean of |f| on a ball is the kernel's plain mean of |f|^q, bitwise
    # (the area-weighted formula it replaced is checked in test_ballstats)
    from plaplab import grid

    rng = np.random.default_rng(4)
    mesh = Mesh((0, 1, 0, 1), 20)
    f = ElemField(rng.normal(size=(mesh.num_elements, 2, 2)))
    radii = RadiiSet(2 * mesh.h, 0.3, 0.6)
    x = (0.47, 0.52)
    norms = f.norms()
    expected = 0.0
    for r in radii.values():                 # one single-point call per radius
        _, (mean,), _ = grid._ball_family_stats(mesh, norms ** 1.5, [x], [r], 1.0)
        expected = max(expected, float(mean[0] ** (1.0 / 1.5)))
    calls = []
    real = grid._ball_chunks

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(grid, "_ball_chunks", counting)
    assert plain_maximal(mesh, f, 1.5, radii, x) == expected
    assert len(calls) == 1
    assert len(mesh.interior_points(radii.r_max * (1.0 + 1e-9), 40)) > 1
    riesz_ratio(mesh, f, 2.0, radii, stride=40)
    assert len(calls) == 2                   # every interior point in one call
