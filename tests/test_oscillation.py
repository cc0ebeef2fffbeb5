import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from plaplab.fluxmaps import Exponent, a_map
from plaplab.grid import ElemField, Mesh, gradient
from plaplab.lab.cases import random_smooth_potential
from plaplab.lab.experiments import _counterexample_fields
from plaplab.oscillation import (DiniDivergence, Modulus, PotentialParams,
                                 campanato_seminorm, constant_modulus,
                                 default_ball_family, dini_log_modulus,
                                 dini_transform, holder_seminorm,
                                 log_inverse_modulus,
                                 oscillation_potential, power_modulus,
                                 vmo_modulus, zeta_p, zeta_transform)
from plaplab.lab.config import modulus_from_spec
from plaplab.rearrange import rearrange


def linear_field(mesh, bx=2.0, by=1.0):
    t = np.zeros((mesh.num_elements, 1, 2))
    t[:, 0, 0] = bx * mesh.barycenters[:, 0] + by * mesh.barycenters[:, 1]
    return ElemField(t)


def brute_force_osc(mesh, f, center, r, q):
    members = [e for e in range(mesh.num_elements)
               if np.hypot(*(mesh.barycenters[e] - center)) < r]
    block = f.tensors[members]
    mean = block.mean(axis=0)
    dev = np.sqrt(np.sum((block - mean) ** 2, axis=(1, 2)))
    return float(np.mean(dev ** q) ** (1.0 / q))


# --- moduli -----------------------------------------------------------------------


def test_modulus_families_evaluate():
    assert power_modulus(0.5)(0.25) == pytest.approx(0.5)
    assert constant_modulus()(0.01) == 1.0
    om = dini_log_modulus(math.e ** 2)
    assert om(1.0) == pytest.approx(0.5)          # 1/log(e^2)
    om2 = log_inverse_modulus(2.0, math.e ** 2)
    assert om2(1.0) == pytest.approx(0.25)
    # scale / r overflows at a subnormal r; log(scale / r) must not
    assert om2(1e-320) == pytest.approx((2.0 + 320 * math.log(10.0)) ** -2.0, rel=1e-12)


_OUT_OF_RANGE = [
    ("power", (0.0,), "power needs beta > 0, got beta=0.0"),
    ("power", (-0.7,), "power needs beta > 0, got beta=-0.7"),
    ("power", (math.nan,), r"power needs finite parameters, got \(nan,\)"),
    ("power", (math.inf,), r"power needs finite parameters, got \(inf,\)"),
    ("log_inverse", (-1.0, math.e), "log_inverse needs sigma >= 0, got sigma=-1.0"),
    ("log_inverse", (math.nan, math.e), r"log_inverse needs finite parameters, got \(nan, "),
    ("log_inverse", (math.inf, math.e), r"log_inverse needs finite parameters, got \(inf, "),
    ("log_inverse", (1.0, 0.0), "log_inverse needs scale > 0, got scale=0.0"),
    ("log_inverse", (1.0, -2.0), "log_inverse needs scale > 0, got scale=-2.0"),
    ("log_inverse", (1.0, math.nan), r"log_inverse needs finite parameters, got \(1.0, nan\)"),
    ("log_inverse", (1.0, math.inf), r"log_inverse needs finite parameters, got \(1.0, inf\)")]


@pytest.mark.parametrize("family, params, message", _OUT_OF_RANGE,
                         ids=[" ".join([f, *map(str, ps)]) for f, ps, _ in _OUT_OF_RANGE])
def test_modulus_range_rules(family, params, message):
    # each rule refuses its parameter out of range, through the class and
    # through the factory that binds it
    with pytest.raises(ValueError, match=message):
        Modulus(family, params)
    factory = power_modulus if family == "power" else log_inverse_modulus
    with pytest.raises(ValueError, match=message):
        factory(*params)
    if family == "log_inverse" and params[0] == 1.0:
        with pytest.raises(ValueError, match=message):
            dini_log_modulus(params[1])


def test_modulus_ranges_include_their_ends():
    assert power_modulus(1e-300)(0.5) == 1.0
    assert log_inverse_modulus(0.0, 1e-300)(1e-310) == 1.0
    assert dini_log_modulus(1e300)(1.0) == pytest.approx(1.0 / (300 * math.log(10.0)))


# r_top is the top of the sampled radii; None samples up to just below scale
@pytest.mark.parametrize("scale, r_top", [(math.e ** 2, None), (math.e, None),
                                          (math.e ** 2, 1.0), (7.3, 0.3)])
def test_dini_log_is_log_inverse_at_sigma_one_bitwise(scale, r_top):
    dini = dini_log_modulus(scale)
    ref = log_inverse_modulus(1.0, scale)
    r = np.geomspace(1e-300, 0.99 * scale if r_top is None else r_top, 97)
    assert np.array_equal(dini(r), ref(r))
    a, b = r[:-1:2], r[1::2]
    assert np.array_equal(dini.integral_dr_over_r(a, b), ref.integral_dr_over_r(a, b))
    assert dini == ref
    assert dini.dini_finite is ref.dini_finite is False


def test_log_integral_closed_forms():
    om = power_modulus(0.5)
    got = om.integral_dr_over_r(0.1, 0.9)
    expect = quad(lambda r: om(r) / r, 0.1, 0.9)[0]
    assert got == pytest.approx(expect, rel=1e-9)
    oml = log_inverse_modulus(2.0, math.e ** 2)
    got = oml.integral_dr_over_r(0.01, 0.5)
    expect = quad(lambda r: oml(r) / r, 0.01, 0.5)[0]
    assert got == pytest.approx(expect, rel=1e-9)
    omd = dini_log_modulus(math.e ** 2)
    got = omd.integral_dr_over_r(0.01, 0.5)
    expect = quad(lambda r: omd(r) / r, 0.01, 0.5)[0]
    assert got == pytest.approx(expect, rel=1e-9)


MODULI = [power_modulus(0.3), power_modulus(1.7), constant_modulus(),
          log_inverse_modulus(0.6), log_inverse_modulus(1.0),
          log_inverse_modulus(2.5), dini_log_modulus(), dini_log_modulus(math.e)]


@st.composite
def log_ranges(draw):
    """A modulus with broadcastable limits 0 <= a <= b, b at most scale / e.

    a is 0 somewhere only for a Dini-finite modulus, and may be subnormal;
    scalars and arrays of up to two axes are mixed."""
    om = draw(st.sampled_from(MODULI))
    top = om.params[-1] / math.e if om.family == "log_inverse" else 4.0
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2,
                                                    max_side=3))
    b = top * draw(hnp.arrays(float, shapes.input_shapes[1],
                              elements=st.floats(1e-6, 1.0)))
    a = b.min() * draw(hnp.arrays(float, shapes.input_shapes[0],
                                  elements=st.floats(0.0, 1.0)))
    assume(om.dini_finite or np.all(a > 0.0))
    return om, a, b


def _quad_dr_over_r(om, a, b):
    """integral_a^b omega(rho)/rho d rho by adaptive quadrature.

    A log family is integrated in t = log(scale / rho), where omega is
    t^(-sigma): exp of a far negative log rho would be subnormal and
    inexact.  The others are integrated in s = log rho, or from a = 0 in rho.
    """
    kw = dict(epsabs=1e-14, epsrel=1e-12, limit=200)
    if a == b:
        return 0.0
    if om.family == "log_inverse":
        sigma, scale = om.params
        ta = math.log(scale) - math.log(a) if a > 0.0 else math.inf
        return quad(lambda t: t ** -sigma, math.log(scale / b), ta, **kw)[0]
    if a > 0.0:
        return quad(lambda s: om(math.exp(s)), math.log(a), math.log(b), **kw)[0]
    return quad(lambda r: om(r) / r, 0.0, b, **kw)[0]


@settings(max_examples=80, deadline=None)
@given(log_ranges())
def test_log_integral_on_arrays_is_the_scalar_closed_form_and_quad(case):
    om, a, b = case
    got = om.integral_dr_over_r(a, b)
    A, B = np.broadcast_arrays(a, b)
    scalars = [om.integral_dr_over_r(float(x), float(y))
               for x, y in zip(A.ravel(), B.ravel())]
    assert all(type(v) is float for v in scalars)
    assert type(got) is float if A.ndim == 0 else got.shape == A.shape
    np.testing.assert_array_equal(got, np.reshape(scalars, A.shape))
    for x, y, v in zip(A.ravel(), B.ravel(), scalars):
        assert v == pytest.approx(_quad_dr_over_r(om, x, y), rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(log_ranges(), st.data())
def test_log_integral_range_errors(case, data):
    om, a, b = case
    a, b = np.broadcast_arrays(a, b)
    k = data.draw(st.integers(0, a.size - 1))
    assert np.all(om.integral_dr_over_r(b, b) == 0.0)
    bad = a.copy()
    bad.flat[k] = b.flat[k] * 1.5 + 1e-9
    with pytest.raises(ValueError):
        om.integral_dr_over_r(bad, b)
    bad.flat[k] = -1e-9
    with pytest.raises(ValueError):
        om.integral_dr_over_r(bad, b)
    bad.flat[k] = 0.0
    if om.dini_finite:
        assert np.all(np.isfinite(om.integral_dr_over_r(bad, b)))
    else:
        with pytest.raises(DiniDivergence):
            om.integral_dr_over_r(bad, b)
    if om.family == "log_inverse":
        far = b.copy()
        far.flat[k] = om.params[-1]
        with pytest.raises(ValueError):
            om.integral_dr_over_r(a, far)


# --- campanato / vmo / hoelder ----------------------------------------------------


def test_campanato_constant_field_zero():
    mesh = Mesh((0, 1, 0, 1), 16)
    f = ElemField(np.full((mesh.num_elements, 1, 2), 2.0))
    assert campanato_seminorm(mesh, f, power_modulus(0.5)) == 0.0


def test_campanato_bmo_reduction_and_brute_force():
    mesh = Mesh((0, 1, 0, 1), 16)
    rng = np.random.default_rng(0)
    f = ElemField(rng.normal(size=(mesh.num_elements, 1, 2)))
    centers, radii = default_ball_family(mesh)
    got = campanato_seminorm(mesh, f, constant_modulus())
    # brute-force the same family
    best = 0.0
    for r in radii:
        for c in centers:
            if mesh.boundary_distance(c) > r:
                best = max(best, brute_force_osc(mesh, f, c, r, 1.0))
    assert got == pytest.approx(best, rel=1e-10)


def test_campanato_linear_field_scale_free():
    # with omega(r) = r a linear field has radius-independent quotients
    vals = {}
    for M in (16, 32):
        mesh = Mesh((0, 1, 0, 1), M)
        vals[M] = campanato_seminorm(mesh, linear_field(mesh), power_modulus(1.0))
    assert vals[32] == pytest.approx(vals[16], rel=0.1)
    mesh = Mesh((0, 1, 0, 1), 32)
    f = linear_field(mesh)
    for r in (0.125, 0.25):
        q1 = brute_force_osc(mesh, f, (0.5, 0.5), r, 1.0) / r
        assert q1 == pytest.approx(vals[32], rel=0.12)


def test_campanato_rejects_empty_family():
    mesh = Mesh((0, 1, 0, 1), 8)
    f = linear_field(mesh)
    with pytest.raises(ValueError):
        campanato_seminorm(mesh, f, power_modulus(0.5), family=([], []))


def test_campanato_invariances():
    mesh = Mesh((0, 1, 0, 1), 12)
    rng = np.random.default_rng(1)
    f = ElemField(rng.normal(size=(mesh.num_elements, 1, 2)))
    om = power_modulus(0.5)
    base = campanato_seminorm(mesh, f, om)
    shifted = ElemField(f.tensors + np.array([[3.0, -1.0]]))
    assert campanato_seminorm(mesh, shifted, om) == pytest.approx(base, rel=1e-9)
    assert campanato_seminorm(mesh, ElemField(2.0 * f.tensors), om) == \
        pytest.approx(2.0 * base, rel=1e-12)


def test_vmo_profiles():
    mesh = Mesh((0, 1, 0, 1), 32)
    const = ElemField(np.full((mesh.num_elements, 1, 2), 1.0))
    prof = vmo_modulus(mesh, const)
    assert all(v == 0.0 for v in prof.values)

    lin = linear_field(mesh)
    prof = vmo_modulus(mesh, lin)
    assert all(b >= a - 1e-14 for a, b in zip(prof.values, prof.values[1:]))
    # linear field: profile ~ c * rho, so it shrinks with the radius
    assert prof.values[0] < 0.4 * prof.values[-1]

    # a jump field keeps mean oscillation bounded below at every scale
    t = np.zeros((mesh.num_elements, 1, 2))
    t[:, 0, 0] = np.sign(mesh.barycenters[:, 0] - 0.5)
    prof = vmo_modulus(mesh, ElemField(t))
    assert prof.values[0] > 0.05
    nrm = np.sqrt(np.sum(ElemField(t).tensors ** 2, axis=(1, 2))).max()
    assert prof.values[-1] <= 2.0 * nrm + 1e-12


def test_holder_seminorm_cases():
    mesh = Mesh((0, 1, 0, 1), 32)
    const = ElemField(np.full((mesh.num_elements, 1, 2), 3.0))
    assert holder_seminorm(mesh, const, power_modulus(1.0)) == 0.0
    lin = linear_field(mesh, 2.0, 1.0)
    got = holder_seminorm(mesh, lin, power_modulus(1.0))
    assert got == pytest.approx(np.hypot(2.0, 1.0), rel=0.05)


def test_holder_controls_campanato():
    mesh = Mesh((0, 1, 0, 1), 16)
    rng = np.random.default_rng(2)
    # a smooth random field
    b = mesh.barycenters
    t = np.zeros((mesh.num_elements, 1, 2))
    t[:, 0, 0] = np.sin(2 * np.pi * b[:, 0]) * np.cos(np.pi * b[:, 1])
    t[:, 0, 1] = np.cos(np.pi * b[:, 0])
    f = ElemField(t)
    om = power_modulus(0.7)
    assert campanato_seminorm(mesh, f, om) <= 2.0 * holder_seminorm(mesh, f, om)


def test_holder_seminorm_carries_a_nan_ratio():
    # a nan ratio makes the sup nan; it is not dropped in favour of 0
    mesh = Mesh((0, 1, 0, 1), 4)
    f = linear_field(mesh)
    d = np.hypot(*(mesh.barycenters[1] - mesh.barycenters[0]))

    def omega(r):
        return np.where(r == d, np.nan, r)

    assert np.isfinite(holder_seminorm(mesh, f, power_modulus(1.0)))
    assert math.isnan(holder_seminorm(mesh, f, omega))


def _holder_by_rows(mesh, f, omega, max_pairs=10 ** 6):
    """The Hoelder seminorm one row of pairs at a time: the reference for
    the row blocks."""
    norms_all = f.tensors.reshape(mesh.num_elements, -1)
    n = mesh.num_elements
    stride = 1
    while (n // stride) * (n // stride - 1) // 2 > max_pairs:
        stride += 1
    idx = np.arange(0, n, stride)
    pts = mesh.barycenters[idx]
    vals = norms_all[idx]
    best = 0.0
    for i in range(1, len(idx)):
        d = pts[i] - pts[:i]
        dist = np.hypot(d[:, 0], d[:, 1])
        dv = vals[i] - vals[:i]
        sq = dv[:, 0] * dv[:, 0]
        for j in range(1, dv.shape[1]):
            sq += dv[:, j] * dv[:, j]
        best = max(best, float(np.max(np.sqrt(sq) / omega(dist))))
    return best


def _bench_table(seed):
    """The benchmark's M = 64 norm-table field: a_map at p = 1.5 of the
    gradient of a random smooth potential."""
    mesh = Mesh((0.0, 1.0, 0.0, 1.0), 64)
    w = random_smooth_potential(mesh, 1, np.random.default_rng([seed, 64, 64]))
    return mesh, a_map(Exponent(1.5), gradient(mesh, w).tensors)


@pytest.mark.parametrize("seed", [7, 11])
def test_holder_row_blocks_are_the_rows_on_the_bench_tables(seed):
    mesh, base = _bench_table(seed)
    omega = modulus_from_spec("power", (0.3,))
    for offset in (0.0, 1e5):
        f = ElemField(base + offset)
        assert holder_seminorm(mesh, f, omega) == _holder_by_rows(mesh, f, omega)


def test_holder_row_blocks_are_the_rows_on_the_example55_windows():
    omega = dini_log_modulus(scale=math.e ** 2)
    for M in (48, 96):
        mesh = Mesh((-1.0, 1.0, -1.0, 1.0), M)
        _, F = _counterexample_fields(omega, mesh)
        assert holder_seminorm(mesh, F, omega) == _holder_by_rows(mesh, F, omega)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 14), st.integers(1, 2), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([power_modulus(0.3), power_modulus(1.0),
                        dini_log_modulus(scale=math.e ** 2)]),
       st.sampled_from([10, 300, 10 ** 6]))
def test_holder_row_blocks_match_the_rows(M, comps, seed, omega, max_pairs):
    # the pairs of each block are formed exactly as in their rows; the sup
    # must agree to 2 ulp
    mesh = Mesh((0.0, 1.0, 0.0, 1.0), M)
    rng = np.random.default_rng(seed)
    f = ElemField(rng.normal(size=(mesh.num_elements, comps, 2)) * rng.uniform(0.1, 10.0))
    got = holder_seminorm(mesh, f, omega, max_pairs)
    np.testing.assert_array_max_ulp(got, _holder_by_rows(mesh, f, omega, max_pairs), 2)


# --- dini / zeta transforms ---------------------------------------------------------


def test_dini_transform_power_closed_form():
    assert power_modulus(0.5).dini_finite
    vp = dini_transform(power_modulus(0.5))
    for r in (0.04, 0.3, 0.9):
        assert vp(r) == pytest.approx(r ** 0.5 / 0.5, rel=1e-12)
    assert vp(1e-12) == pytest.approx(0.0, abs=1e-5)


def test_dini_divergence_detected():
    for omega, finite in ((dini_log_modulus(math.e), False), (constant_modulus(), False),
                          (log_inverse_modulus(0.7, math.e ** 2), False),
                          (log_inverse_modulus(1.5, math.e ** 2), True)):
        assert omega.dini_finite is finite
        if not finite:
            with pytest.raises(DiniDivergence):
                dini_transform(omega)(0.1)
    assert dini_transform(log_inverse_modulus(1.5, math.e ** 2))(0.1) > 0.0


def test_zeta_constant_closed_form():
    z = zeta_transform(constant_modulus(), 2, 1.0)
    for r in (1e-6, 1e-3, 0.2):
        assert z(r) == pytest.approx(2.0 / math.log(1.0 / r), rel=1e-10)
    with pytest.raises(ValueError):
        z(1.5)


def test_zeta_log_borderline_and_monotonicity():
    z = zeta_transform(log_inverse_modulus(1.0, math.e ** 2), 2, 0.5)
    rs = np.geomspace(1e-8, 0.4, 30)
    vals = z(rs)
    assert np.all(np.diff(vals) > 0.0)
    # double-log decay at zero
    assert vals[0] == pytest.approx(
        1.0 / math.log(math.log(math.e ** 2 / (1e-8) ** 0.5)
                       / math.log(math.e ** 2 / 0.5 ** 0.5)), rel=1e-9)


def test_zeta_p_power():
    z = zeta_transform(constant_modulus(), 2, 1.0)
    zp = zeta_p(z, Exponent(3.0))
    assert zp(0.1) == pytest.approx(z(0.1) ** 0.5, rel=1e-12)


def test_campanato_controls_weak_profile():
    # rearranged centered field against the inverse-tail weight: the product
    # zeta(s) * f~*(s) stays below a fitted multiple of the seminorm,
    # stable under refinement
    fits = {}
    for M in (16, 32):
        mesh = Mesh((0, 1, 0, 1), M)
        f = linear_field(mesh)
        om = power_modulus(0.5)
        S = campanato_seminorm(mesh, f, om)
        centered = f.tensors - f.tensors.mean(axis=0)
        sf = rearrange(mesh, np.sqrt(np.sum(centered ** 2, axis=(1, 2))))
        z = zeta_transform(om, 2, 2.0)
        s_pts = np.cumsum(sf.measures)[:-1]
        ratios = [z(s) * sf(s * 0.999) / S for s in s_pts if 0 < s < 2.0]
        fits[M] = max(ratios)
    assert np.isfinite(fits[16]) and np.isfinite(fits[32])
    assert fits[32] / fits[16] < 2.0


# --- oscillation potential ------------------------------------------------------------


@pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -1.0])
def test_potential_params_need_a_positive_finite_radius(R):
    # radii() multiplies R by theta until it falls below 2h, which inf never
    # does; a nan R has no radii and would give a potential of 0
    with pytest.raises(ValueError, match="R must be positive and finite"):
        PotentialParams(R=R, theta=0.5, p=Exponent(2.0))


def _radii_by_loop(R, theta, h):
    """The potential's radii as they were first built: R * theta^i while at
    least 2h."""
    out, r = [], R
    while r >= 2.0 * h:
        out.append(r)
        r *= theta
    return out


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 10.0), st.floats(0.05, 0.95), st.integers(2, 400))
def test_potential_radii_are_the_radii_set_from_2h(R, theta, M):
    mesh = Mesh((0, 1, 0, 1), M)
    got = PotentialParams(R=R, theta=theta, p=Exponent(2.0)).radii(mesh)
    ref = _radii_by_loop(R, theta, mesh.h)
    # the radii set also keeps a last radius within 1e-12 relative below 2h
    if len(got) == len(ref) + 1:
        assert 2.0 * mesh.h * (1.0 - 1e-12) <= got[-1] < 2.0 * mesh.h
        got = got[:-1]
    assert list(got) == ref


def test_potential_radii_differ_from_the_loop_only_within_1e_12_of_2h():
    mesh = Mesh((0, 1, 0, 1), 16)
    params = PotentialParams(R=2.0 * mesh.h * (1.0 - 1e-13) / 0.5, theta=0.5,
                             p=Exponent(2.0))
    assert len(params.radii(mesh)) == len(_radii_by_loop(params.R, 0.5, mesh.h)) + 1
    below = PotentialParams(R=2.0 * mesh.h * (1.0 - 1e-13), theta=0.5, p=Exponent(2.0))
    assert list(below.radii(mesh)) == _radii_by_loop(below.R, 0.5, mesh.h) == []


def test_potential_constant_field_zero():
    mesh = Mesh((0, 1, 0, 1), 16)
    f = ElemField(np.full((mesh.num_elements, 1, 2), 5.0))
    params = PotentialParams(R=0.25, theta=0.5, p=Exponent(2.0))
    assert oscillation_potential(mesh, f, (0.5, 0.5), params) <= 1e-12


def test_potential_linear_closed_form():
    # each dyadic term of a linear field is the continuum per-ball constant
    # times |b| r; the closed-form geometric sum matches within 5%
    p = Exponent(2.0)
    params = PotentialParams(R=0.25, theta=0.5, p=p)
    mesh = Mesh((0, 1, 0, 1), 128)
    f = linear_field(mesh, 2.0, 1.0)
    got = oscillation_potential(mesh, f, (0.5, 0.5), params)
    q = p.pprime
    ang = quad(lambda t: abs(math.cos(t)) ** q, 0.0, 2.0 * math.pi)[0]
    cq = ((1.0 / math.pi) * (1.0 / (q + 2.0)) * ang) ** (1.0 / q)
    bnorm = math.hypot(2.0, 1.0)
    closed, r = 0.0, params.R
    while r >= 2.0 * mesh.h:
        closed += cq * bnorm * r * math.log(1.0 / params.theta)
        r *= params.theta
    assert got == pytest.approx(closed, rel=0.05)


def test_potential_scale_and_shift_invariance():
    mesh = Mesh((0, 1, 0, 1), 32)
    rng = np.random.default_rng(3)
    f = ElemField(rng.normal(size=(mesh.num_elements, 1, 2)))
    params = PotentialParams(R=0.2, theta=0.5, p=Exponent(3.0))
    base = oscillation_potential(mesh, f, (0.5, 0.5), params)
    shifted = ElemField(f.tensors + np.array([[1.0, 1.0]]))
    assert oscillation_potential(mesh, shifted, (0.5, 0.5), params) == \
        pytest.approx(base, rel=1e-9)
    assert oscillation_potential(mesh, ElemField(4.0 * f.tensors),
                                 (0.5, 0.5), params) == \
        pytest.approx(4.0 * base, rel=1e-12)


def test_potential_dini_field_bounded_by_varpi():
    # fields with a power modulus: potential <= C * integrated modulus at R,
    # with C stable under refinement
    beta = 0.6
    fits = {}
    for M in (32, 64):
        mesh = Mesh((0, 1, 0, 1), M)
        b = mesh.barycenters
        t = np.zeros((mesh.num_elements, 1, 2))
        t[:, 0, 0] = np.hypot(b[:, 0] - 0.45, b[:, 1] - 0.55) ** beta
        f = ElemField(t)
        params = PotentialParams(R=0.2, theta=0.5, p=Exponent(2.0))
        pot = oscillation_potential(mesh, f, (0.5, 0.5), params)
        varpi = dini_transform(power_modulus(beta))
        fits[M] = pot / varpi(params.R)
    assert np.isfinite(fits[32])
    assert fits[64] / fits[32] < 2.0


def test_potential_domain_errors():
    mesh = Mesh((0, 1, 0, 1), 16)
    f = linear_field(mesh)
    with pytest.raises(ValueError):
        oscillation_potential(mesh, f, (0.9, 0.5),
                              PotentialParams(R=0.2, theta=0.5, p=Exponent(2.0)))
    with pytest.raises(ValueError):
        oscillation_potential(mesh, f, (0.5, 0.5),
                              PotentialParams(R=0.5 * mesh.h, theta=0.5,
                                              p=Exponent(2.0)))
