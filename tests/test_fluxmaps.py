import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.fluxmaps import (RATIO_FLOOR, Exponent, ShiftedPower, _norm_power,
                              a_inverse, a_map, equivalence_table,
                              fit_shift_change_constant, fit_young_constant,
                              frobenius, random_tensor_pairs, ratio_band,
                              shift_change_check, shifted_power, v_map,
                              young_bound_check)

P_VALUES = [1.2, 1.5, 2.0, 3.0, 4.5]


# --- references: each map, the derivative and each fit written out in full ---


def ref_frobenius(P):
    return np.sqrt(np.einsum("...nk,...nk->...", P, P))


def ref_power_scaled(P, expo):
    P = np.asarray(P, dtype=float)
    scale = _norm_power(ref_frobenius(P), expo)
    return np.asarray(scale)[..., None, None] * P


def ref_a_map(p, P):
    return ref_power_scaled(P, p.p - 2.0)


def ref_v_map(p, P):
    return ref_power_scaled(P, (p.p - 2.0) / 2.0)


def ref_a_inverse(p, W):
    return ref_power_scaled(W, (2.0 - p.p) / (p.p - 1.0))


def ref_shifted_power_prime(p, a, t):
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(a < 0.0):
        raise ValueError("shifted power needs a >= 0 and t >= 0")
    term1 = (p.p - 2.0) * _norm_power(a + t, p.p - 3.0) * t * t
    term2 = 2.0 * _norm_power(a + t, p.p - 2.0) * t
    return term1 + term2


def ref_fit_young_constant(p, a, delta, ts, ss):
    lhs, (term_phi, term_conj) = young_bound_check(p, a, delta, ts, ss)
    excess = np.maximum(lhs - term_phi, 0.0)
    keep = term_conj > RATIO_FLOOR
    if not np.any(keep):
        return 0.0
    return float(np.max(excess[keep] / term_conj[keep]))


def ref_fit_shift_change_constant(p, Ps, Qs, ts, gamma):
    lhs, (term_shifted, term_v) = shift_change_check(p, Ps, Qs, ts, gamma)
    excess = np.maximum(lhs - term_v, 0.0)
    keep = term_shifted > RATIO_FLOOR
    if not np.any(keep):
        return 0.0
    return float(np.max(excess[keep] / term_shifted[keep]))


BIT_P = st.sampled_from([1.1, 1.5, 2.0, 3.0, 10.0]).map(Exponent)


@st.composite
def tensor_draws(draw, count, single=None):
    """`count` arrays of one shape: (E, N, 2) with N = 1-3, or one (N, 2)
    tensor, with log-uniform scales and about a third of the tensors zero."""
    rows = draw(st.integers(1, 3))
    if single is None:
        single = draw(st.booleans())
    shape = (rows, 2) if single else (draw(st.integers(1, 8)), rows, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for _ in range(count):
        T = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, size=shape[:-2] + (1, 1))
        T[rng.random(shape[:-2]) < 0.3] = 0.0
        out.append(T)
    return out


def log_uniform_with_zeros(rng, size):
    x = 10.0 ** rng.uniform(-6, 6, size)
    x[rng.random(size) < 0.2] = 0.0
    return x


@given(p=BIT_P, tensors=tensor_draws(1))
@settings(max_examples=150, deadline=None)
def test_power_maps_and_frobenius_are_bitwise_the_reference(p, tensors):
    (P,) = tensors
    assert np.float64(frobenius(P)).tobytes() == np.float64(ref_frobenius(P)).tobytes()
    for got, ref in ((a_map, ref_a_map), (v_map, ref_v_map), (a_inverse, ref_a_inverse)):
        assert got(p, P).tobytes() == ref(p, P).tobytes()
    zero = np.zeros_like(P)
    assert a_map(p, zero).tobytes() == zero.tobytes()


@given(p=BIT_P, a=st.sampled_from([0.0, 1e-3, 0.7, 5e2]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_shifted_power_derivative_is_bitwise_the_reference(p, a, seed):
    ts = log_uniform_with_zeros(np.random.default_rng(seed), 20)
    got = ShiftedPower(p, a).derivative(ts)
    assert got.tobytes() == ref_shifted_power_prime(p, a, ts).tobytes()
    assert ShiftedPower(p, a).derivative(0.0) == ref_shifted_power_prime(p, a, 0.0)


@given(p=BIT_P, tensors=tensor_draws(2, single=False), gamma=st.sampled_from([0.1, 0.5, 1.0]),
       delta=st.sampled_from([0.1, 1.0, 4.0]), a=st.sampled_from([0.0, 0.7, 30.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_the_two_fits_are_bitwise_the_reference(p, tensors, gamma, delta, a, seed):
    Ps, Qs = tensors
    rng = np.random.default_rng(seed)
    ts, ss = log_uniform_with_zeros(rng, len(Ps)), log_uniform_with_zeros(rng, len(Ps))
    got = fit_young_constant(p, a, delta, ts, ss)
    assert np.float64(got).tobytes() == np.float64(
        ref_fit_young_constant(p, a, delta, ts, ss)).tobytes()
    got = fit_shift_change_constant(p, Ps, Qs, ts, gamma)
    assert np.float64(got).tobytes() == np.float64(
        ref_fit_shift_change_constant(p, Ps, Qs, ts, gamma)).tobytes()


def test_exponent_conjugacy():
    for pv in P_VALUES:
        p = Exponent(pv)
        assert abs(1.0 / p.p + 1.0 / p.pprime - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        Exponent(1.0)
    with pytest.raises(ValueError):
        Exponent(0.5)


def test_frobenius_zero_iff_zero():
    rng = np.random.default_rng(0)
    P = rng.normal(size=(2, 3))
    assert frobenius(P) > 0
    assert frobenius(np.zeros((2, 3))) == 0.0


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_batched_frobenius_matches_the_summed_squares(rows):
    P = np.random.default_rng(rows).normal(size=(4, 5, rows, 2))
    expected = np.sqrt(np.sum(P * P, axis=(2, 3)))
    got = frobenius(P)
    assert got.shape == (4, 5)
    assert np.all(np.abs(got - expected) <= 2 * np.spacing(expected))
    # one tensor gives a float
    assert type(frobenius(P[0, 0])) is float


# --- shifted power functions -------------------------------------------------


def test_phi_hand_values():
    sp = ShiftedPower(Exponent(3.0), 1.0)
    assert sp(2.0) == pytest.approx(12.0, rel=1e-12)      # (1+2)^1 * 4
    assert sp.derivative(2.0) == pytest.approx(16.0, rel=1e-12)


def test_phi_reduces_to_pure_power_at_zero_shift():
    for pv in P_VALUES:
        p = Exponent(pv)
        ts = np.geomspace(1e-4, 1e4, 40)
        assert np.allclose(shifted_power(p, 0.0, ts), ts ** pv, rtol=1e-12)


def test_phi_zero_cases():
    for pv in P_VALUES:
        sp = ShiftedPower(Exponent(pv), 0.0)
        assert sp(0.0) == 0.0
        assert sp.derivative(0.0) == 0.0
    assert ShiftedPower(Exponent(1.5), 2.0)(0.0) == 0.0
    assert ShiftedPower(Exponent(1.5), 2.0).derivative(0.0) == 0.0


def test_phi_prime_zero_shift_closed_form():
    # derivative of t^p
    for pv in P_VALUES:
        p = Exponent(pv)
        ts = np.geomspace(1e-3, 1e3, 30)
        expect = pv * ts ** (pv - 1.0)
        got = ShiftedPower(p, 0.0).derivative(ts)
        assert np.allclose(got, expect, rtol=1e-12)


@pytest.mark.parametrize("pv", P_VALUES)
@pytest.mark.parametrize("a", [0.0, 0.3, 7.0])
def test_phi_prime_matches_finite_differences(pv, a):
    sp = ShiftedPower(Exponent(pv), a)
    ts = np.geomspace(1e-3, 1e3, 25)
    h = 1e-7 * ts
    fd = (sp(ts + h) - sp(ts - h)) / (2.0 * h)
    assert np.allclose(sp.derivative(ts), fd, rtol=1e-6)


def test_phi_negative_argument_rejected():
    with pytest.raises(ValueError):
        ShiftedPower(Exponent(2.0), 1.0)(-0.1)
    with pytest.raises(ValueError):
        ShiftedPower(Exponent(2.0), -1.0)


@pytest.mark.parametrize("check", [
    lambda p: young_bound_check(p, 1.0, 0.5, [1.0, -0.1], [1.0, 1.0]),
    lambda p: young_bound_check(p, 1.0, 0.5, [1.0, 1.0], [1.0, -0.1]),
    lambda p: shift_change_check(p, np.eye(2), np.eye(2), [1.0, -0.1], 0.5),
])
def test_bound_checks_refuse_negative_arguments_by_the_shifted_power_rule(check):
    with pytest.raises(ValueError, match=r"shifted power needs a >= 0 and t >= 0"):
        check(Exponent(3.0))


@given(t1=st.floats(1e-6, 1e6), t2=st.floats(1e-6, 1e6),
       a=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_phi_midpoint_convexity(t1, t2, a):
    sp = ShiftedPower(Exponent(1.5), a)
    mid = sp(0.5 * (t1 + t2))
    avg = 0.5 * (sp(t1) + sp(t2))
    assert mid <= avg + 1e-12 * max(avg, 1.0)


# --- A and V maps --------------------------------------------------------------


def test_a_map_identity_at_p2():
    rng = np.random.default_rng(1)
    P = rng.normal(size=(3, 2))
    assert np.array_equal(a_map(Exponent(2.0), P), P)
    assert np.array_equal(v_map(Exponent(2.0), P), P)


def test_unit_norm_tensors_are_fixed_points():
    rng = np.random.default_rng(2)
    P = rng.normal(size=(2, 2))
    P /= frobenius(P)
    for pv in P_VALUES:
        p = Exponent(pv)
        assert np.allclose(a_map(p, P), P, rtol=1e-12)
        assert np.allclose(v_map(p, P), P, rtol=1e-12)
        assert np.allclose(a_inverse(p, P), P, rtol=1e-12)


def test_a_map_norm_identity():
    rng = np.random.default_rng(3)
    for pv in P_VALUES:
        p = Exponent(pv)
        Ps, _ = random_tensor_pairs(rng, 50, 2, 3)
        norms = frobenius(a_map(p, Ps))
        expect = frobenius(Ps) ** (pv - 1.0)
        assert np.allclose(norms, expect, rtol=1e-11)


def test_v_map_square_norm_identity():
    rng = np.random.default_rng(4)
    for pv in P_VALUES:
        p = Exponent(pv)
        Ps, _ = random_tensor_pairs(rng, 50, 3, 2)
        got = np.sum(v_map(p, Ps) ** 2, axis=(1, 2))
        expect = frobenius(Ps) ** pv
        assert np.allclose(got, expect, rtol=1e-11)


def test_flux_dot_argument_equals_v_square():
    # A(Q) . Q = |V(Q)|^2
    rng = np.random.default_rng(5)
    for pv in P_VALUES:
        p = Exponent(pv)
        Qs, _ = random_tensor_pairs(rng, 50, 2, 2)
        lhs = np.sum(a_map(p, Qs) * Qs, axis=(1, 2))
        rhs = np.sum(v_map(p, Qs) ** 2, axis=(1, 2))
        assert np.allclose(lhs, rhs, rtol=1e-11)


def test_a_inverse_round_trip():
    rng = np.random.default_rng(6)
    for pv in [1.2, 1.5, 3.0, 4.5]:
        p = Exponent(pv)
        Ps, _ = random_tensor_pairs(rng, 100, 2, 2, scale_decades=(-3, 3))
        back = a_inverse(p, a_map(p, Ps))
        assert np.allclose(back, Ps, rtol=1e-10)
        assert np.array_equal(a_inverse(p, np.zeros((2, 2))), np.zeros((2, 2)))


def test_positive_homogeneity():
    rng = np.random.default_rng(7)
    P = rng.normal(size=(2, 2))
    for pv in P_VALUES:
        p = Exponent(pv)
        for lam in (0.013, 2.7, 811.0):
            assert np.allclose(a_map(p, lam * P), lam ** (pv - 1.0) * a_map(p, P),
                               rtol=1e-12)
            assert np.allclose(v_map(p, lam * P), lam ** (pv / 2.0) * v_map(p, P),
                               rtol=1e-12)


# --- equivalence expressions ------------------------------------------------------


def test_equivalence_vanishes_iff_equal():
    rng = np.random.default_rng(8)
    P = rng.normal(size=(2, 2))
    keys = ("inner", "v_sq", "mixed", "phi_shift", "phi_conj")

    def expressions(Q):
        tab = equivalence_table(Exponent(3.0), P[None], Q[None])
        return np.array([tab[k][0] for k in keys])

    assert expressions(P.copy()).max() == 0.0
    assert expressions(2.0 * P).min() > 0.0
    # P = Q = 0 is 0/0 in every ratio: the band fit refuses it
    zero = np.zeros((1, 2, 2))
    with pytest.raises(ValueError, match="degenerate"):
        ratio_band(Exponent(3.0), zero, zero)


def test_equivalence_euclidean_identity_at_p2():
    rng = np.random.default_rng(9)
    Ps, Qs = random_tensor_pairs(rng, 200, 2, 2)
    tab = equivalence_table(Exponent(2.0), Ps, Qs)
    diff_sq = np.sum((Ps - Qs) ** 2, axis=(1, 2))
    assert np.allclose(tab["inner"], diff_sq, rtol=1e-12)
    assert np.allclose(tab["mixed"], diff_sq, rtol=1e-12)


@pytest.mark.parametrize("pv", P_VALUES)
def test_ratio_band_seed_stable(pv):
    p = Exponent(pv)
    bands = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        Ps, Qs = random_tensor_pairs(rng, 10_000, 2, 2)
        bands.append(ratio_band(p, Ps, Qs))
    assert np.isfinite(bands[0]) and np.isfinite(bands[1])
    assert max(bands) / min(bands) < 2.0


def test_flux_difference_band():
    # |A(P) - A(Q)| vs (|P| + |Q|)^(p-2) |P - Q| stays in a seed-stable band
    for pv in [1.5, 3.0]:
        p = Exponent(pv)
        spreads = []
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            Ps, Qs = random_tensor_pairs(rng, 10_000, 2, 2)
            tab = equivalence_table(p, Ps, Qs)
            ndiff = frobenius(Ps - Qs)
            denom = tab["mixed"] / np.maximum(ndiff, 1e-300)
            keep = (tab["a_diff"] > 1e-300) & (denom > 1e-300)
            ratio = tab["a_diff"][keep] / denom[keep]
            spreads.append(float(ratio.max() / ratio.min()))
        assert all(np.isfinite(s) for s in spreads)
        assert max(spreads) / min(spreads) < 2.0


# --- product and shift-change bounds ------------------------------------------------


def test_young_bound_trivial_zeros():
    p = Exponent(3.0)
    lhs, (t1, t2) = young_bound_check(p, 1.0, 0.5, 0.0, 5.0)
    assert lhs == 0.0
    lhs, (t1, t2) = young_bound_check(p, 1.0, 0.5, 5.0, 0.0)
    assert lhs == 0.0 and t2 == 0.0


def test_young_constant_classical_case():
    # p = 2, a = 0: ts <= delta t^2 + s^2 / (4 delta)
    rng = np.random.default_rng(10)
    p = Exponent(2.0)
    ts = 10.0 ** rng.uniform(-6, 6, 20_000)
    ss = 10.0 ** rng.uniform(-6, 6, 20_000)
    for delta in (0.1, 1.0, 4.0):
        c = fit_young_constant(p, 0.0, delta, ts, ss)
        assert c == pytest.approx(1.0 / (4.0 * delta), rel=0.05)
        assert c <= 1.0 / (4.0 * delta) + 1e-12


@pytest.mark.parametrize("pv", [1.5, 3.0])
def test_young_constant_seed_stable(pv):
    p = Exponent(pv)
    fits = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        ts = 10.0 ** rng.uniform(-6, 6, 10_000)
        ss = 10.0 ** rng.uniform(-6, 6, 10_000)
        fits.append(fit_young_constant(p, 0.7, 0.25, ts, ss))
    assert np.isfinite(fits[0]) and fits[0] > 0
    assert max(fits) / min(fits) < 1.5


def test_shift_change_same_shift_holds_with_one():
    p = Exponent(3.0)
    rng = np.random.default_rng(11)
    P = rng.normal(size=(2, 2))
    lhs, (term_shifted, term_v) = shift_change_check(p, P, P.copy(), 2.0, 0.5)
    assert term_v == 0.0
    assert lhs <= term_shifted + 1e-12 * term_shifted


def test_shift_change_zero_t():
    p = Exponent(1.5)
    rng = np.random.default_rng(12)
    lhs, _ = shift_change_check(p, rng.normal(size=(2, 2)),
                                rng.normal(size=(2, 2)), 0.0, 0.3)
    assert lhs == 0.0


@pytest.mark.parametrize("pv", [1.5, 3.0])
def test_shift_change_constant_seed_stable(pv):
    p = Exponent(pv)
    fits = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        Ps, Qs = random_tensor_pairs(rng, 10_000, 2, 2)
        ts = 10.0 ** rng.uniform(-6, 6, 10_000)
        fits.append(fit_shift_change_constant(p, Ps, Qs, ts, 0.5))
    assert all(np.isfinite(f) for f in fits)
    assert max(fits) / max(min(fits), 1e-300) < 2.0
