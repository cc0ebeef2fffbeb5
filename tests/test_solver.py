import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connectivity import connectivity, elements
from plaplab.fluxmaps import Exponent
from plaplab.grid import (ElemField, Mesh, NodalField, _gradient_planes,
                          boundary_values, gradient, integrate)
from plaplab.lab.cases import (manufactured_problem_data, random_smooth_field,
                               rough_boundary_trace)
from plaplab import solver as solver_module
from plaplab.fluxmaps import a_map
from plaplab.solver import (DirichletProblem, NonConvergenceError,
                            SolverConfig, _BandSystem, _flux_load, _plane, _planes,
                            defect_vector, energy, regularized_energy, residual,
                            solve, solve_pharmonic)

TIGHT = SolverConfig(tol_residual=1e-9, max_iter=400)


def sine_problem(M):
    """p = 2 with the interpolated sine bump as the exact solution."""
    mesh = Mesh((0, 1, 0, 1), M)
    w = NodalField.from_callable(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    b = mesh.barycenters
    Fx = np.pi * np.cos(np.pi * b[:, 0]) * np.sin(np.pi * b[:, 1])
    Fy = np.pi * np.sin(np.pi * b[:, 0]) * np.cos(np.pi * b[:, 1])
    F = ElemField(np.stack([Fx, Fy], axis=1)[:, None, :])
    g = w.values[mesh.boundary_nodes]
    return DirichletProblem(Exponent(2.0), mesh, F, g), w


def p1_l2_error(mesh, u_values, w_values):
    """L2 norm of the P1 error function via exact per-element quadrature."""
    diff = u_values - w_values
    verts = diff[elements(mesh.cells_per_side)]   # (E, 3, N)
    # exact mass integration on a triangle: area/12 * ((sum)^2 + sum of squares)
    s = verts.sum(axis=1)
    quad = (s ** 2 + np.sum(verts ** 2, axis=1)) / 12.0
    return float(np.sqrt(np.sum(mesh.areas[:, None] * quad)))


# --- energy and residual ----------------------------------------------------------


def test_energy_zero_case():
    mesh = Mesh((0, 1, 0, 1), 8)
    rng = np.random.default_rng(0)
    F = ElemField(rng.normal(size=(mesh.num_elements, 1, 2)))
    prob = DirichletProblem(Exponent(3.0), mesh, F,
                            np.zeros((len(mesh.boundary_nodes), 1)))
    assert energy(prob, NodalField.zeros(mesh)) == 0.0


def test_energy_affine_hand_value():
    mesh = Mesh((0, 1, 0, 1), 8)
    u = NodalField.from_callable(mesh, lambda x, y: 2.0 * x - 1.0 * y)
    prob = DirichletProblem(Exponent(2.0), mesh, ElemField.zeros(mesh),
                            u.values[mesh.boundary_nodes])
    assert energy(prob, u) == pytest.approx(0.5 * 5.0, rel=1e-12)   # |b|^2/2


def test_solution_minimizes_energy():
    prob, _ = sine_problem(12)
    sol = solve(prob, TIGHT)
    e_star = energy(prob, sol.u)
    rng = np.random.default_rng(1)
    for _ in range(100):
        trial = sol.u.values.copy()
        trial[prob.mesh.interior_nodes] += 0.1 * rng.normal(
            size=(len(prob.mesh.interior_nodes), 1))
        assert energy(prob, NodalField(trial)) >= e_star - 1e-12


@pytest.mark.parametrize("pv", [1.5, 3.0])
def test_residual_zero_at_manufactured_interpolant(pv):
    mesh = Mesh((0, 1, 0, 1), 16)
    p = Exponent(pv)
    F, g, w = manufactured_problem_data(p, mesh, 2, np.random.default_rng(2))
    prob = DirichletProblem(p, mesh, F, g)
    assert residual(prob, w) <= 1e-10


def test_residual_positive_off_solution():
    prob, w = sine_problem(8)
    rng = np.random.default_rng(3)
    bad = w.values.copy()
    bad[prob.mesh.interior_nodes] += rng.normal(
        size=(len(prob.mesh.interior_nodes), 1))
    assert residual(prob, NodalField(bad)) > 1e-3


def test_linear_solve_residual_at_cg_tolerance():
    prob, _ = sine_problem(16)
    cfg = SolverConfig(tol_residual=1e-8)
    sol = solve(prob, cfg)
    assert sol.residual <= 1e-7
    assert sol.iterations == 0                     # p = 2 needs one linear solve


# --- solve -------------------------------------------------------------------------


def test_p2_manufactured_convergence_order():
    errs = []
    for M in (16, 32, 64):
        prob, w = sine_problem(M)
        sol = solve(prob, TIGHT)
        exact = np.sin(np.pi * prob.mesh.nodes[:, 0]) * np.sin(np.pi * prob.mesh.nodes[:, 1])
        errs.append(p1_l2_error(prob.mesh, sol.u.values, exact[:, None]))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.8


@pytest.mark.parametrize("pv", [1.5, 3.0])
def test_manufactured_solution_recovered(pv):
    p = Exponent(pv)
    diffs = []
    for M in (16, 32):
        mesh = Mesh((0, 1, 0, 1), M)
        F, g, w = manufactured_problem_data(p, mesh, 1, np.random.default_rng(4))
        sol = solve(DirichletProblem(p, mesh, F, g), TIGHT)
        gd = gradient(mesh, sol.u).tensors - gradient(mesh, w).tensors
        gd_norm = np.sqrt(np.sum(gd ** 2, axis=(1, 2)))
        diffs.append(integrate(mesh, gd_norm ** pv) ** (1.0 / pv))
    assert all(d <= 1e-6 for d in diffs)   # interpolant is the exact discrete solution


def test_affine_boundary_gives_affine_solution():
    # affine maps are p-harmonic for every p; accuracy is limited by the
    # residual target of the outer iteration
    mesh = Mesh((0, 1, 0, 1), 12)
    cfg = SolverConfig(tol_residual=1e-8)
    for pv in (1.5, 2.0, 3.0, 4.5):
        g = boundary_values(mesh, lambda x, y: 1.2 * x - 0.4 * y + 2.0)
        sol = solve_pharmonic(mesh, Exponent(pv), g, cfg)
        exact = 1.2 * mesh.nodes[:, 0] - 0.4 * mesh.nodes[:, 1] + 2.0
        assert np.abs(sol.u.values[:, 0] - exact).max() <= 3e-9


@pytest.mark.parametrize("pv", [1.5, 3.0])
def test_converges_below_energy_roundoff(pv):
    # at residual 1e-12 a step lowers the energy by far less than its
    # roundoff, so the step length must come from the slope, not the values
    mesh = Mesh((0, 1, 0, 1), 16)
    p = Exponent(pv)
    F, g, _ = manufactured_problem_data(p, mesh, 1, np.random.default_rng(5))
    sol = solve(DirichletProblem(p, mesh, F, g), SolverConfig(tol_residual=1e-12))
    assert sol.residual <= 1e-12


def test_boundary_values_exact_and_trace_monotone():
    mesh = Mesh((0, 1, 0, 1), 16)
    p = Exponent(3.0)
    g = rough_boundary_trace(mesh, 2, np.random.default_rng(5))
    sol = solve_pharmonic(mesh, p, g, TIGHT)
    assert np.array_equal(sol.u.values[mesh.boundary_nodes], g)
    trace = sol.energy_trace
    assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("M, seed", [(8, 0), (8, 14), (16, 18)])
def test_energy_trace_never_increases(M, seed):
    # the plane search accepts a point up to its roundoff slack, so the trace
    # holds the running minimum of the plane evaluator's energies
    mesh = Mesh((0, 1, 0, 1), M)
    g = rough_boundary_trace(mesh, 1, np.random.default_rng(seed))
    sol = solve_pharmonic(mesh, Exponent(3.0), g, SolverConfig(tol_residual=1e-8))
    assert np.all(np.diff(sol.energy_trace) <= 0.0)


def test_energy_trace_has_one_entry_per_iterate():
    mesh = Mesh((0, 1, 0, 1), 16)
    p = Exponent(1.5)
    F, g, _ = manufactured_problem_data(p, mesh, 1, np.random.default_rng(8))
    sol = solve(DirichletProblem(p, mesh, F, g), SolverConfig(tol_residual=1e-8))
    assert sol.iterations > 0
    assert len(sol.energy_trace) == sol.iterations + 1


def test_nonconvergence_carries_trace():
    mesh = Mesh((0, 1, 0, 1), 16)
    p = Exponent(3.0)
    F, g, _ = manufactured_problem_data(p, mesh, 1, np.random.default_rng(6))
    cfg = SolverConfig(tol_residual=1e-13, max_iter=2)
    with pytest.raises(NonConvergenceError) as err:
        solve(DirichletProblem(p, mesh, F, g), cfg)
    assert len(err.value.energy_trace) >= 1
    assert err.value.last_residual > 0


@pytest.mark.parametrize("kwargs, match", [
    ({"tol_residual": np.inf}, "tol_residual must be finite and positive, got inf"),
    ({"tol_residual": np.nan}, "tol_residual must be finite and positive, got nan"),
    ({"tol_residual": 0.0}, "tol_residual must be finite and positive, got 0.0"),
    ({"tol_residual": -1e-9}, "tol_residual"),
    ({"max_iter": -5}, r"max_iter must be an integer >= 0, got -5"),
    ({"max_iter": 2.5}, r"max_iter must be an integer >= 0, got 2.5"),
    ({"max_iter": True}, r"max_iter must be an integer >= 0, got True"),
])
def test_solver_config_rejects_silent_settings(kwargs, match):
    # inf would return the p = 2 start as converged, nan never converges
    with pytest.raises(ValueError, match=match):
        SolverConfig(**kwargs)


def test_solver_config_accepts_zero_iterations():
    # max_iter = 0 checks the start and runs no Kacanov step
    mesh = Mesh((0, 1, 0, 1), 8)
    g = rough_boundary_trace(mesh, 1, np.random.default_rng(4))
    cfg = SolverConfig(tol_residual=1e-9, max_iter=np.int64(0))
    with pytest.raises(NonConvergenceError, match="within 0 iterations"):
        solve_pharmonic(mesh, Exponent(3.0), g, cfg)


def test_energy_increase_is_a_nonconvergence_error(monkeypatch):
    # halfway from the p-harmonic solution w towards the harmonic extension h,
    # a constant frozen coefficient steps to h: uphill for every step length
    mesh = Mesh((0, 1, 0, 1), 8)
    g = rough_boundary_trace(mesh, 1, np.random.default_rng(5))
    prob = DirichletProblem(Exponent(3.0), mesh, ElemField.zeros(mesh), g)
    w = solve(prob).u.values
    h = solve_pharmonic(mesh, Exponent(2.0), g).u.values
    u0 = NodalField(0.5 * (w + h))
    monkeypatch.setattr(solver_module, "_COEFF_CLAMP", (1.0, 1.0))
    with pytest.raises(NonConvergenceError,
                       match=r"increasing the regularized energy at outer "
                             r"iteration 1 \(eps \d\.\d{3}e-\d\d\)") as err:
        solve(prob, u0=u0)
    assert err.value.last_residual == residual(prob, u0)
    assert len(err.value.energy_trace) == 1


def test_solve_takes_two_gradients_per_step(monkeypatch):
    calls = []

    def counted(mesh, values):
        calls.append(1)
        return _gradient_planes(mesh, values)

    monkeypatch.setattr(solver_module, "_gradient_planes", counted)
    mesh = Mesh((0, 1, 0, 1), 16)
    g = rough_boundary_trace(mesh, 2, np.random.default_rng(5))
    sol = solve_pharmonic(mesh, Exponent(3.0), g, TIGHT)
    assert sol.iterations >= 5
    assert len(calls) <= 2 * sol.iterations + 2


@pytest.mark.parametrize("pv", [1.5, 3.0])
def test_manufactured_solves_take_at_most_twelve_steps(pv):
    # the Kacanov step minimises the energy over the plane of its direction
    # and the previous step; a dyadic scan along the direction took 15-18
    p = Exponent(pv)
    mesh = Mesh((0, 1, 0, 1), 32)
    for seed in range(4):
        F, g, _ = manufactured_problem_data(p, mesh, 1, np.random.default_rng(seed))
        sol = solve(DirichletProblem(p, mesh, F, g), SolverConfig(tol_residual=1e-8))
        assert sol.iterations <= 12, seed


def test_gradient_error_at_the_residual_target():
    # the interpolant is the exact discrete solution, so the gradient error is
    # what the solve leaves at the 1e-8 residual target
    p = Exponent(1.5)
    mesh = Mesh((0, 1, 0, 1), 64)
    for seed in range(4):
        F, g, w = manufactured_problem_data(p, mesh, 1, np.random.default_rng(seed))
        sol = solve(DirichletProblem(p, mesh, F, g), SolverConfig(tol_residual=1e-8))
        exact = gradient(mesh, w)
        err = ElemField(gradient(mesh, sol.u).tensors - exact.tensors).norms().max()
        assert err <= 3e-7 * exact.norms().max(), seed


@settings(max_examples=60, deadline=None)
@given(M=st.integers(2, 12), pv=st.floats(1.2, 4.0), comps=st.integers(1, 2),
       eps=st.floats(1e-6, 1.0), x=st.floats(0.0, 1.0), y=st.floats(-1.0, 1.0),
       on_ray=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_plane_energy_and_slopes_match_the_iterate(M, pv, comps, eps, x, y, on_ray, seed):
    mesh = Mesh((0, 1, 0, 1), M)
    rng = np.random.default_rng(seed)
    F = ElemField(rng.normal(size=(mesh.num_elements, comps, 2)))
    g = rng.normal(size=(len(mesh.boundary_nodes), comps))
    prob = DirichletProblem(Exponent(pv), mesh, F, g)
    u = rng.normal(size=(mesh.num_nodes, comps))
    d = rng.normal(size=(mesh.num_nodes, comps))
    # s = 0 is the ray along d that the first Kacanov step searches
    s = np.zeros_like(d) if on_ray else rng.normal(size=(mesh.num_nodes, comps))
    grad, D, S = (_gradient_planes(mesh, v) for v in (u, d, s))
    a = eps * eps + np.sum(grad ** 2, axis=(0, 1))
    at = _plane(prob, _planes(F.tensors), a, grad, D, S, eps)

    def exact(x, y):
        return regularized_energy(prob, NodalField(u + x * d + y * s), eps)

    # size of the terms the energy sums, which may cancel
    gt = gradient(mesh, NodalField(u + x * d + y * s)).tensors
    size = integrate(mesh, (eps * eps + np.sum(gt ** 2, axis=(1, 2))) ** (pv / 2.0) / pv
                     + np.abs(np.sum(F.tensors * gt, axis=(1, 2))))
    value, slopes, _ = at(x, y)
    assert abs(value - exact(x, y)) <= 1e-12 * size
    # central differences at two steps: their gap bounds the truncation
    # error where |grad(u + x d + y s)| nearly vanishes on an element
    for slope, (ex, ey) in zip(slopes, ((1.0, 0.0), (0.0, 1.0))):
        central = [(exact(x + h * ex, y + h * ey) - exact(x - h * ex, y - h * ey)) / (2.0 * h)
                   for h in (1e-4, 5e-5)]
        assert abs(slope - central[1]) <= 1e-6 * size + abs(central[0] - central[1])


def test_plane_hessian_matches_its_slopes():
    mesh = Mesh((0, 1, 0, 1), 8)
    rng = np.random.default_rng(22)
    for pv in (1.5, 3.0):
        prob = DirichletProblem(Exponent(pv), mesh,
                                ElemField(rng.normal(size=(mesh.num_elements, 2, 2))),
                                rng.normal(size=(len(mesh.boundary_nodes), 2)))
        grad, D, S = (_gradient_planes(mesh, rng.normal(size=(mesh.num_nodes, 2)))
                      for _ in range(3))
        eps = 1e-3
        at = _plane(prob, _planes(prob.F.tensors), eps * eps + np.sum(grad ** 2, axis=(0, 1)),
                    grad, D, S, eps)
        x, y, h = 0.3, -0.2, 1e-6
        hess = at(x, y)[2]
        central = np.column_stack([(at(x + h, y)[1] - at(x - h, y)[1]) / (2.0 * h),
                                   (at(x, y + h)[1] - at(x, y - h)[1]) / (2.0 * h)])
        assert np.abs(hess - central).max() <= 1e-6 * np.abs(hess).max()
        assert np.linalg.eigvalsh(hess).min() > 0.0      # the energy is convex


def test_defect_vector_matches_element_loop():
    mesh = Mesh((0, 2, -1, 1), 7)
    rng = np.random.default_rng(21)
    p = Exponent(3.5)
    F = rng.normal(size=(mesh.num_elements, 2, 2))
    g = rng.normal(size=(len(mesh.boundary_nodes), 2))
    u = rng.normal(size=(mesh.num_nodes, 2))
    expected = np.zeros_like(u)
    elems, grads = connectivity(mesh)
    for e, (nodes, gl) in enumerate(zip(elems, grads)):
        flux = a_map(p, u[nodes].T @ gl) - F[e]          # (N, 2)
        expected[nodes] += mesh.areas[e] * gl @ flux.T
    got = defect_vector(DirichletProblem(p, mesh, ElemField(F), g), NodalField(u))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_radial_pharmonic_symbolic_oracle_and_convergence():
    # oracle: w = |x|^((p-2)/(p-1)) satisfies div(|grad w|^(p-2) grad w) = 0
    # away from the origin, verified symbolically
    import sympy as sp

    x, y = sp.symbols("x y", positive=True)
    pv = sp.Integer(3)
    gamma = (pv - 2) / (pv - 1)
    w = (x ** 2 + y ** 2) ** (gamma / 2)
    wx, wy = sp.diff(w, x), sp.diff(w, y)
    speed = sp.sqrt(wx ** 2 + wy ** 2)
    div_flux = sp.diff(speed ** (pv - 2) * wx, x) + sp.diff(speed ** (pv - 2) * wy, y)
    assert sp.simplify(div_flux) == 0

    p = Exponent(3.0)
    g_exp = (p.p - 2.0) / (p.p - 1.0)
    errs = []
    for M in (16, 32, 64):
        mesh = Mesh((1, 2, 1, 2), M)
        gb = boundary_values(mesh, lambda xx, yy: (xx ** 2 + yy ** 2) ** (g_exp / 2.0))
        sol = solve_pharmonic(mesh, p, gb, TIGHT)
        exact = (mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2) ** (g_exp / 2.0)
        ii = mesh.interior_nodes
        errs.append(float(np.abs(sol.u.values[ii, 0] - exact[ii]).max()))
    assert errs[0] > errs[1] > errs[2]


def test_scalar_maximum_principle():
    mesh = Mesh((0, 1, 0, 1), 16)
    g = rough_boundary_trace(mesh, 1, np.random.default_rng(7))
    for pv in (1.5, 3.0):
        sol = solve_pharmonic(mesh, Exponent(pv), g, TIGHT)
        assert sol.u.values.min() >= g.min() - 1e-8
        assert sol.u.values.max() <= g.max() + 1e-8


def test_discrete_homogeneity():
    mesh = Mesh((0, 1, 0, 1), 16)
    p = Exponent(3.0)
    F, g, _ = manufactured_problem_data(p, mesh, 1, np.random.default_rng(8))
    lam = 2.5
    cfg = SolverConfig(tol_residual=1e-10)
    sol1 = solve(DirichletProblem(p, mesh, F, g), cfg)
    sol2 = solve(DirichletProblem(p, mesh, ElemField(lam * F.tensors),
                                  lam ** (1.0 / (p.p - 1.0)) * g), cfg)
    scale = np.abs(sol2.u.values).max()
    assert np.allclose(sol2.u.values, lam ** (1.0 / (p.p - 1.0)) * sol1.u.values,
                       atol=1e-7 * scale)


@pytest.mark.parametrize("pv", [2.0, 3.0])
def test_uniqueness_from_random_initializations(pv):
    # strict convexity: two converged runs from different starts agree up to
    # a residual-driven distance (tested at p >= 2, where the monotonicity
    # rate tol^(1/(p-1)) is attainable)
    mesh = Mesh((0, 1, 0, 1), 16)
    p = Exponent(pv)
    F, g, _ = manufactured_problem_data(p, mesh, 1, np.random.default_rng(9))
    prob = DirichletProblem(p, mesh, F, g)
    tol = 1e-8
    cfg = SolverConfig(tol_residual=tol)
    rng = np.random.default_rng(10)
    sols = []
    for _ in range(2):
        u0 = NodalField(rng.normal(size=(mesh.num_nodes, 1)))
        sols.append(solve(prob, cfg, u0=u0))
    gd = gradient(mesh, sols[0].u).tensors - gradient(mesh, sols[1].u).tensors
    lp = integrate(mesh, np.sqrt(np.sum(gd ** 2, axis=(1, 2))) ** pv) ** (1.0 / pv)
    scale = max(prob.data_scale(), 1.0)
    assert lp <= 10.0 * tol ** (1.0 / (pv - 1.0)) * scale


def test_constant_data_shortcut():
    mesh = Mesh((0, 1, 0, 1), 8)
    g = np.full((len(mesh.boundary_nodes), 1), 3.0)
    sol = solve_pharmonic(mesh, Exponent(1.5), g)
    assert np.allclose(sol.u.values, 3.0)


@pytest.mark.parametrize("pv, clamp", [(1.5, (0.0, 1e10)), (3.0, (1e-10, np.inf))])
def test_failed_linear_solve_is_a_nonconvergence_error(pv, clamp, monkeypatch):
    # gradients of 1e200 overflow, so every frozen coefficient lands on an
    # unbounded clamp end: all zero (singular) or all infinite
    mesh = Mesh((0, 1, 0, 1), 8)
    p = Exponent(pv)
    F, g, _ = manufactured_problem_data(p, mesh, 1, np.random.default_rng(12))
    u0 = NodalField(1e200 * np.random.default_rng(13).normal(size=(mesh.num_nodes, 1)))
    monkeypatch.setattr(solver_module, "_COEFF_CLAMP", clamp)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonConvergenceError, match="outer iteration 1") as err:
        solve(DirichletProblem(p, mesh, F, g), u0=u0)
    assert len(err.value.energy_trace) == 1


def test_problem_exponent_must_be_an_exponent():
    mesh = Mesh((0, 1, 0, 1), 4)
    g = np.zeros((len(mesh.boundary_nodes), 1))
    with pytest.raises(TypeError, match="p must be an Exponent, got float"):
        DirichletProblem(3.0, mesh, ElemField.zeros(mesh), g)


@pytest.mark.parametrize("shape", [(81, 2), (80, 1)])
def test_start_of_the_wrong_shape_is_refused(shape):
    mesh = Mesh((0, 1, 0, 1), 8)
    g = rough_boundary_trace(mesh, 1, np.random.default_rng(3))
    prob = DirichletProblem(Exponent(3.0), mesh, ElemField.zeros(mesh), g)
    with pytest.raises(ValueError, match=rf"start has shape \({shape[0]}, {shape[1]}\), "
                                         r"the problem needs \(81, 1\)"):
        solve(prob, u0=NodalField(np.zeros(shape)))


# --- factor reuse -----------------------------------------------------------------


def reuse_problem(kind, p, mesh, comps, rng):
    if kind == "amap":
        F, g, _ = manufactured_problem_data(p, mesh, comps, rng)
    elif kind == "trig":
        F, g = random_smooth_field(mesh, comps, rng), np.zeros((len(mesh.boundary_nodes), comps))
    else:
        F, g = ElemField.zeros(mesh, rows=comps), rough_boundary_trace(mesh, comps, rng)
    return DirichletProblem(p, mesh, F, g)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(4, 24), pv=st.floats(1.5, 4.0), comps=st.integers(1, 2),
       kind=st.sampled_from(["amap", "trig", "pharmonic"]), seed=st.integers(0, 2 ** 32 - 1))
def test_kept_factors_reach_the_refactor_every_step_solution(M, pv, comps, kind, seed):
    # a residual of 1e-10 fixes u up to the inverse of the linearised
    # operator: the two solves differed by at most 3.3e-9 relative over 1800
    # random cases of this range
    prob = reuse_problem(kind, Exponent(pv), Mesh((0, 1, 0, 1), M), comps,
                         np.random.default_rng(seed))
    cfg = SolverConfig(tol_residual=1e-10, max_iter=400)
    sol = solve(prob, cfg)
    rate = solver_module._REFACTOR_RATE
    solver_module._REFACTOR_RATE = 0.0
    try:
        ref = solve(prob, cfg)
    finally:
        solver_module._REFACTOR_RATE = rate
    assert sol.residual <= 1e-10 and ref.residual <= 1e-10
    assert ref.factorizations == ref.iterations + 1
    scale = np.abs(ref.u.values).max()
    assert np.abs(sol.u.values - ref.u.values).max() <= 1e-7 * scale


def test_kept_factors_save_factorizations(monkeypatch):
    mesh = Mesh((0, 1, 0, 1), 64)
    F, g, _ = manufactured_problem_data(Exponent(3.0), mesh, 1, np.random.default_rng(2))
    prob = DirichletProblem(Exponent(3.0), mesh, F, g)
    sol = solve(prob)
    assert sol.factorizations < sol.iterations
    monkeypatch.setattr(solver_module, "_REFACTOR_RATE", 0.0)
    every = solve(prob)
    assert every.factorizations == every.iterations + 1      # the start's included


def logged_factor_and_plane_step(monkeypatch, refuse):
    """Log "factor" and "step" events of solve; refuse(events) says whether the
    plane search about to run reports no descent ("refused") instead."""
    events = []
    factor, plane_step = _BandSystem.factor, solver_module._plane_step

    def logged_factor(self, kappa):
        events.append("factor")
        return factor(self, kappa)

    def logged_plane_step(at, e0):
        if refuse(events):
            events.append("refused")
            return None
        events.append("step")
        return plane_step(at, e0)

    monkeypatch.setattr(_BandSystem, "factor", logged_factor)
    monkeypatch.setattr(solver_module, "_plane_step", logged_plane_step)
    return events


def pharmonic_problem(M=16, pv=3.0, seed=5):
    mesh = Mesh((0, 1, 0, 1), M)
    g = rough_boundary_trace(mesh, 1, np.random.default_rng(seed))
    return DirichletProblem(Exponent(pv), mesh, ElemField.zeros(mesh), g)


def test_a_kept_factor_without_descent_is_refactored_and_the_step_retaken(monkeypatch):
    prob = pharmonic_problem()
    expected = solve(prob, TIGHT)
    # the first plane search on a kept factor (a step right after a step)
    # finds no descent
    events = logged_factor_and_plane_step(
        monkeypatch, lambda ev: ev[-1:] == ["step"] and "refused" not in ev)
    sol = solve(prob, TIGHT)
    at = events.index("refused")
    assert events[at - 1:at + 3] == ["step", "refused", "factor", "step"]
    assert sol.factorizations == events.count("factor")
    assert sol.iterations == events.count("step")
    assert sol.residual <= TIGHT.tol_residual
    assert np.abs(sol.u.values - expected.u.values).max() <= 1e-7
    assert np.all(np.diff(sol.energy_trace) <= 0.0)


def test_only_a_fresh_factor_without_descent_raises(monkeypatch):
    # every plane search after the first finds no descent: the second step
    # keeps the first step's factor, refactors, and raises on the retake
    prob = pharmonic_problem()
    events = logged_factor_and_plane_step(monkeypatch, lambda ev: "step" in ev)
    with pytest.raises(NonConvergenceError,
                       match="increasing the regularized energy at outer iteration 2"):
        solve(prob, TIGHT)
    assert events == ["factor", "factor", "step", "refused", "factor", "refused"]


def dense_frozen_system(mesh, kappa, F, g):
    """Interior matrix and right-hand side, assembled one element at a time."""
    K = np.zeros((mesh.num_nodes, mesh.num_nodes))
    b = np.zeros((mesh.num_nodes, F.shape[1]))
    elems, grads = connectivity(mesh)
    for e, (nodes, gl) in enumerate(zip(elems, grads)):
        K[np.ix_(nodes, nodes)] += mesh.areas[e] * kappa[e] * gl @ gl.T
        b[nodes] += mesh.areas[e] * gl @ F[e].T
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    return K[np.ix_(ii, ii)], b[ii] - K[np.ix_(ii, bb)] @ g


def band_to_dense(ab):
    width, n = ab.shape
    K = np.zeros((n, n))
    for d in range(width):
        K[np.arange(d, n), np.arange(n - d)] = ab[d, :n - d]
    return K + np.tril(K, -1).T


def dense_schur_complement(mesh, K_ii):
    """K_bb - K_br K_rr^-1 K_rb of the interior matrix: the black nodes have
    even ix + iy and are numbered row-major, the red ones odd."""
    parity = np.sum(np.divmod(mesh.interior_nodes, mesh.cells_per_side + 1), axis=0) % 2
    red, black = np.flatnonzero(parity == 1), np.flatnonzero(parity == 0)
    K_rb = K_ii[np.ix_(red, black)]
    return K_ii[np.ix_(black, black)] - K_rb.T @ (K_rb / np.diag(K_ii)[red, None])


def test_frozen_coefficient_system_is_spd():
    mesh = Mesh((0, 1, 0, 1), 6)
    rng = np.random.default_rng(11)
    kappa = np.exp(rng.normal(size=mesh.num_elements))   # arbitrary positive
    F = rng.normal(size=(mesh.num_elements, 1, 2))
    g = rng.normal(size=(len(mesh.boundary_nodes), 1))
    K_ii, _ = dense_frozen_system(mesh, kappa, F, g)
    assert np.allclose(K_ii, K_ii.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(K_ii)
    assert eigs.min() > 0.0
    # no two interior nodes of one colour (parity of ix + iy) couple
    colour = np.sum(np.divmod(mesh.interior_nodes, mesh.cells_per_side + 1), axis=0) % 2
    same = (colour[:, None] == colour[None, :]) & ~np.eye(len(colour), dtype=bool)
    assert np.all(K_ii[same] == 0.0)
    system = _BandSystem(DirichletProblem(Exponent(2.0), mesh, ElemField(F), g))
    ab = system.condense(kappa)[0]
    assert ab.shape == (6, 13)             # half-bandwidth M - 1, 13 black nodes
    assert np.allclose(band_to_dense(ab), dense_schur_complement(mesh, K_ii),
                       rtol=1e-14, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(M=st.integers(2, 12), x0=st.floats(-10, 10), y0=st.floats(-10, 10),
       side=st.floats(0.1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_condensed_band_matches_dense_schur_complement(M, x0, y0, side, seed):
    mesh = Mesh((x0, x0 + side, y0, y0 + side), M)
    rng = np.random.default_rng(seed)
    kappa = rng.lognormal(size=mesh.num_elements)
    F = np.zeros((mesh.num_elements, 1, 2))
    g = np.zeros((len(mesh.boundary_nodes), 1))
    K_ii, _ = dense_frozen_system(mesh, kappa, F, g)
    system = _BandSystem(DirichletProblem(Exponent(2.0), mesh, ElemField(F), g))
    expected = dense_schur_complement(mesh, K_ii)
    err = np.abs(band_to_dense(system.condense(kappa)[0]) - expected).max()
    assert err <= 1e-12 * np.abs(expected).max()


@settings(max_examples=60, deadline=None)
@given(M=st.integers(2, 12), side=st.floats(0.1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_condensed_band_matches_dense_schur_complement_across_the_clamp(M, side, seed):
    # frozen coefficients anywhere in the clamp range [1e-10, 1e10].  Where
    # a red pivot is nearly one conductance, its elimination cancels terms
    # of the size of K's entries, so S is compared at the scale of K.  The
    # square has a corner at the origin: the dense reference's basis
    # gradients are rounded relative to the coordinates (eps X / h), which
    # on far translated squares exceeds the bound by itself.
    mesh = Mesh((0.0, side, 0.0, side), M)
    kappa = 10.0 ** np.random.default_rng(seed).uniform(-10.0, 10.0, mesh.num_elements)
    F = np.zeros((mesh.num_elements, 1, 2))
    g = np.zeros((len(mesh.boundary_nodes), 1))
    K_ii, _ = dense_frozen_system(mesh, kappa, F, g)
    system = _BandSystem(DirichletProblem(Exponent(2.0), mesh, ElemField(F), g))
    expected = dense_schur_complement(mesh, K_ii)
    err = np.abs(band_to_dense(system.condense(kappa)[0]) - expected).max()
    assert err <= 1e-13 * np.abs(K_ii).max()


@settings(max_examples=60, deadline=None)
@given(M=st.integers(2, 12), x0=st.floats(-10, 10), y0=st.floats(-10, 10),
       side=st.floats(0.1, 10), comps=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_band_solve_matches_dense_solve(M, x0, y0, side, comps, seed):
    mesh = Mesh((x0, x0 + side, y0, y0 + side), M)
    rng = np.random.default_rng(seed)
    kappa = rng.lognormal(size=mesh.num_elements)
    F = rng.normal(size=(mesh.num_elements, comps, 2))
    g = rng.normal(size=(len(mesh.boundary_nodes), comps))
    K_ii, rhs = dense_frozen_system(mesh, kappa, F, g)
    expected = np.linalg.solve(K_ii, rhs)
    system = _BandSystem(DirichletProblem(Exponent(2.0), mesh, ElemField(F), g))
    system.factor(kappa)
    # the loads of F - kappa grad g_ext lift g into the interior rows
    lift = system.F - kappa * _gradient_planes(mesh, system.g_full)
    got = system.apply(_flux_load(mesh, lift))
    assert not got[mesh.boundary_nodes].any()
    err = np.abs(got[mesh.interior_nodes] - expected).max()
    assert err <= 1e-12 * np.abs(expected).max()
