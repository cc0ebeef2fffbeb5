"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line; tolerances
are pinned here and never loosened at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from connectivity import elements
from plaplab.fluxmaps import Exponent, equivalence_table, random_tensor_pairs, ratio_band
from plaplab.grid import ElemField, Mesh, boundary_values
from plaplab.lab.config import ExperimentConfig
from plaplab.lab.experiments import (exp_basic_estimate, exp_decay,
                                     exp_example_5_5, exp_potential)
from plaplab.maximal import RadiiSet, plain_maximal, riesz_ratio, sharp_maximal
from plaplab.oscillation import (PotentialParams, constant_modulus,
                                 dini_transform, oscillation_potential,
                                 power_modulus, zeta_transform)
from plaplab.rearrange import (LorentzSpec, PowerYoung, StepFunction,
                               double_star, hardy_check_avg, lorentz_norm,
                               lq_norm, orlicz_target, rearrange)
from plaplab.solver import DirichletProblem, SolverConfig, residual, solve, solve_pharmonic
from plaplab.lab.cases import manufactured_problem_data


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL - {desc}", flush=True)
        raise
    print(f"\n[criterion {num:02d}] PASS - {desc}", flush=True)


def test_criterion_01_algebra_suite():
    with criterion(1, "tensor algebra equivalence bands, seed-stable, p=2 exact"):
        t0 = time.monotonic()
        for pv in (1.2, 1.5, 2.0, 3.0, 4.5):
            p = Exponent(pv)
            bands = []
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                Ps, Qs = random_tensor_pairs(rng, 10_000, 2, 2)
                bands.append(ratio_band(p, Ps, Qs))
            assert all(np.isfinite(b) for b in bands)
            assert max(bands) / min(bands) < 2.0
        rng = np.random.default_rng(2)
        Ps, Qs = random_tensor_pairs(rng, 10_000, 2, 2)
        tab = equivalence_table(Exponent(2.0), Ps, Qs)
        diff_sq = np.sum((Ps - Qs) ** 2, axis=(1, 2))
        keep = diff_sq > 0
        dev = np.abs(tab["inner"][keep] / diff_sq[keep] - 1.0)
        assert dev.max() <= 1e-12
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"algebra suite took {elapsed:.1f}s"


def test_criterion_02_solver_convergence():
    with criterion(2, "manufactured p=2 order >= 1.8; exact interpolants; monotone traces"):
        t0 = time.monotonic()
        errs = []
        for M in (16, 32, 64):
            mesh = Mesh((0, 1, 0, 1), M)
            w_exact = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
            b = mesh.barycenters
            F = ElemField(np.stack([
                np.pi * np.cos(np.pi * b[:, 0]) * np.sin(np.pi * b[:, 1]),
                np.pi * np.sin(np.pi * b[:, 0]) * np.cos(np.pi * b[:, 1])],
                axis=1)[:, None, :])
            prob = DirichletProblem(Exponent(2.0), mesh, F,
                                    w_exact[mesh.boundary_nodes][:, None])
            sol = solve(prob, SolverConfig(tol_residual=1e-9))
            diff = (sol.u.values[:, 0] - w_exact)[elements(M)]
            quadv = (diff.sum(axis=1) ** 2 + np.sum(diff ** 2, axis=1)) / 12.0
            errs.append(float(np.sqrt(np.sum(mesh.areas * quadv))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 1.8, f"orders {orders}"

        for pv in (1.5, 3.0):
            p = Exponent(pv)
            mesh = Mesh((0, 1, 0, 1), 32)
            F, g, w = manufactured_problem_data(p, mesh, 1, np.random.default_rng(12))
            prob = DirichletProblem(p, mesh, F, g)
            assert residual(prob, w) <= 1e-8
            sol = solve(prob, SolverConfig(tol_residual=1e-8))
            trace = sol.energy_trace
            assert all(y <= x + 1e-10 * (1.0 + abs(x))
                       for x, y in zip(trace, trace[1:]))
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"solver suite took {elapsed:.1f}s"


def test_criterion_03_radial_pharmonic():
    with criterion(3, "radial p-harmonic benchmark: interior error decreases monotonically"):
        t0 = time.monotonic()
        p = Exponent(3.0)
        gamma = (p.p - 2.0) / (p.p - 1.0)
        errs = []
        for M in (32, 64, 128):
            mesh = Mesh((1, 2, 1, 2), M)
            g = boundary_values(mesh, lambda x, y: (x ** 2 + y ** 2) ** (gamma / 2.0))
            sol = solve_pharmonic(mesh, p, g, SolverConfig(tol_residual=1e-9))
            exact = (mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2) ** (gamma / 2.0)
            ii = mesh.interior_nodes
            errs.append(float(np.abs(sol.u.values[ii, 0] - exact[ii]).max()))
        assert errs[0] > errs[1] > errs[2], f"errors {errs}"
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"radial benchmark took {elapsed:.1f}s"


def test_criterion_04_maximal_exactness():
    with criterion(4, "indicator enumeration oracle exact; sharp <= 2 plain pointwise"):
        for M in (4, 6):
            mesh = Mesh((0, 1, 0, 1), M)
            h = mesh.h
            for cell in range(M * M):
                ix, iy = cell % M, cell // M
                elems = {cell, cell + M * M}
                t = np.zeros((mesh.num_elements, 1, 2))
                for e in elems:
                    t[e, 0, 0] = 1.0
                f = ElemField(t)
                x = ((ix + 0.5) * h, (iy + 0.5) * h)
                got = sharp_maximal(mesh, f, 1.0, RadiiSet(h, 4 * h, 0.5), x,
                                    require_interior=False)
                oracle = 0.0
                for r in (h, 2 * h, 4 * h):
                    members = [e for e in range(mesh.num_elements)
                               if (mesh.barycenters[e, 0] - x[0]) ** 2
                               + (mesh.barycenters[e, 1] - x[1]) ** 2 < r * r]
                    mu = sum(1 for e in members if e in elems) / len(members)
                    oracle = max(oracle, 2.0 * mu * (1.0 - mu))
                assert got == pytest.approx(oracle, abs=1e-13)

        rng = np.random.default_rng(3)
        mesh = Mesh((0, 1, 0, 1), 12)
        radii = RadiiSet(2 * mesh.h, 0.24, 0.5)
        pts = mesh.interior_points(0.25)[::11]
        violations = 0
        for _ in range(20):
            f = ElemField(rng.normal(size=(mesh.num_elements, 2, 2)))
            for x in pts:
                s = sharp_maximal(mesh, f, 2.0, radii, x)
                m = plain_maximal(mesh, f, 2.0, radii, x)
                if s > 2.0 * m + 1e-13:
                    violations += 1
        assert violations == 0


def test_criterion_05_rearrangement_suite():
    with criterion(5, "equimeasurability exact; f** >= f*; Lorentz closed forms at 1e-12"):
        rng = np.random.default_rng(4)
        mesh = Mesh((0, 1, 0, 1), 8)
        for _ in range(50):
            f = rng.normal(size=mesh.num_elements) * rng.uniform(0.1, 5.0)
            sf = rearrange(mesh, f)
            for t in rng.uniform(0.0, np.abs(f).max(), 4):
                direct = float(np.sum(mesh.areas[np.abs(f) > t]))
                assert abs(sf.measure_above(t) - direct) <= 1e-12

        sf = StepFunction.from_samples(rng.uniform(0, 4, 30), rng.uniform(0.01, 0.3, 30))
        for s in np.linspace(1e-4, sf.total_measure * 1.5, 1000):
            assert double_star(sf, s) >= sf(s) - 1e-14

        for _ in range(20):
            sf = StepFunction.from_samples(rng.uniform(0, 4, 20),
                                           rng.uniform(0.01, 0.3, 20))
            for q in (1.0, 2.0, 3.5):
                a, b = lorentz_norm(sf, q, q), lq_norm(sf, q)
                assert abs(a - b) <= 1e-12 * max(b, 1.0)

        for q, r, t in ((2.0, 1.0, 0.7), (2.5, 1.5, 1.3), (3.0, 3.0, 0.2)):
            ind = StepFunction(np.array([1.0]), np.array([t]))
            closed = (q / r) ** (1.0 / r) * t ** (1.0 / q)
            assert abs(lorentz_norm(ind, q, r) - closed) <= 1e-12 * closed


def test_criterion_06_hardy_riesz():
    with criterion(6, "averaged-Hardy bounded above p', witness grows >= 10x; Riesz stable"):
        rng = np.random.default_rng(5)
        family = [StepFunction.from_samples(rng.uniform(0, 3, 12),
                                            rng.uniform(0.01, 0.2, 12))
                  for _ in range(50)]
        for pv in (1.5, 2.0, 3.0):
            p = Exponent(pv)
            ratios = hardy_check_avg(LorentzSpec(2.0 * p.pprime, 1.0), p, family)
            assert all(np.isfinite(r) for r in ratios)

            witness = [StepFunction(np.array([float(k)]), np.array([1.0 / k]))
                       for k in (1, 10, 100, 1000)]
            wr = hardy_check_avg(LorentzSpec(p.pprime, 1.0), p, witness, horizon=1.0)
            assert all(b > a for a, b in zip(wr, wr[1:]))
            assert wr[-1] / wr[0] >= 10.0, f"witness growth {wr[-1]/wr[0]:.2f} at p={pv}"

        fits = []
        rng = np.random.default_rng(6)
        for M in (16, 32):
            mesh = Mesh((0, 1, 0, 1), M)
            radii = RadiiSet(2 * mesh.h, 0.2, 0.5)
            cs = [riesz_ratio(mesh,
                              ElemField(rng.normal(size=(mesh.num_elements, 1, 2))),
                              2.0, radii, stride=3)
                  for _ in range(20)]
            fits.append(max(cs))
        assert all(np.isfinite(c) for c in fits)
        assert max(fits) / min(fits) < 2.0


def test_criterion_07_basic_estimate_empirical():
    with criterion(7, "pointwise sharp-maximal comparison finite, 27/30 refinement-stable"):
        cfg = ExperimentConfig(ps=[1.5, 2.0, 3.0], grids=[32, 64], n_seeds=5, seed=7)
        rep = exp_basic_estimate(cfg)
        graded = [c for c in rep.cases if c.get("stability_factor") is not None]
        assert len(graded) == 30
        assert all(np.isfinite(c["fitted_constant"]) for c in rep.cases)
        stable = sum(1 for c in graded
                     if np.isfinite(c["stability_factor"]) and c["stability_factor"] < 2.0)
        assert stable >= 27, f"only {stable}/30 stable"


def test_criterion_08_decay_exponents():
    with criterion(8, "decay exponents positive, p=2 near-linear, refinement-stable"):
        cfg = ExperimentConfig(ps=[1.5, 2.0, 3.0], grids=[32, 64], n_seeds=3, seed=7)
        rep = exp_decay(cfg)
        finest = max(cfg.grids)
        table = {(c["p"], c["M"]): c for c in rep.cases if "alpha" in c}
        for pv in cfg.ps:
            assert table[(pv, finest)]["alpha"] > 0.05
            assert table[(pv, finest)]["kappa"] > 0.05
        assert table[(2.0, finest)]["alpha"] >= 0.9
        for pv in cfg.ps:
            a32, a64 = table[(pv, 32)]["alpha"], table[(pv, 64)]["alpha"]
            assert abs(a64 / a32 - 1.0) <= 0.30, f"alpha drift at p={pv}"


def test_criterion_09_borderline_example():
    with criterion(9, "borderline datum: defect order, ring growth, stable seminorm, Dini"):
        t0 = time.monotonic()
        cfg = ExperimentConfig(ps=[2.0], grids=[32], n_seeds=1, seed=7)
        rep = exp_example_5_5(cfg)
        by_name = {a.name: a for a in rep.assertions}
        order_case = next(c for c in rep.cases if c["case"] == "defect-order")
        assert order_case["fitted_constant"] >= 0.8
        for k in (1, 2, 3):
            ring = next(c for c in rep.cases if c["case"] == f"ring-k{k}")
            assert ring["rel_err"] <= 0.10
        holder = next(c for c in rep.cases if c["case"] == "holder-F")
        assert np.isfinite(holder["fitted_constant"])
        assert holder["stability_factor"] < 2.0
        assert by_name["Dini divergence of the modulus detected"].passed
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"example suite took {elapsed:.1f}s"


def test_criterion_10_transform_pipeline():
    with criterion(10, "Orlicz transform slope within 2%; zeta and varpi exact to 1e-10"):
        for pv, q in ((2.0, 4.0), (3.0, 4.0)):
            p = Exponent(pv)
            psi = orlicz_target(PowerYoung(q), p)
            lam = 1.0 / (pv - 1.0)
            band = (psi.grid >= 1e-4 ** lam) & (psi.grid <= 1e4 ** lam)
            slope = np.polyfit(np.log(psi.grid[band]), np.log(psi.vals[band]), 1)[0]
            assert abs(slope / (q * (pv - 1.0)) - 1.0) <= 0.02

        z = zeta_transform(constant_modulus(), 2, 1.0)
        for r in np.geomspace(1e-8, 0.9, 50):
            expect = 2.0 / math.log(1.0 / r)
            assert abs(z(r) - expect) <= 1e-10 * expect

        for beta in (0.3, 0.7):
            vp = dini_transform(power_modulus(beta))
            for r in np.geomspace(1e-6, 1.0, 50):
                expect = r ** beta / beta
                assert abs(vp(r) - expect) <= 1e-10 * expect


def test_criterion_11_potential():
    with criterion(11, "dyadic potential matches geometric sum; fitted bound stable"):
        from scipy.integrate import quad

        p = Exponent(2.0)
        params = PotentialParams(R=0.25, theta=0.5, p=p)
        mesh = Mesh((0, 1, 0, 1), 128)
        t = np.zeros((mesh.num_elements, 1, 2))
        t[:, 0, 0] = 2.0 * mesh.barycenters[:, 0] + 1.0 * mesh.barycenters[:, 1]
        f = ElemField(t)
        got = oscillation_potential(mesh, f, (0.5, 0.5), params)
        qq = p.pprime
        ang = quad(lambda a: abs(math.cos(a)) ** qq, 0.0, 2.0 * math.pi)[0]
        cq = ((1.0 / math.pi) / (qq + 2.0) * ang) ** (1.0 / qq)
        closed, r = 0.0, params.R
        while r >= 2.0 * mesh.h:
            closed += cq * math.hypot(2.0, 1.0) * r * math.log(2.0)
            r *= params.theta
        assert abs(got - closed) <= 0.05 * closed

        cfg = ExperimentConfig(ps=[1.5, 2.0, 3.0], grids=[16, 32], n_seeds=2, seed=7)
        rep = exp_potential(cfg)
        graded = [c for c in rep.cases if c.get("stability_factor") is not None]
        assert len(graded) >= 10
        assert all(np.isfinite(c["fitted_constant"]) for c in graded)
        assert all(c["stability_factor"] < 2.0 for c in graded)
