"""The experiment battery.

Every experiment builds seeded cases, fits the non-explicit comparison
constants of the gradient estimates on the discrete solutions, and asserts
(a) finiteness, (b) stability of the fit under one mesh refinement within a
configured factor, and (c) exactness of all closed-form sub-checks.  That
is the strongest falsifiable reading available at desk scale, since none of
the estimates comes with explicit constants.

Cases go through one pipeline: `_Case.problem` builds a seeded datum on a
grid, `_solved` is the one place that solves, and `_sweep` walks the
p x seed x grid cases, solving each once per experiment call.  Timing is
left to the caller.
"""

import math

import numpy as np

from ..fluxmaps import Exponent, a_map, v_map
from ..grid import (ElemField, Mesh, NodalField, _ball_members, _require_nonempty,
                    ball_oscillation, ball_stats, gradient, integrate)
from ..maximal import RadiiSet, plain_maximal, sharp_maximal, weighted_local_sharp
from ..oscillation import (PotentialParams, constant_modulus, dini_log_modulus,
                           holder_seminorm, inscribed_sups, oscillation_potential,
                           power_modulus)
from ..rearrange import (CapYoung, ExpYoung, HypothesisViolation, LorentzSpec, StepFunction,
                         hardy_check_avg, hardy_check_tail, lorentz_norm, lq_norm, luxemburg_norm,
                         marcinkiewicz_norm, orlicz_target, rearrange)
from ..rearrange.hardy import _luxemburg_search
from ..solver import DirichletProblem, SolverConfig, defect_vector, solve
from . import cases
from .config import ExperimentConfig, modulus_from_spec, young_from_spec
from .report import Report

__all__ = [
    "exp_basic_estimate",
    "exp_decay",
    "exp_oscillation_estimate",
    "exp_potential",
    "exp_example_5_5",
    "exp_reduction",
    "norm_table",
    "EXPERIMENTS",
]

DENOM_FLOOR = 1e-14


# --- case plumbing -----------------------------------------------------------


def _rng(cfg, *key):
    return np.random.default_rng([cfg.seed] + [int(k) for k in key])


def _solver_config(tol=1e-8):
    return SolverConfig(tol_residual=tol, max_iter=400)


def _solved(prob, tol=1e-8, start=None):
    """Solve prob, from the nodal field start if given; the record every
    experiment reads its fields from."""
    sol = solve(prob, _solver_config(tol), start)
    grad = gradient(prob.mesh, sol.u)
    return {"mesh": prob.mesh, "prob": prob, "sol": sol, "grad": grad,
            "A": ElemField(a_map(prob.p, grad.tensors))}


class _Case:
    """One (p, seed) datum, realizable on any grid.

    Even seed indices are flux-manufactured (F is the flux of a smooth
    potential's discrete gradient, boundary data its trace), odd ones carry
    a random smooth F with zero boundary data.
    """

    def __init__(self, cfg, p_value, seed_idx):
        self.p = Exponent(p_value)
        self.seed_idx = seed_idx
        self.manufactured = seed_idx % 2 == 0
        rng = _rng(cfg, round(1000 * p_value), seed_idx)
        self.comps = cfg.comps
        if self.manufactured:
            self.potential_fn = cases.smooth_potential_fn(rng, cfg.comps)
        else:
            self.tensor_fn = cases.smooth_tensor_fn(rng, cfg.comps)
        self.bounds = cfg.bounds

    def problem(self, M):
        mesh = Mesh(self.bounds, M)
        if self.manufactured:
            F, g, _ = cases.manufactured_data(self.p, mesh, self.potential_fn)
        else:
            F = ElemField.from_callable(mesh, self.tensor_fn, self.comps)
            g = np.zeros((len(mesh.boundary_nodes), self.comps))
        return DirichletProblem(self.p, mesh, F, g)

    def on_grid(self, M):
        return _solved(self.problem(M))


def _sweep(cfg, ps, n_seeds):
    """(case, M, solved record) for every p, seed index and grid, refinements
    included; one case is alive at a time."""
    for p_value in ps:
        for seed_idx in range(n_seeds):
            case = _Case(cfg, p_value, seed_idx)
            for M in _grids_with_refinements(cfg):
                yield case, M, case.on_grid(M)


def _add_row(report, case, M, **fields):
    """The report row of one swept case on one grid."""
    p_value = case.p.p
    return report.add_case(case=f"p{p_value}-M{M}-s{case.seed_idx}", p=p_value,
                           M=M, seed=case.seed_idx, **fields)


def _side(cfg):
    x0, x1, _, _ = cfg.bounds
    return x1 - x0


def _kept(den, F):
    """Probe points whose denominator is not below DENOM_FLOOR of the datum
    F's oscillation scale sup |F - mean|: a locally constant F drives both
    sides of a ratio to zero."""
    return ~(den < DENOM_FLOOR * max(float(_centered_norms(F).max(initial=0.0)), 1e-300))


def _largest(ratios):
    """The largest kept ratio, 0 when none is kept."""
    return float(ratios.max()) if ratios.size else 0.0


def _probe_points(cfg, margin, per_side=10):
    """Mesh-independent probe lattice: sup-fits stay comparable under refinement."""
    x0, x1, y0, y1 = cfg.bounds
    lo_x, hi_x = x0 + margin * 1.02, x1 - margin * 1.02
    lo_y, hi_y = y0 + margin * 1.02, y1 - margin * 1.02
    if lo_x >= hi_x or lo_y >= hi_y:
        return np.empty((0, 2))
    xs = np.linspace(lo_x, hi_x, per_side)
    ys = np.linspace(lo_y, hi_y, per_side)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()])


def _grids_with_refinements(cfg):
    return sorted(set(cfg.grids) | {2 * max(cfg.grids)})


def _fit_checks(report, cfg, records, finite_name):
    """Finiteness of every fitted constant, then the per-case growth under
    M -> 2M and its pass rate."""
    report.check(finite_name, "isfinite",
                 all(np.isfinite(r["fitted_constant"]) for r in records))
    by_key = {(r["p"], r["seed"], r["M"]): r for r in records}
    growths = []
    for r in records:
        if r["M"] not in cfg.grids:
            continue
        fine = by_key.get((r["p"], r["seed"], 2 * r["M"]))
        if fine is None:
            continue
        coarse_val = r["fitted_constant"]
        fine_val = fine["fitted_constant"]
        growth = math.inf if coarse_val == 0.0 else fine_val / coarse_val
        r["stability_factor"] = growth
        r["pass"] = bool(np.isfinite(growth) and growth < cfg.stability_factor)
        growths.append(r["pass"])
    frac = float(np.mean(growths)) if growths else 1.0
    report.check("refinement stability of fitted constants",
                 f"growth < {cfg.stability_factor} in >= 90% of cases",
                 frac >= 0.9, value=round(frac, 4))


# --- basic pointwise estimate --------------------------------------------------


def _sharp_ratio_stats(cfg, rec):
    """Pointwise ratio of the sharp maximal flux field to the sharp data field."""
    mesh = rec["mesh"]
    p = rec["prob"].p
    r_max = cfg.r_max_frac * _side(cfg)
    radii = RadiiSet(cfg.r_min_cells * mesh.h, r_max, cfg.radii_ratio)
    pts = _probe_points(cfg, r_max)
    qmin = min(p.pprime, 2.0)
    den = sharp_maximal(mesh, rec["prob"].F, p.pprime, radii, pts)
    kept = _kept(den, rec["prob"].F)
    ratios = sharp_maximal(mesh, rec["A"], qmin, radii, pts[kept]) / den[kept]
    return {
        "n_points": len(pts),
        "n_excluded": int(np.count_nonzero(~kept)),
        "max_ratio": _largest(ratios),
        "median_ratio": float(np.median(ratios)) if len(ratios) else 0.0,
    }


def exp_basic_estimate(cfg: ExperimentConfig):
    """Pointwise comparison of sharp maximal fields of the flux and the datum.

    For each case the max and median over interior points of
    M-sharp_(min(p',2))(A(grad u)) / M-sharp_(p')(F) is fitted; points where
    the denominator sits below 1e-14 of the data scale are excluded and
    counted (locally constant F drives both sides to zero together).
    """
    report = Report("basic-estimate", cfg.echo())
    records = []
    for case, M, rec in _sweep(cfg, cfg.ps, cfg.n_seeds):
        stats = _sharp_ratio_stats(cfg, rec)
        records.append(_add_row(
            report, case, M, kind="amap" if case.manufactured else "trig",
            fitted_constant=stats["max_ratio"], median_ratio=stats["median_ratio"],
            n_points=stats["n_points"], n_excluded=stats["n_excluded"],
            solver_iterations=rec["sol"].iterations))
    _fit_checks(report, cfg, records, "max ratio finite in every case")

    # shifting the datum by a constant tensor leaves both sides unchanged.
    # The shifted problem has the same discrete solution, so it starts from
    # the base one: two independent solves would differ by where each
    # stopped, not by the shift.
    M0 = min(cfg.grids)
    base = _Case(cfg, cfg.ps[0], 1).problem(M0)
    shifted = DirichletProblem(base.p, base.mesh, ElemField(
        base.F.tensors + np.ones_like(base.F.tensors[0])), base.g)
    r1 = _solved(base, 1e-9)
    r2 = _solved(shifted, 1e-9, start=r1["sol"].u)
    s1, s2 = (_sharp_ratio_stats(cfg, rec) for rec in (r1, r2))
    rel = abs(s2["max_ratio"] - s1["max_ratio"]) / max(s1["max_ratio"], 1e-300)
    report.check("ratio invariant under F -> F + const", "rel diff <= 1e-6",
                 rel <= 1e-6, value=rel)

    # joint scaling of F and g rescales both sides, leaving the ratio fixed
    lam = 3.7
    p = Exponent(cfg.ps[0])
    rng = _rng(cfg, 777)
    mesh = Mesh(cfg.bounds, M0)
    F, g, _ = cases.manufactured_problem_data(p, mesh, cfg.comps, rng)
    base = DirichletProblem(p, mesh, F, g)
    scaled = DirichletProblem(p, mesh, ElemField(lam * F.tensors),
                              lam ** (1.0 / (p.p - 1.0)) * g)
    out = [_sharp_ratio_stats(cfg, _solved(prob, 1e-9))["max_ratio"]
           for prob in (base, scaled)]
    rel = abs(out[1] - out[0]) / max(out[0], 1e-300)
    report.check("ratio invariant under joint data scaling", "rel diff <= 1e-6",
                 rel <= 1e-6, value=rel)
    return report


# --- decay of p-harmonic fields -------------------------------------------------


def _pair_sup(values):
    """Largest pairwise distance among row vectors, deterministically
    subsampled to at most about 400 rows.

    Squared distances add the components left to right, and the one square
    root is taken of their max: sqrt is monotone and correctly rounded.
    """
    if len(values) > 400:
        values = values[::len(values) // 400]
    first, *rest = values.T
    sq = np.subtract.outer(first, first) ** 2
    for column in rest:
        diff = np.subtract.outer(column, column)
        sq += diff * diff
    return float(np.sqrt(sq.max()))


def _decay_slopes(mesh, fields, center, R, thetas):
    """Per field, the log-log slope of the pairwise sup oscillation over
    the shrinking balls of radius at least 3 cell widths (None below two
    positive sups); one gather per center."""
    kept = [th for th in thetas if th * R >= 3.0 * mesh.h]
    rs = [th * R for th in kept]
    members = _ball_members(mesh, center, rs)
    _require_nonempty([idx.size for idx in members], center, rs)
    slopes = []
    for field in fields:
        flat = field.tensors.reshape(mesh.num_elements, -1)
        xs, ys = [], []
        for th, idx in zip(kept, members):
            sup = _pair_sup(np.take(flat, idx, axis=0))
            if sup > 0.0:
                xs.append(math.log(th))
                ys.append(math.log(sup))
        slopes.append(float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None)
    return slopes


def measure_alpha(cfg, p_value, M, seed_idx=0):
    """Median decay exponents (alpha, kappa) of a p-harmonic solve."""
    p = Exponent(p_value)
    mesh = Mesh(cfg.bounds, M)
    rng = _rng(cfg, 31, round(1000 * p_value), seed_idx)
    knots = cases.boundary_knots(rng, cfg.comps)
    g = cases.trace_from_knots(mesh, knots)
    F = ElemField.zeros(mesh, rows=cfg.comps)
    rec = _solved(DirichletProblem(p, mesh, F, g))       # p-harmonic
    V = ElemField(v_map(p, rec["grad"].tensors))
    x0, x1, y0, y1 = cfg.bounds
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    side = x1 - x0
    R = 0.42 * side
    offs = np.array([[0.0, 0.0], [0.05, 0.03], [-0.04, 0.05],
                     [0.03, -0.05], [-0.05, -0.03]]) * side
    thetas = [0.5 * 0.72 ** j for j in range(6)]
    alphas, kappas = [], []
    for off in offs:
        center = (cx + off[0], cy + off[1])
        if mesh.boundary_distance(center) <= R:
            continue
        sa, sk = _decay_slopes(mesh, (V, rec["A"]), center, R, thetas)
        if sa is not None:
            alphas.append(sa)          # sup |V dV| ~ theta^alpha
        if sk is not None:
            kappas.append(sk)
    if not alphas or not kappas:
        return None, None
    return float(np.median(alphas)), float(np.median(kappas))


def exp_decay(cfg: ExperimentConfig):
    """Decay exponents of p-harmonic fields plus the one-step oscillation bound.

    Fits alpha from the pairwise sup of the natural quantity V(grad v) over
    shrinking concentric balls and kappa from the flux A(grad v) likewise;
    affine data produce zero oscillation at every scale and are skipped.
    For data-driven solves the one-step inequality
    osc(A; theta B) <= delta osc(A; B) + c_delta osc_(p')(F; B) is fitted
    over a ball family for a grid of delta values.
    """
    report = Report("decay", cfg.echo())
    n_seeds = min(3, cfg.n_seeds)
    alpha_by = {}
    for p_value in cfg.ps:
        for M in cfg.grids:
            a_list, k_list = [], []
            for seed_idx in range(n_seeds):
                a, k = measure_alpha(cfg, p_value, M, seed_idx)
                if a is None:
                    continue      # oscillation vanished at every scale
                a_list.append(a)
                k_list.append(k)
            alpha = float(np.median(a_list)) if a_list else math.nan
            kappa = float(np.median(k_list)) if k_list else math.nan
            alpha_by[(p_value, M)] = alpha
            report.add_case(case=f"p{p_value}-M{M}", p=p_value, M=M, seed="pooled",
                            fitted_constant=alpha, alpha=alpha, kappa=kappa)
    finest = max(cfg.grids)
    ok_pos = all(alpha_by[(p, finest)] > 0.05 for p in cfg.ps)
    kap_pos = all(rec["kappa"] > 0.05 for rec in report.cases
                  if rec["M"] == finest)
    report.check("alpha > 0.05 at the finest grid", "> 0.05", ok_pos,
                 value={f"p={p}": round(alpha_by[(p, finest)], 3) for p in cfg.ps})
    report.check("kappa > 0.05 at the finest grid", "> 0.05", kap_pos)
    if 2.0 in cfg.ps:
        report.check("alpha at p = 2 >= 0.9 (near-linear decay of harmonic fields)",
                     ">= 0.9", alpha_by[(2.0, finest)] >= 0.9,
                     value=round(alpha_by[(2.0, finest)], 3))
    if len(cfg.grids) >= 2:
        coarse = sorted(cfg.grids)[-2]
        devs = {p: abs(alpha_by[(p, finest)] / alpha_by[(p, coarse)] - 1.0)
                for p in cfg.ps}
        report.check("alpha stable within 30% across refinement", "<= 0.30",
                     all(v <= 0.30 for v in devs.values()),
                     value={f"p={p}": round(v, 3) for p, v in devs.items()})

    # one-step decay with data: osc(A; theta B) vs osc(A; B) and osc(F; B)
    theta = cfg.radii_ratio
    for p_value in cfg.ps:
        case = _Case(cfg, p_value, 0)
        rec = case.on_grid(min(cfg.grids))
        mesh = rec["mesh"]
        p = rec["prob"].p
        qmin = min(p.pprime, 2.0)
        R_b = 0.2 * _side(cfg)
        pts = _probe_points(cfg, R_b, per_side=6)
        _, lhs = ball_oscillation(mesh, rec["A"], pts, theta * R_b, qmin)
        _, t1 = ball_oscillation(mesh, rec["A"], pts, R_b, qmin)
        _, t2 = ball_oscillation(mesh, rec["prob"].F, pts, R_b, p.pprime)
        kept = _kept(t2, rec["prob"].F)
        skipped = int(np.count_nonzero(~kept))
        fits = {}
        for d in (0.1, 0.25, 0.5):
            ratios = np.maximum(lhs[kept] - d * t1[kept], 0.0) / t2[kept]
            fits[d] = _largest(ratios)
        report.add_case(case=f"one-step-p{p_value}", p=p_value, M=min(cfg.grids),
                        seed=0, theta=theta,
                        fitted_constant=fits[0.5],
                        c_delta={str(d): fits[d] for d in fits},
                        n_skipped=skipped)
        report.check(f"one-step constant finite at p = {p_value}", "isfinite",
                     all(np.isfinite(v) for v in fits.values()),
                     value={str(d): round(v, 3) for d, v in fits.items()})
    return report


# --- weighted oscillation estimate ----------------------------------------------


def _local_radii(report, cfg, mesh, R):
    """Radii from r_min_cells * h up to just below R; on a mesh too coarse
    for any, a failed check naming M and None."""
    r_min = cfg.r_min_cells * mesh.h
    if r_min > R * (1.0 - 1e-9):
        report.check(f"radius set below R = {R:g} nonempty at M = "
                     f"{mesh.cells_per_side}", "r_min < R", False, value=r_min)
        return None
    return RadiiSet(r_min, R * (1.0 - 1e-9), cfg.radii_ratio)


def exp_oscillation_estimate(cfg: ExperimentConfig):
    """Localized weighted sharp-maximal comparison with a tail term.

    Uses the power modulus with exponent beta = 0.5 * min(1, 2 alpha / p')
    built from the measured decay exponent alpha; the left side is the
    weighted local sharp field of the flux, the right side combines the
    weighted sharp field of the datum and the mean oscillation of the flux
    over the doubled ball divided by omega(R).
    """
    report = Report("oscillation", cfg.echo())
    R = 0.15 * _side(cfg)
    M0 = min(cfg.grids)
    records = []
    base = None           # the swept (ps[0], seed 0) case on the M0 grid
    for p_value in cfg.ps:
        p = Exponent(p_value)
        alpha, _ = measure_alpha(cfg, p_value, max(cfg.grids))
        if alpha is None:
            report.check(f"decay exponent measurable at p = {p_value}, "
                         f"M = {max(cfg.grids)}", "not None", False)
            continue      # no modulus without an exponent
        beta = 0.5 * min(1.0, 2.0 * alpha / p.pprime)
        omega = power_modulus(beta)
        for case, M, rec in _sweep(cfg, [p_value], min(2, cfg.n_seeds)):
            if (p_value, case.seed_idx, M) == (cfg.ps[0], 0, M0):
                base = rec
            radii = _local_radii(report, cfg, rec["mesh"], R)
            if radii is None:
                continue
            lhs, rhs = _weighted_sides(cfg, rec, omega, R, radii, per_side=8)
            kept = _kept(rhs, rec["prob"].F)
            records.append(_add_row(report, case, M, beta=beta,
                                    fitted_constant=_largest(lhs[kept] / rhs[kept]),
                                    n_excluded=int(np.count_nonzero(~kept))))
    _fit_checks(report, cfg, records, "fitted constants finite")

    # constant weight reduces to the two-term mean-oscillation comparison
    if base is None:      # no decay exponent at ps[0] (or n_seeds = 0): not swept
        base = _Case(cfg, cfg.ps[0], 0).on_grid(M0)
    radii = _local_radii(report, cfg, base["mesh"], R)
    if radii is not None:
        lhs, rhs = _weighted_sides(cfg, base, constant_modulus(), R, radii, per_side=5)
        kept = _kept(rhs, base["prob"].F)
        worst = _largest(lhs[kept] / rhs[kept])
        report.check("constant-weight comparison finite", "isfinite",
                     np.isfinite(worst), value=round(worst, 3))
    return report


def _weighted_sides(cfg, rec, omega, R, radii, per_side):
    """At the probe points, the weighted local sharp field of the flux and
    the right side: that of the datum plus the flux's p'-oscillation over
    the doubled ball divided by omega(R); two (P,) arrays."""
    mesh, A, F = rec["mesh"], rec["A"], rec["prob"].F
    q = rec["prob"].p.pprime
    pts = _probe_points(cfg, 2.0 * R, per_side=per_side)
    lhs = weighted_local_sharp(mesh, A, 1.0, omega, R, radii, pts)
    rhs = weighted_local_sharp(mesh, F, q, omega, R, radii, pts)
    _, tail = ball_oscillation(mesh, A, pts, 2.0 * R, q)
    return lhs, rhs + tail / omega(R)


# --- pointwise potential bound ---------------------------------------------------


def exp_potential(cfg: ExperimentConfig):
    """Pointwise bound of |grad u|^(p-1) by the dyadic oscillation potential.

    At interior points the flux magnitude at the point's element is compared
    against the radial oscillation sum of F plus the ball mean of the flux
    magnitude; the constant is fitted and tracked under refinement.  The
    successive dyadic ball means of the flux are also checked against the
    exact nested-mean inequality, which makes them Cauchy whenever the
    potential is finite.
    """
    report = Report("potential", cfg.echo())
    R = cfg.r_max_frac * _side(cfg)
    records = []
    cauchy_violations = 0
    for case, M, rec in _sweep(cfg, cfg.ps, min(2, cfg.n_seeds)):
        mesh = rec["mesh"]
        params = PotentialParams(R=R, theta=cfg.radii_ratio, p=case.p)
        pts = _probe_points(cfg, R, per_side=8)
        lhs = rec["A"].norms()[mesh.locate_element(pts)]
        # the ball mean of |A| on B_R: the plain maximal over the one radius R
        rhs = (oscillation_potential(mesh, rec["prob"].F, pts, params)
               + plain_maximal(mesh, rec["A"], 1.0, RadiiSet(R, R), pts))
        kept = _kept(rhs, rec["prob"].F)
        cauchy_violations += _dyadic_mean_defects(mesh, rec["A"], pts, params)
        records.append(_add_row(report, case, M, fitted_constant=_largest(lhs[kept] / rhs[kept])))
    _fit_checks(report, cfg, records, "fitted constants finite")
    report.check("nested dyadic flux means obey the exact mean inequality",
                 "zero violations at 1e-12 slack", cauchy_violations == 0,
                 value=cauchy_violations)

    # a datum with a power modulus of continuity keeps the gradient bounded
    beta = 0.6
    maxes = {}
    for M in (min(cfg.grids), 2 * min(cfg.grids)):
        mesh = Mesh(cfg.bounds, M)
        interior = mesh.interior_points(4 * mesh.h)
        if len(interior) == 0:
            report.check(f"power-modulus probe points farther than 4h from the "
                         f"boundary exist at M = {M}", "nonempty", False)
            continue
        x0, x1, y0, y1 = cfg.bounds
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        b = mesh.barycenters
        rad = np.hypot(b[:, 0] - cx, b[:, 1] - cy) ** beta
        tensors = np.zeros((mesh.num_elements, cfg.comps, 2))
        tensors[:, 0, 0] = rad
        F = ElemField(tensors)
        prob = DirichletProblem(Exponent(cfg.ps[0]), mesh, F,
                                np.zeros((len(mesh.boundary_nodes), cfg.comps)))
        gn = _solved(prob)["grad"].norms()
        maxes[M] = float(gn[mesh.locate_element(interior)].max())
    if len(maxes) == 2:
        ms = sorted(maxes)
        ratio = maxes[ms[1]] / max(maxes[ms[0]], 1e-300)
        report.check("power-modulus datum keeps max |grad u| stable",
                     f"growth < {cfg.stability_factor}",
                     np.isfinite(ratio) and ratio < cfg.stability_factor,
                     value=round(ratio, 4))
    return report


def _dyadic_mean_defects(mesh, A, pts, params):
    """Violations of |mean_small - mean_big| <= (measure ratio) * osc_1(big)
    over the successive dyadic balls at the points of a (P, 2) array, with
    a relative and absolute slack of 1e-12.

    The bound is exact for nested discrete balls, so the dyadic means are
    Cauchy whenever the tail oscillations are summable.
    """
    counts, means, oscs = ball_stats(mesh, A, pts, params.radii(mesh), 1.0)
    # the balls of a point are nested, so a nonempty small one has a nonempty big one
    pair = counts[1:] > 0
    osc_big = oscs[:-1][pair]
    bound = (counts[:-1][pair] / counts[1:][pair]) * osc_big
    diff = np.sqrt(np.sum((means[1:][pair] - means[:-1][pair]) ** 2, axis=(1, 2)))
    return int(np.count_nonzero(
        diff > bound * (1.0 + 1e-12) + 1e-12 * np.maximum(osc_big, 1.0)))


# --- the sharp Dini counterexample ------------------------------------------------


def xi_profile(omega, r):
    """The primitive of omega(rho)/rho vanishing at 1: negative below, positive above.

    Below 1 this is -integral_r^1; the square mesh window also carries the
    corners with |x| > 1, where the natural extension +integral_1^r applies.
    r may be an array; a scalar gives a float.
    """
    r = np.asarray(r, dtype=float)
    out = np.sign(r - 1.0) * omega.integral_dr_over_r(np.minimum(r, 1.0),
                                                       np.maximum(r, 1.0))
    return float(out) if out.ndim == 0 else out


def _counterexample_fields(omega, mesh):
    """Nodal u = y * xi(|x|) and the matching divergence-form datum F."""
    xn, yn = mesh.nodes[:, 0], mesh.nodes[:, 1]
    xi_vals = xi_profile(omega, np.maximum(np.hypot(xn, yn), 1e-12))
    u = NodalField((yn * xi_vals)[:, None])
    b = mesh.barycenters
    xb, yb = b[:, 0], b[:, 1]
    rb = np.hypot(xb, yb)
    om = omega(rb)
    tensors = np.zeros((mesh.num_elements, 1, 2))
    tensors[:, 0, 0] = 2.0 * xb * yb / rb ** 2 * om
    tensors[:, 0, 1] = (yb ** 2 - xb ** 2) / rb ** 2 * om
    return u, ElemField(tensors)


def analytic_gradient(omega, points):
    """The closed-form gradient of y * xi(|x|) at given points."""
    x, y = points[:, 0], points[:, 1]
    r = np.hypot(x, y)
    om = omega(r)
    gx = x * y / r ** 2 * om
    gy = xi_profile(omega, r) + y ** 2 / r ** 2 * om
    return np.stack([gx, gy], axis=1)


def exp_example_5_5(cfg: ExperimentConfig):
    """The borderline datum whose gradient is unbounded yet has sharp growth.

    With omega(r) = 1/log(e^2/r) the potential u = y * xi(|x|) solves the
    linear divergence-form problem for the displayed F.  Checks: (a) the
    nodal weak defect away from the origin decays with measured order at
    least 0.8; (b) the largest discrete gradient on the ring at radius
    10^-k matches the closed-form |xi| within 10% for k = 1, 2, 3 on
    per-scale mesh windows; (c) the Hoelder seminorm of F against omega is
    finite and refinement-stable; (d) the Dini integral of omega diverges.
    """
    report = Report("example55", cfg.echo())
    omega = dini_log_modulus(scale=math.e ** 2, cert_r_max=1.0)

    # (a) weak defect of the linear problem away from the origin
    defects = []
    for M in (64, 128, 256):
        mesh = Mesh((-1.0, 1.0, -1.0, 1.0), M)
        u, F = _counterexample_fields(omega, mesh)
        prob = DirichletProblem(Exponent(2.0), mesh, F,
                                u.values[mesh.boundary_nodes])
        vec = defect_vector(prob, u)
        dist = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        keep = np.zeros(mesh.num_nodes, dtype=bool)
        keep[mesh.interior_nodes] = True
        keep &= dist > 0.1 + 1.5 * mesh.h
        fnorm1 = integrate(mesh, F.norms())
        defects.append(float(np.abs(vec[keep]).max() / (1.0 + fnorm1)))
    hs = [2.0 / M for M in (64, 128, 256)]
    order = float(np.polyfit(np.log(hs), np.log(defects), 1)[0])
    report.add_case(case="defect-order", p=2.0, M=256, seed=0,
                    fitted_constant=order, defects=defects)
    report.check("weak defect decays with order >= 0.8", ">= 0.8",
                 order >= 0.8, value=round(order, 3))

    # (b) ring maximum of the discrete gradient vs the closed-form profile
    ring_ok = True
    for k in (1, 2, 3):
        r = 10.0 ** (-k)
        half = 4.0 * r
        mesh = Mesh((-half, half, -half, half), 256)
        u, _ = _counterexample_fields(omega, mesh)
        gn = gradient(mesh, u).norms()
        rb = np.hypot(mesh.barycenters[:, 0], mesh.barycenters[:, 1])
        ring = (rb >= r) & (rb < r + 3.0 * mesh.h)
        measured = float(gn[ring].max())
        target = abs(xi_profile(omega, r))
        rel = abs(measured - target) / target
        ring_ok &= rel <= 0.10
        report.add_case(case=f"ring-k{k}", p=2.0, M=256, seed=0,
                        fitted_constant=measured, target=target,
                        rel_err=rel, **{"pass": rel <= 0.10})
    report.check("ring max of |grad u| tracks |xi(r)|", "within 10%", ring_ok)

    # (c) the datum's modulus-of-continuity seminorm is finite and stable
    hvals = {}
    for M in (48, 96):
        mesh = Mesh((-1.0, 1.0, -1.0, 1.0), M)
        _, F = _counterexample_fields(omega, mesh)
        hvals[M] = holder_seminorm(mesh, F, omega)
    growth = hvals[96] / hvals[48]
    report.add_case(case="holder-F", p=2.0, M=96, seed=0,
                    fitted_constant=hvals[96], stability_factor=growth)
    report.check("Hoelder seminorm of F finite and refinement-stable",
                 f"growth < {cfg.stability_factor}",
                 np.isfinite(hvals[96]) and growth < cfg.stability_factor,
                 value=round(growth, 4))

    # (d) the modulus genuinely fails the Dini condition
    report.check("Dini divergence of the modulus detected", "divergent",
                 not omega.dini_finite)
    return report


# --- norm reduction ---------------------------------------------------------------


def exp_reduction(cfg: ExperimentConfig):
    """Size-norm transfer from the datum to the flux, pair by pair.

    Tabulates the centered flux magnitude |A(grad u) - mean| against the
    centered datum |F - mean| in matched Lebesgue, Lorentz, and Orlicz
    norms (the Orlicz target built by the transform pipeline), fits the
    constant per pair, and asserts refinement stability.  The
    one-dimensional averaged- and tail-Hardy hypotheses are checked
    independently on a random step-function family.
    """
    report = Report("reduction", cfg.echo())
    M0 = min(cfg.grids)
    phi = young_from_spec(*cfg.young_spec)
    thetas = {}           # per p the reparametrized Orlicz target, or None
    hyp_violations = []
    for p_value in cfg.ps:
        p = Exponent(p_value)
        try:
            thetas[p_value] = orlicz_target(phi, p).reparam_power(1.0 / (p.p - 1.0))
        except HypothesisViolation as exc:
            hyp_violations.append({"p": p_value, "reason": str(exc),
                                   "measured": exc.measured})
            thetas[p_value] = None
    records = []
    base = None           # the swept (ps[-1], seed 0) case on the M0 grid
    for case, M, rec in _sweep(cfg, cfg.ps, min(2, cfg.n_seeds)):
        p_value, mesh = case.p.p, rec["mesh"]
        if (p_value, case.seed_idx, M) == (cfg.ps[-1], 0, M0):
            base = rec
        q_leb = 2.0 * case.p.pprime
        theta = thetas[p_value]
        sfA = rearrange(mesh, _centered_norms(rec["A"]))
        sfF = rearrange(mesh, _centered_norms(rec["prob"].F))
        rF = lq_norm(sfF, q_leb)
        pairs = {"lebesgue": lq_norm(sfA, q_leb) / max(rF, 1e-300)}
        rFl = lorentz_norm(sfF, q_leb, cfg.lorentz_r)
        pairs["lorentz"] = (lorentz_norm(sfA, q_leb, cfg.lorentz_r)
                            / max(rFl, 1e-300))
        if theta is not None:
            rFo = luxemburg_norm(sfF, phi)
            pairs["orlicz"] = luxemburg_norm(sfA, theta) / max(rFo, 1e-300)
            pairs["modular_C"] = _modular_constant(theta, phi, sfA, sfF)
        records.append(_add_row(report, case, M, fitted_constant=pairs["lebesgue"],
                                **pairs))
    _fit_checks(report, cfg, records, "norm-pair constants finite")

    # exponential-type and capped sources at a fixed p
    if base is None:      # n_seeds = 0: nothing was swept
        base = _Case(cfg, cfg.ps[-1], 0).on_grid(M0)
    p = base["prob"].p
    sfA = rearrange(base["mesh"], _centered_norms(base["A"]))
    sfF = rearrange(base["mesh"], _centered_norms(base["prob"].F))
    extremes = {}
    for name, src in (("exp-source", ExpYoung(1.0, 2.0 * p.pprime)),
                      ("capped-source", CapYoung(2.0 * p.pprime))):
        try:
            tgt = orlicz_target(src, p).reparam_power(1.0 / (p.p - 1.0))
            extremes[name] = luxemburg_norm(sfA, tgt) / max(
                luxemburg_norm(sfF, src), 1e-300)
        except HypothesisViolation as exc:
            hyp_violations.append({"p": p.p, "source": name,
                                   "reason": str(exc), "measured": exc.measured})
    report.check("exponential and capped source pairs finite", "isfinite",
                 all(np.isfinite(v) for v in extremes.values()),
                 value={k: round(v, 3) for k, v in extremes.items()})
    if hyp_violations:
        report.add_case(case="hypothesis-violations", p=0, M=0, seed=0,
                        fitted_constant=math.nan, details=hyp_violations)

    # independent one-dimensional hypotheses on a random step family
    rng = _rng(cfg, 99)
    family = [StepFunction.from_samples(rng.uniform(0.0, 3.0, 12),
                                        rng.uniform(0.01, 0.2, 12))
              for _ in range(50)]
    for p_value in cfg.ps:
        p = Exponent(p_value)
        spec = LorentzSpec(2.0 * p.pprime, cfg.lorentz_r)
        avg_ratios = hardy_check_avg(spec, p, family)
        tail_ratios = hardy_check_tail(spec, spec, family)
        report.add_case(case=f"hardy-p{p_value}", p=p_value, M=0, seed=0,
                        fitted_constant=max(avg_ratios),
                        avg_max=max(avg_ratios), tail_max=max(tail_ratios))
        report.check(f"Hardy hypotheses bounded at p = {p_value}", "isfinite",
                     np.isfinite(max(avg_ratios)) and np.isfinite(max(tail_ratios)),
                     value={"avg": round(max(avg_ratios), 3),
                            "tail": round(max(tail_ratios), 3)})
    return report


def _centered_norms(field: ElemField):
    """Per-element norms |f - mean f|."""
    return ElemField(field.tensors - field.tensors.mean(axis=0)).norms()


def _modular_constant(theta, phi, sfA, sfF):
    """Smallest C with sum area * theta(A~) <= sum area * phi(C * F~), by
    the Luxemburg search on lhs / rhs(C), which falls as C grows."""
    lhs = float(np.sum(sfA.measures * theta(sfA.values)))
    if lhs == 0.0:
        return 0.0

    def ratio(c):
        rhs = np.sum(sfF.measures * np.minimum(phi(c[0] * sfF.values), 1e300))
        return np.array([lhs / rhs])

    with np.errstate(divide="ignore"):
        return float(_luxemburg_search(ratio, [1.0])[0])


# --- norm tables -------------------------------------------------------------------


def norm_table(mesh, field: ElemField, cfg: ExperimentConfig):
    """All implemented norms and seminorms of a field as (name, value) rows."""
    omega = modulus_from_spec(*cfg.modulus_spec)
    phi = young_from_spec(*cfg.young_spec)
    norms = field.norms()
    sf = rearrange(mesh, norms)
    rows = []
    for q in (1.0, 2.0, 4.0):
        rows.append((f"L^{q:g}", lq_norm(sf, q)))
    rows.append((f"Lorentz({2.0:g},{cfg.lorentz_r:g})",
                 lorentz_norm(sf, 2.0, cfg.lorentz_r)))
    rows.append(("Luxemburg", luxemburg_norm(sf, phi)))
    rows.append(("Marcinkiewicz[s]", marcinkiewicz_norm(sf, lambda s: s)))
    sups = inscribed_sups(mesh, field)
    rows.append(("BMO", sups.campanato(constant_modulus())))
    rows.append(("Campanato", sups.campanato(omega)))
    rows.append(("Hoelder", holder_seminorm(mesh, field, omega)))
    profile = sups.vmo_profile()
    for r, v in zip(profile.radii, profile.values):
        rows.append((f"VMO[{r:g}]", v))
    return rows


EXPERIMENTS = {
    "basic-estimate": exp_basic_estimate,
    "decay": exp_decay,
    "oscillation": exp_oscillation_estimate,
    "potential": exp_potential,
    "example55": exp_example_5_5,
    "reduction": exp_reduction,
}
