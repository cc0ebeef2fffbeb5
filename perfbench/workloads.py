"""The three benchmark workloads: battery, solve and ballstats.

Each workload builds its inputs from the seed in `setup`, does one timed
pass in `run`, and checks a pass's outputs in `check` outside the timed
region.  `check` returns (attempted, failed): an operation is one solve, one
report assertion, one fitted constant, or one checked ball or norm value.
Only the public API of plaplab is called.
"""

import hashlib
import os

import numpy as np

# Call through the modules, not by-name imports, so the tracer's patched
# bindings are the ones the benchmark calls.
from plaplab import grid, maximal, oscillation, rearrange, solver
from plaplab.fluxmaps import Exponent, a_map
from plaplab.lab import cases, experiments
from plaplab.lab.config import ExperimentConfig

from spans import EXPERIMENT_NAMES, REPORT_SPAN

# Sizes per --size.  "bench" is what BENCHMARK.json runs; "smoke" is for the
# benchmark's own test; "full" runs the battery at the default
# ExperimentConfig (ROADMAP's end-to-end definition, about 100 s a pass).
# The bench battery keeps the default's five seeds on one grid of 24 cells:
# 90 solves of 44 distinct problems, a repeated share close to the
# default's 132 of 68.  Two grids this coarse fail the decay experiment's
# refinement-stability assertion at some seeds (20 and 24 cells at seed 29).
BENCH = {"battery": {"grids": [24], "n_seeds": 5}, "solve_grids": (64, 128),
         "ball_grid": 256, "table_grid": 64, "lattice": (10, 8)}
SIZES = {
    "bench": BENCH,
    "full": dict(BENCH, battery={}),
    "smoke": {"battery": {"grids": [24], "n_seeds": 1, "ps": [2.0]},
              "solve_grids": (8, 16), "ball_grid": 32, "table_grid": 16,
              "lattice": (3, 2)},
}
PS = (1.5, 2.0, 3.0)
SOLVER_TOL = 1e-8
REL_TOL = 1e-9            # batched and per-point ball values vs direct
TABLE_OFFSET = 1e5        # constant tensor added to the second norm table


def _lattice(margin, per_side):
    """Points on a per_side x per_side lattice inside the unit square."""
    xs = np.linspace(margin * 1.02, 1.0 - margin * 1.02, per_side)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()])


def _direct_family(mesh, field, centers, radii, q, chunk=64):
    """Reference q-mean oscillation of every (radius, center) ball, shaped
    like ball_family_oscillations' output; empty balls are nan.

    Centers go in chunks with one dense mask per radius, like the batched
    path, but each deviation is taken from the ball mean directly and never
    expanded.  The field is first centred on its global mean so the ball
    sums do not cancel.
    """
    flat = field.tensors.reshape(mesh.num_elements, -1)
    flat = flat - flat.mean(axis=0)
    centers = np.asarray(centers, dtype=float)
    out = np.full((len(radii), len(centers)), np.nan)
    for start in range(0, len(centers), chunk):
        cs = centers[start:start + chunk]
        dist_sq = np.sum((cs[:, None, :] - mesh.barycenters[None, :, :]) ** 2, axis=2)
        for k, r in enumerate(radii):
            mask = dist_sq < r * r
            cnt = np.maximum(mask.sum(axis=1), 1)
            means = (mask.astype(float) @ flat) / cnt[:, None]
            dev = np.sqrt(np.sum((flat[None, :, :] - means[:, None, :]) ** 2, axis=2))
            mean_q = np.sum(np.where(mask, dev ** q, 0.0), axis=1) / cnt
            out[k, start:start + chunk] = np.where(mask.any(axis=1),
                                                   mean_q ** (1.0 / q), np.nan)
    return out


def _rel_errs(values, ref):
    """Relative errors where the reference is defined."""
    values, ref = np.asarray(values, dtype=float), np.asarray(ref, dtype=float)
    ok = np.isfinite(ref)
    return np.abs(values[ok] - ref[ok]) / np.maximum(np.abs(ref[ok]), 1e-300)


def _family_errs(inp, path, every):
    """Batched ball family of a norm table against direct values, at every
    `every`-th center."""
    mesh = inp["table_mesh"]
    centers, radii = oscillation.default_ball_family(mesh)
    field = grid.read_elem_field(path)
    oscs, _ = oscillation.ball_family_oscillations(mesh, field, centers, radii, 1.0)
    picks = slice(None, None, every)
    return _rel_errs(oscs[:, picks],
                     _direct_family(mesh, field, centers[picks], radii, 1.0))


def _finite_count(values):
    values = np.asarray(values, dtype=float).ravel()
    return values.size, int(np.count_nonzero(~np.isfinite(values)))


# --- battery -------------------------------------------------------------------


class Battery:
    """The six EXPERIMENTS in registry order, writing JSON and CSV reports."""

    def __init__(self, size, workdir):
        self.size = size
        self.workdir = workdir

    def setup(self, seed):
        cfg = ExperimentConfig(seed=seed, **SIZES[self.size]["battery"])
        os.makedirs(self.workdir, exist_ok=True)
        return cfg

    def run(self, cfg, span):
        reports = []
        for name in EXPERIMENT_NAMES:
            with span(f"lab.exp.{name}"):
                report = experiments.EXPERIMENTS[name](cfg)
            with span(REPORT_SPAN):
                report.write_json(os.path.join(self.workdir, f"{name}.json"))
                report.write_csv(os.path.join(self.workdir, f"{name}.csv"))
            reports.append(report)
        return reports

    def check(self, cfg, reports):
        attempted = failed = 0
        for report in reports:
            for assertion in report.assertions:
                attempted += 1
                failed += not assertion.passed
            n, bad = _finite_count([c["fitted_constant"] for c in report.cases])
            attempted += n
            failed += bad
        return attempted, failed

    def digests(self):
        out = {}
        for name in EXPERIMENT_NAMES:
            for ext in ("json", "csv"):
                with open(os.path.join(self.workdir, f"{name}.{ext}"), "rb") as fh:
                    out[f"{name}.{ext}"] = hashlib.sha256(fh.read()).hexdigest()
        return out


# --- solve ---------------------------------------------------------------------


class Solve:
    """18 distinct Dirichlet problems, each solved once per pass.

    p in {1.5, 2, 3} x {flux-manufactured, random smooth F with g = 0} x two
    grids, plus the p-harmonic extension of a rough trace at each p and grid.
    """

    def __init__(self, size, workdir):
        self.size = size

    def setup(self, seed):
        problems = []
        for M in SIZES[self.size]["solve_grids"]:
            mesh = grid.Mesh((0.0, 1.0, 0.0, 1.0), M)
            for p_value in PS:
                p = Exponent(p_value)
                rng = np.random.default_rng([seed, round(1000 * p_value), M])
                F, g, _ = cases.manufactured_problem_data(p, mesh, 1, rng)
                problems.append(("amap", solver.DirichletProblem(p, mesh, F, g)))
                F = cases.random_smooth_field(mesh, 1, rng)
                zero = np.zeros((len(mesh.boundary_nodes), 1))
                problems.append(("trig", solver.DirichletProblem(p, mesh, F, zero)))
                trace = cases.rough_boundary_trace(mesh, 1, rng)
                problems.append(("pharmonic", solver.DirichletProblem(
                    p, mesh, grid.ElemField.zeros(mesh), trace)))
        return problems

    def run(self, problems, span):
        cfg = solver.SolverConfig(tol_residual=SOLVER_TOL, max_iter=400)
        out = []
        for kind, prob in problems:
            try:
                if kind == "pharmonic":
                    out.append(solver.solve_pharmonic(prob.mesh, prob.p, prob.g, cfg))
                else:
                    out.append(solver.solve(prob, cfg))
            except solver.NonConvergenceError:
                out.append(None)
        return out

    def check(self, problems, solutions):
        failed = 0
        for (_, prob), sol in zip(problems, solutions):
            if sol is None:
                failed += 2
                continue
            failed += not solver.residual(prob, sol.u) <= SOLVER_TOL
            failed += not bool(np.all(np.diff(sol.energy_trace) <= 0.0))
        return 2 * len(problems), failed


# --- ballstats -----------------------------------------------------------------


class BallStats:
    """Ball statistics on fixed fields; no solves.

    Per-point queries (sharp maximal, weighted local sharp with its tail
    ball, oscillation potential) on four fine fields, the batched ball
    family through two norm tables read from disk, and the one-dimensional
    Hardy and Orlicz pipeline.
    """

    def __init__(self, size, workdir):
        self.size = size
        self.workdir = workdir

    def setup(self, seed):
        sz = SIZES[self.size]
        mesh = grid.Mesh((0.0, 1.0, 0.0, 1.0), sz["ball_grid"])
        fields = []
        for p_value in (1.5, 3.0):
            p = Exponent(p_value)
            rng = np.random.default_rng([seed, round(1000 * p_value), sz["ball_grid"]])
            w = cases.random_smooth_potential(mesh, 1, rng)
            fields.append((p, min(p.pprime, 2.0),
                           grid.ElemField(a_map(p, grid.gradient(mesh, w).tensors))))
            fields.append((p, p.pprime, cases.random_smooth_field(mesh, 1, rng)))
        sharp_pts, small_pts = sz["lattice"]
        r_max, R = 0.25, 0.15
        queries = {
            "sharp_pts": _lattice(r_max, sharp_pts),
            "sharp_radii": maximal.RadiiSet(2.0 * mesh.h, r_max, 0.5),
            "local_pts": _lattice(2.0 * R, small_pts),
            "local_R": R,
            "local_radii": maximal.RadiiSet(2.0 * mesh.h, R * (1.0 - 1e-9), 0.5),
            "omega": oscillation.power_modulus(0.5),
            "potential_pts": _lattice(r_max, small_pts),
            "potential_R": r_max,
        }

        table_mesh = grid.Mesh((0.0, 1.0, 0.0, 1.0), sz["table_grid"])
        rng = np.random.default_rng([seed, 64, sz["table_grid"]])
        w = cases.random_smooth_potential(table_mesh, 1, rng)
        base = grid.ElemField(a_map(Exponent(1.5), grid.gradient(table_mesh, w).tensors))
        os.makedirs(self.workdir, exist_ok=True)
        tables = []
        for offset in (0.0, TABLE_OFFSET):
            path = os.path.join(self.workdir, f"table-{offset:g}.csv")
            grid.write_elem_field(path, grid.ElemField(base.tensors + offset))
            tables.append(path)

        rng = np.random.default_rng([seed, 99])
        family = [rearrange.StepFunction.from_samples(rng.uniform(0.0, 3.0, 12),
                                                      rng.uniform(0.01, 0.2, 12))
                  for _ in range(50)]
        return {"mesh": mesh, "fields": fields, "queries": queries,
                "table_mesh": table_mesh, "tables": tables, "family": family,
                "cfg": ExperimentConfig()}

    def run(self, inp, span):
        mesh, qs = inp["mesh"], inp["queries"]
        out = {"sharp": [], "local": [], "potential": [], "tables": [], "hardy": []}
        for p, q, f in inp["fields"]:
            out["sharp"].append([
                maximal.sharp_maximal(mesh, f, q, qs["sharp_radii"], x)
                for x in qs["sharp_pts"]])
            R = qs["local_R"]
            local = []
            for x in qs["local_pts"]:
                lhs = maximal.weighted_local_sharp(mesh, f, q, qs["omega"], R,
                                                   qs["local_radii"], x)
                _, tail = grid.ball_oscillation(mesh, f, x, 2.0 * R, q)
                local.append((lhs, tail))
            out["local"].append(local)
            params = oscillation.PotentialParams(R=qs["potential_R"], theta=0.5, p=p)
            out["potential"].append([
                oscillation.oscillation_potential(mesh, f, x, params)
                for x in qs["potential_pts"]])
        for path in inp["tables"]:
            field = grid.read_elem_field(path)
            out["tables"].append(
                experiments.norm_table(inp["table_mesh"], field, inp["cfg"]))
        for p_value in PS:
            p = Exponent(p_value)
            spec = rearrange.LorentzSpec(2.0 * p.pprime, 1.0)
            target = rearrange.orlicz_target(rearrange.PowerYoung(4.0), p)
            out["hardy"].append((rearrange.hardy_check_avg(spec, p, inp["family"]),
                                 rearrange.hardy_check_tail(spec, spec, inp["family"]),
                                 target(np.array([0.5, 1.0, 2.0]))))
        return out

    def check(self, inp, out):
        attempted = failed = 0
        for values in ([out["sharp"], out["local"], out["potential"]]
                       + [[v for _, v in rows] for rows in out["tables"]]
                       + [list(h) for h in out["hardy"]]):
            for part in values:
                n, bad = _finite_count(part)
                attempted += n
                failed += bad
        # per-point path: the sharp maximal at a fixed subsample of points
        mesh, qs = inp["mesh"], inp["queries"]
        picks = range(0, len(qs["sharp_pts"]), 25)
        radii = qs["sharp_radii"].values()
        for (_, q, f), values in zip(inp["fields"], out["sharp"]):
            ref = _direct_family(mesh, f, qs["sharp_pts"][picks], radii, q)
            errs = _rel_errs([values[k] for k in picks], np.nanmax(ref, axis=0))
            attempted += len(picks)
            failed += len(picks) - int(np.count_nonzero(errs <= REL_TOL))
        return attempted, failed

    def check_batched(self, inp):
        """Every radius of the unshifted table's batched family at sixteen
        evenly spaced centers, recomputed directly: (attempted, failed)."""
        n_centers = len(oscillation.default_ball_family(inp["table_mesh"])[0])
        errs = _family_errs(inp, inp["tables"][0], max(1, n_centers // 16))
        return errs.size, int(np.count_nonzero(~(errs <= REL_TOL)))

    def offset_defect(self, inp):
        """The whole batched family of the table shifted by TABLE_OFFSET
        against direct values.  The batched path expands |f - m|^2 and
        cancels catastrophically there: a known defect, measured rather
        than counted as a failure."""
        errs = _family_errs(inp, inp["tables"][1], 1)
        return {"max_rel_err": float(errs.max()), "balls_checked": int(errs.size),
                "balls_over_tol": int(np.count_nonzero(~(errs <= REL_TOL)))}


WORKLOADS = {"battery": Battery, "solve": Solve, "ballstats": BallStats}
