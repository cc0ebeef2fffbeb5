"""Discrete p-Laplace systems in divergence form on P1 meshes.

The Dirichlet problem -div(|grad u|^(p-2) grad u) = -div F with u = g on the
boundary is solved by a damped Kacanov (frozen-coefficient) iteration: each
step freezes the diffusion coefficient at (eps^2 + |grad u|^2)^((p-2)/2),
solves the resulting SPD linear system for all components at once by one
banded Cholesky factorization (LAPACK dpbsv; interior nodes in their natural
order give half-bandwidth M - 1), and accepts the step only if the
regularized energy does not increase (halving towards the previous iterate
otherwise; once the decrease is below the energy's roundoff, the step length
comes from the energy's slope instead).  The iteration starts from the p = 2
solution and stops on the weak-form residual, not on energy stagnation.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .fluxmaps import Exponent, a_map
from .grid import ElemField, Mesh, NodalField, gradient, integrate

__all__ = [
    "DirichletProblem",
    "SolverConfig",
    "Solution",
    "NonConvergenceError",
    "energy",
    "regularized_energy",
    "defect_vector",
    "residual",
    "solve",
    "solve_pharmonic",
    "load_problem",
]


class NonConvergenceError(RuntimeError):
    def __init__(self, message, energy_trace, last_residual):
        super().__init__(message)
        self.energy_trace = energy_trace
        self.last_residual = last_residual


@dataclass
class SolverConfig:
    tol_residual: float = 1e-9
    max_iter: int = 200
    coeff_clamp: tuple = (1e-10, 1e10)  # relative to data_scale^(p-2)

    def __post_init__(self):
        if self.coeff_clamp[0] > self.coeff_clamp[1]:
            raise ValueError("coefficient clamp interval is empty")
        if self.tol_residual <= 0.0:
            raise ValueError("tol_residual must be positive")


@dataclass
class DirichletProblem:
    p: Exponent
    mesh: Mesh
    F: ElemField
    g: np.ndarray               # boundary values, (num boundary nodes, N)

    def __post_init__(self):
        self.g = np.atleast_2d(np.asarray(self.g, dtype=float))
        if self.F.tensors.shape[0] != self.mesh.num_elements:
            raise ValueError("F does not match the mesh")
        if self.g.shape != (len(self.mesh.boundary_nodes), self.F.rows):
            raise ValueError("boundary data must be (num boundary nodes, N)")
        if not np.all(np.isfinite(self.g)):
            raise ValueError("boundary data must be finite")

    @property
    def components(self):
        return self.F.rows

    def data_scale(self):
        """max(max|F|^(1/(p-1)), osc(g)/diam); 0 only for trivial problems."""
        fmax = float(self.F.norms().max(initial=0.0))
        scale_f = fmax ** (1.0 / (self.p.p - 1.0)) if fmax > 0 else 0.0
        spread = self.g.max(axis=0) - self.g.min(axis=0)
        osc_g = float(np.sqrt(np.sum(spread ** 2)))
        x0, x1, y0, y1 = self.mesh.bounds
        diam = float(np.hypot(x1 - x0, y1 - y0))
        return max(scale_f, osc_g / diam)


@dataclass
class Solution:
    u: NodalField
    iterations: int
    energy_trace: list
    residual: float


def energy(prob: DirichletProblem, u: NodalField):
    """Energy integral (1/p)|grad u|^p - F . grad u, exact per element."""
    g = gradient(prob.mesh, u).tensors
    gn = np.sqrt(np.sum(g ** 2, axis=(1, 2)))
    dens = gn ** prob.p.p / prob.p.p - np.sum(prob.F.tensors * g, axis=(1, 2))
    return integrate(prob.mesh, dens)


def regularized_energy(prob: DirichletProblem, u: NodalField, eps):
    g = gradient(prob.mesh, u).tensors
    gsq = np.sum(g ** 2, axis=(1, 2))
    dens = (eps * eps + gsq) ** (prob.p.p / 2.0) / prob.p.p \
        - np.sum(prob.F.tensors * g, axis=(1, 2))
    return integrate(prob.mesh, dens)


def _energy_slope(prob, values, direction, eps):
    """Derivative of the regularized energy at values along direction."""
    g = gradient(prob.mesh, NodalField(values)).tensors
    gd = gradient(prob.mesh, NodalField(direction)).tensors
    gsq = np.sum(g ** 2, axis=(1, 2))
    flux = ((eps * eps + gsq) ** ((prob.p.p - 2.0) / 2.0))[:, None, None] * g \
        - prob.F.tensors
    return integrate(prob.mesh, np.sum(flux * gd, axis=(1, 2)))


def _scatter(mesh, contrib):
    """Sum per-element, per-vertex rows (E, 3, N) into nodal rows."""
    nodes = mesh.elements.ravel()
    return np.column_stack([
        np.bincount(nodes, weights=contrib[:, :, c].ravel(), minlength=mesh.num_nodes)
        for c in range(contrib.shape[2])])


def _flux_load(mesh, tensors):
    """Per-element, per-vertex integrals of tensors . grad(hat), (E, 3, N)."""
    return np.einsum("e,enk,eik->ein", mesh.areas, tensors, mesh.basis_gradients)


def defect_vector(prob: DirichletProblem, u: NodalField):
    """Weak-form defect of A(grad u) - F against every nodal hat direction."""
    mesh = prob.mesh
    grad = gradient(mesh, u).tensors
    return _scatter(mesh, _flux_load(mesh, a_map(prob.p, grad) - prob.F.tensors))


def residual(prob: DirichletProblem, u: NodalField):
    """Normalized sup of the weak-form defect over interior hat directions."""
    mesh = prob.mesh
    fnorm1 = integrate(mesh, prob.F.norms())
    defect = np.abs(defect_vector(prob, u)[mesh.interior_nodes])
    if defect.size == 0:
        return 0.0
    return float(defect.max() / (1.0 + fnorm1))


class _BandSystem:
    """Frozen-coefficient systems of one problem in LAPACK lower band storage.

    Solves -div(kappa grad u) = -div F with u = g on the boundary, for
    per-element kappa > 0.  What does not depend on kappa is built once: the
    interior node numbering; for every nonzero lower entry of an element
    matrix between two interior nodes, its element, its unit weight
    area * grad(hat_i) . grad(hat_j) and its slot in band storage; and the
    gradient of g extended by zero, whose flux lifts g into the right-hand
    side.  The band width is read off the entries kept: interior nodes in
    natural order couple at offsets 1 and M - 1 only, since the hypotenuse
    entries of these right triangles are exactly zero.
    """

    def __init__(self, prob):
        mesh = prob.mesh
        self.prob = prob
        self.interior = mesh.interior_nodes
        n = len(self.interior)
        number = np.full(mesh.num_nodes, -1)
        number[self.interior] = np.arange(n)
        local = number[mesh.elements]                 # (E, 3), -1 on the boundary
        gl = mesh.basis_gradients

        def entries():
            # per vertex pair: element, unit weight, row and column (row >= col)
            for a in range(3):
                for b in range(a + 1):
                    unit = mesh.areas * np.sum(gl[:, a] * gl[:, b], axis=1)
                    row = np.maximum(local[:, a], local[:, b])
                    col = np.minimum(local[:, a], local[:, b])
                    elem = np.flatnonzero((col >= 0) & (unit != 0.0))
                    yield elem, unit[elem], row[elem], col[elem]

        self.width = 1 + max(int((row - col).max(initial=0)) for _, _, row, col in entries())
        # the smallest unsigned types that hold every index keep the peak low
        elem_type = np.min_scalar_type(mesh.num_elements)
        slot_type = np.min_scalar_type(self.width * n)
        elem, weight, slot = zip(*[
            (elem.astype(elem_type), unit, (col * self.width + row - col).astype(slot_type))
            for elem, unit, row, col in entries()])
        self.elem, self.weight, self.slot = map(np.concatenate, (elem, weight, slot))
        self.g_full = np.zeros((mesh.num_nodes, prob.components))
        self.g_full[mesh.boundary_nodes] = prob.g
        self.grad_g = gradient(mesh, NodalField(self.g_full)).tensors

    def band(self, kappa):
        """Interior stiffness matrix, ab[i - j, j] = K[i, j] for i >= j.

        Fortran order, so that LAPACK factors it in place without a copy.
        """
        n = len(self.interior)
        weights = kappa[self.elem]
        weights *= self.weight
        return np.bincount(self.slot, weights=weights,
                           minlength=self.width * n).reshape(n, self.width).T

    def solve(self, kappa):
        """Nodal values of the solution; LinAlgError if the solve fails."""
        mesh = self.prob.mesh
        flux = self.prob.F.tensors - kappa[:, None, None] * self.grad_g
        rhs = _scatter(mesh, _flux_load(mesh, flux))[self.interior]
        x = solveh_banded(self.band(kappa), rhs, lower=True, overwrite_ab=True,
                          overwrite_b=True, check_finite=False)
        if not np.all(np.isfinite(x)):
            raise LinAlgError("non-finite solution")
        values = self.g_full.copy()
        values[self.interior] = x
        return values


def solve(prob: DirichletProblem, cfg: Optional[SolverConfig] = None,
          u0: Optional[NodalField] = None):
    """Damped Kacanov solve of the discrete Dirichlet problem.

    Parameters
    ----------
    prob : DirichletProblem
    cfg : SolverConfig, optional
    u0 : NodalField, optional
        Custom initial iterate (boundary rows are overwritten by g).
        Default is the p = 2 solution of the same problem.

    Returns
    -------
    Solution with the accepted iterate, the regularized-energy trace
    (nonincreasing by construction) and the final residual.
    """
    cfg = cfg or SolverConfig()
    mesh = prob.mesh
    p = prob.p.p
    scale = prob.data_scale()

    if scale == 0.0:
        # F = 0 and constant boundary data: the constant extension solves it
        values = np.zeros((mesh.num_nodes, prob.components))
        const = prob.g[0] if len(prob.g) else 0.0
        values[:] = const
        u = NodalField(values)
        return Solution(u, 0, [0.0], residual(prob, u))

    eps = 1e-8 * scale
    eps_min = 1e-14 * scale
    kmin = cfg.coeff_clamp[0] * scale ** (p - 2.0)
    kmax = cfg.coeff_clamp[1] * scale ** (p - 2.0)

    def kappa_of(u, eps):
        g = gradient(mesh, u).tensors
        gsq = np.sum(g ** 2, axis=(1, 2))
        return np.clip((eps * eps + gsq) ** ((p - 2.0) / 2.0), kmin, kmax)

    system = _BandSystem(prob)
    trace, res = [], np.nan

    def linear_step(kappa, it):
        try:
            return NodalField(system.solve(kappa))
        except LinAlgError as err:
            raise NonConvergenceError(
                f"frozen-coefficient solve failed at outer iteration {it} "
                f"(eps {eps:.3e}): {err}", trace, res) from err

    if u0 is None:
        u = linear_step(np.ones(mesh.num_elements), 0)
    else:
        values = u0.values.copy()
        values[mesh.boundary_nodes] = prob.g
        u = NodalField(values)

    trace.append(regularized_energy(prob, u, eps))
    res = residual(prob, u)
    if res <= cfg.tol_residual:
        return Solution(u, 0, trace, res)

    prev_res = res
    for it in range(1, cfg.max_iter + 1):
        candidate = linear_step(kappa_of(u, eps), it)
        direction = candidate.values - u.values     # zero on boundary rows
        e_prev = trace[-1]
        slack = 1e-12 * (1.0 + abs(e_prev))
        # dyadic damping: halve toward the previous iterate and keep the
        # step length with the lowest regularized energy (full steps
        # overshoot for p > 2, where the scan settles near 1/(p-1))
        best_t, best_e = 0.0, e_prev
        near_e = np.inf
        t = 1.0
        for _ in range(31):
            e_t = regularized_energy(prob, NodalField(u.values + t * direction), eps)
            if e_t < best_e:
                best_t, best_e = t, e_t
            near_e = min(near_e, e_t)
            if best_t > 0.0 and t < 0.25 * best_t:
                break                              # minimum bracketed
            t *= 0.5
        if best_t == 0.0:
            # near convergence the decrease drowns in roundoff: fail only on
            # a true increase, and take the step length from the slope of
            # the energy along the direction, which keeps its precision (the
            # secant root between t = 0 and t = 1; the energy is convex in t)
            if near_e > e_prev + slack:
                raise NonConvergenceError(
                    "Kacanov step kept increasing the regularized energy",
                    trace, residual(prob, u))
            s0 = _energy_slope(prob, u.values, direction, eps)
            s1 = _energy_slope(prob, candidate.values, direction, eps)
            best_t = 0.0 if s0 >= 0.0 else 1.0 if s1 <= 0.0 else s0 / (s0 - s1)
            best_e = e_prev
        u = NodalField(u.values + best_t * direction)
        trace.append(min(best_e, e_prev))
        res = residual(prob, u)
        if res <= cfg.tol_residual:
            return Solution(u, it, trace, res)
        if res > 0.93 * prev_res and eps > eps_min:
            # the unregularized weak form has hit the regularization floor
            # (the fixed point of the eps-smoothed system deviates from the
            # exact one by O(eps^(p-1))); tightening eps lowers the
            # regularized energy pointwise, so the trace stays monotone
            eps = max(1e-2 * eps, eps_min)
            trace.append(regularized_energy(prob, u, eps))
        prev_res = res

    raise NonConvergenceError(
        f"no convergence within {cfg.max_iter} iterations "
        f"(residual {res:.3e} > {cfg.tol_residual:.3e})", trace, res)


def solve_pharmonic(mesh: Mesh, p: Exponent, g, cfg: Optional[SolverConfig] = None):
    """Dirichlet problem with F = 0: the discrete p-harmonic extension of g."""
    g = np.atleast_2d(np.asarray(g, dtype=float))
    F = ElemField.zeros(mesh, rows=g.shape[1])
    return solve(DirichletProblem(p, mesh, F, g), cfg)


# --- problem files ------------------------------------------------------------
#
# A problem file is a flat key = value text file with keys
#   p          exponent, > 1
#   grid       cells per side M
#   bounds     x0, x1, y0, y1
#   comps      number of solution components N (default 1)
#   F          zero | file <path> | trig <seed> | amap <seed>
#   g          keep | zero | affine <a> <b> <c> | file <path> | trace <seed>
# 'trig' builds a seeded truncated trigonometric series, 'amap' builds
# F = A(grad w) for a seeded smooth w, 'trace' builds a seeded rough
# piecewise-linear boundary trace.  'keep' (the default) takes the boundary
# data that comes with F: the trace of w for 'amap', zero otherwise.


def load_problem(path):
    """Build a DirichletProblem from a flat key-value problem file."""
    from .lab import cases  # local imports; lab depends on solver
    from .lab.config import parse_config_file

    kv = parse_config_file(path)
    p = Exponent(float(kv.get("p", "2.0")))
    M = int(kv.get("grid", "32"))
    bounds = tuple(float(t) for t in kv.get("bounds", "0,1,0,1").split(","))
    comps = int(kv.get("comps", "1"))
    mesh = Mesh(bounds, M)

    fspec = kv.get("F", "zero").split()
    gspec = kv.get("g", "keep").split()

    zero = np.zeros((len(mesh.boundary_nodes), comps))
    g = zero                  # replaced by the trace of w for 'amap'
    if fspec[0] == "zero":
        F = ElemField.zeros(mesh, rows=comps)
    elif fspec[0] == "file":
        from .grid import read_elem_field
        F = read_elem_field(fspec[1])
    elif fspec[0] == "trig":
        rng = np.random.default_rng(int(fspec[1]))
        F = cases.random_smooth_field(mesh, comps, rng)
    elif fspec[0] == "amap":
        rng = np.random.default_rng(int(fspec[1]))
        w = cases.random_smooth_potential(mesh, comps, rng)
        F = ElemField(a_map(p, gradient(mesh, w).tensors))
        g = w.values[mesh.boundary_nodes]
    else:
        raise ValueError(f"unknown F source {fspec[0]!r}")

    if gspec[0] == "zero":
        g = zero
    elif gspec[0] == "affine":
        a, b, c = (float(t) for t in gspec[1:4])
        pts = mesh.nodes[mesh.boundary_nodes]
        g = np.repeat((a * pts[:, 0] + b * pts[:, 1] + c)[:, None], comps, axis=1)
    elif gspec[0] == "file":
        from .grid import read_nodal_field
        full = read_nodal_field(gspec[1])
        g = full.values[mesh.boundary_nodes]
    elif gspec[0] == "trace":
        rng = np.random.default_rng(int(gspec[1]))
        g = cases.rough_boundary_trace(mesh, comps, rng)
    elif gspec[0] != "keep":
        raise ValueError(f"unknown g source {gspec[0]!r}")

    return DirichletProblem(p, mesh, F, g)
