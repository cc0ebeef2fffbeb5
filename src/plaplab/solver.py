"""Discrete p-Laplace systems in divergence form on P1 meshes.

The Dirichlet problem -div(|grad u|^(p-2) grad u) = -div F with u = g on the
boundary is solved by a damped Kacanov (frozen-coefficient) iteration: each
step freezes the diffusion coefficient at (eps^2 + |grad u|^2)^((p-2)/2) and
solves the resulting SPD linear system for all components at once by one
banded Cholesky factorization (LAPACK dpbsv).  The 5-point stencil of these
right triangles couples no two nodes of one checkerboard colour, so one
colour is eliminated exactly first (red-black static condensation): the
factored Schur complement keeps the half-bandwidth M - 1 of the natural
order on half the rows, and takes half the flops.  The step taken is the
damped Newton minimiser of the regularized energy over the plane of that new
direction and the previous step, a two-dimensional subspace step as in
nonlinear conjugate gradients; Newton runs on the energy's slopes, so it
keeps its precision once energy differences drown in roundoff.  The plane
search and the residual run on carried element gradients, so a step takes
only two: one of the new iterate and one of the step direction.  The
iteration starts from the p = 2 solution and stops on the weak-form
residual, not on energy stagnation.
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


_NEWTON_ITERS = 12     # Newton steps in the plane per Kacanov step, at most
_NEWTON_TOL = 1e-6     # relative move in (x, y) below which Newton stops


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


def _energy_of(prob, grad, eps):
    """Integral of q^(p/2)/p - F:G from the element gradients G, q = eps^2 + |G|^2."""
    q = eps * eps + np.einsum("enk,enk->e", grad, grad)
    fg = np.einsum("enk,enk->e", prob.F.tensors, grad)
    return integrate(prob.mesh, q ** (prob.p.p / 2.0) / prob.p.p - fg)


def energy(prob: DirichletProblem, u: NodalField):
    """Energy integral (1/p)|grad u|^p - F . grad u, exact per element."""
    return regularized_energy(prob, u, 0.0)


def regularized_energy(prob: DirichletProblem, u: NodalField, eps):
    return _energy_of(prob, gradient(prob.mesh, u).tensors, eps)


def _scatter(index, rows, length):
    """Sum rows (K, N) into `length` rows by index."""
    return np.column_stack([
        np.bincount(index, weights=column, minlength=length) for column in rows.T])


def _flux_load(mesh, tensors):
    """Nodal integrals of tensors . grad(hat), (num nodes, N)."""
    load = np.einsum("enk,eik->ein", tensors, mesh.basis_gradients)
    load *= mesh.element_area
    return _scatter(mesh.elements.ravel(), load.reshape(-1, load.shape[2]), mesh.num_nodes)


def _defect_of(prob, grad):
    return _flux_load(prob.mesh, a_map(prob.p, grad) - prob.F.tensors)


def defect_vector(prob: DirichletProblem, u: NodalField):
    """Weak-form defect of A(grad u) - F against every nodal hat direction."""
    return _defect_of(prob, gradient(prob.mesh, u).tensors)


def _residual_of(prob, grad, norm):
    """residual() from the element gradients of u, with norm = 1 + int |F|."""
    defect = np.abs(_defect_of(prob, grad)[prob.mesh.interior_nodes])
    return float(defect.max(initial=0.0) / norm)


def residual(prob: DirichletProblem, u: NodalField):
    """Normalized sup of the weak-form defect over interior hat directions."""
    norm = 1.0 + integrate(prob.mesh, prob.F.norms())
    return _residual_of(prob, gradient(prob.mesh, u).tensors, norm)


def _plane(prob, a, grad, D, S, eps, k0=None):
    """Regularized energy of u + x d + y s with its gradient and Hessian in (x, y).

    From G = grad u, a = eps^2 + |G|^2 and the element gradients D of d and S
    of s, q = eps^2 + |W|^2 with W = G + x D + y S is a quadratic in (x, y)
    over element products taken once, floored at eps^2 where it rounds below.
    With k = q^((p-2)/2), one power of an element vector gives the energy
    int k q / p - F:W, the slopes int k W:D - F:D and int k W:S - F:S, and the
    Hessian, which adds (p-2) (k/q) (W:D)(W:S) terms to int k D:D, k D:S, k S:S.
    At the origin q = a exactly, so k is k0 = a^((p-2)/2) when the caller has
    it already.
    """
    p, F = prob.p.p, prob.F.tensors
    power = (p - 2.0) / 2.0
    k0 = a ** power if k0 is None else k0
    gd, gs, dd, ds, ss, fg, fd, fs = (
        np.einsum("enk,enk->e", X, Y) for X, Y in
        ((grad, D), (grad, S), (D, D), (D, S), (S, S), (F, grad), (F, D), (F, S)))

    def at(x, y):
        wd, ws = gd + x * dd + y * ds, gs + x * ds + y * ss
        q = np.maximum(a + x * (gd + wd) + y * (gs + ws), eps * eps)
        k = k0 if x == 0.0 and y == 0.0 else q ** power
        c = (p - 2.0) * k / q
        e, sx, sy, hxx, hxy, hyy = np.stack([
            k * q / p - (fg + x * fd + y * fs),
            k * wd - fd, k * ws - fs,
            k * dd + c * wd * wd, k * ds + c * wd * ws, k * ss + c * ws * ws,
        ]) @ prob.mesh.areas
        return e, np.array([sx, sy]), np.array([[hxx, hxy], [hxy, hyy]])

    return at


def _plane_step(at, e0):
    """((x, y), energy) near the energy's minimum over the plane, or None.

    Damped Newton from the origin, where the energy is e0: a step is halved
    until its energy is at most the current one plus a roundoff slack, so the
    slopes lead once energy differences drown in roundoff.  Where the 2 x 2
    Hessian is not positive definite (s = 0, or s parallel to d) the step runs
    along d alone.  None if d is no descent direction and its full step raises
    the energy beyond the slack; a zero step if it does not.
    """
    slack = 1e-12 * (1.0 + abs(e0))
    z = np.zeros(2)
    e, slope, hess = at(0.0, 0.0)
    if slope[0] >= 0.0:
        return None if at(1.0, 0.0)[0] > e0 + slack else (z, e0)
    for _ in range(_NEWTON_ITERS):
        if np.linalg.det(hess) > 1e-10 * hess[0, 0] * hess[1, 1]:
            step = -np.linalg.solve(hess, slope)
        else:
            step = np.array([-slope[0] / hess[0, 0], 0.0])
        for _ in range(31):
            trial = at(*(z + step))
            if trial[0] <= e + slack:
                break
            step *= 0.5
        else:
            break
        z += step
        e, slope, hess = trial
        if np.abs(step).max() <= _NEWTON_TOL * (1.0 + np.abs(z).max()):
            break
    return z, e


class _BandSystem:
    """Frozen-coefficient systems of one problem, condensed onto one colour.

    Solves -div(kappa grad u) = -div F with u = g on the boundary, for
    per-element kappa > 0.  Interior nodes couple only to their four axis
    neighbours, since the hypotenuse entries of these right triangles are
    exactly zero.  Colour a node by the parity of ix + iy: no two nodes of
    one colour couple, so the interior matrix is K = [[D_r, B], [B^T, D_b]]
    with D_r and D_b diagonal.  The red nodes (odd parity, the smaller
    colour) are eliminated exactly.  The Schur complement
    S = D_b - B^T D_r^-1 B on the black nodes, numbered row-major, couples
    them at offsets 1, about (M - 1) / 2 and M - 1: the half-bandwidth of K
    on half its rows, so the banded Cholesky factorization of S (LAPACK
    dpbsv) takes half the flops of K's.

    What does not depend on kappa is built once: the colour numbering; for
    every nonzero element-matrix entry between two interior nodes, its
    element, its unit weight area * grad(hat_i) . grad(hat_j) and its slot
    among K's diagonal and red-black couplings; the red and black node of
    every coupling; the band slot of every pair of couplings at one red
    node; and the gradient of g extended by zero, whose flux lifts g into
    the right-hand side.
    """

    def __init__(self, prob):
        mesh = prob.mesh
        self.prob = prob
        row_len = mesh.cells_per_side + 1
        interior = mesh.interior_nodes
        # node (1, 1) has even parity, so the even colour is the larger one
        even = np.sum(np.divmod(interior, row_len), axis=0) % 2 == 0
        self.red, self.black = interior[~even], interior[even]
        nr, n = len(self.red), len(interior)
        pos = np.full(mesh.num_nodes, -1)               # red rows first, then black
        pos[self.red] = np.arange(nr)
        pos[self.black] = np.arange(nr, n)
        gl = mesh.basis_gradients

        # the couplings of each red node by direction (W, E, S, N), -1 where
        # its neighbour is on the boundary
        neighbour = pos[self.red[:, None] + np.array([-1, 1, -row_len, row_len])]
        present = neighbour >= nr
        number = np.where(present, np.cumsum(present).reshape(nr, 4) - 1, -1)
        num_couplings = int(present.sum())
        red_of, black_of = np.flatnonzero(present) // 4, neighbour[present] - nr

        # the smallest unsigned types that hold every index keep the peak low
        elem_type = np.min_scalar_type(mesh.num_elements)
        kslot_type = np.min_scalar_type(n + num_couplings)
        entries = []
        for a in range(3):
            for b in range(a + 1):
                unit = mesh.areas * np.sum(gl[:, a] * gl[:, b], axis=1)
                va, vb = mesh.elements[:, a], mesh.elements[:, b]
                elem = np.flatnonzero((pos[va] >= 0) & (pos[vb] >= 0) & (unit != 0.0))
                va, vb = va[elem], vb[elem]
                if a == b:
                    kslot = pos[va]
                else:
                    a_red = pos[va] < nr
                    red, black = np.where(a_red, va, vb), np.where(a_red, vb, va)
                    step = black - red                  # -1, 1, -row_len, row_len
                    kslot = n + number[pos[red], (step > 0) + 2 * (np.abs(step) != 1)]
                entries.append((elem.astype(elem_type), unit[elem], kslot.astype(kslot_type)))
        self.elem, self.weight, self.kslot = map(np.concatenate, zip(*entries))

        # every pair (i >= j) of couplings at one red node fills S[black_i, black_j]
        pairs = []
        for s in range(4):
            for t in range(s + 1):
                both = present[:, s] & present[:, t]
                pairs.append((number[both, s], number[both, t]))
        pair_i, pair_j = map(np.concatenate, zip(*pairs))
        row = np.maximum(black_of[pair_i], black_of[pair_j])
        col = np.minimum(black_of[pair_i], black_of[pair_j])
        self.width = 1 + int((row - col).max(initial=0))
        coupling_type = np.min_scalar_type(num_couplings)
        self.pair_i, self.pair_j = pair_i.astype(coupling_type), pair_j.astype(coupling_type)
        # S's diagonal slots first, for D_b, then one slot per pair
        slot = np.concatenate([np.arange(n - nr) * self.width, col * self.width + row - col])
        self.slot = slot.astype(np.min_scalar_type(self.width * (n - nr)))
        self.red_of = red_of.astype(np.min_scalar_type(nr))
        self.black_of = black_of.astype(np.min_scalar_type(n - nr))
        self.g_full = np.zeros((mesh.num_nodes, prob.components))
        self.g_full[mesh.boundary_nodes] = prob.g
        self.grad_g = gradient(mesh, NodalField(self.g_full)).tensors

    def condense(self, kappa):
        """(S, d_r, B, B / d_r): S in lower band storage, ab[i - j, j] = S[i, j].

        d_r holds the red pivots; B and the multipliers B / d_r are indexed
        by coupling.  ab is in Fortran order, so that LAPACK factors it in
        place without a copy.  LinAlgError if a red pivot is not finite and
        positive.
        """
        nr, nb = len(self.red), len(self.black)
        weights = kappa[self.elem]
        weights *= self.weight
        k = np.bincount(self.kslot, weights=weights, minlength=nr + nb + len(self.red_of))
        d_r, d_b, B = k[:nr], k[nr:nr + nb], k[nr + nb:]
        if not np.all((d_r > 0.0) & (d_r < np.inf)):
            raise LinAlgError("red pivot not finite and positive")
        mult = B / d_r[self.red_of]
        fill = B[self.pair_i] * mult[self.pair_j]
        ab = np.bincount(self.slot, weights=np.concatenate([d_b, -fill]),
                         minlength=self.width * nb).reshape(nb, self.width).T
        return ab, d_r, B, mult

    def solve(self, kappa):
        """Nodal values of the solution; LinAlgError if the solve fails."""
        mesh = self.prob.mesh
        ab, d_r, B, mult = self.condense(kappa)
        flux = self.prob.F.tensors - kappa[:, None, None] * self.grad_g
        rhs = _flux_load(mesh, flux)
        b_r, b_b = rhs[self.red], rhs[self.black]
        b_b -= _scatter(self.black_of, mult[:, None] * b_r[self.red_of], len(self.black))
        x_b = solveh_banded(ab, b_b, lower=True, overwrite_ab=True,
                            overwrite_b=True, check_finite=False)
        x_r = b_r - _scatter(self.red_of, B[:, None] * x_b[self.black_of], len(self.red))
        x_r /= d_r[:, None]
        values = self.g_full.copy()
        values[self.red] = x_r
        values[self.black] = x_b
        if not np.all(np.isfinite(values)):
            raise LinAlgError("non-finite solution")
        return values


def solve(prob: DirichletProblem, cfg: Optional[SolverConfig] = None,
          u0: Optional[NodalField] = None):
    """Damped Kacanov solve of the discrete Dirichlet problem.

    Starts from u0 (its boundary rows overwritten by g), by default from the
    p = 2 solution of the same problem.  Returns the accepted iterate, the
    regularized-energy trace (nonincreasing by construction) and the final
    residual.
    """
    cfg = cfg or SolverConfig()
    mesh, p = prob.mesh, prob.p.p
    scale = prob.data_scale()

    if scale == 0.0:
        # F = 0 and constant boundary data: the constant extension solves it
        u = NodalField(np.tile(prob.g[0], (mesh.num_nodes, 1)))
        return Solution(u, 0, [0.0], residual(prob, u))

    eps, eps_min = 1e-8 * scale, 1e-14 * scale
    kmin, kmax = (c * scale ** (p - 2.0) for c in cfg.coeff_clamp)
    norm = 1.0 + integrate(mesh, prob.F.norms())

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

    # the one gradient of each accepted iterate feeds everything below
    grad = gradient(mesh, u).tensors
    trace.append(_energy_of(prob, grad, eps))
    res = _residual_of(prob, grad, norm)
    if res <= cfg.tol_residual:
        return Solution(u, 0, trace, res)

    prev_res = res
    step, step_grad = 0.0, np.zeros_like(grad)      # the last accepted step s
    for it in range(1, cfg.max_iter + 1):
        a = eps * eps + np.einsum("enk,enk->e", grad, grad)
        k = a ** ((p - 2.0) / 2.0)
        candidate = linear_step(np.clip(k, kmin, kmax), it)
        direction = candidate.values - u.values     # zero on boundary rows
        dir_grad = gradient(mesh, NodalField(direction)).tensors
        found = _plane_step(_plane(prob, a, grad, dir_grad, step_grad, eps, k), trace[-1])
        if found is None:
            raise NonConvergenceError(
                f"Kacanov step kept increasing the regularized energy at outer "
                f"iteration {it} (eps {eps:.3e})", trace, res)
        (x, y), e = found
        step, step_grad = x * direction + y * step, x * dir_grad + y * step_grad
        u = NodalField(u.values + step)
        trace.append(min(e, trace[-1]))
        grad = gradient(mesh, u).tensors
        res = _residual_of(prob, grad, norm)
        if res <= cfg.tol_residual:
            return Solution(u, it, trace, res)
        if res > 0.93 * prev_res and eps > eps_min:
            # the unregularized weak form has hit the regularization floor
            # (the eps-smoothed fixed point is O(eps^(p-1)) off the exact one);
            # tightening eps lowers the energy pointwise, by less than the
            # roundoff between the plane's value of it and a direct one
            eps = max(1e-2 * eps, eps_min)
            trace.append(min(_energy_of(prob, grad, eps), trace[-1]))
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
