"""Discrete p-Laplace systems in divergence form on P1 meshes.

The Dirichlet problem -div(|grad u|^(p-2) grad u) = -div F with u = g on the
boundary is solved by a damped Kacanov (frozen-coefficient) iteration: each
step freezes the diffusion coefficient kappa at
(eps^2 + |grad u|^2)^((p-2)/2), with one fixed eps = 1e-14 * data_scale, and
takes the direction d = K^-1 r for all components at once, r the interior
loads of F - kappa grad u and K an SPD frozen-coefficient matrix held as a
banded Cholesky factor (LAPACK dpbtrf, applied by dpbtrs).  With K at the
current kappa, u + d is the frozen-coefficient solution; any earlier K still
gives a descent direction, and once kappa settles nearly the same one
(Diening, Fornasier, Tomasi & Wank, Numer. Math. 2020, analyse such relaxed
linearisations of the p-Poisson problem).  So a factor is kept while each
step cuts the residual to at most _REFACTOR_RATE of its value before; K is
factored anew at the current kappa for the first step, after a step that
cut it less, and to retake a step whose kept factor gave no descent.  On these right triangles the system is the 5-point stencil
of edge conductances, which couples no two nodes of one checkerboard colour,
so one colour is eliminated exactly first (red-black static condensation): the
factored Schur complement keeps the half-bandwidth M - 1 of the natural
order on half the rows, and takes half the flops.  Its five or six nonzero
diagonals, the eliminations and the back-substitution are shifted slices of
the grid of edge conductances, and the nodal loads of an element flux are
the transpose of the gradient's difference stencil: nothing on this path
gathers or scatters through the element connectivity.  The step taken is the
damped Newton minimiser of the regularized energy over the plane of that new
direction and the previous step, a two-dimensional subspace step as in
nonlinear conjugate gradients; Newton runs on the energy's slopes, so it
keeps its precision once energy differences drown in roundoff.  The plane
search and the residual run on carried element gradients, so a step takes
only two: one of the new iterate and one of the step direction.  Every
element quantity on this path (F, the gradients, the fluxes) is held as
(N, 2, E) component planes, one contiguous run of E doubles per component
and direction, so an element product X : Y is 2N vector products summed in
order, and each integral of the plane search is one dot product of element
vectors.  The iteration starts from the p = 2 solution and stops on the
weak-form residual, not on energy stagnation.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .fluxmaps import Exponent, _norm_power
from .grid import ElemField, Mesh, NodalField, _gradient_planes, integrate

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
]


_NEWTON_ITERS = 12     # Newton steps in the plane per Kacanov step, at most
_NEWTON_TOL = 1e-6     # relative move in (x, y) below which Newton stops
_EPS = 1e-14           # gradient regularization eps, relative to data_scale
_COEFF_CLAMP = (1e-10, 1e10)   # frozen coefficient bounds, relative to data_scale^(p-2)
_REFACTOR_RATE = 0.3   # residual ratio of a step above which the next step factors anew


class NonConvergenceError(RuntimeError):
    def __init__(self, message, energy_trace, last_residual):
        super().__init__(message)
        self.energy_trace = energy_trace
        self.last_residual = last_residual


@dataclass
class SolverConfig:
    tol_residual: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        # inf would accept the p = 2 start as converged, nan could never
        # converge, and a negative max_iter would run no step
        if not 0.0 < self.tol_residual < math.inf:
            raise ValueError(f"tol_residual must be finite and positive, got {self.tol_residual!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 0):
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


@dataclass
class DirichletProblem:
    p: Exponent
    mesh: Mesh
    F: ElemField
    g: np.ndarray               # boundary values, (num boundary nodes, N)

    def __post_init__(self):
        if not isinstance(self.p, Exponent):
            raise TypeError(f"p must be an Exponent, got {type(self.p).__name__}")
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
    factorizations: int         # banded factorizations, the p = 2 start's included


def _planes(tensors):
    """(E, N, 2) element tensors as contiguous (N, 2, E) component planes."""
    return np.ascontiguousarray(tensors.transpose(1, 2, 0))


def _dot(X, Y):
    """Per element X : Y of (N, 2, E) planes, summed left to right over
    (n, k): at N = 1 bitwise np.einsum("enk,enk->e") of the tensors."""
    out = X[0, 0] * Y[0, 0]
    out += X[0, 1] * Y[0, 1]
    for n in range(1, len(X)):
        out += X[n, 0] * Y[n, 0]
        out += X[n, 1] * Y[n, 1]
    return out


def _energy_of(prob, F, grad, eps):
    """Integral of q^(p/2)/p - F:G from the planes of F and of the element
    gradients G, q = eps^2 + |G|^2."""
    q = eps * eps + _dot(grad, grad)
    return integrate(prob.mesh, q ** (prob.p.p / 2.0) / prob.p.p - _dot(F, grad))


def energy(prob: DirichletProblem, u: NodalField):
    """Energy integral (1/p)|grad u|^p - F . grad u, exact per element."""
    return regularized_energy(prob, u, 0.0)


def regularized_energy(prob: DirichletProblem, u: NodalField, eps):
    grad = _gradient_planes(prob.mesh, u.values)
    return _energy_of(prob, _planes(prob.F.tensors), grad, eps)


def _flux_load(mesh, planes):
    """Nodal integrals of T . grad(hat), (num nodes, N), from the (N, 2, E)
    planes of an element flux T.

    The transpose of the gradient's stencil: with X = |e| T_x / dx and
    Y = |e| T_y / dy per triangle, a lower triangle adds -X to its corner
    n00, X - Y to n10 and Y to n11, an upper one -Y to n00, X to n11 and
    Y - X to n01.
    """
    M = mesh.cells_per_side
    dx, dy = mesh._cell_widths
    N = planes.shape[0]
    T = planes.reshape(N, 2, 2, M, M)                # [n, k, t, iy, ix]
    X = T[:, 0] * (mesh.element_area / dx)
    Y = T[:, 1] * (mesh.element_area / dy)[:, None]
    load = np.zeros((N, M + 1, M + 1))               # [n, iy, ix]
    load[:, :-1, :-1] -= X[:, 0] + Y[:, 1]           # n00
    load[:, :-1, 1:] += X[:, 0] - Y[:, 0]            # n10
    load[:, 1:, 1:] += Y[:, 0] + X[:, 1]             # n11
    load[:, 1:, :-1] += Y[:, 1] - X[:, 1]            # n01
    return load.reshape(N, -1).T


def _defect_of(prob, F, grad):
    """Loads of A(G) - F, with A(G) = |G|^(p-2) G from the planes of G."""
    scale = _norm_power(np.sqrt(_dot(grad, grad)), prob.p.p - 2.0)
    return _flux_load(prob.mesh, scale * grad - F)


def defect_vector(prob: DirichletProblem, u: NodalField):
    """Weak-form defect of A(grad u) - F against every nodal hat direction."""
    grad = _gradient_planes(prob.mesh, u.values)
    return _defect_of(prob, _planes(prob.F.tensors), grad)


def _residual_of(prob, F, grad, norm):
    """residual() from the planes of F and of the element gradients of u,
    with norm = 1 + int |F|."""
    defect = np.abs(_defect_of(prob, F, grad)[prob.mesh.interior_nodes])
    return float(defect.max(initial=0.0) / norm)


def residual(prob: DirichletProblem, u: NodalField):
    """Normalized sup of the weak-form defect over interior hat directions."""
    norm = 1.0 + integrate(prob.mesh, prob.F.norms())
    grad = _gradient_planes(prob.mesh, u.values)
    return _residual_of(prob, _planes(prob.F.tensors), grad, norm)


def _plane(prob, F, a, grad, D, S, eps, k0=None):
    """Regularized energy of u + x d + y s with its gradient and Hessian in (x, y).

    Everything is (N, 2, E) planes: F, G = grad u, and the element gradients
    D of d and S of s.  With a = eps^2 + |G|^2, q = eps^2 + |W|^2 for
    W = G + x D + y S is a quadratic in (x, y) over element products taken
    once, floored at eps^2 where it rounds below.  With k = q^((p-2)/2), one
    power of an element vector gives the energy int k q / p - F:W, the slopes
    int k W:D - F:D and int k W:S - F:S, and the Hessian, which adds
    (p-2) (k/q) (W:D)(W:S) terms to int k D:D, k D:S, k S:S.  The F terms
    are three integrals taken once; every other integral is one dot product
    of element vectors times the element area.  At the origin q = a exactly,
    so k is k0 = a^((p-2)/2) when the caller has it already.
    """
    p, area = prob.p.p, prob.mesh.element_area
    power = (p - 2.0) / 2.0
    k0 = a ** power if k0 is None else k0
    gd, gs, dd, ds, ss = (_dot(X, Y) for X, Y in
                          ((grad, D), (grad, S), (D, D), (D, S), (S, S)))
    fg, fd, fs = (area * _dot(F, X).sum() for X in (grad, D, S))

    def at(x, y):
        wd, ws = gd + x * dd + y * ds, gs + x * ds + y * ss
        q = np.maximum(a + x * (gd + wd) + y * (gs + ws), eps * eps)
        k = k0 if x == 0.0 and y == 0.0 else q ** power
        c = (p - 2.0) * k / q
        cwd, cws = c * wd, c * ws
        e = area * (np.dot(k, q) / p) - (fg + x * fd + y * fs)
        sx, sy = area * np.dot(k, wd) - fd, area * np.dot(k, ws) - fs
        hxx = area * (np.dot(k, dd) + np.dot(cwd, wd))
        hxy = area * (np.dot(k, ds) + np.dot(cwd, ws))
        hyy = area * (np.dot(k, ss) + np.dot(cws, ws))
        return e, np.array([sx, sy]), np.array([[hxx, hxy], [hxy, hyy]])

    return at


def _plane_step(at, e0):
    """((x, y), energy) near the energy's minimum over the plane, or None.

    Damped Newton from the origin, where the energy is e0: a step is halved
    until its energy is at most the current one plus a roundoff slack, so the
    slopes lead once energy differences drown in roundoff.  The 2 x 2 Newton
    system is solved by Cramer's rule; where the Hessian is not safely
    positive definite (s = 0, or s parallel to d) the step runs along d
    alone.  None if d is no descent direction and its full step raises the
    energy beyond the slack; a zero step if it does not.
    """
    slack = 1e-12 * (1.0 + abs(e0))
    z = np.zeros(2)
    e, slope, hess = at(0.0, 0.0)
    if slope[0] >= 0.0:
        return None if at(1.0, 0.0)[0] > e0 + slack else (z, e0)
    for _ in range(_NEWTON_ITERS):
        (hxx, hxy), (_, hyy) = hess
        sx, sy = slope
        det = hxx * hyy - hxy * hxy
        if det > 1e-10 * hxx * hyy:
            step = np.array([hxy * sy - hyy * sx, hxy * sx - hxx * sy]) / det
        else:
            step = np.array([-sx / hxx, 0.0])
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


# The neighbour of interior node (i, j) in each direction, as the pair of
# interior-grid slices (nodes that have one, their neighbours): a coupling or
# multiplier grid of that direction is indexed like the first.
_SIDES = {
    "W": (np.s_[:, 1:], np.s_[:, :-1]),
    "E": (np.s_[:, :-1], np.s_[:, 1:]),
    "S": (np.s_[1:], np.s_[:-1]),
    "N": (np.s_[:-1], np.s_[1:]),
}


def _neighbour_sum(values, weights):
    """Sum of w * values[neighbour] at every node of an (m, m, N) interior
    grid, over the interior neighbours in the (direction, w) order given."""
    out = np.zeros_like(values)
    for side, w in weights:
        node, neighbour = _SIDES[side]
        out[node] += w[..., None] * values[neighbour]
    return out


class _BandSystem:
    """Frozen-coefficient systems of one problem, condensed onto one colour.

    Solves -div(kappa grad u) = -div F with u = g on the boundary, for
    per-element kappa > 0.  On these right triangles each leg of a triangle
    carries half its kappa and the hypotenuse carries nothing, so the
    interior matrix K is the 5-point stencil whose edge conductance is half
    the kappa of the two triangles that share the edge: a node's diagonal is
    the sum of its four conductances, its coupling to an axis neighbour minus
    the conductance between them.  Colour a node by the parity of ix + iy:
    no two nodes of one colour couple, so K = [[D_r, B], [B^T, D_b]] with D_r
    and D_b diagonal.  The red nodes (odd parity, the smaller colour) are
    eliminated exactly.  The Schur complement S = D_b - B^T D_r^-1 B on the
    black nodes has the half-bandwidth of K on half its rows, so the banded
    Cholesky factorization of S (LAPACK dpbtrf) takes half the flops of K's.

    Everything is a slice of the m x m grid of interior nodes (i, j) =
    (ix - 1, iy - 1), m = M - 1.  The black nodes are numbered row-major:
    row j holds i = j % 2, j % 2 + 2, ..., so each pair of rows (2t, 2t + 1)
    holds m of them, the first c = ceil(m / 2) from the even row.  S couples
    black (i, j) to (i + 2, j) at offset 1, to (i - 1, j + 1) and
    (i + 1, j + 1) at offsets c - 1 and c from an even row and f and f + 1
    from an odd one (f = m - c), and to (i, j + 2) at offset m: five
    diagonals for even M, six for odd M.

    Built once: the band buffer that each factor zeroes, refills and
    factors in place, the planes of F, and g extended by zero; factor
    counts its calls.
    """

    def __init__(self, prob):
        mesh = prob.mesh
        self.prob = prob
        self.m = m = mesh.cells_per_side - 1
        self.num_black = (m * m + 1) // 2
        # the widest coupling, two rows apart, exists from m = 3 on
        self.width = m + 1 if m >= 3 else 1 + m // 2
        # one band for every step, (black node, offset) in C order, so its
        # transpose is the Fortran-order lower band that LAPACK factors in
        # place.  Its rows run to a whole row pair, so that it reshapes to
        # (row pair, black node in the pair, offset), and its m + 1 offsets
        # hold every one written, more than the width below m = 3.
        self.band = np.zeros(((m + 1) // 2 * m, m + 1))
        self.g_full = np.zeros((mesh.num_nodes, prob.components))
        self.g_full[mesh.boundary_nodes] = prob.g
        self.F = _planes(prob.F.tensors)
        self.factorizations = 0

    def _put_black(self, even_out, odd_out, grid, i0=0):
        """Write the black entries of `grid`, a block of the interior grid
        from row 0 whose column 0 is interior column i0, into arrays indexed
        by (row pair, black node in the pair): those of its even rows into
        even_out, those of its odd rows into odd_out."""
        even, odd = grid[0::2, i0::2], grid[1::2, 1 - i0::2]
        c = (self.m + 1) // 2
        even_out[:even.shape[0], i0:i0 + even.shape[1]] = even
        odd_out[:odd.shape[0], c:c + odd.shape[1]] = odd

    def _black(self, grid):
        """The black entries of an (m, m, N) interior grid, (black nodes, N)."""
        out = np.empty((self.band.shape[0], grid.shape[2]))
        pairs = out.reshape(-1, self.m, grid.shape[2])
        self._put_black(pairs, pairs, grid)
        return out[:self.num_black]

    def condense(self, kappa):
        """(S, D, couplings, multipliers): S in lower band storage,
        ab[i - j, j] = S[i, j].

        D is K's diagonal on the interior grid; couplings lists the
        (direction, conductance grid) of every node's W, E, S and N interior
        neighbour, and multipliers the (direction, conductance over the
        neighbour's pivot) of its S, W, E and N neighbour.  ab is in Fortran
        order, so that LAPACK factors it in place without a copy (from
        M = 4); it is this system's one band buffer, so the next condense
        overwrites it.  LinAlgError if a red pivot is not finite and
        positive.
        """
        m = self.m
        lower, upper = kappa.reshape(2, m + 1, m + 1)   # [iy, ix]: cell (ix, iy)
        # a horizontal edge is a leg of the lower triangle above it and of the
        # upper one below it, a vertical edge of the lower triangle to its
        # left and of the upper one to its right: ch[j, i] joins interior
        # nodes (i - 1, j) and (i, j), cv[j, i] nodes (i, j - 1) and (i, j)
        ch = lower[1:] + upper[:-1]
        ch *= 0.5
        cv = lower[:, :-1] + upper[:, 1:]
        cv *= 0.5
        D = ((ch[:, :-1] + ch[:, 1:]) + cv[:-1]) + cv[1:]
        red_pivots = np.concatenate([D[0::2, 1::2].ravel(), D[1::2, 0::2].ravel()])
        if not np.all((red_pivots > 0.0) & (red_pivots < np.inf)):
            raise LinAlgError("red pivot not finite and positive")
        # H[j, i] couples (i, j) and (i + 1, j), V[j, i] couples (i, j) and (i, j + 1)
        H, V = ch[:, 1:-1], cv[1:-1]
        Wh, Eh = H / D[:, :-1], H / D[:, 1:]     # over the pivot of the left, right node
        Sv, Nv = V / D[:-1], V / D[1:]           # of the lower, upper node

        # S at every black node (i, j): its pivot less the elimination of its
        # E, W, N and S neighbours, then its lower-band entries; every one
        # is one product c_a * (c_b / d) per red node it passes through
        diag = D.copy()
        diag[:, :-1] -= H * Eh
        diag[:, 1:] -= H * Wh
        diag[:-1] -= V * Nv
        diag[1:] -= V * Sv
        east2 = -(H[:, 1:] * Eh[:, :-1])                        # to (i + 2, j)
        north2 = -(V[1:] * Nv[:-1])                             # to (i, j + 2)
        north_east = -(V[:, :-1] * Wh[1:]) - V[:, 1:] * Eh[:-1]  # to (i + 1, j + 1)
        north_west = -(V[:, 1:] * Eh[1:]) - V[:, :-1] * Wh[:-1]  # to (i - 1, j + 1), i >= 1

        c, f = (m + 1) // 2, m // 2
        self.band.fill(0.0)
        band = self.band.reshape(-1, m, m + 1)
        for grid, i0, even, odd in ((diag, 0, 0, 0), (east2, 0, 1, 1),
                                    (north_west, 1, c - 1, f), (north_east, 0, c, f + 1),
                                    (north2, 0, m, m)):
            self._put_black(band[..., even], band[..., odd], grid, i0)
        ab = self.band[:self.num_black, :self.width].T
        couplings = [("W", H), ("E", H), ("S", V), ("N", V)]
        multipliers = [("S", Sv), ("W", Wh), ("E", Eh), ("N", Nv)]
        return ab, D, couplings, multipliers

    def factor(self, kappa):
        """Condense the system at kappa and factor S = L L^T in place
        (LAPACK dpbtrf), keeping D, the couplings and the multipliers for
        apply; LinAlgError if a red pivot or S is not positive definite."""
        from scipy.linalg.lapack import dpbtrf  # LAPACK loads at the first factor
        self.factorizations += 1
        ab, *self._elimination = self.condense(kappa)
        self._factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise LinAlgError(f"banded Cholesky factorization failed (info {info})")

    def apply(self, loads):
        """Nodal values, zero on the boundary, of K^-1 times the interior rows
        of `loads` (num nodes, N), K the matrix of the last factor;
        LinAlgError if they are not finite."""
        from scipy.linalg.lapack import dpbtrs
        m, N = self.m, loads.shape[1]
        D, couplings, multipliers = self._elimination
        rhs = loads.reshape(m + 2, m + 2, N)[1:-1, 1:-1]
        # eliminate the red nodes: b_b - B^T D_r^-1 b_r adds c b_r / d_r over
        # a black node's red neighbours (the sum at a red node is not used)
        b_black = self._black(rhs + _neighbour_sum(rhs, multipliers))
        x_black, _ = dpbtrs(self._factor, b_black, lower=1, overwrite_b=1)
        values = np.zeros(loads.shape)
        x = values.reshape(m + 2, m + 2, N)[1:-1, 1:-1]
        pairs = np.empty((self.band.shape[0], N))
        pairs[:self.num_black] = x_black
        pairs = pairs.reshape(-1, m, N)
        c = (m + 1) // 2
        x[0::2, 0::2] = pairs[:, :c]
        x[1::2, 1::2] = pairs[:m // 2, c:]
        # back-substitute the red nodes from their black neighbours
        x_red = (rhs + _neighbour_sum(x, couplings)) / D[..., None]
        x[0::2, 1::2] = x_red[0::2, 1::2]
        x[1::2, 0::2] = x_red[1::2, 0::2]
        if not np.all(np.isfinite(x)):
            raise LinAlgError("non-finite solution")
        return values


def solve(prob: DirichletProblem, cfg: Optional[SolverConfig] = None,
          u0: Optional[NodalField] = None):
    """Damped Kacanov solve of the discrete Dirichlet problem.

    Starts from u0 (its boundary rows overwritten by g), by default from the
    p = 2 solution of the same problem.  Returns the accepted iterate, the
    regularized-energy trace (one entry per accepted iterate, nonincreasing
    by construction), the final residual and the number of banded
    factorizations.  Frozen coefficients are clamped to _COEFF_CLAMP times
    data_scale^(p-2).
    """
    cfg = cfg or SolverConfig()
    mesh, p = prob.mesh, prob.p.p
    shape = (mesh.num_nodes, prob.components)
    if u0 is not None and u0.values.shape != shape:
        raise ValueError(f"start has shape {u0.values.shape}, the problem needs {shape}")
    scale = prob.data_scale()

    if scale == 0.0:
        # F = 0 and constant boundary data: the constant extension solves it
        u = NodalField(np.tile(prob.g[0], (mesh.num_nodes, 1)))
        return Solution(u, 0, [0.0], residual(prob, u), 0)

    eps = _EPS * scale
    kmin, kmax = (c * scale ** (p - 2.0) for c in _COEFF_CLAMP)
    norm = 1.0 + integrate(mesh, prob.F.norms())

    system = _BandSystem(prob)
    F = system.F
    trace, res = [], np.nan

    def linear(method, arg, it):
        try:
            return method(arg)
        except LinAlgError as err:
            raise NonConvergenceError(
                f"frozen-coefficient solve failed at outer iteration {it} "
                f"(eps {eps:.3e}): {err}", trace, res) from err

    if u0 is None:
        linear(system.factor, np.ones(mesh.num_elements), 0)
        lift = F - _gradient_planes(mesh, system.g_full)
        u = NodalField(system.g_full + linear(system.apply, _flux_load(mesh, lift), 0))
    else:
        values = u0.values.copy()
        values[mesh.boundary_nodes] = prob.g
        u = NodalField(values)

    # the one gradient of each accepted iterate feeds everything below
    grad = _gradient_planes(mesh, u.values)
    trace.append(_energy_of(prob, F, grad, eps))
    res = _residual_of(prob, F, grad, norm)
    if res <= cfg.tol_residual:
        return Solution(u, 0, trace, res, system.factorizations)

    # each step preconditions the loads of F - kappa grad u by the last factor
    step, step_grad = 0.0, np.zeros_like(grad)      # the last accepted step s
    refactor = True
    for it in range(1, cfg.max_iter + 1):
        a = eps * eps + _dot(grad, grad)
        k = a ** ((p - 2.0) / 2.0)
        kappa = np.clip(k, kmin, kmax)
        loads = _flux_load(mesh, F - kappa * grad)
        while True:
            if refactor:
                linear(system.factor, kappa, it)
            direction = linear(system.apply, loads, it)     # zero on boundary rows
            dir_grad = _gradient_planes(mesh, direction)
            found = _plane_step(_plane(prob, F, a, grad, dir_grad, step_grad, eps, k),
                                trace[-1])
            if found is not None:
                break
            if refactor:
                raise NonConvergenceError(
                    f"Kacanov step kept increasing the regularized energy at outer "
                    f"iteration {it} (eps {eps:.3e})", trace, res)
            refactor = True                 # retake the step on a fresh factor
        (x, y), e = found
        step, step_grad = x * direction + y * step, x * dir_grad + y * step_grad
        u = NodalField(u.values + step)
        trace.append(min(e, trace[-1]))              # e may exceed it by the slack
        grad = _gradient_planes(mesh, u.values)
        prev, res = res, _residual_of(prob, F, grad, norm)
        if res <= cfg.tol_residual:
            return Solution(u, it, trace, res, system.factorizations)
        refactor = res > _REFACTOR_RATE * prev

    raise NonConvergenceError(
        f"no convergence within {cfg.max_iter} iterations "
        f"(residual {res:.3e} > {cfg.tol_residual:.3e})", trace, res)


def solve_pharmonic(mesh: Mesh, p: Exponent, g, cfg: Optional[SolverConfig] = None):
    """Dirichlet problem with F = 0: the discrete p-harmonic extension of g."""
    g = np.atleast_2d(np.asarray(g, dtype=float))
    F = ElemField.zeros(mesh, rows=g.shape[1])
    return solve(DirichletProblem(p, mesh, F, g), cfg)
