"""Vertex connectivity of a mesh, the reference of the element-loop tests.

A mesh stores none: its geometry, gradients and loads are slices of the
(M + 1) x (M + 1) node grid.  The tests check those against the
element-by-element formulas, which need each triangle's vertices and the
gradients of its barycentric basis functions.
"""

import numpy as np


def elements(M):
    """(2 M^2, 3) vertex indices of an M x M lattice: the lower triangle
    (n00, n10, n11) of every cell, row-major, then the upper one
    (n00, n11, n01)."""
    n00 = (np.arange(M)[:, None] * (M + 1) + np.arange(M)).ravel()
    n10 = n00 + 1
    n01 = n00 + (M + 1)
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])   # below the diagonal
    upper = np.column_stack([n00, n11, n01])   # above the diagonal
    return np.vstack([lower, upper]).astype(np.int64)


def basis_gradients(verts):
    """(E, 3, 2) gradients of the three barycentric basis functions of
    every triangle, from its (E, 3, 2) vertex coordinates, in their order."""
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    inv_t = np.empty((len(det), 2, 2))
    inv_t[:, 0, 0] = d2[:, 1]
    inv_t[:, 0, 1] = -d2[:, 0]
    inv_t[:, 1, 0] = -d1[:, 1]
    inv_t[:, 1, 1] = d1[:, 0]
    inv_t /= det[:, None, None]
    grad = np.empty((len(det), 3, 2))
    grad[:, 1] = inv_t[:, 0]
    grad[:, 2] = inv_t[:, 1]
    grad[:, 0] = -grad[:, 1] - grad[:, 2]
    return grad


def connectivity(mesh):
    """(elements, basis_gradients) of a mesh."""
    elems = elements(mesh.cells_per_side)
    return elems, basis_gradients(mesh.nodes[elems])
