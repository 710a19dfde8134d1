"""
Independent COO reference assembly for the tests.

``from_triplets`` sums (row, col, value) contributions into a canonical
scipy CSR matrix through ``scipy.sparse.coo_matrix``.  The ``coo_*``
functions assemble the package's four matrices the way it did before it
assembled on the edge-graph pattern: one triplet per triangle and local
entry, summed by scipy.  The package's assembly must match them.
"""

import numpy as np
import scipy.sparse as sp

from eafe_control.eafe import EdgeData
from eafe_control.fem_core import (
    QUADRATURE,
    barycentric_gradient_table,
    lumped_mass_diagonal,
    quadrature_points,
)
from eafe_control.mesh import LOCAL_EDGES, signed_areas


def from_triplets(nrows, ncols, triplets):
    """
    Assemble a canonical ``scipy.sparse.csr_matrix`` from (row, col,
    value) contributions.

    ``triplets`` is either an iterable of (row, col, value) triples or a
    (rows, cols, values) tuple of arrays.  Duplicate positions are summed
    and column indices are sorted within each row.  Explicit zeros are
    kept.

    Raises
    ------
    IndexError
        If any index lies outside [0, nrows) x [0, ncols).
    """
    if isinstance(triplets, tuple) and len(triplets) == 3:
        rows, cols, vals = triplets
    else:
        triplets = list(triplets)
        if triplets:
            rows, cols, vals = zip(*triplets)
        else:
            rows, cols, vals = (), (), ()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise IndexError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= ncols):
        raise IndexError("column index out of range")
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    csr.sum_duplicates()
    return csr


def _from_blocks(mesh, local, extra=((), (), ())):
    """CSR matrix of (M, 3, 3) element blocks plus optional extra triplets."""
    t = mesh.triangles
    rows = [t[:, a] for a in range(3) for b in range(3)] + list(extra[0])
    cols = [t[:, b] for a in range(3) for b in range(3)] + list(extra[1])
    vals = [local[:, a, b] for a in range(3) for b in range(3)] + list(extra[2])
    n = mesh.num_vertices
    return from_triplets(n, n, (np.concatenate(rows), np.concatenate(cols),
                                np.concatenate(vals)))


def coo_mass(mesh):
    """Consistent P1 mass matrix from area/12 * [[2,1,1],[1,2,1],[1,1,2]]."""
    local = np.broadcast_to(
        signed_areas(mesh)[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0,
        (mesh.num_triangles, 3, 3))
    return _from_blocks(mesh, local)


def _quadrature_blocks(mesh, integrand):
    """
    (M, 3, 3) blocks of sum_q w_q area integrand(xq, yq, lam, q)[a, b],
    where the integrand returns an (M, 3, 3) array.
    """
    areas = signed_areas(mesh)
    x, y = quadrature_points(mesh)
    local = np.zeros((mesh.num_triangles, 3, 3))
    for q, (lam, w) in enumerate(zip(QUADRATURE.points, QUADRATURE.weights)):
        local += (w * areas)[:, None, None] * integrand(x[q], y[q], lam)
    return local


def coo_galerkin(mesh, coeff):
    """Standard P1 stiffness: eps grad.grad + (zeta . grad phi_i) phi_j + gamma."""
    grads = barycentric_gradient_table(mesh)

    def integrand(xq, yq, lam):
        zx, zy = coeff.zeta(xq, yq)
        eps = np.broadcast_to(coeff.eps(xq, yq), xq.shape)
        gam = np.broadcast_to(coeff.gamma(xq, yq), xq.shape)
        conv = zx[:, None] * grads[:, :, 0] + zy[:, None] * grads[:, :, 1]
        return (eps[:, None, None] * np.einsum("mad,mbd->mab", grads, grads)
                + conv[:, :, None] * lam[None, None, :]
                + gam[:, None, None] * np.outer(lam, lam))

    return _from_blocks(mesh, _quadrature_blocks(mesh, integrand))


def coo_eafe(mesh, coeff, lump_reaction=True):
    """
    Edge-averaged stiffness from per-triangle triplets: local edge (i, j)
    of a triangle with weight omega adds omega * c_ij at (j, j), -omega *
    c_ji at (j, i), -omega * c_ij at (i, j) and omega * c_ji at (i, i),
    with the flux pair oriented from i to j.
    """
    data = EdgeData(mesh, coeff)
    t = mesh.triangles
    rows, cols, vals = [], [], []
    for k, (a, b) in enumerate(LOCAL_EDGES):
        i, j = t[:, a], t[:, b]
        e = mesh.tri_edges[:, k]
        forward = i < j
        c_ij = np.where(forward, data.c_ij[e], data.c_ji[e])
        c_ji = np.where(forward, data.c_ji[e], data.c_ij[e])
        omega = data.tri_weights[:, k]
        rows += [j, j, i, i]
        cols += [j, i, j, i]
        vals += [omega * c_ij, -omega * c_ji, -omega * c_ij, omega * c_ji]
    if lump_reaction:
        xv, yv = mesh.vertices[:, 0], mesh.vertices[:, 1]
        idx = np.arange(mesh.num_vertices)
        rows.append(idx)
        cols.append(idx)
        vals.append(np.broadcast_to(coeff.gamma(xv, yv), xv.shape)
                    * lumped_mass_diagonal(mesh))
        local = np.zeros((mesh.num_triangles, 3, 3))
    else:
        local = _quadrature_blocks(
            mesh, lambda xq, yq, lam: np.broadcast_to(
                coeff.gamma(xq, yq), xq.shape)[:, None, None]
            * np.outer(lam, lam))
    return _from_blocks(mesh, local, (rows, cols, vals))
