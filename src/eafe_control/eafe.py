"""
Edge-averaged finite element (EAFE) discretization of the
convection-diffusion(-reaction) operator.

The elementwise flux integral of the standard P1 method is replaced by
exponentially fitted two-point fluxes on the element edges.  Per edge E
with endpoints x_i -> x_j, edge-averaged coefficients eps_E, zeta_E (the
arithmetic mean of the endpoint values) define the flux degree of freedom

    c_ij * y(x_j) - c_ji * y(x_i),

where c_ij = eps_E * B(zeta_E . (x_i - x_j) / eps_E) and
c_ji = eps_E * B(zeta_E . (x_j - x_i) / eps_E), with B the Bernoulli
function B(x) = x / (e^x - 1), B(0) = 1.  Both coefficients are strictly
positive, so the assembled matrix keeps nonpositive off-diagonal entries
exactly when the summed edge weights are nonnegative (the Delaunay
condition); the scheme is then an M-matrix and inherits the discrete
maximum principle.
"""

import warnings

import numpy as np

from .fem_core import (
    QUADRATURE,
    CoefficientError,
    DataError,
    barycentric_gradient_table,
    finite_samples,
    lumped_mass_diagonal,
    quadrature_points,
)
from .mesh import LOCAL_EDGES, delaunay_report, signed_areas
from .sparse_linalg import from_triplets

#: switch-over into the overflow-safe evaluation branch
_BIG_ARG = 700.0


class MonotonicityLossWarning(UserWarning):
    """Edge-weight (Delaunay) condition failed; off-diagonal signs may flip."""


def bernoulli(x):
    """
    Bernoulli function B(x) = x / (e^x - 1), continuously extended with
    B(0) = 1.

    Stable over the whole double range: for x > 700 the equivalent form
    x e^{-x} / (1 - e^{-x}) is used (underflows gracefully to 0), and for
    large negative x the direct formula already yields -x since
    expm1(x) -> -1.  Scalar input gives scalar output.

    Raises
    ------
    DataError
        If any input is NaN or infinite.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DataError("Bernoulli function requires finite input")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.ones_like(arr)
    moderate = (arr != 0.0) & (arr <= _BIG_ARG)
    xm = arr[moderate]
    out[moderate] = xm / np.expm1(xm)
    big = arr > _BIG_ARG
    if np.any(big):
        e = np.exp(-arr[big])
        out[big] = arr[big] * e / (1.0 - e)
    return out[0] if scalar else out


def triangle_edge_weights(mesh):
    """
    Edge weights of every triangle, shape (M, 3) in LOCAL_EDGES order.

    The weight of edge (i, j) in triangle T is -area * grad(lambda_i) .
    grad(lambda_j), equal to half the cotangent of the angle opposite the
    edge.  Summed over the one or two adjacent triangles these weights
    reproduce the P1 Laplacian exactly on piecewise linears.
    """
    grads = barycentric_gradient_table(mesh)
    areas = signed_areas(mesh)
    w = np.empty((mesh.num_triangles, 3))
    for k, (a, b) in enumerate(LOCAL_EDGES):
        w[:, k] = -areas * np.einsum("md,md->m", grads[:, a, :], grads[:, b, :])
    return w


def edge_flux_coefficients(eps_e, zeta_e, x_i, x_j):
    """
    Exponentially fitted two-point flux coefficients of one edge.

    Returns (c_ij, c_ji) where the flux degree of freedom along the edge
    from x_i to x_j is c_ij * y(x_j) - c_ji * y(x_i).  Both are positive
    (the downwind one underflows to exactly 0 once the edge Peclet number
    leaves the representable exponential range) and they satisfy
    c_ij - c_ji = zeta_e . (x_j - x_i).
    """
    eps_e = np.asarray(eps_e, dtype=float)
    if np.any(eps_e <= 0.0):
        raise ValueError("edge diffusion must be positive")
    zeta_e = np.asarray(zeta_e, dtype=float)
    tau = np.asarray(x_j, dtype=float) - np.asarray(x_i, dtype=float)
    s = (zeta_e * tau).sum(axis=-1) / eps_e
    c_ij = eps_e * bernoulli(-s)
    c_ji = eps_e * bernoulli(s)
    return c_ij, c_ji


class EdgeData:
    """
    Per-edge quantities of a mesh/coefficient pair, canonical orientation
    i < j with tau = x_j - x_i; what the edge-averaged assembly is built
    from.

    Attributes
    ----------
    eps_e, zeta_e : midpoint-averaged diffusion / convection per edge
    tau : (E, 2) scaled tangent vectors
    tri_weights : (M, 3) edge weights per triangle, LOCAL_EDGES order
    weights : (E,) edge weights summed over adjacent triangles
    delaunay : DelaunayReport of the summed weights
    c_ij, c_ji : flux coefficients (c_ij multiplies the head value)

    Raises
    ------
    DataError
        If a diffusion or convection sample is not finite.
    CoefficientError
        If the diffusion sampled at the vertices violates its declared
        bounds or is not positive.
    """

    def __init__(self, mesh, coeff):
        xv = mesh.vertices[:, 0]
        yv = mesh.vertices[:, 1]
        eps_v = finite_samples("diffusion", coeff.eps(xv, yv), xv.shape)
        zx_v, zy_v = (finite_samples("convection", c, xv.shape)
                      for c in coeff.zeta(xv, yv))
        coeff.check_samples(xv, yv, eps_v)
        if np.min(eps_v) <= 0.0:
            # the exponential fitting divides by the edge-averaged diffusion
            raise CoefficientError("edge-averaged assembly needs positive diffusion")
        i = mesh.edges[:, 0]
        j = mesh.edges[:, 1]
        self.eps_e = 0.5 * (eps_v[i] + eps_v[j])
        self.zeta_e = np.column_stack(
            [0.5 * (zx_v[i] + zx_v[j]), 0.5 * (zy_v[i] + zy_v[j])]
        )
        self.tau = mesh.vertices[j] - mesh.vertices[i]
        self.tri_weights = triangle_edge_weights(mesh)
        self.weights, self.delaunay = delaunay_report(mesh, self.tri_weights)
        self.c_ij, self.c_ji = edge_flux_coefficients(
            self.eps_e, self.zeta_e, mesh.vertices[i], mesh.vertices[j]
        )


def assemble_eafe_stiffness(mesh, coeff, lump_reaction=True):
    """
    Edge-averaged stiffness matrix over all dofs, as a canonical scipy
    CSR matrix.

    The Bernoulli flux pair of :func:`edge_flux_coefficients` is evaluated
    once per mesh edge (:class:`EdgeData`) and scattered with the weights
    -area * grad(lambda_i) . grad(lambda_j) of each adjacent triangle.
    The reaction term enters as a lumped diagonal gamma(x_i) *
    patch_area / 3 by default (preserving the M-matrix sign pattern);
    ``lump_reaction=False`` uses the consistent mass weighted by gamma,
    integrated with :data:`QUADRATURE`, instead.

    A failed edge-weight (Delaunay) check of the summed weights does not
    abort assembly; it is raised as a MonotonicityLossWarning so the
    verification layer can decide.  A non-finite coefficient sample raises
    DataError.
    """
    data = EdgeData(mesh, coeff)
    t = mesh.triangles
    rows, cols, vals = [], [], []
    for k, (a, b) in enumerate(LOCAL_EDGES):
        i = t[:, a]
        j = t[:, b]
        # per-edge coefficients are stored for the orientation i < j
        e = mesh.tri_edges[:, k]
        forward = i < j
        c_ij = np.where(forward, data.c_ij[e], data.c_ji[e])
        c_ji = np.where(forward, data.c_ji[e], data.c_ij[e])
        omega = data.tri_weights[:, k]
        # per-triangle triplets, not per-edge sums: scipy's duplicate
        # summation order, and so the last bit of each entry, follows them
        rows += [j, j, i, i]
        cols += [j, i, j, i]
        vals += [omega * c_ij, -omega * c_ji, -omega * c_ij, omega * c_ji]

    if lump_reaction:
        xv = mesh.vertices[:, 0]
        yv = mesh.vertices[:, 1]
        gam_v = finite_samples("reaction", coeff.gamma(xv, yv), xv.shape)
        diag = gam_v * lumped_mass_diagonal(mesh)
        idx = np.arange(mesh.num_vertices)
        rows.append(idx)
        cols.append(idx)
        vals.append(diag)
    else:
        areas = signed_areas(mesh)
        x, y = quadrature_points(mesh)
        local = np.zeros((mesh.num_triangles, 3, 3))
        for q, (lam, w) in enumerate(zip(QUADRATURE.points, QUADRATURE.weights)):
            xq, yq = x[q], y[q]
            gq = finite_samples("reaction", coeff.gamma(xq, yq), xq.shape)
            scale = w * areas * gq
            for a in range(3):
                for b in range(3):
                    local[:, a, b] += scale * lam[a] * lam[b]
        for a in range(3):
            for b in range(3):
                rows.append(t[:, a])
                cols.append(t[:, b])
                vals.append(local[:, a, b])

    n = mesh.num_vertices
    mat = from_triplets(
        n, n, (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    )
    if not data.delaunay.ok:
        warnings.warn(
            "edge-weight condition violated on %d edge(s); the assembled "
            "matrix may lose the M-matrix sign pattern"
            % len(data.delaunay.violating_edges),
            MonotonicityLossWarning,
            stacklevel=2,
        )
    return mat
