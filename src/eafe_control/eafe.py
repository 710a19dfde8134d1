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
    CoefficientError,
    DataError,
    fold_blocks,
    lumped_mass_diagonal,
    quadrature_points,
    scatter_edges,
)
from .mesh import LOCAL_EDGES, delaunay_report

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

    The weight of local edge k = (a, b) in triangle T is half the
    cotangent of the angle at the opposite corner c = 3 - a - b,

        w[T, k] = (p_a - p_c) . (p_b - p_c) / (4 area_T),

    which equals -area_T grad(lambda_a) . grad(lambda_b).  Summed over
    the one or two adjacent triangles these weights reproduce the P1
    Laplacian exactly on piecewise linears.  Only the vertices, the
    triangles and the mesh's areas are read, so no barycentric gradient
    table (:func:`fem_core.barycentric_gradient_table`) is built.  On
    :func:`mesh.build_unit_square` meshes every coordinate difference and
    area is an integer times a power of two, so this form and the
    gradient form are both exact and give equal values.  Every area is
    above :data:`mesh.DEGENERATE_AREA`, checked when the mesh is built.
    """
    quad_areas = 4.0 * mesh.areas
    # corner coordinates, (M, 3) each
    x = np.take(mesh.vertices[:, 0], mesh.triangles)
    y = np.take(mesh.vertices[:, 1], mesh.triangles)
    w = np.empty((mesh.num_triangles, 3))
    for k, (a, b) in enumerate(LOCAL_EDGES):
        c = 3 - a - b
        w[:, k] = ((x[:, a] - x[:, c]) * (x[:, b] - x[:, c])
                   + (y[:, a] - y[:, c]) * (y[:, b] - y[:, c])) / quad_areas
    return w


def edge_flux_coefficients(eps_e, zeta_e, x_i, x_j):
    """
    Exponentially fitted two-point flux coefficients of one edge.

    Returns (c_ij, c_ji) where the flux degree of freedom along the edge
    from x_i to x_j is c_ij * y(x_j) - c_ji * y(x_i).  Both are positive
    (the downwind one underflows to exactly 0 once the edge Peclet number
    leaves the representable exponential range) and they satisfy
    c_ij - c_ji = zeta_e . (x_j - x_i).

    Raises
    ------
    CoefficientError
        If an edge diffusion is not positive.
    """
    eps_e = np.asarray(eps_e, dtype=float)
    if np.any(eps_e <= 0.0):
        raise CoefficientError("edge diffusion must be positive")
    zeta_e = np.asarray(zeta_e, dtype=float)
    tau = np.asarray(x_j, dtype=float) - np.asarray(x_i, dtype=float)
    s = (zeta_e * tau).sum(axis=-1) / eps_e
    c_ij = eps_e * bernoulli(-s)
    c_ji = eps_e * bernoulli(s)
    return c_ij, c_ji


def assemble_eafe_stiffness(mesh, coeff, lump_reaction=True):
    """
    Edge-averaged stiffness matrix over all dofs, as a CSR matrix from
    :func:`fem_core.scatter_edges`.

    The vertex samples of eps and zeta are averaged onto each mesh edge
    (i, j), i < j, as the means eps_E and zeta_E of its endpoint values.
    The Bernoulli flux pair of :func:`edge_flux_coefficients` is evaluated
    once per mesh edge and weighted by the summed edge weight omega_E, the
    sum over adjacent triangles of half the cotangent of the angle
    opposite E (:func:`triangle_edge_weights`, summed by
    :func:`mesh.delaunay_report`): edge (i, j) gives entries -omega_E c_ij
    at (i, j) and -omega_E c_ji at (j, i), and their negatives on the
    diagonals (j, j) and (i, i), summed by ``np.bincount``.  The reaction
    term enters as a lumped diagonal gamma(x_i) * patch_area / 3 by default
    (preserving the M-matrix sign pattern); ``lump_reaction=False`` uses
    the consistent mass weighted by gamma instead, integrated with
    :data:`fem_core.QUADRATURE` and folded onto the edges
    (:func:`fem_core.fold_blocks`).

    A failed edge-weight (Delaunay) check of the summed weights does not
    abort assembly; it is raised as a MonotonicityLossWarning so the
    verification layer can decide.  The coefficients are sampled at the
    vertices and, for the consistent reaction, once per quadrature row,
    each time by :meth:`fem_core.CoefficientField.samples`: a non-finite
    sample raises DataError, a nonpositive diffusion or negative reaction
    sample CoefficientError.
    """
    eps_v, zx_v, zy_v, gamma_v = coeff.samples(mesh.vertices[:, 0],
                                               mesh.vertices[:, 1])
    i, j = mesh.edges.T
    eps_e = 0.5 * (eps_v[i] + eps_v[j])
    zeta_e = np.column_stack(
        [0.5 * (zx_v[i] + zx_v[j]), 0.5 * (zy_v[i] + zy_v[j])]
    )
    weights, delaunay = delaunay_report(mesh, triangle_edge_weights(mesh))
    c_ij, c_ji = edge_flux_coefficients(eps_e, zeta_e, mesh.vertices[i],
                                        mesh.vertices[j])
    # freed here: kept to the end, they lift the bl-conv-l8 peak by 1.5 MB
    del eps_v, zx_v, zy_v
    n = mesh.num_vertices
    ij = -weights * c_ij
    ji = -weights * c_ji
    diag = -(np.bincount(i, weights=ji, minlength=n)
             + np.bincount(j, weights=ij, minlength=n))

    if lump_reaction:
        diag += gamma_v * lumped_mass_diagonal(mesh)
    else:
        areas = mesh.areas
        local = np.zeros((mesh.num_triangles, 3, 3))
        for lam, w, xq, yq in quadrature_points(mesh):
            scale = w * areas * coeff.samples(xq, yq)[3]
            for a in range(3):
                for b in range(3):
                    local[:, a, b] += scale * lam[a] * lam[b]
        for total, part in zip((diag, ij, ji), fold_blocks(mesh, local)):
            total += part

    mat = scatter_edges(mesh, diag, ij, ji)
    if not delaunay.ok:
        warnings.warn(
            "edge-weight condition violated on %d edge(s); the assembled "
            "matrix may lose the M-matrix sign pattern"
            % len(delaunay.violating_edges),
            MonotonicityLossWarning,
            stacklevel=2,
        )
    return mat
