"""
P1 Lagrange ingredients shared by the standard Galerkin and the
edge-averaged paths: barycentric gradients, the quadrature rule QUADRATURE,
the edge-graph CSR pattern every matrix is assembled on, mass and
stiffness assembly, load vectors, and nodal interpolation.

Scalar fields are callables ``f(x, y) -> array`` accepting numpy arrays;
vector fields return a pair ``(fx, fy)``.  Plain numbers / pairs are
accepted everywhere and wrapped into constant fields.
"""

from collections import namedtuple

import numpy as np
import scipy.sparse as sp

from .mesh import LOCAL_EDGES, GeometryError, signed_areas

DEGENERATE_AREA = 1e-16
#: triangles per block of the load pass (:func:`assemble_load`)
LOAD_BLOCK = 16384


class CoefficientError(ValueError):
    """Sampled coefficients violate their declared bounds."""


class DataError(ValueError):
    """Non-finite sample from user-supplied data."""


def as_scalar_field(f):
    """Wrap a constant into a vectorized scalar field; pass callables through."""
    if callable(f):
        return f
    c = float(f)

    def const(x, y):
        return np.full(np.broadcast(x, y).shape, c)

    return const


def as_vector_field(v):
    """Wrap a constant pair into a vectorized vector field."""
    if callable(v):
        return v
    vx, vy = float(v[0]), float(v[1])

    def const(x, y):
        shape = np.broadcast(x, y).shape
        return np.full(shape, vx), np.full(shape, vy)

    return const


class CoefficientField:
    """
    Diffusion / convection / reaction data of the constrained equation.

    Parameters
    ----------
    eps : scalar field or number
        Diffusion coefficient, strictly positive.
    zeta : vector field or pair
        Convection field.
    gamma : scalar field or number
        Nonnegative reaction coefficient; assembly raises CoefficientError
        on a negative sample (:func:`reaction_samples`).
    beta : float
        Control-cost weight (kept at 1 for the discrete optimality system).
    eps_floor : float, optional
        Claimed lower bound for eps; checked wherever eps is sampled.
    gamma_assumption : float
        Claimed lower bound gamma - div(zeta)/2 >= gamma_assumption.  Only
        enforced when positive, and then ``div_zeta`` is required.
    div_zeta : scalar field, optional
        Analytic divergence of zeta.
    """

    def __init__(self, eps, zeta, gamma, beta=1.0, eps_floor=None,
                 gamma_assumption=0.0, div_zeta=None):
        self.eps = as_scalar_field(eps)
        self.zeta = as_vector_field(zeta)
        self.gamma = as_scalar_field(gamma)
        self.beta = float(beta)
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if eps_floor is None and not callable(eps):
            eps_floor = float(eps)
        self.eps_floor = eps_floor
        self.gamma_assumption = float(gamma_assumption)
        if self.gamma_assumption > 0.0 and div_zeta is None:
            raise ValueError("a positive gamma_assumption needs div_zeta")
        self.div_zeta = as_scalar_field(div_zeta) if div_zeta is not None else None

    def check_samples(self, x, y, eps_values):
        """Enforce the declared bounds at samples where eps is ``eps_values``."""
        emin = np.min(eps_values)
        if self.eps_floor is None:
            # no declared bound: still insist on positive diffusion
            if emin <= 0.0:
                raise CoefficientError(
                    "sampled diffusion %.3g is not positive" % emin
                )
        elif emin < self.eps_floor:
            raise CoefficientError(
                "sampled diffusion %.3g below declared floor %.3g"
                % (emin, self.eps_floor)
            )
        if self.gamma_assumption > 0.0:
            eff = self.gamma(x, y) - 0.5 * self.div_zeta(x, y)
            worst = np.min(finite_samples("gamma - div(zeta)/2", eff, np.shape(x)))
            if worst < self.gamma_assumption * (1.0 - 1e-8):
                raise CoefficientError(
                    "gamma - div(zeta)/2 reaches %.3g, below the declared "
                    "bound %.3g" % (worst, self.gamma_assumption)
                )


def finite_samples(what, values, shape):
    """Samples as floats broadcast to ``shape``; DataError unless all finite."""
    values = np.broadcast_to(np.asarray(values, dtype=float), shape)
    if not np.all(np.isfinite(values)):
        raise DataError("%s produced a non-finite sample" % what)
    return values


def reaction_samples(coeff, x, y):
    """
    The reaction gamma at ``(x, y)``, broadcast to the shape of ``x``.
    DataError unless every sample is finite; CoefficientError, naming the
    smallest sample, if one is negative, since the M-matrix and
    desired-state bound arguments need gamma >= 0.
    """
    gam = finite_samples("reaction", coeff.gamma(x, y), np.shape(x))
    worst = gam.min(initial=0.0)
    if worst < 0.0:
        raise CoefficientError("sampled reaction %.3g is negative" % worst)
    return gam


class QuadratureRule:
    """
    Symmetric quadrature on the reference triangle in barycentric form.

    ``points`` has shape (nq, 3) of barycentric coordinates, ``weights``
    sums to one, and the rule is exact for polynomials up to ``degree``.
    Both arrays are read-only.
    """

    def __init__(self, points, weights, degree):
        self.points = np.array(points, dtype=float)
        self.weights = np.array(weights, dtype=float)
        self.points.flags.writeable = self.weights.flags.writeable = False
        self.degree = int(degree)


def _seven_point_rule():
    s15 = np.sqrt(15.0)
    a = (6.0 + s15) / 21.0
    b = (6.0 - s15) / 21.0
    wa = (155.0 + s15) / 1200.0
    wb = (155.0 - s15) / 1200.0
    pts = [
        [1 / 3, 1 / 3, 1 / 3],
        [1 - 2 * a, a, a],
        [a, 1 - 2 * a, a],
        [a, a, 1 - 2 * a],
        [1 - 2 * b, b, b],
        [b, 1 - 2 * b, b],
        [b, b, 1 - 2 * b],
    ]
    w = [9 / 40, wa, wa, wa, wb, wb, wb]
    return QuadratureRule(pts, w, degree=5)


#: the 7-point rule of degree 5, used by every integral not computed exactly
QUADRATURE = _seven_point_rule()


def barycentric_gradient_table(mesh):
    """
    Gradients of the three barycentric coordinates on every triangle,
    shape (M, 3, 2), read-only and computed once per mesh, by its first
    caller: Galerkin assembly or the error norms.  EAFE assembly takes its
    edge weights from the areas (:func:`eafe.triangle_edge_weights`) and
    does not build it.  Gradient of coordinate c is perpendicular to the
    opposite edge, scaled by 1 / (2 area).

    Raises
    ------
    GeometryError
        On every call, if a triangle's area is at most DEGENERATE_AREA.
    """
    return mesh.cached("gradients", lambda: _barycentric_gradients(mesh))


def nondegenerate_areas(mesh):
    """
    :func:`mesh.signed_areas`, checked on every call.

    Raises
    ------
    GeometryError
        If a triangle's area is at most DEGENERATE_AREA.
    """
    areas = signed_areas(mesh)
    if np.any(areas <= DEGENERATE_AREA):
        bad = int(np.argmin(areas))
        raise GeometryError("triangle %d is degenerate (area %g)" % (bad, areas[bad]))
    return areas


def _barycentric_gradients(mesh):
    p = np.take(mesh.vertices, mesh.triangles, axis=0)
    areas = nondegenerate_areas(mesh)
    grads = np.empty((mesh.num_triangles, 3, 2))
    for c, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        opp = p[:, k] - p[:, j]
        grads[:, c, 0] = -opp[:, 1]
        grads[:, c, 1] = opp[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return grads


def quadrature_points(mesh):
    """
    The :data:`QUADRATURE` rule mapped onto every triangle, one point at a
    time: yields ``(lam, w, x, y)`` for each point q, with its barycentric
    coordinates ``lam`` (3,), its weight ``w``, and the physical
    coordinates ``x``, ``y`` of point q on every triangle, two read-only
    (M,) arrays.

    Each row is mapped when it is reached, and nothing is kept on the
    mesh: a caller that loops over the rows holds one row at a time, never
    the whole (2, nq, M) table (225 MB at level 10).
    """
    # (M, 3, 2) corner coordinates; np.take gathers whole rows several
    # times faster than fancy indexing and gives the same array
    p = np.take(mesh.vertices, mesh.triangles, axis=0)
    for lam, w in zip(QUADRATURE.points, QUADRATURE.weights):
        # one product per point and coordinate: a batched points @ p[:, :, c].T
        # rounds the last bit differently on some coordinates
        x, y = lam @ p[:, :, 0].T, lam @ p[:, :, 1].T
        x.flags.writeable = y.flags.writeable = False
        yield lam, w, x, y


#: the edge-graph CSR pattern of a mesh and where each entry lives in it
EdgePattern = namedtuple("EdgePattern", "indptr indices diag ij ji")


def edge_pattern(mesh):
    """
    CSR pattern of every matrix assembled on ``mesh``: the diagonal and
    both directions (i, j), (j, i) of every edge, column indices sorted
    within each row.

    A P1 or edge-averaged matrix couples exactly the two ends of an edge,
    so this is the canonical CSR of all of them, explicit zeros included;
    the sparse LU ordering sees this pattern.  Besides ``indptr`` and
    ``indices`` the :class:`EdgePattern` holds slot maps into the data
    array: ``diag`` (N,) of entry (i, i), and ``ij``, ``ji`` (E,) of
    entries (i, j) and (j, i) of edge (i, j), i < j.  Index arrays are
    int32 while the entry count allows.

    Each call builds fresh, writable arrays in O(N + E), and the mesh
    keeps none of them: only assembly reads the pattern, so a cached one
    would stay alive beside the factor (3.8 MiB at level 8).  The mesh
    edges come sorted by (i, j), so they are already the CSR of the
    strict upper triangle, one entry per edge holding its number; one
    counting pass (``tocsc``) sorts them by (j, i) into the strict lower
    triangle.  Row r of the pattern is its lower part, then the
    diagonal, then its upper part, so every slot follows from the two
    row counts without a sort.
    """
    n, ne = mesh.num_vertices, mesh.num_edges
    index = np.int32 if n + 2 * ne <= np.iinfo(np.int32).max else np.int64
    i, j = mesh.edges.T
    rows = np.arange(n + 1, dtype=index)
    upper_ptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(i, minlength=n), out=upper_ptr[1:])
    # entry (j, i) of the strict lower triangle holds the number of edge (i, j)
    lower = sp.csr_matrix((np.arange(ne, dtype=index), j, upper_ptr),
                          shape=(n, n)).tocsc()
    # row r starts after r diagonals and the lower and upper entries of
    # the rows above it
    indptr = upper_ptr + lower.indptr + rows
    diag = indptr[:-1] + np.diff(lower.indptr)
    # edge k is the (k - upper_ptr[i])-th upper entry of row i, after the
    # diagonal; lower entry p of row r lies p - lower.indptr[r] slots
    # after the row start
    ij = (diag - upper_ptr[:-1])[i] + np.arange(1, ne + 1, dtype=index)
    below = np.arange(ne, dtype=index) + np.repeat((upper_ptr + rows)[:-1],
                                                   np.diff(lower.indptr))
    ji = np.empty(ne, dtype=index)
    ji[lower.data] = below
    indices = np.empty(n + 2 * ne, dtype=index)
    indices[diag] = rows[:-1]
    indices[ij] = j
    indices[below] = lower.indices
    return EdgePattern(indptr, indices, diag, ij, ji)


def scatter_edges(mesh, diag, ij, ji):
    """
    CSR matrix on :func:`edge_pattern` with ``diag`` (N,) on the diagonal
    and ``ij``, ``ji`` (E,) at entries (i, j) and (j, i) of every edge
    (i, j), i < j.  Every matrix of the package is built here; the
    pattern is built for this call, and the result takes its index
    arrays without a copy.
    """
    pattern = edge_pattern(mesh)
    data = np.empty(pattern.indices.size)
    data[pattern.diag] = diag
    data[pattern.ij] = ij
    data[pattern.ji] = ji
    n = mesh.num_vertices
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


def fold_blocks(mesh, local):
    """
    Sum element blocks ``local`` (M, 3, 3), entry (a, b) coupling test
    vertex a with trial vertex b, onto the mesh: returns the (diag, ij,
    ji) arguments of :func:`scatter_edges`.  Local edge k of a triangle
    is mesh edge ``tri_edges[:, k]``; its (a, b) and (b, a) entries land
    on (i, j) and (j, i) as its orientation says.
    """
    t = mesh.triangles
    n, ne = mesh.num_vertices, mesh.num_edges
    diag = np.zeros(n)
    ij = np.zeros(ne)
    ji = np.zeros(ne)
    for a in range(3):
        diag += np.bincount(t[:, a], weights=local[:, a, a], minlength=n)
    for k, (a, b) in enumerate(LOCAL_EDGES):
        e = mesh.tri_edges[:, k]
        forward = t[:, a] < t[:, b]
        ij += np.bincount(e, weights=np.where(forward, local[:, a, b],
                                              local[:, b, a]), minlength=ne)
        ji += np.bincount(e, weights=np.where(forward, local[:, b, a],
                                              local[:, a, b]), minlength=ne)
    return diag, ij, ji


def assemble_mass(mesh):
    """
    Consistent P1 mass matrix over all dofs (exact integration), as a CSR
    matrix on :func:`edge_pattern`.

    The local block is area/12 * [[2,1,1],[1,2,1],[1,1,2]], so entry
    (i, j) of an edge is a twelfth of the area of its one or two
    triangles (``edge_tris``), and the diagonal is half the lumped one.
    Entries are nonnegative and row sums equal a third of the vertex
    patch area.
    """
    areas = signed_areas(mesh)
    first, second = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    off = (areas[first] + np.where(second >= 0, areas[second], 0.0)) / 12.0
    return scatter_edges(mesh, 0.5 * lumped_mass_diagonal(mesh), off, off)


def lumped_mass_diagonal(mesh):
    """Row-sum (patch-area / 3) lumping of the P1 mass matrix."""
    areas = signed_areas(mesh)
    return np.bincount(mesh.triangles.T.ravel(), weights=np.tile(areas / 3.0, 3),
                       minlength=mesh.num_vertices)


def assemble_galerkin_stiffness(mesh, coeff):
    """
    Standard (unstabilized) P1 stiffness of the convection-diffusion-
    reaction form over all dofs: entry (i, j) is the bilinear form applied
    to (trial phi_j, test phi_i), integrated with :data:`QUADRATURE`.
    The (M, 3, 3) element blocks are folded onto the mesh edges
    (:func:`fold_blocks`) and returned as a CSR matrix on
    :func:`edge_pattern`.  A non-finite coefficient sample raises
    DataError, a negative reaction sample CoefficientError.
    """
    grads = barycentric_gradient_table(mesh)
    areas = signed_areas(mesh)
    local = np.zeros((mesh.num_triangles, 3, 3))
    for lam, w, xq, yq in quadrature_points(mesh):
        eps_q = finite_samples("diffusion", coeff.eps(xq, yq), xq.shape)
        zx, zy = (finite_samples("convection", c, xq.shape)
                  for c in coeff.zeta(xq, yq))
        gam = reaction_samples(coeff, xq, yq)
        coeff.check_samples(xq, yq, eps_q)
        scale = w * areas
        for i in range(3):
            conv_i = zx * grads[:, i, 0] + zy * grads[:, i, 1]
            for j in range(3):
                diff = eps_q * (
                    grads[:, j, 0] * grads[:, i, 0] + grads[:, j, 1] * grads[:, i, 1]
                )
                local[:, i, j] += scale * (
                    diff + lam[j] * conv_i + gam * lam[i] * lam[j]
                )
    return scatter_edges(mesh, *fold_blocks(mesh, local))


def assemble_load(mesh, f):
    """
    Load vector (f, phi_i) over all dofs by :data:`QUADRATURE`; for a
    pair-valued field ``f(x, y) -> (f0, f1)`` one vector per component,
    from the same pass.

    The quadrature rows are visited one at a time (:func:`quadrature_points`)
    and each row in blocks of LOAD_BLOCK triangles, so that the field's
    temporaries stay block-sized: each block adds w_q * area * f(x_q) *
    lam_q[c] to corner c of its triangles, and the three corner sums are
    then added onto the vertices.  Every corner sum is added in row order,
    so the block size does not change a bit of the result.  A non-finite
    sample of ``f`` raises DataError.
    """
    f = as_scalar_field(f)
    areas = signed_areas(mesh)
    m = mesh.num_triangles
    corners = None
    for lam, w, xq, yq in quadrature_points(mesh):
        for start in range(0, m, LOAD_BLOCK):
            block = slice(start, start + LOAD_BLOCK)
            values = f(xq[block], yq[block])
            pair = isinstance(values, tuple)
            if corners is None:
                corners = np.zeros((len(values) if pair else 1, 3, m))
            scale = w * areas[block]
            for sums, fq in zip(corners, values if pair else (values,)):
                fq = finite_samples("load integrand", fq, scale.shape)
                sums[:, block] += lam[:, None] * (scale * fq)
    n = mesh.num_vertices
    t = mesh.triangles
    loads = [sum(np.bincount(t[:, c], weights=sums[c], minlength=n)
                 for c in range(3)) for sums in corners]
    return tuple(loads) if pair else loads[0]


def interpolate_nodal(mesh, u):
    """Nodal interpolant: coefficient i equals the field at vertex i."""
    u = as_scalar_field(u)
    vals = u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return finite_samples("field", vals, (mesh.num_vertices,)).copy()
