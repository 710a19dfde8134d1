"""
P1 Lagrange ingredients shared by the standard Galerkin and the
edge-averaged paths: barycentric gradients, the quadrature rule QUADRATURE,
the one constructor call every matrix is built by (:func:`scatter_edges`),
mass and stiffness assembly, load vectors, and nodal interpolation.

Scalar fields are callables ``f(x, y) -> array`` accepting numpy arrays;
vector fields return a pair ``(fx, fy)``.  Plain numbers / pairs are
accepted everywhere and wrapped into constant fields.
"""

import numpy as np
import scipy.sparse as sp

from .mesh import LOCAL_EDGES

#: triangles per block of the load pass (:func:`assemble_load`)
LOAD_BLOCK = 16384


class CoefficientError(ValueError):
    """A diffusion sample is not positive or a reaction sample is negative."""


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

    Every sample that assembly uses comes from :meth:`samples`, which
    holds the data to the contract of both schemes: every sample finite,
    eps > 0 and gamma >= 0.

    Parameters
    ----------
    eps : scalar field or number
        Diffusion coefficient, strictly positive.
    zeta : vector field or pair
        Convection field.
    gamma : scalar field or number
        Nonnegative reaction coefficient.
    """

    def __init__(self, eps, zeta, gamma):
        self.eps = as_scalar_field(eps)
        self.zeta = as_vector_field(zeta)
        self.gamma = as_scalar_field(gamma)

    def samples(self, x, y):
        """
        The coefficients at ``(x, y)``: ``(eps, zeta_x, zeta_y, gamma)``,
        each a float array broadcast to the shape of ``x``.

        Raises
        ------
        DataError
            Unless every sample is finite.
        CoefficientError
            Naming the smallest sample, if a diffusion sample is not
            positive (the exponential fitting divides by it) or a reaction
            sample is negative (the M-matrix and desired-state bound
            arguments need gamma >= 0).
        """
        shape = np.shape(x)
        eps = finite_samples("diffusion", self.eps(x, y), shape)
        zx, zy = (finite_samples("convection", c, shape) for c in self.zeta(x, y))
        gamma = finite_samples("reaction", self.gamma(x, y), shape)
        emin = eps.min(initial=np.inf)
        if emin <= 0.0:
            raise CoefficientError("sampled diffusion %.3g is not positive"
                                   % emin)
        gmin = gamma.min(initial=0.0)
        if gmin < 0.0:
            raise CoefficientError("sampled reaction %.3g is negative" % gmin)
        return eps, zx, zy, gamma


def finite_samples(what, values, shape):
    """Samples as floats broadcast to ``shape``; DataError unless all finite."""
    values = np.broadcast_to(np.asarray(values, dtype=float), shape)
    if not np.all(np.isfinite(values)):
        raise DataError("%s produced a non-finite sample" % what)
    return values


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
    shape (M, 3, 2), built anew on each call: by Galerkin assembly and by
    each error norm.  EAFE assembly takes its edge weights from the areas
    (:func:`mesh.triangle_edge_weights`) and does not build it.  Gradient
    of coordinate c is perpendicular to the opposite edge, scaled by
    1 / (2 area); the mesh rejected every area at or below
    :data:`mesh.DEGENERATE_AREA` when it was built.
    """
    p = np.take(mesh.vertices, mesh.triangles, axis=0)
    grads = np.empty((mesh.num_triangles, 3, 2))
    for c, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        opp = p[:, k] - p[:, j]
        grads[:, c, 0] = -opp[:, 1]
        grads[:, c, 1] = opp[:, 0]
    grads /= (2.0 * mesh.areas)[:, None, None]
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


def scatter_edges(mesh, diag, ij, ji):
    """
    CSR matrix with ``diag`` (N,) on the diagonal and ``ij``, ``ji`` (E,)
    at entries (i, j) and (j, i) of every edge (i, j), i < j: the
    pattern of every matrix of the package, explicit zeros included,
    which the sparse LU ordering sees.  Every matrix is built here, by
    scipy's coordinate constructor.

    Each position is given exactly once, so the conversion sums nothing:
    every value lands in its slot bit for bit, zeros and -0.0 included,
    the column indices come sorted within each row, and the index arrays
    keep the int32 of ``mesh.edges``.
    """
    n = mesh.num_vertices
    i, j = mesh.edges.T
    r = np.arange(n, dtype=mesh.edges.dtype)
    return sp.csr_matrix((np.concatenate((diag, ij, ji)),
                          (np.concatenate((r, i, j)), np.concatenate((r, j, i)))),
                         shape=(n, n))


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
    matrix from :func:`scatter_edges`.

    The local block is area/12 * [[2,1,1],[1,2,1],[1,1,2]], so entry
    (i, j) of an edge is a twelfth of the area of its one or two
    triangles, summed over ``tri_edges`` in one ``np.bincount``, and the
    diagonal is half the lumped one.  A sum of at most two areas is the
    same in either order, so the entries do not depend on the triangle
    numbering.  Entries are nonnegative and row sums equal a third of the
    vertex patch area.
    """
    areas = mesh.areas
    off = np.bincount(mesh.tri_edges.ravel(), weights=np.repeat(areas, 3),
                      minlength=mesh.num_edges) / 12.0
    return scatter_edges(mesh, 0.5 * lumped_mass_diagonal(mesh), off, off)


def lumped_mass_diagonal(mesh):
    """Row-sum (patch-area / 3) lumping of the P1 mass matrix."""
    areas = mesh.areas
    return np.bincount(mesh.triangles.T.ravel(), weights=np.tile(areas / 3.0, 3),
                       minlength=mesh.num_vertices)


def assemble_galerkin_stiffness(mesh, coeff):
    """
    Standard (unstabilized) P1 stiffness of the convection-diffusion-
    reaction form over all dofs: entry (i, j) is the bilinear form applied
    to (trial phi_j, test phi_i), integrated with :data:`QUADRATURE`.
    The (M, 3, 3) element blocks are folded onto the mesh edges
    (:func:`fold_blocks`) and returned as a CSR matrix from
    :func:`scatter_edges`.  The coefficients are sampled once per
    quadrature row by :meth:`CoefficientField.samples`, which raises
    DataError on a non-finite sample and CoefficientError on a
    nonpositive diffusion or a negative reaction sample.

    The six distinct gradient products grad phi_j . grad phi_i do not
    depend on the point and are formed once, and the blocks are summed in
    a contiguous (3, 3, M) array; every entry takes the same operations
    in the same order as a sum of ``scale * (diff + lam_j conv_i + gamma
    lam_i lam_j)`` over the rows, so the result is that sum bit for bit.
    """
    grads = barycentric_gradient_table(mesh)
    areas = mesh.areas
    gx, gy = grads[:, :, 0].T, grads[:, :, 1].T
    # a product and its transpose are the same bits: x*y == y*x in floats
    dots = {}
    for i in range(3):
        for j in range(i, 3):
            dots[i, j] = dots[j, i] = gx[j] * gx[i] + gy[j] * gy[i]
    local = np.zeros((3, 3, mesh.num_triangles))
    for lam, w, xq, yq in quadrature_points(mesh):
        eps_q, zx, zy, gam = coeff.samples(xq, yq)
        scale = w * areas
        for i in range(3):
            conv_i = zx * gx[i] + zy * gy[i]
            gam_i = gam * lam[i]
            for j in range(3):
                local[i, j] += scale * (eps_q * dots[i, j] + lam[j] * conv_i
                                        + gam_i * lam[j])
    return scatter_edges(mesh, *fold_blocks(mesh, local.transpose(2, 0, 1)))


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
    areas = mesh.areas
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
