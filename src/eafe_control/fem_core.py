"""
P1 Lagrange ingredients shared by the standard Galerkin and the
edge-averaged paths: barycentric gradients, triangle quadrature, mass and
stiffness assembly, load vectors, and nodal interpolation.

Scalar fields are callables ``f(x, y) -> array`` accepting numpy arrays;
vector fields return a pair ``(fx, fy)``.  Plain numbers / pairs are
accepted everywhere and wrapped into constant fields.
"""

import numpy as np

from .mesh import GeometryError, signed_areas
from .sparse_linalg import from_triplets

DEGENERATE_AREA = 1e-16
DIV_FD_STEP = 1e-6


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
        Nonnegative reaction coefficient.
    beta : float
        Control-cost weight (kept at 1 for the discrete optimality system).
    eps_floor : float, optional
        Claimed lower bound for eps; checked wherever eps is sampled.
    gamma_assumption : float
        Claimed lower bound gamma - div(zeta)/2 >= gamma_assumption.  Only
        enforced when positive.
    div_zeta : scalar field, optional
        Analytic divergence of zeta; central differences otherwise.
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
        self.div_zeta = as_scalar_field(div_zeta) if div_zeta is not None else None

    def div_zeta_at(self, x, y):
        if self.div_zeta is not None:
            return self.div_zeta(x, y)
        h = DIV_FD_STEP
        zxp, _ = self.zeta(x + h, y)
        zxm, _ = self.zeta(x - h, y)
        _, zyp = self.zeta(x, y + h)
        _, zym = self.zeta(x, y - h)
        return (zxp - zxm + zyp - zym) / (2.0 * h)

    def check_samples(self, x, y, eps_values=None):
        """Enforce the declared bounds at the given sample points."""
        e = eps_values if eps_values is not None else self.eps(x, y)
        emin = np.min(e)
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
            eff = self.gamma(x, y) - 0.5 * self.div_zeta_at(x, y)
            worst = np.min(eff)
            if worst < self.gamma_assumption * (1.0 - 1e-8):
                raise CoefficientError(
                    "gamma - div(zeta)/2 reaches %.3g, below the declared "
                    "bound %.3g" % (worst, self.gamma_assumption)
                )

    def validate_on(self, mesh, quad=None):
        """Sample the coefficient bounds at all quadrature points of a mesh."""
        quad = quad or default_quadrature()
        x, y = quadrature_points(mesh, quad)
        self.check_samples(x.ravel(), y.ravel())


class QuadratureRule:
    """
    Symmetric quadrature on the reference triangle in barycentric form.

    ``points`` has shape (nq, 3) of barycentric coordinates, ``weights``
    sums to one, and the rule is exact for polynomials up to ``degree``.
    """

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = int(degree)

    def __len__(self):
        return self.weights.size


def centroid_rule():
    return QuadratureRule([[1 / 3, 1 / 3, 1 / 3]], [1.0], degree=1)


def three_point_rule():
    p = [[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]
    return QuadratureRule(p, [1 / 3] * 3, degree=2)


def seven_point_rule():
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


def default_quadrature():
    return seven_point_rule()


def barycentric_gradient_table(mesh):
    """
    Gradients of the three barycentric coordinates on every triangle,
    shape (M, 3, 2), read-only and computed once per mesh.  Gradient of
    coordinate c is perpendicular to the opposite edge, scaled by
    1 / (2 area).

    Raises
    ------
    GeometryError
        On every call, if a triangle's area is at most DEGENERATE_AREA.
    """
    return mesh.cached("gradients", lambda: _barycentric_gradients(mesh))


def _barycentric_gradients(mesh):
    p = mesh.vertices[mesh.triangles]
    areas = signed_areas(mesh)
    if np.any(areas <= DEGENERATE_AREA):
        bad = int(np.argmin(areas))
        raise GeometryError("triangle %d is degenerate (area %g)" % (bad, areas[bad]))
    grads = np.empty((mesh.num_triangles, 3, 2))
    for c, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        opp = p[:, k] - p[:, j]
        grads[:, c, 0] = -opp[:, 1]
        grads[:, c, 1] = opp[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return grads


def quadrature_points(mesh, quad):
    """
    Physical coordinates of all quadrature points, two read-only (nq, M)
    arrays; row q holds point q of every triangle.  They are computed once
    per mesh and rule, where rules with equal points are the same rule.
    """
    xy = mesh.cached(("quadrature", quad.points.tobytes()),
                     lambda: _quadrature_points(mesh, quad.points))
    return xy[0], xy[1]


def _quadrature_points(mesh, points):
    p = mesh.vertices[mesh.triangles]  # (M, 3, 2)
    # one product per point: the batched points @ p[:, :, 0].T rounds the
    # last bit differently on some coordinates
    return np.array([[lam @ p[:, :, c].T for lam in points] for c in (0, 1)])


def assemble_mass(mesh):
    """
    Consistent P1 mass matrix over all dofs (exact integration).

    The local block is area/12 * [[2,1,1],[1,2,1],[1,1,2]]; entries are
    nonnegative and row sums equal a third of the vertex patch area.
    """
    areas = signed_areas(mesh)
    t = mesh.triangles
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append(areas * ((2.0 if i == j else 1.0) / 12.0))
    n = mesh.num_vertices
    return from_triplets(
        n, n, (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    )


def lumped_mass_diagonal(mesh):
    """Row-sum (patch-area / 3) lumping of the P1 mass matrix."""
    areas = signed_areas(mesh)
    diag = np.zeros(mesh.num_vertices)
    for c in range(3):
        np.add.at(diag, mesh.triangles[:, c], areas / 3.0)
    return diag


def assemble_galerkin_stiffness(mesh, coeff, quad=None):
    """
    Standard (unstabilized) P1 stiffness of the convection-diffusion-
    reaction form over all dofs: entry (i, j) is the bilinear form applied
    to (trial phi_j, test phi_i), integrated with the given quadrature.
    """
    quad = quad or default_quadrature()
    grads = barycentric_gradient_table(mesh)
    areas = signed_areas(mesh)
    t = mesh.triangles
    x, y = quadrature_points(mesh, quad)

    local = np.zeros((mesh.num_triangles, 3, 3))
    for q, (lam, w) in enumerate(zip(quad.points, quad.weights)):
        xq, yq = x[q], y[q]
        eps_q = np.broadcast_to(coeff.eps(xq, yq), xq.shape)
        coeff.check_samples(xq, yq, eps_values=eps_q)
        zx, zy = coeff.zeta(xq, yq)
        gam = coeff.gamma(xq, yq)
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

    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append(local[:, i, j])
    n = mesh.num_vertices
    return from_triplets(
        n, n, (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    )


def assemble_load(mesh, f, quad=None):
    """Load vector (f, phi_i) over all dofs by quadrature."""
    quad = quad or default_quadrature()
    f = as_scalar_field(f)
    areas = signed_areas(mesh)
    t = mesh.triangles
    n = mesh.num_vertices
    b = np.zeros(n)
    x, y = quadrature_points(mesh, quad)
    for q, (lam, w) in enumerate(zip(quad.points, quad.weights)):
        xq, yq = x[q], y[q]
        fq = np.broadcast_to(np.asarray(f(xq, yq), dtype=float), xq.shape)
        if not np.all(np.isfinite(fq)):
            raise DataError("load integrand produced a non-finite sample")
        contrib = w * areas * fq
        for c in range(3):
            b += np.bincount(t[:, c], weights=contrib * lam[c], minlength=n)
    return b


def interpolate_nodal(mesh, u):
    """Nodal interpolant: coefficient i equals the field at vertex i."""
    u = as_scalar_field(u)
    vals = np.asarray(
        u(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float
    )
    vals = np.broadcast_to(vals, (mesh.num_vertices,)).copy()
    if not np.all(np.isfinite(vals)):
        raise DataError("field produced a non-finite vertex sample")
    return vals
