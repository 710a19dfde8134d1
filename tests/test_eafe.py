import warnings

import numpy as np
import pytest

from eafe_control.eafe import (
    MonotonicityLossWarning,
    assemble_eafe_stiffness,
    bernoulli,
    edge_flux_coefficients,
    triangle_edge_weights,
)
from eafe_control.fem_core import (
    CoefficientError,
    CoefficientField,
    DataError,
    assemble_galerkin_stiffness,
    assemble_mass,
    barycentric_gradient_table,
)
from eafe_control.mesh import (
    LOCAL_EDGES,
    TriMesh,
    build_unit_square,
    _edge_connectivity,
    delaunay_check,
    delaunay_report,
)
from eafe_control.verify_norms import certify_m_matrix
from reference import gradient_edge_weights, jittered_renumbered_mesh


def diffusion_only(eps=1.0):
    return CoefficientField(eps=eps, zeta=(0.0, 0.0), gamma=0.0)


# ----------------------------------------------------------------------
# Bernoulli kernel


def test_bernoulli_at_zero_is_exactly_one():
    assert bernoulli(0.0) == 1.0


def test_bernoulli_at_one():
    # high-precision value of 1/(e - 1)
    assert bernoulli(1.0) == pytest.approx(0.5819767068693264, rel=1e-13)


@pytest.mark.parametrize("x", [1e-8, 1.0, 30.0, 700.0])
def test_bernoulli_reflection_identity(x):
    lhs = bernoulli(-x) - bernoulli(x)
    assert abs(lhs - x) <= 1e-13 * max(1.0, x)


def test_bernoulli_overflow_safe():
    assert bernoulli(750.0) == 0.0
    assert bernoulli(1e9) == 0.0
    assert bernoulli(-750.0) == pytest.approx(750.0, rel=1e-13)
    assert bernoulli(-1e9) == pytest.approx(1e9, rel=1e-13)


def test_bernoulli_vectorized_and_scalar():
    x = np.array([-2.0, 0.0, 2.0])
    vals = bernoulli(x)
    assert vals.shape == (3,)
    assert vals[1] == 1.0
    assert np.isscalar(bernoulli(1.0)) or bernoulli(1.0).ndim == 0


def test_bernoulli_nan_raises():
    with pytest.raises(DataError):
        bernoulli(np.nan)
    with pytest.raises(DataError):
        bernoulli(np.array([1.0, np.nan]))


# ----------------------------------------------------------------------
# edge weights


def test_edge_weights_right_isoceles():
    h = 0.5
    mesh = TriMesh([[0.0, 0.0], [h, 0.0], [0.0, h]], [[0, 1, 2]])
    # LOCAL_EDGES: (0,1) opposite the 45-deg vertex 2, (1,2) opposite the
    # right angle at 0, (2,0) opposite the 45-deg vertex 1
    assert triangle_edge_weights(mesh)[0, 0] == pytest.approx(0.5, rel=1e-13)
    assert triangle_edge_weights(mesh)[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert triangle_edge_weights(mesh)[0, 2] == pytest.approx(0.5, rel=1e-13)


def test_edge_weights_equilateral():
    mesh = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]],
                   [[0, 1, 2]])
    for k in range(3):
        assert triangle_edge_weights(mesh)[0, k] == pytest.approx(
            1.0 / (2.0 * np.sqrt(3.0)), rel=1e-13
        )


def test_edge_weights_match_cotangent_formula():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = rng.random((3, 2)) * 3.0
        d1 = p[1] - p[0]
        d2 = p[2] - p[0]
        if 0.5 * (d1[0] * d2[1] - d1[1] * d2[0]) < 1e-2:
            continue
        mesh = TriMesh(p, [[0, 1, 2]])
        for k, (a, b) in enumerate(LOCAL_EDGES):
            c = 3 - a - b
            u = p[a] - p[c]
            v = p[b] - p[c]
            cot = (u @ v) / abs(u[0] * v[1] - u[1] * v[0])
            assert triangle_edge_weights(mesh)[0, k] == pytest.approx(
                0.5 * cot, rel=1e-12)


@pytest.mark.parametrize("level", [2, 5, 8])
def test_edge_weights_equal_gradient_form_on_structured_meshes(level):
    # every coordinate difference and area is an integer times a power of
    # two, so the half-cotangent and the gradient forms are both exact
    mesh = build_unit_square(level)
    assert np.array_equal(triangle_edge_weights(mesh),
                          gradient_edge_weights(mesh))


def test_edge_weights_match_gradient_form_on_jittered_mesh():
    mesh = jittered_renumbered_mesh(5, seed=3)
    w, ref = triangle_edge_weights(mesh), gradient_edge_weights(mesh)
    assert np.abs(w - ref).max() <= 1e-15 * np.abs(ref).max()


def test_edge_weights_reproduce_gradient_products():
    # sum_E w_E * delta_E(u) * delta_E(v) equals the exact integral of
    # grad(u).grad(v) for piecewise linears
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        p = rng.random((3, 2)) * 2.0 - 0.5
        d1 = p[1] - p[0]
        d2 = p[2] - p[0]
        area2 = d1[0] * d2[1] - d1[1] * d2[0]
        if area2 < 1e-2:
            continue
        mesh = TriMesh(p, [[0, 1, 2]])
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        w = triangle_edge_weights(mesh)[0]
        lumped = sum(
            w[k] * (u[b] - u[a]) * (v[b] - v[a])
            for k, (a, b) in enumerate(LOCAL_EDGES)
        )
        g = barycentric_gradient_table(mesh)[0]
        grad_u = u @ g
        grad_v = v @ g
        exact = 0.5 * area2 * (grad_u @ grad_v)
        assert abs(lumped - exact) <= 1e-13 * max(1.0, abs(exact))
        checked += 1


# ----------------------------------------------------------------------
# flux coefficients


def test_flux_pure_diffusion():
    c_ij, c_ji = edge_flux_coefficients(2.5, (0.0, 0.0), (0.0, 0.0), (0.1, 0.0))
    assert c_ij == pytest.approx(2.5)
    assert c_ji == pytest.approx(2.5)


def test_flux_bernoulli_pair():
    h = 0.125
    c_ij, c_ji = edge_flux_coefficients(1.0, (-1.0, 0.0), (0.0, 0.0), (h, 0.0))
    assert c_ij == pytest.approx(bernoulli(h), rel=1e-14)
    assert c_ji == pytest.approx(bernoulli(-h), rel=1e-14)
    assert c_ji - c_ij == pytest.approx(h, rel=1e-13)


def test_flux_upwind_limit():
    # convection directed from the head to the tail dominates diffusion:
    # the coefficient multiplying the head value carries the full advective
    # weight and the opposite one vanishes
    eps = 1e-9
    h = 2.0**-8
    c_ij, c_ji = edge_flux_coefficients(eps, (1.0, 0.0), (0.0, 0.0), (h, 0.0))
    assert c_ij == pytest.approx(h, rel=1e-10)
    assert c_ji <= 1e-300


def test_flux_positivity_and_difference_identity():
    rng = np.random.default_rng(29)
    for _ in range(50):
        eps = 10.0 ** rng.uniform(-9, 0)
        zeta = rng.standard_normal(2)
        xi = rng.random(2)
        xj = rng.random(2)
        c_ij, c_ji = edge_flux_coefficients(eps, zeta, xi, xj)
        s = zeta @ (xj - xi)
        # the downwind coefficient underflows to exactly 0 once the edge
        # Peclet number leaves the representable exponential range
        assert c_ij >= 0.0 and c_ji >= 0.0
        if abs(s) / eps <= 700.0:
            assert c_ij > 0.0 and c_ji > 0.0
        assert c_ij - c_ji == pytest.approx(s, rel=1e-12, abs=1e-13)


def test_flux_rejects_nonpositive_diffusion():
    # a CoefficientError, which is a ValueError, like every other path
    with pytest.raises(CoefficientError):
        edge_flux_coefficients(0.0, (1.0, 0.0), (0.0, 0.0), (1.0, 0.0))


def test_edge_weights_and_flux_pairs_on_structured_mesh():
    mesh = build_unit_square(2)
    tau = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    # summed weights: diagonal edges 0, interior legs 1, boundary legs 1/2
    weights, report = delaunay_report(mesh, triangle_edge_weights(mesh))
    assert report.ok
    diag = np.linalg.norm(tau, axis=1) > 0.3  # h = 0.25, diagonals h*sqrt(2)
    assert np.abs(weights[diag]).max() <= 1e-14
    boundary = _edge_connectivity(mesh.triangles)[1]
    assert weights[boundary & ~diag] == pytest.approx(0.5, rel=1e-13)
    assert weights[~boundary & ~diag] == pytest.approx(1.0, rel=1e-13)
    # one flux pair per edge, both positive, with the orientation identity
    eps_e = np.full(mesh.num_edges, 1e-3)
    zeta_e = np.tile([-1.0, 0.0], (mesh.num_edges, 1))
    c_ij, c_ji = edge_flux_coefficients(eps_e, zeta_e,
                                        mesh.vertices[mesh.edges[:, 0]],
                                        mesh.vertices[mesh.edges[:, 1]])
    assert np.all(c_ij > 0.0) and np.all(c_ji > 0.0)
    s = np.einsum("ed,ed->e", zeta_e, tau)
    assert c_ij - c_ji == pytest.approx(s, rel=1e-12, abs=1e-14)


# ----------------------------------------------------------------------
# stiffness assembly


@pytest.mark.parametrize("level", [1, 2, 3])
def test_reduces_to_galerkin_for_pure_diffusion(level):
    mesh = build_unit_square(level)
    coeff = diffusion_only()
    a_edge = assemble_eafe_stiffness(mesh, coeff)
    a_std = assemble_galerkin_stiffness(mesh, coeff)
    diff = abs(a_edge - a_std)
    assert (diff.max() if diff.nnz else 0.0) <= 1e-13


def test_annihilates_constants_without_reaction():
    mesh = build_unit_square(3)
    a = assemble_eafe_stiffness(mesh, diffusion_only(eps=0.7))
    assert np.abs(a @ np.ones(mesh.num_vertices)).max() <= 1e-13


def test_interior_row_is_scharfetter_gummel_stencil():
    # strip-like check on the structured mesh: with leftward constant
    # convection the interior stencil is the exponentially fitted two-point
    # flux on horizontal edges, pure diffusion vertically, nothing on the
    # diagonals
    eps = 1e-2
    mesh = build_unit_square(2)
    h = 0.25
    coeff = CoefficientField(eps=eps, zeta=(-1.0, 0.0), gamma=0.0)
    a = assemble_eafe_stiffness(mesh, coeff).toarray()
    center = np.flatnonzero(
        (mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5)
    )[0]
    n = 2**2 + 1
    left, right = center - 1, center + 1
    down, up = center - n, center + n
    c_right, c_center_r = edge_flux_coefficients(
        eps, (-1.0, 0.0), (0.5, 0.5), (0.5 + h, 0.5)
    )
    c_center_l, c_left = edge_flux_coefficients(
        eps, (-1.0, 0.0), (0.5 - h, 0.5), (0.5, 0.5)
    )
    assert a[center, right] == pytest.approx(-c_right, rel=1e-13)
    assert a[center, left] == pytest.approx(-c_left, rel=1e-13)
    assert a[center, up] == pytest.approx(-eps, rel=1e-13)
    assert a[center, down] == pytest.approx(-eps, rel=1e-13)
    assert a[center, center] == pytest.approx(
        c_center_r + c_center_l + 2.0 * eps, rel=1e-13
    )
    assert a[center, up + 1] == pytest.approx(0.0, abs=1e-15)
    assert a[center, down - 1] == pytest.approx(0.0, abs=1e-15)


def _per_triangle_reference(mesh, coeff):
    """Dense EAFE flux matrix, one flux pair per triangle edge."""
    xv, yv = mesh.vertices[:, 0], mesh.vertices[:, 1]
    eps_v = coeff.eps(xv, yv)
    zx_v, zy_v = coeff.zeta(xv, yv)
    w = triangle_edge_weights(mesh)
    ref = np.zeros((mesh.num_vertices, mesh.num_vertices))
    for t, tri in enumerate(mesh.triangles):
        for k, (a, b) in enumerate(LOCAL_EDGES):
            i, j = tri[a], tri[b]
            c_ij, c_ji = edge_flux_coefficients(
                0.5 * (eps_v[i] + eps_v[j]),
                (0.5 * (zx_v[i] + zx_v[j]), 0.5 * (zy_v[i] + zy_v[j])),
                mesh.vertices[i], mesh.vertices[j],
            )
            ref[j, j] += w[t, k] * c_ij
            ref[j, i] -= w[t, k] * c_ji
            ref[i, j] -= w[t, k] * c_ij
            ref[i, i] += w[t, k] * c_ji
    return ref


def test_edge_path_matches_per_triangle_reference_on_renumbered_mesh():
    # shrinking the structured mesh along its diagonals gives every
    # diagonal edge a positive weight, so a small jitter stays Delaunay;
    # the renumbering flips the i < j orientation of many local edges
    rng = np.random.default_rng(41)
    base = build_unit_square(3)
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    shrink = np.eye(2) - 0.2 * np.outer(n, n)
    verts = base.vertices @ shrink + rng.uniform(-0.005, 0.005,
                                                 base.vertices.shape)
    mesh = TriMesh(verts, base.triangles)
    assert delaunay_check(mesh).ok
    perm = rng.permutation(mesh.num_vertices)
    inv = np.argsort(perm)
    renumbered = TriMesh(mesh.vertices[perm], inv[mesh.triangles])
    coeff = CoefficientField(
        eps=lambda x, y: 1e-2 * (1.0 + x + y * y),
        zeta=lambda x, y: (np.sin(2.0 * np.pi * y) - 0.5, np.cos(3.0 * x)),
        gamma=0.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = assemble_eafe_stiffness(renumbered, coeff).toarray()
        a_orig = assemble_eafe_stiffness(mesh, coeff).toarray()
    ref = _per_triangle_reference(renumbered, coeff)
    scale = np.abs(ref).max()
    assert np.abs(a - ref).max() <= 1e-14 * scale
    assert np.abs(a[np.ix_(inv, inv)] - a_orig).max() <= 1e-14 * scale


@pytest.mark.parametrize(
    "eps,zeta,gamma",
    [
        (1e-9, (-1.0, 0.0), 0.0),
        (1e-9, (-np.sqrt(2.0) / 2.0, -np.sqrt(2.0) / 2.0), 1.0),
        (1e-2, (-np.sqrt(2.0) / 2.0, -np.sqrt(2.0) / 2.0), 1.0),
        (1e-9, (-1.0, 0.0), 1.0),
    ],
)
def test_m_matrix_sign_pattern(eps, zeta, gamma):
    mesh = build_unit_square(3)
    coeff = CoefficientField(eps=eps, zeta=zeta, gamma=gamma)
    a = assemble_eafe_stiffness(mesh, coeff)
    diag = a.diagonal()
    assert diag.min() > 0.0
    # stored off-diagonal entries, explicit zeros included
    stored = a.tocoo()
    off = stored.data[stored.row != stored.col]
    assert off.max() <= 1e-14 * np.abs(diag).max()
    # at gamma = 0 the full matrix annihilates constants and is singular;
    # the interior block, boundary rows and columns removed, is not
    i = mesh.interior_vertices
    assert certify_m_matrix(a[i][:, i]).ok


def test_lumped_reaction_only_touches_diagonal():
    mesh = build_unit_square(2)
    base = CoefficientField(eps=1.0, zeta=(0.3, -0.2), gamma=0.0)
    with_reaction = CoefficientField(eps=1.0, zeta=(0.3, -0.2), gamma=2.0)
    a0 = assemble_eafe_stiffness(mesh, base).toarray()
    a1 = assemble_eafe_stiffness(mesh, with_reaction).toarray()
    diff = a1 - a0
    off = diff - np.diag(np.diag(diff))
    assert np.abs(off).max() <= 1e-15
    from eafe_control.fem_core import lumped_mass_diagonal

    assert np.diag(diff) == pytest.approx(2.0 * lumped_mass_diagonal(mesh),
                                          rel=1e-13)


def test_consistent_reaction_adds_weighted_mass():
    mesh = build_unit_square(2)
    base = CoefficientField(eps=1.0, zeta=(0.3, -0.2), gamma=0.0)
    with_reaction = CoefficientField(eps=1.0, zeta=(0.3, -0.2), gamma=2.0)
    a0 = assemble_eafe_stiffness(mesh, base, lump_reaction=False).toarray()
    a1 = assemble_eafe_stiffness(mesh, with_reaction, lump_reaction=False).toarray()
    m = assemble_mass(mesh).toarray()
    assert np.abs((a1 - a0) - 2.0 * m).max() <= 1e-14


def test_delaunay_violation_flagged_not_fatal():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.12], [0.5, -0.12]]
    mesh = TriMesh(verts, [[0, 1, 2], [0, 3, 1]])
    coeff = diffusion_only()
    with pytest.warns(MonotonicityLossWarning):
        a = assemble_eafe_stiffness(mesh, coeff)
    assert not delaunay_check(mesh).ok
    # the sign pattern indeed degrades on this mesh
    assert certify_m_matrix(a).worst_offdiag > 0.0


def test_structured_assembly_marks_delaunay_ok():
    mesh = build_unit_square(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_eafe_stiffness(mesh, diffusion_only())
    assert delaunay_check(mesh).ok
