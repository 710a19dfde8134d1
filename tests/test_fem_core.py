import collections
import math

import numpy as np
import pytest

from eafe_control import fem_core, mesh as mesh_module
from eafe_control.fem_core import (
    QUADRATURE,
    CoefficientError,
    CoefficientField,
    DataError,
    assemble_galerkin_stiffness,
    assemble_load,
    assemble_mass,
    barycentric_gradient_table,
    interpolate_nodal,
    lumped_mass_diagonal,
    quadrature_points,
)
from eafe_control.eafe import assemble_eafe_stiffness
from eafe_control.experiments import BOUNDARY_LAYER_REGION, boundary_layer_case
from eafe_control.mesh import (
    GeometryError,
    TriMesh,
    build_unit_square,
    signed_areas,
)
from eafe_control.optimal_control import solve
from eafe_control.verify_norms import solution_errors


def count_builders(monkeypatch):
    """
    Count the calls of the private geometry builders behind the mesh
    cache.
    """
    counts = collections.Counter()

    def counting(module, name, key):
        build = getattr(module, name)

        def counted(*args):
            counts[key(*args)] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counted)

    counting(mesh_module, "_signed_areas", lambda mesh: "areas")
    counting(fem_core, "_barycentric_gradients", lambda mesh: "gradients")
    counting(fem_core, "_quadrature_points", lambda mesh: "quadrature")
    return counts


def jittered_renumbered_mesh(level, seed):
    base = build_unit_square(level)
    rng = np.random.default_rng(seed)
    jittered = base.vertices + 1e-3 * rng.random(base.vertices.shape) * (
        ~base.boundary_vertex[:, None])
    perm = rng.permutation(base.num_vertices)
    vertices = np.empty_like(jittered)
    vertices[perm] = jittered
    triangles = perm[base.triangles][rng.permutation(base.num_triangles)]
    return TriMesh(vertices, triangles, level=level)


def reference_triangle():
    return TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def exact_monomial_integral(a, b):
    # int over the reference triangle of x^a y^b = a! b! / (a+b+2)!
    return (
        math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    )


def test_quadrature_exactness():
    rule = QUADRATURE
    assert rule.degree == 5
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    area = 0.5
    # barycentric points on the reference triangle: x = lambda_2, y = lambda_3
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            approx = area * np.sum(rule.weights * x**a * y**b)
            assert approx == pytest.approx(exact_monomial_integral(a, b),
                                           abs=1e-14)


def test_barycentric_gradients_reference_triangle():
    g = barycentric_gradient_table(reference_triangle())[0]
    assert g[0] == pytest.approx([-1.0, -1.0])
    assert g[1] == pytest.approx([1.0, 0.0])
    assert g[2] == pytest.approx([0.0, 1.0])


def test_gradients_sum_to_zero_random_triangles():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.random((3, 2)) * 4.0 - 2.0
        d1 = p[1] - p[0]
        d2 = p[2] - p[0]
        if 0.5 * (d1[0] * d2[1] - d1[1] * d2[0]) < 1e-3:
            p[[1, 2]] = p[[2, 1]]
        mesh = TriMesh(p, [[0, 1, 2]])
        g = barycentric_gradient_table(mesh)[0]
        assert np.abs(g.sum(axis=0)).max() <= 1e-13


def test_gradient_affine_reconstruction():
    # lambda_i(x_j) = delta_ij reproduced by affine reconstruction from grads
    mesh = TriMesh([[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]], [[0, 1, 2]])
    g = barycentric_gradient_table(mesh)[0]
    p = mesh.vertices
    for i in range(3):
        for j in range(3):
            lam = 1.0 + g[i] @ (p[j] - p[i])
            assert lam == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_gradient_magnitude_right_isoceles():
    h = 0.25
    mesh = TriMesh([[0.0, 0.0], [h, 0.0], [0.0, h]], [[0, 1, 2]])
    g = barycentric_gradient_table(mesh)[0]
    # vertex opposite the hypotenuse: distance to it is h / sqrt(2)
    assert np.linalg.norm(g[0]) == pytest.approx(np.sqrt(2.0) / h, rel=1e-13)


def test_degenerate_triangle_raises(monkeypatch):
    with pytest.raises(GeometryError):
        TriMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
    # positively oriented but below the degeneracy floor
    squashed = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-18]], [[0, 1, 2]])
    counts = count_builders(monkeypatch)
    # a failed check caches nothing: every call checks again
    for calls in (1, 2):
        with pytest.raises(GeometryError):
            barycentric_gradient_table(squashed)
        assert counts["gradients"] == calls


def test_local_mass_reference_triangle():
    m = assemble_mass(reference_triangle()).toarray()
    area = 0.5
    expected = area / 12.0 * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    assert m == pytest.approx(expected, abs=1e-16)


def test_mass_total_and_symmetry():
    mesh = build_unit_square(3)
    m = assemble_mass(mesh)
    dense = m.toarray()
    assert dense.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.abs(dense - dense.T).max() == 0.0
    assert dense.min() >= 0.0


def test_mass_row_sums_are_third_of_patch():
    mesh = build_unit_square(2)
    rows = np.asarray(assemble_mass(mesh).sum(axis=1)).ravel()
    assert rows == pytest.approx(lumped_mass_diagonal(mesh), rel=1e-14)


def test_galerkin_pure_diffusion_reference_triangle():
    coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0, div_zeta=0.0)
    a = assemble_galerkin_stiffness(reference_triangle(), coeff).toarray()
    expected = np.array(
        [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
    )
    assert a == pytest.approx(expected, abs=1e-14)


def test_galerkin_reaction_only_equals_mass():
    mesh = build_unit_square(2)
    coeff = CoefficientField(eps=0.0, zeta=(0.0, 0.0), gamma=1.0,
                             eps_floor=0.0, div_zeta=0.0)
    # eps == 0 is allowed here solely to isolate the reaction term
    a = assemble_galerkin_stiffness(mesh, coeff)
    m = assemble_mass(mesh)
    assert np.abs(a.toarray() - m.toarray()).max() <= 1e-15


def test_galerkin_pure_diffusion_spd_with_constant_kernel():
    mesh = build_unit_square(2)
    coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0, div_zeta=0.0)
    dense = assemble_galerkin_stiffness(mesh, coeff).toarray()
    assert np.abs(dense - dense.T).max() <= 1e-14
    ones = np.ones(mesh.num_vertices)
    assert np.abs(dense @ ones).max() <= 1e-13
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigs.min() >= -1e-12


def test_galerkin_convection_interior_rows_annihilate_constants():
    mesh = build_unit_square(3)
    coeff = CoefficientField(eps=1.0, zeta=(1.0, 0.0), gamma=0.0, div_zeta=0.0)
    a = assemble_galerkin_stiffness(mesh, coeff)
    residual = a @ np.ones(mesh.num_vertices)
    assert np.abs(residual[mesh.interior_vertices]).max() <= 1e-13


def test_load_constant_gives_patch_area_thirds():
    mesh = build_unit_square(2)
    b = assemble_load(mesh, 1.0)
    assert b == pytest.approx(lumped_mass_diagonal(mesh), rel=1e-13)
    assert b.sum() == pytest.approx(1.0, abs=1e-14)


def test_load_linear_against_exact_integrals():
    mesh = build_unit_square(2)
    b = assemble_load(mesh, lambda x, y: x)
    # exact: int_T x*lambda_c = area * (2 x_c + x_a + x_b) / 12
    exact = np.zeros(mesh.num_vertices)
    from eafe_control.mesh import signed_areas

    areas = signed_areas(mesh)
    xs = mesh.vertices[:, 0]
    for t, tri in enumerate(mesh.triangles):
        for c in range(3):
            exact[tri[c]] += areas[t] * (2.0 * xs[tri[c]] + xs[tri].sum()
                                         - xs[tri[c]]) / 12.0
    assert np.abs(b - exact).max() <= 1e-14


def test_load_nonfinite_raises():
    mesh = build_unit_square(1)
    with pytest.raises(DataError):
        assemble_load(mesh, lambda x, y: np.where(x > 0.4, np.inf, 1.0))


def test_interpolate_constant_and_affine():
    mesh = build_unit_square(2)
    assert interpolate_nodal(mesh, 3.5) == pytest.approx(
        np.full(mesh.num_vertices, 3.5)
    )
    vals = interpolate_nodal(mesh, lambda x, y: x + 2.0 * y)
    # P1 reproduces affine fields: reconstruct at quadrature points
    grads = barycentric_gradient_table(mesh)
    nodal = vals[mesh.triangles]
    gx = np.einsum("mc,mc->m", nodal, grads[:, :, 0])
    gy = np.einsum("mc,mc->m", nodal, grads[:, :, 1])
    assert gx == pytest.approx(np.ones(mesh.num_triangles), abs=1e-13)
    assert gy == pytest.approx(np.full(mesh.num_triangles, 2.0), abs=1e-13)
    p = mesh.vertices[mesh.triangles]
    for lam in QUADRATURE.points:
        xq = lam @ p[:, :, 0].swapaxes(0, 1)
        yq = lam @ p[:, :, 1].swapaxes(0, 1)
        assert nodal @ lam == pytest.approx(xq + 2.0 * yq, abs=1e-13)


def test_interpolate_layer_product_center_value():
    from eafe_control.experiments import layer_profile

    eps = 1e-2
    mesh = build_unit_square(1)
    vals = interpolate_nodal(
        mesh, lambda x, y: layer_profile(x, eps) * layer_profile(y, eps)
    )
    center = np.flatnonzero(
        (mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5)
    )[0]
    eta_half = 0.125 - (math.exp(-50.0) - math.exp(-100.0)) / (
        1.0 - math.exp(-100.0)
    )
    assert vals[center] == pytest.approx(eta_half**2, rel=1e-14)


def test_interpolate_nonfinite_raises():
    mesh = build_unit_square(1)
    with pytest.raises(DataError):
        interpolate_nodal(mesh, lambda x, y: np.full_like(x, np.nan))


@pytest.mark.parametrize(
    "assemble", [assemble_galerkin_stiffness, assemble_eafe_stiffness],
    ids=["galerkin", "eafe"],
)
def test_coefficient_floor_violation(assemble):
    mesh = build_unit_square(2)
    coeff = CoefficientField(
        eps=lambda x, y: 1.0 - x, zeta=(0.0, 0.0), gamma=0.0,
        eps_floor=0.5, div_zeta=0.0,
    )
    with pytest.raises(CoefficientError):
        assemble(mesh, coeff)


@pytest.mark.parametrize(
    "assemble", [assemble_galerkin_stiffness, assemble_eafe_stiffness],
    ids=["galerkin", "eafe"],
)
def test_gamma_assumption_violation(assemble):
    mesh = build_unit_square(2)
    # gamma - div(zeta)/2 = -1 < claimed bound 0.5
    coeff = CoefficientField(
        eps=1.0, zeta=lambda x, y: (2.0 * x, 0.0), gamma=0.0,
        gamma_assumption=0.5,
    )
    with pytest.raises(CoefficientError):
        assemble(mesh, coeff)


@pytest.mark.parametrize(
    "assemble", [assemble_galerkin_stiffness, assemble_eafe_stiffness],
    ids=["galerkin", "eafe"],
)
def test_gamma_assumption_with_nonfinite_divergence(assemble):
    # a NaN divergence must not make the declared bound vacuous
    coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0,
                             gamma_assumption=0.5, div_zeta=np.nan)
    with pytest.raises(DataError):
        assemble(build_unit_square(2), coeff)


def test_divergence_by_central_differences():
    # div(xy, -y^2/2) = y - y = 0
    coeff = CoefficientField(eps=1.0, zeta=lambda x, y: (x * y, -0.5 * y * y),
                             gamma=0.0)
    x = np.array([0.3, 0.7])
    y = np.array([0.2, 0.9])
    assert coeff.div_zeta_at(x, y) == pytest.approx(np.zeros(2), abs=1e-8)


@pytest.mark.parametrize("metric", ["quadrature", "interpolant"])
def test_solve_and_errors_compute_geometry_once(monkeypatch, metric):
    counts = count_builders(monkeypatch)
    case = boundary_layer_case(1e-2)
    mesh = build_unit_square(4)
    sol = solve(mesh, case.problem, "eafe")
    for region in (None, BOUNDARY_LAYER_REGION):
        solution_errors(mesh, case, sol, region=region, metric=metric)
    assert counts == {"areas": 1, "gradients": 1, "quadrature": 1}


def test_cached_geometry_equals_fresh_computation():
    mesh = jittered_renumbered_mesh(4, seed=7)
    solve(mesh, boundary_layer_case(1e-2).problem, "galerkin")
    assert np.array_equal(signed_areas(mesh), mesh_module._signed_areas(mesh))
    assert np.array_equal(barycentric_gradient_table(mesh),
                          fem_core._barycentric_gradients(mesh))
    x, y = quadrature_points(mesh)
    fresh = fem_core._quadrature_points(mesh)
    assert x.shape == (QUADRATURE.weights.size, mesh.num_triangles)
    assert np.array_equal(x, fresh[0]) and np.array_equal(y, fresh[1])
    # a second call returns the cached points
    assert np.shares_memory(quadrature_points(mesh)[0], x)


def test_mesh_arrays_and_cached_geometry_are_read_only():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    triangles = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = TriMesh(vertices, triangles)
    # the mesh keeps copies: the caller's arrays stay writable and detached
    vertices[0] = 5.0
    triangles[0] = 0
    assert mesh.vertices[0].tolist() == [0.0, 0.0]
    assert mesh.triangles[0].tolist() == [0, 1, 2]
    for array in (mesh.vertices, mesh.triangles, signed_areas(mesh),
                  barycentric_gradient_table(mesh),
                  *quadrature_points(mesh), QUADRATURE.points,
                  QUADRATURE.weights):
        with pytest.raises(ValueError):
            array[0] = 1
