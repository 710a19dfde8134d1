import collections
import math
import tracemalloc
import warnings

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
    edge_pattern,
    interpolate_nodal,
    lumped_mass_diagonal,
    quadrature_points,
    scatter_edges,
)
from eafe_control.eafe import (
    MonotonicityLossWarning,
    assemble_eafe_stiffness,
    triangle_edge_weights,
)
from eafe_control.experiments import EXAMPLES, boundary_layer_case
from eafe_control.mesh import (
    GeometryError,
    TriMesh,
    build_unit_square,
    signed_areas,
)
from eafe_control.optimal_control import solve
from eafe_control.verify_norms import solution_errors
from reference import (
    argsort_edge_pattern,
    build_unit_square_upperleft,
    coo_eafe,
    coo_galerkin,
    coo_mass,
    from_triplets,
    jittered_renumbered_mesh,
    layer_profile,
    quadrature_table,
    table_load,
)


def count_builders(monkeypatch):
    """
    Count the calls of the private geometry builders behind the mesh
    cache, and of ``quadrature_points``, which maps the points anew on
    each call.
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
    counting(fem_core, "quadrature_points", lambda mesh: "quadrature")
    return counts


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
    # the EAFE edge weights check the same floor without the table
    with pytest.raises(GeometryError):
        triangle_edge_weights(squashed)
    assert counts["gradients"] == 2


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


def test_load_nonfinite_at_last_quadrature_row_raises():
    calls = []

    def f(x, y):
        calls.append(x.shape)
        last = len(calls) == QUADRATURE.weights.size
        return np.full_like(x, np.nan if last else 1.0)

    with pytest.raises(DataError):
        assemble_load(build_unit_square(2), f)
    assert len(calls) == QUADRATURE.weights.size


@pytest.mark.parametrize("field", ["f", "g"])
def test_load_matches_point_table_reference(field):
    # corner sums over the quadrature rows before the scatter change the
    # order of the additions only: agreement to a few ulps of the largest entry
    mesh = jittered_renumbered_mesh(5, seed=13)
    source = boundary_layer_case(1e-2).problem.source
    f = lambda x, y: source(x, y)["fg".index(field)]
    b, ref = assemble_load(mesh, f), table_load(mesh, f)
    assert np.abs(b - ref).max() <= 1e-14 * np.abs(ref).max()


def test_pair_load_equals_two_scalar_passes():
    # one pass over a pair-valued field gives each component's own load
    mesh = jittered_renumbered_mesh(5, seed=13)
    source = boundary_layer_case(1e-2).problem.source
    f, g = assemble_load(mesh, source)
    assert np.array_equal(f, assemble_load(mesh, lambda x, y: source(x, y)[0]))
    assert np.array_equal(g, assemble_load(mesh, lambda x, y: source(x, y)[1]))


@pytest.mark.parametrize("block", [1, 7, 100])
def test_load_blocks_keep_the_bits(monkeypatch, block):
    # every corner sum is added in row order whatever the block size
    mesh = jittered_renumbered_mesh(4, seed=5)
    source = boundary_layer_case(1e-2).problem.source
    whole = assemble_load(mesh, source)
    monkeypatch.setattr(fem_core, "LOAD_BLOCK", block)
    for blocked, ref in zip(assemble_load(mesh, source), whole):
        assert np.array_equal(blocked, ref)


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
        gamma_assumption=0.5, div_zeta=2.0,
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


# the three places that sample gamma, and where each samples it
REACTION_PATHS = {
    "galerkin": (assemble_galerkin_stiffness, "quadrature"),
    "eafe-lumped": (assemble_eafe_stiffness, "vertex"),
    "eafe-consistent": (
        lambda mesh, coeff: assemble_eafe_stiffness(mesh, coeff,
                                                    lump_reaction=False),
        "quadrature"),
}


def _negative_at_one_sample(mesh, where):
    """gamma = 1 but at one sample point of ``where``, where it is -1e-3."""
    if where == "vertex":
        x0, y0 = mesh.vertices[mesh.num_vertices // 2]
    else:
        _, _, xq, yq = next(quadrature_points(mesh))
        x0, y0 = xq[0], yq[0]
    return lambda x, y: np.where((x == x0) & (y == y0), -1e-3, 1.0)


@pytest.mark.parametrize("path", sorted(REACTION_PATHS))
def test_negative_reaction_sample_raises(path):
    assemble, where = REACTION_PATHS[path]
    mesh = build_unit_square(2)
    for gamma, smallest in ((-1.0, "-1"),
                            (_negative_at_one_sample(mesh, where), "-0.001")):
        coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=gamma,
                                 div_zeta=0.0)
        with pytest.raises(CoefficientError,
                           match=r"reaction %s is negative" % smallest):
            assemble(mesh, coeff)


@pytest.mark.parametrize("path", sorted(REACTION_PATHS))
def test_zero_reaction_is_accepted(path):
    assemble, _ = REACTION_PATHS[path]
    mesh = build_unit_square(2)
    coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0,
                             div_zeta=0.0)
    mat = assemble(mesh, coeff)
    # pure diffusion: the rows sum to zero
    assert np.abs(mat.sum(axis=1)).max() <= 1e-14


def test_gamma_assumption_needs_divergence():
    # a declared bound on gamma - div(zeta)/2 is checked on the analytic
    # divergence only; without it the field is refused, not approximated
    with pytest.raises(ValueError, match="needs div_zeta"):
        CoefficientField(eps=1.0, zeta=lambda x, y: (x * y, -0.5 * y * y),
                         gamma=1.0, gamma_assumption=0.5)
    # no bound declared, no divergence needed
    CoefficientField(eps=1.0, zeta=(1.0, 0.0), gamma=0.0)


@pytest.mark.parametrize("metric", ["quadrature", "interpolant"])
def test_solve_and_errors_compute_geometry_once(monkeypatch, metric):
    counts = count_builders(monkeypatch)
    case = boundary_layer_case(1e-2)
    mesh = build_unit_square(4)
    sol = solve(mesh, case.problem, "eafe")
    solved = counts.copy()
    # EAFE assembly takes its edge weights from the areas; the first
    # consumer of gradients is the error norms
    assert solved["gradients"] == 0
    # both right-hand sides come from one load pass
    assert solved["quadrature"] == 1
    for region in (None, EXAMPLES["boundary-layer"]["region"]):
        solution_errors(mesh, case, sol, region=region, metric=metric)
    assert counts["areas"] == 1 and counts["gradients"] == 1
    # quadrature points are not cached: the quadrature metric maps them once
    # per error_norms call (state and adjoint, two regions), the
    # interpolant metric never
    mapped = counts["quadrature"] - solved["quadrature"]
    assert mapped == (4 if metric == "quadrature" else 0)


def test_cached_geometry_equals_fresh_computation():
    mesh = jittered_renumbered_mesh(4, seed=7)
    solve(mesh, boundary_layer_case(1e-2).problem, "galerkin")
    assert np.array_equal(signed_areas(mesh), mesh_module._signed_areas(mesh))
    assert np.array_equal(barycentric_gradient_table(mesh),
                          fem_core._barycentric_gradients(mesh))
    table = quadrature_table(mesh)
    rows = list(quadrature_points(mesh))
    assert len(rows) == QUADRATURE.weights.size
    for q, (lam, w, x, y) in enumerate(rows):
        assert np.array_equal(lam, QUADRATURE.points[q])
        assert w == QUADRATURE.weights[q]
        assert x.shape == y.shape == (mesh.num_triangles,)
        assert np.array_equal(x, table[0, q]) and np.array_equal(y, table[1, q])
    # each call maps the points anew; the mesh keeps no copy
    again = list(quadrature_points(mesh))
    assert not any(np.shares_memory(a, b) for (*_, x, y), (*_, u, v)
                   in zip(rows, again) for a in (x, y) for b in (u, v))


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
                  *(a for row in quadrature_points(mesh) for a in row[2:]),
                  QUADRATURE.points, QUADRATURE.weights):
        with pytest.raises(ValueError):
            array[0] = 1


# ----------------------------------------------------------------------
# assembly on the edge-graph CSR pattern


PATTERN_MESHES = {
    "lowerleft": lambda: build_unit_square(4),
    "upperleft": lambda: build_unit_square_upperleft(4),
    "jittered-renumbered": lambda: jittered_renumbered_mesh(4, seed=11),
}

ASSEMBLERS = {
    "eafe-lumped": (assemble_eafe_stiffness, coo_eafe),
    "eafe-consistent": (
        lambda mesh, coeff: assemble_eafe_stiffness(mesh, coeff,
                                                    lump_reaction=False),
        lambda mesh, coeff: coo_eafe(mesh, coeff, lump_reaction=False)),
    "galerkin": (assemble_galerkin_stiffness, coo_galerkin),
    "mass": (lambda mesh, coeff: assemble_mass(mesh),
             lambda mesh, coeff: coo_mass(mesh)),
}


def varying_coefficients():
    return CoefficientField(
        eps=lambda x, y: 1e-2 * (1.0 + x + y * y),
        zeta=lambda x, y: (np.sin(2.0 * np.pi * y) - 0.5, np.cos(3.0 * x)),
        gamma=lambda x, y: 1.0 + x * y, eps_floor=1e-2,
    )


@pytest.mark.parametrize("mesh", [
    *(lambda k=k: build_unit_square(k) for k in range(1, 7)),
    lambda: build_unit_square_upperleft(4),
    lambda: jittered_renumbered_mesh(4, seed=11),
    lambda: jittered_renumbered_mesh(5, seed=3),
], ids=[*("level%d" % k for k in range(1, 7)), "upperleft",
        "jittered-renumbered-4", "jittered-renumbered-5"])
def test_edge_pattern_equals_argsort_reference(mesh):
    mesh = mesh()
    pattern = edge_pattern(mesh)
    for built, ref in zip(pattern, argsort_edge_pattern(mesh)):
        assert built.dtype == ref.dtype
        assert np.array_equal(built, ref)
    # every call builds fresh, writable arrays
    again = edge_pattern(mesh)
    for built, other in zip(pattern, again):
        assert built.flags.writeable and not np.shares_memory(built, other)


@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_mesh_holds_no_edge_pattern_after_solve(scheme):
    mesh = build_unit_square(4)
    solve(mesh, boundary_layer_case(1e-2).problem, scheme)
    # what the mesh caches after a solve; the pattern is not among it
    assert set(mesh._geometry) <= {"areas", "gradients", "nd_order"}


@pytest.mark.parametrize("matrix", ASSEMBLERS)
@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_pattern_assembly_equals_coo_reference(mesh_name, matrix):
    mesh = PATTERN_MESHES[mesh_name]()
    assemble, reference = ASSEMBLERS[matrix]
    coeff = varying_coefficients()
    with warnings.catch_warnings():
        # the jitter may tilt a zero-weight diagonal edge either way
        warnings.simplefilter("ignore", MonotonicityLossWarning)
        a = assemble(mesh, coeff)
    ref = reference(mesh, coeff)
    assert a.indptr.dtype == ref.indptr.dtype
    assert a.indices.dtype == ref.indices.dtype
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.abs(a.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


def test_scatter_places_each_edge_value_in_its_slot():
    mesh = jittered_renumbered_mesh(3, seed=5)
    n, ne = mesh.num_vertices, mesh.num_edges
    diag = np.arange(1.0, n + 1.0)
    ij = -np.arange(1.0, ne + 1.0)
    ji = 0.5 * ij
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    ref = from_triplets(n, n, (np.concatenate([np.arange(n), i, j]),
                               np.concatenate([np.arange(n), j, i]),
                               np.concatenate([diag, ij, ji])))
    a = scatter_edges(mesh, diag, ij, ji)
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.array_equal(a.data, ref.data)
    assert a.has_canonical_format
    # the matrix takes the writable index arrays of a pattern built for
    # the call, which no other matrix shares
    b = scatter_edges(mesh, diag, ij, ji)
    assert not np.shares_memory(a.indices, b.indices)
    assert not np.shares_memory(a.indptr, b.indptr)
    a.indices[0] = a.indices[0]


@pytest.mark.parametrize("assemble", [
    lambda mesh, coeff: assemble_eafe_stiffness(mesh, coeff),
    lambda mesh, coeff: assemble_mass(mesh),
], ids=["eafe", "mass"])
def test_assembly_peak_memory_stays_below_eight_results(assemble):
    # COO triplets took 19x (EAFE) and 12x (mass) the bytes of the result
    mesh = build_unit_square(6)
    coeff = boundary_layer_case(1e-2).problem.coeff
    assemble(mesh, coeff)  # warm the mesh caches
    tracemalloc.start()
    try:
        a = assemble(mesh, coeff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)
