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
    interpolate_nodal,
    lumped_mass_diagonal,
    quadrature_points,
    scatter_edges,
)
from eafe_control.eafe import (
    MonotonicityLossWarning,
    assemble_eafe_stiffness,
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
    build_unit_square_upperleft,
    coo_eafe,
    coo_galerkin,
    coo_mass,
    edge_tris_mass,
    jittered_renumbered_mesh,
    layer_profile,
    loop_galerkin_stiffness,
    quadrature_table,
    table_load,
)


def count_builders(monkeypatch):
    """
    Count the calls of the geometry builders, none of which keeps its
    result on the mesh: the signed areas (called by the mesh constructor),
    the gradient table, ``quadrature_points`` and ``interpolate_nodal``,
    as read through ``fem_core``.
    """
    counts = collections.Counter()

    def counting(module, name, key):
        build = getattr(module, name)

        def counted(*args):
            counts[key] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counted)

    counting(mesh_module, "signed_areas", "areas")
    counting(fem_core, "barycentric_gradient_table", "gradients")
    counting(fem_core, "quadrature_points", "quadrature")
    counting(fem_core, "interpolate_nodal", "interpolations")
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


def test_degenerate_triangle_raises():
    with pytest.raises(GeometryError):
        TriMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
    # positively oriented but below the degeneracy floor (area 5e-19): the
    # mesh rejects it when it is built, so no gradient table or edge
    # weight divides by it
    with pytest.raises(GeometryError, match=r"triangle 0 .*signed area 5e-19"):
        TriMesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-18]], [[0, 1, 2]])


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
    coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0)
    a = assemble_galerkin_stiffness(reference_triangle(), coeff).toarray()
    expected = np.array(
        [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
    )
    assert a == pytest.approx(expected, abs=1e-14)


def test_galerkin_reaction_only_equals_mass():
    # the diffusion must be positive, so the reaction term is isolated as
    # the difference of two assemblies that differ only in gamma
    mesh = build_unit_square(2)
    with_reaction, without = (
        assemble_galerkin_stiffness(
            mesh, CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=gamma))
        for gamma in (1.0, 0.0))
    m = assemble_mass(mesh)
    assert np.abs((with_reaction - without).toarray() - m.toarray()).max() <= 1e-15


def test_galerkin_pure_diffusion_spd_with_constant_kernel():
    mesh = build_unit_square(2)
    coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0)
    dense = assemble_galerkin_stiffness(mesh, coeff).toarray()
    assert np.abs(dense - dense.T).max() <= 1e-14
    ones = np.ones(mesh.num_vertices)
    assert np.abs(dense @ ones).max() <= 1e-13
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigs.min() >= -1e-12


def test_galerkin_convection_interior_rows_annihilate_constants():
    mesh = build_unit_square(3)
    coeff = CoefficientField(eps=1.0, zeta=(1.0, 0.0), gamma=0.0)
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
def test_nonpositive_diffusion_inside_the_domain_raises(assemble):
    # eps = 0.5 - x is negative on part of every quadrature row and at
    # the vertices with x > 1/2
    mesh = build_unit_square(2)
    coeff = CoefficientField(eps=lambda x, y: 0.5 - x, zeta=(0.0, 0.0),
                             gamma=0.0)
    with pytest.raises(CoefficientError,
                       match=r"sampled diffusion -0\.\d+ is not positive"):
        assemble(mesh, coeff)


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
        coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=gamma)
        with pytest.raises(CoefficientError,
                           match=r"reaction %s is negative" % smallest):
            assemble(mesh, coeff)


@pytest.mark.parametrize("path", sorted(REACTION_PATHS))
def test_zero_reaction_is_accepted(path):
    assemble, _ = REACTION_PATHS[path]
    mesh = build_unit_square(2)
    coeff = CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0)
    mat = assemble(mesh, coeff)
    # pure diffusion: the rows sum to zero
    assert np.abs(mat.sum(axis=1)).max() <= 1e-14


@pytest.mark.parametrize("eps", [0.0, -1.0])
@pytest.mark.parametrize("path", sorted(REACTION_PATHS))
def test_constant_nonpositive_diffusion_raises(path, eps):
    # a constant eps is checked like any other field, on every path
    assemble, _ = REACTION_PATHS[path]
    coeff = CoefficientField(eps=eps, zeta=(0.0, 0.0), gamma=1.0)
    with pytest.raises(CoefficientError,
                       match="sampled diffusion %g is not positive" % eps):
        assemble(build_unit_square(2), coeff)


@pytest.mark.parametrize("metric", ["quadrature", "interpolant"])
def test_solve_and_errors_compute_geometry_once(monkeypatch, metric):
    counts = count_builders(monkeypatch)
    case = boundary_layer_case(1e-2)
    mesh = build_unit_square(4)
    # the constructor computes the areas, and nothing computes them again
    assert counts["areas"] == 1 and mesh.areas.shape == (mesh.num_triangles,)
    sol = solve(mesh, case.problem, "eafe")
    solved = counts.copy()
    # EAFE assembly takes its edge weights from the areas, and both
    # right-hand sides come from one load pass
    assert solved["gradients"] == 0 and solved["quadrature"] == 1
    solution_errors(mesh, case, sol,
                    (None, EXAMPLES["boundary-layer"]["region"]), metric)
    # one pass per field (state, adjoint) measures both regions: one
    # gradient table each, and the quadrature points mapped (quadrature)
    # or the exact field interpolated (interpolant) once each
    pass_work = "quadrature" if metric == "quadrature" else "interpolations"
    assert counts - solved == collections.Counter({"gradients": 2,
                                                   pass_work: 2})


def test_cached_geometry_equals_fresh_computation():
    mesh = jittered_renumbered_mesh(4, seed=7)
    solve(mesh, boundary_layer_case(1e-2).problem, "galerkin")
    assert np.array_equal(mesh.areas, signed_areas(mesh))
    # the gradient table is built anew on each call: equal, not shared
    grads = barycentric_gradient_table(mesh)
    again = barycentric_gradient_table(mesh)
    assert np.array_equal(grads, again) and not np.shares_memory(grads, again)
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
    for array in (mesh.vertices, mesh.triangles, mesh.areas,
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
        gamma=lambda x, y: 1.0 + x * y,
    )


@pytest.mark.parametrize("mesh", [
    *(lambda k=k: build_unit_square(k) for k in range(1, 7)),
    lambda: build_unit_square_upperleft(4),
    lambda: jittered_renumbered_mesh(4, seed=11),
    lambda: jittered_renumbered_mesh(5, seed=3),
], ids=[*("level%d" % k for k in range(1, 7)), "upperleft",
        "jittered-renumbered-4", "jittered-renumbered-5"])
def test_scatter_pattern_equals_row_by_row_reference(mesh):
    # row r holds r and its edge neighbours, in ascending order
    mesh = mesh()
    n = mesh.num_vertices
    rows = [{r} for r in range(n)]
    for i, j in mesh.edges.tolist():
        rows[i].add(j)
        rows[j].add(i)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = [c for row in rows for c in sorted(row)]
    a = scatter_edges(mesh, np.ones(n), np.ones(mesh.num_edges),
                      np.ones(mesh.num_edges))
    assert a.indptr.dtype == a.indices.dtype == np.int32
    assert np.array_equal(a.indptr, indptr)
    assert np.array_equal(a.indices, indices)
    # every call builds fresh, writable index arrays
    again = scatter_edges(mesh, np.ones(n), np.ones(mesh.num_edges),
                          np.ones(mesh.num_edges))
    for built, other in ((a.indptr, again.indptr), (a.indices, again.indices)):
        assert built.flags.writeable and not np.shares_memory(built, other)


@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_mesh_holds_no_edge_pattern_after_solve(scheme):
    mesh = build_unit_square(4)
    before = dict(vars(mesh))
    case = boundary_layer_case(1e-2)
    sol = solve(mesh, case.problem, scheme)
    solution_errors(mesh, case, sol, (None,), "quadrature")
    # no edge pattern, order or gradient table is left on the mesh
    assert vars(mesh).keys() == before.keys()
    assert all(vars(mesh)[name] is value for name, value in before.items())


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


@pytest.mark.parametrize("mesh", [*PATTERN_MESHES.values(),
                                  lambda: build_unit_square(8)],
                         ids=[*PATTERN_MESHES, "level8"])
def test_mass_equals_edge_triangle_reference_bit_for_bit(mesh):
    # the edge entries summed over tri_edges are (area[first] +
    # area[second]) / 12 of the adjacency the mesh no longer keeps
    mesh = mesh()
    got, ref = assemble_mass(mesh), edge_tris_mass(mesh)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))


@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_galerkin_equals_loop_reference_bit_for_bit(mesh_name):
    mesh = PATTERN_MESHES[mesh_name]()
    coeff = varying_coefficients()
    got = assemble_galerkin_stiffness(mesh, coeff)
    ref = loop_galerkin_stiffness(mesh, coeff)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))


def test_scatter_places_each_edge_value_in_its_slot():
    mesh = jittered_renumbered_mesh(3, seed=5)
    n, ne = mesh.num_vertices, mesh.num_edges
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    # the slot of each entry is the rank of its key r * N + c
    order = np.argsort(rows * n + cols)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    distinct = (np.arange(1.0, n + 1.0), -np.arange(1.0, ne + 1.0),
                -0.5 * np.arange(1.0, ne + 1.0))
    # explicit zeros of both signs: a conversion that pruned them would
    # drop entries, and one that summed them onto +0 would flip -0.0
    zeros = (np.arange(1.0, n + 1.0), np.resize([0.0, -0.0, -1.5], ne),
             np.resize([-0.0, -2.5, 0.0], ne))
    for diag, ij, ji in (distinct, zeros):
        a = scatter_edges(mesh, diag, ij, ji)
        assert a.nnz == n + 2 * ne
        assert np.array_equal(a.indptr, indptr)
        assert np.array_equal(a.indices, cols[order])
        want = np.concatenate([diag, ij, ji])[order]
        assert np.array_equal(a.data.view(np.int64), want.view(np.int64))
        assert a.has_canonical_format
    # each matrix has writable index arrays of its own
    b = scatter_edges(mesh, *distinct)
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
