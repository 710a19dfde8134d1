import numpy as np
import pytest

from eafe_control.fem_core import (
    CoefficientField,
    DataError,
    interpolate_nodal,
    lumped_mass_diagonal,
)
from eafe_control import eafe, fem_core, mesh as mesh_module
from eafe_control.experiments import boundary_layer_case
from eafe_control.mesh import (
    TriMesh,
    build_unit_square,
    delaunay_check,
    uniform_refine,
)
from eafe_control.optimal_control import (
    SCHEMES,
    AssemblyError,
    ProblemSpec,
    assemble_system,
    recover_control,
    solve,
    write_solution_csv,
    write_solution_vtk,
)
from eafe_control.sparse_linalg import BlockSaddleSystem
from legacy_vtk import read_legacy_vtk, same_bits


def plain_coefficients(eps=1.0, zeta=(0.0, 0.0), gamma=0.0, beta=1.0):
    return CoefficientField(eps=eps, zeta=zeta, gamma=gamma, beta=beta,
                            div_zeta=0.0)


def test_recover_control_examples():
    assert recover_control(np.zeros(3), 1.0) == pytest.approx(np.zeros(3))
    assert recover_control(np.array([-1.0, 2.0]), 1.0) == pytest.approx(
        [1.0, -2.0]
    )
    assert recover_control(np.ones(4), 2.0) == pytest.approx(-0.5 * np.ones(4))
    with pytest.raises(ValueError):
        recover_control(np.ones(2), 0.0)


def test_problem_spec_needs_exactly_one_mode():
    coeff = plain_coefficients()
    with pytest.raises(AssemblyError):
        ProblemSpec(coeff)
    with pytest.raises(AssemblyError):
        ProblemSpec(coeff, y_d=1.0, f=lambda x, y: x, g=lambda x, y: y)
    with pytest.raises(AssemblyError):
        ProblemSpec(coeff, f=lambda x, y: x)  # missing g


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("coefficients", [
    {"eps": np.nan}, {"eps": np.inf}, {"gamma": np.nan},
    {"zeta": (np.nan, 0.0)},
], ids=["eps-nan", "eps-inf", "gamma-nan", "zeta-nan"])
def test_nonfinite_coefficients_raise_before_assembly(monkeypatch, scheme,
                                                      coefficients):
    def no_matrix(*args):
        raise AssertionError("a matrix was built from non-finite samples")

    for module in (fem_core, eafe):
        monkeypatch.setattr(module, "from_triplets", no_matrix)
    data = {"eps": 1e-2, "zeta": (-1.0, 0.0), "gamma": 0.0, **coefficients}
    spec = ProblemSpec(plain_coefficients(**data), y_d=1.0)
    with pytest.raises(DataError):
        solve(build_unit_square(3), spec, scheme)


def test_tracking_rhs_is_negative_load():
    mesh = build_unit_square(2)
    spec = ProblemSpec(plain_coefficients(), y_d=1.0)
    system = assemble_system(mesh, spec, "eafe")
    interior = mesh.interior_vertices
    expected = -lumped_mass_diagonal(mesh)[interior]
    assert system.rhs_top == pytest.approx(expected, rel=1e-13)
    assert system.rhs_bottom == pytest.approx(np.zeros(interior.size))


def test_zero_data_means_zero_solution():
    mesh = build_unit_square(3)
    spec = ProblemSpec(plain_coefficients(eps=0.5, zeta=(1.0, -0.5), gamma=1.0),
                       f=0.0, g=0.0)
    sol = solve(mesh, spec, "eafe")
    assert np.abs(sol.p_bar).max() <= 1e-12
    assert np.abs(sol.y_bar).max() <= 1e-12
    assert np.abs(sol.u_bar).max() <= 1e-12


def test_affine_exact_pair_reproduced_with_dirichlet_lift():
    # y = x, p = 1 - x solve the coupled system with f = -y, g = -p and
    # their own traces as Dirichlet data; P1 reproduces affine fields, so
    # the discrete solution matches the interpolant to solver precision
    mesh = build_unit_square(3)
    coeff = plain_coefficients(eps=1.0)
    exact_y = lambda x, y: x
    exact_p = lambda x, y: 1.0 - x
    spec = ProblemSpec(
        coeff,
        f=lambda x, y: -exact_y(x, y),
        g=lambda x, y: -exact_p(x, y),
        dirichlet_y=exact_y,
        dirichlet_p=exact_p,
    )
    for scheme in ("eafe", "galerkin"):
        sol = solve(mesh, spec, scheme)
        assert np.abs(sol.y_bar - interpolate_nodal(mesh, exact_y)).max() <= 1e-9
        assert np.abs(sol.p_bar - interpolate_nodal(mesh, exact_p)).max() <= 1e-9


def test_solution_pair_invariants():
    mesh = build_unit_square(3)
    spec = ProblemSpec(plain_coefficients(beta=2.0), y_d=1.0)
    sol = solve(mesh, spec, "eafe")
    assert sol.residual <= 1e-10
    assert sol.u_bar == pytest.approx(-sol.p_bar / 2.0)
    assert sol.scheme == "eafe"
    bnd = mesh.boundary_vertex
    assert np.abs(sol.y_bar[bnd]).max() == 0.0
    assert np.abs(sol.p_bar[bnd]).max() == 0.0


def test_adjoint_consistency_of_block_operator():
    # swapping the stiffness with its transpose in the block layout gives
    # exactly the transposed operator
    mesh = build_unit_square(2)
    spec = ProblemSpec(plain_coefficients(eps=1e-2, zeta=(-1.0, 0.0)), y_d=1.0)
    system = assemble_system(mesh, spec, "eafe")
    k = system.operator()
    import scipy.sparse as sp

    a = system.A
    m = system.M
    k_sharp = sp.bmat([[a, -m], [-m, -a.T]], format="csr")
    diff = abs(k.T - k_sharp)
    assert (diff.max() if diff.nnz else 0.0) == 0.0


def test_eafe_equals_galerkin_without_convection():
    mesh = build_unit_square(3)
    spec = ProblemSpec(plain_coefficients(eps=0.3, gamma=1.0), y_d=1.0)
    sol_e = solve(mesh, spec, "eafe", lump_reaction=False)
    sol_g = solve(mesh, spec, "galerkin")
    assert np.abs(sol_e.y_bar - sol_g.y_bar).max() <= 1e-10
    assert np.abs(sol_e.p_bar - sol_g.p_bar).max() <= 1e-10


def test_manufactured_forcing_matches_finite_differences():
    # independent check of the hard-coded closed-form right-hand sides
    from eafe_control.experiments import boundary_layer_case

    eps = 1e-2
    case = boundary_layer_case(eps)
    zeta = (-np.sqrt(2.0) / 2.0, -np.sqrt(2.0) / 2.0)
    gamma = 1.0
    h = 1e-5
    pts = [(0.3, 0.4), (0.55, 0.3), (0.45, 0.62), (0.7, 0.35), (0.52, 0.48)]
    for x, y in pts:
        x = np.array([x])
        y = np.array([y])

        def lap(f):
            return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                    - 4.0 * f(x, y)) / h**2

        def grad(f):
            return ((f(x + h, y) - f(x - h, y)) / (2 * h),
                    (f(x, y + h) - f(x, y - h)) / (2 * h))

        gpx, gpy = grad(case.exact_p)
        f_fd = (-eps * lap(case.exact_p) + zeta[0] * gpx + zeta[1] * gpy
                + gamma * case.exact_p(x, y) - case.exact_y(x, y))
        f_closed = case.problem.f(x, y)
        assert abs(f_fd - f_closed) <= 1e-4 * max(1.0, abs(f_closed))

        gyx, gyy = grad(case.exact_y)
        g_fd = (-case.exact_p(x, y) + eps * lap(case.exact_y)
                + zeta[0] * gyx + zeta[1] * gyy - gamma * case.exact_y(x, y))
        g_closed = case.problem.g(x, y)
        assert abs(g_fd - g_closed) <= 1e-4 * max(1.0, abs(g_closed))


def test_interpolant_residual_decreases_under_refinement():
    # consistency monitor: plugging the interpolant of the exact pair into
    # the discrete system gives residuals that shrink with h
    from eafe_control.experiments import smooth_case
    from eafe_control.optimal_control import _assemble_parts

    case = smooth_case()
    norms = []
    for level in (2, 3, 4):
        mesh = build_unit_square(level)
        system, _, _, _, _, interior = _assemble_parts(
            mesh, case.problem, "eafe", True
        )
        xi = np.concatenate([
            interpolate_nodal(mesh, case.exact_p)[interior],
            interpolate_nodal(mesh, case.exact_y)[interior],
        ])
        r = system.operator() @ xi - system.rhs()
        norms.append(np.linalg.norm(r) / np.linalg.norm(system.rhs()))
    assert norms[1] < norms[0]
    assert norms[2] < norms[1]


def test_solution_export(tmp_path):
    mesh = build_unit_square(2)
    spec = ProblemSpec(plain_coefficients(), y_d=1.0)
    sol = solve(mesh, spec, "eafe")
    csv_path = tmp_path / "solution.csv"
    write_solution_csv(mesh, sol, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,p_h,y_h,u_h"
    assert len(lines) == mesh.num_vertices + 1
    ref = ["%r,%r,%r,%r,%r" % (float(x), float(y), float(pv), float(yv),
                               float(uv))
           for (x, y), pv, yv, uv in zip(mesh.vertices, sol.p_bar, sol.y_bar,
                                         sol.u_bar)]
    assert lines[1:] == ref
    vtk_path = tmp_path / "solution.vtk"
    write_solution_vtk(mesh, sol, vtk_path)
    vtk = read_legacy_vtk(vtk_path)
    assert vtk.lines[1] == "optimality system solution"
    assert vtk.lines[4:] == [
        "POINTS %d double" % mesh.num_vertices,
        "CELLS %d %d" % (mesh.num_triangles, 4 * mesh.num_triangles),
        "CELL_TYPES %d" % mesh.num_triangles,
        "POINT_DATA %d" % mesh.num_vertices,
        "SCALARS p_h double", "LOOKUP_TABLE default",
        "SCALARS y_h double", "LOOKUP_TABLE default",
        "SCALARS u_h double", "LOOKUP_TABLE default"]
    assert same_bits(vtk.points[:, :2], mesh.vertices)
    assert np.array_equal(vtk.cells[:, 1:], mesh.triangles)
    for name, values in (("p_h", sol.p_bar), ("y_h", sol.y_bar),
                         ("u_h", sol.u_bar)):
        assert same_bits(vtk.fields[name], values)


def test_unknown_scheme_rejected():
    mesh = build_unit_square(1)
    spec = ProblemSpec(plain_coefficients(), y_d=1.0)
    with pytest.raises(ValueError):
        solve(mesh, spec, "supg")


def renumbered(mesh, rng):
    """The mesh with vertex i moved to index perm[i]; returns (mesh, perm)."""
    perm = rng.permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    return TriMesh(vertices, perm[mesh.triangles], level=mesh.level), perm


def test_mesh_order_solve_matches_minimum_degree_solve_on_refined_jittered_mesh():
    # shrunk along its diagonals, the structured mesh stays Delaunay under
    # a small jitter (see test_eafe); refinement keeps the angles
    rng = np.random.default_rng(31)
    base = build_unit_square(3)
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    vertices = base.vertices @ (np.eye(2) - 0.2 * np.outer(n, n))
    coarse = TriMesh(vertices + rng.uniform(-0.005, 0.005, vertices.shape),
                     base.triangles, level=3)
    mesh = uniform_refine(uniform_refine(renumbered(coarse, rng)[0]))
    assert delaunay_check(mesh).ok
    problem = boundary_layer_case(1e-2).problem
    sol = solve(mesh, problem, "eafe")
    assert sol.residual <= 1e-10 and sol.fill > 0
    system = assemble_system(mesh, problem, "eafe")
    mmd = BlockSaddleSystem(system.A, system.M, system.rhs_top,
                            system.rhs_bottom)
    p, y, res = mmd.solve()
    assert res <= 1e-10
    interior = mesh.interior_vertices
    x = np.concatenate([sol.p_bar[interior], sol.y_bar[interior]])
    ref = np.concatenate([p, y])
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_solution_invariant_under_vertex_renumbering(scheme):
    mesh = build_unit_square(5)
    other, perm = renumbered(mesh, np.random.default_rng(37))
    problem = boundary_layer_case(1e-2).problem
    sol = solve(mesh, problem, scheme)
    moved = solve(other, problem, scheme)
    for a, b in ((sol.p_bar, moved.p_bar), (sol.y_bar, moved.y_bar)):
        assert np.linalg.norm(b[perm] - a) <= 1e-10 * np.linalg.norm(a)


def test_solves_on_one_mesh_compute_its_order_once(monkeypatch):
    built = []
    build = mesh_module._nested_dissection_order
    monkeypatch.setattr(mesh_module, "_nested_dissection_order",
                        lambda mesh: built.append(mesh) or build(mesh))
    mesh = build_unit_square(4)
    problem = boundary_layer_case(1e-2).problem
    for scheme in SCHEMES:
        solve(mesh, problem, scheme)
    assert built == [mesh]
