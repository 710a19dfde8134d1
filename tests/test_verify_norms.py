import json

import numpy as np
import pytest

from eafe_control.eafe import assemble_eafe_stiffness
from eafe_control.fem_core import (
    CoefficientField,
    assemble_galerkin_stiffness,
    assemble_load,
    interpolate_nodal,
)
from eafe_control.mesh import build_unit_square
from eafe_control.optimal_control import ProblemSpec, solve, solve_schemes
from eafe_control import sparse_linalg
from eafe_control.sparse_linalg import SingularMatrixError
from eafe_control.verify_norms import (
    CSV_HEADER,
    ConvergenceTable,
    DesiredStateSignError,
    certify_m_matrix,
    check_desired_state_bounds,
    error_norms,
    interpolant_error_norms,
)
from reference import (
    from_triplets,
    inverse_nonneg_check,
    jittered_renumbered_mesh,
    same_table,
    smooth_case,
)
from test_acceptance import benchmark_coefficient_sets


def test_error_norms_interpolated_affine_is_exact():
    mesh = build_unit_square(3)
    field = lambda x, y: 1.0 + 2.0 * x - 0.5 * y
    grad = lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -0.5))
    numeric = interpolate_nodal(mesh, field)
    [(l2, h1)] = error_norms(mesh, numeric, field, grad)
    assert l2 <= 1e-13 and h1 <= 1e-13


def test_error_norms_zero_against_one():
    mesh = build_unit_square(2)
    [(l2, h1)] = error_norms(mesh, np.zeros(mesh.num_vertices), 1.0,
                             (0.0, 0.0))
    assert l2 == pytest.approx(1.0, abs=1e-13)
    assert h1 == pytest.approx(1.0, abs=1e-13)


def test_error_norms_region_monotonicity():
    mesh = build_unit_square(3)
    rng = np.random.default_rng(31)
    numeric = rng.standard_normal(mesh.num_vertices)
    glob, loc = error_norms(mesh, numeric, 0.0, (0.0, 0.0),
                            (None, (0.25, 0.75, 0.25, 0.75)))
    assert glob[0] >= loc[0]
    assert glob[1] >= loc[1]


def check_empty_region(norms):
    """
    ``norms(mesh, numeric, regions)`` gives None on a box with no whole
    element, beside the pairs of the other regions, and one pass over
    several regions gives what one pass per region gives, bit for bit.
    """
    box = (0.4, 0.6, 0.4, 0.6)
    rng = np.random.default_rng(13)
    # with full-containment inclusion the box holds no whole element yet
    mesh = build_unit_square(3)
    numeric = rng.standard_normal(mesh.num_vertices)
    whole, empty, again = norms(mesh, numeric, (None, box, None))
    assert empty is None and whole[0] > 0.0
    assert whole == again == norms(mesh, numeric, (None,))[0]
    # one refinement later it does
    fine = build_unit_square(4)
    numeric = rng.standard_normal(fine.num_vertices)
    both = norms(fine, numeric, (None, box))
    assert both == [norms(fine, numeric, (region,))[0]
                    for region in (None, box)]
    assert 0.0 < both[1][0] < both[0][0]


def test_error_norms_empty_region():
    check_empty_region(lambda mesh, numeric, regions: error_norms(
        mesh, numeric, 0.0, (0.0, 0.0), regions))


def test_interpolant_metric_empty_region():
    check_empty_region(lambda mesh, numeric, regions: interpolant_error_norms(
        mesh, numeric, 0.0, regions))


@pytest.mark.parametrize("region", [None, (0.25, 0.75, 0.3, 0.9)],
                         ids=["global", "region"])
def test_exact_interpolant_metric_equals_quadrature_of_the_difference(region):
    mesh = jittered_renumbered_mesh(4, seed=3)
    rng = np.random.default_rng(17)
    numeric = rng.standard_normal(mesh.num_vertices)
    field = lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y)
    diff = numeric - interpolate_nodal(mesh, field)
    [exact] = interpolant_error_norms(mesh, numeric, field, (region,))
    [quadrature] = error_norms(mesh, diff, 0.0, (0.0, 0.0), (region,))
    assert exact == pytest.approx(quadrature, rel=1e-13, abs=0.0)


def test_interpolant_metric_matches_matrix_norms():
    mesh = build_unit_square(2)
    rng = np.random.default_rng(41)
    numeric = rng.standard_normal(mesh.num_vertices)
    field = lambda x, y: np.sin(x) * np.cos(y)
    [(l2, h1)] = interpolant_error_norms(mesh, numeric, field)
    from eafe_control.fem_core import assemble_mass

    d = numeric - interpolate_nodal(mesh, field)
    m = assemble_mass(mesh).toarray()
    lap = assemble_galerkin_stiffness(
        mesh, CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0)
    ).toarray()
    assert l2 == pytest.approx(np.sqrt(d @ m @ d), rel=1e-12)
    assert h1 == pytest.approx(np.sqrt(d @ m @ d + d @ lap @ d), rel=1e-12)


def test_synthetic_orders_are_exactly_one():
    errs = [0.5 * 2.0**-k for k in range(1, 5)]
    table = ConvergenceTable(
        [1, 2, 3, 4], {c: errs for c in ConvergenceTable.COLUMNS}
    )
    for c in ConvergenceTable.COLUMNS:
        assert table.orders[c][0] is None
        assert table.orders[c][1:] == pytest.approx([1.0, 1.0, 1.0])


def test_zero_errors_flag_undefined_orders():
    table = ConvergenceTable(
        [1, 2], {c: [0.0, 0.0] for c in ConvergenceTable.COLUMNS}
    )
    for c in ConvergenceTable.COLUMNS:
        assert table.orders[c] == [None, None]


def test_csv_round_trip_lossless(tmp_path):
    errs = {
        "ey_l2": [1.0 / 3.0, 1.47e-4],
        "ey_h1": [0.1 + 1e-17, 6.37e-2],
        "ep_l2": [None, 2.0e-5],
        "ep_h1": [0.5, None],
    }
    table = ConvergenceTable([7, 8], errs)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    back = ConvergenceTable.from_csv(path)
    assert same_table(back, table)
    assert back.orders == table.orders


@pytest.mark.parametrize("row", ["3,0.5,,0.25", "3" + ",0.5" * 9],
                         ids=["short", "long"])
def test_csv_row_of_the_wrong_width_is_a_value_error(tmp_path, row):
    path = tmp_path / "table.csv"
    path.write_text(CSV_HEADER + "\n2" + ",0.5" * 8 + "\n" + row + "\n")
    with pytest.raises(ValueError, match="line 3 of .* expected 9"):
        ConvergenceTable.from_csv(path)


def test_certify_identity_matrix():
    eye = from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
    report = certify_m_matrix(eye)
    assert report.ok and report.diag_ok and report.offdiag_ok
    assert report.inverse_ok


def test_certify_rejects_positive_offdiagonal():
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)])
    report = certify_m_matrix(a)
    assert not report.ok and not report.offdiag_ok


def stability_coefficients():
    return CoefficientField(eps=1e-9, zeta=(-1.0, 0.0), gamma=0.0)


def test_certify_galerkin_fails_under_dominant_convection():
    mesh = build_unit_square(4)
    a = assemble_galerkin_stiffness(mesh, stability_coefficients())
    interior = mesh.interior_vertices
    report = certify_m_matrix(a[interior][:, interior])
    assert not report.offdiag_ok
    assert not report.ok
    assert report.inverse_ok is None
    assert report.vector is None
    assert report.min_x is None
    assert report.margin is None
    assert report.tol is None


def test_certify_eafe_passes_for_benchmark_coefficients():
    from eafe_control.experiments import coefficient_sets

    for name, coeff in coefficient_sets().items():
        mesh = build_unit_square(3)
        a = assemble_eafe_stiffness(mesh, coeff)
        interior = mesh.interior_vertices
        report = certify_m_matrix(a[interior][:, interior])
        assert report.ok, name
        assert report.inverse_ok, name


def _interior_eafe_block(coeff, level):
    mesh = build_unit_square(level)
    interior = mesh.interior_vertices
    return assemble_eafe_stiffness(mesh, coeff)[interior][:, interior]


def test_certify_runs_inverse_half_above_5000_unknowns():
    a = _interior_eafe_block(stability_coefficients(), 7)
    assert a.shape[0] == 16129
    report = certify_m_matrix(a)
    assert report.inverse_ok
    assert report.min_x > 0.0
    assert report.margin > report.tol
    assert report.ok


@pytest.mark.parametrize("name", sorted(benchmark_coefficient_sets()))
def test_certificate_agrees_with_inverse_scan(name):
    coeff = benchmark_coefficient_sets()[name]
    for level in range(1, 6):
        a = _interior_eafe_block(coeff, level)
        report = certify_m_matrix(a)
        assert report.inverse_ok == inverse_nonneg_check(a).ok, level
        assert report.inverse_ok, level
        assert report.vector == "sweep", level
        assert report.min_x > 0.0
        assert report.margin > report.tol


def test_certificate_rejects_z_matrix_with_negative_inverse():
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, -2.0), (1, 0, -2.0),
                             (1, 1, 1.0)])
    report = certify_m_matrix(a)
    assert report.diag_ok and report.offdiag_ok
    assert report.inverse_ok is False
    assert not report.ok
    assert report.inverse_ok == inverse_nonneg_check(a).ok


def test_certificate_reads_any_sparse_format():
    coeff = benchmark_coefficient_sets()["boundary-layer eps=0.01"]
    a = _interior_eafe_block(coeff, 4)  # nonsymmetric: A^T x != A x
    want = vars(certify_m_matrix(a))
    assert want["ok"]
    for other in (a.tocsc(), a.tocoo()):
        assert vars(certify_m_matrix(other)) == want


def test_certificate_singular_z_matrix_raises():
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0),
                             (1, 1, 1.0)])
    with pytest.raises(SingularMatrixError):
        certify_m_matrix(a)


def test_certificate_accepts_reducible_m_matrix():
    # under pure convection the inverse has exact zeros (no upwind path)
    a = _interior_eafe_block(stability_coefficients(), 5)
    assert inverse_nonneg_check(a).min_entry == 0.0
    assert certify_m_matrix(a).inverse_ok


@pytest.fixture
def counted_factor(monkeypatch):
    """Records each ``_factorize`` call's keywords and each solve's shape."""
    factored, solved = [], []
    factorize = sparse_linalg._factorize

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, trans="N"):
            solved.append(np.shape(rhs))
            return self.lu.solve(rhs, trans)

    def recording(mat, **kwargs):
        factored.append(kwargs)
        return CountingLU(factorize(mat, **kwargs))

    monkeypatch.setattr(sparse_linalg, "_factorize", recording)
    return factored, solved


def test_certificate_sweep_certifies_eafe_without_a_factor(counted_factor):
    a = _interior_eafe_block(stability_coefficients(), 6)
    report = certify_m_matrix(a)
    assert report.ok and report.inverse_ok
    assert report.vector == "sweep"
    assert report.min_x > 0.0 and report.margin > report.tol
    assert counted_factor == ([], [])


def test_certificate_falls_back_to_one_factor_and_one_solve(counted_factor):
    # an M-matrix (determinant 0.055) on which the sweep's x has
    # (Z x)_2 = -0.885 < 0
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, -0.9), (1, 0, -1.05),
                             (1, 1, 1.0)])
    report = certify_m_matrix(a)
    assert report.ok and report.inverse_ok
    assert report.vector == "inverse"
    assert report.margin > report.tol
    assert counted_factor == ([{}], [(2,)])
    assert inverse_nonneg_check(a).ok


def test_certificate_rejects_z_matrix_that_is_not_an_m_matrix(counted_factor):
    # determinant -0.1: no x > 0 has Z x > 0, so both candidates fail
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, -1.1), (1, 0, -1.0),
                             (1, 1, 1.0)])
    report = certify_m_matrix(a)
    assert report.diag_ok and report.offdiag_ok
    assert report.inverse_ok is False and not report.ok
    assert report.vector == "inverse"
    assert counted_factor == ([{}], [(2,)])
    assert not inverse_nonneg_check(a).ok


def test_bound_check_zero_desired_state():
    mesh = build_unit_square(3)
    spec = ProblemSpec(stability_coefficients(), y_d=0.0)
    sol = solve(mesh, spec, "eafe")
    report = check_desired_state_bounds(mesh, sol, 0.0)
    assert report.ok
    assert report.sign == "nonneg"
    assert np.abs(report.state_lower).max() <= 1e-12
    assert np.abs(report.state_upper).max() <= 1e-12


def test_bound_check_mirrored_sign():
    mesh = build_unit_square(4)
    spec = ProblemSpec(stability_coefficients(), y_d=-1.0)
    sol = solve(mesh, spec, "eafe")
    report = check_desired_state_bounds(mesh, sol, -1.0)
    assert report.ok
    assert report.sign == "nonpos"
    # state sits between the desired state and zero
    assert sol.y_bar.max() <= 1e-12
    assert sol.y_bar.min() >= -1.0 - 1e-12
    assert sol.p_bar.min() >= -1e-12


def test_bound_check_uses_the_solved_tracking_load():
    mesh = build_unit_square(3)
    y_d = lambda x, y: 1.0 + x * y
    sol = solve(mesh, ProblemSpec(stability_coefficients(), y_d=y_d), "eafe")
    assert np.array_equal(sol.tracking_load, assemble_load(mesh, y_d))
    general = solve(mesh, ProblemSpec(stability_coefficients(),
                                      source=(1.0, 0.0)), "eafe")
    assert general.tracking_load is None
    with pytest.raises(ValueError):
        check_desired_state_bounds(mesh, general, y_d)


def test_bound_check_sign_precondition():
    mesh = build_unit_square(2)
    spec = ProblemSpec(stability_coefficients(), y_d=1.0)
    sol = solve(mesh, spec, "eafe")
    with pytest.raises(DesiredStateSignError):
        check_desired_state_bounds(mesh, sol, lambda x, y: x - 0.5)


def double_glazing_wind(x, y):
    """The recirculating wind (2Y(1 - X^2), -2X(1 - Y^2)), X = 2x - 1, Y = 2y - 1."""
    cx, cy = 2.0 * x - 1.0, 2.0 * y - 1.0
    return 2.0 * cy * (1.0 - cx**2), -2.0 * cx * (1.0 - cy**2)


@pytest.mark.parametrize("level", [4, 5])
def test_bounds_fail_under_a_recirculating_wind_although_eafe_certifies(
        level):
    # the desired-state bound is a property of the data, not of the
    # M-matrix alone: under the double-glazing wind both schemes converge
    # to a state above y_d = 1 (max y_h 1.195 and 1.147 for EAFE, 1.140
    # and 1.132 for Galerkin at levels 4 and 5), while EAFE's stiffness
    # certifies; experiments.run would raise on these data
    mesh = build_unit_square(level)
    spec = ProblemSpec(CoefficientField(eps=1e-2, zeta=double_glazing_wind,
                                        gamma=0.0), y_d=1.0)
    for sol in solve_schemes(mesh, spec, ("eafe", "galerkin")):
        if sol.scheme == "eafe":
            mreport = certify_m_matrix(sol.stiffness)
            assert mreport.ok and mreport.vector == "inverse"
        assert not check_desired_state_bounds(mesh, sol, 1.0).ok
        assert sol.y_bar.max() > 1.1, sol.scheme


@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_bound_check_arrays_equal_those_of_the_solved_mass(monkeypatch,
                                                          scheme):
    # the solution keeps no mass matrix; the bound check assembles its own,
    # which must give the margins of the mass the solve assembled, bit for bit
    from eafe_control import fem_core

    masses = []
    assemble_mass = fem_core.assemble_mass

    def recording(mesh):
        masses.append(assemble_mass(mesh))
        return masses[-1]

    monkeypatch.setattr(fem_core, "assemble_mass", recording)
    spec = ProblemSpec(stability_coefficients(), y_d=1.0)
    for level in (3, 4, 5):
        masses.clear()
        mesh = build_unit_square(level)
        sol = solve(mesh, spec, scheme)
        (solved,) = masses
        report = check_desired_state_bounds(mesh, sol, 1.0)
        assert len(masses) == 2
        m1 = solved @ sol.y_bar
        assert report.sign == "nonneg"
        assert report.tol == 1e-10 * np.abs(sol.tracking_load).max()
        assert np.array_equal(report.state_lower, m1)
        assert np.array_equal(report.state_upper, sol.tracking_load - m1)
        assert np.array_equal(report.adjoint_margin, -sol.p_bar)


def test_bound_report_dump(tmp_path):
    mesh = build_unit_square(3)
    spec = ProblemSpec(stability_coefficients(), y_d=1.0)
    sol = solve(mesh, spec, "eafe")
    report = check_desired_state_bounds(mesh, sol, 1.0)
    path = tmp_path / "bounds.json"
    report.dump(path)
    data = json.loads(path.read_text())
    assert data["ok"] is True
    assert data["tol"] == pytest.approx(report.tol)
    assert set(data) >= {"worst_state_lower", "worst_state_upper",
                         "worst_adjoint"}


def test_unknown_metric_rejected():
    from eafe_control.verify_norms import solution_errors

    mesh = build_unit_square(2)
    case = smooth_case()
    sol = solve(mesh, case.problem, "eafe")
    with pytest.raises(ValueError):
        solution_errors(mesh, case, sol, (None,), "nodal-max")
