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
from eafe_control.optimal_control import ProblemSpec, solve
from eafe_control import sparse_linalg
from eafe_control.sparse_linalg import (
    SingularMatrixError,
    from_triplets,
    inverse_nonneg_check,
)
from eafe_control.verify_norms import (
    CSV_HEADER,
    ConvergenceTable,
    DesiredStateSignError,
    EmptyRegionError,
    certify_m_matrix,
    check_desired_state_bounds,
    convergence_tables,
    error_norms,
    interpolant_error_norms,
)
from test_acceptance import benchmark_coefficient_sets


def test_error_norms_interpolated_affine_is_exact():
    mesh = build_unit_square(3)
    field = lambda x, y: 1.0 + 2.0 * x - 0.5 * y
    grad = lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -0.5))
    numeric = interpolate_nodal(mesh, field)
    l2, h1 = error_norms(mesh, numeric, field, grad)
    assert l2 <= 1e-13 and h1 <= 1e-13


def test_error_norms_zero_against_one():
    mesh = build_unit_square(2)
    l2, h1 = error_norms(mesh, np.zeros(mesh.num_vertices), 1.0, (0.0, 0.0))
    assert l2 == pytest.approx(1.0, abs=1e-13)
    assert h1 == pytest.approx(1.0, abs=1e-13)


def test_error_norms_region_monotonicity():
    mesh = build_unit_square(3)
    rng = np.random.default_rng(31)
    numeric = rng.standard_normal(mesh.num_vertices)
    glob = error_norms(mesh, numeric, 0.0, (0.0, 0.0))
    loc = error_norms(mesh, numeric, 0.0, (0.0, 0.0),
                      region=(0.25, 0.75, 0.25, 0.75))
    assert glob[0] >= loc[0]
    assert glob[1] >= loc[1]


def test_error_norms_empty_region():
    mesh = build_unit_square(3)
    # with full-containment inclusion the box holds no whole element yet
    with pytest.raises(EmptyRegionError):
        error_norms(mesh, np.zeros(mesh.num_vertices), 0.0, (0.0, 0.0),
                    region=(0.4, 0.6, 0.4, 0.6))
    # one refinement later it does
    fine = build_unit_square(4)
    error_norms(fine, np.zeros(fine.num_vertices), 0.0, (0.0, 0.0),
                region=(0.4, 0.6, 0.4, 0.6))


def test_interpolant_metric_matches_matrix_norms():
    mesh = build_unit_square(2)
    rng = np.random.default_rng(41)
    numeric = rng.standard_normal(mesh.num_vertices)
    field = lambda x, y: np.sin(x) * np.cos(y)
    l2, h1 = interpolant_error_norms(mesh, numeric, field)
    from eafe_control.fem_core import assemble_mass

    d = numeric - interpolate_nodal(mesh, field)
    m = assemble_mass(mesh).toarray()
    lap = assemble_galerkin_stiffness(
        mesh, CoefficientField(eps=1.0, zeta=(0.0, 0.0), gamma=0.0,
                               div_zeta=0.0)
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
    assert back == table
    assert back.orders == table.orders


def test_certify_identity_matrix():
    eye = from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
    report = certify_m_matrix(eye)
    assert report.ok and report.diag_ok and report.offdiag_ok
    assert report.inverse_ok


def test_certify_rejects_positive_offdiagonal():
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)])
    report = certify_m_matrix(a)
    assert not report.ok and not report.offdiag_ok


def test_certify_skips_inverse_above_cap():
    trip = [(i, i, 2.0) for i in range(10)]
    a = from_triplets(10, 10, trip)
    report = certify_m_matrix(a, cap=5)
    assert report.inverse_report is None
    assert report.inverse_ok is None
    assert report.ok  # sign checks alone


def stability_coefficients():
    return CoefficientField(eps=1e-9, zeta=(-1.0, 0.0), gamma=0.0,
                            div_zeta=0.0)


def test_certify_galerkin_fails_under_dominant_convection():
    mesh = build_unit_square(4)
    a = assemble_galerkin_stiffness(mesh, stability_coefficients())
    interior = mesh.interior_vertices
    report = certify_m_matrix(a[interior][:, interior])
    assert not report.offdiag_ok
    assert not report.ok


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


@pytest.mark.parametrize("name", sorted(benchmark_coefficient_sets()))
def test_certificate_agrees_with_inverse_scan(name):
    coeff = benchmark_coefficient_sets()[name]
    for level in range(1, 6):
        a = _interior_eafe_block(coeff, level)
        report = certify_m_matrix(a)
        assert report.inverse_ok == inverse_nonneg_check(a).ok, level
        assert report.inverse_ok, level
        assert report.inverse_report.min_x > 0.0
        assert report.inverse_report.margin > report.inverse_report.tol


def test_certificate_rejects_z_matrix_with_negative_inverse():
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, -2.0), (1, 0, -2.0),
                             (1, 1, 1.0)])
    report = certify_m_matrix(a)
    assert report.diag_ok and report.offdiag_ok
    assert report.inverse_ok is False
    assert not report.ok
    assert report.inverse_ok == inverse_nonneg_check(a).ok


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


def test_certificate_factors_once_and_solves_one_rhs(monkeypatch):
    a = _interior_eafe_block(stability_coefficients(), 6)
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
    report = certify_m_matrix(a)
    assert report.inverse_ok
    assert len(factored) == 1
    assert solved == [(a.shape[0],)]
    assert factored == [{"diagonal_pivots": True}]


def test_bound_check_zero_desired_state():
    mesh = build_unit_square(3)
    spec = ProblemSpec(stability_coefficients(), y_d=0.0)
    sol = solve(mesh, spec, "eafe")
    report = check_desired_state_bounds(mesh, sol, 0.0, "nonneg")
    assert report.ok
    assert np.abs(report.state_lower).max() <= 1e-12
    assert np.abs(report.state_upper).max() <= 1e-12


def test_bound_check_mirrored_sign():
    mesh = build_unit_square(4)
    spec = ProblemSpec(stability_coefficients(), y_d=-1.0)
    sol = solve(mesh, spec, "eafe")
    report = check_desired_state_bounds(mesh, sol, -1.0, "nonpos")
    assert report.ok
    # state sits between the desired state and zero
    assert sol.y_bar.max() <= 1e-12
    assert sol.y_bar.min() >= -1.0 - 1e-12
    assert sol.p_bar.min() >= -1e-12


def test_bound_check_uses_the_solved_tracking_load():
    mesh = build_unit_square(3)
    y_d = lambda x, y: 1.0 + x * y
    sol = solve(mesh, ProblemSpec(stability_coefficients(), y_d=y_d), "eafe")
    assert np.array_equal(sol.tracking_load, assemble_load(mesh, y_d))
    general = solve(mesh, ProblemSpec(stability_coefficients(), f=1.0, g=0.0),
                    "eafe")
    assert general.tracking_load is None
    with pytest.raises(ValueError):
        check_desired_state_bounds(mesh, general, y_d, "nonneg")


def test_bound_check_sign_precondition():
    mesh = build_unit_square(2)
    spec = ProblemSpec(stability_coefficients(), y_d=1.0)
    sol = solve(mesh, spec, "eafe")
    with pytest.raises(DesiredStateSignError):
        check_desired_state_bounds(mesh, sol, lambda x, y: x - 0.5, "nonneg")
    with pytest.raises(ValueError):
        check_desired_state_bounds(mesh, sol, 1.0, "positive")


def test_bound_report_dump(tmp_path):
    mesh = build_unit_square(3)
    spec = ProblemSpec(stability_coefficients(), y_d=1.0)
    sol = solve(mesh, spec, "eafe")
    report = check_desired_state_bounds(mesh, sol, 1.0, "nonneg")
    path = tmp_path / "bounds.json"
    report.dump(path)
    data = json.loads(path.read_text())
    assert data["ok"] is True
    assert data["tol"] == pytest.approx(report.tol)
    assert set(data) >= {"worst_state_lower", "worst_state_upper",
                         "worst_adjoint"}


def test_convergence_tables_handle_empty_local_region():
    from eafe_control.experiments import boundary_layer_case

    case = boundary_layer_case(1e-2)
    glob, loc = convergence_tables(
        case, "eafe", [3, 4], [None, (0.4, 0.6, 0.4, 0.6)]
    )
    assert None not in glob.errors["ey_l2"]
    assert loc.errors["ey_l2"][0] is None  # no contained element at level 3
    assert loc.errors["ey_l2"][1] is not None
    assert loc.orders["ey_l2"] == [None, None]


def test_convergence_tables_reject_unsorted_levels():
    from eafe_control.experiments import smooth_case

    with pytest.raises(ValueError):
        convergence_tables(smooth_case(), "eafe", [3, 2], [None])


def test_unknown_metric_rejected():
    from eafe_control.experiments import smooth_case
    from eafe_control.verify_norms import solution_errors

    mesh = build_unit_square(2)
    case = smooth_case()
    sol = solve(mesh, case.problem, "eafe")
    with pytest.raises(ValueError):
        solution_errors(mesh, case, sol, metric="nodal-max")
