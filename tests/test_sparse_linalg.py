import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eafe_control.eafe import MonotonicityLossWarning
from eafe_control.experiments import boundary_layer_case, stability_problem
from eafe_control.fem_core import CoefficientField
from eafe_control.mesh import build_unit_square
from eafe_control import optimal_control, sparse_linalg
from eafe_control.optimal_control import ProblemSpec
from eafe_control.sparse_linalg import (
    BlockSaddleSystem,
    ResidualCertificationError,
    ResourceLimitError,
    SingularMatrixError,
)
from eafe_control.verify_norms import certify_m_matrix
from reference import (
    assemble_system,
    build_unit_square_upperleft,
    from_triplets,
    inverse_nonneg_check,
    jittered_renumbered_mesh,
    mass_is_symmetric,
    presb_precision,
    saddle_operator,
    saddle_rhs,
    solve_direct,
)


def test_duplicates_summed():
    a = from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.0)])
    assert a.toarray() == pytest.approx(np.array([[3.0]]))


def test_empty_triplets():
    a = from_triplets(3, 2, [])
    assert a.nnz == 0
    assert a.indptr.tolist() == [0, 0, 0, 0]
    assert a.toarray() == pytest.approx(np.zeros((3, 2)))


def test_shuffled_triplets_match_sorted():
    rng = np.random.default_rng(7)
    triplets = [(i, j, float(10 * i + j + 1)) for i in range(3) for j in range(3)]
    shuffled = list(triplets)
    rng.shuffle(shuffled)
    a = from_triplets(3, 3, triplets)
    b = from_triplets(3, 3, shuffled)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_csr_canonical_structure():
    a = from_triplets(2, 4, [(0, 3, 1.0), (0, 1, 2.0), (1, 0, 3.0), (0, 1, 4.0)])
    assert isinstance(a, sp.csr_matrix) and a.has_canonical_format
    for i in range(a.shape[0]):
        cols = a.indices[a.indptr[i]: a.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)
    assert a.toarray()[0, 1] == 6.0


def test_out_of_range_indices():
    with pytest.raises(IndexError):
        from_triplets(2, 2, [(2, 0, 1.0)])
    with pytest.raises(IndexError):
        from_triplets(2, 2, [(0, -1, 1.0)])


def test_solve_identity():
    eye = from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert solve_direct(eye, b) == pytest.approx(b)


def test_solve_diagonal_2x2():
    a = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, -3.0)])
    x = solve_direct(a, np.array([2.0, 3.0]))
    assert x == pytest.approx([1.0, -1.0])


def test_solve_against_dense_lu():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((50, 50))
    dense += np.diag(60.0 + np.abs(dense).sum(axis=1))
    a = sp.csr_matrix(dense)
    b = rng.standard_normal(50)
    x = solve_direct(a, b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10
    x_dense = np.linalg.solve(dense, b)
    assert np.abs(x - x_dense).max() <= 1e-10


def test_solve_zero_rhs():
    a = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 1.0)])
    assert solve_direct(a, np.zeros(2)) == pytest.approx(np.zeros(2))


def test_singular_matrix_raises():
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises((SingularMatrixError, ResidualCertificationError)):
        solve_direct(a, np.array([1.0, 2.0]))


def test_inverse_nonneg_tridiagonal():
    # the classic second-difference matrix has an entrywise positive inverse
    trip = []
    for i in range(5):
        trip.append((i, i, 2.0))
        if i > 0:
            trip.append((i, i - 1, -1.0))
            trip.append((i - 1, i, -1.0))
    a = from_triplets(5, 5, trip)
    report = inverse_nonneg_check(a)
    assert report.ok
    assert report.min_entry > 0.0


def test_inverse_nonneg_detects_negative_entry():
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)])
    report = inverse_nonneg_check(a)
    assert not report.ok
    assert report.min_entry == pytest.approx(-2.0)
    assert report.argmin == (0, 1)


def _hand_built(a, m, top, bottom):
    """The system of hand-built blocks, factored in natural order."""
    return BlockSaddleSystem(a, m, np.array(top, dtype=float),
                             np.array(bottom, dtype=float),
                             order=np.arange(a.shape[0]))


def _scaled(base, s):
    """
    ``base`` with its stiffness times ``s`` and its bottom block divided by
    it: the system of control-cost weight s^2 in the solved form.  With
    p = s q, [[A^T, -M], [-M, -s^2 A]] (p, y) = (rhs_top, rhs_bottom) reads
    [[K^T, -M], [-M, -K]] (q, y) = (rhs_top, rhs_bottom / s), K = s A, so
    an s far from 1 unbalances the stiffness against the mass block.
    """
    return BlockSaddleSystem(s * base.A, base.M, base.rhs_top,
                             base.rhs_bottom / s, order=base.order)


def _small_system():
    a = from_triplets(2, 2, [(0, 0, 2.0), (0, 1, -1.0), (1, 0, -0.5), (1, 1, 3.0)])
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 0.25), (1, 0, 0.25), (1, 1, 1.0)])
    return _hand_built(a, m, [1.0, 2.0], [0.0, -1.0])


def test_block_operator_reconstruction_exact():
    system = _small_system()
    k = saddle_operator(system)
    at = system.A.T
    msp = system.M
    ref = sp.bmat([[at, -msp], [-msp, -system.A]], format="csr")
    assert (k != ref).nnz == 0  # identical CSR values


def test_block_solve_certified():
    system = _small_system()
    p, y, res = system.solve()
    assert res <= 1e-10
    k = saddle_operator(system)
    x = np.concatenate([p, y])
    assert np.linalg.norm(k @ x - saddle_rhs(system)) <= 1e-9


def test_block_rejects_asymmetric_mass():
    # M_10 is a stored zero, so both blocks share one symmetric pattern
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.0),
                             (1, 1, 1.0)])
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 0.5), (1, 0, 0.0),
                             (1, 1, 1.0)])
    with pytest.raises(ValueError, match="mass matrix is not symmetric"):
        _hand_built(a, m, np.zeros(2), np.zeros(2))


def _stability_system(scheme, level, beta):
    """The stability system at control-cost weight ``beta`` (:func:`_scaled`)."""
    mesh = build_unit_square(level)
    base = assemble_system(mesh, stability_problem(1e-9), scheme)
    return _scaled(base, np.sqrt(beta))


@pytest.mark.parametrize("beta", [1e-6, 1.0, 1e3])
@pytest.mark.parametrize("level", [4, 6])
@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_krylov_solve_matches_direct_reference(scheme, level, beta):
    system = _stability_system(scheme, level, beta)
    p, y, res = system.solve()
    assert res <= 1e-10
    assert system.iterations <= 20
    x_ref = solve_direct(saddle_operator(system), saddle_rhs(system))
    x = np.concatenate([p, y])
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _general_system(beta):
    # nonzero f, g and Dirichlet traces: both right-hand side blocks are
    # nonzero, unlike the tracking problems, whose bottom block is zero;
    # at control-cost weight beta (:func:`_scaled`)
    coeff = CoefficientField(eps=1e-2, zeta=(-1.0, 0.5), gamma=1.0)
    problem = ProblemSpec(
        coeff, source=lambda x, y: (np.sin(3.0 * x) + y, np.cos(2.0 * y) - x),
        dirichlet_y=lambda x, y: 1.0 + x * y,
        dirichlet_p=lambda x, y: x - 2.0 * y)
    return _scaled(assemble_system(build_unit_square(5), problem, "eafe"),
                   np.sqrt(beta))


@pytest.mark.parametrize("beta", [1e-6, 1e3])
def test_krylov_certificate_holds_for_both_blocks_across_beta(beta):
    system = _general_system(beta)
    assert system.rhs_top.any() and system.rhs_bottom.any()
    p, y, res = system.solve()
    assert res <= 1e-10
    k, b = saddle_operator(system), saddle_rhs(system)
    x = np.concatenate([p, y])
    # the block-computed certificate agrees with the monolithic operator
    assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)
    x_ref = solve_direct(k, b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_krylov_solve_applies_presb_once_per_iteration(monkeypatch):
    system = assemble_system(build_unit_square(5), stability_problem(1e-9),
                             "eafe")
    solves = []
    factorize = sparse_linalg._factorize

    class CountingFactor:
        def __init__(self, lu):
            self.lu = lu
            self.nnz = lu.nnz

        def solve(self, rhs, trans="N"):
            solves.append(trans)
            return self.lu.solve(rhs, trans=trans)

    def no_operator(*args, **kwargs):
        raise AssertionError("solve built the 2n x 2n operator")

    monkeypatch.setattr(sparse_linalg, "_factorize",
                        lambda mat, **kwargs: CountingFactor(
                            factorize(mat, **kwargs)))
    monkeypatch.setattr(sparse_linalg.sp, "bmat", no_operator)
    p, y, res = system.solve()
    assert res <= 1e-10
    assert system.iterations > 0
    assert len(solves) == 2 * system.iterations
    assert solves.count("T") == system.iterations


@pytest.mark.parametrize("example, level, precision", [
    ("boundary-layer", 6, "float32"),
    ("stability", 5, "float64"),
])
def test_krylov_directions_are_kept_in_the_factor_precision(
        monkeypatch, example, level, precision):
    problem = (boundary_layer_case(1e-2).problem if example == "boundary-layer"
               else stability_problem(1e-9))
    system = assemble_system(build_unit_square(level), problem, "eafe")
    cycles = _record_cycles(monkeypatch)
    p, y, res = system.solve()
    assert system.precision == precision
    assert res <= 1e-10
    # the solve restarts, and no cycle keeps more than GMRES_RESTART
    # directions beside the factor
    assert len(cycles) > 1
    assert all(0 < len(kept) <= sparse_linalg.GMRES_RESTART
               for kept in cycles)
    assert sum(map(len, cycles)) == system.iterations
    for kept in cycles:
        for z, q in kept:
            for half in (z, q):
                assert half.shape == (system.n,) and half.dtype == precision


def _record_cycles(monkeypatch):
    """One list per GMRES cycle of the directions it kept."""
    cycles = []
    cycle = sparse_linalg._fgmres_cycle

    def recording(matvec, psolve, direction, r, target):
        cycles.append([])

        def keeping(v):
            cycles[-1].append(psolve(v))
            return cycles[-1][-1]

        return cycle(matvec, keeping, direction, r, target)

    monkeypatch.setattr(sparse_linalg, "_fgmres_cycle", recording)
    return cycles


def test_krylov_solve_stops_when_a_cycle_makes_no_progress(monkeypatch):
    # cycles that leave the iterate where it is, as on the residual's
    # rounding floor: the solve raises after the second cycle, the first
    # that does not lower the residual, not after GMRES_CYCLES of them
    system = _stability_system("eafe", 4, 1.0)
    cycles = []

    def stalled(matvec, psolve, direction, r, target):
        cycles.append(target)
        return np.zeros_like(r), 1

    monkeypatch.setattr(sparse_linalg, "_fgmres_cycle", stalled)
    with pytest.raises(ResidualCertificationError,
                       match="relative residual 1 exceeds certificate"):
        system.solve()
    assert len(cycles) == system.iterations == 2


@pytest.mark.parametrize("top, bottom", [([0.0, 3.0], [0.0, 0.0]),
                                         ([0.0, 0.0], [4.0, 0.0])])
def test_krylov_exact_preconditioner_breaks_down_after_one_iteration(top,
                                                                    bottom):
    # A = 0 makes PRESB the operator itself; with a diagonal M of powers of
    # two and a right-hand side along a unit vector every operation is
    # exact, so the first Arnoldi step leaves exactly zero (h[1, 0] == 0)
    a = from_triplets(2, 2, [(0, 0, 0.0), (1, 1, 0.0)])
    m = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 4.0)])
    system = _hand_built(a, m, top, bottom)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, y, res = system.solve()
    assert system.iterations == 1
    assert res == 0.0
    assert np.array_equal(y, -np.array(top) / [2.0, 4.0])
    assert np.array_equal(p, -np.array(bottom) / [2.0, 4.0])


@pytest.mark.parametrize("example", ["stability", "boundary-layer"])
def test_krylov_solve_restarts_to_the_unrestarted_solution(monkeypatch,
                                                           example):
    # cycles of GMRES_RESTART iterations end before the certificate, so the
    # solve restarts from the residual of its iterate; the reference runs
    # one cycle long enough to need no restart
    problem = (boundary_layer_case(1e-2).problem if example == "boundary-layer"
               else stability_problem(1e-9))
    system = assemble_system(build_unit_square(4), problem, "eafe")
    cycles = _record_cycles(monkeypatch)
    p, y, res = system.solve()
    assert res <= 1e-10
    assert len(cycles) > 1
    cycles.clear()
    monkeypatch.setattr(sparse_linalg, "GMRES_RESTART", 40)
    p_ref, y_ref, res_ref = system.solve()
    assert res_ref <= 1e-10
    assert len(cycles) == 1
    x, x_ref = np.concatenate([p, y]), np.concatenate([p_ref, y_ref])
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_krylov_solve_factors_one_n_by_n_matrix(monkeypatch):
    system = _stability_system("eafe", 3, 2.0)
    factored = []
    factorize = sparse_linalg._factorize

    def recording(mat, **kwargs):
        factored.append((mat, kwargs))
        return factorize(mat, **kwargs)

    monkeypatch.setattr(sparse_linalg, "_factorize", recording)
    system.solve()
    ((f, kwargs),) = factored
    ref = (system.M + system.A).tocsc()
    assert f.shape == (system.n, system.n)
    assert abs(f - ref).max() == 0.0
    assert list(kwargs) == ["order"] and kwargs["order"] is system.order


def test_krylov_solve_zero_rhs():
    system = _stability_system("eafe", 3, 1.0)
    system.solve()
    assert system.fill > 0
    system.rhs_top[:] = 0.0
    system.rhs_bottom[:] = 0.0
    p, y, res = system.solve()
    assert not p.any() and not y.any() and res == 0.0
    assert system.iterations == 0
    assert system.fill == 0
    assert system.precision is None


def test_presb_factor_fill_stays_below_colamd():
    # threshold partial pivoting in a symmetric ordering took 50 M fill here
    system = _stability_system("galerkin", 7, 1.0)
    system.solve()
    colamd = spla.splu((system.M + system.A).tocsc())
    assert 0 < system.fill <= colamd.nnz


@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_mesh_order_fill_at_most_minimum_degree(scheme):
    for level in (5, 6, 7):
        system = assemble_system(build_unit_square(level),
                                 stability_problem(1e-9), scheme)
        assert system.order is not None
        system.solve()
        mmd = sparse_linalg._factorize(system.M + system.A)
        assert 0 < system.fill < mmd.nnz


def _precision_system(example, scheme):
    # level 4: edge Peclet 0.44 on the boundary layer at eps = 1e-1, and
    # beyond the exponential range on the stability problem at eps = 1e-9;
    # at control-cost weight 2 (:func:`_scaled`)
    problem = (boundary_layer_case(1e-1).problem if example == "boundary-layer"
               else stability_problem(1e-9))
    base = assemble_system(build_unit_square(4), problem, scheme)
    return _scaled(base, np.sqrt(2.0))


@pytest.mark.parametrize("example, scheme, precision", [
    ("boundary-layer", "eafe", "float32"),
    ("stability", "eafe", "float64"),
    ("stability", "galerkin", "float32"),
])
def test_presb_factor_precision_follows_edge_peclet(monkeypatch, example,
                                                    scheme, precision):
    system = _precision_system(example, scheme)
    factored = []
    factorize = sparse_linalg._factorize

    def recording(mat, **kwargs):
        factored.append(mat)
        return factorize(mat, **kwargs)

    monkeypatch.setattr(sparse_linalg, "_factorize", recording)
    p, y, res = system.solve()
    assert system.precision == precision
    assert res <= 1e-10 and system.iterations <= 20
    (f,) = factored
    ref = (system.M + system.A).astype(precision)
    assert f.dtype == precision and abs(f - ref).max() == 0.0
    fill = system.fill

    # no asymmetry allowed: the float64 path on the same system
    monkeypatch.setattr(sparse_linalg, "SINGLE_PRECISION_ASYMMETRY", 0.0)
    p64, y64, res64 = system.solve()
    assert system.precision == "float64"
    assert res64 <= 1e-10 and system.iterations <= 20
    assert system.fill == fill
    x, x64 = np.concatenate([p, y]), np.concatenate([p64, y64])
    assert np.linalg.norm(x - x64) <= 1e-9 * np.linalg.norm(x64)


@pytest.mark.parametrize("a_ij, a_ji, precision", [
    (-sparse_linalg.SINGLE_PRECISION_ASYMMETRY, -1.0, "float32"),
    (-np.nextafter(sparse_linalg.SINGLE_PRECISION_ASYMMETRY, np.inf), -1.0,
     "float64"),
    (0.0, 0.0, "float32"),
    (-1.0, 0.0, "float64"),
], ids=["ratio-e2", "ratio-above-e2", "both-zero", "one-zero"])
def test_presb_precision_bounds_every_off_diagonal_pair(a_ij, a_ji, precision):
    a = from_triplets(2, 2, [(0, 0, 20.0), (0, 1, a_ij), (1, 0, a_ji),
                             (1, 1, 20.0)])
    m = from_triplets(2, 2, [(0, 0, 2.0), (0, 1, 0.0), (1, 0, 0.0),
                             (1, 1, 2.0)])
    system = _hand_built(a, m, [1.0, 2.0], [0.0, -1.0])
    p, y, res = system.solve()
    assert system.precision == precision
    assert res <= 1e-10


@pytest.mark.parametrize("scale", [1e-40, 1e40])
def test_presb_entries_outside_float32_range_select_float64(scale):
    base = _precision_system("boundary-layer", "eafe")
    system = BlockSaddleSystem(scale * base.A, scale * base.M, base.rhs_top,
                               base.rhs_bottom, order=base.order)
    p, y, res = system.solve()
    assert system.precision == "float64"
    assert res <= 1e-10


# The default call in minimum-degree order, as the LU fallback of
# certify_m_matrix makes it, the same with an explicit ``order=None``, and
# a caller-computed order, as BlockSaddleSystem.solve passes it.
FACTOR_MODES = [{}, {"order": None}, {"order": np.array([1, 0])}]


@pytest.mark.parametrize("mode", FACTOR_MODES)
@pytest.mark.parametrize("failure", [
    RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()"),
    RuntimeError("Not enough memory to perform factorization."),
    MemoryError(),
])
def test_factor_allocation_failure_raises_resource_limit_error(monkeypatch,
                                                               mode, failure):
    def failing(*args, **kwargs):
        raise failure

    monkeypatch.setattr(sparse_linalg.spla, "splu", failing)
    a = from_triplets(2, 2, [(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)])
    # SuperLU's MemoryError() carries no text: the message names the
    # matrix, and keeps SuperLU's text where there is one
    with pytest.raises(ResourceLimitError,
                       match=r"order 2 with 4 stored entries") as info:
        sparse_linalg._factorize(a, **mode)
    assert str(failure) in str(info.value)


@pytest.mark.parametrize("mode", FACTOR_MODES)
def test_singular_factor_still_raises_singular_matrix_error(mode):
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(SingularMatrixError):
        sparse_linalg._factorize(a, **mode)


@pytest.fixture
def splu_calls(monkeypatch):
    """
    Records the matrix, the keywords and the factor of every SuperLU call,
    and hands back the unwrapped ``splu``.
    """
    calls = []
    splu = spla.splu

    def recording(mat, **kwargs):
        calls.append((mat, kwargs, splu(mat, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(sparse_linalg.spla, "splu", recording)
    return calls, splu


def test_factor_uses_one_column_panels_on_both_paths(splu_calls):
    calls, _ = splu_calls
    # the PRESB factor in the mesh's nested-dissection order
    sol = optimal_control.solve(build_unit_square(4), stability_problem(1e-9),
                                "eafe")
    assert sol.residual <= 1e-10
    # the certificate's LU in minimum-degree order: an M-matrix on which
    # the sweep's x fails
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, -0.9), (1, 0, -1.05),
                             (1, 1, 1.0)])
    assert certify_m_matrix(a).vector == "inverse"
    assert [kwargs["permc_spec"] for _, kwargs, _ in calls] == [
        "NATURAL", "MMD_AT_PLUS_A"]
    assert all(kwargs["panel_size"] == 1 for _, kwargs, _ in calls)


@pytest.mark.parametrize("example, level, precision", [
    ("boundary-layer", 6, "float32"),
    ("stability", 5, "float64"),
])
def test_one_column_panels_keep_pivots_and_fill(splu_calls, example, level,
                                               precision):
    calls, splu = splu_calls
    problem = (boundary_layer_case(1e-2).problem if example == "boundary-layer"
               else stability_problem(1e-9))
    system = assemble_system(build_unit_square(level), problem, "eafe")
    p, y, res = system.solve()
    assert res <= 1e-10
    assert system.precision == precision
    ((mat, kwargs, lu),) = calls
    wide = splu(mat, **{k: v for k, v in kwargs.items() if k != "panel_size"})
    assert lu.nnz == wide.nnz == system.fill
    assert np.array_equal(lu.perm_r, wide.perm_r)
    assert np.array_equal(lu.perm_c, wide.perm_c)


@pytest.mark.parametrize("k", [-600, 600, 1020])
def test_solve_scales_the_right_hand_side_by_a_power_of_two(k):
    # both blocks times 2^k give p and y times 2^k, bit for bit; without
    # the scaling, 2^600 overflowed the GMRES norms and 2^-600 underflowed
    # the right-hand-side norm to zero
    base = _stability_system("eafe", 4, 1.0)
    p, y, res = base.solve()
    system = BlockSaddleSystem(base.A, base.M, np.ldexp(base.rhs_top, k),
                               np.ldexp(base.rhs_bottom, k), order=base.order)
    pk, yk, resk = system.solve()
    assert np.array_equal(pk, np.ldexp(p, k))
    assert np.array_equal(yk, np.ldexp(y, k))
    assert resk == res and system.iterations == base.iterations


def test_solution_beyond_float64_range_raises():
    # y = -rhs_top / M_00 = -2^1020 * 2^4 is no float64
    a = from_triplets(1, 1, [(0, 0, 0.0)])
    m = from_triplets(1, 1, [(0, 0, 2.0**-4)])
    system = _hand_built(a, m, [2.0**1020], [0.0])
    with pytest.raises(ResidualCertificationError, match="overflows"):
        system.solve()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_krylov_numbers_raise(bad):
    def matvec(x):
        return np.full_like(x, bad)

    # numpy warns of inf - inf on the way; the error is what counts
    with np.errstate(invalid="ignore"):
        with pytest.raises(ResidualCertificationError, match="Hessenberg"):
            sparse_linalg._fgmres_cycle(matvec, lambda v: v, lambda z: z,
                                        np.ones(4), 0.0)
        with pytest.raises(ResidualCertificationError, match="residual norm"):
            sparse_linalg._fgmres_cycle(matvec, lambda v: v, lambda z: z,
                                        np.full(4, bad), 0.0)


def test_krylov_solve_out_of_memory_raises_resource_limit_error(monkeypatch):
    system = assemble_system(build_unit_square(3), stability_problem(1e-9), "eafe")

    def failing(*args, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()")

    monkeypatch.setattr(sparse_linalg.spla, "splu", failing)
    with pytest.raises(ResourceLimitError):
        system.solve()


def test_krylov_stage_out_of_memory_raises_resource_limit_error(monkeypatch):
    # numpy's MemoryError after the factor is typed as the factor's is,
    # with the system's size and the iterations so far
    system = assemble_system(build_unit_square(3), stability_problem(1e-9),
                             "eafe")
    error = MemoryError("Unable to allocate 2.00 MiB for an array")

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(sparse_linalg, "_fgmres_cycle", failing)
    message = (r"Krylov stage \(49 interior dofs, 0 GMRES iterations so "
               r"far\): Unable to allocate")
    with pytest.raises(ResourceLimitError, match=message) as raised:
        system.solve()
    assert raised.value.__cause__ is error
    assert system.fill > 0


def test_krylov_solve_unattainable_certificate_raises(monkeypatch):
    system = _stability_system("eafe", 3, 1.0)
    monkeypatch.setattr(sparse_linalg, "DEFAULT_SOLVE_RTOL", 1e-30)
    with pytest.raises(ResidualCertificationError):
        system.solve()


def test_krylov_solve_singular_preconditioner_factor_raises():
    # M + A = 0 for A = -M
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 0.25), (1, 0, 0.25), (1, 1, 1.0)])
    system = _hand_built(-m, m, [1.0, 2.0], [0.0, -1.0])
    with pytest.raises(SingularMatrixError):
        system.solve()


def test_krylov_iterations_do_not_grow_with_level():
    counts = {}
    for level in (4, 7):
        system = _stability_system("eafe", level, 1.0)
        system.solve()
        counts[level] = system.iterations
    assert counts[7] <= 20
    assert abs(counts[7] - counts[4]) <= 3


def _accepted_as_mass(m):
    """
    Whether BlockSaddleSystem accepts ``m`` as its symmetric mass block;
    ``m`` is also passed as A, so that both share one pattern.
    """
    n = m.shape[0]
    try:
        _hand_built(m, m, np.zeros(n), np.zeros(n))
    except ValueError:
        return False
    return True


def _assert_presb_matrix_is_the_sum(system):
    """
    F of ``system`` is ``M + A`` in the dtype of its factor, stored on
    the pattern of M, with no copy of its index arrays: the entries that
    scipy's sum stores, in ``indptr``, ``indices`` and ``data``, and
    stored zeros where that sum cancels or adds two stored zeros.
    """
    f = system._presb_matrix()
    assert f.dtype == system.precision
    assert np.shares_memory(f.indices, system.M.indices)
    assert np.array_equal(f.indptr, system.M.indptr)
    ref = (system.M + system.A).tocsr().astype(system.precision)
    stored = f.copy()
    stored.eliminate_zeros()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(stored, name), getattr(ref, name),
                              equal_nan=name == "data")
    return f


def _setup_check_meshes():
    for level in (3, 4, 5, 6):
        yield build_unit_square(level)
        yield build_unit_square_upperleft(level)
    yield jittered_renumbered_mesh(5, seed=19)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-9])
@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_setup_checks_decide_as_the_union_pattern_rules(scheme, eps):
    # the precision and symmetry verdicts read from the data arrays match
    # the rules that formed |A| - e^2 |A|^T and M - M^T, and F is M + A,
    # also with A times s, added on the pattern that the interior blocks share, with no copy of
    # its index arrays
    problem = boundary_layer_case(eps).problem
    for mesh in _setup_check_meshes():
        with warnings.catch_warnings():
            # the jittered mesh is not Delaunay everywhere
            warnings.simplefilter("ignore", MonotonicityLossWarning)
            system = assemble_system(mesh, problem, scheme)
        for s in (1.0, np.sqrt(2.0)):
            scaled = _scaled(system, s)
            f = _assert_presb_matrix_is_the_sum(scaled)
            assert scaled.precision == presb_precision(scaled.A, scaled.M)
            assert np.count_nonzero(f.data) == f.nnz  # no entry of F cancels
        assert _accepted_as_mass(system.M) and mass_is_symmetric(system.M)
        # a convective stiffness block is no mass block, by either rule
        assert not _accepted_as_mass(system.A)
        assert not mass_is_symmetric(system.A)


HAND_BUILT_PAIRS = {
    # (A entries, M entries) of 3 x 3 matrices on one symmetric pattern,
    # with stored zeros where a block has no entry; M is symmetric in value
    "one-stored-zero": ([(0, 0, 20.0), (0, 1, 0.0), (1, 0, -1.0),
                         (1, 1, 20.0), (2, 2, 20.0)],
                        [(0, 0, 2.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 2.0),
                         (2, 2, 2.0)]),
    "both-stored-zero-shared": ([(0, 0, 20.0), (0, 1, 0.0), (1, 0, 0.0),
                                 (1, 1, 20.0), (2, 2, 20.0)],
                                [(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5),
                                 (1, 1, 2.0), (2, 2, 2.0)]),
    "nan-entry": ([(0, 0, 20.0), (0, 1, np.nan), (1, 0, -1.0),
                   (1, 1, 20.0), (2, 2, 20.0)],
                  [(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 2.0),
                   (2, 2, 2.0)]),
    "sum-cancels-on-shared-pattern": ([(0, 0, 1.0), (0, 1, -1.0),
                                       (1, 0, -1.0), (1, 1, 1.0),
                                       (2, 2, 1.0)],
                                      [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0),
                                       (1, 1, 2.0), (2, 2, 2.0)]),
}

OFF_PATTERN_PAIRS = {
    # (A entries, M entries) of 3 x 3 matrices on no one symmetric pattern
    "different-patterns": ([(0, 0, 20.0), (0, 1, 0.0), (1, 0, -1.0),
                            (1, 1, 20.0), (2, 2, 20.0)],
                           [(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0)]),
    "nonsymmetric-pattern": ([(0, 0, 20.0), (0, 2, -1.0), (1, 1, 20.0),
                              (1, 2, -1.0), (2, 1, -2.0), (2, 2, 20.0)],
                             [(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0)]),
    "nonsymmetric-pattern-stored-zero": ([(0, 0, 20.0), (0, 2, 0.0),
                                          (1, 1, 20.0), (2, 2, 20.0)],
                                         [(0, 0, 2.0), (0, 2, 0.0),
                                          (1, 1, 2.0), (2, 2, 2.0)]),
}


def _hand_built_pair(entries):
    a_entries, m_entries = entries
    a, m = from_triplets(3, 3, a_entries), from_triplets(3, 3, m_entries)
    # the stored zeros are kept
    assert (a.nnz, m.nnz) == (len(a_entries), len(m_entries))
    return a, m


@pytest.mark.parametrize("case", sorted(HAND_BUILT_PAIRS))
def test_setup_checks_decide_as_the_union_pattern_rules_by_hand(case):
    a, m = _hand_built_pair(HAND_BUILT_PAIRS[case])
    system = _hand_built(a, m, np.ones(3), np.zeros(3))
    for s in (1.0, 0.5):
        scaled = _scaled(system, s)
        _assert_presb_matrix_is_the_sum(scaled)
        assert scaled.precision == presb_precision(scaled.A, m)
    for mat in (a, m):
        assert _accepted_as_mass(mat) == mass_is_symmetric(mat)


def test_setup_checks_by_hand_cover_both_verdicts():
    verdicts = {}
    for case, entries in HAND_BUILT_PAIRS.items():
        a, m = _hand_built_pair(entries)
        system = _hand_built(a, m, np.ones(3), np.zeros(3))
        system._presb_matrix()
        verdicts[case] = (system.precision, _accepted_as_mass(a))
    assert verdicts == {
        "one-stored-zero": ("float64", False),
        "both-stored-zero-shared": ("float32", True),
        "nan-entry": ("float64", True),  # NaN compares false to the bound
        "sum-cancels-on-shared-pattern": ("float32", True),
    }


@pytest.mark.parametrize("case", sorted(OFF_PATTERN_PAIRS))
def test_block_rejects_a_pair_off_one_symmetric_pattern(case):
    a, m = _hand_built_pair(OFF_PATTERN_PAIRS[case])
    for pair in ((a, m), (m, a)):
        with pytest.raises(ValueError, match="one structurally symmetric"):
            _hand_built(*pair, np.ones(3), np.zeros(3))


def test_block_rejects_a_pair_not_in_canonical_csr():
    system = _small_system()
    a, m = system.A, system.M
    # the two entries of row 0 swapped, the same in both blocks
    swap = [1, 0, 2, 3]
    unsorted = [sp.csr_matrix((x.data[swap], x.indices[swap], x.indptr),
                              shape=x.shape) for x in (a, m)]
    assert not unsorted[0].has_canonical_format
    for pair in ((a.tocsc(), m.tocsc()), (a, m.tocsc()), (a.tocoo(), m),
                 unsorted):
        with pytest.raises(ValueError, match="canonical CSR"):
            _hand_built(*pair, [1.0, 2.0], [0.0, -1.0])


def test_block_requires_an_order_of_the_n_dofs():
    system = _small_system()
    args = (system.A, system.M, system.rhs_top, system.rhs_bottom)
    with pytest.raises(TypeError, match="order"):
        BlockSaddleSystem(*args)  # keyword-only, with no default
    for order in (None, np.arange(3), np.arange(4).reshape(2, 2),
                  # not a permutation of 0, 1: a repeated index, floats,
                  # an index out of range, a negative index that numpy
                  # would wrap round to a valid one, and a boolean mask
                  np.array([1, 1]), np.array([0.0, 1.0]), np.array([0, 2]),
                  np.array([-1, 0]), np.array([True, False])):
        with pytest.raises(ValueError, match="order must be a permutation"):
            BlockSaddleSystem(*args, order=order)
    for order in (np.array([1, 0]), np.array([0, 1], dtype=np.uint8)):
        _, _, res = BlockSaddleSystem(*args, order=order).solve()
        assert res <= 1e-10


@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_assembled_pair_is_kept_as_passed(monkeypatch, scheme):
    # the interior blocks share one symmetric pattern, so the system
    # stores them without a copy and SolutionPair.stiffness is the block
    # that was solved
    passed = []

    class Recording(BlockSaddleSystem):
        def __init__(self, a, m, *args, **kwargs):
            super().__init__(a, m, *args, **kwargs)
            passed.append((self, a, m))

    monkeypatch.setattr(optimal_control, "BlockSaddleSystem", Recording)
    sol = optimal_control.solve(build_unit_square(4),
                                boundary_layer_case(1e-2).problem, scheme)
    ((system, a, m),) = passed
    assert system.A is a and system.M is m
    assert sol.stiffness is a
