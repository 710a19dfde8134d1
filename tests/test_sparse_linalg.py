import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eafe_control.experiments import stability_problem
from eafe_control.fem_core import CoefficientField
from eafe_control.mesh import build_unit_square
from eafe_control import sparse_linalg
from eafe_control.optimal_control import ProblemSpec, assemble_system
from eafe_control.sparse_linalg import (
    BlockSaddleSystem,
    ResidualCertificationError,
    ResourceLimitError,
    SingularMatrixError,
    from_triplets,
    inverse_nonneg_check,
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
    x, res = solve_direct(a, b, return_residual=True)
    assert res <= 1e-10
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


def test_inverse_nonneg_cap():
    a = from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
    with pytest.raises(ValueError):
        inverse_nonneg_check(a, cap=2)


def _small_system():
    a = from_triplets(2, 2, [(0, 0, 2.0), (0, 1, -1.0), (1, 0, -0.5), (1, 1, 3.0)])
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 0.25), (1, 0, 0.25), (1, 1, 1.0)])
    return BlockSaddleSystem(a, m, np.array([1.0, 2.0]), np.array([0.0, -1.0]))


def test_block_operator_reconstruction_exact():
    system = _small_system()
    k = system.operator()
    at = system.A.T
    msp = system.M
    ref = sp.bmat([[at, -msp], [-msp, -system.A]], format="csr")
    assert (k != ref).nnz == 0  # identical CSR values


def test_block_solve_certified():
    system = _small_system()
    p, y, res = system.solve()
    assert res <= 1e-10
    k = system.operator()
    x = np.concatenate([p, y])
    assert np.linalg.norm(k @ x - system.rhs()) <= 1e-9


def test_block_rejects_asymmetric_mass():
    a = from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 0.5), (1, 1, 1.0)])
    with pytest.raises(ValueError):
        BlockSaddleSystem(a, m, np.zeros(2), np.zeros(2))


def _stability_system(scheme, level, beta):
    mesh = build_unit_square(level)
    base = assemble_system(mesh, stability_problem(1e-9), scheme)
    return BlockSaddleSystem(base.A, base.M, base.rhs_top, base.rhs_bottom,
                             beta=beta)


@pytest.mark.parametrize("beta", [1e-6, 1.0, 1e3])
@pytest.mark.parametrize("level", [4, 6])
@pytest.mark.parametrize("scheme", ["eafe", "galerkin"])
def test_krylov_solve_matches_direct_reference(scheme, level, beta):
    system = _stability_system(scheme, level, beta)
    p, y, res = system.solve()
    assert res <= 1e-10
    assert system.iterations <= 20
    x_ref = solve_direct(system.operator(), system.rhs())
    x = np.concatenate([p, y])
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _general_system(beta):
    # nonzero f, g and Dirichlet traces: both right-hand side blocks are
    # nonzero, unlike the tracking problems, whose bottom block is zero
    coeff = CoefficientField(eps=1e-2, zeta=(-1.0, 0.5), gamma=1.0,
                             beta=beta, div_zeta=0.0)
    problem = ProblemSpec(
        coeff, f=lambda x, y: np.sin(3.0 * x) + y,
        g=lambda x, y: np.cos(2.0 * y) - x,
        dirichlet_y=lambda x, y: 1.0 + x * y,
        dirichlet_p=lambda x, y: x - 2.0 * y)
    return assemble_system(build_unit_square(5), problem, "eafe")


@pytest.mark.parametrize("beta", [1e-6, 1e3])
def test_krylov_certificate_holds_for_both_blocks_across_beta(beta):
    system = _general_system(beta)
    assert system.beta == beta
    assert system.rhs_top.any() and system.rhs_bottom.any()
    p, y, res = system.solve()
    assert res <= 1e-10
    k, b = system.operator(), system.rhs()
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

    def no_operator(self):
        raise AssertionError("solve built the 2n x 2n operator")

    monkeypatch.setattr(sparse_linalg, "_factorize",
                        lambda mat, **kwargs: CountingFactor(
                            factorize(mat, **kwargs)))
    monkeypatch.setattr(BlockSaddleSystem, "operator", no_operator)
    p, y, res = system.solve()
    assert res <= 1e-10
    assert system.iterations > 0
    assert len(solves) == 2 * system.iterations
    assert solves.count("T") == system.iterations


@pytest.mark.parametrize("top, bottom", [([0.0, 3.0], [0.0, 0.0]),
                                         ([0.0, 0.0], [4.0, 0.0])])
def test_krylov_exact_preconditioner_breaks_down_after_one_iteration(top,
                                                                    bottom):
    # A = 0 makes PRESB the operator itself; with a diagonal M of powers of
    # two and a right-hand side along a unit vector every operation is
    # exact, so the first Arnoldi step leaves exactly zero (h[1, 0] == 0)
    a = from_triplets(2, 2, [])
    m = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 4.0)])
    system = BlockSaddleSystem(a, m, np.array(top), np.array(bottom))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, y, res = system.solve()
    assert system.iterations == 1
    assert res == 0.0
    assert np.array_equal(y, -np.array(top) / [2.0, 4.0])
    assert np.array_equal(p, -np.array(bottom) / [2.0, 4.0])


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
    ref = (system.M + np.sqrt(2.0) * system.A).tocsc()
    assert f.shape == (system.n, system.n)
    assert abs(f - ref).max() == 0.0
    assert kwargs == {"diagonal_pivots": True}


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
        mmd = sparse_linalg._factorize(system.M + system.A, diagonal_pivots=True)
        assert 0 < system.fill < mmd.nnz


FACTOR_MODES = [{}, {"diagonal_pivots": True}, {"order": np.array([1, 0])}]


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
    with pytest.raises(ResourceLimitError):
        sparse_linalg._factorize(a, **mode)


@pytest.mark.parametrize("mode", FACTOR_MODES)
def test_singular_factor_still_raises_singular_matrix_error(mode):
    a = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(SingularMatrixError):
        sparse_linalg._factorize(a, **mode)


def test_krylov_solve_out_of_memory_raises_resource_limit_error(monkeypatch):
    system = assemble_system(build_unit_square(3), stability_problem(1e-9), "eafe")

    def failing(*args, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()")

    monkeypatch.setattr(sparse_linalg.spla, "splu", failing)
    with pytest.raises(ResourceLimitError):
        system.solve()


def test_krylov_solve_unattainable_certificate_raises():
    system = _stability_system("eafe", 3, 1.0)
    with pytest.raises(ResidualCertificationError):
        system.solve(rtol=1e-30)


def test_krylov_solve_singular_preconditioner_factor_raises():
    # M + sqrt(beta) A = 0 for A = -M and beta = 1
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 0.25), (1, 0, 0.25), (1, 1, 1.0)])
    system = BlockSaddleSystem(-m, m, np.array([1.0, 2.0]), np.array([0.0, -1.0]))
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


@pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
def test_block_rejects_nonpositive_beta(beta):
    a = from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(ValueError):
        BlockSaddleSystem(a, a, np.zeros(2), np.zeros(2), beta=beta)
