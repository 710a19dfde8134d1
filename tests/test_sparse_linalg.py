import numpy as np
import pytest
import scipy.sparse as sp

from eafe_control.sparse_linalg import (
    BlockSaddleSystem,
    ResidualCertificationError,
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
