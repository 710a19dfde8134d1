"""
Triplet assembly into scipy CSR matrices, a certified direct solver, the
one-solve M-matrix (semipositivity) certificate with its column-by-column
reference, and the 2x2 saddle-point block system with its certified
PRESB-preconditioned GMRES solver.

Storage, factorization and GMRES are delegated to scipy.sparse / SuperLU,
and the rest of the package uses the scipy matrices directly; this module
pins down the contracts it relies on: duplicate-summing triplet assembly
into canonical CSR (strictly increasing column indices), and a residual
certificate on every returned solution, direct or iterative.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_SOLVE_RTOL = 1e-10
DEFAULT_INVERSE_CAP = 5000

#: Krylov dimension per GMRES cycle, and the cycles allowed per solve
GMRES_RESTART = 40
GMRES_CYCLES = 4
#: GMRES aims at ``rtol * GMRES_MARGIN``: for up to three more
#: iterations the certificate holds with room to spare, and the iterate
#: lies within about 1e-12 (relative) of the direct solution
GMRES_MARGIN = 1e-2


class SingularMatrixError(RuntimeError):
    """Factorization hit an exactly zero pivot."""


class ResidualCertificationError(RuntimeError):
    """Computed solution failed the relative-residual certificate."""


def from_triplets(nrows, ncols, triplets):
    """
    Assemble a canonical ``scipy.sparse.csr_matrix`` from (row, col,
    value) contributions.

    ``triplets`` is either an iterable of (row, col, value) triples or a
    (rows, cols, values) tuple of arrays.  Duplicate positions are summed
    and column indices are sorted within each row.  Explicit zeros are
    kept: they hold the structural pattern the sparse LU ordering sees.

    Raises
    ------
    IndexError
        If any index lies outside [0, nrows) x [0, ncols).
    """
    if isinstance(triplets, tuple) and len(triplets) == 3:
        rows, cols, vals = triplets
    else:
        triplets = list(triplets)
        if triplets:
            rows, cols, vals = zip(*triplets)
        else:
            rows, cols, vals = (), (), ()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise IndexError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= ncols):
        raise IndexError("column index out of range")
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    csr.sum_duplicates()
    return csr


def _factorize(mat, diagonal_pivots=False):
    """
    SuperLU factor of a square sparse matrix.

    By default the columns are ordered by COLAMD and the rows by threshold
    partial pivoting: the general factor, for any nonsingular matrix.
    With ``diagonal_pivots`` the columns are ordered by minimum degree on
    the pattern of A^T + A (``MMD_AT_PLUS_A``) and ``diag_pivot_thresh``
    is 0, so SuperLU takes the diagonal entry as pivot unless it is
    exactly zero.  The rows then follow the column order and the fill is
    that of the symmetric ordering.  Threshold pivoting would permute the
    rows away from it: on the level-7 Galerkin system at eps = 1e-9 that
    gave 50 M fill, against 1.05 M with diagonal pivots.  This mode is
    for matrices that need no pivoting: nonsingular M-matrices, whose LU
    without pivoting is stable with positive pivots (Funderlic &
    Plemmons, LAA 41, 1981), and matrices with a positive definite
    symmetric part, for which it exists, such as the PRESB matrix
    M + sqrt(beta) A of the benchmark problems.  Its callers check their
    results on the computed solution, so no certificate rests on the
    pivots.

    SuperLU itself raises on an exactly zero pivot.  The factor's ``L``
    and ``U`` attributes are not read here: scipy builds CSC copies of
    both on first access and keeps them on the factor, which would carry
    a second copy of it through every later solve.

    Raises
    ------
    SingularMatrixError
        If the factorization encounters a zero pivot.
    """
    csc = mat.tocsc()
    options = ({"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0}
               if diagonal_pivots else {})
    try:
        return spla.splu(csc, **options)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularMatrixError(str(exc)) from exc


def solve_direct(mat, b, rtol=DEFAULT_SOLVE_RTOL, return_residual=False,
                 max_refine=2):
    """
    Solve ``mat @ x = b`` by sparse LU with partial pivoting and certify
    the result: the relative residual ||Ax-b||_2 / ||b||_2 must not exceed
    ``rtol``.  A couple of iterative-refinement sweeps are applied if the
    first solve misses the certificate.

    Raises
    ------
    SingularMatrixError
        If the factorization encounters a zero pivot.
    ResidualCertificationError
        If the residual certificate cannot be met.
    """
    n, ncols = mat.shape
    if n != ncols:
        raise ValueError("solve_direct needs a square matrix")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("right-hand side has wrong length")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        x = np.zeros_like(b)
        return (x, 0.0) if return_residual else x

    lu = _factorize(mat)
    x = lu.solve(b)
    res = np.linalg.norm(mat @ x - b) / bnorm
    for _ in range(max_refine):
        if res <= rtol:
            break
        x = x + lu.solve(b - mat @ x)
        res = np.linalg.norm(mat @ x - b) / bnorm
    if res > rtol:
        raise ResidualCertificationError(
            "relative residual %.3g exceeds certificate %.3g" % (res, rtol)
        )
    return (x, float(res)) if return_residual else x


class InverseNonnegReport:
    """Result of the column-by-column inverse nonnegativity scan."""

    def __init__(self, ok, min_entry, argmin, tol):
        self.ok = bool(ok)
        self.min_entry = float(min_entry)
        self.argmin = argmin  # (row, column) of the most negative inverse entry
        self.tol = float(tol)

    def __repr__(self):
        return "InverseNonnegReport(ok=%s, min_entry=%.3g at %s)" % (
            self.ok,
            self.min_entry,
            self.argmin,
        )


def inverse_nonneg_check(a, tol=1e-12, cap=DEFAULT_INVERSE_CAP, block=512):
    """
    Verify that A^{-1} is (numerically) entrywise nonnegative by solving
    A x = e_i for every unit vector.  Column i passes when every entry of
    x satisfies x >= -tol * max|x|.  Desk-scale tool: refuses n > cap.
    """
    n, ncols = a.shape
    if ncols != n:
        raise ValueError("inverse check needs a square matrix")
    if n > cap:
        raise ValueError("matrix order %d exceeds inverse-check cap %d" % (n, cap))
    lu = _factorize(a)
    ok = True
    min_entry = np.inf
    argmin = (0, 0)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rhs = np.zeros((n, stop - start))
        rhs[np.arange(start, stop), np.arange(stop - start)] = 1.0
        cols = lu.solve(rhs)
        scale = np.abs(cols).max(axis=0)
        scale[scale == 0.0] = 1.0
        rel = cols / scale
        j = int(np.argmin(rel.min(axis=0)))
        i = int(np.argmin(rel[:, j]))
        if rel[i, j] < -tol:
            ok = False
        if cols[i, j] < min_entry:
            min_entry = cols[i, j]
            argmin = (i, start + j)
    return InverseNonnegReport(ok, min_entry, argmin, tol)


class SemipositivityReport:
    """
    Result of the one-solve semipositivity certificate.

    ``min_x`` is the smallest entry of x = A^{-1} 1, ``margin`` the
    smallest row ratio (Z x)_i / (|Z| x)_i, and ``tol`` the rounding bound
    the margin must exceed.
    """

    def __init__(self, ok, min_x, margin, tol):
        self.ok = bool(ok)
        self.min_x = float(min_x)
        self.margin = float(margin)
        self.tol = float(tol)

    def __repr__(self):
        return "SemipositivityReport(ok=%s, min_x=%.3g, margin=%.3g)" % (
            self.ok,
            self.min_x,
            self.margin,
        )


def semipositivity_check(a, offdiag_tol=0.0):
    """
    Certify that a Z-matrix is a nonsingular M-matrix, hence has an
    entrywise nonnegative inverse, with one sparse LU and one solve.

    A Z-matrix is a nonsingular M-matrix iff it is semipositive: some
    x > 0 has Z x > 0 (Berman & Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*, ch. 6).  ``Z`` is ``a`` with its positive
    off-diagonal entries, all at most ``offdiag_tol``, set to zero; on
    every EAFE matrix this package builds, Z and A coincide.  The
    candidate is x = A^{-1} 1.  The certificate holds iff min(x) > 0 and,
    in every row, (Z x)_i > 2 (k + 2) u (|Z| x)_i, where k is the largest
    number of stored entries in a row and u the machine epsilon: that
    bounds the rounding error of the computed product, so the exact Z x
    is positive too.  NaN fails both tests.  :func:`inverse_nonneg_check` is
    the column-by-column reference.

    A is factored with diagonal pivots and the symmetric minimum-degree
    ordering (see :func:`_factorize`): a nonsingular M-matrix has an LU
    without pivoting, with positive pivots.  The certificate does not
    rest on that factor, since Z x is checked on the computed x.

    Raises
    ------
    ValueError
        If an off-diagonal entry exceeds ``offdiag_tol``.
    SingularMatrixError
        If the factorization encounters a zero pivot.
    """
    n, ncols = a.shape
    if ncols != n:
        raise ValueError("semipositivity check needs a square matrix")
    z = sp.csr_matrix(a, copy=True)
    row = np.repeat(np.arange(n), np.diff(z.indptr))
    positive_off = (z.indices != row) & (z.data > 0.0)
    if (z.data[positive_off] > offdiag_tol).any():
        raise ValueError("matrix is not a Z-matrix within offdiag_tol")
    z.data[positive_off] = 0.0

    x = _factorize(a, diagonal_pivots=True).solve(np.ones(n))
    r = z @ x
    s = abs(z) @ x
    k = np.diff(z.indptr).max(initial=0)
    tol = 2.0 * (k + 2) * np.finfo(float).eps
    min_x = x.min(initial=np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = (r / s).min(initial=np.inf)
    ok = min_x > 0.0 and bool(np.all(r > tol * s))
    return SemipositivityReport(ok, min_x, margin, tol)


class BlockSaddleSystem:
    """
    Discrete first-order optimality system over interior dofs:

        [ A^T  -M      ] [p]   [rhs_top   ]
        [ -M   -beta A ] [y] = [rhs_bottom]

    A is the (convection-diffusion-reaction) stiffness matrix, M the
    consistent mass matrix; beta > 0 defaults to 1, matching the
    normalized control-cost weight used throughout.

    :meth:`solve` runs GMRES on this operator, preconditioned by PRESB
    (preconditioned square block).  With ``p = sqrt(beta) q`` and
    ``K = sqrt(beta) A`` the system reads ``[[M, -K^T], [K, M]] (y, q)``,
    and the preconditioner ``[[M, -K^T], [K, M + K + K^T]]`` is applied
    exactly with one sparse LU of ``F = M + K``, used plain and
    transposed.  Its eigenvalues lie in [1/2, 1], so the iteration count
    depends on neither h nor eps (Axelsson, Farouq & Neytcheva, Numer.
    Algorithms 2016).  F has a symmetric pattern and, on the benchmark
    problems, a positive definite symmetric part, so it is factored with
    diagonal pivots in a symmetric minimum-degree ordering (see
    :func:`_factorize`): at level 8, 5.6 M entries in L and U, against
    9.6 M for COLAMD with partial pivoting.  ``fill`` records SuperLU's
    stored count of the factor (``nnz``: 5.67 M at level 8, slightly
    more than nnz(L) + nnz(U) of its CSC form).
    The 2n x 2n operator itself is never factored;
    ``solve_direct(system.operator(), system.rhs())`` is the direct
    reference, factored with COLAMD and partial pivoting.
    """

    def __init__(self, a, m, rhs_top, rhs_bottom, beta=1.0, sym_rtol=1e-14):
        n = a.shape[0]
        if a.shape != (n, n) or m.shape != (n, n):
            raise ValueError("block system needs square A, M of equal order")
        self.A = a
        self.M = m
        self.rhs_top = np.asarray(rhs_top, dtype=float)
        self.rhs_bottom = np.asarray(rhs_bottom, dtype=float)
        self.beta = float(beta)
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.rhs_top.shape != (n,) or self.rhs_bottom.shape != (n,):
            raise ValueError("right-hand side blocks have wrong length")
        asym = sp.linalg.norm(m - m.T) if m.nnz else 0.0
        scale = max(np.abs(m.data).max() if m.nnz else 0.0, 1e-300)
        if asym > sym_rtol * scale * np.sqrt(max(m.nnz, 1)):
            raise ValueError("mass matrix is not symmetric to working precision")
        #: GMRES iterations of the last :meth:`solve`, summed over restarts
        self.iterations = 0
        #: entries SuperLU stores for the factor of F in the last
        #: :meth:`solve` (``SuperLU.nnz``)
        self.fill = 0

    @property
    def n(self):
        return self.A.shape[0]

    def operator(self):
        """Monolithic 2n x 2n block operator [[A^T, -M], [-M, -beta*A]]."""
        a, m = self.A, self.M
        return sp.bmat([[a.T, -m], [-m, -self.beta * a]], format="csr")

    def rhs(self):
        return np.concatenate([self.rhs_top, self.rhs_bottom])

    def solve(self, rtol=DEFAULT_SOLVE_RTOL):
        """
        Returns (p, y, certified relative residual).  The residual of
        :meth:`operator` at x = (p, y), ||op x - rhs||_2 / ||rhs||_2, must
        not exceed ``rtol``; GMRES restarts from its current iterate at
        most ``GMRES_CYCLES - 1`` times to meet it.  A zero right-hand
        side returns zeros without factoring anything (``fill`` 0).

        Raises
        ------
        SingularMatrixError
            If ``M + sqrt(beta) A`` has a zero pivot.
        ResidualCertificationError
            If the residual certificate cannot be met.
        """
        n = self.n
        self.iterations = 0
        self.fill = 0
        b = self.rhs()
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(n), np.zeros(n), 0.0

        k = self.operator()
        s = np.sqrt(self.beta)
        lu = _factorize(self.M + s * self.A, diagonal_pivots=True)
        self.fill = lu.nnz

        def presb(r):
            f = -r[:n]
            z = lu.solve(f - r[n:] / s)
            v = lu.solve(self.M @ z - f, trans="T")
            return np.concatenate([s * v, z - v])

        def count(_):
            self.iterations += 1

        # scipy restarts each cycle from the current iterate
        x, _ = spla.gmres(
            k, b, rtol=rtol * GMRES_MARGIN, restart=GMRES_RESTART,
            maxiter=GMRES_CYCLES,
            M=spla.LinearOperator(k.shape, matvec=presb, dtype=float),
            callback=count, callback_type="pr_norm",
        )
        res = np.linalg.norm(k @ x - b) / bnorm
        if not res <= rtol:
            raise ResidualCertificationError(
                "relative residual %.3g exceeds certificate %.3g after %d "
                "GMRES iterations" % (res, rtol, self.iterations)
            )
        return x[:n], x[n:], float(res)
