"""
Triplet assembly into scipy CSR matrices, a certified direct solver, the
one-solve M-matrix (semipositivity) certificate with its column-by-column
reference, and the 2x2 saddle-point block system with its certified
PRESB-preconditioned flexible GMRES solver.

Storage and factorization are delegated to scipy.sparse / SuperLU, and
the rest of the package uses the scipy matrices directly; the flexible
GMRES is written here, since scipy has none, and applies the saddle
operator by its blocks.  This module pins down the contracts it relies
on: duplicate-summing triplet assembly into canonical CSR (strictly
increasing column indices), and a residual certificate on every returned
solution, direct or iterative.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dlartg

DEFAULT_SOLVE_RTOL = 1e-10
DEFAULT_INVERSE_CAP = 5000
#: bound on ||M - M^T||_F / (max|M_ij| sqrt(nnz M)) of a symmetric mass block
SYM_RTOL = 1e-14

#: Krylov dimension per GMRES cycle, and the cycles allowed per solve
GMRES_RESTART = 40
GMRES_CYCLES = 4
#: GMRES aims at ``rtol * GMRES_MARGIN``: for up to three more
#: iterations the certificate holds with room to spare, and the iterate
#: lies within about 1e-12 (relative) of the direct solution
GMRES_MARGIN = 1e-2


class SingularMatrixError(RuntimeError):
    """Factorization hit an exactly zero pivot."""


class ResourceLimitError(MemoryError):
    """Factorization ran out of memory."""


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


def _factorize(mat, diagonal_pivots=False, order=None):
    """
    SuperLU factor of a square sparse matrix.

    By default the columns are ordered by COLAMD and the rows by threshold
    partial pivoting: the general factor, for any nonsingular matrix.
    With ``diagonal_pivots`` the columns are ordered by minimum degree on
    the pattern of A^T + A (``MMD_AT_PLUS_A``); with ``order``, a
    permutation the caller computed, ``mat[order][:, order]`` is factored
    in SuperLU's ``NATURAL`` order.  Both set ``diag_pivot_thresh`` to 0,
    so SuperLU takes the diagonal entry as pivot unless it is exactly
    zero; the rows then follow the column order and the fill is that of
    the symmetric ordering.  Threshold pivoting would permute the rows
    away from it: on the level-7 Galerkin system at eps = 1e-9 that gave
    50 M fill, against 1.05 M with diagonal pivots.
    Both modes are for matrices that need no pivoting: nonsingular
    M-matrices, whose LU without pivoting is stable with positive pivots
    (Funderlic & Plemmons, LAA 41, 1981), and matrices with a positive
    definite symmetric part, for which it exists, such as the PRESB
    matrix M + sqrt(beta) A of the benchmark problems.  Its callers
    check their results on the computed solution, so no certificate
    rests on the pivots.

    SuperLU itself raises on an exactly zero pivot.  The factor's ``L``
    and ``U`` attributes are not read here: scipy builds CSC copies of
    both on first access and keeps them on the factor, which would carry
    a second copy of it through every later solve.

    Raises
    ------
    SingularMatrixError
        If the factorization encounters a zero pivot.
    ResourceLimitError
        On a ``MemoryError``, or a SuperLU ``RuntimeError`` that names a
        failed malloc or missing memory (``SUPERLU_MALLOC fails ...``).
    """
    options = {}
    if order is not None:
        options = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}
    elif diagonal_pivots:
        options = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0}
    try:
        if order is not None:
            mat = mat[order][:, order]
        return spla.splu(mat.tocsc(), **options)
    except MemoryError as exc:
        raise ResourceLimitError(str(exc)) from exc
    except RuntimeError as exc:  # SuperLU signals singularity and failed mallocs
        message = str(exc)
        if "malloc" in message.lower() or "memory" in message.lower():
            raise ResourceLimitError(message) from exc
        raise SingularMatrixError(message) from exc


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


def _fgmres_cycle(matvec, psolve, r, target, restart):
    """
    One cycle of right-preconditioned flexible GMRES (Saad, SIAM J. Sci.
    Comput. 14, 1993) for ``matvec(x) = b``, started from the residual
    ``r`` of the current iterate.  Returns the correction ``dx`` and the
    number of iterations; each makes one ``psolve`` and one ``matvec``.

    The Arnoldi basis is orthogonalised by modified Gram-Schmidt, and the
    preconditioned directions Z = [psolve(v_0), ...] are kept beside it,
    so ``dx = Z y`` needs no further ``psolve`` and ``psolve`` may change
    from one iteration to the next.  Givens rotations (LAPACK ``lartg``)
    keep the least-squares residual |g[j+1]|, in exact arithmetic
    ``||r - matvec(dx)||_2``.  The cycle ends when it is at most
    ``target``, after ``restart`` iterations, or on a happy breakdown,
    h[j+1, j] = 0, where the Krylov space holds the solution and the next
    basis vector cannot be normalised.
    """
    h = np.zeros((restart + 1, restart))
    cs = np.zeros(restart)
    sn = np.zeros(restart)
    g = np.zeros(restart + 1)
    g[0] = np.linalg.norm(r)
    # one array per vector, not a (restart + 1) x size block: the vectors
    # then fit in heap memory that the factorization before them freed,
    # where a block maps fresh pages (level-8 boundary layer: peak RSS
    # 245 MB, against 273 MB with blocks)
    v = [r / g[0]]
    z = []
    for j in range(restart):
        z.append(psolve(v[j]))
        w = matvec(z[j])
        for i in range(j + 1):
            h[i, j] = w @ v[i]
            w -= h[i, j] * v[i]
        h_next = np.linalg.norm(w)
        for i in range(j):
            h[i, j], h[i + 1, j] = (cs[i] * h[i, j] + sn[i] * h[i + 1, j],
                                    cs[i] * h[i + 1, j] - sn[i] * h[i, j])
        cs[j], sn[j], h[j, j] = dlartg(h[j, j], h_next)
        g[j + 1] = -sn[j] * g[j]
        g[j] *= cs[j]
        if h_next == 0.0 or abs(g[j + 1]) <= target:
            break
        v.append(w / h_next)
    k = j + 1
    y = solve_triangular(h[:k, :k], g[:k])
    dx = y[0] * z[0]
    for i in range(1, k):
        dx += y[i] * z[i]
    return dx, k


class BlockSaddleSystem:
    """
    Discrete first-order optimality system over interior dofs:

        [ A^T  -M      ] [p]   [rhs_top   ]
        [ -M   -beta A ] [y] = [rhs_bottom]

    A is the (convection-diffusion-reaction) stiffness matrix, M the
    consistent mass matrix; beta > 0 defaults to 1, matching the
    normalized control-cost weight used throughout.  M must be symmetric
    to within ``SYM_RTOL`` (ValueError otherwise).

    :meth:`solve` scales the adjoint, ``p = sqrt(beta) q``, and with
    ``K = sqrt(beta) A`` solves the balanced form

        [ M  -K^T ] [y]   [-rhs_top              ]
        [ K   M   ] [q] = [-rhs_bottom / sqrt(beta)]

    by flexible GMRES, right-preconditioned by PRESB (preconditioned
    square block).  The operator is applied by its blocks, four sparse
    products with A, A^T (a transposed view, not a copy) and M, so the
    2n x 2n matrix is never built.  The preconditioner
    ``[[M, -K^T], [K, M + K + K^T]]`` is applied exactly with one sparse
    LU of ``F = M + K``, used plain and transposed.  Its eigenvalues lie
    in [1/2, 1], so the iteration count depends on neither h nor eps
    (Axelsson, Farouq & Neytcheva, Numer. Algorithms 2016).  F has a
    symmetric pattern and, on the benchmark problems, a positive definite
    symmetric part, so it is factored with diagonal pivots in a symmetric
    ordering (see :func:`_factorize`): ``order`` when given
    (:func:`optimal_control.solve` passes the interior part of the mesh's
    nested-dissection order, 4.94 M stored entries at level 8), else
    minimum degree (5.67 M), against 9.6 M for COLAMD with partial
    pivoting.  ``fill`` records SuperLU's stored count of the factor
    (``nnz``, slightly more than nnz(L) + nnz(U) of its CSC form).
    :meth:`operator` builds the monolithic matrix for reference only:
    ``solve_direct(system.operator(), system.rhs())`` is the direct
    solution, factored with COLAMD and partial pivoting.
    """

    def __init__(self, a, m, rhs_top, rhs_bottom, beta=1.0, order=None):
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
        if asym > SYM_RTOL * scale * np.sqrt(max(m.nnz, 1)):
            raise ValueError("mass matrix is not symmetric to working precision")
        #: symmetric ordering of the PRESB factor, or None for minimum degree
        self.order = order
        #: GMRES iterations of the last :meth:`solve`, summed over restarts
        self.iterations = 0
        #: entries SuperLU stores for the factor of F in the last
        #: :meth:`solve` (``SuperLU.nnz``)
        self.fill = 0

    @property
    def n(self):
        return self.A.shape[0]

    def operator(self):
        """
        Monolithic 2n x 2n block operator [[A^T, -M], [-M, -beta*A]], the
        direct reference; :meth:`solve` applies it by its blocks instead.
        """
        a, m = self.A, self.M
        return sp.bmat([[a.T, -m], [-m, -self.beta * a]], format="csr")

    def rhs(self):
        return np.concatenate([self.rhs_top, self.rhs_bottom])

    def solve(self, rtol=DEFAULT_SOLVE_RTOL):
        """
        Returns (p, y, certified relative residual).  The residual of
        :meth:`operator` at x = (p, y), ||op x - rhs||_2 / ||rhs||_2, must
        not exceed ``rtol``; it is computed by blocks after every GMRES
        cycle, and a cycle restarts from the current iterate until it is
        at most ``rtol * GMRES_MARGIN``, at most ``GMRES_CYCLES - 1``
        times.  ``iterations`` counts the GMRES iterations, one PRESB
        application each.  A zero right-hand side returns zeros without
        factoring anything (``fill`` 0).

        Raises
        ------
        SingularMatrixError
            If ``M + sqrt(beta) A`` has a zero pivot.
        ResourceLimitError
            If its factor does not fit in memory.
        ResidualCertificationError
            If the residual certificate cannot be met.
        """
        n = self.n
        self.iterations = 0
        self.fill = 0
        a, m, top, bottom = self.A, self.M, self.rhs_top, self.rhs_bottom
        bnorm = np.hypot(np.linalg.norm(top), np.linalg.norm(bottom))
        if bnorm == 0.0:
            return np.zeros(n), np.zeros(n), 0.0

        s = np.sqrt(self.beta)
        # F = M + K lives only until it is factored
        if self.order is None:
            o, lu = slice(None), _factorize(m + s * a, diagonal_pivots=True)
        else:
            o, lu = self.order, _factorize(m + s * a, order=self.order)
        self.fill = lu.nnz

        def presb(r):
            # [[M, -K^T], [K, M + K + K^T]] (y, q) = (f, g):
            # F z = f + g, F^T q = M z - f, y = z - q
            f = r[:n]
            z = np.empty(n)
            z[o] = lu.solve((f + r[n:])[o])
            q = np.empty(n)
            q[o] = lu.solve((m @ z - f)[o], trans="T")
            return np.concatenate([z - q, q])

        def balanced(x):
            y, q = x[:n], x[n:]
            return np.concatenate([m @ y - s * (a.T @ q), s * (a @ y) + m @ q])

        # op (p, y) - rhs = (r_y, s r_q) for the balanced residual
        # (r_y, r_q) = (-rhs_top, -rhs_bottom / s) - balanced(y, q), so its
        # norm is at most max(1, s) times the balanced one, and a balanced
        # residual of at most target certifies rtol * GMRES_MARGIN
        target = rtol * GMRES_MARGIN * bnorm / max(1.0, s)
        x = np.zeros(2 * n)  # (y, q)
        r = np.concatenate([-top, -bottom / s])
        for _ in range(GMRES_CYCLES):
            dx, k = _fgmres_cycle(balanced, presb, r, target, GMRES_RESTART)
            x += dx
            self.iterations += k
            y, p = x[:n], s * x[n:]
            r_top = a.T @ p - m @ y - top
            r_bottom = -(m @ p) - self.beta * (a @ y) - bottom
            res = np.hypot(np.linalg.norm(r_top),
                           np.linalg.norm(r_bottom)) / bnorm
            if res <= rtol * GMRES_MARGIN:
                break
            r = np.concatenate([r_top, r_bottom / s])
        if not res <= rtol:
            raise ResidualCertificationError(
                "relative residual %.3g exceeds certificate %.3g after %d "
                "GMRES iterations" % (res, rtol, self.iterations)
            )
        return p, y, float(res)
