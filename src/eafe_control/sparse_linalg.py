"""
The 2x2 saddle-point block system with its certified
PRESB-preconditioned flexible GMRES solver, and the diagonal-pivot
SuperLU factorization that it and the M-matrix certificate
(:func:`verify_norms.certify_m_matrix`) share.

Storage and factorization are delegated to scipy.sparse / SuperLU, and
the rest of the package uses the scipy matrices directly; the flexible
GMRES is written here, since scipy has none, and applies the saddle
operator by its blocks.  Every returned solution carries a residual
certificate.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dlartg

#: relative residual every :meth:`BlockSaddleSystem.solve` certifies
DEFAULT_SOLVE_RTOL = 1e-10
#: bound on ||M - M^T||_F / (max|M_ij| sqrt(nnz M)) of a symmetric mass block
SYM_RTOL = 1e-14

#: Krylov dimension per GMRES cycle, and the cycles allowed per solve
GMRES_RESTART = 40
GMRES_CYCLES = 4
#: GMRES aims at ``DEFAULT_SOLVE_RTOL * GMRES_MARGIN``: for up to three more
#: iterations the certificate holds with room to spare, and the iterate
#: lies within about 1e-12 (relative) of the direct solution
GMRES_MARGIN = 1e-2
#: largest max(|A_ij|, |A_ji|) / min(|A_ij|, |A_ji|) over the off-diagonal
#: pairs of A for which the PRESB factor is stored in float32.  On an EAFE
#: edge the ratio is e^|s_E|, s_E the edge Peclet number, so this reads
#: "edge Peclet <= 2".  Above it the factor decays along the streamlines
#: into float32 subnormals, and the saddle solve with a float32 factor took
#: 1.11-1.74 times as long as with a float64 one in all 7 measured cases
#: (ratios >= 15.8, levels 6-8, one core); at ratios <= 3.3 it took
#: 0.78-0.97 times as long in 16 of 17 cases.
SINGLE_PRECISION_ASYMMETRY = np.e**2


class SingularMatrixError(RuntimeError):
    """Factorization hit an exactly zero pivot."""


class ResourceLimitError(MemoryError):
    """Factorization ran out of memory."""


class ResidualCertificationError(RuntimeError):
    """Computed solution failed the relative-residual certificate."""


def _factorize(mat, order=None):
    """
    SuperLU factor of a square sparse matrix, in a symmetric ordering with
    diagonal pivots.

    With ``order`` None the columns are ordered by minimum degree on the
    pattern of A^T + A (``MMD_AT_PLUS_A``); with ``order``, a permutation
    the caller computed, ``mat[order][:, order]`` is factored in
    SuperLU's ``NATURAL`` order.  ``diag_pivot_thresh`` is 0, so SuperLU
    takes the diagonal entry as pivot unless it is exactly zero; the rows
    then follow the column order and the fill is that of the symmetric
    ordering.  Threshold pivoting would permute the rows away from it: on
    the level-7 Galerkin system at eps = 1e-9 that gave 50 M fill,
    against 1.05 M with diagonal pivots.
    The factor is for matrices that need no pivoting: nonsingular
    M-matrices, whose LU without pivoting is stable with positive pivots
    (Funderlic & Plemmons, LAA 41, 1981), and matrices with a positive
    definite symmetric part, for which it exists.  The PRESB matrix
    M + sqrt(beta) A has one when the symmetric part of A is positive
    semidefinite, the hypothesis of the PRESB bound; nothing checks it at
    run time.  Its two callers check their results on the computed
    solution, so no certificate rests on the pivots.  :meth:`BlockSaddleSystem.solve` certifies

        ||(A^T p - M y - rhs_top, -M p - beta A y - rhs_bottom)||_2
            <= rtol ||(rhs_top, rhs_bottom)||_2

    on the whole saddle system, and
    :func:`verify_norms.certify_m_matrix` needs x > 0 and Z x > 0.

    SuperLU eliminates one column at a time (``panel_size=1``).  Its
    default panels of several columns keep work arrays of about
    ``panel_size * n`` words alive through the whole factorization
    (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20,
    1999); one column gives the same pivots and fill and, with diagonal
    pivots in a fixed order, the same factor up to rounding order.  On
    the level-9 boundary-layer F (eps = 1e-2, 23.7 M stored entries, one
    BLAS thread) the factor step lifted the resident set by 185 MiB with
    the default panels and by 141 MiB with one column, and reserved
    44 MiB less address space; the factor took 0.94-1.12 s against
    1.02-1.36 s.  At levels 7 and 8 the time is within noise.

    SuperLU itself raises on an exactly zero pivot.  The factor's ``L``
    and ``U`` attributes are not read here: scipy builds CSC copies of
    both on first access and keeps them on the factor, which would carry
    a second copy of it through every later solve.

    The CSC matrix SuperLU reads, ``mat[order]`` converted and then
    column-permuted, is built in one expression and rebound to ``mat``.
    A caller that passes a temporary, as :meth:`BlockSaddleSystem.solve`
    passes ``M + sqrt(beta) A``, thereby leaves that CSC as the only copy
    of the matrix alive during the factorization.

    Raises
    ------
    SingularMatrixError
        If the factorization encounters a zero pivot.
    ResourceLimitError
        On a ``MemoryError``, or a SuperLU ``RuntimeError`` that names a
        failed malloc or missing memory (``SUPERLU_MALLOC fails ...``).
    """
    permc_spec = "MMD_AT_PLUS_A" if order is None else "NATURAL"
    try:
        mat = mat.tocsc() if order is None else mat[order].tocsc()[:, order]
        return spla.splu(mat, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                         panel_size=1)
    except MemoryError as exc:
        raise ResourceLimitError(str(exc)) from exc
    except RuntimeError as exc:  # SuperLU signals singularity and failed mallocs
        message = str(exc)
        if "malloc" in message.lower() or "memory" in message.lower():
            raise ResourceLimitError(message) from exc
        raise SingularMatrixError(message) from exc


def _transpose_slots(mat):
    """
    The CSC of the slot numbers of a CSR matrix.  On a symmetric pattern
    it has the CSR's index arrays, and its k-th number is the slot of the
    transpose of entry k; no copy of the values is built.
    """
    return sp.csr_matrix((np.arange(mat.nnz, dtype=mat.indices.dtype),
                          mat.indices, mat.indptr), shape=mat.shape).tocsc()


def _one_pattern(a, m):
    """
    A and M as canonical CSR matrices on one structurally symmetric
    pattern, and ``partner``: for every stored entry (i, j), the slot of
    entry (j, i) in their ``data``.  A pair already stored so, as every
    pair assembled on a mesh is, is returned as the same objects; any
    other is placed on the union of the patterns of A, A^T, M and M^T,
    with explicit zeros where it has no entry.
    """
    a, m = a.tocsr(), m.tocsr()
    slots = _transpose_slots(a)
    if not (a.has_canonical_format
            and all(np.array_equal(x.indptr, a.indptr)
                    and np.array_equal(x.indices, a.indices)
                    for x in (m, slots))):
        a, m = a.tocoo(), m.tocoo()
        ij = np.hstack([a.coords, a.coords[::-1], m.coords, m.coords[::-1]])
        pad_a, pad_m = np.zeros(a.nnz), np.zeros(m.nnz)
        a, m = [sp.csr_matrix((np.concatenate(d), tuple(ij)), shape=a.shape)
                for d in ([a.data, pad_a, pad_m, pad_m],
                          [pad_a, pad_a, m.data, pad_m])]
        slots = _transpose_slots(a)
    return a, m, slots.data


def _fgmres_cycle(matvec, psolve, direction, r, target):
    """
    One cycle of right-preconditioned flexible GMRES (Saad, SIAM J. Sci.
    Comput. 14, 1993) for ``matvec(x) = b``, started from the residual
    ``r`` of the current iterate.  Returns the correction ``dx`` and the
    number of iterations; each makes one ``psolve`` and one ``matvec``.

    The Arnoldi basis is orthogonalised by modified Gram-Schmidt, and the
    preconditioned directions Z = [psolve(v_0), ...] are kept beside it,
    so ``dx = Z y`` needs no further ``psolve`` and ``psolve`` may change
    from one iteration to the next.  A direction is kept in whatever form
    ``psolve`` returns, and ``direction`` turns it into the vector that
    ``matvec`` takes and ``dx`` sums, once for each of the two uses.
    Givens rotations (LAPACK ``lartg``) keep the least-squares residual
    |g[j+1]|, in exact arithmetic ``||r - matvec(dx)||_2``.  The cycle
    ends when it is at most ``target``, after :data:`GMRES_RESTART`
    iterations (read at call time), or on a happy breakdown, h[j+1, j] =
    0, where the Krylov space holds the solution and the next basis
    vector cannot be normalised.  A non-finite residual norm or
    Hessenberg entry raises :class:`ResidualCertificationError`.
    """
    restart = GMRES_RESTART
    h = np.zeros((restart + 1, restart))
    cs = np.zeros(restart)
    sn = np.zeros(restart)
    g = np.zeros(restart + 1)
    g[0] = np.linalg.norm(r)
    if not np.isfinite(g[0]):
        raise ResidualCertificationError("non-finite GMRES residual norm")
    # one array per vector, not a (restart + 1) x size block: the vectors
    # then fit in heap memory that the factorization before them freed,
    # where a block maps fresh pages (level-8 boundary layer, with
    # SuperLU's default panels: peak RSS 152-158 MB, against 167-169 MB
    # with the basis in one block)
    v = [r / g[0]]
    z = []
    for j in range(restart):
        z.append(psolve(v[j]))
        w = matvec(direction(z[j]))
        for i in range(j + 1):
            h[i, j] = w @ v[i]
            w -= h[i, j] * v[i]
        h_next = np.linalg.norm(w)
        if not (np.isfinite(h_next) and np.isfinite(h[:j + 1, j]).all()):
            raise ResidualCertificationError(
                "non-finite Hessenberg entry in GMRES iteration %d" % (j + 1))
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
    dx = y[0] * direction(z[0])
    for i in range(1, k):
        dx += y[i] * direction(z[i])
    return dx, k


class BlockSaddleSystem:
    """
    Discrete first-order optimality system over interior dofs:

        [ A^T  -M      ] [p]   [rhs_top   ]
        [ -M   -beta A ] [y] = [rhs_bottom]

    A is the (convection-diffusion-reaction) stiffness matrix, M the
    consistent mass matrix; beta > 0 defaults to 1, matching the
    normalized control-cost weight used throughout.  M must be symmetric
    to within ``SYM_RTOL`` (ValueError otherwise).  Both are stored on
    one pattern (:func:`_one_pattern`).

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
    (Axelsson, Farouq & Neytcheva, Numer. Algorithms 2016), under that
    bound's hypothesis that the symmetric part of A is positive
    semidefinite, so that F has a positive definite symmetric part.
    Nothing checks that hypothesis at run time; the residual certificate
    below holds regardless.  F has a symmetric pattern and is factored
    with diagonal pivots in a symmetric ordering (see
    :func:`_factorize`): ``order`` when given
    (:func:`optimal_control.solve` passes the interior part of the mesh's
    nested-dissection order, 4.94 M stored entries at level 8), else
    minimum degree (5.67 M), against 9.6 M for COLAMD with partial
    pivoting.  ``fill`` records SuperLU's stored count of the factor
    (``nnz``, slightly more than nnz(L) + nnz(U) of its CSC form).
    Every solution it returns is certified on the system above, with
    ``rtol`` = :data:`DEFAULT_SOLVE_RTOL`:

        ||(A^T p - M y - rhs_top, -M p - beta A y - rhs_bottom)||_2
            <= rtol ||(rhs_top, rhs_bottom)||_2.

    The factor is stored in float32 where the operator is resolved, and
    ``precision`` records the choice: when every off-diagonal pair of A
    has ``max(|A_ij|, |A_ji|) <= e^2 min(|A_ij|, |A_ji|)``, for EAFE an
    edge Peclet number of at most 2 (:data:`SINGLE_PRECISION_ASYMMETRY`),
    and every nonzero of F lies in float32's normal range.  Otherwise it
    is stored in float64.  A float32 factor applies PRESB only to about
    1e-7 relative accuracy, but PRESB is only the preconditioner: flexible
    GMRES accepts each preconditioned direction as it comes, the basis,
    the products with the operator and the certificate stay in float64,
    and the certified residual is that of the float64 system, so no
    guarantee rests on the factor's precision (Arioli & Duff, ETNA 33,
    2009; Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  Each kept
    direction is the factor's two solutions in its precision, with a
    float32 factor half the bytes of a float64 direction (see
    :meth:`solve`).  On the level-8 boundary layer at eps = 1e-2 it
    keeps 13 iterations and the same fill, and the peak RSS of
    ``--levels 7..8`` (one thread) is 146-148 MB; with SuperLU's default
    panels (see :func:`_factorize`) it was 152-160 MB, against 181 MB
    with a float64 factor.
    """

    def __init__(self, a, m, rhs_top, rhs_bottom, beta=1.0, order=None):
        n = a.shape[0]
        if a.shape != (n, n) or m.shape != (n, n):
            raise ValueError("block system needs square A, M of equal order")
        self.A, self.M, partner = _one_pattern(a, m)
        self.rhs_top = np.asarray(rhs_top, dtype=float)
        self.rhs_bottom = np.asarray(rhs_bottom, dtype=float)
        self.beta = float(beta)
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.rhs_top.shape != (n,) or self.rhs_bottom.shape != (n,):
            raise ValueError("right-hand side blocks have wrong length")
        # ||M - M^T||_F over the union pattern, read from M's data
        data = self.M.data
        asym = np.linalg.norm(data - data[partner])
        scale = max(np.abs(data).max(initial=0.0), 1e-300)
        if asym > SYM_RTOL * scale * np.sqrt(max(m.nnz, 1)):
            raise ValueError("mass matrix is not symmetric to working precision")
        #: symmetric ordering of the PRESB factor, or None for minimum degree
        self.order = order
        #: GMRES iterations of the last :meth:`solve`, summed over restarts
        self.iterations = 0
        #: entries SuperLU stores for the factor of F in the last
        #: :meth:`solve` (``SuperLU.nnz``)
        self.fill = 0
        #: dtype name of the PRESB factor of the last :meth:`solve`,
        #: ``"float32"`` or ``"float64"``; None while nothing is factored
        self.precision = None

    def _presb_matrix(self, s):
        """
        ``F = M + s A`` in the precision of its factor, recorded as
        :attr:`precision` (see the class docstring).  F is M's and A's
        data added on the pattern they share (:func:`_one_pattern`),
        explicit zeros included.

        ``|A_ij| - e^2 |A_ji| <= 0`` over all stored pairs bounds the
        ratio of every pair: a pair of zeros (EAFE edges of zero weight)
        passes, a pair with exactly one zero fails, and so does NaN.  An
        entry of F outside float32's normal range selects float64 rather
        than round to zero, a subnormal or infinity.  Both tests read data
        arrays, with A_ji found through :func:`_transpose_slots`, so
        neither |A|, its transpose nor their difference is built.
        """
        a, m = self.A, self.M
        partner = _transpose_slots(a).data
        mag = np.abs(a.data)
        mag -= SINGLE_PRECISION_ASYMMETRY * np.abs(a.data[partner])
        pairs_resolved = bool(np.all(mag <= 0.0))
        del mag, partner  # not alive beside F's data

        data = m.data + s * a.data
        single = np.finfo(np.float32)
        entries = np.abs(data)
        if (pairs_resolved
                and entries.min(where=entries != 0.0,
                                initial=single.max) >= single.tiny
                and entries.max(initial=0.0) <= single.max):
            self.precision = "float32"
        else:
            self.precision = "float64"
        return sp.csr_matrix((data.astype(self.precision, copy=False),
                              m.indices, m.indptr), shape=m.shape)

    @property
    def n(self):
        return self.A.shape[0]

    def solve(self):
        """
        Returns (p, y, certified relative residual).  The residual

            ||(A^T p - M y - rhs_top, -M p - beta A y - rhs_bottom)||_2
                / ||(rhs_top, rhs_bottom)||_2

        must not exceed ``rtol``, :data:`DEFAULT_SOLVE_RTOL` read at call
        time; it is computed by blocks after every GMRES cycle, and a
        cycle restarts from the current iterate until it is at most
        ``rtol * GMRES_MARGIN``, at most ``GMRES_CYCLES - 1`` times.
        ``iterations`` counts the GMRES iterations, one PRESB application
        each.  A zero right-hand side returns zeros without factoring
        anything (``fill`` 0, ``precision`` None).

        The iteration runs on both blocks scaled by 2^-e, e the binary
        exponent of their largest entry, and p and y are scaled back by
        2^e.  A power of two scales every step exactly, so results in the
        normal range are bit for bit those of the unscaled iteration, and
        no 2-norm of it overflows or underflows on a right-hand side near
        the ends of float64's range.

        ``F = M + sqrt(beta) A`` from :meth:`_presb_matrix` is passed to
        :func:`_factorize` as a temporary, so only its CSC is alive while
        SuperLU factors it.  The two right-hand sides of each PRESB
        application are cast to F's precision, and its two solutions
        ``(z, q)`` are kept in it, in natural order, as the Krylov
        direction: 8n bytes with a float32 factor, against 16n for the
        float64 direction ``(z - q, q)``, which is formed, exactly widened,
        only where :func:`_fgmres_cycle` applies the operator and sums the
        correction.  So every iterate, iteration count and certificate is
        that of float64 copies of the two halves; the rest stays float64.

        Raises
        ------
        SingularMatrixError
            If ``M + sqrt(beta) A`` has a zero pivot.
        ResourceLimitError
            If its factor does not fit in memory.
        ResidualCertificationError
            If the residual certificate cannot be met, GMRES meets a
            non-finite number, or the certified p or y, scaled back,
            leaves float64's range.
        """
        n = self.n
        rtol = DEFAULT_SOLVE_RTOL
        self.iterations = 0
        self.fill = 0
        self.precision = None
        a, m, top, bottom = self.A, self.M, self.rhs_top, self.rhs_bottom
        e = int(np.frexp(max(np.abs(top).max(initial=0.0),
                             np.abs(bottom).max(initial=0.0)))[1])
        top, bottom = np.ldexp(top, -e), np.ldexp(bottom, -e)
        bnorm = np.hypot(np.linalg.norm(top), np.linalg.norm(bottom))
        if bnorm == 0.0:
            return np.zeros(n), np.zeros(n), 0.0

        s = np.sqrt(self.beta)
        # F = M + K is a temporary: _factorize drops it once its CSC is built
        lu = _factorize(self._presb_matrix(s), order=self.order)
        o = slice(None) if self.order is None else self.order
        self.fill = lu.nnz
        # SuperLU solves only with right-hand sides of its factor's dtype
        dtype = self.precision

        def presb(r):
            # [[M, -K^T], [K, M + K + K^T]] (y, q) = (f, g):
            # F z = f + g, F^T q = M z - f, y = z - q; (z, q) is kept in
            # F's precision and in natural order, y is formed by direction
            f = r[:n]
            z = np.empty(n, dtype)
            z[o] = lu.solve((f + r[n:])[o].astype(dtype, copy=False))
            q = np.empty(n, dtype)
            q[o] = lu.solve((m @ z - f)[o].astype(dtype, copy=False),
                            trans="T")
            return z, q

        def direction(zq):
            # (z - q, q) in float64; float32 values are widened exactly
            # before the subtraction
            z, q = zq
            d = np.empty(2 * n)
            np.subtract(z, q, out=d[:n], dtype=float)
            d[n:] = q
            return d

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
            dx, k = _fgmres_cycle(balanced, presb, direction, r, target)
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
        with np.errstate(over="ignore"):
            p, y = np.ldexp(p, e), np.ldexp(y, e)
        if not (np.isfinite(p).all() and np.isfinite(y).all()):
            raise ResidualCertificationError(
                "the certified solution overflows float64 once scaled back "
                "by 2^%d" % e)
        return p, y, float(res)
