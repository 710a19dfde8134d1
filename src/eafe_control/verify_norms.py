"""
Verification layer: M-matrix certification, desired-state bound checks,
L2/H1 error norms (global and on sub-boxes), and convergence tables.  It
checks and measures what it is given and builds no mesh.  It solves only
inside the certificate, when the sweep's candidate fails (one SuperLU LU
and one solve, :func:`sparse_linalg._factorize`), and the bound check
assembles the mass matrix again (:func:`fem_core.assemble_mass`).

The M-matrix certificate checks the sign pattern, then proves the inverse
nonnegative at every order: a Z-matrix A with some x > 0 and A x > 0
(semipositive) is a nonsingular M-matrix.  The candidate x comes from one
symmetric Gauss-Seidel sweep, O(nnz); only when the sweep's x fails the
check does one sparse LU and one solve give x = A^-1 1.

The desired-state bound check mirrors the monotonicity argument for the
saddle system: with an M-matrix stiffness and one-signed desired state
y_d, the discrete state satisfies 0 <= (y_h, phi_i) <= (y_d, phi_i) at
every vertex (inequalities mirrored for y_d <= 0) and the adjoint is
one-signed nodally.  The check always uses exact mass inner products,
independent of any reaction-lumping choice inside the operator.
"""

import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from . import fem_core, sparse_linalg
from .fem_core import as_scalar_field, as_vector_field

CSV_HEADER = "k,ey_l2,ey_order,ey_h1,ey_h1_order,ep_l2,ep_order,ep_h1,ep_h1_order"

#: off-diagonal entries up to OFFDIAG_RTOL * max|diag| count as rounding zeros
OFFDIAG_RTOL = 1e-14


class DesiredStateSignError(ValueError):
    """Desired state does not have the declared sign everywhere."""


class BoundReport:
    """
    Vertexwise margins of the desired-state bounds.

    For the sign convention sigma (+1 for nonnegative y_d, -1 for
    nonpositive), ``state_lower`` holds sigma * (y_h, phi_i) and
    ``state_upper`` holds sigma * (y_d - y_h, phi_i); both must stay above
    -tol.  ``adjoint_margin`` holds -sigma * p_h(x_i), also >= -tol.
    """

    def __init__(self, sign, tol, state_lower, state_upper, adjoint_margin):
        self.sign = sign
        self.tol = float(tol)
        self.state_lower = np.asarray(state_lower)
        self.state_upper = np.asarray(state_upper)
        self.adjoint_margin = np.asarray(adjoint_margin)
        self.worst_state_lower = float(self.state_lower.min())
        self.worst_state_upper = float(self.state_upper.min())
        self.worst_adjoint = float(self.adjoint_margin.min())
        self.argmin_state_lower = int(np.argmin(self.state_lower))
        self.argmin_state_upper = int(np.argmin(self.state_upper))
        self.argmin_adjoint = int(np.argmin(self.adjoint_margin))
        self.ok = (
            self.worst_state_lower >= -self.tol
            and self.worst_state_upper >= -self.tol
            and self.worst_adjoint >= -self.tol
        )

    @property
    def worst_violation(self):
        """Most negative margin across all three families (0 if clean)."""
        return min(
            0.0, self.worst_state_lower, self.worst_state_upper, self.worst_adjoint
        )

    def summary(self):
        return {
            "ok": self.ok,
            "sign": self.sign,
            "tol": self.tol,
            "worst_state_lower": self.worst_state_lower,
            "worst_state_lower_vertex": self.argmin_state_lower,
            "worst_state_upper": self.worst_state_upper,
            "worst_state_upper_vertex": self.argmin_state_upper,
            "worst_adjoint": self.worst_adjoint,
            "worst_adjoint_vertex": self.argmin_adjoint,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def __repr__(self):
        return "BoundReport(ok=%s, worst=%.3g, tol=%.3g)" % (
            self.ok,
            self.worst_violation,
            self.tol,
        )


def check_desired_state_bounds(mesh, solution, y_d):
    """
    Check the desired-state bounds of a computed optimality-system
    solution at every vertex (boundary included).

    The sign convention comes from y_d at all QUADRATURE points:
    "nonneg" if every sample is >= 0 (y_d = 0 included), else "nonpos"
    if every sample is <= 0.  Data of both signs raise
    DesiredStateSignError, since the bounds are only meaningful for
    one-signed data.  ``y_d`` must be the desired state the solution
    was computed for: the load (y_d, phi_i) is the one the solve
    assembled, ``solution.tracking_load``.  The mass matrix is assembled
    here again (:func:`fem_core.assemble_mass`, deterministic, so it is
    the one the solve used, bit for bit), since the solution does not
    keep a matrix over all vertices.
    """
    if solution.tracking_load is None:
        raise ValueError("desired-state bounds need a tracking-mode solution")
    y_d = as_scalar_field(y_d)
    lo, hi = np.inf, -np.inf
    for _, _, xq, yq in fem_core.quadrature_points(mesh):
        samples = np.asarray(y_d(xq, yq), dtype=float)
        lo, hi = np.minimum(lo, samples.min()), np.maximum(hi, samples.max())
    if lo >= 0.0:
        sign, sigma = "nonneg", 1.0
    elif hi <= 0.0:
        sign, sigma = "nonpos", -1.0
    else:
        raise DesiredStateSignError("desired state is not one-signed on the "
                                    "mesh")

    fd = solution.tracking_load
    m1 = fem_core.assemble_mass(mesh) @ solution.y_bar
    tol = 1e-10 * np.abs(fd).max()
    return BoundReport(
        sign,
        tol,
        sigma * m1,
        sigma * (fd - m1),
        -sigma * solution.p_bar,
    )


def _region_mask(mesh, region):
    x0, x1, y0, y1 = region
    v = mesh.vertices
    inside = (
        (v[:, 0] >= x0) & (v[:, 0] <= x1) & (v[:, 1] >= y0) & (v[:, 1] <= y1)
    )
    return inside[mesh.triangles].all(axis=1)


def _region_masks(mesh, regions):
    """Triangle mask of each region; None for the region None, all of them."""
    return [None if region is None else _region_mask(mesh, region)
            for region in regions]


def _region_sums(terms, masks):
    """The per-triangle ``terms`` summed over each mask, over all for None."""
    return np.array([np.sum(terms if mask is None else terms[mask])
                     for mask in masks])


def _region_norms(masks, l2_sq, h1_semi_sq):
    """(L2, full H1) of each region; None where its mask is empty."""
    return [None if mask is not None and not mask.any()
            else (math.sqrt(l2), math.sqrt(l2 + h1))
            for mask, l2, h1 in zip(masks, l2_sq, h1_semi_sq)]


def _p1_gradients(nodal, grads):
    """Constant gradient (gx, gy) of a P1 field with (m, 3) vertex values."""
    return (np.einsum("mc,mc->m", nodal, grads[:, :, 0]),
            np.einsum("mc,mc->m", nodal, grads[:, :, 1]))


def error_norms(mesh, numeric, exact, exact_grad, regions=(None,)):
    """
    L2 and full H1 errors of a nodal field against an exact solution,
    integrated with QUADRATURE, on each region of ``regions``: one
    ``(l2, h1)`` pair per region, in order.

    The H1 value is the full norm sqrt(L2^2 + |grad error|^2).  The
    region None is the whole mesh; on a box (x0, x1, y0, y1) only the
    elements whose three vertices lie in the closed box contribute, and a
    box with no whole element gets None.  Every per-triangle term is
    formed once over all triangles, then summed over each region's
    elements, point by point.
    """
    numeric = np.asarray(numeric, dtype=float)
    exact = as_scalar_field(exact)
    exact_grad = as_vector_field(exact_grad)
    masks = _region_masks(mesh, regions)
    nodal = numeric[mesh.triangles]  # (M, 3)
    gx_h, gy_h = _p1_gradients(nodal,
                               fem_core.barycentric_gradient_table(mesh))

    l2_sq = h1_semi_sq = 0.0
    for lam, w, x, y in fem_core.quadrature_points(mesh):
        diff = nodal @ lam - np.asarray(exact(x, y), dtype=float)
        gx, gy = exact_grad(x, y)
        scale = w * mesh.areas
        l2_sq = l2_sq + _region_sums(scale * diff * diff, masks)
        h1_semi_sq = h1_semi_sq + _region_sums(
            scale * ((gx_h - gx) ** 2 + (gy_h - gy) ** 2), masks)
    return _region_norms(masks, l2_sq, h1_semi_sq)


def interpolant_error_norms(mesh, numeric, exact, regions=(None,)):
    """
    Nodal-interpolant error metric: L2 and full H1 norms of the piecewise
    linear difference u_h - I_h(u), where I_h is nodal interpolation, on
    each region of ``regions`` as in :func:`error_norms`.

    Unlike :func:`error_norms` this discrete measure cancels sub-grid
    content that no piecewise linear function could represent, so it stays
    informative on under-resolved layers; convergence tables for layer
    benchmarks are conventionally reported in this metric.

    The difference is piecewise linear, so both norms come from the exact
    element formulas, without quadrature points: with vertex values d_c
    on a triangle, L2^2 = area / 12 * (sum d_c^2 + (sum d_c)^2), and the
    H1 seminorm integrates the constant gradient sum d_c grad(lambda_c).
    """
    diff = np.asarray(numeric, dtype=float) - fem_core.interpolate_nodal(mesh, exact)
    masks = _region_masks(mesh, regions)
    areas = mesh.areas
    d = diff[mesh.triangles]  # (M, 3)
    l2_sq = _region_sums(areas / 12.0 * (np.einsum("mc,mc->m", d, d)
                                         + d.sum(axis=1) ** 2), masks)
    gx, gy = _p1_gradients(d, fem_core.barycentric_gradient_table(mesh))
    return _region_norms(masks, l2_sq,
                         _region_sums(areas * (gx * gx + gy * gy), masks))


class MMatrixReport:
    """
    Results of :func:`certify_m_matrix`.  The sign pattern holds when
    ``diag_ok`` (``min_diag`` > 0) and ``offdiag_ok`` (``worst_offdiag``
    <= ``offdiag_tol``); only then does the inverse half run.  ``vector``
    names the last candidate x it checked: ``"sweep"`` (one symmetric
    Gauss-Seidel sweep) or ``"inverse"`` (x = A^{-1} 1, tried only when the
    sweep's x fails).  ``min_x`` is the smallest entry of that x,
    ``margin`` its smallest row ratio (Z x)_i / (|Z| x)_i, ``tol`` the
    rounding bound the margin must exceed and ``inverse_ok`` the verdict;
    these five are None when the sign pattern fails.  ``ok`` is True only
    when every part ran and passed.
    """

    def __init__(self, diag_ok, offdiag_ok, min_diag, worst_offdiag,
                 offdiag_tol, inverse_ok=None, vector=None, min_x=None,
                 margin=None, tol=None):
        self.diag_ok = bool(diag_ok)
        self.offdiag_ok = bool(offdiag_ok)
        self.min_diag = float(min_diag)
        self.worst_offdiag = float(worst_offdiag)
        self.offdiag_tol = float(offdiag_tol)
        self.inverse_ok = inverse_ok
        self.vector = vector
        self.min_x = min_x
        self.margin = margin
        self.tol = tol
        self.ok = self.diag_ok and self.offdiag_ok and inverse_ok is True

    def __repr__(self):
        return (
            "MMatrixReport(diag_ok=%s, offdiag_ok=%s, inverse_ok=%s)"
            % (self.diag_ok, self.offdiag_ok, self.inverse_ok)
        )


def certify_m_matrix(a):
    """
    Certify that a square sparse matrix is a nonsingular M-matrix, so that
    its inverse is entrywise nonnegative.

    The sign pattern needs a positive diagonal and off-diagonal entries at
    most ``OFFDIAG_RTOL * max|diag|``.  If it holds, the inverse half runs
    on Z, which is ``a`` with those positive rounding zeros set to zero (on
    every EAFE matrix this package builds, Z = A).  A Z-matrix is a
    nonsingular M-matrix iff some x > 0 has Z x > 0 (Berman & Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, ch. 6), and any
    such x will do.  A candidate x is accepted iff min(x) > 0 and, in
    every row, (Z x)_i > 2 (k + 2) u (|Z| x)_i, with k the largest number
    of stored entries in a row and u the machine epsilon: that bounds the
    rounding error of the computed product, so the exact Z x is positive
    too and no certificate rests on how x was computed.  NaN fails both
    tests.

    The first candidate is one symmetric Gauss-Seidel sweep on Z x = 1
    from x = 1 in the natural order, forward x <- (D + L)^{-1} (1 - U x),
    then backward x <- (D + U)^{-1} (1 - L x), at O(nnz) cost; it
    certifies every interior EAFE matrix of the benchmark problems.  Only
    when it fails is the candidate x = A^{-1} 1, from one LU with diagonal
    pivots in minimum-degree order (see :func:`sparse_linalg._factorize`)
    and one solve, checked the same way.  For a Z-matrix that is not an
    M-matrix no candidate passes, so the cheap path cannot accept one.
    The tests check the verdict against an independent column-by-column
    scan of A^{-1} in ``tests/reference.py``.  ``a`` is left as given: a
    CSR input with unsorted or duplicate column indices is certified
    through a canonical copy.

    Raises
    ------
    SingularMatrixError
        If the sign pattern holds, the sweep's x fails and ``a`` is
        singular.
    """
    n, ncols = a.shape
    if n != ncols:
        raise ValueError("M-matrix check needs a square matrix")
    a = sp.csr_matrix(a)  # rows are read from indptr; no copy for CSR input
    if not a.has_canonical_format:
        # Z shares a's index arrays, and abs(Z) would sort them in place
        a = a.copy()
        a.sum_duplicates()
    diag = a.diagonal()
    min_diag = diag.min() if diag.size else 0.0
    diag_ok = min_diag > 0.0
    offdiag_tol = OFFDIAG_RTOL * np.abs(diag).max(initial=0.0)

    # off-diagonal entries, explicit zeros included, for the sign check and Z
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    off = a.indices != row
    off_data = a.data[off]
    worst = off_data.max() if off_data.size else 0.0
    offdiag_ok = worst <= offdiag_tol
    if not (diag_ok and offdiag_ok):
        return MMatrixReport(diag_ok, offdiag_ok, min_diag, worst, offdiag_tol)

    z = sp.csr_matrix((np.where(off & (a.data > 0.0), 0.0, a.data),
                       a.indices, a.indptr), shape=a.shape)
    abs_z = abs(z)
    tol = 2.0 * (np.diff(a.indptr).max() + 2) * np.finfo(float).eps

    def check(x):
        r = z @ x
        s = abs_z @ x
        with np.errstate(divide="ignore", invalid="ignore"):
            margin = (r / s).min()
        return bool(x.min() > 0.0 and np.all(r > tol * s)), x.min(), margin

    vector = "sweep"
    inverse_ok, min_x, margin = check(_sweep(z, diag))
    if not inverse_ok:
        vector = "inverse"
        inverse_ok, min_x, margin = check(
            sparse_linalg._factorize(a).solve(np.ones(n)))
    return MMatrixReport(diag_ok, offdiag_ok, min_diag, worst, offdiag_tol,
                         inverse_ok, vector, float(min_x), float(margin),
                         float(tol))


def _sweep(z, diag):
    """
    One symmetric Gauss-Seidel sweep on Z x = 1 from x = 1, in the natural
    order; ``diag`` is the diagonal of Z.  With D + L and D + U the lower
    and upper triangles of Z: forward x <- (D + L)^{-1} (1 - U x), then
    backward x <- (D + U)^{-1} (1 - L x).
    """
    one = np.ones(z.shape[0])
    lower, upper = sp.tril(z, format="csr"), sp.triu(z, format="csr")
    x = spsolve_triangular(lower, one - (upper @ one - diag), lower=True)
    return spsolve_triangular(upper, one - (lower @ x - diag * x),
                              lower=False)


class ManufacturedCase:
    """Problem data together with the exact solution pair it was built from."""

    def __init__(self, problem, exact_y, exact_grad_y, exact_p, exact_grad_p):
        self.problem = problem
        self.exact_y = as_scalar_field(exact_y)
        self.exact_grad_y = as_vector_field(exact_grad_y)
        self.exact_p = as_scalar_field(exact_p)
        self.exact_grad_p = as_vector_field(exact_grad_p)


class ConvergenceTable:
    """
    Per-level L2/H1 errors of state and adjoint with dyadic orders.

    Orders are log2(e_{k-1} / e_k) between consecutive levels; the first
    level and any level with missing or zero errors carries no order.
    Missing entries (e.g. an empty local region on coarse meshes) are
    stored as None.
    """

    COLUMNS = ("ey_l2", "ey_h1", "ep_l2", "ep_h1")

    def __init__(self, levels, errors):
        self.levels = [int(k) for k in levels]
        self.errors = {c: list(errors[c]) for c in self.COLUMNS}
        self.orders = {c: self._orders(self.errors[c]) for c in self.COLUMNS}

    @staticmethod
    def _orders(err):
        orders = [None]
        for prev, cur in zip(err[:-1], err[1:]):
            if prev is None or cur is None or prev <= 0.0 or cur <= 0.0:
                orders.append(None)
            else:
                orders.append(math.log2(prev / cur))
        return orders

    @staticmethod
    def _fmt(v):
        return "" if v is None else repr(float(v))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for i, k in enumerate(self.levels):
                cells = [str(k)]
                for c in self.COLUMNS:
                    cells.append(self._fmt(self.errors[c][i]))
                    cells.append(self._fmt(self.orders[c][i]))
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path):
        """
        Read a :meth:`to_csv` table.  A header other than ``CSV_HEADER``, a
        row without one cell per column (named by its line) or a cell that
        is not a number raises ValueError.
        """
        width = CSV_HEADER.count(",") + 1
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError("unexpected table header %r" % header)
            levels = []
            errors = {c: [] for c in cls.COLUMNS}
            for lineno, line in enumerate(fh, 2):
                cells = line.rstrip("\n").split(",")
                if len(cells) != width:
                    raise ValueError("line %d of %s holds %d cells, expected "
                                     "%d: %r" % (lineno, path, len(cells),
                                                 width, line))
                levels.append(int(cells[0]))
                for ci, c in enumerate(cls.COLUMNS):
                    cell = cells[1 + 2 * ci]
                    errors[c].append(None if cell == "" else float(cell))
        return cls(levels, errors)

    def __repr__(self):
        return "ConvergenceTable(levels=%s)" % (self.levels,)


#: error measures available to the convergence studies
METRICS = ("quadrature", "interpolant")


def solution_errors(mesh, case, sol, regions, metric):
    """
    (ey_l2, ey_h1, ep_l2, ep_h1) of a solution pair on each region of
    ``regions`` (see :func:`error_norms`), from one norm call per field;
    four Nones on a region with no whole element.
    """
    if metric == "quadrature":
        ey = error_norms(mesh, sol.y_bar, case.exact_y, case.exact_grad_y,
                         regions)
        ep = error_norms(mesh, sol.p_bar, case.exact_p, case.exact_grad_p,
                         regions)
    elif metric == "interpolant":
        ey = interpolant_error_norms(mesh, sol.y_bar, case.exact_y, regions)
        ep = interpolant_error_norms(mesh, sol.p_bar, case.exact_p, regions)
    else:
        raise ValueError("unknown metric %r (expected one of %s)"
                         % (metric, METRICS))
    return [(None,) * 4 if y is None else y + p for y, p in zip(ey, ep)]
