"""
Verification layer: M-matrix certification, desired-state bound checks,
L2/H1 error norms (global and on sub-boxes), and convergence tables.

The M-matrix certificate checks the sign pattern and then proves the
inverse nonnegative with one sparse LU and one solve: a Z-matrix A
with some x > 0 and A x > 0 (semipositive) is a nonsingular M-matrix.

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

from . import fem_core, optimal_control
from .fem_core import QUADRATURE, as_scalar_field, as_vector_field
from .mesh import build_unit_square, signed_areas
from .sparse_linalg import semipositivity_check

CSV_HEADER = "k,ey_l2,ey_order,ey_h1,ey_h1_order,ep_l2,ep_order,ep_h1,ep_h1_order"

#: off-diagonal entries up to OFFDIAG_RTOL * max|diag| count as rounding zeros
OFFDIAG_RTOL = 1e-14


class DesiredStateSignError(ValueError):
    """Desired state does not have the declared sign everywhere."""


class EmptyRegionError(ValueError):
    """Requested sub-box contains no whole element."""


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


def check_desired_state_bounds(mesh, solution, y_d, sign):
    """
    Check the desired-state bounds of a computed optimality-system
    solution at every vertex (boundary included).

    ``sign`` is "nonneg" or "nonpos" and must hold for y_d at all
    QUADRATURE points; violations of that precondition raise
    DesiredStateSignError, since the bounds are only meaningful for
    one-signed data.  ``y_d`` must be the desired state the solution
    was computed for: the mass matrix and the load (y_d, phi_i) are the
    ones the solve assembled, ``solution.mass`` and
    ``solution.tracking_load``.
    """
    if sign not in ("nonneg", "nonpos"):
        raise ValueError("sign must be 'nonneg' or 'nonpos'")
    if solution.tracking_load is None:
        raise ValueError("desired-state bounds need a tracking-mode solution")
    sigma = 1.0 if sign == "nonneg" else -1.0
    y_d = as_scalar_field(y_d)
    xq, yq = fem_core.quadrature_points(mesh)
    samples = sigma * np.asarray(y_d(xq, yq), dtype=float)
    if samples.min() < 0.0:
        raise DesiredStateSignError(
            "desired state is not %s on the mesh" % sign
        )

    fd = solution.tracking_load
    m1 = solution.mass @ solution.y_bar
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


def error_norms(mesh, numeric, exact, exact_grad, region=None):
    """
    L2 and full H1 errors of a nodal field against an exact solution,
    integrated with QUADRATURE.

    The H1 value is the full norm sqrt(L2^2 + |grad error|^2).  With a
    ``region`` box (x0, x1, y0, y1) only elements whose three vertices lie
    in the closed box contribute.

    Raises
    ------
    EmptyRegionError
        If the region excludes every element.
    """
    numeric = np.asarray(numeric, dtype=float)
    exact = as_scalar_field(exact)
    exact_grad = as_vector_field(exact_grad)

    if region is None:
        sel = slice(None)
        tri = mesh.triangles
    else:
        mask = _region_mask(mesh, region)
        if not mask.any():
            raise EmptyRegionError("region %s contains no whole element" % (region,))
        sel = mask
        tri = mesh.triangles[mask]

    areas = signed_areas(mesh)[sel]
    grads = fem_core.barycentric_gradient_table(mesh)[sel]
    x, y = fem_core.quadrature_points(mesh)
    x, y = x[:, sel], y[:, sel]
    nodal = numeric[tri]  # (m, 3)

    gx_h = np.einsum("mc,mc->m", nodal, grads[:, :, 0])
    gy_h = np.einsum("mc,mc->m", nodal, grads[:, :, 1])

    l2_sq = 0.0
    h1_semi_sq = 0.0
    for q, (lam, w) in enumerate(zip(QUADRATURE.points, QUADRATURE.weights)):
        xq, yq = x[q], y[q]
        uh = nodal @ lam
        diff = uh - np.asarray(exact(xq, yq), dtype=float)
        gx, gy = exact_grad(xq, yq)
        l2_sq += np.sum(w * areas * diff * diff)
        h1_semi_sq += np.sum(w * areas * ((gx_h - gx) ** 2 + (gy_h - gy) ** 2))
    l2 = math.sqrt(l2_sq)
    return l2, math.sqrt(l2_sq + h1_semi_sq)


def interpolant_error_norms(mesh, numeric, exact, region=None):
    """
    Nodal-interpolant error metric: L2 and full H1 norms of the piecewise
    linear difference u_h - I_h(u), where I_h is nodal interpolation.

    Unlike :func:`error_norms` this discrete measure cancels sub-grid
    content that no piecewise linear function could represent, so it stays
    informative on under-resolved layers; convergence tables for layer
    benchmarks are conventionally reported in this metric.
    """
    diff = np.asarray(numeric, dtype=float) - fem_core.interpolate_nodal(mesh, exact)
    return error_norms(mesh, diff, 0.0, (0.0, 0.0), region=region)


class MMatrixReport:
    """Which of the M-matrix certificates ran and passed."""

    def __init__(self, diag_ok, offdiag_ok, inverse_report, min_diag,
                 worst_offdiag, offdiag_tol):
        self.diag_ok = bool(diag_ok)
        self.offdiag_ok = bool(offdiag_ok)
        self.inverse_report = inverse_report  # None when skipped
        self.min_diag = float(min_diag)
        self.worst_offdiag = float(worst_offdiag)
        self.offdiag_tol = float(offdiag_tol)
        self.inverse_ok = None if inverse_report is None else inverse_report.ok
        self.ok = self.diag_ok and self.offdiag_ok and self.inverse_ok is not False

    def __repr__(self):
        return (
            "MMatrixReport(diag_ok=%s, offdiag_ok=%s, inverse_ok=%s)"
            % (self.diag_ok, self.offdiag_ok, self.inverse_ok)
        )


def certify_m_matrix(a, cap=5000):
    """
    Certify the M-matrix structure of a square CSR matrix: positive
    diagonal, off-diagonal entries at most ``OFFDIAG_RTOL * max|diag|``, and
    (for orders up to ``cap``) entrywise nonnegativity of the inverse.

    The inverse is certified by :func:`semipositivity_check`: one sparse
    LU of ``a`` and one solve x = A^{-1} 1, accepted when x > 0 and A x > 0
    beyond the rounding bound of the product.  Its report, with the
    margin, is ``inverse_report``; it is None when the sign pattern fails
    or the order exceeds ``cap`` (``cap=0`` checks the sign pattern only).

    Raises
    ------
    SingularMatrixError
        If the sign pattern holds but ``a`` is singular.
    """
    n, ncols = a.shape
    if n != ncols:
        raise ValueError("M-matrix check needs a square matrix")
    diag = a.diagonal()
    min_diag = diag.min() if diag.size else 0.0
    diag_ok = min_diag > 0.0

    scale = np.abs(diag).max() if diag.size else 0.0
    offdiag_tol = OFFDIAG_RTOL * scale
    # stored entries count, explicit zeros included
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    off = a.data[a.indices != row]
    worst = off.max() if off.size else 0.0
    offdiag_ok = worst <= offdiag_tol

    inverse_report = None
    if diag_ok and offdiag_ok and n <= cap:
        inverse_report = semipositivity_check(a, offdiag_tol=offdiag_tol)
    return MMatrixReport(diag_ok, offdiag_ok, inverse_report, min_diag, worst,
                         offdiag_tol)


class ManufacturedCase:
    """Problem data together with the exact solution pair it was built from."""

    def __init__(self, name, problem, exact_y, exact_grad_y, exact_p,
                 exact_grad_p):
        self.name = name
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

    def __init__(self, levels, errors, region=None):
        self.levels = [int(k) for k in levels]
        self.errors = {c: list(errors[c]) for c in self.COLUMNS}
        self.region = region
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

    def row(self, k):
        i = self.levels.index(k)
        return {
            c: (self.errors[c][i], self.orders[c][i]) for c in self.COLUMNS
        }

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
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError("unexpected table header %r" % header)
            levels = []
            errors = {c: [] for c in cls.COLUMNS}
            for line in fh:
                cells = line.rstrip("\n").split(",")
                levels.append(int(cells[0]))
                for ci, c in enumerate(cls.COLUMNS):
                    cell = cells[1 + 2 * ci]
                    errors[c].append(None if cell == "" else float(cell))
        return cls(levels, errors)

    def __eq__(self, other):
        return (
            isinstance(other, ConvergenceTable)
            and self.levels == other.levels
            and self.errors == other.errors
        )

    def __repr__(self):
        return "ConvergenceTable(levels=%s)" % (self.levels,)


#: error measures available to the convergence studies
METRICS = ("quadrature", "interpolant")


def solution_errors(mesh, case, sol, region=None, metric="quadrature"):
    """(ey_l2, ey_h1, ep_l2, ep_h1) of a solution pair; None on empty region."""
    try:
        if metric == "quadrature":
            ey = error_norms(mesh, sol.y_bar, case.exact_y, case.exact_grad_y,
                             region=region)
            ep = error_norms(mesh, sol.p_bar, case.exact_p, case.exact_grad_p,
                             region=region)
        elif metric == "interpolant":
            ey = interpolant_error_norms(mesh, sol.y_bar, case.exact_y,
                                         region=region)
            ep = interpolant_error_norms(mesh, sol.p_bar, case.exact_p,
                                         region=region)
        else:
            raise ValueError("unknown metric %r (expected one of %s)"
                             % (metric, METRICS))
    except EmptyRegionError:
        return (None, None, None, None)
    return (ey[0], ey[1], ep[0], ep[1])


def convergence_tables(case, scheme, levels, regions, lump_reaction=True,
                       mesh_factory=build_unit_square, solution_hook=None,
                       metric="quadrature"):
    """
    Solve once per level and measure errors on several regions at once
    (None denotes the whole domain).  Returns one table per region.
    """
    levels = [int(k) for k in levels]
    if levels != sorted(levels):
        raise ValueError("levels must be ascending")
    per_region = [
        {c: [] for c in ConvergenceTable.COLUMNS} for _ in regions
    ]
    for k in levels:
        mesh = mesh_factory(k)
        sol = optimal_control.solve(
            mesh, case.problem, scheme, lump_reaction=lump_reaction
        )
        if solution_hook is not None:
            solution_hook(k, mesh, sol)
        for region, store in zip(regions, per_region):
            vals = solution_errors(mesh, case, sol, region=region,
                                   metric=metric)
            for c, v in zip(ConvergenceTable.COLUMNS, vals):
                store[c].append(v)
    return [
        ConvergenceTable(levels, store, region=region)
        for region, store in zip(regions, per_region)
    ]


def convergence_study(case, scheme, levels, region=None, lump_reaction=True,
                      metric="quadrature"):
    """Convergence table over ascending levels (optionally on a sub-box)."""
    return convergence_tables(
        case, scheme, levels, [region], lump_reaction=lump_reaction,
        metric=metric,
    )[0]
