"""
Assembly and solution of the discrete first-order optimality system.

The constrained problem minimizes the usual tracking functional subject
to a convection-diffusion-reaction state equation; eliminating the
control with the optimality relation p + u = 0 (control-cost weight 1)
leaves a coupled saddle-point system in the adjoint p and state y.  Over
interior dofs (strong Dirichlet elimination) it reads

    A^T p - M y = rhs_top      rhs_top    = -(y_d, phi_i)  or  (f, phi_i)
    -M p - A y = rhs_bottom    rhs_bottom = 0              or  (g, phi_i)

with A the chosen stiffness (edge-averaged or standard Galerkin) and M
the consistent mass matrix.  Nonzero Dirichlet traces are imposed by a
nodal-interpolation lift whose contributions move to the right-hand side.
"""

import numpy as np
import scipy.sparse as sp

from . import fem_core
from .eafe import assemble_eafe_stiffness
from .fem_core import (as_scalar_field, as_vector_field, assemble_load,
                       interpolate_nodal)
from .mesh import nested_dissection_order, write_vtk
from .sparse_linalg import BlockSaddleSystem

SCHEMES = ("eafe", "galerkin")


class AssemblyError(ValueError):
    """Inconsistent problem data at assembly time."""


class ProblemSpec:
    """
    Problem data: coefficients plus exactly one data mode.

    Either a desired state ``y_d`` (tracking mode) or a pair-valued
    ``source(x, y) -> (f, g)`` of the two right-hand sides (general mode;
    a constant pair is wrapped as by
    :func:`~eafe_control.fem_core.as_vector_field`).  Dirichlet traces for
    state and adjoint default to zero.
    """

    def __init__(self, coeff, y_d=None, source=None,
                 dirichlet_y=None, dirichlet_p=None):
        self.coeff = coeff
        if (y_d is None) == (source is None):
            raise AssemblyError(
                "exactly one data mode must be set: y_d, or the source pair"
            )
        self.y_d = as_scalar_field(y_d) if y_d is not None else None
        self.source = as_vector_field(source) if source is not None else None
        self.dirichlet_y = as_scalar_field(dirichlet_y if dirichlet_y is not None else 0.0)
        self.dirichlet_p = as_scalar_field(dirichlet_p if dirichlet_p is not None else 0.0)

    @property
    def mode(self):
        return "tracking" if self.y_d is not None else "general"


class SolutionPair:
    """
    Nodal solution of the optimality system.

    ``p_bar`` (adjoint), ``y_bar`` (state) and the recovered control
    ``u_bar = -p_bar`` over all vertices; boundary nodes carry the
    interpolated Dirichlet data, kept through the solve as boundary
    values only.  ``residual`` is the certified relative
    residual of the interior linear solve, ``iterations`` its GMRES
    iteration count, ``fill`` the entries SuperLU stores for the sparse
    LU factor it used (``SuperLU.nnz``), ``precision`` that factor's dtype
    name (``"float32"`` or ``"float64"``, see
    :class:`~eafe_control.sparse_linalg.BlockSaddleSystem`; None when the
    right-hand side vanished and nothing was factored), ``stiffness`` the
    interior stiffness block A of the solved system and ``tracking_load``
    the load vector (y_d, phi_i) over all vertices in tracking mode (None
    in general mode).  It holds no matrix over all vertices: the full mass
    matrix is freed before any factor, and the bound check
    (:func:`~eafe_control.verify_norms.check_desired_state_bounds`)
    assembles its own.  The solutions that one :func:`solve_schemes` call
    yields share ``tracking_load`` and the index arrays of
    ``stiffness``, which the solved systems' A and M shared.
    """

    def __init__(self, p_bar, y_bar, u_bar, residual, scheme, stiffness,
                 iterations, fill, precision, tracking_load=None):
        self.p_bar = np.asarray(p_bar, dtype=float)
        self.y_bar = np.asarray(y_bar, dtype=float)
        self.u_bar = np.asarray(u_bar, dtype=float)
        self.residual = float(residual)
        self.scheme = scheme
        self.stiffness = stiffness
        self.iterations = int(iterations)
        self.fill = int(fill)
        self.precision = precision
        self.tracking_load = tracking_load


def assemble_stiffness(mesh, coeff, scheme, lump_reaction=True):
    """Stiffness matrix over all dofs for the requested scheme."""
    if scheme == "eafe":
        return assemble_eafe_stiffness(mesh, coeff, lump_reaction=lump_reaction)
    if scheme == "galerkin":
        return fem_core.assemble_galerkin_stiffness(mesh, coeff)
    raise ValueError("unknown scheme %r (expected one of %s)" % (scheme, SCHEMES))


def _lift_vector(mesh, values):
    """Dirichlet lift: the boundary ``values``, extended by zero inside."""
    lift = np.zeros(mesh.num_vertices)
    lift[mesh.boundary_vertex] = values
    return lift


def _interior_entries(full, keep):
    """
    Mask of the stored entries of the CSR matrix ``full`` in ``keep`` rows
    and columns: the entries of ``full[keep][:, keep]``, in its order,
    since that extraction keeps the stored order of each row.
    """
    return np.repeat(keep, np.diff(full.indptr)) & keep[full.indices]


def _assemble_parts(mesh, spec, schemes, lump_reaction=True):
    """
    Yield, for each scheme of ``schemes`` in turn, the interior
    :class:`BlockSaddleSystem`, the tracking load (None in general mode),
    and the Dirichlet values of p and y on the boundary vertices, in
    vertex order.

    The parts no scheme changes are built once, after the first scheme's
    stiffness, whose coefficient samples raise on bad data first: the
    loads, the boundary values, M's interior block and boundary columns,
    its interior entries and the interior order.  Every matrix of a mesh
    has one canonical pattern, the diagonal and both directions of every
    edge (:func:`fem_core.scatter_edges`), so each stiffness gathers its
    interior block through M's interior entries onto M's index pair,
    explicit zeros included.  A lift is zero inside, and a sparse
    product's row sum, which starts at +0, never changes on adding +0,
    so M times a lift is M's boundary columns times the boundary values,
    bit for bit.  The full mass matrix is dropped before any factor;
    between two schemes only these parts stay alive, and beside the last
    scheme's factor only what its system and solution need.
    """
    bnd = mesh.boundary_vertex
    for i, scheme in enumerate(schemes, 1):
        a_full = assemble_stiffness(mesh, spec.coeff, scheme,
                                    lump_reaction=lump_reaction)
        if i == 1:
            interior = ~bnd
            tracking_load = loads = None
            if spec.mode == "tracking":
                tracking_load = assemble_load(mesh, spec.y_d)
            else:
                loads = assemble_load(mesh, spec.source)
            p_bnd = interpolate_nodal(mesh, spec.dirichlet_p)[bnd]
            y_bnd = interpolate_nodal(mesh, spec.dirichlet_y)[bnd]
            m_full = fem_core.assemble_mass(mesh)
            entries = _interior_entries(m_full, interior)
            m_int, m_bnd = m_full[interior][:, interior], m_full[:, bnd]
            del m_full
            # the mesh order without its boundary vertices, renumbered to
            # interior dofs; the full order ``nd`` is kept until the last
            # scheme is solved: freed before the factor, its 1 MiB leaves
            # a hole in the heap that lifts the level-9 VmHWM by 2 MiB
            nd = nested_dissection_order(mesh)
            order = (np.cumsum(interior, dtype=np.int32) - 1)[
                nd[interior[nd]]]
        # in tracking mode f = -(y_d, phi_i) and g = 0, formed per scheme
        f_full, g_full = loads or (-tracking_load,
                                   np.zeros(mesh.num_vertices))
        p_lift, y_lift = _lift_vector(mesh, p_bnd), _lift_vector(mesh, y_bnd)
        rhs_top = (f_full - a_full.T @ p_lift + m_bnd @ y_bnd)[interior]
        rhs_bottom = (g_full + m_bnd @ p_bnd + a_full @ y_lift)[interior]
        a_int = sp.csr_matrix((a_full.data[entries], m_int.indices,
                               m_int.indptr), shape=m_int.shape)
        del a_full, f_full, g_full, p_lift, y_lift
        if i == len(schemes):
            del loads, entries, m_bnd, interior
        yield (BlockSaddleSystem(a_int, m_int, rhs_top, rhs_bottom,
                                 order=order),
               tracking_load, p_bnd, y_bnd)


def solve_schemes(mesh, spec, schemes, lump_reaction=True):
    """
    Solve the optimality system on one mesh for each scheme of
    ``schemes`` in turn, building the parts no scheme changes once
    (:func:`_assemble_parts`); yields one :class:`SolutionPair` per scheme,
    whose boundary nodes carry the interpolated Dirichlet traces, and
    keeps no reference to it once resumed.
    """
    bnd = mesh.boundary_vertex
    for scheme, (system, tracking_load, p_bnd, y_bnd) in zip(
            schemes, _assemble_parts(mesh, spec, schemes, lump_reaction)):
        p_int, y_int, res = system.solve()
        p, y = _lift_vector(mesh, p_bnd), _lift_vector(mesh, y_bnd)
        p[~bnd], y[~bnd] = p_int, y_int
        yield SolutionPair(p, y, -p, res, scheme, system.A, system.iterations,
                           system.fill, system.precision, tracking_load)
        del p, y, p_int, y_int


def solve(mesh, spec, scheme, lump_reaction=True):
    """The :class:`SolutionPair` of one scheme (:func:`solve_schemes`)."""
    return next(solve_schemes(mesh, spec, (scheme,), lump_reaction))


def write_solution_csv(mesh, sol, path):
    """
    Per-vertex dump: x, y, adjoint, state, control, one
    ``"%r,%r,%r,%r,%r"`` line per vertex.

    Each distinct float64 bit pattern of the five columns is formatted
    once and gathered back into its cells, so the bytes are those of
    ``%r`` on every value; deduplicating bits, not values, keeps ``-0.0``
    apart from ``0.0``.  A pattern and its negation (u = -p) share one
    ``repr`` call, the negative one prefixed with ``-``; the ``repr`` of a
    NaN carries no sign.
    """
    v = mesh.vertices
    columns = np.concatenate((v[:, 0], v[:, 1], sol.p_bar, sol.y_bar,
                              sol.u_bar), dtype=np.float64)
    bits, inverse = np.unique(columns.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    magnitudes, which = np.unique(np.abs(values).view(np.int64),
                                  return_inverse=True)
    text = np.array(list(map(repr, magnitudes.view(np.float64).tolist())),
                    dtype=object)[which]
    negative = np.signbit(values) & ~np.isnan(values)
    text[negative] = "-" + text[negative]
    lines = ["x,y,p_h,y_h,u_h"]
    lines += map(",".join, zip(*text[inverse].reshape(5, -1).tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_solution_vtk(mesh, sol, path, title="optimality system solution"):
    """Legacy binary VTK dump of the nodal adjoint, state, and control."""
    write_vtk(
        mesh,
        path,
        point_data={"p_h": sol.p_bar, "y_h": sol.y_bar, "u_h": sol.u_bar},
        title=title,
    )
