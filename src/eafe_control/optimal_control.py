"""
Assembly and solution of the discrete first-order optimality system.

The constrained problem minimizes the usual tracking functional subject
to a convection-diffusion-reaction state equation; eliminating the
control with the optimality relation p + beta*u = 0 leaves a coupled
saddle-point system in the adjoint p and state y.  Over interior dofs
(strong Dirichlet elimination) it reads

    A^T p - M y = rhs_top        rhs_top    = -(y_d, phi_i)  or  (f, phi_i)
    -M p - beta A y = rhs_bottom rhs_bottom = 0              or  (g, phi_i)

with A the chosen stiffness (edge-averaged or standard Galerkin) and M
the consistent mass matrix.  Nonzero Dirichlet traces are imposed by a
nodal-interpolation lift whose contributions move to the right-hand side.
"""

import numpy as np

from . import fem_core
from .eafe import assemble_eafe_stiffness
from .fem_core import as_scalar_field, assemble_load, interpolate_nodal
from .mesh import nested_dissection_order, text_block, write_vtk
from .sparse_linalg import BlockSaddleSystem

SCHEMES = ("eafe", "galerkin")


class AssemblyError(ValueError):
    """Inconsistent problem data at assembly time."""


class ProblemSpec:
    """
    Problem data: coefficients plus exactly one data mode.

    Either a desired state ``y_d`` (tracking mode) or a general pair
    ``(f, g)`` of right-hand sides; Dirichlet traces for state and adjoint
    default to zero.
    """

    def __init__(self, coeff, y_d=None, f=None, g=None,
                 dirichlet_y=None, dirichlet_p=None):
        self.coeff = coeff
        tracking = y_d is not None
        general = f is not None or g is not None
        if tracking == general:
            raise AssemblyError(
                "exactly one data mode must be set: y_d, or the pair (f, g)"
            )
        if general and (f is None or g is None):
            raise AssemblyError("general mode needs both f and g")
        self.y_d = as_scalar_field(y_d) if tracking else None
        self.f = as_scalar_field(f) if general else None
        self.g = as_scalar_field(g) if general else None
        self.dirichlet_y = as_scalar_field(dirichlet_y if dirichlet_y is not None else 0.0)
        self.dirichlet_p = as_scalar_field(dirichlet_p if dirichlet_p is not None else 0.0)

    @property
    def mode(self):
        return "tracking" if self.y_d is not None else "general"


class SolutionPair:
    """
    Nodal solution of the optimality system.

    ``p_bar`` (adjoint), ``y_bar`` (state) and the recovered control
    ``u_bar = -p_bar / beta`` over all vertices; boundary nodes carry the
    interpolated Dirichlet data.  ``residual`` is the certified relative
    residual of the interior linear solve, ``iterations`` its GMRES
    iteration count, ``fill`` the entries SuperLU stores for the sparse
    LU factor it used (``SuperLU.nnz``), ``stiffness`` the interior stiffness block A of the
    solved system, ``mass`` the mass matrix over all vertices (CSR) and
    ``tracking_load`` the load vector (y_d, phi_i) over all vertices in
    tracking mode (None in general mode).
    """

    def __init__(self, p_bar, y_bar, u_bar, residual, scheme, stiffness,
                 mass, iterations, fill, tracking_load=None):
        self.p_bar = np.asarray(p_bar, dtype=float)
        self.y_bar = np.asarray(y_bar, dtype=float)
        self.u_bar = np.asarray(u_bar, dtype=float)
        self.residual = float(residual)
        self.scheme = scheme
        self.stiffness = stiffness
        self.mass = mass
        self.iterations = int(iterations)
        self.fill = int(fill)
        self.tracking_load = tracking_load


def recover_control(p_bar, beta):
    """Optimality relation: u = -p / beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return -np.asarray(p_bar, dtype=float) / float(beta)


def assemble_stiffness(mesh, coeff, scheme, lump_reaction=True):
    """Stiffness matrix over all dofs for the requested scheme."""
    if scheme == "eafe":
        return assemble_eafe_stiffness(mesh, coeff, lump_reaction=lump_reaction)
    if scheme == "galerkin":
        return fem_core.assemble_galerkin_stiffness(mesh, coeff)
    raise ValueError("unknown scheme %r (expected one of %s)" % (scheme, SCHEMES))


def _lift_vector(mesh, field):
    """Nodal interpolation of boundary data, extended by zero inside."""
    lift = np.zeros(mesh.num_vertices)
    bnd = mesh.boundary_vertex
    vals = interpolate_nodal(mesh, field)
    lift[bnd] = vals[bnd]
    return lift


def _assemble_parts(mesh, spec, scheme, lump_reaction=True):
    a_full = assemble_stiffness(mesh, spec.coeff, scheme,
                                lump_reaction=lump_reaction)
    m_full = fem_core.assemble_mass(mesh)

    tracking_load = None
    if spec.mode == "tracking":
        tracking_load = assemble_load(mesh, spec.y_d)
        f_full = -tracking_load
        g_full = np.zeros(mesh.num_vertices)
    else:
        f_full = assemble_load(mesh, spec.f)
        g_full = assemble_load(mesh, spec.g)

    p_lift = _lift_vector(mesh, spec.dirichlet_p)
    y_lift = _lift_vector(mesh, spec.dirichlet_y)

    interior = mesh.interior_vertices
    beta = spec.coeff.beta
    rhs_top = (f_full - a_full.T @ p_lift + m_full @ y_lift)[interior]
    rhs_bottom = (g_full + m_full @ p_lift + beta * (a_full @ y_lift))[interior]

    a_int = a_full[interior][:, interior]
    m_int = m_full[interior][:, interior]
    # the mesh order without its boundary vertices, renumbered to interior dofs
    order = nested_dissection_order(mesh)
    dof = np.cumsum(~mesh.boundary_vertex) - 1
    system = BlockSaddleSystem(a_int, m_int, rhs_top, rhs_bottom, beta=beta,
                               order=dof[order[~mesh.boundary_vertex[order]]])
    return system, m_full, tracking_load, p_lift, y_lift, interior


def assemble_system(mesh, spec, scheme, lump_reaction=True):
    """Interior-dof saddle system with Dirichlet lifts on the right-hand side."""
    system = _assemble_parts(mesh, spec, scheme, lump_reaction)[0]
    return system


def solve(mesh, spec, scheme, lump_reaction=True):
    """
    Solve the optimality system; returns a :class:`SolutionPair` whose
    boundary nodes carry the interpolated Dirichlet traces.
    """
    system, m_full, tracking_load, p_lift, y_lift, interior = _assemble_parts(
        mesh, spec, scheme, lump_reaction
    )
    p_int, y_int, res = system.solve()
    p = p_lift.copy()
    y = y_lift.copy()
    p[interior] = p_int
    y[interior] = y_int
    u = recover_control(p, spec.coeff.beta)
    return SolutionPair(p, y, u, res, scheme, system.A, m_full,
                        system.iterations, system.fill, tracking_load)


def write_solution_csv(mesh, sol, path):
    """Per-vertex dump: x, y, adjoint, state, control."""
    v = mesh.vertices
    with open(path, "w") as fh:
        fh.write("x,y,p_h,y_h,u_h\n")
        fh.write(text_block("%r,%r,%r,%r,%r\n", v[:, 0], v[:, 1],
                            sol.p_bar, sol.y_bar, sol.u_bar))


def write_solution_vtk(mesh, sol, path, title="optimality system solution"):
    """Legacy binary VTK dump of the nodal adjoint, state, and control."""
    write_vtk(
        mesh,
        path,
        point_data={"p_h": sol.p_bar, "y_h": sol.y_bar, "u_h": sol.u_bar},
        title=title,
    )
