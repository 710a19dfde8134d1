"""
Monotone edge-averaged finite elements for convection-dominated elliptic
optimal control on the unit square.

The package assembles the exponentially fitted edge-averaged (EAFE)
discretization of the convection-diffusion-reaction operator, solves the
coupled adjoint/state optimality system, certifies the M-matrix structure
and the resulting desired-state bounds, and runs manufactured convergence
studies at desk scale.
"""

from .eafe import assemble_eafe_stiffness, bernoulli, edge_flux_coefficients
from .fem_core import (
    CoefficientField,
    assemble_galerkin_stiffness,
    assemble_load,
    assemble_mass,
    interpolate_nodal,
)
from .mesh import TriMesh, build_unit_square, delaunay_check
from .optimal_control import ProblemSpec, SolutionPair, solve
from .sparse_linalg import BlockSaddleSystem
from .verify_norms import (
    ConvergenceTable,
    certify_m_matrix,
    check_desired_state_bounds,
    error_norms,
    interpolant_error_norms,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSaddleSystem",
    "CoefficientField",
    "ConvergenceTable",
    "ProblemSpec",
    "SolutionPair",
    "TriMesh",
    "assemble_eafe_stiffness",
    "assemble_galerkin_stiffness",
    "assemble_load",
    "assemble_mass",
    "bernoulli",
    "build_unit_square",
    "certify_m_matrix",
    "check_desired_state_bounds",
    "delaunay_check",
    "edge_flux_coefficients",
    "error_norms",
    "interpolate_nodal",
    "interpolant_error_norms",
    "solve",
]
