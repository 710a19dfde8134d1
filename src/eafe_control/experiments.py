"""
Desk-scale benchmark experiments: a stability run checking the
desired-state bounds under dominant convection, and manufactured
convergence studies with boundary and interior layers.

The manufactured right-hand sides are hard-coded closed forms obtained by
applying the strong operators to the prescribed exact pair (y, p): with
constant convection zeta and constant diffusion eps,

    f = -eps*lap(p) + zeta . grad(p) + gamma*p - y
    g = -p + eps*lap(y) + zeta . grad(y) - gamma*y.

Exponential layer terms are evaluated in underflow-safe form: exp(-1/eps)
underflows to exactly zero for tiny eps, and exp((z-1)/eps) vanishes for
z away from 1, so no cancellation is possible.
"""

import json
import os
import time

import numpy as np

from . import optimal_control, verify_norms
from .fem_core import CoefficientField
from .mesh import DIAGONAL_CONVENTION, build_unit_square
from .optimal_control import ProblemSpec, write_solution_csv, write_solution_vtk
from .verify_norms import ManufacturedCase, certify_m_matrix, convergence_tables

EXAMPLES = ("stability", "boundary-layer", "interior-layer", "custom")

BOUNDARY_LAYER_REGION = (0.4, 0.6, 0.4, 0.6)
INTERIOR_LAYER_REGION = (0.65, 1.0, 0.0, 1.0)

DEFAULTS = {
    "stability": {"eps": 1e-9, "levels": (3, 4, 5, 6), "scheme": "both"},
    "custom": {"eps": 1e-9, "levels": (3, 4, 5, 6), "scheme": "both"},
    "boundary-layer": {"eps": 1e-2, "levels": tuple(range(1, 9)), "scheme": "eafe"},
    "interior-layer": {"eps": 1e-2, "levels": tuple(range(1, 9)), "scheme": "eafe"},
}


class ExperimentConfig:
    """Resolved settings of one experiment run."""

    def __init__(self, example, eps=None, levels=None, scheme=None,
                 out_dir=None, region=None, lump_reaction=True, yd_const=1.0,
                 seed=None, metric="interpolant"):
        if example not in EXAMPLES:
            raise ValueError("unknown example %r (expected one of %s)"
                             % (example, EXAMPLES))
        defaults = DEFAULTS[example]
        self.example = example
        self.eps = float(defaults["eps"] if eps is None else eps)
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        self.levels = [int(k) for k in (defaults["levels"] if levels is None
                                        else levels)]
        if not self.levels or self.levels != sorted(self.levels):
            raise ValueError("levels must be a nonempty ascending sequence")
        self.scheme = defaults["scheme"] if scheme is None else scheme
        if self.scheme not in ("eafe", "galerkin", "both"):
            raise ValueError("scheme must be eafe, galerkin, or both")
        self.out_dir = out_dir
        self.region = tuple(region) if region is not None else None
        self.lump_reaction = bool(lump_reaction)
        self.yd_const = float(yd_const)
        self.seed = seed  # accepted and echoed; reserved for future use
        if metric not in verify_norms.METRICS:
            raise ValueError("metric must be one of %s" % (verify_norms.METRICS,))
        self.metric = metric
        self.mesh_diagonal = DIAGONAL_CONVENTION

    @property
    def schemes(self):
        return ("eafe", "galerkin") if self.scheme == "both" else (self.scheme,)

    def as_dict(self):
        return {
            "example": self.example,
            "eps": self.eps,
            "levels": self.levels,
            "scheme": self.scheme,
            "out_dir": None if self.out_dir is None else str(self.out_dir),
            "region": self.region,
            "lump_reaction": self.lump_reaction,
            "yd_const": self.yd_const,
            "seed": self.seed,
            "metric": self.metric,
            "mesh_diagonal": self.mesh_diagonal,
        }


class _Writer:
    """Output-directory helper; inert when no directory is configured."""

    def __init__(self, config):
        self.dir = config.out_dir
        self.log_lines = []
        if self.dir is not None:
            os.makedirs(self.dir, exist_ok=True)
            with open(os.path.join(self.dir, "config.json"), "w") as fh:
                json.dump(config.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")

    def path(self, name):
        return None if self.dir is None else os.path.join(self.dir, name)

    def log(self, line):
        self.log_lines.append(line)

    def finish(self):
        if self.dir is not None:
            with open(os.path.join(self.dir, "run.log"), "w") as fh:
                fh.write("\n".join(self.log_lines) + "\n")


# ----------------------------------------------------------------------
# exact solutions and forcing terms of the manufactured cases


def layer_profile(z, eps):
    """z^3 minus the outflow boundary-layer correction of width eps."""
    z = np.asarray(z, dtype=float)
    e0 = np.exp(-1.0 / eps)
    return z**3 - (np.exp((z - 1.0) / eps) - e0) / (1.0 - e0)


def layer_profile_d1(z, eps):
    z = np.asarray(z, dtype=float)
    e0 = np.exp(-1.0 / eps)
    return 3.0 * z**2 - np.exp((z - 1.0) / eps) / (eps * (1.0 - e0))


def layer_profile_d2(z, eps):
    z = np.asarray(z, dtype=float)
    e0 = np.exp(-1.0 / eps)
    return 6.0 * z - np.exp((z - 1.0) / eps) / (eps * eps * (1.0 - e0))


def stability_problem(eps, yd_const=1.0, beta=1.0):
    """Tracking problem with constant desired state under strong convection."""
    coeff = CoefficientField(eps=eps, zeta=(-1.0, 0.0), gamma=0.0, beta=beta,
                             div_zeta=0.0)
    return ProblemSpec(coeff, y_d=yd_const)


def boundary_layer_case(eps):
    """Manufactured pair with outflow layers: state near x=1/y=1, adjoint mirrored."""
    s2 = np.sqrt(2.0) / 2.0
    zeta = (-s2, -s2)
    gamma = 1.0

    eta = lambda z: layer_profile(z, eps)
    d1 = lambda z: layer_profile_d1(z, eps)
    d2 = lambda z: layer_profile_d2(z, eps)

    def y(x1, x2):
        return eta(x1) * eta(x2)

    def grad_y(x1, x2):
        return d1(x1) * eta(x2), eta(x1) * d1(x2)

    def p(x1, x2):
        return eta(1.0 - x1) * eta(1.0 - x2)

    def grad_p(x1, x2):
        return (-d1(1.0 - x1) * eta(1.0 - x2), -eta(1.0 - x1) * d1(1.0 - x2))

    # f and g evaluate eta once at each of x1, x2, 1 - x1 and 1 - x2 and
    # apply the expressions of p, y and their derivatives to those values
    def f(x1, x2):
        e1, e2 = eta(x1), eta(x2)
        m1, m2 = eta(1.0 - x1), eta(1.0 - x2)
        gx, gy = -d1(1.0 - x1) * m2, -m1 * d1(1.0 - x2)
        lap = d2(1.0 - x1) * m2 + m1 * d2(1.0 - x2)
        return (-eps * lap + zeta[0] * gx + zeta[1] * gy
                + gamma * (m1 * m2) - e1 * e2)

    def g(x1, x2):
        e1, e2 = eta(x1), eta(x2)
        m1, m2 = eta(1.0 - x1), eta(1.0 - x2)
        gx, gy = d1(x1) * e2, e1 * d1(x2)
        lap = d2(x1) * e2 + e1 * d2(x2)
        return (-(m1 * m2) + eps * lap + zeta[0] * gx + zeta[1] * gy
                - gamma * (e1 * e2))

    coeff = CoefficientField(eps=eps, zeta=zeta, gamma=gamma,
                             gamma_assumption=gamma, div_zeta=0.0)
    problem = ProblemSpec(coeff, f=f, g=g)  # exact traces vanish
    return ManufacturedCase("boundary-layer", problem, y, grad_y, p, grad_p)


def interior_layer_case(eps):
    """Manufactured pair with an interior layer of the state along x2 = 0.5."""
    zeta = (-1.0, 0.0)
    gamma = 1.0

    def arct(x2):
        return np.arctan((x2 - 0.5) / eps)

    def arct_d1(x2):
        s = x2 - 0.5
        return eps / (eps * eps + s * s)

    def arct_d2(x2):
        s = x2 - 0.5
        return -2.0 * eps * s / (eps * eps + s * s) ** 2

    def cubic(x1):
        return (1.0 - x1) ** 3

    def y(x1, x2):
        return cubic(x1) * arct(x2)

    def grad_y(x1, x2):
        return (-3.0 * (1.0 - x1) ** 2 * arct(x2), cubic(x1) * arct_d1(x2))

    def lap_y(x1, x2):
        return 6.0 * (1.0 - x1) * arct(x2) + cubic(x1) * arct_d2(x2)

    def p(x1, x2):
        return x1 * (1.0 - x1) * x2 * (1.0 - x2)

    def grad_p(x1, x2):
        return ((1.0 - 2.0 * x1) * x2 * (1.0 - x2),
                x1 * (1.0 - x1) * (1.0 - 2.0 * x2))

    def lap_p(x1, x2):
        return -2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1)

    def f(x1, x2):
        gx, _ = grad_p(x1, x2)
        return -eps * lap_p(x1, x2) - gx + gamma * p(x1, x2) - y(x1, x2)

    def g(x1, x2):
        gx, _ = grad_y(x1, x2)
        return -p(x1, x2) + eps * lap_y(x1, x2) - gx - gamma * y(x1, x2)

    coeff = CoefficientField(eps=eps, zeta=zeta, gamma=gamma,
                             gamma_assumption=gamma, div_zeta=0.0)
    # the exact state has nonzero traces; lift both fields from their traces
    problem = ProblemSpec(coeff, f=f, g=g, dirichlet_y=y, dirichlet_p=p)
    return ManufacturedCase("interior-layer", problem, y, grad_y, p, grad_p)


def smooth_case():
    """Layer-free manufactured pair (diffusion-dominated sanity case)."""
    eps = 1.0
    zeta = (1.0, 1.0)
    gamma = 1.0

    def w(x1, x2):
        return x1 * (1.0 - x1) * x2 * (1.0 - x2)

    def grad_w(x1, x2):
        return ((1.0 - 2.0 * x1) * x2 * (1.0 - x2),
                x1 * (1.0 - x1) * (1.0 - 2.0 * x2))

    def lap_w(x1, x2):
        return -2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1)

    def f(x1, x2):
        gx, gy = grad_w(x1, x2)
        return -eps * lap_w(x1, x2) + gx + gy + gamma * w(x1, x2) - w(x1, x2)

    def g(x1, x2):
        gx, gy = grad_w(x1, x2)
        return -w(x1, x2) + eps * lap_w(x1, x2) + gx + gy - gamma * w(x1, x2)

    coeff = CoefficientField(eps=eps, zeta=zeta, gamma=gamma,
                             gamma_assumption=gamma, div_zeta=0.0)
    problem = ProblemSpec(coeff, f=f, g=g)
    return ManufacturedCase("smooth", problem, w, grad_w, w, grad_w)


def coefficient_sets():
    """The three benchmark coefficient sets, for monotonicity certification."""
    return {
        "stability": CoefficientField(eps=1e-9, zeta=(-1.0, 0.0), gamma=0.0,
                                      div_zeta=0.0),
        "boundary-layer": boundary_layer_case(1e-9).problem.coeff,
        "interior-layer": interior_layer_case(1e-9).problem.coeff,
    }


# ----------------------------------------------------------------------
# experiment drivers


def run_stability(config):
    """
    Solve the constant-desired-state tracking problem across levels and
    check the desired-state bounds for every requested scheme.

    Returns {scheme: {level: {"solution", "bounds", "m_matrix"}}}.  A
    bound violation by the unstabilized comparator is expected output; a
    violation while the stiffness certifies as an M-matrix is an error.
    """
    if config.example not in ("stability", "custom"):
        raise ValueError("run_stability requires a stability/custom config")
    writer = _Writer(config)
    sign = "nonneg" if config.yd_const >= 0.0 else "nonpos"
    problem = stability_problem(config.eps, yd_const=config.yd_const)
    results = {s: {} for s in config.schemes}
    for scheme in config.schemes:
        for level in config.levels:
            t0 = time.perf_counter()
            mesh = build_unit_square(level)
            sol = optimal_control.solve(
                mesh, problem, scheme, lump_reaction=config.lump_reaction
            )
            bounds = verify_norms.check_desired_state_bounds(
                mesh, sol, problem.y_d, sign
            )
            mreport = certify_m_matrix(sol.stiffness)
            if mreport.ok and not bounds.ok:
                raise RuntimeError(
                    "bound check failed although the stiffness certified as "
                    "an M-matrix (scheme=%s, level=%d)" % (scheme, level)
                )
            results[scheme][level] = {
                "solution": sol,
                "bounds": bounds,
                "m_matrix": mreport,
            }
            inverse = mreport.inverse_report
            margin = "none" if inverse is None else "%.3e" % inverse.margin
            writer.log(
                "stability scheme=%s level=%d ok=%s worst=%.3e m_matrix=%s "
                "m_margin=%s iterations=%d fill=%d elapsed=%.2fs"
                % (scheme, level, bounds.ok, bounds.worst_violation,
                   mreport.ok, margin, sol.iterations, sol.fill,
                   time.perf_counter() - t0)
            )
            if writer.dir is not None:
                stem = "%s_%s_k%d" % (config.example, scheme, level)
                bounds.dump(writer.path(stem + "_bounds.json"))
                write_solution_csv(mesh, sol, writer.path(stem + ".csv"))
                write_solution_vtk(mesh, sol, writer.path(stem + ".vtk"),
                                   title=stem)
    writer.finish()
    return results


def _run_convergence(config, case, default_region):
    writer = _Writer(config)
    region = config.region if config.region is not None else default_region
    results = {}
    for scheme in config.schemes:
        solves = {}

        def hook(level, mesh, sol, _scheme=scheme, _solves=solves):
            _solves[level] = (sol.iterations, sol.fill)
            if writer.dir is not None:
                stem = "%s_%s_k%d" % (config.example, _scheme, level)
                write_solution_vtk(mesh, sol, writer.path(stem + ".vtk"),
                                   title=stem)

        t0 = time.perf_counter()
        tables = convergence_tables(
            case, scheme, config.levels, [None, region],
            lump_reaction=config.lump_reaction, solution_hook=hook,
            metric=config.metric,
        )
        glob, loc = tables
        writer.log(
            "%s scheme=%s levels=%s metric=%s elapsed=%.2fs"
            % (config.example, scheme, config.levels, config.metric,
               time.perf_counter() - t0)
        )
        for k in config.levels:
            row = glob.row(k)
            iterations, fill = solves[k]
            writer.log(
                "%s scheme=%s level=%d ey_l2=%s ey_h1=%s ep_l2=%s ep_h1=%s "
                "iterations=%d fill=%d"
                % (config.example, scheme, k, row["ey_l2"][0],
                   row["ey_h1"][0], row["ep_l2"][0], row["ep_h1"][0],
                   iterations, fill)
            )
        if writer.dir is not None:
            glob.to_csv(writer.path("%s_%s_global.csv" % (config.example, scheme)))
            loc.to_csv(writer.path("%s_%s_local.csv" % (config.example, scheme)))
        results[scheme] = {"global": glob, "local": loc}
    writer.finish()
    return results


def run_boundary_layer(config):
    """Boundary-layer convergence tables (global, and local on [0.4,0.6]^2)."""
    if config.example != "boundary-layer":
        raise ValueError("run_boundary_layer requires a boundary-layer config")
    case = boundary_layer_case(config.eps)
    return _run_convergence(config, case, BOUNDARY_LAYER_REGION)


def run_interior_layer(config):
    """Interior-layer convergence tables (global, and local on [0.65,1]x[0,1])."""
    if config.example != "interior-layer":
        raise ValueError("run_interior_layer requires an interior-layer config")
    case = interior_layer_case(config.eps)
    return _run_convergence(config, case, INTERIOR_LAYER_REGION)


def run(config):
    """Dispatch on the configured example id."""
    if config.example in ("stability", "custom"):
        return run_stability(config)
    if config.example == "boundary-layer":
        return run_boundary_layer(config)
    return run_interior_layer(config)
