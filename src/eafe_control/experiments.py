"""
Desk-scale benchmark experiments: a stability run checking the
desired-state bounds under dominant convection, and manufactured
convergence studies with boundary and interior layers.

Every fact about an example is one entry of ``EXAMPLES``.  One driver,
:func:`run`, owns the level loop of every example: one mesh per level,
the solves of every requested scheme on it, then the bound checks or the
error norms, and the outputs.

The manufactured right-hand sides are composed in one place,
:func:`manufactured_case`, by applying the strong operators to the
prescribed exact pair (y, p): with constant convection zeta and constant
diffusion eps, the pair-valued ``source`` is

    f = -eps*lap(p) + zeta . grad(p) + gamma*p - y
    g = -p + eps*lap(y) + zeta . grad(y) - gamma*y.

Exponential layer terms are evaluated in underflow-safe form: exp(-1/eps)
underflows to exactly zero for tiny eps, and exp((z-1)/eps) vanishes for
z away from 1, so no cancellation is possible.
"""

import json
import os
import resource
import time

import numpy as np

from . import optimal_control, verify_norms
from .fem_core import CoefficientField
from .mesh import (DIAGONAL_CONVENTION, build_unit_square,
                   unit_square_vertex_count)
from .optimal_control import ProblemSpec, write_solution_csv, write_solution_vtk
from .sparse_linalg import ResourceLimitError
from .verify_norms import (ConvergenceTable, ManufacturedCase,
                           certify_m_matrix, solution_errors)


class ExperimentConfig:
    """Resolved settings of one experiment run; ``vars(config)`` is its echo."""

    def __init__(self, example, eps=None, levels=None, scheme=None,
                 out_dir=None, region=None, lump_reaction=True, yd_const=1.0,
                 metric="interpolant"):
        if example not in EXAMPLES:
            raise ValueError("unknown example %r (expected one of %s)"
                             % (example, tuple(EXAMPLES)))
        defaults = EXAMPLES[example]
        self.example = example
        self.eps = float(defaults["eps"] if eps is None else eps)
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        levels = list(defaults["levels"] if levels is None else levels)
        for level in levels:
            # MeshCapacityError, a ValueError, before any level runs
            unit_square_vertex_count(level)
        self.levels = [int(k) for k in levels]
        if not self.levels or sorted(set(self.levels)) != self.levels:
            raise ValueError("levels must be a nonempty strictly ascending "
                             "sequence")
        self.scheme = defaults["scheme"] if scheme is None else scheme
        if self.scheme not in ("eafe", "galerkin", "both"):
            raise ValueError("scheme must be eafe, galerkin, or both")
        self.out_dir = None if out_dir is None else str(out_dir)
        if self.out_dir == "":
            raise ValueError("out_dir must not be empty")
        self.region = tuple(region) if region is not None else None
        if self.region is not None:
            x0, x1, y0, y1 = self.region
            if not (np.isfinite(self.region).all() and x0 < x1 and y0 < y1):
                raise ValueError("region needs finite x0 < x1 and y0 < y1")
        self.lump_reaction = bool(lump_reaction)
        self.yd_const = float(yd_const)
        if not np.isfinite(self.yd_const):
            raise ValueError("yd_const must be finite")
        if metric not in verify_norms.METRICS:
            raise ValueError("metric must be one of %s" % (verify_norms.METRICS,))
        self.metric = metric
        self.mesh_diagonal = DIAGONAL_CONVENTION

    @property
    def schemes(self):
        return ("eafe", "galerkin") if self.scheme == "both" else (self.scheme,)


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# exact solutions and forcing terms of the manufactured cases


def manufactured_case(name, eps, zeta, gamma, y, p, lift=False):
    """
    The manufactured case of the exact pair ``(y, p)`` under constant
    ``eps``, ``zeta`` and ``gamma``, whose forcing is the one ``source``
    of the module docstring.

    ``y`` and ``p`` map ``(x1, x2)`` to the value, the gradient pair and
    the Laplacian of their exact field, so that one call gives every term
    of one right-hand side.  With ``lift`` the exact traces are imposed as
    Dirichlet data; otherwise they must vanish.
    """
    def source(x1, x2):
        yv, (ygx, ygy), ylap = y(x1, x2)
        pv, (pgx, pgy), plap = p(x1, x2)
        return (-eps * plap + zeta[0] * pgx + zeta[1] * pgy + gamma * pv - yv,
                -pv + eps * ylap + zeta[0] * ygx + zeta[1] * ygy - gamma * yv)

    def exact_y(x1, x2):
        return y(x1, x2)[0]

    def exact_p(x1, x2):
        return p(x1, x2)[0]

    coeff = CoefficientField(eps=eps, zeta=zeta, gamma=gamma)
    traces = {"dirichlet_y": exact_y, "dirichlet_p": exact_p} if lift else {}
    problem = ProblemSpec(coeff, source=source, **traces)
    return ManufacturedCase(name, problem, exact_y,
                            lambda x1, x2: y(x1, x2)[1], exact_p,
                            lambda x1, x2: p(x1, x2)[1])


def _layer_terms(z, eps):
    """
    eta, eta' and eta'' of the outflow layer profile, eta(z) = z^3 minus
    the boundary-layer correction of width eps, from one evaluation of
    the layer exponential exp((z - 1)/eps).
    """
    z = np.asarray(z, dtype=float)
    e0 = np.exp(-1.0 / eps)
    layer = np.exp((z - 1.0) / eps)
    z2 = z * z
    return (z2 * z - (layer - e0) / (1.0 - e0),
            3.0 * z2 - layer / (eps * (1.0 - e0)),
            6.0 * z - layer / (eps * eps * (1.0 - e0)))


def stability_problem(eps, yd_const=1.0):
    """Tracking problem with constant desired state under strong convection."""
    coeff = CoefficientField(eps=eps, zeta=(-1.0, 0.0), gamma=0.0)
    return ProblemSpec(coeff, y_d=yd_const)


def boundary_layer_case(eps):
    """Manufactured pair with outflow layers: state near x=1/y=1, adjoint mirrored."""
    s2 = np.sqrt(2.0) / 2.0

    def y(x1, x2):
        (e1, d1, dd1), (e2, d2, dd2) = (_layer_terms(x1, eps),
                                        _layer_terms(x2, eps))
        return e1 * e2, (d1 * e2, e1 * d2), dd1 * e2 + e1 * dd2

    def p(x1, x2):
        (m1, d1, dd1), (m2, d2, dd2) = (_layer_terms(1.0 - x1, eps),
                                        _layer_terms(1.0 - x2, eps))
        return m1 * m2, (-d1 * m2, -m1 * d2), dd1 * m2 + m1 * dd2

    # the exact traces vanish
    return manufactured_case("boundary-layer", eps, (-s2, -s2), 1.0, y, p)


def interior_layer_case(eps):
    """Manufactured pair with an interior layer of the state along x2 = 0.5."""

    def y(x1, x2):
        s = x2 - 0.5
        arct = np.arctan(s / eps)
        cubic = (1.0 - x1) ** 3
        return (cubic * arct,
                (-3.0 * (1.0 - x1) ** 2 * arct,
                 cubic * (eps / (eps * eps + s * s))),
                6.0 * (1.0 - x1) * arct
                + cubic * (-2.0 * eps * s / (eps * eps + s * s) ** 2))

    def p(x1, x2):
        return (x1 * (1.0 - x1) * x2 * (1.0 - x2),
                ((1.0 - 2.0 * x1) * x2 * (1.0 - x2),
                 x1 * (1.0 - x1) * (1.0 - 2.0 * x2)),
                -2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1))

    # the exact state has nonzero traces; lift both fields from their traces
    return manufactured_case("interior-layer", eps, (-1.0, 0.0), 1.0, y, p,
                             lift=True)


def coefficient_sets():
    """The three benchmark coefficient sets, for monotonicity certification."""
    return {
        "stability": stability_problem(1e-9).coeff,
        "boundary-layer": boundary_layer_case(1e-9).problem.coeff,
        "interior-layer": interior_layer_case(1e-9).problem.coeff,
    }


#: per-example defaults; the layer studies add their manufactured case and
#: the sub-box of their local-error table
EXAMPLES = {
    "stability": {"eps": 1e-9, "levels": (3, 4, 5, 6), "scheme": "both"},
    "boundary-layer": {"eps": 1e-2, "levels": tuple(range(1, 9)),
                       "scheme": "eafe", "case": boundary_layer_case,
                       "region": (0.4, 0.6, 0.4, 0.6)},
    "interior-layer": {"eps": 1e-2, "levels": tuple(range(1, 9)),
                       "scheme": "eafe", "case": interior_layer_case,
                       "region": (0.65, 1.0, 0.0, 1.0)},
}


# ----------------------------------------------------------------------
# the experiment driver


def _stability_entry(config, problem, mesh, level, sol, t0):
    """
    The desired-state bounds and the M-matrix certificate of one stability
    solve, its dumps and its ``run.log`` line, timed from ``t0``.  A bound
    violation by the unstabilized comparator is expected output; one while
    the stiffness certifies as an M-matrix is an error.
    """
    bounds = verify_norms.check_desired_state_bounds(mesh, sol, problem.y_d)
    mreport = certify_m_matrix(sol.stiffness)
    if mreport.ok and not bounds.ok:
        raise RuntimeError(
            "bound check failed although the stiffness certified as an "
            "M-matrix (scheme=%s, level=%d)" % (sol.scheme, level)
        )
    margin = "none" if mreport.margin is None else "%.3e" % mreport.margin
    line = ("stability scheme=%s level=%d ok=%s worst=%.3e m_matrix=%s "
            "m_margin=%s m_vector=%s iterations=%d factor=%s fill=%d "
            "residual=%.3e peak_rss_mb=%.1f elapsed=%.2fs"
            % (sol.scheme, level, bounds.ok, bounds.worst_violation,
               mreport.ok, margin, mreport.vector or "none", sol.iterations,
               sol.precision or "none", sol.fill, sol.residual,
               _peak_rss_mb(), time.perf_counter() - t0))
    if config.out_dir is not None:
        stem = "%s_%s_k%d" % (config.example, sol.scheme, level)
        path = os.path.join(config.out_dir, stem)
        bounds.dump(path + "_bounds.json")
        write_solution_csv(mesh, sol, path + ".csv")
        write_solution_vtk(mesh, sol, path + ".vtk", title=stem)
    return {"bounds": bounds, "m_matrix": mreport}, line


def _errors_entry(config, case, boxes, mesh, level, sol):
    """The errors of one layer solve on all boxes, its VTK dump and log line."""
    if config.out_dir is not None:
        stem = "%s_%s_k%d" % (config.example, sol.scheme, level)
        write_solution_vtk(mesh, sol, os.path.join(config.out_dir,
                                                   stem + ".vtk"), title=stem)
    errors = dict(zip(boxes, solution_errors(mesh, case, sol,
                                             tuple(boxes.values()),
                                             config.metric)))
    line = ("%s scheme=%s level=%d ey_l2=%s ey_h1=%s ep_l2=%s ep_h1=%s "
            "peak_rss_mb=%.1f iterations=%d factor=%s fill=%d residual=%.3e"
            % ((config.example, sol.scheme, level) + errors["global"]
               + (_peak_rss_mb(), sol.iterations, sol.precision or "none",
                  sol.fill, sol.residual)))
    return errors, line


def _tables(config, boxes, scheme, per_level):
    """The convergence tables of one scheme per box, written out."""
    tables = {
        name: ConvergenceTable(config.levels, dict(zip(
            ConvergenceTable.COLUMNS,
            zip(*(per_level[level][name] for level in config.levels)))),
            region=box)
        for name, box in boxes.items()
    }
    if config.out_dir is not None:
        for name, table in tables.items():
            table.to_csv(os.path.join(config.out_dir, "%s_%s_%s.csv"
                                      % (config.example, scheme, name)))
    return tables


def run(config):
    """
    Run the configured example: levels outer, schemes inner.  Each level
    builds one mesh, which every requested scheme solves on, sharing the
    assembly no scheme changes (:func:`optimal_control.solve_schemes`);
    each solution is freed before the next scheme factors, and the mesh
    before the next level builds its own.

    The stability example checks the desired-state bounds and certifies
    the interior stiffness of every solve, and returns
    {scheme: {level: {"bounds", "m_matrix"}}}.  A layer example measures
    the errors of every solve on the whole square and on its local box,
    and returns {scheme: {"global": ConvergenceTable, "local":
    ConvergenceTable}}, written out once the scheme's last level is solved.

    ``run.log`` lists the lines scheme by scheme, a layer scheme's led by
    a summary line with the time of all its levels; the first scheme's
    time at a level includes the mesh build and the shared assembly.  If
    a solve raises, ``run.log`` keeps the line of every solve that
    finished and the exception propagates; a scheme whose last level did
    not finish gets no summary line and no tables.  A ``MemoryError``
    outside the solver becomes a ``ResourceLimitError`` naming the level
    and its vertex count; the solver's own propagates as it is.
    """
    if config.example == "stability":
        problem = stability_problem(config.eps, yd_const=config.yd_const)
        case = None
    else:
        example = EXAMPLES[config.example]
        case = example["case"](config.eps)
        problem = case.problem
        boxes = {"global": None, "local": example["region"]
                 if config.region is None else config.region}
    if config.out_dir is not None:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, "config.json"), "w") as fh:
            json.dump(vars(config), fh, indent=2, sort_keys=True)
            fh.write("\n")
    results = {scheme: {} for scheme in config.schemes}
    lines = {scheme: [] for scheme in config.schemes}
    elapsed = dict.fromkeys(config.schemes, 0.0)
    try:
        for level in config.levels:
            t0 = time.perf_counter()
            mesh = build_unit_square(level)
            for sol in optimal_control.solve_schemes(
                    mesh, problem, config.schemes,
                    lump_reaction=config.lump_reaction):
                scheme = sol.scheme
                if case is None:
                    entry, line = _stability_entry(config, problem, mesh,
                                                   level, sol, t0)
                else:
                    entry, line = _errors_entry(config, case, boxes, mesh,
                                                level, sol)
                # freed here, before the next scheme factors
                del sol
                results[scheme][level] = entry
                lines[scheme].append(line)
                elapsed[scheme] += time.perf_counter() - t0
                if case is not None and level == config.levels[-1]:
                    results[scheme] = _tables(config, boxes, scheme,
                                              results[scheme])
                    lines[scheme].insert(0, (
                        "%s scheme=%s levels=%s metric=%s elapsed=%.2fs"
                        % (config.example, scheme, config.levels,
                           config.metric, elapsed[scheme])))
                t0 = time.perf_counter()
            # free level k before level k + 1 builds its mesh, so that it
            # is not alive beside the next level's factor
            del mesh
    except MemoryError as exc:
        if isinstance(exc, ResourceLimitError):  # the solver named its stage
            raise
        raise ResourceLimitError(
            "out of memory at level %d (%d vertices)%s"
            % (level, unit_square_vertex_count(level),
               str(exc) and ": %s" % exc)) from exc
    finally:
        if config.out_dir is not None:
            with open(os.path.join(config.out_dir, "run.log"), "w") as fh:
                fh.write("\n".join(line for scheme in config.schemes
                                   for line in lines[scheme]) + "\n")
    return results
