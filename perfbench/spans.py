"""
Span tracer for the traced benchmark run, and the per-module metrics
derived from its spans.

The tracer wraps public functions of ``eafe_control`` from outside the
package.  A name bound in several module namespaces (``from .x import
y``) is replaced in every one of them; methods are replaced on their
class.  ``convergence_tables`` captures ``build_unit_square`` as a default
argument, which no patch reaches, so mesh construction is timed on
``TriMesh.__init__`` instead.  Spans stay in memory, each with the id of
the span that was open when it started, until the run writes them out.

A span's self time is its duration minus the part of it covered by its
child spans.  Every ``*_s`` metric below is a sum of self times, so a
metric never contains the time of another traced function.
"""

import functools
import importlib
import resource
import sys
import time

import numpy as np

PACKAGE = "eafe_control"

#: traced callables per module; "Class.method" names are patched on the class
TRACED = {
    "cli": ["main"],
    "experiments": ["run", "run_stability", "run_boundary_layer",
                    "coefficient_sets"],
    "mesh": ["TriMesh.__init__", "build_unit_square", "read_node_ele",
             "write_vtk", "delaunay_check"],
    "fem_core": ["assemble_mass", "assemble_load",
                 "assemble_galerkin_stiffness"],
    "eafe": ["assemble_eafe_stiffness"],
    "sparse_linalg": ["solve_direct", "inverse_nonneg_check",
                      "BlockSaddleSystem.operator", "BlockSaddleSystem.solve"],
    "optimal_control": ["solve", "write_solution_csv", "write_solution_vtk"],
    "verify_norms": ["certify_m_matrix", "check_desired_state_bounds",
                     "error_norms", "interpolant_error_norms",
                     "convergence_tables", "solution_errors"],
}

#: functions that only add the size of their first argument to a counter
COUNTED = {"eafe.bernoulli": "eafe.bernoulli_evals"}

#: per-module time metrics: sum of self times of the listed spans
SELF_TIME_METRICS = {
    "mesh.build_s": ["mesh.TriMesh.__init__"],
    "mesh.read_s": ["mesh.read_node_ele"],
    "mesh.write_s": ["mesh.write_vtk"],
    "mesh.delaunay_s": ["mesh.delaunay_check"],
    "fem_core.mass_s": ["fem_core.assemble_mass"],
    "fem_core.load_s": ["fem_core.assemble_load"],
    "fem_core.galerkin_s": ["fem_core.assemble_galerkin_stiffness"],
    "eafe.assemble_s": ["eafe.assemble_eafe_stiffness"],
    "sparse_linalg.solve_s": ["sparse_linalg.solve_direct"],
    "sparse_linalg.operator_s": ["sparse_linalg.BlockSaddleSystem.operator"],
    "sparse_linalg.inverse_scan_s": ["sparse_linalg.inverse_nonneg_check"],
    "optimal_control.solve_self_s": ["optimal_control.solve"],
    "optimal_control.write_csv_s": ["optimal_control.write_solution_csv"],
    "verify_norms.certify_s": ["verify_norms.certify_m_matrix"],
    "verify_norms.bounds_s": ["verify_norms.check_desired_state_bounds"],
    "verify_norms.error_norms_s": ["verify_norms.error_norms",
                                   "verify_norms.interpolant_error_norms"],
    "experiments.driver_self_s": ["experiments." + n
                                  for n in TRACED["experiments"]],
}


def _result_attrs(name, args, result):
    """Counts recorded on a span when its call returns."""
    if name == "mesh.TriMesh.__init__":
        return {"triangles": int(args[0].triangles.shape[0])}
    if name == "sparse_linalg.BlockSaddleSystem.operator":
        return {"order": int(result.shape[0]), "nnz": int(result.nnz)}
    if name == "verify_norms.certify_m_matrix":
        return {"rows": int(args[0].shape[0])}
    return {}


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans (name, start, end, parent id) and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.missing = []
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "start": time.perf_counter(),
                "rss_kb": _maxrss_kb(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_kb"] = _maxrss_kb() - span["rss_kb"]
                self._open.pop()
            span.update(_result_attrs(name, args, result))
            return result

        return traced

    def count(self, counter, fn):
        self.counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[counter] += int(np.size(args[0]))
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch the package in place; returns a function that undoes it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []

        def replace(short, qualname, make):
            mod = importlib.import_module(PACKAGE + "." + short)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else None
            orig = getattr(owner if owner is not None else mod, attr, None)
            if orig is None:
                self.missing.append(short + "." + qualname)
                return
            new = make(short + "." + qualname, orig)
            if owner is not None:
                undo.append((owner, attr, orig))
                setattr(owner, attr, new)
                return
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, new)

        for short, names in TRACED.items():
            for qualname in names:
                replace(short, qualname, self.wrap)
        for dotted, counter in COUNTED.items():
            short, _, qualname = dotted.partition(".")
            replace(short, qualname,
                    lambda _name, fn, c=counter: self.count(c, fn))

        def uninstall():
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

        return uninstall


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part its children cover}."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            [iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_metrics(spans, counters):
    """Per-module metrics of one traced run (zero where a layer did not run)."""
    selft = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def spans_of(name):
        return by_name.get(name, [])

    out = {metric: sum(selft[s["id"]] for n in names for s in spans_of(n))
           for metric, names in SELF_TIME_METRICS.items()}
    operators = spans_of("sparse_linalg.BlockSaddleSystem.operator")
    solves = spans_of("sparse_linalg.solve_direct")
    out.update({
        "mesh.triangles": sum(s["triangles"]
                              for s in spans_of("mesh.TriMesh.__init__")),
        "eafe.assemble_calls": len(spans_of("eafe.assemble_eafe_stiffness")),
        "eafe.bernoulli_evals": counters.get("eafe.bernoulli_evals", 0),
        "sparse_linalg.solve_calls": len(solves),
        "sparse_linalg.rss_rise_mb": sum(s["rss_kb"] for s in solves) / 1024.0,
        "sparse_linalg.system_order": max((s["order"] for s in operators),
                                          default=0),
        "sparse_linalg.system_nnz": max((s["nnz"] for s in operators),
                                        default=0),
        "verify_norms.certify_rows": sum(
            s["rows"] for s in spans_of("verify_norms.certify_m_matrix")),
    })
    return out
