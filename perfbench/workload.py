"""
One repetition of one workload, in a fresh process.

Run by ``run.py``; writes a JSON result file.  The process records the
moment it is ready (interpreter started, arguments read, ``eafe_control``
imported), times the workload, takes its own peak RSS, checks the
outputs, and with ``--trace 1`` writes the spans of the run.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy
import scipy

import eafe_control
from eafe_control import (
    cli, experiments, fem_core, mesh, optimal_control, verify_norms,
)

import checks
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bl-conv-l8", "stability-sweep-l7", "nodeele-certify-l9")
STABILITY_LEVELS = (3, 4, 5, 6, 7)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--setup-only", action="store_true",
                   help="exit once ready; only the set-up time is recorded")
    p.add_argument("--src", required=True,
                   help="source directory eafe_control must be imported from")
    p.add_argument("--out", help="output directory of the run")
    p.add_argument("--input", help="node/ele input file")
    p.add_argument("--expected", help="JSON file with the input's expected counts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True, help="result JSON file to write")
    return p.parse_args(argv)


def interior_block(a, idx):
    # SparseMatrix today; a plain scipy CSR matrix once that wrapper goes
    if hasattr(a, "submatrix"):
        return a.submatrix(idx, idx)
    return a[idx][:, idx]


def run_nodeele(path):
    m = mesh.read_node_ele(path)
    certificates = {}
    for name, coeff in experiments.coefficient_sets().items():
        a = optimal_control.assemble_stiffness(m, coeff, "eafe")
        a_int = interior_block(a, m.interior_vertices)
        certificates[name] = verify_norms.certify_m_matrix(a_int).ok
    delaunay = mesh.delaunay_check(m)
    mass = fem_core.assemble_mass(m)
    return {
        "vertices": m.num_vertices,
        "triangles": m.num_triangles,
        "edges": m.num_edges,
        "certificates": certificates,
        "delaunay_ok": delaunay.ok,
        "mass_total": float(mass.data.sum()),
    }


def run_workload(workload, out, input_path):
    """Runs the program; returns whatever the output check needs."""
    if workload == "bl-conv-l8":
        cli.main(["--example", "boundary-layer", "--eps", "1e-2",
                  "--levels", "7..8", "--out", out])
    elif workload == "stability-sweep-l7":
        cli.main(["--example", "stability", "--eps", "1e-9",
                  "--levels", "%d..%d" % (STABILITY_LEVELS[0],
                                          STABILITY_LEVELS[-1]),
                  "--scheme", "both", "--out", out])
    else:
        return run_nodeele(input_path)
    return None


def check(workload, out, summary, expected_path):
    if workload == "bl-conv-l8":
        with open(os.path.join(BENCH_DIR, "reference", "bl-conv-l8.json")) as fh:
            reference = json.load(fh)
        return checks.check_bl_conv(out, reference,
                                    verify_norms.ConvergenceTable)
    if workload == "stability-sweep-l7":
        return checks.check_stability(out, STABILITY_LEVELS)
    with open(expected_path) as fh:
        expected = json.load(fh)
    return checks.check_nodeele(summary, expected)


def bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main(argv=None):
    args = parse_args(argv)
    result = {
        "ready_at": time.monotonic(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    src = os.path.realpath(args.src)
    if not os.path.realpath(eafe_control.__file__).startswith(src + os.sep):
        result["error"] = "eafe_control imported from %s, not from %s" % (
            eafe_control.__file__, src)
    elif not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            summary = run_workload(args.workload, args.out, args.input)
            result["run_s"] = time.perf_counter() - t0
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            result["problems"] = check(args.workload, args.out, summary,
                                       args.expected)
        except Exception:  # any failure of the program is a failed repetition
            result["error"] = traceback.format_exc()
        if args.out is not None and os.path.isdir(args.out):
            result["bytes_written"] = bytes_under(args.out)
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counters"] = tracer.counters
            result["not_traced"] = tracer.missing
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 1 if result.get("error") or result.get("problems") else 0


if __name__ == "__main__":
    sys.exit(main())
