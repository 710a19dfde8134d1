"""
Output checks of the three workloads.  Each returns a list of problems;
an empty list means the outputs are correct.
"""

import json
import math
import os

#: relative tolerance on the bl-conv-l8 error norms.  Switching SuperLU to
#: the MMD_AT_PLUS_A ordering moved every stored error by at most 1.1e-10
#: of its value; the consistent instead of the lumped reaction term moved
#: each by 4 % or more, the Galerkin scheme by 20 % or more.
ERROR_RTOL = 1e-6


def check_bl_conv(out_dir, reference, table_cls):
    """Global and local tables parse and match the stored reference errors."""
    problems = []
    for kind in ("global", "local"):
        path = os.path.join(out_dir, "boundary-layer_eafe_%s.csv" % kind)
        try:
            table = table_cls.from_csv(path)
        except (OSError, ValueError, IndexError) as exc:
            problems.append("%s table unreadable: %s" % (kind, exc))
            continue
        ref = reference[kind]
        if table.levels != ref["levels"]:
            problems.append("%s table levels %s, expected %s"
                            % (kind, table.levels, ref["levels"]))
            continue
        for col, want in ref["errors"].items():
            for level, got, exp in zip(table.levels, table.errors[col], want):
                if got is None or not math.isclose(got, exp, rel_tol=ERROR_RTOL):
                    problems.append("%s %s at level %d is %r, expected %r"
                                    % (kind, col, level, got, exp))
    return problems


def check_stability(out_dir, levels):
    """EAFE keeps the desired-state bounds at every level; Galerkin breaks them."""
    problems = []
    for scheme, want_ok in (("eafe", True), ("galerkin", False)):
        for level in levels:
            path = os.path.join(out_dir, "stability_%s_k%d_bounds.json"
                                % (scheme, level))
            try:
                with open(path) as fh:
                    ok = json.load(fh)["ok"]
            except (OSError, ValueError, KeyError) as exc:
                problems.append("%s level %d bounds unreadable: %s"
                                % (scheme, level, exc))
                continue
            if ok is not want_ok:
                problems.append("%s level %d bounds ok=%r, expected %r"
                                % (scheme, level, ok, want_ok))
    return problems


def check_nodeele(summary, expected):
    """Counts match the generated input; every certificate and check passes."""
    problems = []
    for key in ("vertices", "triangles", "edges"):
        if summary[key] != expected[key]:
            problems.append("%s: read %r, expected %r"
                            % (key, summary[key], expected[key]))
    if summary["certificates"].keys() != set(expected["coefficient_sets"]):
        problems.append("certified coefficient sets %s, expected %s"
                        % (sorted(summary["certificates"]),
                           sorted(expected["coefficient_sets"])))
    for name, ok in sorted(summary["certificates"].items()):
        if ok is not True:
            problems.append("M-matrix certificate failed for %s" % name)
    if summary["delaunay_ok"] is not True:
        problems.append("Delaunay check failed")
    # the mass matrix sums to the area of the unit square
    if not math.isclose(summary["mass_total"], 1.0, rel_tol=1e-12):
        problems.append("mass matrix sums to %r, expected 1"
                        % summary["mass_total"])
    return problems
