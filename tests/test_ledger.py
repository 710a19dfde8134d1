"""
The ledger of each solve's deterministic cost: the stored entries of the
PRESB factor, the GMRES iterations and the factor's precision, for every
example and scheme at levels 3-7, the layer examples at their default eps
and the stability example at eps 1e-9, and the candidate x that decided
each stability certificate (the ``m_vector=`` of ``run.log``).  The
numbers are those of numpy 2.4.6 and scipy 1.17.1, the versions CI
installs.  A change that moves one of them (the ordering, the precision
rule, the preconditioner, the certificate or the assembly) updates this
table and says why; ``PYTHONPATH=src python tests/test_ledger.py`` prints
the table of the code as it is, in the source form below.
"""

import pytest

from eafe_control.experiments import EXAMPLES, stability_problem
from eafe_control.mesh import build_unit_square
from eafe_control.optimal_control import SCHEMES, solve_schemes
from eafe_control.verify_norms import certify_m_matrix

#: (example, scheme, level): (fill, iterations, precision)
LEDGER = {
    ("stability", "eafe", 3): (934, 15, "float64"),
    ("stability", "galerkin", 3): (934, 3, "float32"),
    ("stability", "eafe", 4): (5594, 15, "float64"),
    ("stability", "galerkin", 4): (5594, 3, "float32"),
    ("stability", "eafe", 5): (33898, 14, "float64"),
    ("stability", "galerkin", 5): (33898, 3, "float32"),
    ("stability", "eafe", 6): (189602, 15, "float64"),
    ("stability", "galerkin", 6): (189602, 3, "float32"),
    ("stability", "eafe", 7): (991530, 14, "float64"),
    ("stability", "galerkin", 7): (991530, 4, "float32"),
    ("boundary-layer", "eafe", 3): (934, 13, "float64"),
    ("boundary-layer", "galerkin", 3): (934, 14, "float32"),
    ("boundary-layer", "eafe", 4): (5594, 14, "float64"),
    ("boundary-layer", "galerkin", 4): (5594, 14, "float32"),
    ("boundary-layer", "eafe", 5): (33898, 15, "float64"),
    ("boundary-layer", "galerkin", 5): (33898, 15, "float32"),
    ("boundary-layer", "eafe", 6): (189602, 15, "float32"),
    ("boundary-layer", "galerkin", 6): (189602, 15, "float32"),
    ("boundary-layer", "eafe", 7): (991530, 15, "float32"),
    ("boundary-layer", "galerkin", 7): (991530, 15, "float32"),
    ("interior-layer", "eafe", 3): (934, 14, "float64"),
    ("interior-layer", "galerkin", 3): (934, 13, "float32"),
    ("interior-layer", "eafe", 4): (5594, 13, "float64"),
    ("interior-layer", "galerkin", 4): (5594, 13, "float64"),
    ("interior-layer", "eafe", 5): (33898, 12, "float64"),
    ("interior-layer", "galerkin", 5): (33898, 12, "float64"),
    ("interior-layer", "eafe", 6): (189602, 12, "float32"),
    ("interior-layer", "galerkin", 6): (189602, 12, "float32"),
    ("interior-layer", "eafe", 7): (991530, 11, "float32"),
    ("interior-layer", "galerkin", 7): (991530, 11, "float32"),
}

#: (scheme, level): the ``m_vector=`` of the stability example's
#: certificate, "sweep", "inverse", or "none" when the sign pattern fails
M_VECTOR = {
    **{("eafe", level): "sweep" for level in (3, 4, 5, 6, 7)},
    **{("galerkin", level): "none" for level in (3, 4, 5, 6, 7)},
}


def _solutions(example):
    """(level, solution) of every scheme at every ledger level."""
    spec = (stability_problem(1e-9) if example == "stability"
            else EXAMPLES[example]["case"](EXAMPLES[example]["eps"]).problem)
    for level in (3, 4, 5, 6, 7):
        for sol in solve_schemes(build_unit_square(level), spec, SCHEMES):
            yield level, sol


@pytest.mark.parametrize("example", tuple(EXAMPLES))
def test_fill_iterations_and_precision_match_the_ledger(example):
    for level, sol in _solutions(example):
        cost = sol.fill, sol.iterations, sol.precision
        assert cost == LEDGER[example, sol.scheme, level], (sol.scheme, level)
        if example == "stability":
            vector = certify_m_matrix(sol.stiffness).vector or "none"
            assert vector == M_VECTOR[sol.scheme, level], (sol.scheme, level)


if __name__ == "__main__":
    print("LEDGER = {")
    for example in EXAMPLES:
        for level, sol in _solutions(example):
            print('    ("%s", "%s", %d): (%d, %d, "%s"),' % (
                example, sol.scheme, level, sol.fill, sol.iterations,
                sol.precision))
    print("}")
