"""Command-line entry point for the benchmark experiments."""

import argparse
import sys

from .experiments import EXAMPLES, ExperimentConfig, run


def parse_levels(text):
    """Parse "a..b" (inclusive) or a comma-separated list of levels."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError("empty level range %r" % text)
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def parse_region(text):
    parts = [float(s) for s in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("region needs x0,x1,y0,y1")
    return tuple(parts)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eafe-control",
        description="Monotone edge-averaged FEM experiments for "
                    "convection-dominated optimal control on the unit square.",
    )
    parser.add_argument("--example", choices=EXAMPLES, required=True,
                        help="which benchmark to run")
    parser.add_argument("--eps", type=float, default=None,
                        help="diffusion coefficient (default per example)")
    parser.add_argument("--levels", type=parse_levels, default=None,
                        metavar="A..B", help="refinement levels, e.g. 1..8")
    parser.add_argument("--scheme", choices=("eafe", "galerkin", "both"),
                        default=None, help="discretization (default per example)")
    parser.add_argument("--out", dest="out_dir", default=None, metavar="DIR",
                        help="output directory for tables, reports, and fields")
    parser.add_argument("--region", type=parse_region, default=None,
                        metavar="X0,X1,Y0,Y1",
                        help="override the local-error sub-box")
    parser.add_argument("--lump-reaction", choices=("on", "off"), default="on",
                        help="lumped reaction term in the edge-averaged "
                             "operator (default on)")
    parser.add_argument("--metric", choices=("interpolant", "quadrature"),
                        default="interpolant",
                        help="error measure for convergence tables: distance "
                             "to the nodal interpolant (benchmark convention) "
                             "or quadrature against the exact fields")
    parser.add_argument("--yd-const", type=float, default=1.0,
                        help="constant desired state for stability runs")
    return parser


def main(argv=None):
    parser = build_parser()
    settings = vars(parser.parse_args(argv))
    settings["lump_reaction"] = settings["lump_reaction"] == "on"
    try:
        config = ExperimentConfig(**settings)
    except ValueError as exc:
        # rejected settings end like any other bad argument: usage, exit 2
        parser.error(str(exc))
    results = run(config)

    if config.example == "stability":
        for scheme, per_level in results.items():
            for level, entry in per_level.items():
                report = entry["bounds"]
                print(
                    "%s scheme=%-8s level=%d bounds_ok=%-5s worst=%.3e"
                    % (config.example, scheme, level, report.ok,
                       report.worst_violation)
                )
    else:
        for scheme, tables in results.items():
            table = tables["global"]
            for i, k in enumerate(table.levels):
                cells = ["%s scheme=%-8s k=%d" % (config.example, scheme, k)]
                for col in table.COLUMNS:
                    err = table.errors[col][i]
                    order = table.orders[col][i]
                    cells.append(
                        "%s=%s(%s)"
                        % (col,
                           "-" if err is None else "%.3e" % err,
                           "-" if order is None else "%.2f" % order)
                    )
                print(" ".join(cells))
    if config.out_dir:
        print("outputs written to %s" % config.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
