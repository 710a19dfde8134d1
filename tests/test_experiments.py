import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from eafe_control.cli import build_parser, main, parse_levels, parse_region
from eafe_control.experiments import (
    EXAMPLES,
    ExperimentConfig,
    _layer_terms,
    boundary_layer_case,
    coefficient_sets,
    interior_layer_case,
    run,
    run_convergence,
    run_stability,
    stability_problem,
)
from eafe_control.sparse_linalg import ResidualCertificationError
from reference import (
    boundary_layer_source,
    convergence_study,
    interior_layer_source,
    layer_profile,
    same_table,
    smooth_case,
    smooth_source,
)


# ----------------------------------------------------------------------
# layer profile


@pytest.mark.parametrize("eps", [1e-2, 1e-9])
def test_layer_profile_endpoints_exact(eps):
    assert layer_profile(0.0, eps) == 0.0
    assert layer_profile(1.0, eps) == 0.0


@pytest.mark.parametrize("eps", [1e-2, 1e-9])
def test_layer_profile_tail_value(eps):
    z = 1.0 - 40.0 * eps
    correction = layer_profile(z, eps) - z**3
    assert correction == pytest.approx(-math.exp(-40.0), rel=1e-12)


def test_layer_profile_underflow_safe():
    # deep inside the domain the layer term underflows to exactly zero
    vals = layer_profile(np.array([0.0, 0.25, 0.5]), 1e-9)
    assert vals == pytest.approx(np.array([0.0, 0.25, 0.5]) ** 3, abs=1e-300)


def grad_check(case, zeta, gamma, eps, pts, h=1e-5):
    for xv, yv in pts:
        x = np.array([xv])
        y = np.array([yv])

        def lap(f):
            return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                    - 4.0 * f(x, y)) / h**2

        def grad(f):
            return ((f(x + h, y) - f(x - h, y)) / (2 * h),
                    (f(x, y + h) - f(x, y - h)) / (2 * h))

        gx, gy = grad(case.exact_y)
        ex, ey = case.exact_grad_y(x, y)
        assert abs(gx - ex) <= 1e-4 * max(1.0, abs(ex))
        assert abs(gy - ey) <= 1e-4 * max(1.0, abs(ey))

        f, g = case.problem.source(x, y)
        gpx, gpy = grad(case.exact_p)
        f_fd = (-eps * lap(case.exact_p) + zeta[0] * gpx + zeta[1] * gpy
                + gamma * case.exact_p(x, y) - case.exact_y(x, y))
        assert abs(f_fd - f) <= 1e-4 * max(1.0, abs(f))
        gyx, gyy = grad(case.exact_y)
        g_fd = (-case.exact_p(x, y) + eps * lap(case.exact_y)
                + zeta[0] * gyx + zeta[1] * gyy - gamma * case.exact_y(x, y))
        assert abs(g_fd - g) <= 1e-4 * max(1.0, abs(g))


def forcing_points(eps):
    """
    4096 random points of the unit square: four on the boundary layers'
    sides and edges in each coordinate, three on the interior layer.
    """
    rng = np.random.default_rng(19)
    x1, x2 = rng.random((2, 4096))
    x1[:4] = x2[-4:] = [0.0, 1.0, 1.0 - eps, 1.0 - 1e-3 * eps]
    x2[:3] = [0.5, 0.5 - eps, 0.5 + eps]
    return x1, x2


@pytest.mark.parametrize("eps", [1e-2, 1e-9])
def test_boundary_layer_forcing_equals_composed_definitions(eps):
    # f and g composed from the exact pair and its derivatives, as the
    # strong operators define them; the forcing must agree bit for bit
    case = boundary_layer_case(eps)
    x1, x2 = forcing_points(eps)
    eta = lambda z: layer_profile(z, eps)
    d2 = lambda z: _layer_terms(z, eps)[2]
    zeta = (-np.sqrt(2.0) / 2.0, -np.sqrt(2.0) / 2.0)
    gamma = 1.0
    y, p = case.exact_y(x1, x2), case.exact_p(x1, x2)
    lap_y = d2(x1) * eta(x2) + eta(x1) * d2(x2)
    lap_p = d2(1.0 - x1) * eta(1.0 - x2) + eta(1.0 - x1) * d2(1.0 - x2)
    gx, gy = case.exact_grad_p(x1, x2)
    f = -eps * lap_p + zeta[0] * gx + zeta[1] * gy + gamma * p - y
    gx, gy = case.exact_grad_y(x1, x2)
    g = -p + eps * lap_y + zeta[0] * gx + zeta[1] * gy - gamma * y
    source_f, source_g = case.problem.source(x1, x2)
    assert np.array_equal(source_f, f)
    assert np.array_equal(source_g, g)


@pytest.mark.parametrize("name, eps", [
    ("boundary-layer", 1e-2), ("boundary-layer", 1e-9),
    ("interior-layer", 1e-2), ("interior-layer", 1e-9), ("smooth", 1.0),
])
def test_composed_source_equals_hand_written_forcing(name, eps):
    # the one composer gives the bits of the forcing each case once wrote
    # by hand; on the interior layer zeta = (-1, 0) makes the composed
    # convection terms -1 * dp/dx1 and +0 * dp/dx2 exact
    if name == "smooth":
        case, reference = smooth_case(), smooth_source()
    else:
        case = EXAMPLES[name]["case"](eps)
        reference = {"boundary-layer": boundary_layer_source,
                     "interior-layer": interior_layer_source}[name](eps)
    x1, x2 = forcing_points(eps)
    for composed, written in zip(case.problem.source(x1, x2),
                                 reference(x1, x2)):
        assert np.array_equal(composed, written)


def test_interior_layer_forcing_matches_finite_differences():
    s = (0.3, 0.2), (0.55, 0.7), (0.45, 0.8), (0.7, 0.25), (0.52, 0.75)
    grad_check(interior_layer_case(1e-2), (-1.0, 0.0), 1.0, 1e-2, s)


def test_smooth_case_forcing_matches_finite_differences():
    s = (0.3, 0.4), (0.55, 0.3), (0.45, 0.62), (0.7, 0.35), (0.52, 0.48)
    grad_check(smooth_case(), (1.0, 1.0), 1.0, 1.0, s)


def test_boundary_layer_exact_traces_vanish():
    case = boundary_layer_case(1e-2)
    t = np.linspace(0.0, 1.0, 33)
    for fields in (case.exact_y, case.exact_p):
        assert np.abs(fields(t, np.zeros_like(t))).max() <= 1e-15
        assert np.abs(fields(t, np.ones_like(t))).max() <= 1e-15
        assert np.abs(fields(np.zeros_like(t), t)).max() <= 1e-15
        assert np.abs(fields(np.ones_like(t), t)).max() <= 1e-15


def test_coefficient_sets_cover_benchmarks():
    sets = coefficient_sets()
    assert set(sets) == {"stability", "boundary-layer", "interior-layer"}


# ----------------------------------------------------------------------
# experiment drivers


def test_config_defaults_and_validation():
    config = ExperimentConfig("stability")
    assert config.eps == 1e-9
    assert config.levels == [3, 4, 5, 6]
    assert config.schemes == ("eafe", "galerkin")
    with pytest.raises(ValueError):
        ExperimentConfig("unknown-example")
    for eps in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentConfig("stability", eps=eps)
    for levels in ([4, 3], [3, 3], []):
        with pytest.raises(ValueError):
            ExperimentConfig("stability", levels=levels)
    with pytest.raises(ValueError):
        ExperimentConfig("stability", scheme="dg")
    with pytest.raises(ValueError):
        ExperimentConfig("stability", metric="energy")


def test_stability_run_separates_schemes(tmp_path):
    config = ExperimentConfig("stability", levels=[3, 4], out_dir=str(tmp_path))
    results = run_stability(config)
    for level in (3, 4):
        assert results["eafe"][level]["bounds"].ok
        assert results["eafe"][level]["m_matrix"].ok
        assert not results["galerkin"][level]["bounds"].ok
        assert not results["galerkin"][level]["m_matrix"].ok
    # output files: config echo, log, per-level dumps
    config_echo = json.loads((tmp_path / "config.json").read_text())
    assert config_echo["example"] == "stability"
    assert config_echo["mesh_diagonal"] == "lowerleft-upperright"
    (line,) = [ln for ln in (tmp_path / "run.log").read_text().splitlines()
               if "scheme=eafe level=4 " in ln]
    assert int(line.split(" iterations=", 1)[1].split()[0]) > 0
    assert int(line.split(" fill=", 1)[1].split()[0]) > 0
    # edge Peclet beyond 2 keeps the EAFE factor in float64; Galerkin's
    # nearly skew-symmetric stiffness lets it drop to float32
    assert " factor=float64 " in line
    (galerkin,) = [ln for ln in (tmp_path / "run.log").read_text().splitlines()
                   if "scheme=galerkin level=4 " in ln]
    assert " factor=float32 " in galerkin
    # the returned entries hold the verdicts, not the solutions
    assert results["eafe"][4].keys() == {"bounds", "m_matrix"}
    assert (tmp_path / "stability_eafe_k3.vtk").exists()
    assert (tmp_path / "stability_galerkin_k4_bounds.json").exists()
    assert (tmp_path / "stability_eafe_k4.csv").exists()


def test_stability_run_assembles_load_once_and_logs_margin(tmp_path,
                                                          monkeypatch):
    from eafe_control import fem_core, optimal_control

    calls = []
    assemble_load = fem_core.assemble_load

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble_load(*args, **kwargs)

    monkeypatch.setattr(fem_core, "assemble_load", counting)
    monkeypatch.setattr(optimal_control, "assemble_load", counting)
    config = ExperimentConfig("stability", levels=[3, 4], out_dir=str(tmp_path))
    results = run_stability(config)
    assert len(calls) == 4  # one per scheme and level
    lines = (tmp_path / "run.log").read_text().splitlines()
    margin = results["eafe"][4]["m_matrix"].margin
    assert margin > 0.0
    (eafe,) = [ln for ln in lines if "scheme=eafe level=4 " in ln]
    assert " m_matrix=True m_margin=%.3e m_vector=sweep " % margin in eafe
    (galerkin,) = [ln for ln in lines if "scheme=galerkin level=4 " in ln]
    assert " m_matrix=False m_margin=none m_vector=none " in galerkin


def test_stability_diffusion_dominated_both_schemes_clean():
    config = ExperimentConfig("stability", eps=1.0, levels=[3, 4],
                              scheme="both")
    results = run_stability(config)
    for scheme in ("eafe", "galerkin"):
        for level in (3, 4):
            assert results[scheme][level]["bounds"].ok


def test_custom_mirrored_desired_state():
    config = ExperimentConfig("stability", levels=[3], scheme="eafe",
                              yd_const=-1.0)
    results = run_stability(config)
    assert results["eafe"][3]["bounds"].ok
    assert results["eafe"][3]["bounds"].sign == "nonpos"


def test_boundary_layer_run_writes_deterministic_tables(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    results = {}
    for out in (dir_a, dir_b):
        config = ExperimentConfig("boundary-layer", levels=[2, 3, 4],
                                  scheme="eafe", out_dir=str(out))
        results[out] = run_convergence(config)
    for name in ("boundary-layer_eafe_global.csv",
                 "boundary-layer_eafe_local.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    tables = results[dir_a]["eafe"]
    assert tables["global"].errors["ey_l2"][0] is not None
    # the local box holds no whole element before level 4
    assert tables["local"].errors["ey_l2"][:2] == [None, None]
    assert tables["local"].errors["ey_l2"][2] is not None
    assert (dir_a / "boundary-layer_eafe_k3.vtk").exists()
    # the solve's counts go to run.log, one line per level, not to the CSVs
    lines = (dir_a / "run.log").read_text().splitlines()
    fills = [int(ln.rsplit(" fill=", 1)[1]) for ln in lines if " level=" in ln]
    assert len(fills) == 3 and fills == sorted(fills) and fills[0] > 0
    assert all(" iterations=" in ln for ln in lines if " level=" in ln)
    # edge Peclet 17.7, 8.8 and 4.4 at levels 2-4: all beyond 2
    assert all(" factor=float64 " in ln for ln in lines if " level=" in ln)
    assert "fill" not in (dir_a / "boundary-layer_eafe_global.csv").read_text()


def test_convergence_log_records_factor_precision(tmp_path):
    # eps = 0.05: edge Peclet 3.5 at level 2, then 1.8 and 0.9
    config = ExperimentConfig("boundary-layer", eps=0.05, levels=[2, 3, 4],
                              scheme="eafe", out_dir=str(tmp_path))
    run_convergence(config)
    lines = [ln for ln in (tmp_path / "run.log").read_text().splitlines()
             if " level=" in ln]
    factors = [ln.split(" factor=", 1)[1].split()[0] for ln in lines]
    assert factors == ["float64", "float32", "float32"]


def test_interior_layer_run_smoke(tmp_path):
    config = ExperimentConfig("interior-layer", levels=[2, 3], scheme="eafe",
                              out_dir=str(tmp_path))
    results = run_convergence(config)
    table = results["eafe"]["local"]
    assert table.region == (0.65, 1.0, 0.0, 1.0)
    assert None not in table.errors["ey_l2"]
    glob = results["eafe"]["global"]
    assert all(e > 0 for e in glob.errors["ey_l2"])


@pytest.mark.parametrize("example, levels, region", [
    ("boundary-layer", [2, 3, 4], (0.4, 0.6, 0.4, 0.6)),
    ("interior-layer", [2, 3], (0.65, 1.0, 0.0, 1.0)),
], ids=["boundary-layer", "interior-layer"])
def test_convergence_run_equals_the_reference_loop(example, levels, region):
    config = ExperimentConfig(example, levels=levels, scheme="eafe")
    tables = run_convergence(config)["eafe"]
    case = EXAMPLES[example]["case"](config.eps)
    for name, box in (("global", None), ("local", region)):
        want = convergence_study(case, "eafe", levels, region=box,
                                 metric=config.metric)
        assert tables[name].region == box
        assert same_table(tables[name], want)
        assert tables[name].orders == want.orders
    if example == "boundary-layer":
        # no order next to a level whose sub-box holds no whole element
        assert tables["local"].errors["ey_l2"][:2] == [None, None]
        assert tables["local"].orders["ey_l2"] == [None, None, None]


def test_runner_guards_example_kind():
    with pytest.raises(ValueError):
        run_convergence(ExperimentConfig("stability"))
    with pytest.raises(ValueError):
        run_stability(ExperimentConfig("interior-layer"))


def test_stability_problem_structure():
    spec = stability_problem(1e-9, yd_const=1.0)
    assert spec.mode == "tracking"
    x = np.array([0.3])
    y = np.array([0.7])
    assert spec.y_d(x, y) == pytest.approx(1.0)
    zx, zy = spec.coeff.zeta(x, y)
    assert (zx[0], zy[0]) == (-1.0, 0.0)


# ----------------------------------------------------------------------
# command line


def test_parse_helpers():
    assert parse_levels("3..6") == [3, 4, 5, 6]
    assert parse_levels("2,5,7") == [2, 5, 7]
    assert parse_region("0.4,0.6,0.4,0.6") == (0.4, 0.6, 0.4, 0.6)
    with pytest.raises(Exception):
        parse_region("0.4,0.6")


def test_cli_stability_run(tmp_path, capsys):
    rc = main([
        "--example", "stability", "--levels", "3..3", "--scheme", "eafe",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bounds_ok=True" in out
    echo = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echo["out_dir"] == str(tmp_path / "out")
    assert echo["levels"] == [3]


def test_cli_boundary_layer_run(tmp_path, capsys):
    rc = main([
        "--example", "boundary-layer", "--levels", "2..3", "--eps", "1e-2",
        "--scheme", "eafe", "--out", str(tmp_path / "out"),
        "--metric", "quadrature", "--lump-reaction", "off",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme=eafe" in out and "k=3" in out
    echo = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echo["metric"] == "quadrature"
    assert echo["lump_reaction"] is False


def _log_numbers(path):
    """Every numeric value of a ``key=value`` field of ``run.log``."""
    numbers = []
    for value in re.findall(r"=(\S+)", path.read_text()):
        try:
            numbers.append(float(value.rstrip("s")))
        except ValueError:
            pass
    return numbers


def test_cli_desired_state_near_the_float64_limit_ends_typed(tmp_path):
    # EAFE stays below y_d = 1e308 and is certified; Galerkin overshoots
    # it about 2.2 times, so its solution is no float64 and the run ends
    # in the package's error, with no inf in the log
    out = tmp_path / "out"
    with pytest.raises(ResidualCertificationError, match="overflows float64"):
        main(["--example", "stability", "--yd-const", "1e308",
              "--levels", "3..3", "--out", str(out)])
    log = out / "run.log"
    assert re.search(r"^stability scheme=eafe level=3 ok=True worst=0\.",
                     log.read_text(), re.M)
    assert all(math.isfinite(x) for x in _log_numbers(log))


def test_cli_interior_layer_at_huge_diffusion_runs(tmp_path):
    # right-hand sides near 1e300 once overflowed the GMRES norms
    out = tmp_path / "out"
    assert main(["--example", "interior-layer", "--eps", "1e300",
                 "--levels", "2..3", "--out", str(out)]) == 0
    log = out / "run.log"
    assert len(re.findall(r" level=[23] ", log.read_text())) == 2
    assert all(math.isfinite(x) for x in _log_numbers(log))


def test_cli_rejects_unknown_example():
    with pytest.raises(SystemExit):
        main(["--example", "vortex"])


@pytest.mark.parametrize("argv", [
    ["--example", "custom"],
    ["--example", "stability", "--seed", "1"],
], ids=["example-custom", "seed"])
def test_cli_rejects_removed_settings(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: eafe-control")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--eps", "nan", "--levels", "3..3"], "eps must be positive and finite"),
    (["--eps", "-1", "--levels", "3..3"], "eps must be positive and finite"),
    (["--levels", "8,7"],
     "levels must be a nonempty strictly ascending sequence"),
    (["--levels", "3,3"],
     "levels must be a nonempty strictly ascending sequence"),
    (["--levels", "0..2"], "level must be >= 1, got 0"),
    (["--levels", "2,11"],
     "level 11 needs 4198401 vertices, exceeding the cap of 1000000"),
    (["--yd-const", "inf"], "yd_const must be finite"),
    (["--region", "0.4,nan,0.4,0.6"],
     "region needs finite x0 < x1 and y0 < y1"),
    (["--region", "0.6,0.4,0.4,0.6"],
     "region needs finite x0 < x1 and y0 < y1"),
    (["--out", ""], "out_dir must not be empty"),
], ids=["eps-nan", "eps-negative", "levels-descending", "levels-repeated",
        "level-zero",
        "level-over-vertex-cap", "yd-const-inf", "region-nan",
        "region-inverted", "out-empty"])
def test_cli_rejected_config_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--example", "stability", "--out", str(out), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: eafe-control")
    assert "error: " + message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_readme_flags_match_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("\nFlags: ") + 1
    flags = readme[start:readme.index("\n\n", start)]
    options = {opt for action in build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", flags)) == options - {"--help"}
    (choices,) = re.findall(r"--example \{([a-z,-]+)\}", flags)
    assert tuple(choices.split(",")) == tuple(EXAMPLES)


def test_convergence_frees_each_level_before_the_next_mesh(monkeypatch):
    # level k's mesh and solution are gone when level k + 1 builds its mesh,
    # so they are not alive beside the next level's factor
    from eafe_control import experiments, optimal_control

    earlier = []
    build, solve = experiments.build_unit_square, optimal_control.solve

    def building(*args, **kwargs):
        assert [ref() for ref in earlier] == [None] * len(earlier)
        mesh = build(*args, **kwargs)
        earlier.append(weakref.ref(mesh))
        return mesh

    def solving(*args, **kwargs):
        sol = solve(*args, **kwargs)
        earlier.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(experiments, "build_unit_square", building)
    monkeypatch.setattr(optimal_control, "solve", solving)
    run_convergence(ExperimentConfig("boundary-layer", levels=[2, 3, 4],
                                     scheme="both"))
    assert len(earlier) == 2 * 2 * 3  # a mesh and a solution per level


def test_stability_builds_one_mesh_per_level_and_frees_it(tmp_path,
                                                          monkeypatch):
    # both schemes solve on the level's one mesh, which is gone when the
    # next level builds its own; run.log still lists scheme by scheme
    from eafe_control import experiments, optimal_control

    built, solved_on = [], []
    build, solve = experiments.build_unit_square, optimal_control.solve

    def building(*args, **kwargs):
        assert [ref() for ref in built] == [None] * len(built)
        mesh = build(*args, **kwargs)
        built.append(weakref.ref(mesh))
        return mesh

    def solving(mesh, *args, **kwargs):
        solved_on.append(id(mesh))
        return solve(mesh, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_unit_square", building)
    monkeypatch.setattr(optimal_control, "solve", solving)
    run_stability(ExperimentConfig("stability", levels=[2, 3, 4],
                                   scheme="both", out_dir=str(tmp_path)))
    assert len(built) == 3
    assert len(solved_on) == 6
    assert solved_on[0::2] == solved_on[1::2]  # eafe, then galerkin
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert [ln.split()[1:3] for ln in lines] == [
        ["scheme=%s" % scheme, "level=%d" % level]
        for scheme in ("eafe", "galerkin") for level in (2, 3, 4)]


@pytest.mark.parametrize("example, levels, level_lines", [
    ("stability", [3, 4], 4),
    ("boundary-layer", [2, 3], 2),
])
def test_run_log_level_lines_record_peak_rss(tmp_path, example, levels,
                                             level_lines):
    run(ExperimentConfig(example, levels=levels, out_dir=str(tmp_path)))
    lines = [ln for ln in (tmp_path / "run.log").read_text().splitlines()
             if " level=" in ln]
    if example == "stability":
        # run.log lists scheme by scheme; the run went level by level
        lines.sort(key=lambda ln: (int(ln.split(" level=", 1)[1].split()[0]),
                                   " scheme=galerkin " in ln))
    peaks = [float(ln.split(" peak_rss_mb=", 1)[1].split()[0])
             for ln in lines]
    # ru_maxrss of the process so far: positive and never falling
    assert len(peaks) == level_lines
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    if example != "stability":
        # the convergence lines still end on the fill
        assert all(int(ln.rsplit(" fill=", 1)[1]) > 0 for ln in lines)
    # timings and memory stay out of the deterministic tables
    for table in tmp_path.glob("*.csv"):
        text = table.read_text()
        assert "peak_rss" not in text and "elapsed" not in text


@pytest.mark.parametrize("example, finished", [
    ("stability", [("eafe", 2), ("eafe", 3), ("galerkin", 2), ("galerkin", 3)]),
    ("boundary-layer", [("eafe", 2), ("eafe", 3)]),
], ids=["stability", "boundary-layer"])
def test_run_log_keeps_finished_levels_when_a_level_raises(tmp_path,
                                                           monkeypatch,
                                                           example, finished):
    from eafe_control import optimal_control
    from eafe_control.sparse_linalg import ResourceLimitError

    error = ResourceLimitError("level 4 does not fit")
    solve = optimal_control.solve

    def solving(mesh, *args, **kwargs):
        if mesh.num_vertices == (2**4 + 1) ** 2:
            raise error
        return solve(mesh, *args, **kwargs)

    monkeypatch.setattr(optimal_control, "solve", solving)
    # the stability example runs both schemes, boundary-layer only eafe
    config = ExperimentConfig(example, levels=[2, 3, 4], out_dir=str(tmp_path))
    with pytest.raises(ResourceLimitError) as raised:
        run(config)
    assert raised.value is error
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert [ln.split()[1:3] for ln in lines] == [
        ["scheme=%s" % scheme, "level=%d" % level]
        for scheme, level in finished]
