import json
import math

import numpy as np
import pytest

from eafe_control.cli import main, parse_levels, parse_region
from eafe_control.experiments import (
    ExperimentConfig,
    boundary_layer_case,
    coefficient_sets,
    interior_layer_case,
    layer_profile,
    layer_profile_d2,
    run_boundary_layer,
    run_interior_layer,
    run_stability,
    smooth_case,
    stability_problem,
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

        gpx, gpy = grad(case.exact_p)
        f_fd = (-eps * lap(case.exact_p) + zeta[0] * gpx + zeta[1] * gpy
                + gamma * case.exact_p(x, y) - case.exact_y(x, y))
        assert abs(f_fd - case.problem.f(x, y)) <= 1e-4 * max(
            1.0, abs(case.problem.f(x, y))
        )
        gyx, gyy = grad(case.exact_y)
        g_fd = (-case.exact_p(x, y) + eps * lap(case.exact_y)
                + zeta[0] * gyx + zeta[1] * gyy - gamma * case.exact_y(x, y))
        assert abs(g_fd - case.problem.g(x, y)) <= 1e-4 * max(
            1.0, abs(case.problem.g(x, y))
        )


@pytest.mark.parametrize("eps", [1e-2, 1e-9])
def test_boundary_layer_forcing_equals_composed_definitions(eps):
    # f and g composed from the exact pair and its derivatives, as the
    # strong operators define them; the forcing must agree bit for bit
    case = boundary_layer_case(eps)
    rng = np.random.default_rng(19)
    x1, x2 = rng.random((2, 4096))
    x1[:4] = x2[-4:] = [0.0, 1.0, 1.0 - eps, 1.0 - 1e-3 * eps]
    eta = lambda z: layer_profile(z, eps)
    d2 = lambda z: layer_profile_d2(z, eps)
    zeta = (-np.sqrt(2.0) / 2.0, -np.sqrt(2.0) / 2.0)
    gamma = 1.0
    y, p = case.exact_y(x1, x2), case.exact_p(x1, x2)
    lap_y = d2(x1) * eta(x2) + eta(x1) * d2(x2)
    lap_p = d2(1.0 - x1) * eta(1.0 - x2) + eta(1.0 - x1) * d2(1.0 - x2)
    gx, gy = case.exact_grad_p(x1, x2)
    f = -eps * lap_p + zeta[0] * gx + zeta[1] * gy + gamma * p - y
    gx, gy = case.exact_grad_y(x1, x2)
    g = -p + eps * lap_y + zeta[0] * gx + zeta[1] * gy - gamma * y
    assert np.array_equal(case.problem.f(x1, x2), f)
    assert np.array_equal(case.problem.g(x1, x2), g)


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
    with pytest.raises(ValueError):
        ExperimentConfig("stability", levels=[4, 3])
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
    iterations = results["eafe"][4]["solution"].iterations
    assert iterations > 0
    assert " iterations=%d " % iterations in line
    fill = results["eafe"][4]["solution"].fill
    assert fill > 0
    assert " fill=%d " % fill in line
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
    margin = results["eafe"][4]["m_matrix"].inverse_report.margin
    assert margin > 0.0
    (eafe,) = [ln for ln in lines if "scheme=eafe level=4 " in ln]
    assert " m_matrix=True m_margin=%.3e " % margin in eafe
    (galerkin,) = [ln for ln in lines if "scheme=galerkin level=4 " in ln]
    assert " m_matrix=False m_margin=none " in galerkin


def test_stability_diffusion_dominated_both_schemes_clean():
    config = ExperimentConfig("stability", eps=1.0, levels=[3, 4],
                              scheme="both")
    results = run_stability(config)
    for scheme in ("eafe", "galerkin"):
        for level in (3, 4):
            assert results[scheme][level]["bounds"].ok


def test_custom_mirrored_desired_state():
    config = ExperimentConfig("custom", levels=[3], scheme="eafe",
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
        results[out] = run_boundary_layer(config)
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
    assert "fill" not in (dir_a / "boundary-layer_eafe_global.csv").read_text()


def test_interior_layer_run_smoke(tmp_path):
    config = ExperimentConfig("interior-layer", levels=[2, 3], scheme="eafe",
                              out_dir=str(tmp_path))
    results = run_interior_layer(config)
    table = results["eafe"]["local"]
    assert table.region == (0.65, 1.0, 0.0, 1.0)
    assert None not in table.errors["ey_l2"]
    glob = results["eafe"]["global"]
    assert all(e > 0 for e in glob.errors["ey_l2"])


def test_runner_guards_example_kind():
    with pytest.raises(ValueError):
        run_boundary_layer(ExperimentConfig("stability"))
    with pytest.raises(ValueError):
        run_interior_layer(ExperimentConfig("boundary-layer"))
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
        "--out", str(tmp_path / "out"), "--seed", "42",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bounds_ok=True" in out
    echo = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echo["seed"] == 42
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


def test_cli_rejects_unknown_example():
    with pytest.raises(SystemExit):
        main(["--example", "vortex"])
