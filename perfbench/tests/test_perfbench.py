"""
Tests of the benchmark itself:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import node_ele  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# seeded input


def test_same_seed_gives_identical_node_ele_bytes(tmp_path):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    counts = node_ele.write_input(a, 4, seed=7)
    node_ele.write_input(b, 4, seed=7)
    node_ele.write_input(c, 4, seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert counts == {"vertices": 289, "triangles": 512, "edges": 800}


def test_node_ele_input_reads_back_as_the_unit_square(tmp_path):
    mesh = pytest.importorskip("eafe_control.mesh")
    path = tmp_path / "m.node_ele"
    counts = node_ele.write_input(path, 3, seed=1)
    m = mesh.read_node_ele(path)
    ref = mesh.build_unit_square(3)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (
        counts["vertices"], counts["triangles"], counts["edges"])
    assert sorted(map(tuple, m.vertices.tolist())) == sorted(
        map(tuple, ref.vertices.tolist()))
    assert m.boundary_vertex.sum() == ref.boundary_vertex.sum()
    lines = path.read_text().splitlines()[1:1 + m.num_vertices]
    flags = [int(line.split()[2]) for line in lines]
    assert flags == m.boundary_vertex.astype(int).tolist()


# ----------------------------------------------------------------------
# span arithmetic


def _span(sid, parent, name, start, end, **attrs):
    return dict(id=sid, parent=parent, name=name, start=start, end=end,
                rss_kb=0, **attrs)


def test_self_time_subtracts_child_spans():
    tree = [
        _span(0, None, "optimal_control.solve", 0.0, 10.0),
        _span(1, 0, "eafe.assemble_eafe_stiffness", 1.0, 4.0),
        _span(2, 1, "mesh.delaunay_check", 2.0, 3.5),
        _span(3, 0, "sparse_linalg.BlockSaddleSystem.solve", 5.0, 9.0),
        _span(4, 3, "sparse_linalg.solve_direct", 5.5, 8.5),
        _span(5, None, "cli.main", 20.0, 21.0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 1.5, 2: 1.5, 3: 1.0, 4: 3.0,
                                 5: 1.0})
    assert sum(got.values()) == pytest.approx(10.0 + 1.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, None, "a", 0.0, 10.0),
        _span(1, 0, "b", 1.0, 5.0),
        _span(2, 0, "c", 3.0, 6.0),
        _span(3, 0, "d", 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_sum_self_times_and_counts():
    tree = [
        _span(0, None, "optimal_control.solve", 0.0, 10.0),
        _span(1, 0, "eafe.assemble_eafe_stiffness", 1.0, 4.0),
        _span(2, 1, "mesh.delaunay_check", 2.0, 3.5),
        _span(3, 0, "sparse_linalg.BlockSaddleSystem.operator", 4.0, 5.0,
              order=18, nnz=100),
        _span(4, 0, "sparse_linalg.solve_direct", 5.0, 9.0),
        _span(5, None, "verify_norms.certify_m_matrix", 10.0, 12.0, rows=9),
        _span(6, 5, "sparse_linalg.inverse_nonneg_check", 10.5, 11.5),
    ]
    tree[4]["rss_kb"] = 2048
    m = spans.layer_metrics(tree, {"eafe.bernoulli_evals": 48})
    assert m["optimal_control.solve_self_s"] == pytest.approx(2.0)
    assert m["eafe.assemble_s"] == pytest.approx(1.5)
    assert m["mesh.delaunay_s"] == pytest.approx(1.5)
    assert m["sparse_linalg.solve_s"] == pytest.approx(4.0)
    assert m["verify_norms.certify_s"] == pytest.approx(1.0)
    assert m["sparse_linalg.inverse_scan_s"] == pytest.approx(1.0)
    assert m["mesh.write_s"] == 0
    assert (m["eafe.assemble_calls"], m["eafe.bernoulli_evals"],
            m["sparse_linalg.system_order"], m["sparse_linalg.system_nnz"],
            m["verify_norms.certify_rows"]) == (1, 48, 18, 100, 9)
    assert m["sparse_linalg.rss_rise_mb"] == pytest.approx(2.0)


def test_tracer_patches_every_binding_and_undoes_it():
    pytest.importorskip("eafe_control")
    from eafe_control import experiments, mesh, verify_norms

    original = mesh.build_unit_square
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        assert experiments.build_unit_square is mesh.build_unit_square
        assert verify_norms.build_unit_square is not original
        m = experiments.build_unit_square(2)
        from eafe_control import eafe, fem_core

        coeff = experiments.coefficient_sets()["stability"]
        eafe.assemble_eafe_stiffness(m, coeff)
        fem_core.assemble_mass(m)
    finally:
        uninstall()
    assert mesh.build_unit_square is original
    assert experiments.build_unit_square is original
    assert tracer.missing == []
    names = [s["name"] for s in tracer.spans]
    assert names[:2] == ["mesh.build_unit_square", "mesh.TriMesh.__init__"]
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]
    metrics = spans.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["mesh.triangles"] == m.num_triangles
    assert metrics["eafe.assemble_calls"] == 1
    assert metrics["eafe.bernoulli_evals"] == 6 * m.num_triangles


# ----------------------------------------------------------------------
# output checks reject corrupted results


@pytest.fixture
def reference():
    with open(os.path.join(BENCH_DIR, "reference", "bl-conv-l8.json")) as fh:
        return json.load(fh)


def _write_tables(out, reference, scale=1.0):
    from eafe_control.verify_norms import ConvergenceTable

    for kind, ref in reference.items():
        errors = {c: [v * scale for v in vals]
                  for c, vals in ref["errors"].items()}
        ConvergenceTable(ref["levels"], errors).to_csv(
            os.path.join(out, "boundary-layer_eafe_%s.csv" % kind))


def test_bl_conv_check_accepts_reference_and_rejects_corruption(tmp_path,
                                                                reference):
    verify_norms = pytest.importorskip("eafe_control.verify_norms")
    table = verify_norms.ConvergenceTable
    _write_tables(tmp_path, reference)
    assert checks.check_bl_conv(tmp_path, reference, table) == []

    _write_tables(tmp_path, reference, scale=1.0 + 1e-9)  # last-bit noise
    assert checks.check_bl_conv(tmp_path, reference, table) == []

    _write_tables(tmp_path, reference, scale=1.0 + 1e-4)
    assert checks.check_bl_conv(tmp_path, reference, table)

    _write_tables(tmp_path, reference)
    path = tmp_path / "boundary-layer_eafe_local.csv"
    path.write_text(path.read_text().replace("\n8,", "\n9,"))
    assert checks.check_bl_conv(tmp_path, reference, table)

    os.remove(tmp_path / "boundary-layer_eafe_global.csv")
    assert checks.check_bl_conv(tmp_path, reference, table)


def _write_bounds(out, levels, eafe_ok=True, galerkin_ok=False):
    for scheme, ok in (("eafe", eafe_ok), ("galerkin", galerkin_ok)):
        for k in levels:
            with open(os.path.join(out, "stability_%s_k%d_bounds.json"
                                   % (scheme, k)), "w") as fh:
                json.dump({"ok": ok, "worst_adjoint": 0.0}, fh)


def test_stability_check_rejects_corruption(tmp_path):
    levels = (3, 4, 5)
    _write_bounds(tmp_path, levels)
    assert checks.check_stability(tmp_path, levels) == []

    _write_bounds(tmp_path, levels, eafe_ok=False)
    assert len(checks.check_stability(tmp_path, levels)) == 3

    _write_bounds(tmp_path, levels, galerkin_ok=True)
    assert len(checks.check_stability(tmp_path, levels)) == 3

    _write_bounds(tmp_path, levels)
    os.remove(tmp_path / "stability_eafe_k4_bounds.json")
    assert len(checks.check_stability(tmp_path, levels)) == 1


def test_nodeele_check_rejects_corruption():
    expected = {"vertices": 289, "triangles": 512, "edges": 800,
                "coefficient_sets": ["a", "b"]}
    good = {"vertices": 289, "triangles": 512, "edges": 800,
            "certificates": {"a": True, "b": True}, "delaunay_ok": True,
            "mass_total": 1.0 - 2e-16}
    assert checks.check_nodeele(good, expected) == []
    corruptions = [
        {"edges": 799},
        {"vertices": 288},
        {"certificates": {"a": True, "b": False}},
        {"certificates": {"a": True}},
        {"delaunay_ok": False},
        {"mass_total": 0.999},
    ]
    for change in corruptions:
        assert checks.check_nodeele(dict(good, **change), expected), change


# ----------------------------------------------------------------------
# the benchmark definition matches what the runner reports


def test_benchmark_json_names_the_runner_metrics():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    # nodeele-certify-l9 is run by hand only (see README.md)
    assert [w["name"] for w in bench["workloads"]] == \
        [w for w in run.WORKLOADS if w != "nodeele-certify-l9"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER_UNITS


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with pytest.raises(SystemExit) as exc:
            run.run(run.parse_args(["--workload", "bl-conv-l8", "--seed", "1",
                                    "--seconds", "1"]))
    finally:
        os.chdir(cwd)
    assert exc.value.code not in (0, None)
