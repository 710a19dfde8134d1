import numpy as np
import pytest

from eafe_control import mesh as mesh_module
from eafe_control.mesh import (
    DIAGONAL_CONVENTIONS,
    MeshCapacityError,
    TriMesh,
    build_unit_square,
    delaunay_check,
    nested_dissection_order,
    read_node_ele,
    signed_areas,
    uniform_refine,
    write_node_ele,
    write_vtk,
)
from legacy_vtk import read_legacy_vtk, same_bits


def test_level1_counts():
    mesh = build_unit_square(1)
    assert mesh.num_vertices == 9
    assert mesh.num_triangles == 8
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-15)


def test_level3_counts():
    mesh = build_unit_square(3)
    assert mesh.num_vertices == 81
    assert mesh.num_triangles == 128


def test_level8_counts_match_formula():
    # formula (2^k+1)^2 and 2*4^k, cross-checked by explicit construction
    mesh = build_unit_square(8)
    assert mesh.num_vertices == (2**8 + 1) ** 2 == 66049
    assert mesh.num_triangles == 2 * 4**8 == 131072


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_areas_positive_and_sum_to_one(level):
    mesh = build_unit_square(level)
    areas = signed_areas(mesh)
    assert np.all(areas > 0.0)
    assert abs(areas.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("level", [1, 2, 3])
def test_euler_formula(level):
    mesh = build_unit_square(level)
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_edge_triangle_adjacency(level):
    mesh = build_unit_square(level)
    boundary = mesh.edge_tris[:, 1] < 0
    # interior edges touch exactly 2 triangles, boundary edges exactly 1
    assert np.all(mesh.edge_tris[:, 0] >= 0)
    n = 2**level
    assert boundary.sum() == 4 * n


def test_mesh_size_halves_per_level():
    h1 = build_unit_square(1).h
    for level in [2, 3, 4]:
        assert build_unit_square(level).h == pytest.approx(
            2.0 ** (1 - level) * h1, rel=1e-14
        )


def test_conforming_no_hanging_vertices():
    mesh = build_unit_square(3)
    # every vertex of an edge belongs to each adjacent triangle's vertex set
    for e in range(mesh.num_edges):
        i, j = mesh.edges[e]
        for t in mesh.edge_tris[e]:
            if t >= 0:
                tri = set(mesh.triangles[t])
                assert i in tri and j in tri


def test_capacity_errors():
    with pytest.raises(MeshCapacityError):
        build_unit_square(0)
    with pytest.raises(MeshCapacityError):
        build_unit_square(12)  # (2^12+1)^2 > 10^6


def test_refine_counts_and_boundary():
    fine = uniform_refine(build_unit_square(1))
    assert fine.level == 2
    assert fine.num_vertices == 25
    assert fine.num_triangles == 32
    assert fine.boundary_vertex.sum() == 4 * 2**2
    coarse = build_unit_square(1)
    assert coarse.boundary_vertex.sum() == 4 * 2**1


def test_refine_matches_direct_build():
    refined = uniform_refine(build_unit_square(2))
    direct = build_unit_square(3)
    # vertex coordinate sets coincide exactly (dyadic midpoints)
    assert set(map(tuple, refined.vertices)) == set(map(tuple, direct.vertices))
    assert refined.num_triangles == direct.num_triangles


def test_refine_capacity_error():
    mesh = build_unit_square(3)
    with pytest.raises(MeshCapacityError):
        uniform_refine(mesh, vertex_cap=100)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_delaunay_structured(level):
    report = delaunay_check(build_unit_square(level))
    assert report.ok
    assert report.violating_edges == []


def test_delaunay_refined():
    assert delaunay_check(uniform_refine(build_unit_square(2))).ok


def test_delaunay_equilateral():
    mesh = TriMesh(
        [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]], [[0, 1, 2]]
    )
    assert delaunay_check(mesh).ok


def test_delaunay_violation_detected():
    # two obtuse triangles across the shared edge (opposite angles > 90 deg)
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.12], [0.5, -0.12]]
    tris = [[0, 1, 2], [0, 3, 1]]
    mesh = TriMesh(verts, tris)
    report = delaunay_check(mesh)
    assert not report.ok
    (bad,) = report.violating_edges
    assert sorted(mesh.edges[bad]) == [0, 1]


def test_other_diagonal_convention():
    mesh = build_unit_square(2, diagonal=DIAGONAL_CONVENTIONS[1])
    assert mesh.num_triangles == 32
    assert np.all(signed_areas(mesh) > 0.0)
    assert delaunay_check(mesh).ok


def test_node_ele_round_trip(tmp_path):
    mesh = build_unit_square(2)
    path = tmp_path / "mesh.txt"
    write_node_ele(mesh, path)
    back = read_node_ele(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_vertex, mesh.boundary_vertex)


def test_node_ele_round_trip_of_renumbered_mesh(tmp_path):
    base = build_unit_square(4)
    rng = np.random.default_rng(11)
    # coordinates that need all 17 significant digits to round-trip
    jittered = base.vertices + 1e-3 * rng.random(base.vertices.shape) * (
        ~base.boundary_vertex[:, None])
    perm = rng.permutation(base.num_vertices)
    vertices = np.empty_like(jittered)
    vertices[perm] = jittered
    triangles = perm[base.triangles][rng.permutation(base.num_triangles)]
    mesh = TriMesh(vertices, triangles, level=4)
    path = tmp_path / "mesh.txt"
    write_node_ele(mesh, path)
    back = read_node_ele(path)
    assert back.vertices.dtype == np.float64
    assert back.triangles.dtype == np.int64
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.edges, mesh.edges)
    assert np.array_equal(back.boundary_vertex, mesh.boundary_vertex)


NODE_ELE = "4 2\n0.0 0.0 1\n1.0 0.0 1\n1.0 1.0 1\n0.0 1.0 1\n0 1 2\n0 2 3\n"


@pytest.mark.parametrize("old, new", [
    ("1.0 0.0 1\n", "1.0 0.0\n"),  # vertex line: 2 tokens
    ("1.0 0.0 1\n", "1.0 0.0 1 7\n"),  # vertex line: 4 tokens
    ("1.0 0.0 1\n", "\n1.0 0.0 1\n"),  # blank line among the vertices
    ("0 2 3\n", "0 2\n"),  # triangle line: 2 tokens
    ("0 2 3\n", "0 2 3 1\n"),  # triangle line: 4 tokens
    ("0 2 3\n", "0 2.5 3\n"),  # non-integer vertex index
    ("0 2 3\n", ""),  # file ends early
    ("0 2 3\n", "0 2 -1\n"),  # vertex index below 0
    ("0 2 3\n", "0 2 4\n"),  # vertex index past the last vertex
    ("4 2\n", "4\n"),  # header: 1 token
], ids=["vertex-2", "vertex-4", "vertex-blank", "triangle-2", "triangle-4",
        "triangle-float", "truncated", "triangle-negative",
        "triangle-out-of-range", "header"])
def test_read_node_ele_rejects_malformed_input(tmp_path, old, new):
    path = tmp_path / "mesh.txt"
    path.write_text(NODE_ELE)
    assert read_node_ele(path).num_triangles == 2
    path.write_text(NODE_ELE.replace(old, new, 1))
    with pytest.raises(ValueError):
        read_node_ele(path)


def test_vtk_export(tmp_path):
    mesh = build_unit_square(1)
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, path, point_data={"field": np.arange(9.0)})
    vtk = read_legacy_vtk(path)
    assert vtk.lines == [
        "# vtk DataFile Version 2.0", "unstructured grid", "BINARY",
        "DATASET UNSTRUCTURED_GRID", "POINTS 9 double", "CELLS 8 32",
        "CELL_TYPES 8", "POINT_DATA 9", "SCALARS field double",
        "LOOKUP_TABLE default"]
    assert same_bits(vtk.points[:, :2], mesh.vertices)
    assert not vtk.points[:, 2].any()
    assert np.array_equal(vtk.cells[:, 1:], mesh.triangles)
    assert (vtk.cells[:, 0] == 3).all() and (vtk.cell_types == 5).all()
    assert same_bits(vtk.fields["field"], np.arange(9.0))
    with pytest.raises(ValueError):
        write_vtk(mesh, path, point_data={"bad": np.zeros(3)})


def test_vtk_without_point_data_ends_after_cell_types(tmp_path):
    mesh = build_unit_square(1)
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, path, title="bare")
    vtk = read_legacy_vtk(path)
    assert vtk.lines[1] == "bare" and vtk.lines[-1] == "CELL_TYPES 8"
    assert vtk.fields == {}


@pytest.mark.parametrize("fields", [
    {"bad": np.zeros(3)},
    {"bad": np.zeros((9, 1))},
    {"good": np.arange(9.0), "bad": np.zeros(10)},
], ids=["short", "column", "second-field"])
def test_vtk_bad_point_data_writes_nothing(tmp_path, fields):
    path = tmp_path / "mesh.vtk"
    with pytest.raises(ValueError, match="bad"):
        write_vtk(build_unit_square(1), path, point_data=fields)
    assert not path.exists()


def test_block_writers_match_per_line_reference(tmp_path):
    base = build_unit_square(3)
    rng = np.random.default_rng(5)
    # coordinates that need all 17 significant digits to round-trip
    vertices = base.vertices + 1e-3 * rng.random(base.vertices.shape) * (
        ~base.boundary_vertex[:, None])
    mesh = TriMesh(vertices, base.triangles, level=3)
    field = rng.standard_normal(mesh.num_vertices)

    node_path = tmp_path / "mesh.txt"
    write_node_ele(mesh, node_path)
    ref = ["%d %d\n" % (mesh.num_vertices, mesh.num_triangles)]
    for (x, y), b in zip(mesh.vertices, mesh.boundary_vertex):
        ref.append("%r %r %d\n" % (float(x), float(y), int(b)))
    for i, j, k in mesh.triangles:
        ref.append("%d %d %d\n" % (i, j, k))
    assert node_path.read_text() == "".join(ref)

    vtk_path = tmp_path / "mesh.vtk"
    write_vtk(mesh, vtk_path, point_data={"f": field}, title="t")
    nv, nt = mesh.num_vertices, mesh.num_triangles
    vtk = read_legacy_vtk(vtk_path)
    assert vtk.lines == [
        "# vtk DataFile Version 2.0", "t", "BINARY", "DATASET UNSTRUCTURED_GRID",
        "POINTS %d double" % nv, "CELLS %d %d" % (nt, 4 * nt),
        "CELL_TYPES %d" % nt, "POINT_DATA %d" % nv, "SCALARS f double",
        "LOOKUP_TABLE default"]
    ref = np.array([[x, y, 0.0] for x, y in mesh.vertices.tolist()])
    assert same_bits(vtk.points, ref)
    ref = np.array([[3, i, j, k] for i, j, k in mesh.triangles.tolist()],
                   dtype=np.int32)
    assert same_bits(vtk.cells, ref)
    assert same_bits(vtk.cell_types, np.full(nt, 5, dtype=np.int32))
    assert list(vtk.fields) == ["f"]
    assert same_bits(vtk.fields["f"], np.array(field.tolist()))


def test_edge_connectivity_matches_lexicographic_unique_on_renumbered_mesh():
    base = build_unit_square(4)
    rng = np.random.default_rng(3)
    perm = rng.permutation(base.num_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    triangles = perm[base.triangles][rng.permutation(base.num_triangles)]
    mesh = TriMesh(vertices, triangles, level=4)

    # reference: lexicographic unique over the sorted (i, j) rows
    m = mesh.num_triangles
    pairs = np.concatenate([triangles[:, (0, 1)], triangles[:, (1, 2)],
                            triangles[:, (2, 0)]])
    edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0,
                               return_inverse=True)
    inverse = inverse.ravel()
    edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    for k, e in enumerate(inverse):
        slot = 0 if edge_tris[e, 0] < 0 else 1
        edge_tris[e, slot] = k % m
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.tri_edges, inverse.reshape(3, m).T)
    assert np.array_equal(mesh.edge_tris, edge_tris)


def test_nested_dissection_order_is_a_cached_permutation(monkeypatch):
    built = []
    build = mesh_module._nested_dissection_order
    monkeypatch.setattr(mesh_module, "_nested_dissection_order",
                        lambda mesh: built.append(mesh) or build(mesh))
    meshes = [build_unit_square(1), build_unit_square(5),
              uniform_refine(build_unit_square(3, diagonal=DIAGONAL_CONVENTIONS[1]))]
    for mesh in meshes:
        order = nested_dissection_order(mesh)
        assert np.array_equal(np.sort(order), np.arange(mesh.num_vertices))
        assert nested_dissection_order(mesh) is order
        with pytest.raises(ValueError):
            order[0] = 1
    assert built == meshes
    # 9 vertices fit in one leaf: the order keeps the numbering
    assert nested_dissection_order(meshes[0]).tolist() == list(range(9))


def test_nested_dissection_numbers_each_separator_after_its_halves():
    # level 3: 81 vertices, 3 cuts deep; the first cut bisects the box at
    # x = 1/2, and its separator, the left ends of the edges across it,
    # is the column x = 3/8, numbered after the 27 vertices left of it
    # and the 45 right of the cut
    mesh = build_unit_square(3)
    order = nested_dissection_order(mesh)
    x = mesh.vertices[order, 0]
    assert np.all(x[:27] < 0.375) and np.all(x[27:72] >= 0.5)
    assert np.all(x[72:] == 0.375)
    # once the separator is removed, no edge joins the two halves
    rank = np.empty(81, dtype=int)
    rank[order] = np.arange(81)
    ends = rank[mesh.edges]
    assert not np.any((ends.min(axis=1) < 27) & (ends.max(axis=1) >= 27)
                      & (ends.max(axis=1) < 72))
