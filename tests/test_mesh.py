import numpy as np
import pytest

from eafe_control import mesh as mesh_module
from eafe_control.mesh import (
    GeometryError,
    MeshCapacityError,
    TriMesh,
    build_unit_square,
    delaunay_check,
    nested_dissection_order,
    read_node_ele,
    signed_areas,
    unit_square_vertex_count,
    write_vtk,
)
from legacy_vtk import read_legacy_vtk, same_bits
from reference import (
    build_unit_square_upperleft,
    edge_connectivity,
    jittered_renumbered_mesh,
    uniform_refine,
    write_node_ele,
)


def edge_tris_of(mesh):
    """The adjacent triangles of each edge, which the mesh does not keep."""
    return edge_connectivity(mesh.triangles)[1]


def boundary_edges_of(mesh):
    """The package's boundary-edge mask, which the mesh does not keep."""
    return mesh_module._edge_connectivity(mesh.triangles)[1]


def test_mesh_keeps_no_edge_triangle_adjacency():
    mesh = build_unit_square(3)
    assert not hasattr(mesh, "edge_tris")
    # the boundary edges are the one-triangle edges, and the boundary
    # flags are their ends
    assert np.array_equal(boundary_edges_of(mesh), edge_tris_of(mesh)[:, 1] < 0)
    boundary = np.zeros(mesh.num_vertices, dtype=bool)
    boundary[mesh.edges[boundary_edges_of(mesh)].ravel()] = True
    assert np.array_equal(mesh.boundary_vertex, boundary)


def test_level1_counts():
    mesh = build_unit_square(1)
    assert mesh.num_vertices == 9
    assert mesh.num_triangles == 8


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
    edge_tris = edge_tris_of(mesh)
    boundary = edge_tris[:, 1] < 0
    # interior edges touch exactly 2 triangles, boundary edges exactly 1
    assert np.all(edge_tris[:, 0] >= 0)
    n = 2**level
    assert boundary.sum() == 4 * n


def test_conforming_no_hanging_vertices():
    mesh = build_unit_square(3)
    # every vertex of an edge belongs to each adjacent triangle's vertex set
    edge_tris = edge_tris_of(mesh)
    for e in range(mesh.num_edges):
        i, j = mesh.edges[e]
        for t in edge_tris[e]:
            if t >= 0:
                tri = set(mesh.triangles[t])
                assert i in tri and j in tri


def test_capacity_errors():
    with pytest.raises(MeshCapacityError):
        build_unit_square(0)
    with pytest.raises(MeshCapacityError):
        build_unit_square(12)  # (2^12+1)^2 > 10^6
    for level in (2.7, 3.0, np.float64(2.0), "3", True, np.True_):
        message = "level must be an integer, got %r" % (level,)
        for call in (build_unit_square, unit_square_vertex_count):
            with pytest.raises(MeshCapacityError) as exc:
                call(level)
            assert str(exc.value) == message
    # numpy integers are integers
    assert build_unit_square(np.int64(2)).num_vertices == 25
    assert unit_square_vertex_count(np.int32(3)) == 81


def test_refine_counts_and_boundary():
    fine = uniform_refine(build_unit_square(1))
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


def test_refine_capacity_error(monkeypatch):
    mesh = build_unit_square(3)
    monkeypatch.setattr(mesh_module, "DEFAULT_VERTEX_CAP", 100)
    with pytest.raises(MeshCapacityError):
        uniform_refine(mesh)


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
    mesh = build_unit_square_upperleft(2)
    assert mesh.num_triangles == 32
    assert np.all(signed_areas(mesh) > 0.0)
    assert delaunay_check(mesh).ok
    # level 1: cell (v00, v10, v11, v01) gives (v00, v10, v01), (v10, v11, v01)
    coarse = build_unit_square_upperleft(1)
    assert np.array_equal(coarse.vertices, build_unit_square(1).vertices)
    assert coarse.triangles.tolist() == [
        [0, 1, 3], [1, 4, 3], [1, 2, 4], [2, 5, 4],
        [3, 4, 6], [4, 7, 6], [4, 5, 7], [5, 8, 7]]


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
    mesh = TriMesh(vertices, triangles)
    path = tmp_path / "mesh.txt"
    write_node_ele(mesh, path)
    back = read_node_ele(path)
    assert back.vertices.dtype == np.float64
    assert back.triangles.dtype == np.int32
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
    mesh = TriMesh(vertices, base.triangles)
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
    mesh = TriMesh(vertices, triangles)

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
    assert np.array_equal(edge_tris_of(mesh), edge_tris)
    assert np.array_equal(boundary_edges_of(mesh), edge_tris[:, 1] < 0)


def assert_connectivity_matches_reference(mesh):
    edges, edge_tris, tri_edges = edge_connectivity(mesh.triangles)
    for got, want in ((mesh.edges, edges), (mesh.tri_edges, tri_edges)):
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)
    assert np.array_equal(boundary_edges_of(mesh), edge_tris[:, 1] < 0)


@pytest.mark.parametrize("build", [build_unit_square,
                                   build_unit_square_upperleft],
                         ids=["lowerleft-upperright", "upperleft-lowerright"])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 8])
def test_connectivity_matches_reference_on_structured_meshes(level, build):
    assert_connectivity_matches_reference(build(level))


def test_connectivity_matches_reference_along_a_refinement_chain():
    mesh = build_unit_square_upperleft(1)
    for _ in range(5):
        mesh = uniform_refine(mesh)
        assert_connectivity_matches_reference(mesh)


def test_connectivity_matches_reference_on_jittered_renumbered_mesh():
    assert_connectivity_matches_reference(jittered_renumbered_mesh(5, seed=5))


def test_connectivity_matches_reference_on_renumbered_level_8_mesh():
    # 66 049 vertices: the pair key i * N + j of an edge no longer fits in
    # int32, while every index of the connectivity does
    mesh = jittered_renumbered_mesh(8, seed=8)
    assert mesh.num_vertices ** 2 > np.iinfo(np.int32).max
    assert_connectivity_matches_reference(mesh)


def test_non_manifold_edge_raises():
    # three triangles on the edge (0, 1), all counterclockwise
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.3, 3.0]]
    with pytest.raises(GeometryError, match="non-manifold"):
        TriMesh(vertices, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def test_mesh_without_triangles_raises():
    with pytest.raises(GeometryError, match="no triangles"):
        TriMesh([[0.0, 0.0], [1.0, 0.0]], np.empty((0, 3), dtype=np.int64))


@pytest.mark.parametrize("vertices, triangles, message", [
    (SQUARE, [[0, 1], [0, 2]], r"triangles .* got shape \(2, 2\)"),
    (SQUARE, [[0, 1, 2, 3]], r"triangles .* got shape \(1, 4\)"),
    (SQUARE, [0, 1, 2], r"triangles .* got shape \(3,\)"),
    ([[x, y, 0.0] for x, y in SQUARE], [[0, 1, 2], [0, 2, 3]],
     r"vertices .* got shape \(4, 3\)"),
    # a cast would truncate these to the valid [[0, 1, 2], [0, 2, 3]]
    (SQUARE, np.array([[0.0, 1.9, 2.2], [0.4, 2.0, 3.0]]),
     "must be integers, got dtype float64"),
    (SQUARE, np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 3.0]]),
     "must be integers, got dtype float64"),
    (SQUARE, np.array([[False, True, True], [False, True, True]]),
     "must be integers, got dtype bool"),
    # wraps negative in the int64 cast, which the range check then sees
    (SQUARE, np.array([[0, 1, 2**63 + 2]], dtype=np.uint64),
     r"must lie in \[0, 4\)"),
], ids=["triangles-m2", "triangles-m4", "triangles-flat", "vertices-n3",
        "triangles-float", "triangles-integral-float", "triangles-bool",
        "triangles-uint64-past-int64"])
def test_misshapen_arrays_raise(vertices, triangles, message):
    with pytest.raises(GeometryError, match=message):
        TriMesh(vertices, triangles)


def test_integer_triangles_of_any_width_build_one_mesh():
    want = TriMesh(SQUARE, [[0, 1, 2], [0, 2, 3]])
    assert repr(want) == "TriMesh(vertices=4, triangles=2)"
    for dtype in (np.int32, np.int64, np.uint64):
        mesh = TriMesh(SQUARE, np.array(want.triangles, dtype=dtype))
        for name in ("vertices", "triangles", "edges", "tri_edges",
                     "boundary_vertex", "areas"):
            got, ref = getattr(mesh, name), getattr(want, name)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_vertex_raises(tmp_path, bad):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    vertices[2, 1] = bad
    with pytest.raises(GeometryError, match="vertex 2 "):
        TriMesh(vertices, [[0, 1, 2], [0, 2, 3]])
    path = tmp_path / "mesh.txt"
    path.write_text(NODE_ELE.replace("1.0 1.0 1\n", "1.0 %r 1\n" % bad, 1))
    with pytest.raises(GeometryError, match="vertex 2 "):
        read_node_ele(path)


def test_vertex_in_no_triangle_raises(tmp_path):
    # a free vertex would be an interior dof with an empty matrix row, and
    # the solve would end in an exactly singular factor
    base = build_unit_square(3)
    free = [[0.5, 0.53125], [0.25, 0.53125]]
    with pytest.raises(GeometryError, match="^vertex 81 belongs to no triangle"):
        TriMesh(np.vstack([base.vertices, free]), base.triangles)
    with pytest.raises(GeometryError, match="^vertex 0 belongs to no triangle"):
        TriMesh(np.vstack([free[:1], base.vertices]), base.triangles + 1)
    path = tmp_path / "mesh.txt"
    write_node_ele(base, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = "82 %d\n" % base.num_triangles
    lines.insert(82, "0.5 0.53125 0\n")
    path.write_text("".join(lines))
    with pytest.raises(GeometryError, match="^vertex 81 belongs to no triangle"):
        read_node_ele(path)


def test_nested_dissection_order_is_a_permutation_built_per_call():
    meshes = [build_unit_square(1), build_unit_square(5),
              uniform_refine(build_unit_square_upperleft(3))]
    for mesh in meshes:
        order = nested_dissection_order(mesh)
        # int32, like the mesh's index arrays
        assert order.dtype == np.int32
        assert np.array_equal(np.sort(order), np.arange(mesh.num_vertices))
        # the mesh keeps no order: each call builds an equal, fresh one
        again = nested_dissection_order(mesh)
        assert np.array_equal(again, order)
        assert not np.shares_memory(again, order)
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
