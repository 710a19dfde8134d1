"""
Structured conforming triangulations of the unit square.

Meshes are stored as flat numpy arrays (vertices, triangles, edges) with
full edge-to-triangle connectivity, so that edge-based schemes and the
Delaunay/monotonicity checks can run without touching any geometry code
again.  All cells of the structured family are split along the
lower-left-to-upper-right diagonal; the convention is recorded on the mesh
(``diagonal`` attribute) because layer-resolution behavior depends on it.

A built mesh is immutable, and this is enforced: its vertex and triangle
arrays are private read-only copies, so what a mesh caches (signed areas
and the nested-dissection vertex order here, gradient tables and
quadrature points in ``fem_core``) can never go stale.
"""

import numpy as np

DIAGONAL_CONVENTION = "lowerleft-upperright"

#: both cell-splitting conventions the structured builder supports
DIAGONAL_CONVENTIONS = ("lowerleft-upperright", "upperleft-lowerright")

DEFAULT_VERTEX_CAP = 1_000_000

#: largest vertex count of a leaf cell of the nested-dissection order
ND_LEAF_SIZE = 16

#: local edges of a triangle (v0,v1,v2), each ordered tail -> head
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


class MeshCapacityError(ValueError):
    """Requested mesh exceeds the configured vertex budget."""


class GeometryError(ValueError):
    """Degenerate or inverted element, or a vertex index out of range."""


class TriMesh:
    """
    Conforming triangle mesh of a planar domain.

    Attributes
    ----------
    vertices : (N, 2) float array
        Vertex coordinates.
    triangles : (M, 3) int array
        Vertex indices per triangle, counterclockwise.
    edges : (E, 2) int array
        Unique edges as (i, j) with i < j.
    edge_tris : (E, 2) int array
        Adjacent triangle indices per edge; second entry is -1 for
        boundary edges.
    tri_edges : (M, 3) int array
        Edge index of each local edge (LOCAL_EDGES order).
    boundary_vertex : (N,) bool array
        True for vertices lying on the domain boundary.
    level : int
        Refinement level (>= 1 for the structured family).
    h : float
        Mesh size, max over triangles of their diameter.
    diagonal : str
        Cell-splitting convention tag.

    ``vertices`` and ``triangles`` are read-only copies of the inputs.
    """

    def __init__(self, vertices, triangles, level=1, diagonal=DIAGONAL_CONVENTION):
        self.vertices = _readonly(np.array(vertices, dtype=float, order="C"))
        self.triangles = _readonly(np.array(triangles, dtype=np.int64, order="C"))
        self.level = int(level)
        self.diagonal = diagonal
        self._geometry = {}
        t = self.triangles
        if t.size and (t.min() < 0 or t.max() >= self.num_vertices):
            raise GeometryError("triangle vertex indices must lie in [0, %d)"
                                % self.num_vertices)

        areas = signed_areas(self)
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise GeometryError(
                "triangle %d has non-positive signed area %g" % (bad, areas[bad])
            )

        self.edges, self.edge_tris, self.tri_edges = _edge_connectivity(self.triangles)
        boundary_edges = self.edge_tris[:, 1] < 0
        flag = np.zeros(self.num_vertices, dtype=bool)
        flag[self.edges[boundary_edges].ravel()] = True
        self.boundary_vertex = flag

        p = self.vertices[self.triangles]
        side = np.stack(
            [
                np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
                np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
            ],
            axis=1,
        )
        self.h = float(side.max())

    def cached(self, key, build):
        """Read-only geometry under ``key``, from the first ``build()`` that returns."""
        if key not in self._geometry:
            self._geometry[key] = _readonly(build())
        return self._geometry[key]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def interior_vertices(self):
        """Indices of non-boundary vertices."""
        return np.flatnonzero(~self.boundary_vertex)

    def __repr__(self):
        return "TriMesh(level=%d, vertices=%d, triangles=%d, h=%.4g)" % (
            self.level,
            self.num_vertices,
            self.num_triangles,
            self.h,
        )


def _edge_connectivity(triangles):
    """Unique (i<j) edges, their adjacent triangles, and the tri->edge map."""
    m = triangles.shape[0]
    pairs = np.concatenate(
        [triangles[:, (a, b)] for a, b in LOCAL_EDGES], axis=0
    )
    pairs_sorted = np.sort(pairs, axis=1)
    # one int64 key per (i<j) pair; key order is lexicographic pair order
    nv = int(pairs_sorted.max()) + 1
    keys, inverse = np.unique(pairs_sorted[:, 0] * nv + pairs_sorted[:, 1],
                              return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1)
    tri_edges = inverse.reshape(3, m).T.copy()

    counts = np.bincount(inverse, minlength=edges.shape[0])
    if counts.max() > 2:
        raise GeometryError("non-manifold edge: more than two adjacent triangles")
    edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    tri_of_pair = np.tile(np.arange(m, dtype=np.int64), 3)
    # first pass fills slot 0, second fills slot 1
    order = np.argsort(inverse, kind="stable")
    sorted_edges = inverse[order]
    sorted_tris = tri_of_pair[order]
    first = np.ones(len(sorted_edges), dtype=bool)
    first[1:] = sorted_edges[1:] != sorted_edges[:-1]
    edge_tris[sorted_edges[first], 0] = sorted_tris[first]
    second = ~first
    edge_tris[sorted_edges[second], 1] = sorted_tris[second]
    return edges, edge_tris, tri_edges


def _readonly(array):
    array.flags.writeable = False
    return array


def signed_areas(mesh):
    """Signed area of every triangle (positive for counterclockwise), read-only."""
    return mesh.cached("areas", lambda: _signed_areas(mesh))


def _signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def nested_dissection_order(mesh):
    """
    Fill-reducing vertex order by geometric nested dissection, read-only.

    The bounding box is bisected alternately in x and in y, d times, with
    d = ceil(log2(N / ND_LEAF_SIZE)); each vertex's d-bit cell code
    interleaves its quantized coordinate bits, as in a Morton code.  The
    smaller-code end of an edge whose codes first differ at bit t joins
    the depth-t separator (the shallowest one wins), so every edge across
    a cut touches a separator at that depth or above, and the vertices are
    numbered in postorder: each separator after its two halves (George,
    SIAM J. Numer. Anal. 10, 1973).  Valid on any mesh; graded meshes
    give less balanced halves.
    """
    return mesh.cached("nd_order", lambda: _nested_dissection_order(mesh))


def _nested_dissection_order(mesh):
    v = mesh.vertices
    n = mesh.num_vertices
    d = max(int(np.ceil(np.log2(n / ND_LEAF_SIZE))), 0)
    bits = ((d + 1) // 2, d // 2)  # x takes the even depths, y the odd
    lo = v.min(axis=0)
    scale = 2.0 ** np.array(bits) / (v.max(axis=0) - lo)
    cell = np.minimum(((v - lo) * scale).astype(np.int64),
                      2 ** np.array(bits, dtype=np.int64) - 1)
    code = np.zeros(n, dtype=np.int64)
    for t in range(d):
        code = (code << 1) | ((cell[:, t % 2] >> (bits[t % 2] - 1 - t // 2)) & 1)

    ci, cj = code[mesh.edges[:, 0]], code[mesh.edges[:, 1]]
    cut = ci != cj
    depth = np.full(n, d, dtype=np.int64)
    np.minimum.at(depth, np.where(ci < cj, mesh.edges[:, 0], mesh.edges[:, 1])[cut],
                  d - np.frexp(ci[cut] ^ cj[cut])[1])
    subtree_end = ((code >> (d - depth)) + 1) << (d - depth)
    return np.lexsort((-depth, subtree_end))


def build_unit_square(level, vertex_cap=DEFAULT_VERTEX_CAP,
                      diagonal=DIAGONAL_CONVENTION):
    """
    Structured triangulation of [0,1]^2 at the given refinement level.

    Level k uses n = 2^k segments per side; every grid cell is split into
    two triangles along the chosen diagonal (lower-left to upper-right by
    default).  The resulting mesh has (n+1)^2 vertices and 2 n^2
    triangles.

    Raises
    ------
    MeshCapacityError
        If level < 1 or the vertex count would exceed ``vertex_cap``.
    """
    level = int(level)
    if level < 1:
        raise MeshCapacityError("level must be >= 1, got %d" % level)
    if diagonal not in DIAGONAL_CONVENTIONS:
        raise ValueError("unknown diagonal convention %r" % diagonal)
    n = 2**level
    nv = (n + 1) ** 2
    if nv > vertex_cap:
        raise MeshCapacityError(
            "level %d needs %d vertices, exceeding the cap of %d"
            % (level, nv, vertex_cap)
        )

    t = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(t, t, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ii = ii.ravel()
    jj = jj.ravel()
    v00 = vid(ii, jj)
    v10 = vid(ii + 1, jj)
    v11 = vid(ii + 1, jj + 1)
    v01 = vid(ii, jj + 1)
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    if diagonal == "lowerleft-upperright":
        triangles[0::2] = np.column_stack([v00, v10, v11])
        triangles[1::2] = np.column_stack([v00, v11, v01])
    else:
        triangles[0::2] = np.column_stack([v00, v10, v01])
        triangles[1::2] = np.column_stack([v10, v11, v01])
    return TriMesh(vertices, triangles, level=level, diagonal=diagonal)


def uniform_refine(mesh, vertex_cap=DEFAULT_VERTEX_CAP):
    """
    Split every triangle into four congruent children by edge midpoints.

    The refined mesh of the structured unit-square family coincides with
    ``build_unit_square(level + 1)`` up to vertex ordering.
    """
    nv = mesh.num_vertices
    new_nv = nv + mesh.num_edges
    if new_nv > vertex_cap:
        raise MeshCapacityError(
            "refinement needs %d vertices, exceeding the cap of %d"
            % (new_nv, vertex_cap)
        )
    midpoints = 0.5 * (
        mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]
    )
    vertices = np.vstack([mesh.vertices, midpoints])

    t = mesh.triangles
    m01 = nv + mesh.tri_edges[:, 0]
    m12 = nv + mesh.tri_edges[:, 1]
    m20 = nv + mesh.tri_edges[:, 2]
    children = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    children[0::4] = np.column_stack([t[:, 0], m01, m20])
    children[1::4] = np.column_stack([m01, t[:, 1], m12])
    children[2::4] = np.column_stack([m20, m12, t[:, 2]])
    children[3::4] = np.column_stack([m01, m12, m20])
    return TriMesh(vertices, children, level=mesh.level + 1, diagonal=mesh.diagonal)


class DelaunayReport:
    """Outcome of the edge-weight (Delaunay) check."""

    def __init__(self, ok, violating_edges, tol):
        self.ok = bool(ok)
        self.violating_edges = list(violating_edges)
        self.tol = float(tol)

    def __repr__(self):
        return "DelaunayReport(ok=%s, violations=%d, tol=%.3g)" % (
            self.ok,
            len(self.violating_edges),
            self.tol,
        )


def delaunay_report(mesh, w):
    """
    Sum per-triangle edge weights ``w`` ((M, 3), LOCAL_EDGES order) over
    the mesh edges and check their nonnegativity; returns the (E,) sums
    and a :class:`DelaunayReport`.

    For every interior edge shared by triangles T and T' the combined
    weight w_E^T + w_E^T' must be >= -tol, and for boundary edges the
    single weight must be >= -tol, with tol = 1e-12 times the largest
    weight magnitude.  This is exactly the condition under which the
    edge-averaged stiffness matrix keeps nonpositive off-diagonal entries.
    """
    sums = np.zeros(mesh.num_edges)
    np.add.at(sums, mesh.tri_edges.ravel(), w.ravel())
    tol = 1e-12 * max(np.abs(w).max(), 1e-300)
    bad = np.flatnonzero(sums < -tol)
    return sums, DelaunayReport(bad.size == 0, bad.tolist(), tol)


def delaunay_check(mesh):
    """Edge-weight (Delaunay) check of a mesh; see :func:`delaunay_report`."""
    from .eafe import triangle_edge_weights

    return delaunay_report(mesh, triangle_edge_weights(mesh))[1]


def text_block(fmt, *columns):
    """
    One text section: ``fmt`` applied to every row of the given equal-length
    columns, converted to Python scalars first (``%r`` of a float is its
    shortest round-trip repr).
    """
    return "".join(fmt % row for row in zip(*(c.tolist() for c in columns)))


def write_node_ele(mesh, path):
    """
    Dump the mesh as plain text: one "x y bflag" line per vertex, then one
    "i j k" line per triangle.
    """
    v, t = mesh.vertices, mesh.triangles
    with open(path, "w") as fh:
        fh.write("%d %d\n" % (mesh.num_vertices, mesh.num_triangles))
        fh.write(text_block("%r %r %d\n", v[:, 0], v[:, 1],
                            mesh.boundary_vertex.astype(int)))
        fh.write(text_block("%d %d %d\n", t[:, 0], t[:, 1], t[:, 2]))


def _text_section(lines, rows, dtype):
    """``rows`` lines of three whitespace-separated numbers as one array."""
    table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    if table.shape != (rows, 3):
        raise ValueError("expected %d lines of 3 numbers, read a %s table"
                         % (rows, "x".join(map(str, table.shape))))
    return table


def read_node_ele(path):
    """
    Read a mesh written by :func:`write_node_ele`.

    Each section is parsed in one ``np.loadtxt`` call; the boundary flags
    must be numbers and are otherwise ignored (the mesh derives its own).

    Raises
    ------
    ValueError
        If the header does not hold two integers, a vertex or triangle
        line does not hold three numbers (triangles: integers), a line is
        blank, or the file ends early; GeometryError (a ValueError) if a
        triangle names a vertex outside [0, N) or is degenerate.
    """
    with open(path) as fh:
        nv, nt = (int(s) for s in fh.readline().split())
        lines = fh.read().splitlines()
    vertices = _text_section(lines[:nv], nv, float)
    triangles = _text_section(lines[nv:nv + nt], nt, np.int64)
    return TriMesh(vertices[:, :2], triangles)


def write_vtk(mesh, path, point_data=None, title="unstructured grid"):
    """
    Write the mesh (and optional per-vertex scalar fields) as a legacy
    binary VTK unstructured grid.

    The header and section lines are ASCII text.  Each section's values
    follow as one big-endian block and a newline: points as float64
    (x, y, 0), cells as int32 rows (3, i, j, k), cell types as int32 5
    (triangle), point fields as float64.

    Parameters
    ----------
    point_data : dict of name -> (N,) array, optional
        Nodal scalar fields attached as POINT_DATA.

    Raises
    ------
    ValueError
        If a field does not hold one value per vertex; nothing is written.
    """
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    fields = {name: np.asarray(values, dtype=">f8")
              for name, values in (point_data or {}).items()}
    for name, values in fields.items():
        if values.shape != (nv,):
            raise ValueError("point data %r has shape %s, expected (%d,)"
                             % (name, values.shape, nv))
    points = np.zeros((nv, 3), dtype=">f8")
    points[:, :2] = mesh.vertices
    cells = np.full((nt, 4), 3, dtype=">i4")
    cells[:, 1:] = mesh.triangles
    with open(path, "wb") as fh:
        fh.write(("# vtk DataFile Version 2.0\n%s\nBINARY\n"
                  "DATASET UNSTRUCTURED_GRID\n" % title).encode())
        _binary_section(fh, "POINTS %d double" % nv, points)
        _binary_section(fh, "CELLS %d %d" % (nt, 4 * nt), cells)
        _binary_section(fh, "CELL_TYPES %d" % nt, np.full(nt, 5, dtype=">i4"))
        if fields:
            fh.write(b"POINT_DATA %d\n" % nv)
        for name, values in fields.items():
            _binary_section(fh, "SCALARS %s double\nLOOKUP_TABLE default" % name,
                            values)


def _binary_section(fh, header, block):
    fh.write(header.encode() + b"\n")
    fh.write(block.tobytes())
    fh.write(b"\n")
