"""
Structured conforming triangulations of the unit square.

Meshes are stored as flat numpy arrays (vertices, triangles, edges) with
full edge-to-triangle connectivity, so that edge-based schemes and the
Delaunay/monotonicity checks can run without touching any geometry code
again.  The structured family has one diagonal convention,
:data:`DIAGONAL_CONVENTION`: every cell is split along its lower-left to
upper-right diagonal.  A mesh holds geometry only; it carries no level
or diagonal label.

A built mesh is immutable, and this is enforced: its vertex and triangle
arrays are private read-only copies, so what a mesh caches (signed areas
and the nested-dissection vertex order here, the gradient table in
``fem_core``) can never go stale.  The edge-graph CSR pattern is not
cached: ``fem_core.edge_pattern`` builds it for each assembly.
"""

import numpy as np

#: the cell split of :func:`build_unit_square`, echoed in ``config.json``
DIAGONAL_CONVENTION = "lowerleft-upperright"

#: most vertices a built mesh may have, read at call time
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
    triangles : (M, 3) int32 array
        Vertex indices per triangle, counterclockwise.
    edges : (E, 2) int32 array
        Unique edges as (i, j) with i < j, sorted by (i, j).
    edge_tris : (E, 2) int32 array
        Adjacent triangle indices per edge; second entry is -1 for
        boundary edges.
    tri_edges : (M, 3) int32 array
        Edge index of each local edge (LOCAL_EDGES order).
    boundary_vertex : (N,) bool array
        True for vertices lying on the domain boundary.
    h : float
        Mesh size, max over triangles of their diameter: the longest edge.

    ``vertices`` and ``triangles`` are read-only copies of the inputs.
    The four index arrays are int32, half the memory of int64: every
    index is below the vertex, edge or triangle count, far below 2^31
    under :data:`DEFAULT_VERTEX_CAP`.  Arithmetic on them that can leave
    int32, such as the pair keys i * N + j of the connectivity, is done
    in int64.

    What is computed from these arrays once and kept, read-only, is held
    under a key by :meth:`cached`: the signed areas, the
    nested-dissection order and the barycentric gradient table.  The
    edge-graph CSR pattern is not among them; ``fem_core.edge_pattern``
    builds it from the sorted ``edges`` on each call.

    Raises
    ------
    GeometryError
        If the vertices are not an (N, 2) or the triangles not an (M, 3)
        array, there are no triangles, a triangle names a vertex outside
        [0, N), a vertex coordinate is not finite, a signed area is not
        positive, or an edge has more than two triangles.
    """

    def __init__(self, vertices, triangles):
        self.vertices = _readonly(np.array(vertices, dtype=float, order="C"))
        t = np.asarray(triangles, dtype=np.int64)
        self._geometry = {}
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise GeometryError("vertices must be an (N, 2) array, got shape %s"
                                % (self.vertices.shape,))
        if t.ndim != 2 or t.shape[1] != 3:
            raise GeometryError("triangles must be an (M, 3) array, got shape %s"
                                % (t.shape,))
        if t.shape[0] == 0:
            raise GeometryError("mesh has no triangles")
        if t.min() < 0 or t.max() >= self.num_vertices:
            raise GeometryError("triangle vertex indices must lie in [0, %d)"
                                % self.num_vertices)
        # checked in int64 first, so no out-of-range index wraps into range
        self.triangles = _readonly(t.astype(np.int32, order="C"))
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise GeometryError("vertex %d has non-finite coordinates (%r, %r)"
                                % (bad, *self.vertices[bad].tolist()))

        areas = signed_areas(self)
        if not np.all(areas > 0.0):
            bad = int(np.argmin(areas > 0.0))
            raise GeometryError(
                "triangle %d has non-positive signed area %g" % (bad, areas[bad])
            )

        self.edges, self.edge_tris, self.tri_edges = _edge_connectivity(self.triangles)
        boundary_edges = self.edge_tris[:, 1] < 0
        flag = np.zeros(self.num_vertices, dtype=bool)
        flag[self.edges[boundary_edges].ravel()] = True
        self.boundary_vertex = flag
        self.h = _longest_edge(self.vertices, self.edges)

    def cached(self, key, build):
        """
        Read-only geometry under ``key``, from the first ``build()`` that
        returns: an array, or a tuple of arrays.
        """
        if key not in self._geometry:
            value = build()
            for array in value if isinstance(value, tuple) else (value,):
                _readonly(array)
            self._geometry[key] = value
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
        return "TriMesh(vertices=%d, triangles=%d, h=%.4g)" % (
            self.num_vertices,
            self.num_triangles,
            self.h,
        )


def _edge_connectivity(triangles):
    """
    Unique (i<j) edges, their adjacent triangles, and the tri->edge map,
    all int32.

    Pair k * M + t is local edge k of triangle t.  One stable sort of the
    pair keys i * N + j, i < j, gives everything: each run of equal keys
    is one edge (runs come in lexicographic edge order), the run's index
    is the edge index of each of its pairs, and the triangles of the
    run's first and second pair fill the edge's two slots.  The keys are
    int64: i * N + j leaves int32 from N = 46 341 on (level 8).
    """
    m = triangles.shape[0]
    tails = triangles.T.ravel()
    heads = triangles[:, [b for _, b in LOCAL_EDGES]].T.ravel()
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    keys = lo.astype(np.int64) * (int(hi.max()) + 1) + hi
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    start = np.flatnonzero(first)
    size = np.diff(start, append=order.size)
    if size.max() > 2:
        raise GeometryError("non-manifold edge: more than two adjacent triangles")
    inverse = np.empty(order.size, dtype=np.int32)
    inverse[order] = np.cumsum(first) - 1

    head = order[start]
    last = order[start + size - 1]  # the run's second pair, or its only one
    edges = np.stack([lo[head], hi[head]], axis=1)
    edge_tris = np.stack([head % m, np.where(size == 2, last % m, -1)],
                         axis=1).astype(np.int32)
    return edges, edge_tris, inverse.reshape(3, m).T.copy()


def _longest_edge(vertices, edges):
    """Length of the longest edge: the largest triangle diameter of the mesh."""
    x, y = vertices[:, 0], vertices[:, 1]
    i, j = edges[:, 0], edges[:, 1]
    dx, dy = x[j] - x[i], y[j] - y[i]
    return float(np.sqrt((dx * dx + dy * dy).max()))


def _readonly(array):
    array.flags.writeable = False
    return array


def signed_areas(mesh):
    """Signed area of every triangle (positive for counterclockwise), read-only."""
    return mesh.cached("areas", lambda: _signed_areas(mesh))


def _signed_areas(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    t0, t1, t2 = mesh.triangles.T
    d1x, d1y = x[t1] - x[t0], y[t1] - y[t0]
    d2x, d2y = x[t2] - x[t0], y[t2] - y[t0]
    return 0.5 * (d1x * d2y - d1y * d2x)


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


def unit_square_vertex_count(level):
    """
    Vertex count (2^level + 1)^2 of :func:`build_unit_square` at ``level``.

    Raises
    ------
    MeshCapacityError
        If level < 1 or the vertex count would exceed
        :data:`DEFAULT_VERTEX_CAP`, read at call time.
    """
    if level < 1:
        raise MeshCapacityError("level must be >= 1, got %d" % level)
    nv = (2**level + 1) ** 2
    if nv > DEFAULT_VERTEX_CAP:
        raise MeshCapacityError(
            "level %d needs %d vertices, exceeding the cap of %d"
            % (level, nv, DEFAULT_VERTEX_CAP)
        )
    return nv


def build_unit_square(level):
    """
    Structured triangulation of [0,1]^2 at the given refinement level.

    Level k uses n = 2^k segments per side; every grid cell is split into
    two triangles along its lower-left to upper-right diagonal.  The
    resulting mesh has (n+1)^2 vertices and 2 n^2 triangles.

    Raises
    ------
    MeshCapacityError
        If level < 1 or the vertex count would exceed
        :data:`DEFAULT_VERTEX_CAP`.
    """
    level = int(level)
    unit_square_vertex_count(level)
    n = 2**level

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
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    return TriMesh(vertices, triangles)


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
    sums = np.bincount(mesh.tri_edges.ravel(), weights=w.ravel(),
                       minlength=mesh.num_edges)
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


def _text_section(lines, rows, dtype):
    """``rows`` lines of three whitespace-separated numbers as one array."""
    table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    if table.shape != (rows, 3):
        raise ValueError("expected %d lines of 3 numbers, read a %s table"
                         % (rows, "x".join(map(str, table.shape))))
    return table


def read_node_ele(path):
    """
    Read a mesh from a node/ele text file: a "nv nt" header, one
    "x y bflag" line per vertex, then one "i j k" line per triangle.

    Each section is parsed in one ``np.loadtxt`` call; the boundary flags
    must be numbers and are otherwise ignored (the mesh derives its own).

    Raises
    ------
    ValueError
        If the header does not hold two integers, a vertex or triangle
        line does not hold three numbers (triangles: integers), a line is
        blank, or the file ends early; GeometryError (a ValueError) if a
        triangle names a vertex outside [0, N) or is degenerate, or a
        vertex coordinate is not finite.
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
