"""
Independent references for the tests.

``from_triplets`` sums (row, col, value) contributions into a canonical
scipy CSR matrix through ``scipy.sparse.coo_matrix``.  The ``coo_*``
functions assemble the package's four matrices the way it did before it
assembled on the edge-graph pattern: one triplet per triangle and local
entry, summed by scipy.  The package's assembly must match them.

The solver references factor with scipy's default SuperLU (COLAMD column
order, threshold partial pivoting), independent of the package's
diagonal-pivot factor:

- ``solve_direct`` is the certified direct solve;
- ``saddle_operator`` builds the monolithic 2n x 2n operator of a
  ``BlockSaddleSystem`` that the package applies by its blocks, and
  ``saddle_rhs`` its right-hand side, so that
  ``solve_direct(saddle_operator(system), saddle_rhs(system))`` is the
  direct solution of the optimality system;
- ``inverse_nonneg_check`` scans A^{-1} column by column, the reference
  for the M-matrix certificate ``verify_norms.certify_m_matrix``.

The set-up checks of ``BlockSaddleSystem`` have union-pattern
references, the rules the package applied before it read them from the
data arrays: ``mass_is_symmetric`` forms ``M - M^T``, and
``presb_precision`` forms ``|A| - e^2 |A|^T`` and ``F = M + A``.  Both
take a pair on any patterns.  ``BlockSaddleSystem`` takes only a pair
on one structurally symmetric pattern, as assembled on a mesh, so the
tests store each hand-built pair on the union of the patterns of A,
A^T, M and M^T, with explicit zeros, and expect a ``ValueError`` for
any other.

The geometry references compute what the package computes in one pass
the way it did before:

- ``edge_connectivity`` finds the unique edges by ``np.unique`` and the
  two triangles of each edge by a second stable ``argsort``;
- ``quadrature_table`` maps every quadrature point at once into one
  (2, nq, M) table, and ``table_load`` assembles a load vector from it
  with one ``np.bincount`` per point and corner.

Two assemblies keep the arithmetic the package now reorders, so that the
package must match them bit for bit:

- ``edge_tris_mass`` takes the mass matrix's edge entries from the two
  adjacent triangles of each edge (``edge_connectivity``), as the mesh
  once kept them;
- ``loop_galerkin_stiffness`` forms every gradient product again at
  every quadrature row and sums into (M, 3, 3) blocks.

``assemble_system``, ``convergence_study``, ``smooth_case``,
``layer_profile`` and ``jittered_renumbered_mesh`` are shorthands for
the tests: the interior saddle system alone, a one-region convergence
table, a layer-free manufactured pair composed by
``experiments.manufactured_case``, the layer profile eta of the boundary
layer, and a structured mesh with moved interior vertices, renumbered
vertices and shuffled triangles.

``boundary_layer_source``, ``interior_layer_source`` and
``smooth_source`` are the right-hand sides (f, g) of the three
manufactured cases as they were written by hand, case by case, before
one composer formed them; the composed ``source`` must give the same
bits.

Test meshes and tables that no run of the package needs are made here:

- ``build_unit_square_upperleft`` splits each cell of the structured
  family along the other diagonal, upper-left to lower-right;
- ``uniform_refine`` splits every triangle into four by edge midpoints;
- ``write_node_ele`` writes the node/ele text file that
  ``mesh.read_node_ele`` reads, by ``text_block``, which applies a
  ``%`` format to every row of equal-length columns, value by value:
  the reference for ``optimal_control.write_solution_csv``, which
  formats each distinct bit pattern once;
- ``table_row`` and ``same_table`` read one level of a
  ``ConvergenceTable`` and compare two tables' levels and errors.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eafe_control.eafe import edge_flux_coefficients
from eafe_control.experiments import _layer_terms, manufactured_case
from eafe_control.fem_core import (
    QUADRATURE,
    barycentric_gradient_table,
    fold_blocks,
    lumped_mass_diagonal,
    quadrature_points,
    scatter_edges,
)
from eafe_control.mesh import (
    LOCAL_EDGES,
    GeometryError,
    MeshCapacityError,
    TriMesh,
    build_unit_square,
    signed_areas,
)
from eafe_control import mesh as mesh_module, sparse_linalg
from eafe_control.optimal_control import _assemble_parts, solve
from eafe_control.sparse_linalg import (
    DEFAULT_SOLVE_RTOL,
    ResidualCertificationError,
    SingularMatrixError,
)
from eafe_control.verify_norms import ConvergenceTable, solution_errors


def from_triplets(nrows, ncols, triplets):
    """
    Assemble a canonical ``scipy.sparse.csr_matrix`` from (row, col,
    value) contributions.

    ``triplets`` is either an iterable of (row, col, value) triples or a
    (rows, cols, values) tuple of arrays.  Duplicate positions are summed
    and column indices are sorted within each row.  Explicit zeros are
    kept.

    Raises
    ------
    IndexError
        If any index lies outside [0, nrows) x [0, ncols).
    """
    if isinstance(triplets, tuple) and len(triplets) == 3:
        rows, cols, vals = triplets
    else:
        triplets = list(triplets)
        if triplets:
            rows, cols, vals = zip(*triplets)
        else:
            rows, cols, vals = (), (), ()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise IndexError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= ncols):
        raise IndexError("column index out of range")
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    csr.sum_duplicates()
    return csr


def _from_blocks(mesh, local, extra=((), (), ())):
    """CSR matrix of (M, 3, 3) element blocks plus optional extra triplets."""
    t = mesh.triangles
    rows = [t[:, a] for a in range(3) for b in range(3)] + list(extra[0])
    cols = [t[:, b] for a in range(3) for b in range(3)] + list(extra[1])
    vals = [local[:, a, b] for a in range(3) for b in range(3)] + list(extra[2])
    n = mesh.num_vertices
    return from_triplets(n, n, (np.concatenate(rows), np.concatenate(cols),
                                np.concatenate(vals)))


def edge_connectivity(triangles):
    """
    Unique (i<j) edges, their adjacent triangles, and the tri->edge map,
    as int32 arrays; the pair keys are int64, since i * N + j leaves
    int32 from N = 46 341 on.
    """
    m = triangles.shape[0]
    pairs = np.concatenate(
        [triangles[:, (a, b)] for a, b in LOCAL_EDGES], axis=0
    ).astype(np.int64)
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
    return (edges.astype(np.int32), edge_tris.astype(np.int32),
            tri_edges.astype(np.int32))


def gradient_edge_weights(mesh):
    """
    Per-triangle edge weights in their gradient form: local edge (a, b)
    of triangle T weighs -area_T grad(lambda_a) . grad(lambda_b), from
    the barycentric gradient table.
    """
    grads = barycentric_gradient_table(mesh)
    areas = signed_areas(mesh)
    w = np.empty((mesh.num_triangles, 3))
    for k, (a, b) in enumerate(LOCAL_EDGES):
        w[:, k] = -areas * np.einsum("md,md->m", grads[:, a, :], grads[:, b, :])
    return w


def quadrature_table(mesh):
    """
    (2, nq, M) physical coordinates of the QUADRATURE points: row q of
    each half holds point q of every triangle, one product per point.
    """
    p = mesh.vertices[mesh.triangles]  # (M, 3, 2)
    return np.array([[lam @ p[:, :, c].T for lam in QUADRATURE.points]
                     for c in (0, 1)])


def table_load(mesh, f):
    """Load vector (f, phi_i) from the whole point table, 21 bincounts."""
    areas = signed_areas(mesh)
    t = mesh.triangles
    n = mesh.num_vertices
    b = np.zeros(n)
    x, y = quadrature_table(mesh)
    for q, (lam, w) in enumerate(zip(QUADRATURE.points, QUADRATURE.weights)):
        contrib = w * areas * np.broadcast_to(f(x[q], y[q]), x[q].shape)
        for c in range(3):
            b += np.bincount(t[:, c], weights=contrib * lam[c], minlength=n)
    return b


def coo_mass(mesh):
    """Consistent P1 mass matrix from area/12 * [[2,1,1],[1,2,1],[1,1,2]]."""
    local = np.broadcast_to(
        signed_areas(mesh)[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0,
        (mesh.num_triangles, 3, 3))
    return _from_blocks(mesh, local)


def edge_tris_mass(mesh):
    """
    Consistent P1 mass matrix with the edge entries (area[first] +
    area[second]) / 12 of each edge's one or two adjacent triangles.
    """
    areas = signed_areas(mesh)
    edge_tris = edge_connectivity(mesh.triangles)[1]
    first, second = edge_tris[:, 0], edge_tris[:, 1]
    off = (areas[first] + np.where(second >= 0, areas[second], 0.0)) / 12.0
    return scatter_edges(mesh, 0.5 * lumped_mass_diagonal(mesh), off, off)


def loop_galerkin_stiffness(mesh, coeff):
    """
    Standard P1 stiffness summed into (M, 3, 3) blocks, with every
    gradient product and gamma * lam_i formed again for each quadrature
    row and block entry.
    """
    grads = barycentric_gradient_table(mesh)
    areas = signed_areas(mesh)
    local = np.zeros((mesh.num_triangles, 3, 3))
    for lam, w, xq, yq in quadrature_points(mesh):
        eps_q, zx, zy, gam = coeff.samples(xq, yq)
        scale = w * areas
        for i in range(3):
            conv_i = zx * grads[:, i, 0] + zy * grads[:, i, 1]
            for j in range(3):
                diff = eps_q * (
                    grads[:, j, 0] * grads[:, i, 0] + grads[:, j, 1] * grads[:, i, 1]
                )
                local[:, i, j] += scale * (
                    diff + lam[j] * conv_i + gam * lam[i] * lam[j]
                )
    return scatter_edges(mesh, *fold_blocks(mesh, local))


def _quadrature_blocks(mesh, integrand):
    """
    (M, 3, 3) blocks of sum_q w_q area integrand(xq, yq, lam, q)[a, b],
    where the integrand returns an (M, 3, 3) array.
    """
    areas = signed_areas(mesh)
    x, y = quadrature_table(mesh)
    local = np.zeros((mesh.num_triangles, 3, 3))
    for q, (lam, w) in enumerate(zip(QUADRATURE.points, QUADRATURE.weights)):
        local += (w * areas)[:, None, None] * integrand(x[q], y[q], lam)
    return local


def coo_galerkin(mesh, coeff):
    """Standard P1 stiffness: eps grad.grad + (zeta . grad phi_i) phi_j + gamma."""
    grads = barycentric_gradient_table(mesh)

    def integrand(xq, yq, lam):
        zx, zy = coeff.zeta(xq, yq)
        eps = np.broadcast_to(coeff.eps(xq, yq), xq.shape)
        gam = np.broadcast_to(coeff.gamma(xq, yq), xq.shape)
        conv = zx[:, None] * grads[:, :, 0] + zy[:, None] * grads[:, :, 1]
        return (eps[:, None, None] * np.einsum("mad,mbd->mab", grads, grads)
                + conv[:, :, None] * lam[None, None, :]
                + gam[:, None, None] * np.outer(lam, lam))

    return _from_blocks(mesh, _quadrature_blocks(mesh, integrand))


def coo_eafe(mesh, coeff, lump_reaction=True):
    """
    Edge-averaged stiffness from per-triangle triplets: local edge (i, j)
    of a triangle with weight omega adds omega * c_ij at (j, j), -omega *
    c_ji at (j, i), -omega * c_ij at (i, j) and omega * c_ji at (i, i),
    with the flux pair oriented from i to j.  The weights are the
    gradient form (:func:`gradient_edge_weights`), and the flux pair is
    formed from the means of the coefficient fields at i and j, evaluated
    here and not through ``CoefficientField.samples``.
    """
    w = gradient_edge_weights(mesh)
    xv, yv = mesh.vertices[:, 0], mesh.vertices[:, 1]
    eps = np.broadcast_to(coeff.eps(xv, yv), xv.shape)
    zx, zy = (np.broadcast_to(c, xv.shape) for c in coeff.zeta(xv, yv))
    t = mesh.triangles
    rows, cols, vals = [], [], []
    for k, (a, b) in enumerate(LOCAL_EDGES):
        i, j = t[:, a], t[:, b]
        c_ij, c_ji = edge_flux_coefficients(
            0.5 * (eps[i] + eps[j]),
            np.column_stack([0.5 * (zx[i] + zx[j]), 0.5 * (zy[i] + zy[j])]),
            mesh.vertices[i], mesh.vertices[j])
        omega = w[:, k]
        rows += [j, j, i, i]
        cols += [j, i, j, i]
        vals += [omega * c_ij, -omega * c_ji, -omega * c_ij, omega * c_ji]
    if lump_reaction:
        xv, yv = mesh.vertices[:, 0], mesh.vertices[:, 1]
        idx = np.arange(mesh.num_vertices)
        rows.append(idx)
        cols.append(idx)
        vals.append(np.broadcast_to(coeff.gamma(xv, yv), xv.shape)
                    * lumped_mass_diagonal(mesh))
        local = np.zeros((mesh.num_triangles, 3, 3))
    else:
        local = _quadrature_blocks(
            mesh, lambda xq, yq, lam: np.broadcast_to(
                coeff.gamma(xq, yq), xq.shape)[:, None, None]
            * np.outer(lam, lam))
    return _from_blocks(mesh, local, (rows, cols, vals))


def _splu(mat):
    """scipy's default SuperLU factor; an exactly zero pivot raises."""
    try:
        return spla.splu(mat.tocsc())
    except RuntimeError as exc:  # SuperLU signals an exactly singular factor
        raise SingularMatrixError(str(exc)) from exc


def solve_direct(mat, b, rtol=DEFAULT_SOLVE_RTOL):
    """
    Solve ``mat @ x = b`` by sparse LU with partial pivoting and certify
    the result: the relative residual ||Ax-b||_2 / ||b||_2 must not exceed
    ``rtol``.  Up to two iterative-refinement sweeps are applied if the
    first solve misses the certificate.

    Raises
    ------
    SingularMatrixError
        If the factorization encounters a zero pivot.
    ResidualCertificationError
        If the residual certificate cannot be met.
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    lu = _splu(mat)
    x = lu.solve(b)
    res = np.linalg.norm(mat @ x - b) / bnorm
    for _ in range(2):
        if res <= rtol:
            break
        x = x + lu.solve(b - mat @ x)
        res = np.linalg.norm(mat @ x - b) / bnorm
    if res > rtol:
        raise ResidualCertificationError(
            "relative residual %.3g exceeds certificate %.3g" % (res, rtol)
        )
    return x


def saddle_operator(system):
    """Monolithic 2n x 2n operator [[A^T, -M], [-M, -A]] of a system."""
    a, m = system.A, system.M
    return sp.bmat([[a.T, -m], [-m, -a]], format="csr")


def saddle_rhs(system):
    """Right-hand side (rhs_top, rhs_bottom) of a saddle system."""
    return np.concatenate([system.rhs_top, system.rhs_bottom])


class InverseNonnegReport:
    """Result of the column-by-column inverse nonnegativity scan."""

    def __init__(self, ok, min_entry, argmin, tol):
        self.ok = bool(ok)
        self.min_entry = float(min_entry)
        self.argmin = argmin  # (row, column) of the most negative inverse entry
        self.tol = float(tol)

    def __repr__(self):
        return "InverseNonnegReport(ok=%s, min_entry=%.3g at %s)" % (
            self.ok,
            self.min_entry,
            self.argmin,
        )


def inverse_nonneg_check(a, tol=1e-12):
    """
    Verify that A^{-1} is (numerically) entrywise nonnegative by solving
    A x = e_i for every unit vector.  Column i passes when every entry of
    x satisfies x >= -tol * max|x|.  The inverse is held dense, so this
    is for small matrices only.
    """
    inv = _splu(a).solve(np.eye(a.shape[0]))
    scale = np.abs(inv).max(axis=0)
    scale[scale == 0.0] = 1.0
    i, j = np.unravel_index(np.argmin(inv), inv.shape)
    return InverseNonnegReport((inv / scale).min() >= -tol, inv[i, j],
                               (int(i), int(j)), tol)


def mass_is_symmetric(m):
    """
    Symmetry verdict on a mass block by the union-pattern rule:
    ||M - M^T||_F <= SYM_RTOL max|M_ij| sqrt(nnz M).
    """
    asym = sp.linalg.norm(m - m.T) if m.nnz else 0.0
    scale = max(np.abs(m.data).max() if m.nnz else 0.0, 1e-300)
    return not asym > sparse_linalg.SYM_RTOL * scale * np.sqrt(max(m.nnz, 1))


def presb_precision(a, m):
    """
    Precision of the PRESB factor of ``F = M + A`` by the union-pattern
    rule: "float32" when ``|A| - e^2 |A|^T`` has no positive entry and
    every nonzero of F lies in float32's normal range, else "float64".
    ``SINGLE_PRECISION_ASYMMETRY`` is read at call time.
    """
    f = m + a
    mag = abs(a)
    single = np.finfo(np.float32)
    entries = np.abs(f.data[f.data != 0.0])
    if ((mag - sparse_linalg.SINGLE_PRECISION_ASYMMETRY * mag.T).max() <= 0.0
            and entries.min(initial=single.max) >= single.tiny
            and entries.max(initial=0.0) <= single.max):
        return "float32"
    return "float64"


def assemble_system(mesh, spec, scheme, lump_reaction=True):
    """Interior-dof saddle system with Dirichlet lifts on the right-hand side."""
    return next(_assemble_parts(mesh, spec, (scheme,), lump_reaction))[0]


def convergence_study(case, scheme, levels, region=None, lump_reaction=True,
                      metric="quadrature"):
    """Convergence table over ascending levels (optionally on a sub-box)."""
    rows = []
    for k in levels:
        mesh = build_unit_square(k)
        sol = solve(mesh, case.problem, scheme, lump_reaction=lump_reaction)
        rows.append(solution_errors(mesh, case, sol, (region,), metric)[0])
    return ConvergenceTable(levels, dict(zip(ConvergenceTable.COLUMNS,
                                             zip(*rows))))


def table_row(table, k):
    """{column: (error, order)} of level ``k`` of a ``ConvergenceTable``."""
    i = table.levels.index(k)
    return {
        c: (table.errors[c][i], table.orders[c][i]) for c in table.COLUMNS
    }


def same_table(a, b):
    """Whether two ``ConvergenceTable`` have the same levels and errors."""
    return a.levels == b.levels and a.errors == b.errors


def jittered_renumbered_mesh(level, seed):
    """
    ``build_unit_square(level)`` with every interior vertex moved by up to
    1e-3 in x and y, the vertices renumbered and the triangles shuffled.
    """
    base = build_unit_square(level)
    rng = np.random.default_rng(seed)
    jittered = base.vertices + 1e-3 * rng.random(base.vertices.shape) * (
        ~base.boundary_vertex[:, None])
    perm = rng.permutation(base.num_vertices)
    vertices = np.empty_like(jittered)
    vertices[perm] = jittered
    triangles = perm[base.triangles][rng.permutation(base.num_triangles)]
    return TriMesh(vertices, triangles)


def build_unit_square_upperleft(level):
    """
    ``build_unit_square(level)`` with every cell split along its
    upper-left to lower-right diagonal instead: the same vertices, and
    cell (v00, v10, v11, v01) gives triangles (v00, v10, v01) and
    (v10, v11, v01).
    """
    base = build_unit_square(level)
    v00, v10, v11 = base.triangles[0::2].T
    v01 = base.triangles[1::2, 2]
    triangles = np.empty_like(base.triangles)
    triangles[0::2] = np.column_stack([v00, v10, v01])
    triangles[1::2] = np.column_stack([v10, v11, v01])
    return TriMesh(base.vertices, triangles)


def uniform_refine(mesh):
    """
    Split every triangle into four congruent children by edge midpoints.

    The refined mesh of the structured unit-square family coincides with
    ``build_unit_square(level + 1)`` up to vertex ordering.  Raises
    ``MeshCapacityError`` if it would have more vertices than
    ``mesh.DEFAULT_VERTEX_CAP``, read at call time.
    """
    nv = mesh.num_vertices
    new_nv = nv + mesh.num_edges
    if new_nv > mesh_module.DEFAULT_VERTEX_CAP:
        raise MeshCapacityError(
            "refinement needs %d vertices, exceeding the cap of %d"
            % (new_nv, mesh_module.DEFAULT_VERTEX_CAP)
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
    return TriMesh(vertices, children)


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


def layer_profile(z, eps):
    """z^3 minus the outflow boundary-layer correction of width eps."""
    return _layer_terms(z, eps)[0]


def _smooth_field(x1, x2):
    """w = x1 (1 - x1) x2 (1 - x2): value, gradient pair and Laplacian."""
    return (x1 * (1.0 - x1) * x2 * (1.0 - x2),
            ((1.0 - 2.0 * x1) * x2 * (1.0 - x2),
             x1 * (1.0 - x1) * (1.0 - 2.0 * x2)),
            -2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1))


def smooth_case():
    """Layer-free manufactured pair (diffusion-dominated sanity case)."""
    return manufactured_case(1.0, (1.0, 1.0), 1.0, _smooth_field,
                             _smooth_field)


def boundary_layer_source(eps):
    """
    The hand-written (f, g) of ``experiments.boundary_layer_case``: eta
    (and eta', eta'' where needed) at x1, x2, 1 - x1 and 1 - x2, with the
    expressions of p, y and their derivatives applied to those values.
    """
    s2 = np.sqrt(2.0) / 2.0
    zeta = (-s2, -s2)
    gamma = 1.0
    eta = lambda z: layer_profile(z, eps)

    def f(x1, x2):
        e1, e2 = eta(x1), eta(x2)
        (m1, d1x, d2x), (m2, d1y, d2y) = (_layer_terms(1.0 - x1, eps),
                                          _layer_terms(1.0 - x2, eps))
        gx, gy = -d1x * m2, -m1 * d1y
        lap = d2x * m2 + m1 * d2y
        return (-eps * lap + zeta[0] * gx + zeta[1] * gy
                + gamma * (m1 * m2) - e1 * e2)

    def g(x1, x2):
        (e1, d1x, d2x), (e2, d1y, d2y) = (_layer_terms(x1, eps),
                                          _layer_terms(x2, eps))
        m1, m2 = eta(1.0 - x1), eta(1.0 - x2)
        gx, gy = d1x * e2, e1 * d1y
        lap = d2x * e2 + e1 * d2y
        return (-(m1 * m2) + eps * lap + zeta[0] * gx + zeta[1] * gy
                - gamma * (e1 * e2))

    return lambda x1, x2: (f(x1, x2), g(x1, x2))


def interior_layer_source(eps):
    """The hand-written (f, g) of ``experiments.interior_layer_case``."""
    gamma = 1.0

    def arct(x2):
        return np.arctan((x2 - 0.5) / eps)

    def arct_d2(x2):
        s = x2 - 0.5
        return -2.0 * eps * s / (eps * eps + s * s) ** 2

    def cubic(x1):
        return (1.0 - x1) ** 3

    def y(x1, x2):
        return cubic(x1) * arct(x2)

    def grad_y(x1, x2):
        s = x2 - 0.5
        return (-3.0 * (1.0 - x1) ** 2 * arct(x2),
                cubic(x1) * (eps / (eps * eps + s * s)))

    def lap_y(x1, x2):
        return 6.0 * (1.0 - x1) * arct(x2) + cubic(x1) * arct_d2(x2)

    def p(x1, x2):
        return x1 * (1.0 - x1) * x2 * (1.0 - x2)

    def grad_p(x1, x2):
        return ((1.0 - 2.0 * x1) * x2 * (1.0 - x2),
                x1 * (1.0 - x1) * (1.0 - 2.0 * x2))

    def lap_p(x1, x2):
        return -2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1)

    def f(x1, x2):
        gx, _ = grad_p(x1, x2)
        return -eps * lap_p(x1, x2) - gx + gamma * p(x1, x2) - y(x1, x2)

    def g(x1, x2):
        gx, _ = grad_y(x1, x2)
        return -p(x1, x2) + eps * lap_y(x1, x2) - gx - gamma * y(x1, x2)

    return lambda x1, x2: (f(x1, x2), g(x1, x2))


def smooth_source():
    """The hand-written (f, g) of ``smooth_case``."""
    eps = 1.0
    gamma = 1.0

    def w(x1, x2):
        return x1 * (1.0 - x1) * x2 * (1.0 - x2)

    def grad_w(x1, x2):
        return ((1.0 - 2.0 * x1) * x2 * (1.0 - x2),
                x1 * (1.0 - x1) * (1.0 - 2.0 * x2))

    def lap_w(x1, x2):
        return -2.0 * x2 * (1.0 - x2) - 2.0 * x1 * (1.0 - x1)

    def f(x1, x2):
        gx, gy = grad_w(x1, x2)
        return -eps * lap_w(x1, x2) + gx + gy + gamma * w(x1, x2) - w(x1, x2)

    def g(x1, x2):
        gx, gy = grad_w(x1, x2)
        return -w(x1, x2) + eps * lap_w(x1, x2) + gx + gy - gamma * w(x1, x2)

    return lambda x1, x2: (f(x1, x2), g(x1, x2))
