"""
Seeded node/ele input for the nodeele-certify-l9 workload.

The mesh is the structured unit-square triangulation (every cell split
along the lower-left to upper-right diagonal), built here with numpy
alone so that the input does not depend on the program under test.  A
seeded vertex renumbering and triangle shuffle then make the numbering
unsorted, and the result is written in the text layout that
``eafe_control.mesh.read_node_ele`` reads: a "nv nt" header, one
"x y bflag" line per vertex, one "i j k" line per triangle.
"""

import numpy as np


def unit_square(level):
    """(vertices, triangles, boundary flags) of the level-``level`` mesh."""
    n = 2**level
    t = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(t, t, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (jj * (n + 1) + ii).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    on_boundary = ((vertices == 0.0) | (vertices == 1.0)).any(axis=1)
    return vertices, triangles, on_boundary


def shuffled_unit_square(level, seed):
    """The level mesh with vertices renumbered and triangles reordered by ``seed``."""
    vertices, triangles, on_boundary = unit_square(level)
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(vertices.shape[0])
    renumbered = np.empty_like(vertices)
    renumbered[new_id] = vertices
    flags = np.empty_like(on_boundary)
    flags[new_id] = on_boundary
    # relabelling keeps every triangle counterclockwise
    triangles = new_id[triangles][rng.permutation(triangles.shape[0])]
    return renumbered, triangles, flags


def node_ele_text(vertices, triangles, flags):
    lines = ["%d %d" % (vertices.shape[0], triangles.shape[0])]
    lines.extend(
        "%r %r %d" % (x, y, b)
        for (x, y), b in zip(vertices.tolist(), flags.tolist())
    )
    lines.extend("%d %d %d" % (i, j, k) for i, j, k in triangles.tolist())
    return "\n".join(lines) + "\n"


def write_input(path, level, seed):
    """Write the seeded node/ele file; returns its expected counts."""
    vertices, triangles, flags = shuffled_unit_square(level, seed)
    with open(path, "w") as fh:
        fh.write(node_ele_text(vertices, triangles, flags))
    n = 2**level
    return {
        "vertices": vertices.shape[0],
        "triangles": triangles.shape[0],
        "edges": 3 * n * n + 2 * n,
    }
