"""
Reader for the legacy binary VTK files of ``eafe_control.mesh.write_vtk``,
so that tests can compare what was written with the arrays it came from.

It accepts exactly the layout the writer promises, and fails an assertion
on anything else: four header lines, then POINTS, CELLS and CELL_TYPES,
then optionally POINT_DATA with SCALARS fields.  Each section line is
followed by one big-endian block of the declared size and a newline.
"""

import numpy as np


class LegacyVTK:
    """
    ``lines`` holds every text line in file order; ``points`` (N, 3)
    float64, ``cells`` (M, 4) int32, ``cell_types`` (M,) int32 and
    ``fields`` (name -> (N,) float64) the binary blocks, native byte order.
    """

    def __init__(self, data):
        self._data = data
        self._pos = 0
        self.lines = []
        for _ in range(4):
            self._line()
        assert self.lines[0] == "# vtk DataFile Version 2.0"
        assert self.lines[2:] == ["BINARY", "DATASET UNSTRUCTURED_GRID"]

        keyword, nv, kind = self._line().split()
        assert (keyword, kind) == ("POINTS", "double")
        self.points = self._block(">f8", (int(nv), 3))
        keyword, nt, size = self._line().split()
        assert keyword == "CELLS" and int(size) == 4 * int(nt)
        self.cells = self._block(">i4", (int(nt), 4))
        keyword, count = self._line().split()
        assert keyword == "CELL_TYPES" and int(count) == int(nt)
        self.cell_types = self._block(">i4", (int(nt),))

        self.fields = {}
        if self._pos < len(data):
            assert self._line() == "POINT_DATA %s" % nv
        while self._pos < len(data):
            keyword, name, kind = self._line().split()
            assert (keyword, kind) == ("SCALARS", "double")
            assert self._line() == "LOOKUP_TABLE default"
            assert name not in self.fields
            self.fields[name] = self._block(">f8", (int(nv),))

    def _line(self):
        end = self._data.index(b"\n", self._pos)
        line = self._data[self._pos:end].decode("ascii")
        self._pos = end + 1
        self.lines.append(line)
        return line

    def _block(self, dtype, shape):
        size = np.dtype(dtype).itemsize * int(np.prod(shape))
        end = self._pos + size
        assert self._data[end:end + 1] == b"\n", "block not followed by newline"
        block = np.frombuffer(self._data[self._pos:end], dtype=dtype)
        self._pos = end + 1
        return block.reshape(shape).astype(np.dtype(dtype).newbyteorder("="))


def read_legacy_vtk(path):
    with open(path, "rb") as fh:
        return LegacyVTK(fh.read())


def same_bits(a, b):
    """Equal shapes, dtypes and bytes: -0.0 and 0.0 differ, NaNs compare."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
