"""The benchmark's own writer and parser for the `pwsis-dataset v1` and
`pwsis-mask v1` text formats, so that `pwsis.textio` is never used to check
itself.

Layout (both formats): a header line, `dim d`, `lattice` with the d*d basis
entries row-major, `resolution r`, `offsets n` followed by n rows of d
integers, then the body.  A dataset body is `channels m` followed by
m * n * r^d lines `re im`, channel-major, then offset in file order, then
cell in C order of the cell index j.  A mask body is n * r^d lines of 0/1.
"""

import numpy as np


class Grid:
    """Header of a dataset or mask file: basis, resolution, offsets."""

    def __init__(self, basis, r, offsets):
        self.basis = np.asarray(basis, dtype=float)
        self.d = self.basis.shape[0]
        self.r = int(r)
        self.offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, self.d)
        self.n_cells = self.r ** self.d
        self.cell_weight = 1.0 / (abs(np.linalg.det(self.basis)) * self.n_cells)

    def header(self, kind):
        lines = [kind, "dim %d" % self.d,
                 "lattice " + " ".join(repr(float(v)) for v in self.basis.ravel()),
                 "resolution %d" % self.r, "offsets %d" % len(self.offsets)]
        lines += [" ".join(str(int(v)) for v in k) for k in self.offsets]
        return lines

    def cells(self):
        """(n_cells, d) integer cell indices j in C order."""
        mesh = np.meshgrid(*[np.arange(self.r)] * self.d, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_dataset(path, grid, values):
    """values: complex array (m, n_offsets, n_cells) in the grid's offset order."""
    v = np.asarray(values, dtype=np.complex128).reshape(-1)
    body = ["%r %r" % p for p in zip(v.real.tolist(), v.imag.tolist())]
    _write(path, grid.header("pwsis-dataset v1") + ["channels %d" % values.shape[0]] + body)


def write_mask(path, grid, bits):
    body = ["1" if b else "0" for b in np.asarray(bits, dtype=bool).reshape(-1).tolist()]
    _write(path, grid.header("pwsis-mask v1") + body)


def _read_header(lines, kind):
    if lines[0] != kind:
        raise ValueError("expected header %r, got %r" % (kind, lines[0]))
    fields = [ln.split() for ln in lines[1:5]]
    tags = [f[0] for f in fields]
    if tags != ["dim", "lattice", "resolution", "offsets"]:
        raise ValueError("unexpected header fields %r" % tags)
    d = int(fields[0][1])
    basis = np.array([float(t) for t in fields[1][1:]]).reshape(d, d)
    n_off = int(fields[3][1])
    offsets = [[int(t) for t in ln.split()] for ln in lines[5:5 + n_off]]
    return Grid(basis, int(fields[2][1]), offsets), 5 + n_off


def read_dataset(path):
    """Returns (grid, values) with values in the file's offset order."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    grid, pos = _read_header(lines, "pwsis-dataset v1")
    tag, m = lines[pos].split()
    if tag != "channels":
        raise ValueError("expected 'channels', got %r" % tag)
    m = int(m)
    body = lines[pos + 1:]
    want = m * len(grid.offsets) * grid.n_cells
    if len(body) != want:
        raise ValueError("%s: %d value lines, header promises %d" % (path, len(body), want))
    nums = np.array(" ".join(body).split(), dtype=np.float64).reshape(-1, 2)
    if nums.shape[0] != want:
        raise ValueError("%s: value lines must hold 're im'" % path)
    values = (nums[:, 0] + 1j * nums[:, 1]).reshape(m, len(grid.offsets), grid.n_cells)
    return grid, values


def read_mask(path):
    """Returns (grid, bits) with bits (n_offsets, n_cells) in file order."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    grid, pos = _read_header(lines, "pwsis-mask v1")
    body = lines[pos:]
    if len(body) != len(grid.offsets) * grid.n_cells or set(body) - {"0", "1"}:
        raise ValueError("%s: mask body must be %d lines of 0 or 1"
                         % (path, len(grid.offsets) * grid.n_cells))
    bits = np.array(body) == "1"
    return grid, bits.reshape(len(grid.offsets), grid.n_cells)


def reorder(grid, array, offsets):
    """array indexed by grid.offsets on axis -2, re-indexed to `offsets`."""
    pos = {tuple(int(v) for v in k): i for i, k in enumerate(grid.offsets)}
    idx = [pos[tuple(int(v) for v in k)] for k in offsets]
    if len(pos) != len(offsets):
        raise ValueError("offset sets differ")
    return array[..., idx, :]
