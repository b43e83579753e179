"""Plain-text serialization: datasets, masks, scenes, lattices, groups,
offset sets, solved models, and Gramian debug dumps.

Datasets and masks are strict machine formats (floats via repr, so a
write/parse round trip is byte-exact).  Scenes, lattices, groups, and offset
lists are human formats: blank lines and '#' comments are skipped.
"""

import io
import math
import os
import stat

import numpy as np

from .lattice import make_lattice, make_group
from .spectral import (Ball, Box, FrequencyGrid, PWMask, Scene, SpectralDataset,
                       _VALUE_CAP)

__all__ = [
    "format_dataset", "parse_dataset", "read_dataset", "write_dataset",
    "format_mask", "parse_mask", "read_mask", "write_mask",
    "parse_scene", "read_scene",
    "parse_lattice", "read_lattice", "parse_lattice_list", "read_lattice_list",
    "parse_group_file", "read_group_file",
    "parse_offsets", "read_offsets",
    "write_model", "write_gramian",
]


# Bytes of dataset or mask text handled in one array pass.  A written
# 're im' pair is at most _PAIR_CHARS characters (a float64 repr is at most
# 24), so a written chunk stays within _CHUNK too.
_CHUNK = 1 << 18
_PAIR_CHARS = 50


def _fmt(x):
    return repr(float(x))


class _Lines:
    """Line cursor with 1-based positions for error messages."""

    def __init__(self, text, name, comments):
        self.name = name
        self.raw = text.splitlines()
        self.pos = 0
        self.comments = comments

    def fail(self, lineno, msg):
        raise ValueError("%s line %d: %s" % (self.name, lineno, msg))

    def next(self, what):
        while self.pos < len(self.raw):
            self.pos += 1
            s = self.raw[self.pos - 1].strip()
            if not s:
                continue
            if self.comments and s.startswith("#"):
                continue
            return s, self.pos
        raise ValueError("%s: expected %s, got end of file" % (self.name, what))

    def done(self):
        while self.pos < len(self.raw):
            self.pos += 1
            s = self.raw[self.pos - 1].strip()
            if s and not (self.comments and s.startswith("#")):
                self.fail(self.pos, "unexpected trailing content")


class _Walk(Exception):
    """The text is not in the layout the writers produce: read it with the
    line walk, which accepts every valid layout and reports every error."""


class _Head(_Lines):
    """_Lines over the header of a dataset or mask read from a binary stream
    of size bytes, cut at b'\\n' as it is read, so the value lines are never
    split into a list of strings.  It takes only ASCII header lines that are
    printable, where that cut agrees with str.splitlines() and so with the
    walk's line numbers; anything else, and end of file inside the header,
    raises _Walk."""

    def __init__(self, stream, size, name):
        super().__init__("", name, comments=False)
        self.stream = stream
        self.size = size

    def next(self, what):
        while True:
            line = self.stream.readline()
            if not line.endswith(b"\n"):
                raise _Walk
            try:
                s = line[:-1].decode("ascii")
            except UnicodeDecodeError:
                raise _Walk
            if not s.isprintable():
                raise _Walk
            self.pos += 1
            s = s.strip()
            if s:
                return s, self.pos

    def left(self):
        return self.size - self.stream.tell()

    def pieces(self):
        """The rest of the stream in pieces of about _CHUNK bytes, each
        ending at a b'\\n', with their bytes as a uint8 array; raises _Walk
        if the stream does not end at a b'\\n' or holds a byte above 127."""
        while True:
            piece = self.stream.read(_CHUNK)
            if not piece:
                return
            if not piece.endswith(b"\n"):
                piece += self.stream.readline()
                if not piece.endswith(b"\n"):
                    raise _Walk
            b = np.frombuffer(piece, np.uint8)
            if np.any(b >= 128):
                raise _Walk
            yield piece, b


def _ascii_head(text, name):
    """A _Head over the ASCII bytes of text; raises _Walk for other text."""
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        raise _Walk
    return _Head(io.BytesIO(data), len(data), name)


def _tagged(lines, tag, count=None):
    s, no = lines.next("'%s ...'" % tag)
    toks = s.split()
    if toks[0] != tag:
        lines.fail(no, "expected '%s', got %r" % (tag, toks[0]))
    if count is not None and len(toks) - 1 != count:
        lines.fail(no, "'%s' takes %d values, got %d" % (tag, count, len(toks) - 1))
    return toks[1:], no


def _ints(lines, toks, no):
    try:
        return [int(t) for t in toks]
    except ValueError:
        lines.fail(no, "expected integers, got %r" % " ".join(toks))


def _floats(lines, toks, no):
    try:
        return [float(t) for t in toks]
    except ValueError:
        lines.fail(no, "expected numbers, got %r" % " ".join(toks))


def _header_grid(lines, kind, unit):
    """Read the grid header up to the offsets.  |K| * r^d (the unit lines
    per channel the header promises) is checked against _VALUE_CAP, naming
    the resolution line, before any grid is built."""
    s, no = lines.next("header")
    if s != kind:
        lines.fail(no, "unrecognized header %r (expected %r)" % (s, kind))
    (tok,), no = _tagged(lines, "dim", 1)
    d = _ints(lines, [tok], no)[0]
    if d < 1:
        lines.fail(no, "dim must be positive")
    toks, no = _tagged(lines, "lattice", d * d)
    try:
        lat = make_lattice(np.array(_floats(lines, toks, no)).reshape(d, d))
    except ValueError as e:
        lines.fail(no, str(e))
    (tok,), res_no = _tagged(lines, "resolution", 1)
    r = _ints(lines, [tok], res_no)[0]
    (tok,), no = _tagged(lines, "offsets", 1)
    n_off = _ints(lines, [tok], no)[0]
    if n_off < 1:
        lines.fail(no, "offset count must be positive")
    file_offsets = []
    for _ in range(n_off):
        s, no = lines.next("offset line")
        row = _ints(lines, s.split(), no)
        if len(row) != d:
            lines.fail(no, "offset needs %d integers, got %d" % (d, len(row)))
        file_offsets.append(row)
    if r >= 1 and (r > _VALUE_CAP or n_off * r ** d > _VALUE_CAP):
        count = "%d" % (n_off * r ** d) if r <= _VALUE_CAP else "more than %d" % _VALUE_CAP
        lines.fail(res_no, "header promises %s %s at this resolution; at most %d "
                           "are supported" % (count, unit, _VALUE_CAP))
    try:
        grid = FrequencyGrid(lat, r, np.array(file_offsets, dtype=np.int64))
    except ValueError as e:
        lines.fail(no, str(e))
    if grid.n_offsets != n_off:
        lines.fail(no, "duplicate offsets in file")
    perm = [grid.offset_index(k) for k in file_offsets]
    return lat, grid, perm, res_no


def _require_lines(lines, count, what, res_no):
    """Fail before allocating if the header promises more data lines than
    the file has left (count is a Python int, so it cannot overflow)."""
    left = len(lines.raw) - lines.pos
    if count > left:
        lines.fail(res_no, "header promises %d %s lines at this resolution, "
                           "but only %d lines are left before end of file"
                           % (count, what, left))


def _grid_header(kind, lattice, g):
    rows = [kind, "dim %d" % g.d,
            "lattice " + " ".join(_fmt(v) for v in lattice.basis.ravel()),
            "resolution %d" % g.r, "offsets %d" % g.n_offsets]
    rows += [" ".join(str(int(v)) for v in k) for k in g.offsets]
    return "\n".join(rows) + "\n"


def _pairs(z):
    """Text of the complex 2-D array z, one row per line as 're im' pairs
    separated by spaces.  Floats are written by repr, so parsing the text
    gives z back bit for bit."""
    rows, per = z.shape
    line = " ".join(["%r %r"] * per) + "\n"
    return line * rows % tuple(np.ascontiguousarray(z).view(np.float64).ravel().tolist())


def _dataset_chunks(F):
    yield _grid_header("pwsis-dataset v1", F.lattice, F.grid) + "channels %d\n" % F.m
    z = F.values.reshape(-1, 1)
    step = _CHUNK // _PAIR_CHARS
    for a in range(0, len(z), step):
        yield _pairs(z[a:a + step])


def format_dataset(F):
    return "".join(_dataset_chunks(F))


def _dataset_header(lines):
    lat, grid, perm, res_no = _header_grid(lines, "pwsis-dataset v1",
                                           "value lines per channel")
    (tok,), no = _tagged(lines, "channels", 1)
    m = _ints(lines, [tok], no)[0]
    if m < 0:
        lines.fail(no, "channel count must be nonnegative")
    return lat, grid, perm, res_no, m


def parse_dataset(text, name="<dataset>"):
    try:
        return _array_dataset(_ascii_head(text, name))
    except _Walk:
        lines = _Lines(text, name, comments=False)
        lat, grid, perm, res_no, m = _dataset_header(lines)
        vals = _walk_values(lines, m, grid, perm, res_no)
    return SpectralDataset(lat, grid, vals, check_finite=False)


def _array_dataset(lines):
    lat, grid, perm, _, m = _dataset_header(lines)
    return SpectralDataset(lat, grid, _array_values(lines, m, grid, perm),
                           check_finite=False)


def _array_values(lines, m, grid, perm):
    """The value block as the writers lay it out, in array passes: exactly
    m*|K|*r^d lines 'RE IM\\n', one space apart, nothing else, every number
    finite.  Raises _Walk on any departure."""
    n = m * grid.n_offsets * grid.n_cells
    if lines.left() < 4 * n:  # a value line takes at least 4 characters
        raise _Walk
    out = np.empty(2 * n)
    done = 0
    for piece, b in lines.pieces():
        nl = np.flatnonzero(b == 10)
        sp = np.flatnonzero(b == 32)
        k = len(nl)
        # one space per line, with a token on each side of it: the space
        # of line i lies strictly inside it, and spaces and lines are as many
        if (len(sp) != k or done + k > n or np.count_nonzero(b < 32) != k
                or sp[0] == 0 or np.any(sp[1:] <= nl[:-1] + 1) or np.any(sp >= nl - 1)):
            raise _Walk
        part = out[2 * done:2 * (done + k)]
        try:
            part[:] = np.array(piece.decode("ascii").split(), dtype=float)
        except ValueError:
            raise _Walk
        if not np.all(np.isfinite(part)):
            raise _Walk
        done += k
    if done != n:
        raise _Walk
    vals = out.view(np.complex128).reshape(m, grid.n_offsets, grid.n_cells)
    if perm != list(range(grid.n_offsets)):  # the writers list offsets in order
        vals[:, perm, :] = vals.copy()
    return vals


def _walk_values(lines, m, grid, perm, res_no):
    """The value lines one at a time, in any layout the format allows
    (blank lines, tabs, CRLF, extra spaces); the one reporter of bad values.
    A non-finite value is reported after the whole file is read, so a
    malformed line anywhere is reported first."""
    _require_lines(lines, m * grid.n_offsets * grid.n_cells, "value", res_no)
    vals = np.zeros((m, grid.n_offsets, grid.n_cells), dtype=np.complex128)
    bad = None
    for i in range(m):
        for fk in range(grid.n_offsets):
            ki = perm[fk]
            for c in range(grid.n_cells):
                s, no = lines.next("value line")
                pair = _floats(lines, s.split(), no)
                if len(pair) != 2:
                    lines.fail(no, "value line needs 're im', got %r" % s)
                if bad is None and not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
                    bad = no, s
                vals[i, ki, c] = complex(pair[0], pair[1])
    lines.done()
    if bad is not None:
        lines.fail(bad[0], "non-finite value in %r" % bad[1])
    return vals


def _mask_chunks(mask):
    yield _grid_header("pwsis-mask v1", mask.lattice, mask.grid)
    bits = mask.bits.reshape(-1)
    step = _CHUNK // 2
    for a in range(0, len(bits), step):
        yield np.where(bits[a:a + step], b"1\n", b"0\n").tobytes().decode("ascii")


def format_mask(mask):
    return "".join(_mask_chunks(mask))


def parse_mask(text, name="<mask>"):
    try:
        return _array_mask(_ascii_head(text, name))
    except _Walk:
        lines = _Lines(text, name, comments=False)
        lat, grid, perm, res_no = _header_grid(lines, "pwsis-mask v1", "mask bit lines")
        bits = _walk_bits(lines, grid, perm, res_no)
    return PWMask(lat, grid, bits)


def _array_mask(lines):
    lat, grid, perm, _ = _header_grid(lines, "pwsis-mask v1", "mask bit lines")
    return PWMask(lat, grid, _array_bits(lines, grid, perm))


def _array_bits(lines, grid, perm):
    """The bit block as the writers lay it out: exactly |K|*r^d lines, each
    '0\\n' or '1\\n'.  Raises _Walk on any departure."""
    n = grid.n_offsets * grid.n_cells
    if lines.left() < 2 * n:
        raise _Walk
    out = np.empty(n, dtype=bool)
    done = 0
    for _, b in lines.pieces():
        digits = b[0::2]
        k = len(digits)
        if (len(b) % 2 or done + k > n or np.any(b[1::2] != 10)
                or np.any((digits != 48) & (digits != 49))):
            raise _Walk
        out[done:done + k] = digits == 49
        done += k
    if done != n:
        raise _Walk
    bits = np.empty((grid.n_offsets, grid.n_cells), dtype=bool)
    bits[perm] = out.reshape(bits.shape)
    return bits


def _walk_bits(lines, grid, perm, res_no):
    """The mask bit lines one at a time, in any layout the format allows;
    the one reporter of bad bits."""
    _require_lines(lines, grid.n_offsets * grid.n_cells, "mask bit", res_no)
    bits = np.zeros((grid.n_offsets, grid.n_cells), dtype=bool)
    for fk in range(grid.n_offsets):
        ki = perm[fk]
        for c in range(grid.n_cells):
            s, no = lines.next("mask bit line")
            if s not in ("0", "1"):
                lines.fail(no, "mask bit must be 0 or 1, got %r" % s)
            bits[ki, c] = s == "1"
    lines.done()
    return bits


def _scene_numbers(toks):
    """Split primitive arguments at the optional 'mod' keyword."""
    if "mod" in toks:
        p = toks.index("mod")
        return toks[:p], toks[p + 1:]
    return toks, None


def parse_scene(text, name="<scene>"):
    """Scene grammar, one term per line:

      channel I coeff RE IM interval A B [mod H]
      channel I coeff RE IM box LO... HI... [mod H...]
      channel I coeff RE IM ball C... RADIUS [mod H...]
    """
    lines = _Lines(text, name, comments=True)
    scene = None
    d = None
    while True:
        try:
            s, no = lines.next("scene term")
        except ValueError:
            break
        toks = s.split()
        if len(toks) < 6 or toks[0] != "channel" or toks[2] != "coeff":
            lines.fail(no, "expected 'channel I coeff RE IM <primitive> ...', got %r" % s)
        ch = _ints(lines, toks[1:2], no)[0]
        re_im = _floats(lines, toks[3:5], no)
        coeff = complex(re_im[0], re_im[1])
        kind = toks[5]
        body, mod = _scene_numbers(toks[6:])
        nums = _floats(lines, body, no)
        if kind == "interval":
            if len(nums) != 2:
                lines.fail(no, "interval takes 2 numbers, got %d" % len(nums))
            term_d = 1
            prim = Box([nums[0]], [nums[1]])
        elif kind == "box":
            if not nums or len(nums) % 2:
                lines.fail(no, "box takes an even number of values, got %d" % len(nums))
            term_d = len(nums) // 2
            prim = Box(nums[:term_d], nums[term_d:])
        elif kind == "ball":
            if len(nums) < 2:
                lines.fail(no, "ball takes center coordinates then a radius")
            term_d = len(nums) - 1
            prim = Ball(nums[:term_d], nums[term_d])
        else:
            lines.fail(no, "unknown primitive %r" % kind)
        if d is None:
            d = term_d
            scene = Scene(d)
        elif term_d != d:
            lines.fail(no, "scene mixes dimensions %d and %d" % (d, term_d))
        h = None
        if mod is not None:
            h = _floats(lines, mod, no)
            if len(h) != d:
                lines.fail(no, "mod takes %d numbers, got %d" % (d, len(h)))
        try:
            scene.add(ch, coeff, prim, mod=h)
        except ValueError as e:
            lines.fail(no, str(e))
    if scene is None:
        raise ValueError("%s: scene has no terms" % name)
    return scene


def _human_tokens(text, name):
    toks = []
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        toks.extend((t, lineno) for t in s.split())
    return toks


def parse_lattice(text, name="<lattice>"):
    toks = _human_tokens(text, name)
    try:
        vals = [float(t) for t, _ in toks]
    except ValueError:
        raise ValueError("%s: lattice file must contain only numbers" % name)
    d = math.isqrt(len(vals))
    if d * d != len(vals) or d == 0:
        raise ValueError("%s: lattice needs d*d entries, got %d" % (name, len(vals)))
    return make_lattice(np.array(vals).reshape(d, d))


def parse_lattice_list(text, name="<lattices>"):
    """One lattice per non-comment line (d*d row-major entries)."""
    rows = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        try:
            vals = [float(t) for t in s.split()]
        except ValueError:
            raise ValueError("%s line %d: expected numbers" % (name, lineno))
        d = math.isqrt(len(vals))
        if d * d != len(vals) or d == 0:
            raise ValueError("%s line %d: lattice needs d*d entries, got %d"
                             % (name, lineno, len(vals)))
        rows[lineno] = make_lattice(np.array(vals).reshape(d, d))
    if not rows:
        raise ValueError("%s: no lattices given" % name)
    lats = list(rows.values())
    if len({lat.d for lat in lats}) != 1:
        raise ValueError("%s: lattices mix dimensions" % name)
    return lats


def parse_group_file(text, d, name="<group>"):
    toks = _human_tokens(text, name)
    try:
        vals = [int(t) for t, _ in toks]
    except ValueError:
        raise ValueError("%s: group file must contain only integers" % name)
    per = d * d
    if not vals or len(vals) % per:
        raise ValueError("%s: group needs a multiple of %d integers, got %d"
                         % (name, per, len(vals)))
    mats = [np.array(vals[i:i + per]).reshape(d, d) for i in range(0, len(vals), per)]
    try:
        return make_group(mats)
    except ValueError as exc:
        raise ValueError("%s: %s" % (name, exc))


def parse_offsets(text, d, name="<offsets>"):
    toks = _human_tokens(text, name)
    try:
        vals = [int(t) for t, _ in toks]
    except ValueError:
        raise ValueError("%s: offsets file must contain only integers" % name)
    if not vals or len(vals) % d:
        raise ValueError("%s: offsets need a multiple of %d integers, got %d"
                         % (name, d, len(vals)))
    return np.array(vals, dtype=np.int64).reshape(-1, d)


def _read(path):
    with open(path, "r") as fh:
        return fh.read()


def _read_array(path, array_read, parse):
    """array_read over the bytes of a regular file, in pieces straight from
    the file.  parse reads the whole text of any other file, such as a pipe,
    which cannot be read twice, and of a file in any other layout or with
    any error, so that it stays the one reporter of errors (a header error
    in the pieces may sit before text the file's encoding rejects)."""
    if stat.S_ISREG(os.stat(path).st_mode):
        with open(path, "rb") as fh:
            try:
                return array_read(_Head(fh, os.fstat(fh.fileno()).st_size, str(path)))
            except (_Walk, ValueError):
                pass
    return parse(_read(path), name=str(path))


def read_dataset(path):
    return _read_array(path, _array_dataset, parse_dataset)


def write_dataset(F, path):
    with open(path, "w") as fh:
        fh.writelines(_dataset_chunks(F))


def read_mask(path):
    return _read_array(path, _array_mask, parse_mask)


def write_mask(mask, path):
    with open(path, "w") as fh:
        fh.writelines(_mask_chunks(mask))


def read_scene(path):
    return parse_scene(_read(path), name=str(path))


def read_lattice(path):
    return parse_lattice(_read(path), name=str(path))


def read_lattice_list(path):
    return parse_lattice_list(_read(path), name=str(path))


def read_group_file(path, d):
    return parse_group_file(_read(path), d, name=str(path))


def read_offsets(path, d):
    return parse_offsets(_read(path), d, name=str(path))


def write_model(model, report, path):
    """Serialize a solved model: its generator fibers in the dataset format
    followed by a sidecar line with the attained error."""
    from .solver import generators

    gen = generators(model)
    with open(path, "w") as fh:
        fh.writelines(_dataset_chunks(gen))
        fh.write("error %s\n" % _fmt(report.total_error))


def write_gramian(G, path):
    """Debug dump: one line per cell (ascending), m*m complex entries as
    're im' pairs, row-major; inactive cells are all zero."""
    grid = G.grid
    per = G.m * G.m
    step = max(1, _CHUNK // (_PAIR_CHARS * max(per, 1)))
    with open(path, "w") as fh:
        fh.write("pwsis-gramian v1\n")
        fh.write("dim %d\n" % grid.d)
        fh.write("lattice %s\n" % " ".join(_fmt(v) for v in grid.lattice.basis.ravel()))
        fh.write("resolution %d\n" % grid.r)
        fh.write("channels %d\n" % G.m)
        for a in range(0, grid.n_cells, step):
            b = min(a + step, grid.n_cells)
            rows = np.zeros((b - a, per), dtype=np.complex128)
            lo, hi = np.searchsorted(G.active_idx, [a, b])
            rows[G.active_idx[lo:hi] - a] = G.mats[lo:hi].reshape(hi - lo, per)
            fh.write(_pairs(rows))
