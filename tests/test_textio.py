import os
import threading
import tracemalloc

import numpy as np
import pytest

from pwsis.fibers import gramian_field
from pwsis.lattice import make_lattice
from pwsis.solver import best_sis, generators
from pwsis.spectral import PWMask, SpectralDataset, make_grid
from pwsis import textio
from pwsis.textio import (format_dataset, format_mask, parse_dataset,
                          parse_group_file, parse_lattice, parse_lattice_list,
                          parse_mask, parse_offsets, parse_scene, read_dataset,
                          read_mask, write_dataset, write_gramian, write_model)
from pwsis.textio import (_Lines, _floats, _fmt, _header_grid, _ints,
                          _require_lines, _tagged)

LAT_Z = make_lattice([[1.0]])
K3 = [[-1], [0], [1]]


def _sample_dataset():
    grid = make_grid(LAT_Z, 2, K3)
    rng = np.random.default_rng(31)
    vals = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    vals[0, 0, 0] = 1e-300 - 0.0j
    vals[1, 2, 1] = -2.5 + 1e17j
    return SpectralDataset(LAT_Z, grid, vals)


def test_dataset_round_trip_is_byte_stable():
    F = _sample_dataset()
    text = format_dataset(F)
    G = parse_dataset(text)
    assert np.array_equal(G.values, F.values)
    assert G.lattice.same_as(F.lattice) and G.grid.compatible(F.grid)
    assert format_dataset(G) == text


def test_dataset_offset_order_is_canonicalized():
    text = ("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 1\noffsets 2\n"
            "1\n0\nchannels 1\n1.0 0.0\n2.0 0.0\n")
    F = parse_dataset(text)
    assert np.array_equal(F.grid.offsets.ravel(), [0, 1])
    # the value written under offset 1 follows it to its sorted slot
    assert F.values[0, 1, 0] == 1.0 and F.values[0, 0, 0] == 2.0


def test_dataset_errors_carry_line_numbers():
    with pytest.raises(ValueError, match=r"bad.txt line 1: unrecognized header"):
        parse_dataset("garbage\n", name="bad.txt")
    text = ("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 1\noffsets 1\n"
            "0\nchannels 1\n1.0\n")
    with pytest.raises(ValueError, match=r"line 8"):
        parse_dataset(text, name="bad.txt")
    short = ("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 1\noffsets 1\n"
             "0\nchannels 1\n")
    with pytest.raises(ValueError, match="end of file"):
        parse_dataset(short, name="bad.txt")


def test_huge_header_fails_before_allocating():
    header = ("pwsis-dataset v1\ndim 2\nlattice 1.0 0.0 0.0 1.0\n"
              "resolution 3000000\noffsets 1\n0 0\n")
    with pytest.raises(ValueError, match=r"huge.txt line 4: header promises "
                                         r"9000000000000 value lines"):
        parse_dataset(header + "channels 1\n", name="huge.txt")
    mask = header.replace("pwsis-dataset", "pwsis-mask") + "1\n"
    with pytest.raises(ValueError, match=r"huge.txt line 4: .*9000000000000 mask bit"):
        parse_mask(mask, name="huge.txt")


def test_header_grid_over_the_cap_fails_on_the_resolution_line():
    # no value lines are promised, so only the size cap stands between the
    # header and a grid of 9e12 (or 1e800) samples
    for res, count in (("3000000", "9000000000000"), ("1" + "0" * 400, "more than 16777216")):
        header = ("pwsis-dataset v1\ndim 2\nlattice 1.0 0.0 0.0 1.0\n"
                  "resolution %s\noffsets 1\n0 0\n" % res)
        with pytest.raises(ValueError, match=r"huge.txt line 4: header promises %s value "
                                             r"lines per channel .* at most 16777216" % count):
            parse_dataset(header + "channels 0\n", name="huge.txt")
        mask = header.replace("pwsis-dataset", "pwsis-mask")
        with pytest.raises(ValueError, match=r"huge.txt line 4: header promises %s mask "
                                             r"bit lines" % count):
            parse_mask(mask, name="huge.txt")
    # the cap itself is still allowed: 4096^2 = 2^24 samples
    at_cap = ("pwsis-mask v1\ndim 2\nlattice 1.0 0.0 0.0 1.0\n"
              "resolution 4096\noffsets 1\n0 0\n")
    with pytest.raises(ValueError, match=r"16777216 mask bit lines at this resolution, "
                                         r"but only 0"):
        parse_mask(at_cap, name="cap.txt")


def test_non_finite_value_names_its_line():
    text = ("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 2\noffsets 2\n"
            "1\n0\nchannels 1\n1.0 0.0\n2.0 0.0\n\n3.0 0.0\n4.0 inf\n")
    with pytest.raises(ValueError, match=r"bad.txt line 13: non-finite value in '4.0 inf'"):
        parse_dataset(text, name="bad.txt")
    with pytest.raises(ValueError, match=r"bad.txt line 9: non-finite"):
        parse_dataset(text.replace("1.0 0.0", "nan 0.0"), name="bad.txt")


def test_dataset_rejects_duplicate_offsets():
    text = ("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 1\noffsets 2\n"
            "0\n0\nchannels 1\n1.0 0.0\n2.0 0.0\n")
    with pytest.raises(ValueError, match="duplicate offsets"):
        parse_dataset(text, name="bad.txt")


def test_mask_round_trip():
    grid = make_grid(LAT_Z, 2, K3)
    bits = np.zeros((3, 2), dtype=bool)
    bits[1] = True
    bits[2, 0] = True
    mask = PWMask(LAT_Z, grid, bits)
    text = format_mask(mask)
    back = parse_mask(text)
    assert np.array_equal(back.bits, mask.bits)
    assert format_mask(back) == text


def test_scene_grammar_round_trip():
    text = """
# two channels, one modulated
channel 0 coeff 1.0 0.0 interval -1.0 0.0
channel 0 coeff 2.0 0.0 interval 1.0 2.0
channel 1 coeff 0.0 1.0 interval -1.0 1.0 mod 0.25
"""
    scene = parse_scene(text)
    assert scene.d == 1 and scene.n_channels == 2
    assert scene.terms[2][1] == 1.0j
    assert scene.terms[2][3][0] == 0.25


def test_scene_grammar_primitives_and_errors():
    scene = parse_scene("channel 0 coeff 1.0 0.0 box 0 0 1 1\n"
                        "channel 1 coeff 1.0 0.0 ball 0 0 0.5\n")
    assert scene.d == 2 and scene.n_channels == 2
    with pytest.raises(ValueError, match="line 1: unknown primitive 'blob'"):
        parse_scene("channel 0 coeff 1.0 0.0 blob 1 2\n")
    with pytest.raises(ValueError, match="line 1: interval takes 2 numbers"):
        parse_scene("channel 0 coeff 1.0 0.0 interval 1\n")
    with pytest.raises(ValueError, match="line 2: scene mixes dimensions"):
        parse_scene("channel 0 coeff 1.0 0.0 interval 0 1\n"
                    "channel 0 coeff 1.0 0.0 ball 0 0 1\n")
    with pytest.raises(ValueError, match="scene has no terms"):
        parse_scene("# empty\n")


def test_lattice_and_offsets_parsers():
    lat = parse_lattice("1.0 0.0\n0.0 1.0\n")
    assert lat.d == 2
    lats = parse_lattice_list("# two 1d lattices\n1.0\n0.5\n")
    assert len(lats) == 2 and lats[1].det_abs == 0.5
    ks = parse_offsets("-1\n0\n1\n", 1)
    assert np.array_equal(ks.ravel(), [-1, 0, 1])
    group = parse_group_file("0 -1\n1 0\n", 2)
    assert len(group) == 4


def test_file_round_trip(tmp_path):
    F = _sample_dataset()
    p = tmp_path / "data.txt"
    write_dataset(F, p)
    back = read_dataset(p)
    assert np.array_equal(back.values, F.values)


def test_write_model_appends_error_line(tmp_path):
    F = _sample_dataset()
    model, rep = best_sis(F, 1)
    p = tmp_path / "model.txt"
    write_model(model, rep, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "pwsis-dataset v1"
    assert lines[-1] == "error %s" % repr(float(rep.total_error))
    gens = parse_dataset("\n".join(lines[:-1]) + "\n")
    assert gens.m == 1


def test_write_gramian_layout(tmp_path):
    F = _sample_dataset()
    G = gramian_field(F)
    p = tmp_path / "gram.txt"
    write_gramian(G, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "pwsis-gramian v1"
    assert lines[4] == "channels 2"
    rows = lines[5:]
    assert len(rows) == F.grid.n_cells
    first = np.array([float(t) for t in rows[0].split()])
    mat = (first[0::2] + 1j * first[1::2]).reshape(2, 2)
    assert np.array_equal(mat, G.dense_at(0))


# ---------------------------------------------------------------------------
# The array reader and the chunked writers against copies of the line-by-line
# code they replaced.  The header helpers (_Lines, _header_grid, ...) are
# shared and unchanged, so the copies reuse them.


def _ref_parse_dataset(text, name="<dataset>"):
    lines = _Lines(text, name, comments=False)
    lat, grid, perm, res_no = _header_grid(lines, "pwsis-dataset v1",
                                           "value lines per channel")
    (tok,), no = _tagged(lines, "channels", 1)
    m = _ints(lines, [tok], no)[0]
    if m < 0:
        lines.fail(no, "channel count must be nonnegative")
    _require_lines(lines, m * grid.n_offsets * grid.n_cells, "value", res_no)
    first = lines.pos
    vals = np.zeros((m, grid.n_offsets, grid.n_cells), dtype=np.complex128)
    for i in range(m):
        for fk in range(grid.n_offsets):
            ki = perm[fk]
            for c in range(grid.n_cells):
                s, no = lines.next("value line")
                pair = _floats(lines, s.split(), no)
                if len(pair) != 2:
                    lines.fail(no, "value line needs 're im', got %r" % s)
                vals[i, ki, c] = complex(pair[0], pair[1])
    lines.done()
    if not np.all(np.isfinite(vals)):
        bad = ~np.isfinite(vals[:, perm, :])
        target = int(np.flatnonzero(bad)[0])
        seen = -1
        for no in range(first + 1, len(lines.raw) + 1):
            s = lines.raw[no - 1].strip()
            if s:
                seen += 1
                if seen == target:
                    lines.fail(no, "non-finite value in %r" % s)
    return SpectralDataset(lat, grid, vals, check_finite=False)


def _ref_parse_mask(text, name="<mask>"):
    lines = _Lines(text, name, comments=False)
    lat, grid, perm, res_no = _header_grid(lines, "pwsis-mask v1", "mask bit lines")
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
    return PWMask(lat, grid, bits)


def _ref_head(kind, lattice, g):
    out = [kind, "dim %d" % g.d,
           "lattice " + " ".join(_fmt(v) for v in lattice.basis.ravel()),
           "resolution %d" % g.r, "offsets %d" % g.n_offsets]
    for k in g.offsets:
        out.append(" ".join(str(int(v)) for v in k))
    return out


def _ref_format_dataset(F):
    out = _ref_head("pwsis-dataset v1", F.lattice, F.grid)
    out.append("channels %d" % F.m)
    for z in F.values.reshape(-1):
        out.append("%s %s" % (_fmt(z.real), _fmt(z.imag)))
    return "\n".join(out) + "\n"


def _ref_format_mask(mask):
    out = _ref_head("pwsis-mask v1", mask.lattice, mask.grid)
    for b in mask.bits.reshape(-1):
        out.append("1" if b else "0")
    return "\n".join(out) + "\n"


def _ref_write_gramian(G, path):
    grid = G.grid
    zero_row = " ".join(["0.0 0.0"] * (G.m * G.m))
    with open(path, "w") as fh:
        fh.write("pwsis-gramian v1\n")
        fh.write("dim %d\n" % grid.d)
        fh.write("lattice %s\n" % " ".join(_fmt(v) for v in grid.lattice.basis.ravel()))
        fh.write("resolution %d\n" % grid.r)
        fh.write("channels %d\n" % G.m)
        k = 0
        for c in range(grid.n_cells):
            if k < G.n_active and G.active_idx[k] == c:
                mat = G.mats[k]
                fh.write(" ".join("%s %s" % (_fmt(z.real), _fmt(z.imag)) for z in mat.ravel()))
                fh.write("\n")
                k += 1
            else:
                fh.write(zero_row + "\n")


def _bits_of(a):
    return np.ascontiguousarray(a).view(np.uint8)


def _same_outcome(new, ref, text, name="f.txt"):
    """Both parsers raise the same ValueError text, or both give the same
    grid and the same bits (signed zeros included)."""
    try:
        want = ref(text, name=name)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            new(text, name=name)
        assert str(got.value) == str(e), text
        return None
    got = new(text, name=name)
    assert got.grid.compatible(want.grid) and got.lattice.same_as(want.lattice)
    field = "values" if isinstance(want, SpectralDataset) else "bits"
    assert np.array_equal(_bits_of(getattr(got, field)), _bits_of(getattr(want, field))), text
    return got


_SPECIALS = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, -2.2e-310, 1e17, -1e17, 1.5, 1e308]


def _random_dataset_text(rng):
    """A file in the writers' layout with the offsets in shuffled order."""
    d = int(rng.integers(1, 4))
    r = int(rng.integers(1, {1: 9, 2: 5, 3: 3}[d]))
    basis = np.eye(d) + 0.25 * rng.standard_normal((d, d))
    n_off = int(rng.integers(1, 5))
    offs = {(0,) * d}
    while len(offs) < n_off:
        offs.add(tuple(int(v) for v in rng.integers(-2, 3, size=d)))
    offs = list(offs)
    rng.shuffle(offs)
    m = int(rng.integers(0, 4))
    n = m * n_off * r ** d
    vals = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-5, 6, size=2 * n)
    pick = rng.random(2 * n) < 0.2
    vals[pick] = rng.choice(_SPECIALS, size=int(pick.sum()))
    vals = vals.tolist()
    head = ["pwsis-dataset v1", "dim %d" % d,
            "lattice " + " ".join(repr(float(v)) for v in basis.ravel()),
            "resolution %d" % r, "offsets %d" % n_off]
    head += [" ".join(str(v) for v in k) for k in offs] + ["channels %d" % m]
    body = "".join("%r %r\n" % (vals[i], vals[i + 1]) for i in range(0, 2 * n, 2))
    return "\n".join(head) + "\n" + body


@pytest.mark.parametrize("chunk", [None, 101])
def test_array_reader_and_writers_match_the_line_code(monkeypatch, tmp_path, chunk):
    # a small chunk cuts every file into many pieces and written chunks;
    # files in the writers' layout never reach the line walk
    if chunk is not None:
        monkeypatch.setattr(textio, "_CHUNK", chunk)

    def no_walk(*args):
        raise AssertionError("the line walk read a file in the writers' layout")

    monkeypatch.setattr(textio, "_walk_values", no_walk)
    monkeypatch.setattr(textio, "_walk_bits", no_walk)
    rng = np.random.default_rng(2024)
    for _ in range(60):
        text = _random_dataset_text(rng)
        F = _same_outcome(parse_dataset, _ref_parse_dataset, text)
        assert F is not None
        assert format_dataset(F) == _ref_format_dataset(F)
        write_dataset(F, tmp_path / "d.txt")
        assert (tmp_path / "d.txt").read_text() == _ref_format_dataset(F)
        bits = rng.random((F.grid.n_offsets, F.grid.n_cells)) < 0.5
        mask = PWMask(F.lattice, F.grid, bits)
        mtext = _ref_format_mask(mask)
        assert format_mask(mask) == mtext
        back = _same_outcome(parse_mask, _ref_parse_mask, mtext)
        assert np.array_equal(back.bits, bits)


_BASE = ("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 2\noffsets 2\n1\n0\n"
         "channels 1\n1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n")
_BODY = "1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n"


def _odd_body(new_body):
    return _BASE.replace(_BODY, new_body)


_ODD_DATASETS = [
    _odd_body("1.0 -0.0\n2.5 3.0 4.0\n5e-324\n-6.0 7.0\n"),  # tokens and lines add up
    _odd_body("1 2 3\n4\n2.5 3.0\n4.0 5e-324\n"),
    _odd_body("1.0 -0.0\n2.5\n4.0 5e-324\n-6.0 7.0\n"),     # short line
    _odd_body("1.0 -0.0\n2.5 3.0 1\n4.0 5e-324\n-6.0 7.0\n"),  # three tokens
    _odd_body("1.0 nan\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n"),
    _odd_body("1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 inf\n"),
    _odd_body("1.0 -0.0\n2.5 1e999\n4.0 5e-324\n-6.0 7.0\n"),
    _odd_body("1.0 nan\n2.5 3.0\n4.0 5e-324\n-6.0 7.0 8.0\n"),  # bad line after nan
    _odd_body("1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 x\n"),
    _odd_body("1_0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n"),
    _odd_body("1.0 -0.0\n2.5 ٣.0\n4.0 5e-324\n-6.0 7.0\n"),  # non-ASCII digit
    _odd_body("1.0 -0.0\n\n2.5 3.0\n\n4.0 5e-324\n-6.0 7.0\n"),  # blank lines
    _odd_body("1.0\t-0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n"),
    _odd_body("1.0  -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0 \n"),
    _odd_body("  1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n"),  # leading spaces
    _odd_body("1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0"),  # no final newline
    _odd_body("1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n8.0 9.0\n"),  # trailing content
    _odd_body("1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\n\n\n"),
    _odd_body("1.0 -0.0\n2.5 3.0\n4.0 5e-324\n"),  # one line short
    _odd_body("1.0 -0.0\n2.5 3.0\x0c4.0 5e-324\n-6.0 7.0\n"),  # form feed ends a line
    _odd_body("1.0 -0.0\n2.5\x1c3.0\n4.0 5e-324\n-6.0 7.0\n"),
    _odd_body("1.0 -0.0\n2.5 3.0\n4.0 5e-324\n-6.0 7.0\x7f\n"),
    _odd_body(""),
    _BASE.replace("\n", "\r\n"),  # CRLF
    _BASE.replace("\n", "\r"),
    _BASE.replace("lattice 1.0\n", "lattice 1.0\n\n"),  # blank header line
    _BASE.replace("dim 1", "dim\t1"),
    _BASE.replace("dim 1\n", "dim 1\r"),  # line ends that only splitlines() sees
    _BASE.replace("lattice 1.0\n", "lattice 1.0\x0c"),
    _BASE.replace("1\n0\nchannels", "1\x850\nchannels"),
    _BASE.replace("dim 1", "dim  1 "),
    _BASE.replace("channels 1", "channels 2"),
    _BASE.replace("channels 1", "channels 0"),
    _BASE.replace("channels 1\n", "channels 1"),
    _BASE.replace("channels 1\n", "channels 1\n\n"),
    _BASE.replace("resolution 2\n", "resolution 2\n") + "\n",
    _BASE.replace("offsets 2\n1\n0\n", "offsets 2\n1\n1\n"),
]

_MASK = "pwsis-mask v1\ndim 1\nlattice 1.0\nresolution 2\noffsets 2\n1\n0\n"
_ODD_MASKS = [
    _MASK + "1\n0\n0\n1\n",
    _MASK + "1\n2\n0\n1\n",
    _MASK + "1\n 1\n0\n1\n",
    _MASK + "1\n\n0\n1\n",
    _MASK + "1\n\n0\n0\n1\n",
    _MASK + "1\n1 \n0\n1\n",
    _MASK + "1\n01\n0\n1\n",
    _MASK + "1\n0\n0\n1",
    _MASK + "1\n0\n0\n1\n1\n",
    _MASK + "1\n0\n0\n",
    _MASK + "1\n0\t\n0\n1\n",
    _MASK + "10\n\n0\n1\n",
    (_MASK + "1\n0\n0\n1\n").replace("\n", "\r\n"),
    _MASK,
]


@pytest.mark.parametrize("chunk", [None, 5])
def test_odd_files_give_the_line_code_outcome(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(textio, "_CHUNK", chunk)
    for text in _ODD_DATASETS:
        _same_outcome(parse_dataset, _ref_parse_dataset, text)
    for text in _ODD_MASKS:
        _same_outcome(parse_mask, _ref_parse_mask, text)
    # the layouts that only look different still parse to the written values
    F = parse_dataset(_BASE)
    for text in _ODD_DATASETS[11], _ODD_DATASETS[12], _BASE.replace("\n", "\r\n"):
        assert np.array_equal(_bits_of(parse_dataset(text).values), _bits_of(F.values))
    with pytest.raises(ValueError, match=r"f.txt line 9: value line needs 're im', "
                                         r"got '1 2 3'"):
        parse_dataset(_ODD_DATASETS[1], name="f.txt")


def _same_file_outcome(read, ref, text, path):
    """_same_outcome for read on a file holding text (its UTF-8 bytes, line
    ends untouched) and ref on the text."""
    path.write_bytes(text.encode("utf-8"))
    return _same_outcome(lambda _, name: read(path), ref, text, name=str(path))


@pytest.mark.parametrize("chunk", [None, 5, 101])
def test_file_readers_match_the_line_code(monkeypatch, tmp_path, chunk):
    # files in the writers' layout are read in pieces straight from the
    # file, never as a whole text; every other file gives the line code's
    # values or error text, line numbers included
    if chunk is not None:
        monkeypatch.setattr(textio, "_CHUNK", chunk)
    read_whole = textio._read
    path = tmp_path / "f.txt"

    def no_whole_read(p):
        raise AssertionError("a file in the writers' layout was read whole")

    monkeypatch.setattr(textio, "_read", no_whole_read)
    rng = np.random.default_rng(2024)
    for _ in range(60):
        text = _random_dataset_text(rng)
        F = _same_file_outcome(read_dataset, _ref_parse_dataset, text, path)
        bits = rng.random((F.grid.n_offsets, F.grid.n_cells)) < 0.5
        mtext = _ref_format_mask(PWMask(F.lattice, F.grid, bits))
        back = _same_file_outcome(read_mask, _ref_parse_mask, mtext, path)
        assert np.array_equal(back.bits, bits)
    monkeypatch.setattr(textio, "_read", read_whole)
    for text in _ODD_DATASETS:
        _same_file_outcome(read_dataset, _ref_parse_dataset, text, path)
    for text in _ODD_MASKS:
        _same_file_outcome(read_mask, _ref_parse_mask, text, path)


def test_file_errors_come_from_the_whole_text(tmp_path):
    # a header error before bytes that are not text: the error is the one
    # reading the whole text gives, as before files were read in pieces
    path = tmp_path / "f.txt"
    for read, parse, body in ((read_dataset, parse_dataset, b"garbage\n\xff\xfe\n"),
                              (read_mask, parse_mask, b"pwsis-mask v1\ndim x\n\xff\n")):
        path.write_bytes(body)
        with pytest.raises(Exception) as want:
            parse(textio._read(path), name=str(path))
        with pytest.raises(type(want.value)) as got:
            read(path)
        assert str(got.value) == str(want.value)


def test_readers_take_a_pipe(tmp_path):
    # a pipe cannot be read twice, so it is read whole, as before
    F = _sample_dataset()
    mask = PWMask(F.lattice, F.grid, np.abs(F.values[0]) > 1.0)
    path = tmp_path / "pipe"
    os.mkfifo(path)
    for read, text, field in ((read_dataset, format_dataset(F), "values"),
                              (read_mask, format_mask(mask), "bits")):
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            got = read(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(_bits_of(getattr(got, field)),
                              _bits_of(getattr(F if field == "values" else mask, field)))


def test_read_dataset_never_holds_the_whole_text(tmp_path):
    # 110,592 values: 1.8 MB as float64 pairs, 4.3 MB as text
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    rng = np.random.default_rng(67)
    shape = (3, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    path = tmp_path / "big.dataset"
    write_dataset(F, path)
    assert path.stat().st_size > F.values.nbytes + 8 * textio._CHUNK
    tracemalloc.start()
    try:
        back = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, F.values)
    assert peak < F.values.nbytes + 8 * textio._CHUNK


def test_write_gramian_and_write_model_match_the_old_writers(tmp_path):
    # active cells 0, 3, 6 and 7 with dead cells between them
    grid = make_grid(LAT_Z, 8, K3)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((3, 3, 8)) + 1j * rng.standard_normal((3, 3, 8))
    vals[:, :, [1, 2, 4, 5]] = 0.0
    vals[1, :, 3] = -0.0
    G = gramian_field(SpectralDataset(LAT_Z, grid, vals))
    assert list(G.active_idx) == [0, 3, 6, 7]
    _ref_write_gramian(G, tmp_path / "ref.txt")
    write_gramian(G, tmp_path / "new.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    model, rep = best_sis(SpectralDataset(LAT_Z, grid, vals), 2)
    write_model(model, rep, tmp_path / "model.txt")
    assert (tmp_path / "model.txt").read_text() == (
        _ref_format_dataset(generators(model)) + "error %r\n" % float(rep.total_error))
