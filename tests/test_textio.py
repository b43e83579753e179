import os
import threading

import numpy as np
import pytest

from conftest import traced_peak
from pwsis.fibers import gramian_field
from pwsis.lattice import make_lattice
from pwsis.solver import best_sis, generators
from pwsis.spectral import PWMask, SpectralDataset, make_grid
from pwsis import decimals, textio
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


@pytest.mark.parametrize("lattice,res,offsets,message", [
    ("1.0 0.0 0.0 1.0", "0", "0 0", "line 4: resolution must be a positive integer"),
    ("1.0 0.0 0.0 1.0", "-3", "0 0", "line 4: resolution must be a positive integer"),
    # |det basis| 1e305 times 64^2 cells leaves no cell weight
    ("1e300 0 0 1e5", "64", "0 0", "line 3: cell weight 0 out of range"),
    ("1.0 0.0 0.0 1.0", "2", "1 0", "line 7: offset set must contain 0"),
], ids=["zero", "negative", "cell-weight", "no-zero-offset"])
def test_grid_errors_name_their_own_header_line(tmp_path, lattice, res, offsets, message):
    # the header errors FrequencyGrid raises name the resolution line, the
    # lattice line or the last offsets line, in the piece reader (a regular
    # file, or ASCII text) and in the line walk (CRLF text)
    header = ("dim 2\nlattice %s\nresolution %s\noffsets 2\n0 1\n%s\n"
              % (lattice, res, offsets))
    for kind, parse, read, body in (
            ("pwsis-dataset v1", parse_dataset, read_dataset, "channels 0\n"),
            ("pwsis-mask v1", parse_mask, read_mask, "1\n0\n")):
        text = kind + "\n" + header + body
        path = tmp_path / "bad.txt"
        path.write_text(text)
        for attempt in (lambda: read(path),
                        lambda: parse(text, name=str(path)),
                        lambda: parse(text.replace("\n", "\r\n"), name=str(path))):
            with pytest.raises(ValueError) as got:
                attempt()
            assert str(got.value) == "%s %s" % (path, message)


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
    # both parts of every value below 2^511 in magnitude, so |v|^2 is finite
    cap = 2.0 ** 511
    bad = ~((np.abs(vals.real) < cap) & (np.abs(vals.imag) < cap))[:, perm, :]
    if bad.any():
        target = int(np.flatnonzero(bad)[0])
        seen = -1
        for no in range(first + 1, len(lines.raw) + 1):
            s = lines.raw[no - 1].strip()
            if s:
                seen += 1
                if seen == target:
                    kind = ("out-of-range" if np.isfinite(vals[:, perm, :].ravel()[target])
                            else "non-finite")
                    lines.fail(no, "%s value in %r" % (kind, s))
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


# large magnitudes a dataset may hold: 1e150, and 2^511 one ulp down
_SPECIALS = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, -2.2e-310, 1e17, -1e17, 1.5, 1e150,
             -np.nextafter(2.0 ** 511, 0.0)]


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
    _odd_body("1.0 -0.0\n2.5 1e200\n4.0 5e-324\n-6.0 inf\n"),  # |v|^2 overflows
    _odd_body("1.0 -0.0\n2.5 3.0\n-6.703903964971299e+153 5e-324\n-6.0 7.0\n"),  # 2^511
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
    back, peak = traced_peak(lambda: read_dataset(path))
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


# ---------------------------------------------------------------------------
# numpy's parser on the array route against float(), and the guard around it


def _hard_tokens(rng, n):
    """Decimal spellings float() must round with care: random bit patterns
    at 17 and 25 digits, 25-digit decimals next to the midpoint of two
    neighbouring doubles and the exact midpoints (ties to even), subnormal
    and overflow edges."""
    import decimal

    bits = rng.integers(0, 2 ** 63, size=n, dtype=np.int64).view(np.float64)
    x = bits[np.isfinite(bits)]
    x = x * np.where(rng.random(len(x)) < 0.5, -1.0, 1.0)
    toks = [repr(v) for v in x.tolist()]
    toks += ["%.17g" % v for v in x.tolist()]
    toks += ["%.25g" % v for v in x[: n // 4].tolist()]
    ctx = decimal.Context(prec=1200)
    for v in x[: n // 4].tolist():
        mid = ctx.divide(ctx.add(decimal.Decimal(v), decimal.Decimal(
            np.nextafter(v, np.inf).item())), 2)
        if mid.is_finite():
            toks += [format(mid, ".24e"), str(mid)]
    toks += ["-0.0", "0.0", "2.2250738585072011e-308", "2.2250738585072012e-308",
             "2.2250738585072014e-308", "4.9406564584124654e-324",
             "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400",
             "1.00000000000000011102230246251565404236316680908203125",
             "1.00000000000000011102230246251565404236316680908203124",
             "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
             "6.703903964971298e+153", "6.703903964971299e+153", "1e400", "-1e400"]
    return toks if len(toks) % 2 == 0 else toks + ["1.5"]


def test_array_parse_rounds_as_float_does(monkeypatch, tmp_path):
    toks = _hard_tokens(np.random.default_rng(17), 6000)
    want = np.array([float(t) for t in toks])
    piece = "".join("%s %s\n" % (toks[i], toks[i + 1]) for i in range(0, len(toks), 2))
    got = textio._parse_floats(piece.encode("ascii"))
    assert np.array_equal(_bits_of(got), _bits_of(want))
    # the values a dataset may hold, read from a file in the writers' layout
    # by the array route (the walk would also give float()'s bits)
    pairs = want.reshape(-1, 2)
    keep = np.all(np.abs(pairs) < 2.0 ** 511, axis=1)
    lines = [" ".join(toks[2 * i:2 * i + 2]) for i in np.flatnonzero(keep)]
    path = tmp_path / "hard.dataset"
    path.write_text("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution %d\noffsets 1\n0\n"
                    "channels 1\n" % len(lines) + "\n".join(lines) + "\n")
    monkeypatch.setattr(textio, "_walk_values", None)  # the array route takes it
    F = read_dataset(path)
    assert np.array_equal(_bits_of(F.values.ravel()), _bits_of(pairs[keep].ravel()))


# spellings numpy's parser would read otherwise than float(), or that float()
# refuses, or that only the guard stops; the last four float() reads too
_GUARDED = ["1_0", "1-2", "1.2.3", "0x10", "inf", "nan", "1e400", ".5", "1.", "+1", "1E5"]


def _lenient_fromstring(piece, sep, dtype=float):
    """A parser, of floats or of integers, that also reads integer literals
    such as '0x10' (as 16): the byte guard must keep such tokens from any
    parser numpy may have."""
    vals = []
    for t in piece.split():
        try:
            vals.append(dtype(t))
        except ValueError:
            vals.append(dtype(int(t, 0)))
    return np.array(vals, dtype=dtype)


# Where np.longdouble is x87 extended precision the platform check must pass,
# so a fault that makes it fail is seen, not skipped
_X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_needs_x87 = pytest.mark.skipif(not _X87, reason="np.longdouble is not x87 extended precision")


def _routes(monkeypatch):
    """Each route a piece may take, as a context in which every piece takes
    it: numpy's integer parser first ("int", even for a piece whose odd
    tokens would send it to the float parser; only where np.longdouble is
    x87 extended precision), and numpy's float parser alone ("float", as
    on a platform without it)."""
    for route in ("int", "float"):
        if route == "int" and not _X87:
            continue
        with monkeypatch.context() as mp:
            if route == "int":
                mp.setattr(decimals, "_ODD_SHARE", 1)
            else:
                mp.setattr(decimals, "_powers_of_ten", lambda: None)
            yield route, mp


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("token", _GUARDED)
def test_guarded_spellings_give_the_line_code_outcome(monkeypatch, tmp_path, token, lenient):
    text = _odd_body("1.0 -0.0\n2.5 %s\n4.0 5e-324\n-6.0 7.0\n" % token)

    def no_walk(*args):
        raise AssertionError("the line walk read %r" % token)

    for _, mp in _routes(monkeypatch):
        if token in (".5", "1.", "+1", "1E5"):  # float() spellings: no walk needed
            mp.setattr(textio, "_walk_values", no_walk)
        if lenient:
            mp.setattr(np, "fromstring", _lenient_fromstring)
        _same_outcome(parse_dataset, _ref_parse_dataset, text)
        _same_file_outcome(read_dataset, _ref_parse_dataset, text, tmp_path / "f.txt")


@pytest.mark.parametrize("how", ["warns", "miscounts"])
def test_a_parse_that_warns_or_miscounts_falls_back_to_the_walk(monkeypatch, how):
    # numpy 1.x warns and returns what it read before a bad token instead of
    # raising, and may read one token as two numbers: the warning must not
    # escape, and neither it nor a wrong count may give a value.  The
    # integer parse sends its piece on to the float parse; the float parse
    # sends the file to the walk
    import warnings

    want = parse_dataset(_BASE)
    real = np.fromstring
    walk = textio._walk_values
    for route, mp in _routes(monkeypatch):
        calls, walked = [], []
        bad = np.int64 if route == "int" else float

        def parse(piece, sep, dtype=float):
            got = real(piece, dtype=dtype, sep=sep)
            calls.append(dtype)
            if dtype is not bad:
                return got
            if how == "warns":
                warnings.warn("string or file could not be read to its end", DeprecationWarning)
                return got[:-1]
            return np.append(got, 2)

        mp.setattr(np, "fromstring", parse)
        mp.setattr(textio, "_walk_values", lambda *a: walked.append(1) or walk(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parse_dataset(_BASE)
        assert np.array_equal(_bits_of(got.values), _bits_of(want.values))
        assert bad in calls and bool(walked) == (route == "float")
        if route == "int":
            assert calls == [np.int64, float]


# ---------------------------------------------------------------------------
# the integer route against float(), bit for bit


def _decimals(toks):
    """decimals.parse over the tokens, two a line; None if it leaves the
    piece to numpy's float parser."""
    if len(toks) % 2:
        toks = toks + ["1.5"]
    piece = "".join("%s %s\n" % (toks[i], toks[i + 1]) for i in range(0, len(toks), 2))
    piece = piece.encode("ascii")
    b = np.frombuffer(piece, np.uint8)
    return decimals.parse(piece, b, np.flatnonzero(b <= 32))


def _as_float(toks):
    return _bits_of(np.array([float(t) for t in toks + ["1.5"] * (len(toks) % 2)]))


def _near_midpoints(rng, n):
    """18-significant-digit decimals at, and one unit of the last digit
    either side of, the midpoints of neighbouring doubles, some with leading
    zeros; the 64-bit quotient of some of them lands on the midpoint."""
    import decimal

    x = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-9, 17, size=n)
    ctx = decimal.Context(prec=60)
    toks = []
    for v in x.tolist():
        mid = ctx.divide(ctx.add(decimal.Decimal(v), decimal.Decimal(
            np.nextafter(v, np.inf).item())), 2)
        unit = decimal.Decimal(1).scaleb(mid.adjusted() - 17)
        q = mid.quantize(unit, context=ctx)
        for t in (format(d, "f") for d in (q, q + unit, q - unit)):
            toks.append(t if "." in t else t + ".")
    return toks


@_needs_x87
def test_integer_route_rounds_as_float_does(monkeypatch):
    assert decimals._powers_of_ten() is not None
    monkeypatch.setattr(decimals, "_ODD_SHARE", 1)  # however many odd tokens
    rng = np.random.default_rng(18)
    # the hard tokens; an integer spelling gets a dot, as the route takes
    # only tokens with one
    hard = [t if "." in t or "e" in t.lower() else t + "." for t in _hard_tokens(rng, 6000)]
    near = _near_midpoints(rng, 4000)
    # 18 digits; 19 and 25, which the route leaves to float(); 19 to 28
    # with enough leading zeros, which it reads, and with one too few
    digits = ["123456789012345678.", "-.123456789012345678", "1234567890123456789.",
              "-1.234567890123456789", "9223372036854775807.0", "9223372036854775808.0",
              "99999999999999999999.9", "1234567890123456789012345.",
              "0.123456789012345678901234", "0.0123456789012345678", "-0.0123456789012345678",
              "-0.000000000123456789012345678", ".0000000000123456789012345678",
              "0.000000000012345678901234567", "0.00123456789012345678"]
    edges = ["9007199254740993.0", "18014398509481990.0", "9007199254740995.0",
             "+1.5", "-0.0", "5.", "-.5", ".5", "0.0", "+0.", "-0.", "1.", "0.00"]
    probes = list(decimals._PROBES)
    for toks in hard, near, digits, edges, probes:
        got = _decimals(toks)
        assert got is not None
        assert np.array_equal(_bits_of(got), _as_float(toks))
    # the first three probes of the platform check sit halfway after the
    # 64-bit division, and rounding on from there misses float()
    q = np.array([int(t.replace(".", "")) for t in probes[:3]]).astype(np.longdouble)
    f = np.array([len(t) - t.index(".") - 1 for t in probes[:3]])
    x, halfway = decimals._quotients(q, f, decimals._powers_of_ten())
    assert halfway.all() and not np.any(x == [float(t) for t in probes[:3]])


@_needs_x87
def test_odd_tokens_mixed_in_and_all_of_a_piece(monkeypatch, tmp_path):
    rng = np.random.default_rng(19)
    plain = [repr(v) for v in rng.standard_normal(4000).tolist()]
    plain = [t for t in plain if "e" not in t]
    expo = ["1e-5", "-2.5E+3", "3.0e0", "1.0000000000000002e-300", "-4e-320", "6.5e15",
            "+7.25e-1", "9.999999999999999e22"]
    mixed = list(plain)
    for i, t in enumerate(expo):
        mixed.insert(37 * i + 5, t)
    got = _decimals(mixed)  # few odd tokens: the integer route takes them
    assert got is not None and np.array_equal(_bits_of(got), _as_float(mixed))
    every = [t for t in _hard_tokens(rng, 400) if "e" in t]
    assert _decimals(every) is None  # all odd: numpy's float parser reads them
    for toks in mixed, every:
        toks = [t for t in toks if abs(float(t)) < 2.0 ** 511]
        toks = toks[:len(toks) // 2 * 2]
        path = tmp_path / "odd.dataset"
        path.write_text("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution %d\noffsets 1\n0\n"
                        "channels 1\n" % (len(toks) // 2)
                        + "".join("%s %s\n" % (toks[i], toks[i + 1])
                                  for i in range(0, len(toks), 2)))
        monkeypatch.setattr(textio, "_walk_values", None)  # the array route reads it
        assert np.array_equal(_bits_of(read_dataset(path).values.ravel()), _as_float(toks))
        monkeypatch.undo()


def _benchmark_shaped(tmp_path):
    """A dense dataset of standard normal samples written by repr, as the
    benchmark writes them: 3 channels, r = 16, 25 offsets (38,400 floats)."""
    grid = make_grid(make_lattice(np.eye(2)), 16,
                     [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    rng = np.random.default_rng([11, 2])
    shape = (3, grid.n_offsets, grid.n_cells)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path / "bench.dataset"
    path.write_text(_ref_format_dataset(SpectralDataset(grid.lattice, grid, vals)))
    return path, vals


@pytest.mark.parametrize("extended", [True, False])
def test_benchmark_shaped_files_read_by_each_parser(monkeypatch, tmp_path, extended):
    # without 64-bit extended precision every piece goes to numpy's float
    # parser; with it none does.  Both give the written bits
    if extended and not _X87:
        pytest.skip("np.longdouble is not x87 extended precision here")
    if not extended:
        monkeypatch.setattr(decimals, "_powers_of_ten", lambda: None)
    monkeypatch.setattr(textio, "_CHUNK", 1 << 14)
    path, vals = _benchmark_shaped(tmp_path)
    floats = []
    parse_floats = textio._parse_floats
    monkeypatch.setattr(textio, "_parse_floats", lambda p: floats.append(1) or parse_floats(p))
    pieces = []
    parse = decimals.parse
    monkeypatch.setattr(decimals, "parse", lambda *a: pieces.append(1) or parse(*a))
    F = read_dataset(path)
    assert np.array_equal(_bits_of(F.values), _bits_of(vals))
    assert len(pieces) > 40 and len(floats) == (0 if extended else len(pieces))


@_needs_x87
@pytest.mark.parametrize("fault", ["no halfway flags", "53-bit division"])
def test_the_platform_check_refuses_a_wrong_division(monkeypatch, fault):
    # a platform whose np.longdouble divides otherwise keeps the float parser
    check = decimals._powers_of_ten.__wrapped__  # the check itself, not its cached outcome
    assert check() is not None
    quotients = decimals._quotients

    def wrong(q, f, P):
        if fault == "53-bit division":
            q = (q.astype(np.float64) / P[f].astype(np.float64)).astype(np.longdouble)
            return quotients(q, np.zeros_like(f), np.ones_like(P))
        x, halfway = quotients(q, f, P)
        return x, np.zeros_like(halfway)

    monkeypatch.setattr(decimals, "_quotients", wrong)
    assert check() is None


def _ref_pairs(z):
    return "".join(" ".join("%s %s" % (_fmt(v.real), _fmt(v.imag)) for v in row) + "\n"
                   for row in z)


@pytest.mark.parametrize("per", [1, 4, 9])
def test_pairs_formats_each_distinct_value_like_repr(per):
    rng = np.random.default_rng(per)
    n = 3 * 97 * per

    def cplx(re, im):  # both parts exactly, signed zeros included
        return np.stack([re, im], axis=-1).view(np.complex128).ravel()

    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    blocks = {
        "random": cplx(scaled, rng.standard_normal(n)),
        "repeated": cplx(rng.choice([0.5, -0.25, 3.0 + 1e-15], size=n),
                         rng.choice([0.5, -1.0], size=n)),
        "signed zeros": cplx(rng.choice([0.0, -0.0], size=n), rng.choice([0.0, -0.0], size=n)),
        "subnormal": cplx(rng.choice([5e-324, -5e-324, 2.2e-310, 0.0], size=n),
                          np.full(n, 1e-320)),
        "one row": cplx(scaled[:per], scaled[::-1][:per]),
        "empty": np.zeros(0, dtype=np.complex128),
    }
    for name, flat in blocks.items():
        z = flat.reshape(-1, per)
        assert textio._pairs(z) == _ref_pairs(z), name


def test_read_dataset_fills_the_rows_of_offsets_listed_out_of_order(tmp_path):
    # 196,608 values (3.1 MB) with the offsets listed 1, 0, -1: each piece
    # goes straight into its offsets' rows, without a copy of the values
    grid = make_grid(LAT_Z, 1 << 15, K3)
    rng = np.random.default_rng(71)
    shape = (2, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(LAT_Z, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    lines = format_dataset(F).splitlines(keepends=True)
    head = lines.index("channels 2\n") + 1
    body = lines[head:]
    n = grid.n_cells
    blocks = [body[(i * 3 + k) * n:(i * 3 + k + 1) * n] for i in range(2) for k in (2, 1, 0)]
    head_lines = lines[:head]
    at = head_lines.index("offsets 3\n") + 1
    head_lines[at:at + 3] = ["1\n", "0\n", "-1\n"]
    path = tmp_path / "reversed.dataset"
    with open(path, "w") as fh:
        fh.writelines(head_lines)
        for block in blocks:
            fh.writelines(block)
    del lines, body, blocks
    back, peak = traced_peak(lambda: read_dataset(path))
    assert np.array_equal(_bits_of(back.values), _bits_of(F.values))
    assert peak < F.values.nbytes + 8 * textio._CHUNK
