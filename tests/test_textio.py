import numpy as np
import pytest

from pwsis.fibers import gramian_field
from pwsis.lattice import make_lattice
from pwsis.solver import best_sis
from pwsis.spectral import PWMask, SpectralDataset, make_grid
from pwsis.textio import (format_dataset, format_mask, parse_dataset,
                          parse_group_file, parse_lattice, parse_lattice_list,
                          parse_mask, parse_offsets, parse_scene, read_dataset,
                          write_dataset, write_gramian, write_model)

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
