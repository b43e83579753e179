import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import traced_peak
from pwsis.lattice import make_lattice
from pwsis.spectral import PWMask, SpectralDataset, make_grid
from pwsis.suites import SUITE_NAMES
from pwsis.textio import read_mask, write_dataset, write_mask

# The checkout's package directory, absolute so that it still resolves from
# the temporary working directory each CLI run uses.
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

SCENE = """channel 0 coeff 1.0 0.0 interval -1.0 0.0
channel 0 coeff 2.0 0.0 interval 1.0 2.0
channel 1 coeff -1.0 0.0 interval -1.0 0.0
channel 1 coeff 2.0 0.0 interval 1.0 2.0
"""
MASK_REGION = """channel 0 coeff 1.0 0.0 interval -1.0 1.0
"""
# three 2-D channels on the star of offsets K = {0, +-e1, +-e2}, which the
# dual action of D4 maps onto itself
SCENE_2D = """channel 0 coeff 1.0 0.0 box 0.0 0.0 0.5 0.75
channel 0 coeff 2.0 0.0 box 1.0 0.25 1.75 1.0
channel 1 coeff -1.0 0.5 box -1.0 0.0 -0.25 0.5
channel 1 coeff 0.5 0.0 box 0.25 1.0 1.0 1.5
channel 2 coeff 1.5 0.0 box 0.0 -1.0 0.75 -0.25
"""
# generators of D4: the quarter turn and a mirror
D4_GENS = [np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])]


def _run(args, cwd, env=None, **kw):
    """Runs `python -m pwsis.cli` on this checkout's src in `cwd`.

    PWSIS_* settings of the calling shell are dropped; a test that needs one
    passes it in `env`.  Other keywords go to subprocess.run.
    """
    full_env = {k: v for k, v in os.environ.items()
                if not k.startswith("PWSIS_")}
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "pwsis.cli"] + args,
                          cwd=cwd, env=full_env, capture_output=True, text=True, **kw)


def _write_inputs(tmp_path):
    """Writes the 1-D scene, lattice and offsets into tmp_path, and from
    them a dataset, a band dataset and a mask of measure 2; returns
    tmp_path."""
    (tmp_path / "scene.txt").write_text(SCENE)
    (tmp_path / "lat.txt").write_text("1.0\n")
    (tmp_path / "offs.txt").write_text("-1\n0\n1\n")
    res = _run(["synth", "--scene", "scene.txt", "--lattice", "lat.txt",
                "--resolution", "2", "--offsets", "offs.txt",
                "--out", "data.txt"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "channels 2" in res.stdout and "energy 10" in res.stdout
    # a mask file for the inner band [-1, 1)
    (tmp_path / "band.txt").write_text(MASK_REGION)
    res = _run(["synth", "--scene", "band.txt", "--lattice", "lat.txt",
                "--resolution", "2", "--offsets", "offs.txt",
                "--out", "bandset.txt"], tmp_path)
    assert res.returncode == 0
    res = _run(["omega-opt", "--data", "bandset.txt", "--measure", "2.0",
                "--out", "mask.txt"], tmp_path)
    assert res.returncode == 0, res.stderr
    return tmp_path


@pytest.fixture()
def workdir(tmp_path):
    return _write_inputs(tmp_path)


def _group_inputs(workdir):
    """Writes a 4x4-cell 2-D dataset, the D4 generators and a D4-invariant
    band of measure 1 into the workdir; returns the data arguments."""
    (workdir / "scene2.txt").write_text(SCENE_2D)
    (workdir / "lat2.txt").write_text("1 0\n0 1\n")
    (workdir / "offs2.txt").write_text("0 0\n1 0\n-1 0\n0 1\n0 -1\n")
    (workdir / "d4.txt").write_text("".join("%d %d %d %d\n" % tuple(g.ravel())
                                            for g in D4_GENS))
    res = _run(["synth", "--scene", "scene2.txt", "--lattice", "lat2.txt",
                "--resolution", "4", "--offsets", "offs2.txt",
                "--out", "data2.txt"], workdir)
    assert res.returncode == 0, res.stderr
    data = ["--data", "data2.txt", "--group", "d4.txt"]
    res = _run(["omega-opt"] + data + ["--measure", "1.0", "--out", "gband.txt"], workdir)
    assert res.returncode == 0, res.stderr
    return data


def _fields(stdout):
    return {head: float(tail) for head, _, tail in
            (line.rpartition(" ") for line in stdout.splitlines())}


def _d4_fixes(mask):
    """Whether every D4 element's dual action (k, j) -> (Ghat k, Ghat j mod r)
    maps the mask's boxes onto its boxes, with the index map built here."""
    grid = mask.grid
    offsets = [tuple(k) for k in grid.offsets]
    cells = list(itertools.product(range(grid.r), repeat=2))
    bits = mask.bits
    elements = {(1, 0, 0, 1): np.eye(2, dtype=int)}
    frontier = list(elements.values())
    while frontier:  # close the generators into the 8 elements
        a = frontier.pop()
        for g in D4_GENS:
            b = a @ g
            if tuple(b.ravel()) not in elements:
                elements[tuple(b.ravel())] = b
                frontier.append(b)
    assert len(elements) == 8
    for g in elements.values():
        dual = np.rint(np.linalg.inv(g.T)).astype(int)
        for ki, k in enumerate(offsets):
            kk = offsets.index(tuple(dual @ k))
            for ci, j in enumerate(cells):
                cj = cells.index(tuple((dual @ j) % grid.r))
                if bits[kk, cj] != bits[ki, ci]:
                    return False
    return True


def test_group_band_is_d4_fixed(workdir):
    _group_inputs(workdir)
    mask = read_mask(str(workdir / "gband.txt"))
    assert 0 < mask.bits.sum() < mask.bits.size
    assert abs(mask.measure - 1.0) <= 1e-12
    assert _d4_fixes(mask)
    # the unconstrained band of the same measure is not fixed, so the
    # index map does tell the two apart
    res = _run(["omega-opt", "--data", "data2.txt", "--measure", "1.0",
                "--out", "free.txt"], workdir)
    assert res.returncode == 0, res.stderr
    assert not _d4_fixes(read_mask(str(workdir / "free.txt")))


def test_group_solves(workdir):
    data = _group_inputs(workdir)
    res = _run(["solve"] + data + ["--ell", "1", "--mask", "gband.txt"], workdir)
    assert res.returncode == 0, res.stderr
    f = _fields(res.stdout)
    total = f["total error"]
    split = f["inside-band error"] + f["outside-band energy"]
    assert abs(total - split) <= 1e-10 * (1.0 + total)
    res = _run(["solve"] + data + ["--ell", "1"], workdir)
    assert res.returncode == 0, res.stderr
    grouped = _fields(res.stdout)["total error"]
    res = _run(["solve", "--data", "data2.txt", "--ell", "1"], workdir)
    assert res.returncode == 0, res.stderr
    free = _fields(res.stdout)["total error"]
    assert grouped >= free - 1e-10 * (1.0 + free)


def test_group_file_of_wrong_dimension_exits_two(workdir):
    data = _group_inputs(workdir)
    (workdir / "g3.txt").write_text("-1 0 0\n0 -1 0\n0 0 -1\n")
    # four 3x3 matrices are 36 integers, which also read as nine 2x2 ones
    (workdir / "g3x4.txt").write_text("1 0 0 0 1 0 0 0 1\n0 -1 0 1 0 0 0 0 1\n"
                                      "-1 0 0 0 -1 0 0 0 1\n-1 0 0 0 -1 0 0 0 -1\n")
    res = _run(["solve", "--data", "data2.txt", "--group", "g3x4.txt", "--ell", "1"], workdir)
    assert res.returncode == 2 and res.stderr.startswith("error: g3x4.txt: "), res.stderr
    for verb in (["omega-opt", "--measure", "1.0", "--out", "g3band.txt"],
                 ["solve", "--ell", "1"], ["solve", "--ell", "1", "--mask", "gband.txt"]):
        res = _run(verb + ["--data", "data2.txt", "--group", "g3.txt"], workdir)
        assert res.returncode == 2, res.stderr
        assert "g3.txt" in res.stderr and "Traceback" not in res.stderr
    assert not (workdir / "g3band.txt").exists()


def test_group_entry_of_2_53_or_more_exits_two(tmp_path):
    # the boxes of SCENE_2D that the offsets (0, 0) and (+-1, 0) reach
    (tmp_path / "scene2.txt").write_text("".join(SCENE_2D.splitlines(True)[:3]))
    (tmp_path / "lat2.txt").write_text("1 0\n0 1\n")
    (tmp_path / "offs.txt").write_text("0 0\n1 0\n-1 0\n")
    res = _run(["synth", "--scene", "scene2.txt", "--lattice", "lat2.txt",
                "--resolution", "3", "--offsets", "offs.txt", "--out", "d.txt"], tmp_path)
    assert res.returncode == 0, res.stderr
    # 2^62 is 1 mod 3: as a float entry it is exact, but its products wrap
    (tmp_path / "wide.txt").write_text("1 0\n4611686018427387904 -1\n")
    (tmp_path / "mod3.txt").write_text("1 0\n1 -1\n")
    res = _run(["solve", "--data", "d.txt", "--group", "wide.txt", "--ell", "1"], tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (
        2, "", "error: wide.txt: group element entry of magnitude 2^53 or more\n")
    res = _run(["solve", "--data", "d.txt", "--group", "mod3.txt", "--ell", "1"], tmp_path)
    assert res.returncode == 0, res.stderr


def test_solve_reports_optimum(workdir):
    res = _run(["solve", "--data", "data.txt", "--ell", "1"], workdir)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "length 1" in lines
    assert "total error 2" in lines
    assert "channel 0 error 1" in lines and "channel 1 error 1" in lines


def test_solve_ell_zero_gives_total_energy(workdir):
    res = _run(["solve", "--data", "data.txt", "--ell", "0"], workdir)
    assert res.returncode == 0
    assert "total error 10" in res.stdout


def test_solve_with_mask_splits_error(workdir):
    res = _run(["solve", "--data", "data.txt", "--ell", "1",
                "--mask", "mask.txt"], workdir)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "total error 8" in lines
    assert "inside-band error 0" in lines
    assert "outside-band energy 8" in lines


def test_solve_dump_gramian(workdir):
    res = _run(["solve", "--data", "data.txt", "--ell", "1",
                "--dump-gramian", "gram.txt"], workdir)
    assert res.returncode == 0
    first = (workdir / "gram.txt").read_text().splitlines()[0]
    assert first == "pwsis-gramian v1"


def test_project_and_pipeline(workdir):
    res = _run(["project", "--data", "data.txt", "--mask", "mask.txt",
                "--out", "proj.txt"], workdir)
    assert res.returncode == 0
    assert "inside-band energy 2" in res.stdout
    assert "outside-band energy 8" in res.stdout
    res = _run(["pipeline", "--data", "data.txt", "--mask", "mask.txt",
                "--ell", "1"], workdir)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "project-then-solve 8" in lines
    assert "solve-then-project 10" in lines
    assert "gap 2" in lines


def test_a_mask_on_another_grid_names_both_files(tmp_path):
    # a dataset on 25 offsets and masks on 9 offsets, another resolution,
    # another lattice and one dimension: every masked verb exits 2 with one
    # line naming the mask, the dataset and the first field that differs
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 4, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    rng = np.random.default_rng(9)
    shape = (2, grid.n_offsets, grid.n_cells)
    write_dataset(SpectralDataset(lat, grid, rng.standard_normal(shape) + 0j),
                  tmp_path / "data.dataset")
    (tmp_path / "d4.txt").write_text("".join("%d %d %d %d\n" % tuple(g.ravel())
                                            for g in D4_GENS))
    star = [[a, b] for a in range(-1, 2) for b in range(-1, 2)]
    others = {"offsets": make_grid(lat, 4, star),
              "resolution": make_grid(lat, 8, grid.offsets),
              "lattice": make_grid(make_lattice(2 * np.eye(2)), 4, grid.offsets),
              "dimension": make_grid(make_lattice([[1.0]]), 4, [[0]])}
    for field, other in others.items():
        write_mask(PWMask.full(other.lattice, other), tmp_path / ("%s.mask" % field))
    data = ["--data", "data.dataset"]
    verbs = [["solve"] + data + ["--ell", "1"], ["solve"] + data + ["--ell", "1", "--group", "d4.txt"],
             ["project"] + data + ["--out", "out.dataset"], ["pipeline"] + data + ["--ell", "1"]]
    runs = [(v, "offsets") for v in verbs] + [(verbs[0], f) for f in others if f != "offsets"]
    for argv, field in runs:
        res = _run(argv + ["--mask", "%s.mask" % field], tmp_path)
        assert (res.returncode, res.stdout, res.stderr) == (
            2, "", "error: %s.mask: grid differs from the dataset data.dataset in its %s\n"
            % (field, field)), argv
    assert not (tmp_path / "out.dataset").exists()


@pytest.mark.parametrize("mask_bits", [True, False])
def test_project_checks_both_energies_before_writing(tmp_path, mask_bits):
    # eight samples of 1.9 * 2^510: each |v|^2 is finite, their sum is not.
    # Inside the full band or outside the empty one, project exits 2 and
    # leaves no output file
    lat = make_lattice([[1.0]])
    grid = make_grid(lat, 8, [[0]])
    F = SpectralDataset(lat, grid, np.full((1, 1, 8), 1.9 * 2.0 ** 510, dtype=complex))
    write_dataset(F, tmp_path / "big.dataset")
    write_mask(PWMask(lat, grid, np.full((1, 8), mask_bits)), tmp_path / "band.mask")
    res = _run(["project", "--data", "big.dataset", "--mask", "band.mask",
                "--out", "out.dataset"], tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (
        2, "", "error: big.dataset: energy of the samples exceeds the float64 range\n")
    assert not (tmp_path / "out.dataset").exists()


@pytest.fixture(scope="module")
def files_layout(tmp_path_factory):
    """The files benchmark's inputs: d = 2, r = 64, offsets {-2..2}^2, three
    complex normal channels, the band of samples within 1.6 of (0.5, 0.5)
    and three lattices; returns the directory and the values' bytes."""
    work = tmp_path_factory.mktemp("files_layout")
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    rng = np.random.default_rng(5)
    shape = (3, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    write_dataset(F, work / "data.dataset")
    xi = np.stack([grid.sample_points(grid.cell_vectors(), k) for k in grid.offsets])
    write_mask(PWMask(lat, grid, ((xi - 0.5) ** 2).sum(axis=2) < 1.6 ** 2), work / "band.mask")
    (work / "lattices.txt").write_text("1 0 0 1\n1 1 0 1\n0.5 0 0 0.5\n")
    return work, F.values.nbytes


_DATA_ELL = ["--data", "data.dataset", "--ell", "1"]


@pytest.mark.parametrize("argv", [
    ["solve"] + _DATA_ELL,
    ["solve"] + _DATA_ELL + ["--mask", "band.mask"],
    ["pipeline"] + _DATA_ELL + ["--mask", "band.mask"],
    ["project", "--data", "data.dataset", "--mask", "band.mask", "--out", "proj.dataset"],
    ["compare-lattices"] + _DATA_ELL + ["--lattices", "lattices.txt"],
], ids=["solve", "solve-mask", "pipeline", "project", "compare-lattices"])
def test_files_verbs_hold_the_dataset_and_one_block(files_layout, monkeypatch, capsys, argv):
    # after the read a verb holds its dataset, arrays of one value per cell
    # and one block: no model basis, projected copy, array-sized |v|^2
    # temporaries or eigenvectors
    from pwsis import cli

    work, nbytes = files_layout
    monkeypatch.chdir(work)
    rc, peak = traced_peak(lambda: cli.main(argv))
    assert rc == 0 and capsys.readouterr().out
    assert peak < nbytes + 3 * 2 ** 20


def test_omega_opt_output(workdir):
    res = _run(["omega-opt", "--data", "data.txt", "--measure", "1.0",
                "--out", "band1.txt"], workdir)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "measure 1" in lines
    assert "captured 8" in lines and "residual 2" in lines
    res = _run(["omega-opt", "--data", "data.txt", "--measure", "0.3",
                "--out", "bad.txt"], workdir)
    assert res.returncode == 2
    assert "not grid-representable" in res.stderr


def test_omega_opt_group_builds_the_density_once(workdir, monkeypatch, capsys):
    from pwsis import cli, omega

    data = _group_inputs(workdir)
    want = _run(["omega-opt"] + data + ["--measure", "1.0", "--out", "gband1.txt"], workdir)
    built = []
    density = omega.energy_density
    monkeypatch.setattr(omega, "energy_density", lambda F: built.append(F) or density(F))
    monkeypatch.chdir(workdir)
    assert cli.main(["omega-opt"] + data + ["--measure", "1.0", "--out", "gband2.txt"]) == 0
    assert len(built) == 1 and capsys.readouterr().out == want.stdout
    assert (workdir / "gband2.txt").read_bytes() == (workdir / "gband1.txt").read_bytes()


@pytest.mark.parametrize("module, loaded", [("pwsis", []), ("pwsis.cli", ["pwsis.cli"])])
def test_imports_defer_numpy_and_the_submodules(module, loaded):
    # the thread caps must be in the environment before numpy loads
    code = ("import sys, %s; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('pwsis.')))" % module)
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "%r\n" % loaded


def test_compare_lattices(workdir):
    (workdir / "lats.txt").write_text("1.0\n0.5\n2.0\n")
    res = _run(["compare-lattices", "--data", "data.txt",
                "--lattices", "lats.txt", "--ell", "1"], workdir)
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["lattice 0 error 2 length 2",
                                       "lattice 1 error 2 length 2",
                                       "lattice 2 error 2 length 2"]


@pytest.mark.parametrize("lines,data,message", [
    # an incommensurable lattice after three good ones prints no row
    ("1.0\n0.5\n2.0\n3.14159\n", "data.txt",
     "lats.txt line 4: incommensurable lattices: resolution scale "),
    ("1.0\n0\n", "data.txt", "lats.txt line 2: degenerate lattice: |det basis| = 0"),
    ("1 0 0 1\n1 0 0 nan\n", "data2.txt", "lats.txt line 2: non-finite lattice entry 'nan'"),
    ("1.0\ninf\n", "data.txt", "lats.txt line 2: non-finite lattice entry 'inf'"),
    ("1\n", "data2.txt",
     "lats.txt line 1: lattice dimension 1 does not match the dataset's 2"),
    ("1.0\n0.5\n1e-7\n", "data.txt",
     "lats.txt line 3: regridded dataset too large: "),
    ("# one 1-D lattice, then a 2-D one\n1.0\n\n1 0 0 1\n", "data.txt",
     "lats.txt line 4: lattices mix dimensions"),
    # finite entries whose determinant overflows: no numpy warning may
    # reach stderr
    ("1 0 0 1\n1e200 0 0 1e200\n", "data2.txt",
     "lats.txt line 2: lattice out of range: a basis entry or |det basis| is not finite"),
], ids=["incommensurable", "degenerate", "nan", "inf", "dimension", "cap", "mixed",
        "det-overflow"])
def test_lattice_file_errors_name_the_line_before_any_row(workdir, lines, data, message):
    _group_inputs(workdir)
    (workdir / "lats.txt").write_text(lines)
    res = _run(["compare-lattices", "--data", data, "--lattices", "lats.txt",
                "--ell", "1"], workdir)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: " + message) and res.stderr.count("\n") == 1


@pytest.mark.parametrize("line,message", [
    # |det| ratio 1e311 overflows the scale itself
    ("1e-11", "incommensurable lattices: resolution scale inf does not give an "
              "integer resolution at r=2"),
    # a finite scale of 1e308 overflows times the resolution
    ("1e-8", "incommensurable lattices: resolution scale 1e+308 does not give an "
             "integer resolution at r=2"),
    ("1e-5", "regridded dataset too large: resolution 2e+305 exceeds the supported "
             "bound 16777216"),
], ids=["scale", "resolution", "finite"])
def test_regrid_scale_overflow_exits_two(workdir, line, message):
    text = (workdir / "data.txt").read_text()
    header = text.splitlines()[2]
    assert header.startswith("lattice ")
    (workdir / "big.txt").write_text(text.replace(header, "lattice 1e300", 1))
    (workdir / "lats.txt").write_text(line + "\n")
    res = _run(["compare-lattices", "--data", "big.txt", "--lattices", "lats.txt",
                "--ell", "1"], workdir)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: lats.txt line 1: %s\n" % message


def test_out_of_range_dataset_lattice_exits_two(workdir):
    _group_inputs(workdir)
    text = (workdir / "data2.txt").read_text()
    header = text.splitlines()[2]
    assert header.startswith("lattice ")
    (workdir / "big.txt").write_text(text.replace(header, "lattice 1e160 0 0 1e160", 1))
    res = _run(["solve", "--data", "big.txt", "--ell", "1"], workdir)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == ("error: big.txt line 3: lattice out of range: a basis entry or "
                          "|det basis| is not finite\n")
    # a finite |det basis| of 1e305 times 64^2 cells leaves no cell weight
    (workdir / "cw.txt").write_text("pwsis-dataset v1\ndim 2\nlattice 1e300 0 0 1e5\n"
                                    "resolution 64\noffsets 1\n0 0\nchannels 0\n")
    res = _run(["solve", "--data", "cw.txt", "--ell", "1"], workdir)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: cw.txt line 3: cell weight 0 out of range\n"


@pytest.mark.parametrize("text,message", [
    ("0 0\n0 0\n", "lat.txt: degenerate lattice: |det basis| = 0"),
    ("1 0\n0 nan\n", "lat.txt line 2: non-finite lattice entry 'nan'"),
], ids=["degenerate", "nan"])
def test_lattice_errors_name_the_file(workdir, text, message):
    (workdir / "lat.txt").write_text(text)
    res = _run(["synth", "--scene", "scene.txt", "--lattice", "lat.txt",
                "--resolution", "2", "--offsets", "offs.txt", "--out", "x.txt"], workdir)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: %s\n" % message


def test_examples_verb(workdir):
    res = _run(["examples", "--id", "3.6"], workdir)
    assert res.returncode == 0
    assert "3.6: PASS" in res.stdout
    assert "examples: 1/1 passed" in res.stdout
    res = _run(["examples", "--id", "9.9"], workdir)
    assert res.returncode == 2
    assert "unknown example id" in res.stderr


def test_check_verb_and_mutation_hook(workdir):
    res = _run(["check", "--suite", "lattice", "--seed", "0"], workdir)
    assert res.returncode == 0
    assert "suite lattice: 60/60 passed" in res.stdout
    res = _run(["check", "--suite", "covariance", "--seed", "0"], workdir,
               env={"PWSIS_BUG_GRAMIAN_NO_CONJ": "1"})
    assert res.returncode == 1
    assert "replay:" in res.stdout


def test_internal_fault_exits_one_without_traceback(workdir):
    (workdir / "cplx.txt").write_text(
        "channel 0 coeff 1.0 0.0 interval -1.0 0.0\n"
        "channel 0 coeff 0.0 1.0 interval 0.0 1.0\n"
        "channel 1 coeff 0.0 1.0 interval -1.0 0.0\n"
        "channel 1 coeff 1.0 0.0 interval 0.0 1.0\n")
    res = _run(["synth", "--scene", "cplx.txt", "--lattice", "lat.txt",
                "--resolution", "2", "--offsets", "offs.txt",
                "--out", "cplx_data.txt"], workdir)
    assert res.returncode == 0, res.stderr
    args = ["solve", "--data", "cplx_data.txt", "--ell", "1", "--mask", "mask.txt"]
    assert _run(args, workdir).returncode == 0
    res = _run(args, workdir, env={"PWSIS_BUG_GRAMIAN_NO_CONJ": "1"})
    assert res.returncode == 1
    assert res.stderr.startswith("error: project-then-solve total")
    assert "Traceback" not in res.stderr


def test_bad_dataset_values_exit_two(workdir):
    (workdir / "huge.txt").write_text(
        "pwsis-dataset v1\ndim 2\nlattice 1.0 0.0 0.0 1.0\nresolution 3000000\n"
        "offsets 1\n0 0\nchannels 1\n")
    res = _run(["solve", "--data", "huge.txt", "--ell", "1"], workdir)
    assert res.returncode == 2
    assert "huge.txt line 4" in res.stderr and "Traceback" not in res.stderr
    text = (workdir / "data.txt").read_text().replace("\n2.0 0.0\n", "\nnan 0.0\n", 1)
    (workdir / "nan.txt").write_text(text)
    res = _run(["solve", "--data", "nan.txt", "--ell", "1"], workdir)
    assert res.returncode == 2
    assert "nan.txt line" in res.stderr and "non-finite" in res.stderr


def test_headers_over_the_size_cap_exit_two(workdir):
    for res in ("3000000", "1" + "0" * 400):
        header = ("dim 2\nlattice 1.0 0.0 0.0 1.0\nresolution %s\noffsets 1\n0 0\n" % res)
        (workdir / "empty.txt").write_text("pwsis-dataset v1\n" + header + "channels 0\n")
        (workdir / "huge.mask").write_text("pwsis-mask v1\n" + header)
        for args, name in ((["solve", "--data", "empty.txt", "--ell", "1"], "empty.txt"),
                           (["solve", "--data", "data.txt", "--ell", "1",
                             "--mask", "huge.mask"], "huge.mask")):
            res = _run(args, workdir)
            assert res.returncode == 2, res.stderr
            assert "%s line 4: header promises" % name in res.stderr
            assert "Traceback" not in res.stderr


def test_stdout_is_byte_identical_across_runs(workdir):
    data = _group_inputs(workdir)
    for args in (["solve", "--data", "data.txt", "--ell", "1"],
                 ["omega-opt"] + data + ["--measure", "1.0", "--out", "gband2.txt"],
                 ["solve"] + data + ["--ell", "1", "--mask", "gband.txt"],
                 ["solve"] + data + ["--ell", "1"]):
        a = _run(args, workdir)
        b = _run(args, workdir)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0, a.stderr


def test_thread_cap_env(workdir):
    res = _run(["solve", "--data", "data.txt", "--ell", "1"], workdir,
               env={"PWSIS_THREADS": "1"})
    assert res.returncode == 0
    res = _run(["solve", "--data", "data.txt", "--ell", "1"], workdir,
               env={"PWSIS_THREADS": "abc"})
    assert res.returncode == 2


def test_usage_errors_exit_two(workdir):
    assert _run(["solve", "--data", "data.txt"], workdir).returncode == 2
    assert _run(["frobnicate"], workdir).returncode == 2
    res = _run(["solve", "--data", "missing.txt", "--ell", "1"], workdir)
    assert res.returncode == 2
    assert "error:" in res.stderr


def _line_replaced(name, lineno, line):
    """The text of the workdir file name with its line lineno replaced."""
    def text(work):
        lines = (work / name).read_text().splitlines()
        lines[lineno - 1] = line
        return "\n".join(lines) + "\n"
    return text


_INT64_PLUS = "99999999999999999999"
_SYNTH_2D = ["synth", "--lattice", "lat2.txt", "--offsets", "offs2.txt", "--out", "x.txt"]
_CAP_HEADER = "dim 2\nlattice 1.0 0.0 0.0 1.0\nresolution %s\noffsets 1\n0 0\n"
_CAP_LINE = "line 4: header promises %s at this resolution; at most 16777216 are supported"

_OVERFLOW_DATASET = ("pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 4\noffsets 1\n0\n"
                     "channels 1\n" + "6e153 6e153\n" * 4)
_OVERFLOW = "energy of the samples exceeds the float64 range"

# Bad inputs, each (files written into the work directory, argv, the error
# line expected on stderr after "error: ").  A file's text is a string or a
# function of the work directory.  Lines 6-10 of data2.txt and gband.txt
# are their offsets, "1 0" last; line 11 of gband.txt is the bit of offset
# (-1, 0) at cell 0, whose D4 orbit holds three more boxes.
_BAD_INPUTS = {
    "measure-inf": ({}, ["omega-opt", "--data", "data.txt", "--measure", "inf"],
                    "measure inf outside the representable range [0, 3]"),
    "measure-minus-inf": ({}, ["omega-opt", "--data", "data.txt", "--measure=-inf"],
                          "measure -inf outside the representable range [0, 3]"),
    "measure-overflow": ({}, ["omega-opt", "--data", "data.txt", "--measure", "1e400"],
                         "measure inf outside the representable range [0, 3]"),
    "measure-nan": ({}, ["omega-opt", "--data", "data.txt", "--measure", "nan"],
                    "measure nan outside the representable range [0, 3]"),
    "synth-resolution": ({}, _SYNTH_2D + ["--scene", "scene2.txt", "--resolution", "100000"],
                         "synthesized dataset too large: 150000000000 values exceeds "
                         "the supported bound 16777216"),
    "synth-huge-resolution": ({}, _SYNTH_2D + ["--scene", "scene2.txt",
                                               "--resolution", "1" + "0" * 21],
                              "synthesized dataset too large: 15%s values exceeds the "
                              "supported bound 16777216" % ("0" * 42)),
    "synth-channel": ({"chan.txt": "channel 100000000 coeff 1 0 box 0 0 1 1\n"},
                      _SYNTH_2D + ["--scene", "chan.txt", "--resolution", "64"],
                      "synthesized dataset too large: 2048000020480 values exceeds "
                      "the supported bound 16777216"),
    "offsets-file": ({"offs_big.txt": "0 0\n%s 0\n" % _INT64_PLUS},
                     ["synth", "--scene", "scene2.txt", "--lattice", "lat2.txt",
                      "--offsets", "offs_big.txt", "--resolution", "4", "--out", "x.txt"],
                     "offs_big.txt line 2: offset entry %s outside the int64 range"
                     % _INT64_PLUS),
    "dataset-offset": ({"off_data.txt": _line_replaced("data2.txt", 10, _INT64_PLUS + " 0")},
                       ["solve", "--data", "off_data.txt", "--ell", "1"],
                       "off_data.txt line 10: offset entry %s outside the int64 range"
                       % _INT64_PLUS),
    "mask-offset": ({"off_mask.txt": _line_replaced("gband.txt", 10, "0 " + _INT64_PLUS)},
                    ["solve", "--data", "data2.txt", "--ell", "1", "--mask", "off_mask.txt"],
                    "off_mask.txt line 10: offset entry %s outside the int64 range"
                    % _INT64_PLUS),
    "group-entry": ({"big_group.txt": "1%s 0 0 1\n" % ("0" * 20)},
                    ["solve", "--data", "data2.txt", "--ell", "1", "--group", "big_group.txt"],
                    "big_group.txt line 1: group entry 1%s outside the int64 range"
                    % ("0" * 20)),
    "scene-coeff": ({"coeff.txt": "channel 0 coeff inf 0 interval -1 0\n"},
                    ["synth", "--scene", "coeff.txt", "--lattice", "lat.txt",
                     "--offsets", "offs.txt", "--resolution", "2", "--out", "x.txt"],
                    "coeff.txt line 1: non-finite scene entry 'inf'"),
    "scene-center": ({"center.txt": "# a ball\nchannel 0 coeff 1 0 ball nan 0 0.5\n"},
                     _SYNTH_2D + ["--scene", "center.txt", "--resolution", "4"],
                     "center.txt line 2: non-finite scene entry 'nan'"),
    # a huge primitive: a hull of more than 2^26 offsets is refused, and so
    # is one past 2^53/r, where sample points are not exact; a far hull
    # just inside that bound is walked
    "band-huge-interval": ({"wide.txt": "channel 0 coeff 1 0 interval -1e15 1e15\n",
                            "offs0.txt": "0\n"},
                           ["synth", "--scene", "wide.txt", "--lattice", "lat.txt",
                            "--offsets", "offs0.txt", "--resolution", "4", "--out", "x.txt"],
                           "cannot check the band of interval [-1e+15, 1e+15): its hull spans "
                           "more than 2^26 offsets"),
    "band-huge-ball": ({"wide2.txt": "channel 0 coeff 1 0 ball 0 0 1e15\n",
                        "offs00.txt": "0 0\n"},
                       ["synth", "--scene", "wide2.txt", "--lattice", "lat2.txt",
                        "--offsets", "offs00.txt", "--resolution", "4", "--out", "x.txt"],
                       "cannot check the band of ball(center=[0.0, 0.0], radius=1e+15): its "
                       "hull spans more than 2^26 offsets"),
    "band-past-int64": ({"wider.txt": "channel 0 coeff 1 0 interval -1e19 1e19\n",
                         "offs0.txt": "0\n"},
                        ["synth", "--scene", "wider.txt", "--lattice", "lat.txt",
                         "--offsets", "offs0.txt", "--resolution", "4", "--out", "x.txt"],
                        "cannot check the band of interval [-1e+19, 1e+19): it reaches "
                        "offsets of 2^53/r or more"),
    # 2^53/4 = 2251799813685248
    "band-past-exact-samples": ({"far.txt": "channel 0 coeff 1 0 interval "
                                            "2251799813685247 2251799813685248\n",
                                 "offs0.txt": "0\n"},
                                ["synth", "--scene", "far.txt", "--lattice", "lat.txt",
                                 "--offsets", "offs0.txt", "--resolution", "4", "--out",
                                 "x.txt"],
                                "cannot check the band of interval [2.2518e+15, 2.2518e+15): "
                                "it reaches offsets of 2^53/r or more"),
    "band-far-interval": ({"near.txt": "channel 0 coeff 1 0 interval "
                                       "2251799813685246 2251799813685247\n",
                           "offs0.txt": "0\n"},
                          ["synth", "--scene", "near.txt", "--lattice", "lat.txt",
                           "--offsets", "offs0.txt", "--resolution", "4", "--out", "x.txt"],
                          "band too small: interval [2.2518e+15, 2.2518e+15) needs offset "
                          "(2251799813685246,) outside the grid"),
    "scene-bound": ({"bound.txt": "channel 0 coeff 1 0 interval 0 inf\n"},
                    ["synth", "--scene", "bound.txt", "--lattice", "lat.txt",
                     "--offsets", "offs.txt", "--resolution", "2", "--out", "x.txt"],
                    "bound.txt line 1: non-finite scene entry 'inf'"),
    "scene-mod": ({"mod.txt": "channel 0 coeff 1 0 box 0 0 0.5 0.5 mod 0 -nan\n"},
                  _SYNTH_2D + ["--scene", "mod.txt", "--resolution", "4"],
                  "mod.txt line 1: non-finite scene entry '-nan'"),
    "scene-box-order": ({"order.txt": "channel 0 coeff 1 0 box 0.5 0 0 0.5\n"},
                        _SYNTH_2D + ["--scene", "order.txt", "--resolution", "4"],
                        "order.txt line 1: box needs lo < hi in every coordinate"),
    # |v|^2 overflows at 2^512: a scene coefficient, synthesized sums and a
    # dataset value of 2^511 or more are refused
    "scene-huge-coeff": ({"hugec.txt": "channel 0 coeff 1e200 0 box 0 0 0.5 0.5\n"},
                         _SYNTH_2D + ["--scene", "hugec.txt", "--resolution", "4"],
                         "hugec.txt line 1: scene entry '1e200' is 2^511 or more in magnitude"),
    "synth-huge-sum": ({"sum.txt": "channel 0 coeff 5e153 0 box 0 0 0.5 0.5\n"
                                   "channel 0 coeff 5e153 0 box 0 0 0.5 0.5\n"},
                       _SYNTH_2D + ["--scene", "sum.txt", "--resolution", "4"],
                       "sum.txt: synthesized samples reach 2^511 or more in magnitude"),
    "dataset-huge-value": ({"hugev.txt": _line_replaced("data2.txt", 13, "1e200 0.0")},
                           ["solve", "--data", "hugev.txt", "--ell", "1"],
                           "hugev.txt line 13: out-of-range value in '1e200 0.0'"),
    # sample coordinates j + r k of offset 2^62 at r = 4 wrap in int64
    "regrid-wrap": ({"wrap.dataset": "pwsis-dataset v1\ndim 2\nlattice 1 0 0 1\n"
                                     "resolution 4\noffsets 2\n0 0\n4611686018427387904 0\n"
                                     "channels 1\n" + "0.5 0.0\n" * 32,
                     "wrap_lats.txt": "1 0 0 1\n0.5 0 0 0.5\n"},
                    ["compare-lattices", "--data", "wrap.dataset", "--lattices",
                     "wrap_lats.txt", "--ell", "0"],
                    "wrap_lats.txt line 2: regrid out of range: sample coordinates reach "
                    "18446744073709551619, 2^62 or more"),
    # the inverse sample map of lattice [[1, 0], [2^61, 1]] at r' = 1
    "regrid-inverse-wrap": ({"one.dataset": "pwsis-dataset v1\ndim 2\nlattice 1 0 0 1\n"
                                            "resolution 1\noffsets 1\n0 0\nchannels 1\n0.5 0.0\n",
                             "inv_lats.txt": "1 0 0 1\n1 2305843009213693952 0 1\n"},
                            ["compare-lattices", "--data", "one.dataset", "--lattices",
                             "inv_lats.txt", "--ell", "0"],
                            "inv_lats.txt line 2: regrid out of range: inverse sample "
                            "coordinates reach 2305843009213693953, 2^61 or more"),
    # offsets 2^32 apart: their inverse-map key box holds more than 2^64 offsets
    "regrid-offset-box": ({"far.dataset": "pwsis-dataset v1\ndim 2\nlattice 1 0 0 1\n"
                                          "resolution 1\noffsets 3\n0 0\n0 4294967296\n"
                                          "4294967296 0\nchannels 1\n" + "0.5 0.0\n" * 3,
                           "far_lats.txt": "1 0 0 1\n1 1 0 1\n"},
                          ["compare-lattices", "--data", "far.dataset", "--lattices",
                           "far_lats.txt", "--ell", "0"],
                          "far_lats.txt line 2: regrid out of range: the source offsets "
                          "of the target samples span a box of 2^63 or more offsets"),
    "header-cap": ({"cap.txt": "pwsis-dataset v1\n" + _CAP_HEADER % "3000000" + "channels 0\n"},
                   ["solve", "--data", "cap.txt", "--ell", "1"],
                   "cap.txt " + _CAP_LINE % "9000000000000 value lines per channel"),
    "header-cap-huge": ({"caph.txt": "pwsis-mask v1\n" + _CAP_HEADER % ("1" + "0" * 400)},
                        ["solve", "--data", "data.txt", "--ell", "1", "--mask", "caph.txt"],
                        "caph.txt " + _CAP_LINE % "more than 16777216 mask bit lines"),
    "lattice-file": ({"lats.txt": "1.0\nnan\n"},
                     ["compare-lattices", "--data", "data.txt", "--lattices", "lats.txt",
                      "--ell", "1"],
                     "lats.txt line 2: non-finite lattice entry 'nan'"),
    "lattice-overflow": ({"latd.txt": "1 0 0 1\n1e200 0 0 1e200\n"},
                         ["compare-lattices", "--data", "data2.txt", "--lattices", "latd.txt",
                          "--ell", "1"],
                         "latd.txt line 2: lattice out of range: a basis entry or "
                         "|det basis| is not finite"),
    # every |v|^2 is finite, but their sums are not
    "solve-sum-overflow": ({"ovf.dataset": _OVERFLOW_DATASET},
                           ["solve", "--data", "ovf.dataset", "--ell", "1"],
                           "ovf.dataset: " + _OVERFLOW),
    "synth-sum-overflow": ({"ovf.txt": "channel 0 coeff 6e153 6e153 interval 0 1\n"},
                           ["synth", "--scene", "ovf.txt", "--lattice", "lat.txt",
                            "--offsets", "offs.txt", "--resolution", "4", "--out", "x.txt"],
                           "ovf.txt: " + _OVERFLOW),
    "omega-sum-overflow": ({"ovf.dataset": _OVERFLOW_DATASET},
                           ["omega-opt", "--data", "ovf.dataset", "--measure", "0.5"],
                           "ovf.dataset: " + _OVERFLOW),
    "band-not-invariant": ({"unfixed.txt": _line_replaced("gband.txt", 11, "1")},
                           ["solve", "--data", "data2.txt", "--group", "d4.txt", "--ell", "1",
                            "--mask", "unfixed.txt"],
                           "mask is not invariant under the group"),
}


@pytest.fixture(scope="module")
def bad_input_dir(tmp_path_factory):
    work = _write_inputs(tmp_path_factory.mktemp("bad_inputs"))
    _group_inputs(work)
    return work


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_exits_two_with_one_error_line(bad_input_dir, case):
    files, argv, message = _BAD_INPUTS[case]
    for name, text in files.items():
        (bad_input_dir / name).write_text(text(bad_input_dir) if callable(text) else text)
    if argv[0] == "omega-opt":
        argv = argv + ["--out", "m.txt"]
    res = _run(argv, bad_input_dir)
    # one line: no traceback, no numpy warning
    assert (res.returncode, res.stdout, res.stderr) == (2, "", "error: %s\n" % message)


# Recorded output: a small dataset written here from integer formulas (no
# random numbers), run through the solving verbs, then `examples` and every
# `check` suite; stdout and the files they write must match, byte for byte,
# what the program printed when they were recorded.  A change to any printed
# digit fails here.
_REC_OFFSETS = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


# overlapping boxes and balls, modulated and not, with repeated and
# distinct coefficients, for the recorded `synth --out`
_REC_SCENE = """channel 0 coeff 1.5 -0.25 box 0 0 1 1
channel 0 coeff 0.1 0.7 ball 0.5 0.5 0.4 mod 0.3 -1.7
channel 1 coeff -2 0.5 box -1 0.25 2 0.75
channel 1 coeff 0.3 0 ball 0.5 1.2 0.3
channel 2 coeff 1e-3 2 box 0.25 -1 0.75 2 mod 1 1
channel 2 coeff 1.5 -0.25 box 0 0 0.5 0.5
"""


def _recorded_value(i, k, c):
    if c % 7 == 3:  # dead cells
        return 0.0, 0.0
    return (((37 * i + 11 * k + 5 * c + c * c) % 29 - 14) / 8.0,
            ((13 * i + 7 * k * k + 3 * c) % 23 - 11) / 16.0)


def _write_recorded_inputs(work):
    """A 3-channel dataset on the identity lattice at r = 6 over the D4-closed
    star of offsets, with whole dead cells; D4; and three lattices."""
    head = ["pwsis-dataset v1", "dim 2", "lattice 1 0 0 1", "resolution 6",
            "offsets %d" % len(_REC_OFFSETS)]
    head += ["%d %d" % k for k in _REC_OFFSETS] + ["channels 3"]
    vals = ["%r %r" % _recorded_value(i, k, c)
            for i in range(3) for k in range(len(_REC_OFFSETS)) for c in range(36)]
    (work / "rec.dataset").write_text("\n".join(head + vals) + "\n")
    (work / "d4.txt").write_text("".join("%d %d %d %d\n" % tuple(g.ravel())
                                         for g in D4_GENS))
    (work / "lats.txt").write_text("1 0 0 1\n1 1 0 1\n0.5 0 0 0.5\n")
    (work / "rec_scene.txt").write_text(_REC_SCENE)
    (work / "rec_lat.txt").write_text("1 0\n0 1\n")
    (work / "rec_offs.txt").write_text("".join("%d %d\n" % k for k in _REC_OFFSETS))


_REC_DATA = ["--data", "rec.dataset"]
_REC_GROUP = _REC_DATA + ["--group", "d4.txt"]
# (key, argv, files the run writes), in run order: the masks come first
RECORDED_RUNS = [
    ("omega_opt", ["omega-opt"] + _REC_DATA + ["--measure", "2.0", "--out", "band.mask"],
     ["band.mask"]),
    ("omega_opt_group", ["omega-opt"] + _REC_GROUP + ["--measure", "2.0",
                                                      "--out", "gband.mask"],
     ["gband.mask"]),
    ("solve", ["solve"] + _REC_DATA + ["--ell", "2", "--dump-gramian", "gram.txt"],
     ["gram.txt"]),
    ("solve_mask", ["solve"] + _REC_DATA + ["--ell", "2", "--mask", "band.mask"], []),
    ("solve_group", ["solve"] + _REC_GROUP + ["--ell", "1"], []),
    ("solve_group_mask", ["solve"] + _REC_GROUP + ["--ell", "1", "--mask", "gband.mask"],
     []),
    ("project", ["project"] + _REC_DATA + ["--mask", "band.mask", "--out", "proj.dataset"],
     ["proj.dataset"]),
    ("synth", ["synth", "--scene", "rec_scene.txt", "--lattice", "rec_lat.txt",
               "--resolution", "6", "--offsets", "rec_offs.txt", "--out", "syn.dataset"],
     ["syn.dataset"]),
    ("pipeline", ["pipeline"] + _REC_DATA + ["--ell", "2", "--mask", "band.mask"], []),
    ("compare_lattices", ["compare-lattices"] + _REC_DATA + ["--ell", "2",
                                                             "--lattices", "lats.txt"],
     []),
    # the worked examples, and every property suite at one seed
    ("examples", ["examples"], []),
] + [("check " + name, ["check", "--suite", name, "--seed", "7"], []) for name in SUITE_NAMES]
RECORDED = {
    "omega_opt": (
        "measure 2\n"
        "captured 8.83040364583\n"
        "residual 7.48947482639\n",
        {"band.mask":
         "0cafc07f97a9c2f2e5b289b36319a254b00b37f9a504bf56abcb1ba3afcd8e8c"}),
    "omega_opt_group": (
        "measure 2\n"
        "captured 7.71375868056\n"
        "residual 8.60611979167\n",
        {"gband.mask":
         "11f629d3b49649ae9161c3de1edb35ac1e40f6a2f01992c74558961811d48491"}),
    "solve": (
        "length 2\n"
        "total error 1.87166628097\n"
        "channel 0 error 0.813215099747\n"
        "channel 1 error 0.403809012895\n"
        "channel 2 error 0.65464216833\n",
        {"gram.txt":
         "2cb9a5ae333cea5d2f26443b6f6a33db64f1e672929c2c9430d870291bd600e8"}),
    "solve_mask": (
        "length 2\n"
        "total error 7.82703328421\n"
        "inside-band error 0.337558457819\n"
        "outside-band energy 7.48947482639\n"
        "channel 0 error 2.67467550733\n"
        "channel 1 error 1.7041907864\n"
        "channel 2 error 3.44816699048\n", {}),
    "solve_group": (
        "length 1\n"
        "total error 10.9551696477\n"
        "channel 0 error 4.00542129909\n"
        "channel 1 error 3.49697959913\n"
        "channel 2 error 3.45276874946\n", {}),
    "solve_group_mask": (
        "length 1\n"
        "total error 13.6921081799\n"
        "inside-band error 5.08598838818\n"
        "outside-band energy 8.60611979167\n"
        "channel 0 error 4.87751217943\n"
        "channel 1 error 4.61629876548\n"
        "channel 2 error 4.19829723494\n", {}),
    "project": (
        "inside-band energy 8.83040364583\n"
        "outside-band energy 7.48947482639\n",
        {"proj.dataset":
         "3cb186f717f0c0c3e647c25e5829b0842c4f5455bedc5b22e665b1b573221791"}),
    "synth": (
        "channels 3\n"
        "energy 15.4828480608\n",
        {"syn.dataset":
         "b90c7eade88df78e67e942db74f89fd83e9238857f6c893165b7d09c569721cd"}),
    "pipeline": (
        "project-then-solve 7.82703328421\n"
        "solve-then-project 7.87328445985\n"
        "gap 0.0462511756433\n", {}),
    "compare_lattices": (
        "lattice 0 error 1.87166628097 length 3\n"
        "lattice 1 error 1.87166628097 length 3\n"
        "lattice 2 error 3.95130459475e-16 length 2\n", {}),
    "examples": (
        "3.6 unconstrained optimal error, one generator: computed 2 expected 2 (abs tol "
        "1e-10) PASS\n"
        "3.6 project-then-solve total error: computed 8 expected 8 (abs tol 1e-10) PASS\n"
        "3.6 in-band optimum after projecting: computed 0 expected 0 (abs tol 1e-10) PASS\n"
        "3.6 energy outside the band: computed 8 expected 8 (abs tol 1e-10) PASS\n"
        "3.6 solve-then-project total error: computed 10 expected 10 (abs tol 1e-10) PASS\n"
        "3.6 note: The unconstrained generator lives entirely in the high band, so "
        "clipping it to the band leaves the zero space; projecting the data first "
        "recovers the low band exactly.\n"
        "3.6: PASS\n"
        "6.1 optimal error on the base lattice: computed 0 expected 0 (abs tol 1e-10) PASS\n"
        "6.1 optimal error on the half-step lattice: computed 0 expected 0 (abs tol "
        "1e-10) PASS\n"
        "6.1: PASS\n"
        "6.2 optimal error on the base lattice: computed 0.5 expected 0.5 (abs tol "
        "1e-10) PASS\n"
        "6.2 optimal error on the half-step lattice: computed 0 expected 0 (abs tol "
        "1e-10) PASS\n"
        "6.2: PASS\n"
        "6.3 optimal error on the step-h lattice: computed 0 expected 0 (abs tol 1e-10) PASS\n"
        "6.3 optimal error on the base lattice: computed 1.27525725812 expected "
        "1.27525725812 (abs tol 1e-10) PASS\n"
        "6.3 base-lattice error exceeds 1e-3: computed 1.27525725812 expected > 0.001 PASS\n"
        "6.3 note: The incommensurate step is approximated by the rational 377/610; the "
        "gap between the two lattices persists for every resolution.\n"
        "6.3: PASS\n"
        "6.4 optimal error on the square lattice: computed 0 expected 0 (abs tol 1e-10) PASS\n"
        "6.4 optimal error on the rotated lattice: computed 0.005029 expected "
        "0.00502654824574 (rel tol 0.01) PASS\n"
        "6.4 subspace length, square lattice: computed 1 expected 1 PASS\n"
        "6.4 subspace length, rotated lattice: computed 2 expected 2 PASS\n"
        "6.4 note: The separation step equals one rotated-lattice unit, so on the "
        "rotated lattice both balls land on the same cells and one generator must leave "
        "a full ball's energy behind: the two optima genuinely differ.\n"
        "6.4: PASS\n"
        "6.5 optimal error on the square lattice: computed 0.0016 expected 0.0016 (abs "
        "tol 1e-10) PASS\n"
        "6.5 optimal error on the rotated lattice: computed 6.70161229182e-05 expected "
        "6.69834510024e-05 (rel tol 0.02) PASS\n"
        "6.5 rotated beats square despite longer length: computed 6.70161229182e-05 "
        "expected < 0.0016 PASS\n"
        "6.5 subspace length, square lattice: computed 2 expected 2 PASS\n"
        "6.5 subspace length, rotated lattice: computed 3 expected 3 PASS\n"
        "6.5 note: On the square lattice the two boxes collide on the same cells (cost "
        "1/625) while the balls separate; on the rotated lattice the three balls stack "
        "but are nearly collinear, costing only about 6.69835e-05.\n"
        "6.5: PASS\n"
        "examples: 6/6 passed\n", {}),
    "check lattice": ("suite lattice: 60/60 passed\n", {}),
    "check roundtrip": ("suite roundtrip: 30/30 passed\n", {}),
    "check projection": ("suite projection: 200/200 passed\n", {}),
    "check covariance": ("suite covariance: 100/100 passed\n", {}),
    "check eckart-young": ("suite eckart-young: 10/10 passed\n", {}),
    "check refinement": ("suite refinement: 100/100 passed\n", {}),
    "check membership": ("suite membership: 40/40 passed\n", {}),
    "check equivariance": ("suite equivariance: 30/30 passed\n", {}),
    "check omega": ("suite omega: 100/100 passed\n", {}),
    "check padding": ("suite padding: 30/30 passed\n", {}),
}


def test_cli_output_matches_the_recording(tmp_path):
    _write_recorded_inputs(tmp_path)
    for key, argv, files in RECORDED_RUNS:
        res = _run(argv, tmp_path)
        assert (res.returncode, res.stderr) == (0, ""), (key, res.stderr)
        stdout, digests = RECORDED[key]
        assert res.stdout == stdout, key
        for name in files:
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digests[name], (key, name)


def test_example_6_5_runs_in_a_1_5_gb_address_space(tmp_path):
    # its two datasets hold 5 x 25 x 10^6 samples each, 1.9 GiB dense; stored
    # as their nonzero (offset, cell) pairs the run fits, with the output of
    # the recording
    import resource

    limit = 1536 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = _run(["examples", "--id", "6.5"], tmp_path, env={"PWSIS_THREADS": "1"},
               preexec_fn=cap)
    recorded = [line for line in RECORDED["examples"][0].splitlines(True)
                if line.startswith("6.5")]
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "".join(recorded) + "examples: 1/1 passed\n"
