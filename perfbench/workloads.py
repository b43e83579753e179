"""Workloads: inputs made from a seed, the CLI jobs that run on them, and
the independent check of every job's output.

A workload is built once per benchmark run by `WORKLOADS[name](work, seed,
small)`, which writes the inputs into `work` and returns the job list.  A
round runs every job once, in order; each job's check reads the job's
stdout and any file it wrote, and raises CheckError on a wrong result.
"""

import math
import re
import sys

import numpy as np

import oracle
import pwsisfmt as fmt

REL = 1e-9  # printed values carry 12 significant digits


class CheckError(Exception):
    pass


def expect(cond, msg, *args):
    if not cond:
        raise CheckError(msg % args if args else msg)


def close(got, want, scale, what):
    expect(abs(got - want) <= REL * scale, "%s: got %.12g, expected %.12g", what, got, want)


class Job:
    """One CLI invocation (`pwsis <argv>`) and the check of its output."""

    def __init__(self, key, argv, check):
        self.key = key
        self.argv = argv
        self.check = check


def _fields(out):
    """'name value' stdout lines as a dict of floats (last token is the value)."""
    res = {}
    for line in out.splitlines():
        head, _, tail = line.rpartition(" ")
        if head:
            try:
                res[head] = float(tail)
            except ValueError:
                pass
    return res


def _channels(fields, m):
    return np.array([fields["channel %d error" % i] for i in range(m)])


def _square_offsets(b):
    side = np.arange(-b, b + 1)
    return np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)


def _random_values(rng, m, grid):
    shape = (m, len(grid.offsets), grid.n_cells)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _full_coords(grid):
    """Integer sample coordinates j + r k, shape (n_offsets, n_cells, d);
    on the identity lattice the sample point is this divided by r."""
    return grid.cells()[None, :, :] + grid.r * grid.offsets[:, None, :]


# ---------------------------------------------------------------------------
# examples: the six worked configurations and the property suites

_EPS = 0.1


def _example_rows():
    """Per example id: one (kind, value) per printed row, in order.  Kinds:
    'abs'/'rel' with a tolerance, 'int', and 'same' (equals the value of the
    row at the given index)."""
    h = 377.0 / 610.0
    base = 2.0 - 2.0 * abs(math.cos(math.pi * h))
    c = 3.0 + _EPS ** 2
    mu_minus = (c - math.sqrt(c * c - 4.0 * _EPS ** 2)) / 2.0
    exact = lambda v: ("abs", v, 1e-9)
    return {
        "3.6": [exact(2.0), exact(8.0), exact(0.0), exact(8.0), exact(10.0)],
        "6.1": [exact(0.0), exact(0.0)],
        "6.2": [exact(0.5), exact(0.0)],
        "6.3": [exact(0.0), exact(base), ("same", 1, None)],
        "6.4": [exact(0.0), ("rel", math.pi / 625.0, 1e-2), ("int", 1, None),
                ("int", 2, None)],
        "6.5": [exact(1.0 / 625.0), ("rel", (mu_minus + _EPS ** 2) * math.pi / 625.0, 2e-2),
                ("same", 1, None), ("int", 2, None), ("int", 3, None)],
    }


_ROW = re.compile(r"^(\S+) (.+): computed (\S+) ")


def _check_examples(ids):
    table = _example_rows()

    def check(out, work):
        got = {i: [] for i in ids}
        for line in out.splitlines():
            mt = _ROW.match(line)
            if mt:
                expect(mt.group(1) in got, "unexpected example row %r", line)
                got[mt.group(1)].append(float(mt.group(3)))
        for i in ids:
            rows, want = got[i], table[i]
            expect(len(rows) == len(want), "example %s: %d rows, expected %d",
                   i, len(rows), len(want))
            for n, (val, (kind, ref, tol)) in enumerate(zip(rows, want)):
                what = "example %s row %d" % (i, n)
                if kind == "abs":
                    expect(abs(val - ref) <= tol, "%s: %.12g vs %.12g", what, val, ref)
                elif kind == "rel":
                    expect(abs(val - ref) <= tol * abs(ref), "%s: %.12g vs %.12g",
                           what, val, ref)
                elif kind == "int":
                    expect(val == ref, "%s: %g vs %d", what, val, ref)
                else:
                    expect(val == rows[ref], "%s: %.12g vs row %d", what, val, ref)
        if "6.5" in ids:
            expect(got["6.5"][1] < got["6.5"][0], "6.5: rotated does not beat square")
    return check


# The equivariance suite is left out: on some seeds (208, 305, 334, 356)
# best_gamma returns an error below its own per-orbit bound at a tie-split
# cell and the suite fails, so the share of failed jobs would depend on the
# seed.  The group workload checks best_gamma at size instead.
SUITES = ("lattice", "roundtrip", "projection", "covariance", "eckart-young",
          "refinement", "membership", "omega", "padding")
_SUITE = re.compile(r"^suite (\S+): (\d+)/(\d+) passed$")


def _check_suite(name):
    def check(out, work):
        lines = out.splitlines()
        expect(len(lines) == 1, "check output %r", out[:200])
        mt = _SUITE.match(lines[0])
        expect(mt is not None and mt.group(1) == name, "unexpected check output %r", lines[0])
        expect(mt.group(2) == mt.group(3) and int(mt.group(3)) > 0, "suite line %r", lines[0])
    return check


def _examples(work, seed, small):
    if small:
        jobs = [Job("examples", ["examples", "--id", i], _check_examples([i]))
                for i in ("3.6", "6.1", "6.2", "6.3")]
    else:
        jobs = [Job("examples", ["examples"], _check_examples(list(_example_rows())))]
    return jobs + [Job("check", ["check", "--suite", name, "--seed", str(seed)],
                       _check_suite(name)) for name in SUITES]


# ---------------------------------------------------------------------------
# files: one dense dataset through every file-reading and file-writing verb

def _tiles(rng, grid, m):
    """Per channel, 20 of the 25 unit boxes of the band [-2, 3)^2 with complex
    normal coefficients, as (channel, coeff, lo, hi) in integer units of 1/r.
    The covered area is the same for every seed, so the size of the written
    file (and the job's memory) does not depend on it."""
    lo = int(grid.offsets.min())
    tiles = []
    for ch in range(m):
        for t in np.sort(rng.choice(25, 20, replace=False)):
            a, b = lo + t // 5, lo + t % 5
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            tiles.append((ch, coeff, (a * grid.r, b * grid.r),
                          ((a + 1) * grid.r, (b + 1) * grid.r)))
    return tiles


def _check_synth(grid, tiles, m, path):
    want = np.zeros((m, len(grid.offsets), grid.n_cells), dtype=np.complex128)
    full = _full_coords(grid)
    for ch, coeff, lo, hi in tiles:
        inside = np.all((full >= lo) & (full < hi), axis=2)
        want[ch][inside] += coeff
    energy = sum(abs(c) ** 2 * np.prod(np.subtract(hi, lo)) for _, c, lo, hi in tiles)
    energy /= grid.r ** 2

    def check(out, work):
        f = _fields(out)
        expect(f.get("channels") == m, "synth channels %r", f.get("channels"))
        close(f["energy"], energy, energy, "synth energy")
        g2, vals = fmt.read_dataset(work / path)
        expect(g2.r == grid.r and np.array_equal(g2.basis, grid.basis), "synth grid")
        expect(np.array_equal(fmt.reorder(g2, vals, grid.offsets), want),
               "synth values differ from the scene's boxes")
    return check


def _files(work, seed, small):
    rng = np.random.default_rng([seed, 2])
    m, r, ell, measure = 3, (16 if small else 64), 1, 8.0
    grid = fmt.Grid(np.eye(2), r, _square_offsets(2))
    w = grid.cell_weight
    values = _random_values(rng, m, grid)
    fmt.write_dataset(work / "data.dataset", grid, values)
    xi = _full_coords(grid) / r
    band = ((xi - 0.5) ** 2).sum(axis=2) < 1.6 ** 2
    fmt.write_mask(work / "band.mask", grid, band)
    tiles = _tiles(rng, grid, m)
    with open(work / "scene.txt", "w") as fh:
        for ch, c, lo, hi in tiles:
            bounds = [float(v) / r for v in (*lo, *hi)]
            fh.write("channel %d coeff %r %r box %r %r %r %r\n" % (ch, c.real, c.imag, *bounds))
    (work / "lattice.txt").write_text("1 0\n0 1\n")
    (work / "offsets.txt").write_text(
        "".join("%d %d\n" % tuple(k) for k in grid.offsets))
    (work / "lattices.txt").write_text("1 0 0 1\n1 1 0 1\n0.5 0 0 0.5\n")

    energy = oracle.energies(values, w)
    scale = 1.0 + energy.sum()
    total, per_channel, rank = oracle.eckart_young(values, ell, w)
    inside = np.where(band, values, 0.0)
    in_total, in_channel, _ = oracle.eckart_young(inside, ell, w)
    outside = oracle.energies(values - inside, w)
    density = (np.abs(values) ** 2).sum(axis=0).ravel()
    n_top = int(round(measure / w))
    top = np.sort(density)[::-1][:n_top].sum() * w

    def check_solve(out, work):
        f = _fields(out)
        close(f["total error"], total, scale, "solve total")
        ch = _channels(f, m)
        close(ch.sum(), f["total error"], scale, "solve channel sum")
        for i in range(m):
            close(ch[i], per_channel[i], scale, "solve channel %d" % i)
        expect(f["length"] == min(ell, rank), "solve length %g", f["length"])

    def check_solve_mask(out, work):
        f = _fields(out)
        close(f["inside-band error"], in_total, scale, "inside-band error")
        close(f["outside-band energy"], outside.sum(), scale, "outside-band energy")
        close(f["total error"], in_total + outside.sum(), scale, "masked total")
        ch = _channels(f, m)
        close(ch.sum(), f["total error"], scale, "masked channel sum")
        for i in range(m):
            close(ch[i], in_channel[i] + outside[i], scale, "masked channel %d" % i)

    def check_pipeline(out, work):
        f = _fields(out)
        first, second = f["project-then-solve"], f["solve-then-project"]
        close(first, in_total + outside.sum(), scale, "project-then-solve")
        expect(first <= second + REL * scale, "project-then-solve %.12g > "
               "solve-then-project %.12g", first, second)
        close(f["gap"], second - first, scale, "pipeline gap")

    def check_project(out, work):
        f = _fields(out)
        close(f["inside-band energy"], energy.sum() - outside.sum(), scale, "inside energy")
        close(f["outside-band energy"], outside.sum(), scale, "outside energy")
        g2, vals = fmt.read_dataset(work / "proj.dataset")
        expect(np.array_equal(fmt.reorder(g2, vals, grid.offsets), inside),
               "projected values are not the input on the band and zero off it")

    def check_omega(out, work):
        f = _fields(out)
        close(f["measure"], measure, measure, "omega measure")
        close(f["captured"], top, scale, "omega captured")
        close(f["residual"], energy.sum() - top, scale, "omega residual")
        g2, bits = fmt.read_mask(work / "omega.mask")
        bits = fmt.reorder(g2, bits, grid.offsets).ravel()
        expect(bits.sum() == n_top, "omega mask has %d ones, expected %d", bits.sum(), n_top)
        close(density[bits].sum() * w, top, scale, "omega mask energy")

    def check_compare(out, work):
        rows = re.findall(r"^lattice (\d+) error (\S+) length (\d+)$", out, re.M)
        expect([int(i) for i, _, _ in rows] == [0, 1, 2], "compare-lattices rows %r", rows)
        err = [float(e) for _, e, _ in rows]
        close(err[0], total, scale, "own basis")
        close(err[1], err[0], scale, "unimodular re-basis")
        expect(err[2] <= err[0] + REL * scale, "half-step refinement %.12g > %.12g",
               err[2], err[0])
        expect(int(rows[0][2]) == rank, "own-basis length %s, expected %d", rows[0][2], rank)

    data = ["--data", "data.dataset"]
    L = ["--ell", str(ell)]
    return [
        Job("synth", ["synth", "--scene", "scene.txt", "--lattice", "lattice.txt",
                      "--resolution", str(r), "--offsets", "offsets.txt",
                      "--out", "synth.dataset"],
            _check_synth(grid, tiles, m, "synth.dataset")),
        Job("solve", ["solve"] + data + L, check_solve),
        Job("solve_mask", ["solve"] + data + L + ["--mask", "band.mask"], check_solve_mask),
        Job("pipeline", ["pipeline"] + data + L + ["--mask", "band.mask"], check_pipeline),
        Job("project", ["project"] + data + ["--mask", "band.mask", "--out", "proj.dataset"],
            check_project),
        Job("omega_opt", ["omega-opt"] + data + ["--measure", repr(measure),
                                                 "--out", "omega.mask"], check_omega),
        Job("compare_lattices", ["compare-lattices"] + data + L
            + ["--lattices", "lattices.txt"], check_compare),
    ]


# ---------------------------------------------------------------------------
# group: D4-invariant band, then group solves inside it and unconstrained

def _group(work, seed, small):
    rng = np.random.default_rng([seed, 3])
    m, r, ell, measure = 6, (16 if small else 64), 1, 2.0
    grid = fmt.Grid(np.eye(2), r, _square_offsets(1))
    w = grid.cell_weight
    values = _random_values(rng, m, grid)
    fmt.write_dataset(work / "group.dataset", grid, values)
    (work / "d4.txt").write_text("".join("%d %d %d %d\n" % tuple(g.ravel())
                                         for g in oracle.D4))

    off_perm, cell_perm = oracle.index_maps(grid.offsets, r, oracle.D4)
    perms = oracle.pair_perms(off_perm, cell_perm)
    orbit_id, orbit_size = oracle.orbits(perms)
    density = (np.abs(values) ** 2).sum(axis=0).ravel()
    n_box = int(round(measure / w))
    top = np.sort(density)[::-1][:n_box].sum() * w
    orbit_val = np.bincount(orbit_id, weights=density, minlength=len(density))
    eights = np.flatnonzero((orbit_size == 8) & (orbit_id == np.arange(len(density))))
    expect(n_box % 8 == 0 and len(eights) >= n_box // 8, "no whole-orbit selection of size 8")
    feasible = np.sort(orbit_val[eights])[::-1][:n_box // 8].sum() * w
    energy = oracle.energies(values, w)
    scale = 1.0 + energy.sum()
    free_total, _, _ = oracle.eckart_young(values, ell, w)

    def read_band(work):
        g2, bits = fmt.read_mask(work / "gband.mask")
        return fmt.reorder(g2, bits, grid.offsets)

    def check_omega(out, work):
        f = _fields(out)
        bits = read_band(work).ravel()
        for g in range(len(perms)):
            expect(np.array_equal(bits[perms[g]], bits), "band not D4-invariant")
        expect(bits.sum() == n_box, "band has %d boxes, expected %d", bits.sum(), n_box)
        close(f["measure"], measure, measure, "band measure")
        captured = density[bits].sum() * w
        close(f["captured"], captured, scale, "band captured energy")
        expect(feasible - REL * scale <= captured <= top + REL * scale,
               "captured %.12g outside [whole-orbit %.12g, top-n %.12g]",
               captured, feasible, top)

    def check_group_solve(f, vals, extra, what):
        bound, low, high, ties = oracle.group_bound(vals, off_perm, cell_perm, ell, w)
        got = f.get("inside-band error", f["total error"])
        expect(low - REL * scale <= got <= high + REL * scale,
               "group error %.12g outside [%.12g, %.12g]", got, low, high)
        if ties:
            print("%s: %d orbit(s) where the rank cut splits a tie; error %.12g, "
                  "bound %.12g" % (what, ties, got, bound), file=sys.stderr)
        total = f["total error"]
        close(got + extra, total, scale, "group total")
        close(_channels(f, m).sum(), total, scale, "group channel sum")
        expect(free_total - REL * scale <= total <= energy.sum() + REL * scale,
               "group error %.12g outside [ungrouped %.12g, energy %.12g]",
               total, free_total, energy.sum())

    def check_solve_mask(out, work):
        f = _fields(out)
        bits = read_band(work)
        inside = np.where(bits, values, 0.0)
        off = oracle.energies(values - inside, w).sum()
        close(f["outside-band energy"], off, scale, "group outside-band energy")
        check_group_solve(f, inside, off, "solve_group_mask")

    def check_solve(out, work):
        check_group_solve(_fields(out), values, 0.0, "solve_group")

    data = ["--data", "group.dataset", "--group", "d4.txt"]
    L = ["--ell", str(ell)]
    return [
        Job("omega_opt_group", ["omega-opt"] + data + ["--measure", repr(measure),
                                                       "--out", "gband.mask"], check_omega),
        Job("solve_group_mask", ["solve"] + data + L + ["--mask", "gband.mask"],
            check_solve_mask),
        Job("solve_group", ["solve"] + data + L, check_solve),
    ]


# name -> f(work directory, seed, small) -> list of Job
WORKLOADS = {"examples": _examples, "files": _files, "group": _group}
