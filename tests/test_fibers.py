import numpy as np
import pytest

from conftest import traced_peak
from pwsis import fibers
from pwsis.fibers import (dilation_transport, fiber, gramian_covariance_check,
                          gramian_field, membership_test, regrid_to_lattice,
                          symmetrize)
from pwsis.lattice import _cell_permutations, make_group, make_lattice, offset_permutations
from pwsis.solver import best_sis
from pwsis.spectral import (Scene, SpectralDataset, interval, make_grid,
                            synthesize)

HERMITIAN_TOL = 1e-12
COVARIANCE_TOL = 1e-10
REGRID_TOL = 1e-9

LAT_Z = make_lattice([[1.0]])
K3 = [[-1], [0], [1]]


def _two_bumps(r):
    scene = Scene(1)
    scene.add(0, 1.0, interval(-1.0, 0.0))
    scene.add(0, 2.0, interval(1.0, 2.0))
    scene.add(1, -1.0, interval(-1.0, 0.0))
    scene.add(1, 2.0, interval(1.0, 2.0))
    grid = make_grid(LAT_Z, r, K3)
    return synthesize(scene, LAT_Z, grid), grid


def _random_dataset(rng, m=2, d=1, r=3, n_offsets=3):
    lat = make_lattice(np.eye(d) + 0.1 * rng.standard_normal((d, d)))
    ks = rng.integers(-2, 3, size=(n_offsets, d))
    ks[0] = 0
    grid = make_grid(lat, r, ks)
    shape = (m, grid.n_offsets, grid.n_cells)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralDataset(lat, grid, values)


def test_fiber_extraction():
    F, _ = _two_bumps(1)
    fib = fiber(F, 0, 0)
    assert np.array_equal(fib.entries, [1, 0, 2])
    assert fib.norm() == pytest.approx(np.sqrt(5.0))
    with pytest.raises(IndexError):
        fiber(F, 5, 0)
    with pytest.raises(IndexError):
        fiber(F, 0, 9)


def test_gramian_hand_value():
    F, _ = _two_bumps(1)
    G = gramian_field(F)
    assert np.array_equal(G.dense_at(0), [[5.0, 3.0], [3.0, 5.0]])
    lam = np.linalg.eigvalsh(G.dense_at(0))
    assert np.allclose(lam, [2.0, 8.0])


def test_gramian_skips_dead_cells():
    grid = make_grid(LAT_Z, 2, [[0]])
    values = np.zeros((1, 1, 2), dtype=complex)
    values[0, 0, 1] = 3.0
    G = gramian_field(SpectralDataset(LAT_Z, grid, values))
    assert np.array_equal(G.active_idx, [1])
    assert G.n_active == 1
    assert np.array_equal(G.dense_at(0), [[0.0]])
    assert np.array_equal(G.dense_at(1), [[9.0]])


def test_gramian_is_hermitian_psd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        F = _random_dataset(rng, m=3)
        G = gramian_field(F)
        for mat in G.mats:
            assert np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_TOL * G.trace.max()
            assert np.linalg.eigvalsh(mat).min() >= -HERMITIAN_TOL * G.trace.max()


def test_gramian_on_one_support_cell_matches_full_grid():
    # nine offsets: enough for numpy to sum a lone column pairwise
    rng = np.random.default_rng(11)
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 4, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    for _ in range(40):
        vals = np.zeros((2, grid.n_offsets, grid.n_cells), dtype=complex)
        c = int(rng.integers(grid.n_cells))
        vals[:, :, c] = (rng.standard_normal((2, grid.n_offsets))
                         * 10.0 ** rng.integers(-3, 3, size=(2, grid.n_offsets)) + 1j)
        one = gramian_field(SpectralDataset(lat, grid, vals, support=np.array([c])))
        full = gramian_field(SpectralDataset(lat, grid, vals))
        assert np.array_equal(one.active_idx, full.active_idx)
        assert np.array_equal(one.trace, full.trace)
        assert np.array_equal(one.mats, full.mats)


def _whole_array_gramian(grid, values, cells=None):
    """gramian_field's route before it read its fibers a block at a time:
    one trace pass over the whole C-contiguous values, which sit at cells
    (at cell c when cells is None), one gathered copy of the active fibers
    unless every cell is active, and one einsum over them."""
    trace = np.zeros(values.shape[2])
    for i in range(values.shape[0]):
        s = values[i, 0].real ** 2 + values[i, 0].imag ** 2
        for k in range(1, values.shape[1]):
            s += values[i, k].real ** 2 + values[i, k].imag ** 2
        trace += s
    keep = np.flatnonzero(trace > 0.0)
    if keep.shape[0] == values.shape[2]:
        va = values
    else:
        va = np.ascontiguousarray(values[:, :, keep])
    other = va if fibers._BUG_GRAMIAN_NO_CONJ else va.conj()
    active = keep if cells is None else cells[keep]
    return fibers.GramianField(grid, values.shape[0], active,
                               np.einsum("ikc,jkc->cij", va, other), trace[keep])


def _assert_whole_array_field(F):
    got = gramian_field(F)
    if F.support is None:
        want = _whole_array_gramian(F.grid, F.values)
    else:
        want = _whole_array_gramian(F.grid, F.values.take(F.support, axis=2), F.support)
    assert np.array_equal(got.active_idx, want.active_idx)
    assert np.array_equal(got.mats, want.mats)
    assert np.array_equal(got.trace, want.trace)
    assert got.mats.shape == (got.n_active, F.m, F.m)
    return got


def test_blocked_gramian_field_matches_the_whole_array_route(monkeypatch):
    # m = 3 on 3 x 3 offsets at r = 64: 4096 cells, four blocks by default;
    # magnitudes over six decades so that any change of summation order
    # shows in the bits
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    rng = np.random.default_rng(66)
    m = 3
    shape = (m, grid.n_offsets, grid.n_cells)
    vals = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            * 10.0 ** rng.integers(-3, 3, size=shape))
    dense = SpectralDataset(lat, grid, vals)
    assert grid.n_cells > fibers._dataset_blocks(dense)[5] > 1
    dead_vals = vals.copy()
    dead_vals[:, :, rng.random(grid.n_cells) < 0.3] = 0.0
    dead = SpectralDataset(lat, grid, dead_vals)
    assert 0 < _assert_whole_array_field(dead).n_active < grid.n_cells
    # a support that holds dead cells too; one support cell, alone or as
    # the last cell of the grid; a contiguous run of support cells
    cells = np.flatnonzero(rng.random(grid.n_cells) < 0.4)
    for support in (cells, cells[:1], np.array([grid.n_cells - 1]),
                    np.arange(100, 2900)):
        _assert_whole_array_field(SpectralDataset(lat, grid, dead_vals, support=support))
    for F in (dense, SpectralDataset(lat, grid, vals[:0])):  # and m = 0
        _assert_whole_array_field(F)
    # blocks whose last one holds a single cell: of all cells for the
    # trace pass, of the active cells for the Gramians; one cell per block
    n_active = gramian_field(dead).n_active
    for n in (grid.n_cells, n_active):
        # a block holds its fibers twice
        monkeypatch.setattr(fibers, "_BLOCK_BYTES", 32 * m * grid.n_offsets * (n - 1))
        for F in (dense, dead):
            assert n % fibers._dataset_blocks(F)[5] == 1
            _assert_whole_array_field(F)
    monkeypatch.setattr(fibers, "_BLOCK_BYTES", 1)
    _assert_whole_array_field(SpectralDataset(lat, make_grid(lat, 8, grid.offsets),
                                              dead_vals[:, :, :64]))
    # the planted conjugation fault reaches every block
    monkeypatch.undo()
    monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", True)
    for F in (dense, dead):
        broken = _assert_whole_array_field(F)
        assert np.max(np.abs(broken.mats - broken.mats.conj().transpose(0, 2, 1))) > 1e-6


def test_gramian_field_never_copies_a_dense_dataset():
    # m = 3 on 5 x 5 offsets at r = 64, every cell active: 4.9 MB of
    # values against about 1 MB per block of fibers and their conjugate
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    rng = np.random.default_rng(67)
    shape = (3, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    G, peak = traced_peak(lambda: gramian_field(F))
    assert G.n_active == grid.n_cells
    assert peak < F.values.nbytes


def test_gramian_field_reads_the_trace_a_block_at_a_time():
    # one channel on K = {0} at r = 1024, every cell active: the field's own
    # arrays (cells, traces and 1 x 1 Gramians) take 33.6 MB; a trace pass
    # over the whole grid at once held 40 MB
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 1024, [[0, 0]])
    rng = np.random.default_rng(81)
    shape = (1, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    G, peak = traced_peak(lambda: gramian_field(F))
    assert G.n_active == grid.n_cells
    assert peak < 36e6


def test_gramian_debug_hook(monkeypatch):
    rng = np.random.default_rng(6)
    F = _random_dataset(rng)
    monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", True)
    broken = gramian_field(F)
    dev = max(float(np.max(np.abs(m - m.conj().T))) for m in broken.mats)
    assert dev > 1e-6
    monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", False)
    good = gramian_field(F)
    dev = max(float(np.max(np.abs(m - m.conj().T))) for m in good.mats)
    assert dev <= HERMITIAN_TOL * good.trace.max()


def test_membership_accepts_scaled_copies():
    grid = make_grid(LAT_Z, 2, K3)
    base = np.zeros((2, 3, 2), dtype=complex)
    base[0] = [[1.0, 2.0], [0.5j, 0.0], [1.0, -1.0]]
    # channel 1 rescales each fiber of channel 0 by wildly different factors
    base[1] = base[0] * np.array([1e8, 1e-8])
    F = SpectralDataset(LAT_Z, grid, base)
    assert membership_test(F, 0, F, 0)
    assert membership_test(F, 1, F, 0)
    assert membership_test(F, 0, F, 1)


def test_membership_rejects_independent_and_unsupported():
    grid = make_grid(LAT_Z, 1, K3)
    vals = np.zeros((3, 3, 1), dtype=complex)
    vals[0, :, 0] = [1.0, 0.0, 2.0]
    vals[1, :, 0] = [-1.0, 0.0, 2.0]
    vals[2, :, 0] = 0.0
    F = SpectralDataset(LAT_Z, grid, vals)
    assert not membership_test(F, 0, F, 1)
    # zero generator fiber admits only the zero fiber
    assert not membership_test(F, 0, F, 2)
    assert membership_test(F, 2, F, 0)
    other = SpectralDataset(LAT_Z, make_grid(LAT_Z, 2, K3),
                            np.zeros((1, 3, 2), dtype=complex))
    with pytest.raises(ValueError, match="mismatched grid"):
        membership_test(F, 0, other, 0)


def test_membership_checks_channel_indices():
    grid = make_grid(LAT_Z, 1, K3)
    vals = np.zeros((2, 3, 1), dtype=complex)
    vals[0, :, 0] = [1.0, 0.0, 2.0]
    F = SpectralDataset(LAT_Z, grid, vals)
    # -1 would read the last channel, which is zero and so a member
    for i, j, bad in ((-1, 0, -1), (2, 0, 2), (0, -1, -1), (0, 2, 2)):
        with pytest.raises(IndexError, match="^channel index %d out of range$" % bad):
            membership_test(F, i, F, j)


def test_symmetrize_expands_channels():
    rng = np.random.default_rng(7)
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 2, [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]])
    shape = (2, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    group = make_group([np.array([[0, -1], [1, 0]])])
    S = symmetrize(F, group)
    assert S.m == 8
    assert np.array_equal(S.values[:2], F.values)
    for g in range(4):
        for i in range(2):
            # each channel is an exact index permutation of its source
            assert np.array_equal(np.sort_complex(S.values[2 * g + i].ravel()),
                                  np.sort_complex(F.values[i].ravel()))


def _reference_symmetrize(F, group):
    """symmetrize before it read through the one group-action gather: each
    channel (g, i) taken on its own at the inverse-image indices."""
    cell_perms = _cell_permutations(F.grid, group)
    off_perms = offset_permutations(F.grid, group)
    m, n = F.m, len(group)
    out = np.empty((m * n, F.grid.n_offsets, F.grid.n_cells), dtype=np.complex128)
    for gi in range(n):
        inv = group.inverse_index(gi)
        src = np.ix_(off_perms[inv], cell_perms[inv])
        for i in range(m):
            out[gi * m + i] = F.values[i][src]
    return out


def test_symmetrize_matches_the_per_channel_loop():
    rot, flip, diag = (np.array(g) for g in ([[0, -1], [1, 0]], [[1, 0], [0, -1]],
                                             [[0, 1], [1, 0]]))
    # subgroups of D4: trivial, C2, two mirrors, C4, both Klein groups, D4
    subgroups = [[np.eye(2, dtype=int)], [rot @ rot], [flip], [diag], [rot],
                 [flip, rot @ rot], [diag, rot @ rot], [rot, flip]]
    lat = make_lattice(np.eye(2))
    rng = np.random.default_rng(80)
    for gens in subgroups:
        group = make_group(gens)
        for r in (1, 2, 3, 5):
            grid = make_grid(lat, r, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
            for m in (0, 1, 3):
                shape = (m, grid.n_offsets, grid.n_cells)
                vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                support = np.flatnonzero(rng.random(grid.n_cells) < 0.5)
                dead = np.zeros_like(vals)
                dead[:, :, support] = vals[:, :, support]
                for F in (SpectralDataset(lat, grid, vals),
                          SpectralDataset(lat, grid, dead, support=support)):
                    got = symmetrize(F, group).values
                    want = _reference_symmetrize(F, group)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def test_symmetrize_takes_each_element_straight_into_its_output():
    # m = 6 on 3 x 3 offsets at r = 64 under D4: the output is 27 MiB; an
    # assignment of each element's gather into it also held that gather,
    # 3.4 MiB (31.0 MiB traced)
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    rng = np.random.default_rng(82)
    shape = (6, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    group = make_group([np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])])
    S, peak = traced_peak(lambda: symmetrize(F, group))
    assert S.values.nbytes == 27 * 2 ** 20
    assert peak < 28.5 * 2 ** 20
    assert S.values.tobytes() == _reference_symmetrize(F, group).tobytes()

def test_dilation_transport_is_unitary():
    rng = np.random.default_rng(8)
    F = _random_dataset(rng, d=2, r=2)
    A = np.array([[2.0, 1.0], [0.0, 1.5]])
    D = dilation_transport(F, A)
    assert np.allclose(D.lattice.basis, np.linalg.inv(A) @ F.lattice.basis)
    assert np.allclose(D.energy(), F.energy(), rtol=1e-12)


def test_gramian_covariance_small():
    rng = np.random.default_rng(9)
    for _ in range(10):
        F = _random_dataset(rng, d=2, r=2)
        A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        if abs(np.linalg.det(A)) < 0.3:
            continue
        scale = float(gramian_field(F).trace.max())
        assert gramian_covariance_check(F, A) <= COVARIANCE_TOL * scale


def _reference_covariance_check(F, A):
    """gramian_covariance_check as a per-cell loop over the union of the
    two fields' active cells."""
    D = dilation_transport(F, A)
    GF, GD = gramian_field(F), gramian_field(D)
    scale = abs(np.linalg.det(A))
    pos_f = {int(c): k for k, c in enumerate(GF.active_idx)}
    pos_d = {int(c): k for k, c in enumerate(GD.active_idx)}
    dev = 0.0
    for c in sorted(set(pos_f) | set(pos_d)):
        gf = GF.mats[pos_f[c]] if c in pos_f else 0.0
        gd = GD.mats[pos_d[c]] if c in pos_d else 0.0
        dev = max(dev, float(np.max(np.abs(gf - scale * gd))))
    return dev


def test_gramian_covariance_matches_cell_loop(monkeypatch):
    rng = np.random.default_rng(10)
    A = np.array([[2.0, 1.0], [0.0, 1.5]])
    for trial in range(12):
        F = _random_dataset(rng, d=2, r=3)
        if trial % 3 == 0:  # dead cells
            vals = F.values.copy()
            vals[:, :, rng.random(F.grid.n_cells) < 0.5] = 0.0
            F = SpectralDataset(F.lattice, F.grid, vals)
        if trial % 3 == 1:  # the planted fault makes the deviation nonzero
            monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", True)
        assert gramian_covariance_check(F, A) == _reference_covariance_check(F, A)
        monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", False)
    zero = SpectralDataset(F.lattice, F.grid, np.zeros_like(F.values))
    assert gramian_covariance_check(zero, A) == 0.0


def test_regrid_same_lattice_is_identity():
    F, _ = _two_bumps(2)
    assert regrid_to_lattice(F, LAT_Z) is F


def test_regrid_preserves_samples_not_optimum():
    F, _ = _two_bumps(2)
    # the frequency samples carry over unchanged, but the one-generator
    # optimum depends on the lattice: the bump pair clashes inside a single
    # fiber on Z/2 and 2Z yet partially decouples on (2/3)Z
    cases = ((make_lattice([[0.5]]), 2.0), (make_lattice([[2.0]]), 2.0),
             (make_lattice([[2.0 / 3.0]]), 1.0))
    for target, expected in cases:
        R = regrid_to_lattice(F, target)
        assert R.lattice.same_as(target)
        assert np.allclose(R.energy(), F.energy(), rtol=1e-12)
        nz = R.values[np.abs(R.values) > 0]
        nz0 = F.values[np.abs(F.values) > 0]
        assert np.array_equal(np.sort_complex(nz), np.sort_complex(nz0))
        _, rep = best_sis(R, 1)
        assert abs(rep.total_error - expected) <= REGRID_TOL


def test_regrid_round_trip_keeps_error():
    F, _ = _two_bumps(4)
    back = regrid_to_lattice(regrid_to_lattice(F, make_lattice([[0.5]])), LAT_Z)
    assert np.allclose(back.energy(), F.energy(), rtol=1e-12)
    _, rep = best_sis(back, 1)
    _, rep0 = best_sis(F, 1)
    assert abs(rep.total_error - rep0.total_error) <= REGRID_TOL * (1.0 + rep0.total_error)


def test_regrid_holds_fewer_than_two_index_tables():
    # m = 3 on 5 x 5 offsets at r = 64: each (|K| r^2, d) int64 table of
    # sample coordinates is 1.6 MB; the re-basis and the half-step lattice
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    rng = np.random.default_rng(68)
    shape = (3, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    table = grid.n_offsets * grid.n_cells * grid.d * 8
    for basis in ([[1.0, 1.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]):
        R, peak = traced_peak(lambda: regrid_to_lattice(F, make_lattice(basis)))
        assert peak < R.values.nbytes + 2 * table


def test_regrid_rejects_incommensurable():
    F, _ = _two_bumps(2)
    with pytest.raises(ValueError, match="integer resolution"):
        regrid_to_lattice(F, make_lattice([[np.pi]]))
    with pytest.raises(ValueError, match="does not match the dataset"):
        regrid_to_lattice(F, make_lattice(np.eye(2)))
    rng = np.random.default_rng(10)
    F2 = _random_dataset(rng, d=2, r=2)
    th = np.pi / 6.0
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    with pytest.raises(ValueError, match="not integer"):
        regrid_to_lattice(F2, make_lattice(rot @ F2.lattice.basis))
