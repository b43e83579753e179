import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak
from pwsis.lattice import make_lattice
from pwsis.spectral import (_SLICE, _abs2)
from pwsis.spectral import (Ball, Box, PWMask, Scene, SpectralDataset,
                            interval, make_grid, project_pw, pw_mask,
                            residual_energy, synthesize)

ENERGY_SPLIT_TOL = 1e-12

LAT_Z = make_lattice([[1.0]])
K3 = [[-1], [0], [1]]


def _two_bumps(r):
    """Two channels supported on [-1, 0) and [1, 2) with heights (1, 2) and
    (-1, 2); their fibers collide in every cell, so no lattice-invariant
    space of one generator fits both."""
    scene = Scene(1)
    scene.add(0, 1.0, interval(-1.0, 0.0))
    scene.add(0, 2.0, interval(1.0, 2.0))
    scene.add(1, -1.0, interval(-1.0, 0.0))
    scene.add(1, 2.0, interval(1.0, 2.0))
    grid = make_grid(LAT_Z, r, K3)
    return synthesize(scene, LAT_Z, grid), grid


def test_grid_cell_weight_and_sizes():
    grid = make_grid(LAT_Z, 4, K3)
    assert grid.cell_weight == 0.25
    assert grid.n_cells == 4 and grid.n_offsets == 3
    half = make_lattice([[0.5]])
    assert make_grid(half, 4, [[0]]).cell_weight == 0.5


def test_grid_cell_weight_out_of_range_rejected():
    import warnings

    # |det basis| = 1e305 is finite, but 1e305 * 64^2 cells overflows
    lat = make_lattice([[1e300, 0.0], [0.0, 1e5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cell weight 0 out of range"):
            make_grid(lat, 64, [[0, 0]])
    assert make_grid(lat, 16, [[0, 0]]).cell_weight > 0.0


def test_grid_offsets_sorted_and_zero_required():
    grid = make_grid(LAT_Z, 1, [[1], [-1], [0]])
    assert np.array_equal(grid.offsets.ravel(), [-1, 0, 1])
    with pytest.raises(ValueError, match="must contain 0"):
        make_grid(LAT_Z, 1, [[1]])
    with pytest.raises(ValueError, match="positive integer"):
        make_grid(LAT_Z, 0, [[0]])


def test_offset_index_lookup():
    grid = make_grid(LAT_Z, 2, K3)
    assert grid.offset_index([-1]) == 0
    with pytest.raises(KeyError):
        grid.offset_index([2])


def test_box_is_half_open():
    box = interval(0.0, 1.0)
    hits = box.contains(np.array([[0.0], [0.5], [1.0]]))
    assert hits.tolist() == [True, True, False]
    with pytest.raises(ValueError, match="lo < hi"):
        Box([0.0], [0.0])


def test_ball_is_open():
    ball = Ball([0.0, 0.0], 1.0)
    hits = ball.contains(np.array([[0.0, 0.0], [1.0, 0.0], [0.999, 0.0]]))
    assert hits.tolist() == [True, False, True]


def test_synthesize_two_bump_fibers():
    F, grid = _two_bumps(1)
    assert F.m == 2
    assert np.array_equal(F.values[0].ravel(), [1, 0, 2])
    assert np.array_equal(F.values[1].ravel(), [-1, 0, 2])
    assert F.energy(0) == 5.0 and F.energy(1) == 5.0


def test_aligned_box_energy_is_exact():
    grid = make_grid(LAT_Z, 2, [[0]])
    scene = Scene(1).add(0, 1.0, interval(0.0, 0.5))
    F = synthesize(scene, LAT_Z, grid)
    assert F.energy(0) == 0.5


def test_modulation_preserves_energy():
    grid = make_grid(LAT_Z, 8, K3)
    plain = synthesize(Scene(1).add(0, 1.0, interval(-1.0, 1.0)), LAT_Z, grid)
    shifted = synthesize(
        Scene(1).add(0, 1.0, interval(-1.0, 1.0), mod=[0.377]), LAT_Z, grid
    )
    assert shifted.energy(0) == pytest.approx(plain.energy(0), abs=1e-14)
    assert np.all(np.abs(np.abs(shifted.values) - np.abs(plain.values)) < 1e-14)


def test_band_too_small_names_offender():
    grid = make_grid(LAT_Z, 2, K3)
    scene = Scene(1).add(0, 1.0, interval(1.5, 2.5))
    with pytest.raises(ValueError, match="band too small"):
        synthesize(scene, LAT_Z, grid)
    # a box ending exactly on the band edge is fine: the edge is excluded
    scene = Scene(1).add(0, 1.0, interval(1.0, 2.0))
    assert synthesize(scene, LAT_Z, grid).energy(0) == 1.0


def test_scene_channel_validation():
    scene = Scene(1)
    with pytest.raises(ValueError, match="channel"):
        scene.add(-1, 1.0, interval(0.0, 1.0))
    scene.add(2, 1.0j, interval(0.0, 1.0))
    assert scene.n_channels == 3


def test_mask_measure_and_complement():
    grid = make_grid(LAT_Z, 4, K3)
    mask = pw_mask(interval(0.0, 1.0), LAT_Z, grid)
    assert mask.measure == 1.0
    assert mask.complement().measure == 2.0
    assert PWMask.full(LAT_Z, grid).measure == 3.0
    assert PWMask.empty(LAT_Z, grid).measure == 0.0


def test_projection_is_idempotent_and_orthogonal():
    F, grid = _two_bumps(4)
    mask = pw_mask(interval(-1.0, 1.0), LAT_Z, grid)
    P = project_pw(F, mask)
    again = project_pw(P, mask)
    assert np.array_equal(P.values, again.values)
    assert np.all(residual_energy(P, mask) == 0.0)
    split = P.energy() + residual_energy(F, mask)
    assert np.allclose(split, F.energy(), rtol=ENERGY_SPLIT_TOL, atol=0.0)


def test_dataset_validation():
    grid = make_grid(LAT_Z, 2, [[0]])
    with pytest.raises(ValueError, match="values must have shape"):
        SpectralDataset(LAT_Z, grid, np.zeros((1, 2, 3), dtype=complex))
    bad = np.full((1, 1, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        SpectralDataset(LAT_Z, grid, bad)


def test_grid_mismatch_rejected():
    F, _ = _two_bumps(2)
    other = make_grid(LAT_Z, 4, K3)
    with pytest.raises(ValueError, match="mismatched grid"):
        project_pw(F, PWMask.full(LAT_Z, other))


@seed(30817)
@given(
    vals=arrays(np.complex128, (2, 3, 4),
                elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                            allow_infinity=False)),
    bits=arrays(np.bool_, (3, 4)),
)
def test_projection_energy_split(vals, bits):
    grid = make_grid(LAT_Z, 4, K3)
    F = SpectralDataset(LAT_Z, grid, vals)
    mask = PWMask(LAT_Z, grid, bits)
    total = project_pw(F, mask).energy() + residual_energy(F, mask)
    assert np.allclose(total, F.energy(), rtol=ENERGY_SPLIT_TOL, atol=0.0)


# ---------------------------------------------------------------------------
# differential checks: support-restricted synthesis and masks against the
# full-grid loops they replaced


def _full_grid_points(grid, k):
    return (grid.cell_vectors() / float(grid.r) + k) @ grid.lattice.dual_basis.T


def _reference_band_error(primitives, lattice, grid):
    """Message of the full-grid band check, or None if the band is wide
    enough: every sample of every hull offset missing from K is tested."""
    from pwsis.spectral import _offset_hull

    for prim in primitives:
        xlo, xhi = _offset_hull(prim, lattice)
        los, his = np.floor(xlo).astype(np.int64), np.floor(xhi).astype(np.int64)
        ranges = [np.arange(los[i], his[i] + 1) for i in range(lattice.d)]
        mesh = np.meshgrid(*ranges, indexing="ij")
        for k in np.stack([m.ravel() for m in mesh], axis=1):
            key = tuple(int(v) for v in k)
            if key in grid._offset_lookup:
                continue
            if np.any(prim.contains(_full_grid_points(grid, k))):
                return "band too small: %r needs offset %s outside the grid" % (prim, key)
    return None


def _reference_synthesize(scene, grid):
    """Every term tested at every sample, offsets outer, terms inner."""
    values = np.zeros((scene.n_channels, grid.n_offsets, grid.n_cells), dtype=np.complex128)
    for ki in range(grid.n_offsets):
        pts = _full_grid_points(grid, grid.offsets[ki])
        for channel, coeff, prim, h in scene.terms:
            hit = np.nonzero(prim.contains(pts))[0]
            if hit.size == 0:
                continue
            if h is None:
                values[channel, ki, hit] += coeff
            else:
                values[channel, ki, hit] += coeff * np.exp(-2j * np.pi * (pts[hit] @ h))
    return values


def _reference_mask_bits(region, grid):
    bits = np.zeros((grid.n_offsets, grid.n_cells), dtype=bool)
    for ki in range(grid.n_offsets):
        pts = _full_grid_points(grid, grid.offsets[ki])
        for prim in region:
            bits[ki] |= prim.contains(pts)
    return bits


def _random_lattice(rng, d):
    kind = rng.integers(4)
    if kind == 0:
        basis = np.eye(d)
    elif kind == 1:  # rotated
        q, rr = np.linalg.qr(rng.standard_normal((d, d)))
        basis = q * np.sign(np.diag(rr))
    elif kind == 2:  # scaled
        basis = np.diag(rng.uniform(0.5, 2.0, d))
    else:  # general, well conditioned
        basis = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    return make_lattice(basis)


def _random_sample_point(rng, grid):
    """A sample point, mostly at an offset away from the band's edge."""
    offsets = grid.offsets
    inner = offsets[np.abs(offsets).max(axis=1) < offsets.max()]
    pool = inner if len(inner) and rng.random() < 0.8 else offsets
    cell = rng.integers(grid.r, size=(1, grid.d))
    return grid.sample_points(cell, pool[rng.integers(len(pool))])[0]


def _random_primitive(rng, grid):
    """A box with its faces through sample points, or a ball, placed so
    that it mostly lies inside the covered band."""
    a = _random_sample_point(rng, grid)
    if rng.random() < 0.5:
        b = a + rng.uniform(-0.7, 0.7, grid.d)
        if rng.random() < 0.5:
            b = _random_sample_point(rng, grid)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return Box(lo, np.where(hi > lo, hi, lo + 1.0 / grid.r))
    if rng.random() < 0.5:  # a sample point lies exactly on the sphere
        radius = float(np.linalg.norm(_random_sample_point(rng, grid) - a))
        if 0.0 < radius < 1.0:
            return Ball(a, radius)
    return Ball(a + rng.uniform(-0.1, 0.1, grid.d), rng.uniform(0.05, 0.6))


def _random_setup(rng, d):
    r = int(rng.integers(1, {1: 17, 2: 9, 3: 5}[d]))
    side = np.arange(-1, 2) if d == 3 or rng.random() < 0.5 else np.arange(-2, 3)
    mesh = np.meshgrid(*([side] * d), indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=1)
    lat = _random_lattice(rng, d)
    grid = make_grid(lat, r, offsets)
    scene = Scene(d)
    for _ in range(int(rng.integers(1, 5))):
        mod = rng.uniform(-2.0, 2.0, d) if rng.random() < 0.4 else None
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        scene.add(int(rng.integers(3)), coeff, _random_primitive(rng, grid), mod=mod)
    return lat, grid, scene


@pytest.mark.parametrize("d", [1, 2, 3])
def test_synthesize_and_mask_match_full_grid(d):
    from pwsis.fibers import gramian_field

    rng = np.random.default_rng(4100 + d)
    n_ok = n_err = 0
    for _ in range(60):
        lat, grid, scene = _random_setup(rng, d)
        prims = [t[2] for t in scene.terms]
        expected_error = _reference_band_error(prims, lat, grid)
        if expected_error is not None:
            with pytest.raises(ValueError) as exc:
                synthesize(scene, lat, grid)
            assert str(exc.value) == expected_error
            with pytest.raises(ValueError) as exc:
                pw_mask(prims, lat, grid)
            assert str(exc.value) == expected_error
            n_err += 1
            continue
        n_ok += 1
        F = synthesize(scene, lat, grid)
        assert np.array_equal(F.values, _reference_synthesize(scene, grid))
        assert np.array_equal(pw_mask(prims, lat, grid).bits, _reference_mask_bits(prims, grid))
        # skipping the offsets a term cannot reach changes no bit
        values, support = _all_offsets_synthesize(scene, lat, grid)
        assert np.array_equal(_bits(F.values), _bits(values))
        assert np.array_equal(F.support, support)
        assert np.array_equal(pw_mask(prims, lat, grid).bits,
                              _all_offsets_mask_bits(prims, lat, grid))

        nonzero = np.flatnonzero(np.any(F.values != 0, axis=(0, 1)))
        assert np.all(np.diff(F.support) > 0)
        assert np.all(np.isin(nonzero, F.support))
        G = gramian_field(F)
        full = gramian_field(SpectralDataset(lat, grid, F.values))
        assert np.array_equal(G.active_idx, full.active_idx)
        assert np.array_equal(G.mats, full.mats)
        assert np.array_equal(G.trace, full.trace)
    assert n_ok >= 30 and n_err >= 1


def test_band_too_small_names_rotated_offender():
    lat = make_lattice([[0.6, -0.8], [0.8, 0.6]])
    grid = make_grid(lat, 6, [[0, 0], [0, 1], [1, 0], [1, 1]])
    ok = Ball(lat.dual_basis @ [1.0, 1.0], 0.3)
    bad = Ball(lat.dual_basis @ [2.2, 0.5], 0.3)
    expected = _reference_band_error([ok, bad], lat, grid)
    assert expected is not None and expected.startswith("band too small: ball")
    scene = Scene(2).add(0, 1.0, ok).add(1, 1.0, bad)
    with pytest.raises(ValueError) as exc:
        synthesize(scene, lat, grid)
    assert str(exc.value) == expected


def _held_offsets(prim, lat, r):
    """Every offset of prim's hull, in C order, where a sample point lands
    inside prim."""
    from pwsis.spectral import _offset_hull

    grid = make_grid(lat, r, [[0] * lat.d])
    ranges = [np.arange(np.floor(a), np.floor(b) + 1) for a, b in zip(*_offset_hull(prim, lat))]
    mesh = np.meshgrid(*ranges, indexing="ij")
    keys = np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)
    return keys[[bool(np.any(prim.contains(_full_grid_points(grid, k)))) for k in keys]]


_ROTATION = [[0.6, -0.8], [0.8, 0.6]]


@pytest.mark.parametrize("basis, r, prim", [
    # off the lattice axes: x0 in [0, 120], x1 in [-160, 0.6]
    (_ROTATION, 6, Box([0.0, 0.0], [200.0, 1.0])),
    ([[1.0]], 4, interval(0.3, 150.2)),
    ([[1.0, 0.4], [0.0, 1.1]], 3, Ball([5.0, -3.0], 40.0)),
    ([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]], 2,
     Box([0.0, 0.0, 0.0], [100.0, 0.7, 0.7])),
])
def test_band_check_of_a_long_hull_matches_the_full_grid_check(basis, r, prim):
    # hulls of more than 65 values in a coordinate; K is 0 and every offset
    # where prim has a sample, all of them but the last or the first in C
    # order, or the 3^d offsets around the one of prim's center
    lat = make_lattice(basis)

    def grid_of(offsets):
        return make_grid(lat, r, np.unique(np.vstack([offsets, np.zeros((1, lat.d))]), axis=0))

    held = _held_offsets(prim, lat, r)
    assert np.ptp(held, axis=0).max() > 65
    center = prim.center if isinstance(prim, Ball) else (prim.lo + prim.hi) / 2
    mesh = np.meshgrid(*([np.arange(-1, 2)] * lat.d), indexing="ij")
    around = np.floor(center @ lat.basis).astype(np.int64) + np.stack(
        [m.ravel() for m in mesh], axis=1)
    for offsets in (held, held[:-1], held[1:], around):
        grid = grid_of(offsets)
        expected = _reference_band_error([prim], lat, grid)
        scene = Scene(lat.d).add(0, 1.0, prim)
        if expected is None:
            assert np.array_equal(synthesize(scene, lat, grid).values,
                                  _reference_synthesize(scene, grid))
            assert np.array_equal(pw_mask([prim], lat, grid).bits,
                                  _reference_mask_bits([prim], grid))
            continue
        for check in (lambda: synthesize(scene, lat, grid), lambda: pw_mask([prim], lat, grid)):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == expected
    assert _reference_band_error([prim], lat, grid_of(held)) is None
    assert _reference_band_error([prim], lat, grid_of(around)) is not None


def test_rotated_ball_hull_is_exact_and_its_band_check_walks_one_row(monkeypatch):
    from pwsis import spectral

    lat = make_lattice(_ROTATION)
    ball = Ball([0.0, 0.0], 300.0)
    lo, hi = spectral._offset_hull(ball, lat)
    assert np.allclose(lo, [-300.0, -300.0]) and np.allclose(hi, [300.0, 300.0])
    # on K = {0} the first offender is in the hull's first row, reached
    # after 280 offsets; the hull of the ball's bounding box began 120 rows
    # (about 100,000 offsets) further out
    calls = []
    candidates = spectral._candidate_cells
    monkeypatch.setattr(spectral, "_candidate_cells",
                        lambda *a: calls.append(a) or candidates(*a))
    with pytest.raises(ValueError) as exc:
        pw_mask([ball], lat, make_grid(lat, 4, [[0, 0]]))
    assert str(exc.value) == ("band too small: ball(center=[0.0, 0.0], radius=300) needs "
                              "offset (-300, -21) outside the grid")
    assert len(calls) <= 601


def test_band_check_of_a_huge_primitive_lists_no_hull():
    # interval(-1e6, 1e6) on K = {0}: its first hull offset is the offender,
    # found without a list of the 2,000,001 hull offsets (61 MiB traced)
    grid = make_grid(LAT_Z, 4, [0])
    scene = Scene(1).add(0, 1.0, interval(-1e6, 1e6))

    def check():
        with pytest.raises(ValueError) as exc:
            synthesize(scene, LAT_Z, grid)
        return str(exc.value)

    message, peak = traced_peak(check)
    assert message == ("band too small: interval [-1e+06, 1e+06) needs offset (-1000000,) "
                       "outside the grid")
    assert peak < 2 ** 20


def test_support_follows_cell_preserving_operations():
    from pwsis.fibers import dilation_transport

    F, grid = _two_bumps(4)
    assert F.support.tolist() == [0, 1, 2, 3]
    narrow = synthesize(Scene(1).add(0, 1.0, interval(0.25, 0.5)), LAT_Z, grid)
    assert narrow.support.tolist() == [1]
    assert not narrow.support.flags.writeable
    mask = pw_mask(interval(-1.0, 1.0), LAT_Z, grid)
    for G in (F.select_channels([1]), project_pw(F, mask),
              dilation_transport(F, [[2.0]])):
        assert np.array_equal(G.support, F.support)
    assert SpectralDataset(LAT_Z, grid, F.values).support is None


def _all_offsets_synthesize(scene, lattice, grid):
    """The synthesis loop before offsets were skipped: every offset, then
    every term, each tested on its candidate cells."""
    from pwsis.spectral import _candidate_cells, _offset_hull

    values = np.zeros((scene.n_channels, grid.n_offsets, grid.n_cells), dtype=np.complex128)
    touched = np.zeros(grid.n_cells, dtype=bool)
    hulls = [_offset_hull(t[2], lattice) for t in scene.terms]
    for ki in range(grid.n_offsets):
        for (channel, coeff, prim, h), hull in zip(scene.terms, hulls):
            cells, pts = _candidate_cells(hull, grid, grid.offsets[ki])
            inside = prim.contains(pts)
            hit = cells[inside]
            touched[hit] = True
            if h is None:
                values[channel, ki, hit] += coeff
            else:
                values[channel, ki, hit] += coeff * np.exp(-2j * np.pi * (pts[inside] @ h))
    return values, np.flatnonzero(touched)


def _all_offsets_mask_bits(region, lattice, grid):
    from pwsis.spectral import _candidate_cells, _offset_hull

    bits = np.zeros((grid.n_offsets, grid.n_cells), dtype=bool)
    for ki in range(grid.n_offsets):
        for prim in region:
            cells, pts = _candidate_cells(_offset_hull(prim, lattice), grid, grid.offsets[ki])
            bits[ki, cells[prim.contains(pts)]] = True
    return bits


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_overlapping_modulated_terms_add_in_scene_order():
    # three terms on the same samples, one modulated, on 5 x 5 offsets of
    # which the terms reach a few: the sum at each sample is taken in scene
    # order, as the all-offsets loop takes it
    lat = make_lattice([[1.0, 0.3], [-0.2, 0.9]])
    grid = make_grid(lat, 7, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    scene = Scene(2)
    scene.add(0, 0.1 + 0.7j, Box([0.0, 0.0], [1.3, 0.9]))
    scene.add(0, 1e-17 - 3.0j, Ball([0.6, 0.5], 0.45), mod=[0.25, -1.5])
    scene.add(0, -0.1 - 0.7j, Box([0.1, -0.4], [1.0, 0.6]))
    scene.add(1, 2.5, Ball([-0.5, 0.2], 0.3))
    F = synthesize(scene, lat, grid)
    values, support = _all_offsets_synthesize(scene, lat, grid)
    assert np.array_equal(_bits(F.values), _bits(values))
    assert np.array_equal(F.support, support)
    prims = [t[2] for t in scene.terms]
    assert np.array_equal(pw_mask(prims, lat, grid).bits,
                          _all_offsets_mask_bits(prims, lat, grid))


def _dense_synthesize(scene, lattice, grid):
    """synthesize as it was before pair storage: every term's additions
    applied in scene order to the dense array.  Returns (values, support)."""
    from pwsis.spectral import _candidate_cells, _offset_hull, _reached_offsets

    values = np.zeros((scene.n_channels, grid.n_offsets, grid.n_cells), dtype=np.complex128)
    touched = np.zeros(grid.n_cells, dtype=bool)
    for channel, coeff, prim, h in scene.terms:
        hull = _offset_hull(prim, lattice)
        for ki in _reached_offsets(hull, grid):
            cells, pts = _candidate_cells(hull, grid, grid.offsets[ki])
            inside = prim.contains(pts)
            hit = cells[inside]
            if hit.size == 0:
                continue
            touched[hit] = True
            if h is None:
                values[channel, ki, hit] += coeff
            else:
                phase = np.exp(-2j * np.pi * (pts[inside] @ h))
                values[channel, ki, hit] += coeff * phase
    return values, np.flatnonzero(touched)


def _small_primitive(rng, lat, d):
    """A small ball or box inside the band of offsets -2..2."""
    center = lat.dual_basis @ rng.uniform(-1.0, 2.0, d)
    if rng.random() < 0.5:
        return Ball(center, rng.uniform(0.01, 0.2))
    half = rng.uniform(0.005, 0.15, d)
    return Box(center - half, center + half)


def _rotated(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _sparse_scene(rng, d, rotated):
    """A scene of a few small modulated and plain terms on a fine grid, so
    that synthesize stores it as pairs: d = 1 on a unit or scaled step, d = 2
    on the identity or a rotated lattice."""
    if d == 1:
        lat = make_lattice([[1.0]] if not rotated else [[rng.uniform(0.6, 1.4)]])
        r = int(rng.integers(150, 400))
    else:
        lat = make_lattice(_rotated(rng.uniform(0.1, 1.4) if rotated else 0.0))
        r = int(rng.integers(40, 72))
    side = np.arange(-2, 3)
    offsets = np.stack([m.ravel() for m in np.meshgrid(*([side] * d), indexing="ij")], axis=1)
    grid = make_grid(lat, r, offsets)
    scene = Scene(d)
    for _ in range(int(rng.integers(1, 6))):
        mod = rng.uniform(-3.0, 3.0, d) if rng.random() < 0.5 else None
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        scene.add(int(rng.integers(3)), coeff, _small_primitive(rng, lat, d), mod=mod)
    return lat, grid, scene


def _assert_pairs_match_dense(F, lat, grid, scene, rng):
    """F, stored as pairs, against the dense reference: its fibers (on its
    support, a contiguous run and scattered cells, with and without band
    bits), its Gramians and cut, every energy, the group solve, the regrid
    and the symmetrization, and then its values and support."""
    from pwsis.fibers import (_dataset_blocks, fiber, gramian_field, regrid_to_lattice,
                              symmetrize)
    from pwsis.lattice import Lattice, make_group
    from pwsis.omega import energy_density
    from pwsis.solver import _eigen_cut, _lattice_cut, best_gamma

    values, support = _dense_synthesize(scene, lat, grid)
    D = SpectralDataset(lat, grid, values, check_finite=False, support=support)
    assert F._pairs is not None and F.m == D.m
    assert np.array_equal(F.support, support)
    start = int(support[0]) if len(support) else 0
    runs = [support, np.arange(start, min(start + 40, grid.n_cells)),
            np.flatnonzero(rng.random(grid.n_cells) < 0.3)]
    region = [_small_primitive(rng, lat, grid.d) for _ in range(2)]
    mask = pw_mask(region, lat, grid)
    for A, B in ((F, D), (project_pw(F, mask), project_pw(D, mask))):
        for c in runs:
            if len(c):
                assert np.array_equal(_bits(A._fibers(c)), _bits(B._fibers(c)))
    G, H = gramian_field(F), gramian_field(D)
    assert np.array_equal(G.active_idx, H.active_idx)
    assert np.array_equal(_bits(G.mats), _bits(H.mats))
    assert np.array_equal(_bits(G.trace), _bits(H.trace))
    cut, ref = _eigen_cut(*_dataset_blocks(F), 1), _eigen_cut(*_dataset_blocks(D), 1)
    assert np.array_equal(_bits(cut.eigenvalues), _bits(ref.eigenvalues))
    assert np.array_equal(_bits(cut.vectors), _bits(ref.vectors))

    assert F.energy().tobytes() == D.energy().tobytes()
    assert project_pw(F, mask).energy().tobytes() == project_pw(D, mask).energy().tobytes()
    assert residual_energy(F, mask).tobytes() == residual_energy(D, mask).tobytes()
    assert energy_density(F).phi.tobytes() == energy_density(D).phi.tobytes()
    for cell in rng.integers(grid.n_cells, size=3):
        for i in range(F.m):
            assert fiber(F, i, cell).entries.tobytes() == fiber(D, i, cell).entries.tobytes()

    # offsets -2..2 in every coordinate: closed under D4 (d = 2) and -1
    gens = [np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])] if grid.d == 2 \
        else [-np.eye(1, dtype=int)]
    group = make_group(gens)
    (model, rep), (want, wrep) = best_gamma(F, group, 1), best_gamma(D, group, 1)
    assert np.array_equal(model.active_idx, want.active_idx)
    assert np.array_equal(_bits(model.basis), _bits(want.basis))
    assert np.array_equal(model.dims, want.dims)
    assert rep.per_channel.tobytes() == wrep.per_channel.tobytes()
    assert rep.density.tobytes() == wrep.density.tobytes()
    assert symmetrize(F, group).values.tobytes() == symmetrize(D, group).values.tobytes()

    half = Lattice(lat.basis / 2)
    fine, want = _lattice_cut(F, half)(1), _lattice_cut(D, half)(1)
    assert fine.error == want.error and fine.length == want.length
    assert fine.density.tobytes() == want.density.tobytes()
    assert regrid_to_lattice(F, half).values.tobytes() == \
        regrid_to_lattice(D, half).values.tobytes()
    # every reader above read the pairs; values is built only now
    assert F._values is None
    assert np.array_equal(_bits(F.values), _bits(values))
    assert not F.values.flags.writeable and F.values is F.values


@pytest.mark.parametrize("d, rotated", [(1, False), (1, True), (2, False), (2, True)])
def test_pair_storage_matches_dense_synthesis(d, rotated):
    rng = np.random.default_rng([4200, d, rotated])
    for _ in range(12):
        lat, grid, scene = _sparse_scene(rng, d, rotated)
        _assert_pairs_match_dense(synthesize(scene, lat, grid), lat, grid, scene, rng)


def test_pair_storage_keeps_the_order_of_many_overlapping_terms():
    # twelve modulated terms of very different sizes on nested balls of one
    # channel, and a box: most samples take more than 8 additions, where a
    # sum of them by np.add.reduceat (pairwise) changes bits
    from pwsis.spectral import _offset_hull, _term_samples

    rng = np.random.default_rng(4300)
    R = _rotated(0.4)
    lat = make_lattice(R)
    grid = make_grid(lat, 64, [[a, b] for a in range(-1, 2) for b in range(-1, 2)])
    scene = Scene(2)
    center = R @ np.array([0.5, 0.5])
    for j in range(12):
        coeff = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** rng.integers(-8, 9)
        scene.add(0, coeff, Ball(center, 0.3 - 0.005 * j), mod=rng.uniform(-3.0, 3.0, 2))
    scene.add(0, 1.0, Box(center - 0.05, center + 0.05))
    scene.add(1, 2.0, Ball(center, 0.1))
    F = synthesize(scene, lat, grid)
    _assert_pairs_match_dense(F, lat, grid, scene, rng)

    hulls = [_offset_hull(t[2], lat) for t in scene.terms]
    keys, adds = [], []
    for channel, ki, hit, add in _term_samples(scene, hulls, grid):
        if channel == 0:
            keys.append(ki * grid.n_cells + hit)
            adds.append(np.broadcast_to(add, hit.shape))
    keys, adds = np.concatenate(keys), np.concatenate(adds)
    order = np.argsort(keys, kind="stable")
    uniq, first, count = np.unique(keys[order], return_index=True, return_counts=True)
    assert np.count_nonzero(count > 8) > 100
    chained = F._stored[0, np.searchsorted(F._pairs[0], uniq)]
    assert np.array_equal(_bits(chained), _bits(F.values[0].ravel()[uniq]))
    regrouped = np.add.reduceat(adds[order], first)
    assert not np.array_equal(_bits(regrouped), _bits(chained))


def test_dense_storage_where_pairs_are_not_smaller():
    # a band mostly covered: the bound keeps the dense array, today's route
    grid = make_grid(LAT_Z, 8, K3)
    F = synthesize(Scene(1).add(0, 1.0, interval(-1.0, 2.0)), LAT_Z, grid)
    assert F._pairs is None and F._stored is F.values
    sparse = make_grid(LAT_Z, 1000, K3)
    G = synthesize(Scene(1).add(0, 1.0, interval(0.25, 0.26)), LAT_Z, sparse)
    assert G._pairs is not None and G._stored.shape == (1, 10)
    assert G.support.tolist() == list(range(250, 260))
    empty = synthesize(Scene(1), LAT_Z, sparse)
    assert empty.m == 0 and empty.values.shape == (0, 3, 1000)


def _band_twin(F, bits):
    """project_pw(F, mask) as it was: F's values copied, zeroed off bits."""
    return SpectralDataset(F.lattice, F.grid, np.where(bits, F.values, 0.0),
                           check_finite=False, support=F.support)


def _assert_band_matches_its_copy(F, m1, m2, group, rng):
    """project_pw(F, m1) and the nested project_pw(project_pw(F, m1), m2)
    against their dense copies, bit for bit: _take at positions with
    negatives (also into out), _fibers at contiguous and scattered cells,
    _squares, energy, symmetrize, format_dataset and then values."""
    from pwsis.fibers import symmetrize
    from pwsis.textio import format_dataset

    grid = F.grid
    n = grid.n_offsets * grid.n_cells
    idx = rng.integers(-3, n, size=(5, 13))
    idx[0, :3] = -1
    start = int(rng.integers(grid.n_cells))
    runs = [np.arange(grid.n_cells), np.arange(start, min(start + 9, grid.n_cells)),
            np.flatnonzero(rng.random(grid.n_cells) < 0.3)]
    P = project_pw(F, m1)
    for B, D in ((P, _band_twin(F, m1.bits)),
                 (project_pw(P, m2), _band_twin(F, m1.bits & m2.bits))):
        assert B.m == D.m and B.support is F.support
        assert np.array_equal(_bits(B._take(idx)), _bits(D._take(idx)))
        out = np.full((B.m,) + idx.shape, np.nan, dtype=np.complex128)
        assert B._take(idx, out) is out
        assert np.array_equal(_bits(out), _bits(D._take(idx)))
        for c in runs:
            if len(c):
                assert np.array_equal(_bits(B._fibers(c)), _bits(D._fibers(c)))
        for i in range(B.m):
            assert B._squares(i).tobytes() == D._squares(i).tobytes()
        assert B.energy().tobytes() == D.energy().tobytes()
        if group is not None:
            assert symmetrize(B, group).values.tobytes() == \
                symmetrize(D, group).values.tobytes()
        assert format_dataset(B) == format_dataset(D)
        assert B._values is None
        assert np.array_equal(_bits(B.values), _bits(D.values))
        assert not B.values.flags.writeable and B.values is B.values


def test_band_dataset_matches_its_dense_copy():
    from pwsis.lattice import make_group

    rng = np.random.default_rng(4400)
    d4 = make_group([np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])])
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 6, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    cases = []
    for m in (0, 1, 3):
        shape = (m, grid.n_offsets, grid.n_cells)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        support = np.flatnonzero(rng.random(grid.n_cells) < 0.5)
        dead = np.zeros_like(vals)
        dead[:, :, support] = vals[:, :, support]
        cases += [(SpectralDataset(lat, grid, vals), d4),
                  (SpectralDataset(lat, grid, dead, support=support), d4)]
    for d, rotated in ((1, False), (2, True)):
        for _ in range(3):
            slat, sgrid, scene = _sparse_scene(rng, d, rotated)
            F = synthesize(scene, slat, sgrid)
            assert F._pairs is not None
            # offsets -2..2 in every coordinate are closed under D4
            cases.append((F, d4 if d == 2 else None))
    for F, group in cases:
        masks = [PWMask(F.lattice, F.grid, rng.random((F.grid.n_offsets, F.grid.n_cells))
                        < p) for p in (0.0, 0.5, 1.0, 0.7)]
        for m1, m2 in ((masks[1], masks[3]), (masks[0], masks[2]), (masks[2], masks[1])):
            _assert_band_matches_its_copy(F, m1, m2, group, rng)


def test_project_pw_copies_no_samples():
    # m = 6 on 3 x 3 offsets at r = 64: 3.4 MiB of values, which the
    # dense copy of the band duplicated
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    rng = np.random.default_rng(4401)
    shape = (6, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    mask = PWMask(lat, grid, rng.random(shape[1:]) < 0.5)
    P, peak = traced_peak(lambda: project_pw(F, mask))
    assert P.m == 6 and peak < 0.5 * 2 ** 20

def _energy_cases():
    """Datasets whose channels span less than, exactly and more than one
    slice of _abs2, with masks empty, full and random."""
    rng = np.random.default_rng(31)
    lat = make_lattice(np.eye(2))
    for m, r, n_off in ((2, 5, 3), (1, 64, 2), (3, 48, 5)):
        offsets = [[k, 0] for k in range(n_off)]
        grid = make_grid(lat, r, offsets)
        shape = (m, grid.n_offsets, grid.n_cells)
        F = SpectralDataset(lat, grid, rng.standard_normal(shape) * 10.0 ** rng.integers(
            -3, 4, size=shape) + 1j * rng.standard_normal(shape))
        for bits in (np.zeros(shape[1:], dtype=bool), np.ones(shape[1:], dtype=bool),
                     rng.random(shape[1:]) < 0.5):
            yield F, PWMask(lat, grid, bits)


def test_energies_keep_the_bits_of_the_whole_array_sums():
    # each channel's |v|^2 is built into one array, the squared imaginary
    # parts added a slice at a time, and summed whole: the bits of
    # _abs2(values[i]).sum(), and in a band those of project_pw's energy
    for F, mask in _energy_cases():
        w = F.grid.cell_weight
        for i in range(F.m):
            v = F.values[i]
            assert _abs2(v).tobytes() == (v.real ** 2 + v.imag ** 2).tobytes()
            assert F.energy(i) == _abs2(v).sum() * w
        for bits, energy in ((mask.bits, project_pw(F, mask).energy()),
                             (~mask.bits, residual_energy(F, mask))):
            copy = SpectralDataset(F.lattice, F.grid, np.where(bits, F.values, 0.0))
            assert energy.tobytes() == copy.energy().tobytes()


def test_energies_hold_one_channel_array():
    # one channel of 2 x 128^2 samples: its |v|^2 is 256 KiB; energy held
    # two arrays of that size and the band energy three
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 128, [[0, 0], [1, 0]])
    rng = np.random.default_rng(32)
    shape = (3, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    band = project_pw(F, PWMask(lat, grid, rng.random(shape[1:]) < 0.5))
    channel = 8 * grid.n_offsets * grid.n_cells
    for energy in (F.energy, band.energy):
        _, peak = traced_peak(energy)
        assert peak < 1.5 * channel


def _square_scene_of_example_65(monkeypatch):
    """Example 6.5's square-lattice scene at r = 250, synthesized: 5
    channels on 25 x 250^2 samples, 125 MB dense, stored as about a
    thousand pairs."""
    from pwsis import examples

    scenes = []

    def capture(scene, lat, r, offsets):
        scenes.append((scene, lat, make_grid(lat, r, offsets)))
        return 1.0, 1

    monkeypatch.setattr(examples, "_one_generator", capture)
    examples._ex_rotated_beats_square(250, 0.1)
    scene, lat, grid = scenes[0]
    assert np.array_equal(lat.basis, np.eye(2)) and grid.n_offsets == 25
    F = synthesize(scene, lat, grid)
    assert F._pairs is not None and F.m == 5
    return F


def test_energy_of_a_pair_scene_holds_one_float_channel(monkeypatch):
    # energy() builds one float channel of |v|^2 (12.5 MB) at a time
    F = _square_scene_of_example_65(monkeypatch)
    energy, peak = traced_peak(F.energy)
    assert peak < 16 * 2 ** 20
    assert F._values is None
    assert energy.tobytes() == np.array([_abs2(v).sum() * F.grid.cell_weight
                                         for v in F.values]).tobytes()


def test_pair_scene_is_selected_and_written_without_its_dense_values(monkeypatch, tmp_path):
    # select_channels keeps the pairs, and write_dataset reads a chunk at a
    # time: building the dense values took 143.1 MB and 119.3 MB traced
    import filecmp

    from pwsis.textio import write_dataset

    F = _square_scene_of_example_65(monkeypatch)
    G, peak = traced_peak(lambda: F.select_channels([3, 0]))
    assert peak < 16 * 2 ** 20
    assert G._pairs is not None and G.m == 2 and np.array_equal(G.support, F.support)
    _, peak = traced_peak(lambda: write_dataset(F, tmp_path / "pairs.dataset"))
    assert peak < 16 * 2 ** 20
    assert F._values is None and G._values is None
    assert np.array_equal(_bits(G.values), _bits(F.values[[3, 0]]))
    write_dataset(SpectralDataset(F.lattice, F.grid, F.values), tmp_path / "dense.dataset")
    assert filecmp.cmp(tmp_path / "pairs.dataset", tmp_path / "dense.dataset", shallow=False)


def _layouts(rng, n):
    """Complex arrays of about n entries in the layouts _abs2 meets: C- and
    Fortran-ordered, strided, an einsum output and no channels."""
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    yield draw(n)
    yield draw(3, 5, n // 15 + 1)
    yield np.asfortranarray(draw(4, n // 4 + 1))
    yield draw(2, n + 3, 2)[:, ::2, 1]
    yield draw(3, 4, n // 12 + 1).transpose(2, 0, 1)
    yield np.einsum("cjk,ikc->cij", draw(n // 6 + 1, 2, 3), draw(3, 3, n // 6 + 1))
    yield draw(0, 3, n)


@pytest.mark.parametrize("n", [_SLICE - 5, _SLICE, _SLICE + 7, 3 * _SLICE + 1])
def test_abs2_keeps_the_bits_of_the_two_squares_in_every_layout(n):
    rng = np.random.default_rng(n)
    for v in _layouts(rng, n):
        got = _abs2(v)
        assert got.shape == v.shape and got.flags.c_contiguous
        assert got.tobytes() == (v.real ** 2 + v.imag ** 2).tobytes()
