import itertools

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pwsis.lattice import make_group, make_lattice, orbit_partition
from pwsis.omega import (_exact_fill_knapsack, best_omega, best_omega_invariant,
                         energy_density, omega_duality_check)
from pwsis.spectral import SpectralDataset, make_grid

DUALITY_TOL = 1e-10
BRUTE_TOL = 1e-12

LAT_Z = make_lattice([[1.0]])
K3 = [[-1], [0], [1]]
C4 = make_group([np.array([[0, -1], [1, 0]])])


def _dataset_from_phi(phi):
    """One-channel dataset whose density field is exactly phi (real sqrt)."""
    grid = make_grid(LAT_Z, phi.shape[1], [[0]] if phi.shape[0] == 1 else K3)
    vals = np.sqrt(phi)[None].astype(complex)
    return SpectralDataset(LAT_Z, grid, vals), grid


def test_energy_density_total():
    rng = np.random.default_rng(21)
    grid = make_grid(LAT_Z, 3, K3)
    shape = (2, 3, 3)
    F = SpectralDataset(LAT_Z, grid,
                        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert energy_density(F).total() == pytest.approx(float(F.energy().sum()), rel=1e-14)


def test_best_omega_picks_top_boxes():
    F, grid = _dataset_from_phi(np.array([[9.0, 1.0, 9.0, 4.0]]))
    mask, attained = best_omega(energy_density(F), 2 * grid.cell_weight)
    assert mask.bits.ravel().tolist() == [True, False, True, False]
    assert attained == pytest.approx(18.0 * grid.cell_weight, abs=0)


def test_best_omega_breaks_ties_toward_small_index():
    F, grid = _dataset_from_phi(np.array([[9.0, 9.0, 1.0, 9.0]]))
    mask, _ = best_omega(energy_density(F), 2 * grid.cell_weight)
    assert mask.bits.ravel().tolist() == [True, True, False, False]


def _argsort_best_omega(density, measure):
    """best_omega by a stable descending argsort, the reference for the
    partition route: its first n entries, ascending, and their sum."""
    grid = density.grid
    n = int(round(measure / grid.cell_weight))
    flat = density.phi.ravel()
    sel = np.sort(np.argsort(-flat, kind="stable")[:n])
    return sel, float(flat[sel].sum() * grid.cell_weight)


def test_best_omega_matches_the_argsort_selection():
    # heavy ties (a few distinct levels, -0.0 among the zeros), all equal,
    # all zero, random, and every n from 0 to the total: the same boxes
    # and the same attained bits as the stable argsort
    from pwsis.omega import DensityField

    rng = np.random.default_rng(57)
    grid = make_grid(LAT_Z, 40, K3)
    shape = (grid.n_offsets, grid.n_cells)
    levels = np.array([0.0, -0.0, 1.0, 2.5, 1e-300, 7.0])
    fields = [levels[rng.integers(len(levels), size=shape)], np.full(shape, 3.25),
              np.zeros(shape), rng.random(shape), rng.integers(3, size=shape) * 0.1]
    for phi in fields:
        density = DensityField(LAT_Z, grid, phi)
        for n in range(phi.size + 1):
            measure = n * grid.cell_weight
            mask, attained = best_omega(density, measure)
            sel, want = _argsort_best_omega(density, measure)
            assert np.array_equal(np.flatnonzero(mask.bits), sel)
            assert attained == want


def test_best_omega_matches_exhaustive():
    rng = np.random.default_rng(22)
    grid = make_grid(LAT_Z, 2, K3)
    shape = (2, 3, 2)
    F = SpectralDataset(LAT_Z, grid,
                        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    density = energy_density(F)
    flat = density.phi.ravel()
    w = grid.cell_weight
    for n in range(7):
        _, attained = best_omega(density, n * w)
        brute = max((flat[list(combo)].sum() * w if combo else 0.0)
                    for combo in itertools.combinations(range(6), n))
        assert abs(attained - brute) <= BRUTE_TOL * (1.0 + brute)


def test_best_omega_measure_validation():
    F, grid = _dataset_from_phi(np.array([[1.0, 2.0, 3.0, 4.0]]))
    density = energy_density(F)
    with pytest.raises(ValueError, match="not grid-representable"):
        best_omega(density, 0.3 * grid.cell_weight)
    with pytest.raises(ValueError, match="outside the representable range"):
        best_omega(density, -grid.cell_weight)
    with pytest.raises(ValueError, match="outside the representable range"):
        best_omega(density, 5 * grid.cell_weight)
    # non-finite measures, and a finite one whose box count overflows
    for measure in (np.inf, -np.inf, np.nan, np.float64(1e308)):
        with pytest.raises(ValueError, match="^measure %s outside the representable range"
                                             % ("%.12g" % measure).replace("+", "\\+")):
            best_omega(density, measure)


def _c4_dataset(rng, r=3):
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, r, [[0, 0]])
    shape = (2, 1, grid.n_cells)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralDataset(lat, grid, vals), grid


def test_invariant_mask_is_group_fixed():
    rng = np.random.default_rng(23)
    F, grid = _c4_dataset(rng)
    mask, attained = best_omega_invariant(energy_density(F), C4, 5 * grid.cell_weight)
    part = orbit_partition(grid, C4)
    flat = mask.bits.ravel()
    for orbit in part.orbits:
        assert flat[orbit].all() or not flat[orbit].any()
    assert abs(mask.measure - 5 * grid.cell_weight) <= 1e-15
    _, free = best_omega(energy_density(F), 5 * grid.cell_weight)
    assert attained <= free + BRUTE_TOL * (1.0 + free)


def test_invariant_unreachable_measure_lists_neighbors():
    rng = np.random.default_rng(24)
    F, grid = _c4_dataset(rng)
    # orbit sizes on the 3x3 torus under C4 are {1, 4, 4}
    with pytest.raises(ValueError, match="union of whole orbits") as exc:
        best_omega_invariant(energy_density(F), C4, 2 * grid.cell_weight)
    msg = str(exc.value)
    assert "%.12g" % (1 * grid.cell_weight) in msg
    assert "%.12g" % (4 * grid.cell_weight) in msg


def test_omega_duality_two_routes_agree(monkeypatch):
    from pwsis import omega

    builds = []

    def counting_partition(*args, **kwargs):
        builds.append(args)
        return orbit_partition(*args, **kwargs)

    # both routes read one partition
    monkeypatch.setattr(omega, "orbit_partition", counting_partition)
    rng = np.random.default_rng(25)
    for _ in range(10):
        F, grid = _c4_dataset(rng, r=4)
        total = energy_density(F).total()
        for n in (0, 4, 8, 16):
            builds.clear()
            left, right = omega_duality_check(F, C4, n * grid.cell_weight)
            assert abs(left - right) <= DUALITY_TOL * (1.0 + total)
            assert len(builds) == 1


@seed(50817)
@given(
    phi=arrays(np.float64, (12,), elements=st.floats(0.0, 1e6)),
    n=st.integers(0, 12),
    pick=st.lists(st.integers(0, 11), min_size=0, max_size=12, unique=True),
)
def test_best_omega_dominates_any_equal_measure_mask(phi, n, pick):
    F, grid = _dataset_from_phi(phi[None])
    density = energy_density(F)
    _, attained = best_omega(density, n * grid.cell_weight)
    rival = [i for i in pick[:n]]
    rival_energy = float(density.phi.ravel()[rival].sum() * grid.cell_weight)
    if len(rival) == n:
        assert attained >= rival_energy - BRUTE_TOL * (1.0 + rival_energy)


def _reference_knapsack(values, weights, capacity):
    """The tuple-carrying dict DP that the array knapsack replaced; kept as
    the reference for value and selection, ties included."""
    groups = {}
    for idx, (v, s) in enumerate(zip(values, weights)):
        groups.setdefault(int(s), []).append((-(v), idx))
    states = {0: (0.0, ())}
    for size in sorted(groups):
        items = sorted(groups[size])
        vals = [-nv for nv, _ in items]
        ids = [idx for _, idx in items]
        prefix = [0.0]
        for v in vals:
            prefix.append(prefix[-1] + v)
        new = {}
        for used in sorted(states):
            base_val, base_sel = states[used]
            for j in range(len(vals) + 1):
                u2 = used + j * size
                if u2 > capacity:
                    break
                cand = base_val + prefix[j]
                if u2 not in new or cand > new[u2][0]:
                    new[u2] = (cand, base_sel + tuple(ids[:j]))
        states = new
    if capacity not in states:
        return None, None
    val, sel = states[capacity]
    return val, sorted(sel)


def _knapsack_instance(rng):
    n = int(rng.integers(0, 25))
    pool = rng.choice([1, 2, 3, 4, 6, 8], size=int(rng.integers(1, 7)), replace=False)
    sizes = rng.choice(pool, size=n)
    kind = rng.integers(3)
    if kind == 0:  # integer values: many exact ties
        values = rng.integers(0, 4, size=n).astype(float)
    elif kind == 1:  # zeros mixed with reals
        values = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
    else:
        values = rng.standard_normal(n) ** 2
    capacity = int(rng.integers(0, int(sizes.sum()) + 4))
    return values, sizes.astype(np.int64), capacity


def test_exact_fill_knapsack_matches_reference():
    rng = np.random.default_rng(52)
    unreachable = 0
    for _ in range(600):
        values, sizes, capacity = _knapsack_instance(rng)
        got = _exact_fill_knapsack(values, sizes, capacity)
        want = _reference_knapsack(values, sizes, capacity)
        assert got == want
        unreachable += want[0] is None
    assert unreachable > 20


def test_omega_duality_with_tied_orbits():
    # integer magnitudes on a C4-symmetric torus: many orbits tie exactly
    rng = np.random.default_rng(53)
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 6, [[0, 0]])
    vals = rng.integers(0, 3, size=(1, 1, grid.n_cells)).astype(complex)
    F = SpectralDataset(lat, grid, vals)
    total = energy_density(F).total()
    for n in (0, 1, 4, 5, 8, 12, 17, 36):
        left, right = omega_duality_check(F, C4, n * grid.cell_weight)
        assert abs(left - right) <= DUALITY_TOL * (1.0 + total)


def _loop_invariant_mask(F, group, measure):
    """best_omega_invariant as it marked the chosen orbits before the
    gather: one orbit array at a time."""
    grid = F.grid
    part = orbit_partition(grid, group)
    phi = energy_density(F).phi.ravel()
    orb_val = np.bincount(part.orbit_index, weights=phi, minlength=len(part.orbits))
    sizes = np.array([len(o) for o in part.orbits], dtype=np.int64)
    best, sel = _exact_fill_knapsack(orb_val, sizes, int(round(measure / grid.cell_weight)))
    if best is None:
        return None, None
    bits = np.zeros(phi.shape[0], dtype=bool)
    for oi in sel:
        bits[part.orbits[oi]] = True
    attained = float(phi[np.flatnonzero(bits)].sum() * grid.cell_weight)
    return bits.reshape((grid.n_offsets, grid.n_cells)), attained


def test_invariant_mask_matches_per_orbit_loop():
    rng = np.random.default_rng(56)
    lat = make_lattice(np.eye(2))
    D4 = make_group([np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])])
    offsets = [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]
    built = unreachable = 0
    for trial in range(40):
        group = (C4, D4)[trial % 2]
        grid = make_grid(lat, int(rng.integers(1, 6)), offsets)
        shape = (int(rng.integers(1, 3)), grid.n_offsets, grid.n_cells)
        if trial % 4 < 2:  # integer magnitudes: orbit values tie exactly
            vals = rng.integers(0, 3, size=shape).astype(complex)
        else:
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        F = SpectralDataset(lat, grid, vals)
        total = grid.n_offsets * grid.n_cells
        for n in sorted({0, 1, 4, 5, 8, total // 2, total}):
            if n > total:
                continue
            measure = n * grid.cell_weight
            want_bits, want = _loop_invariant_mask(F, group, measure)
            if want_bits is None:
                with pytest.raises(ValueError, match="union of whole orbits"):
                    best_omega_invariant(energy_density(F), group, measure)
                unreachable += 1
                continue
            mask, attained = best_omega_invariant(energy_density(F), group, measure)
            assert np.array_equal(mask.bits, want_bits)
            assert attained == want
            built += 1
    assert built > 100 and unreachable > 5
