import numpy as np
import pytest
from hypothesis import assume, given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak
from pwsis.lattice import (Lattice, OrbitPartition, _cell_permutations, dilate_lattice,
                           make_group, make_lattice, offset_permutations, orbit_partition,
                           reduce_to_fundamental)
from pwsis.spectral import make_grid

RECOMPOSE_TOL = 1e-9
MIN_DET = 1e-3

C4 = np.array([[0, -1], [1, 0]])
MIRROR = np.array([[1, 0], [0, -1]])


def test_dual_basis_of_half_step_lattice():
    lat = make_lattice([[0.5]])
    assert lat.dual_basis[0, 0] == 2.0
    assert lat.det_abs == 0.5


def test_reduce_to_fundamental_half_step():
    lat = make_lattice([[0.5]])
    u, k = reduce_to_fundamental(lat, [1.25])
    assert u[0] == 0.625
    assert np.array_equal(k, [0])


def test_reduce_recomposes_exactly_on_integer_lattice():
    lat = make_lattice([[1.0]])
    u, k = reduce_to_fundamental(lat, [-2.75])
    assert u[0] == 0.25 and k[0] == -3
    assert lat.dual_basis @ (u + k) == pytest.approx([-2.75], abs=0)


def test_singular_basis_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        make_lattice([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match="degenerate"):
        Lattice(np.zeros((2, 2)))


def test_out_of_range_basis_rejected_without_a_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # non-finite entries, also where they leave |det basis| finite, and
        # finite entries whose determinant overflows
        for basis in ([[np.nan]], [[np.inf]], [[1.0, np.nan], [0.0, 1.0]],
                      [[1.0, np.inf], [0.0, 1.0]], [[1e160, 0.0], [0.0, 1e160]],
                      [[1e300, 1e300], [1e300, -1e300]]):
            with pytest.raises(ValueError, match=r"lattice out of range: a basis entry or "
                                                 r"\|det basis\| is not finite"):
                make_lattice(basis)


def test_dilate_lattice_dual_identity():
    lat = make_lattice([[1.0, 0.25], [0.0, 1.0]])
    A = np.array([[2.0, 1.0], [0.0, 0.5]])
    out = dilate_lattice(lat, A)
    assert np.allclose(out.basis, A @ lat.basis)
    with pytest.raises(ValueError, match="singular"):
        dilate_lattice(lat, np.zeros((2, 2)))


def test_make_group_closure_sizes():
    assert len(make_group([np.eye(2, dtype=int)])) == 1
    assert len(make_group([C4])) == 4
    assert len(make_group([C4, MIRROR])) == 8


def test_make_group_identity_first_and_inverses():
    group = make_group([C4])
    assert np.array_equal(group.elements[0], np.eye(2, dtype=int))
    for gi in range(len(group)):
        inv = group.inverse_index(gi)
        assert np.array_equal(group.elements[gi] @ group.elements[inv],
                              np.eye(2, dtype=int))


def test_inverse_table_matches_matrix_inverse():
    cube = [np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
            np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), -np.eye(3, dtype=int)]
    for gens in ([C4, MIRROR], [np.array([[0, -1], [1, 1]])], cube):
        group = make_group(gens)
        assert not group.inverses.flags.writeable
        for gi in range(len(group)):
            inv = np.rint(np.linalg.inv(group.elements[gi])).astype(np.int64)
            want = [j for j in range(len(group)) if np.array_equal(group.elements[j], inv)]
            assert [group.inverse_index(gi)] == want


def test_make_group_rejects_non_unimodular():
    with pytest.raises(ValueError):
        make_group([np.array([[2, 0], [0, 1]])])


def test_make_group_rejects_entries_beyond_int64():
    # 2^63 - 1 rounds up to 2^63 as a float: refused before the int64 cast
    for entry in (2 ** 63 - 1, -2.0 ** 64, 1e20):
        with pytest.raises(ValueError, match="^group element entry outside the int64 range$"):
            make_group([np.array([[1, entry], [0, 1]], dtype=float)])


def test_make_group_rejects_infinite_shear():
    with pytest.raises(ValueError, match="not finite"):
        make_group([np.array([[1, 1], [0, 1]])])


def test_orbit_partition_c4_on_two_cells():
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 2, [[0, 0]])
    part = orbit_partition(grid, make_group([C4]))
    # cells (0,0) and (1,1) are fixed, (1,0) and (0,1) swap
    assert sorted(int(s) for s in part.sizes) == [1, 1, 2]
    assert int(part.sizes.sum()) == 4
    for oi, members in enumerate(part.orbits):
        assert np.all(part.orbit_index[members] == oi)
        assert int(part.representatives[oi]) == int(members.min())


def test_orbit_partition_requires_closed_offsets():
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 1, [[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="not group-closed"):
        orbit_partition(grid, make_group([C4]))


@seed(20817)
@given(
    entries=arrays(np.float64, (2, 2), elements=st.floats(-3.0, 3.0)),
    point=arrays(np.float64, (2,), elements=st.floats(-50.0, 50.0)),
)
def test_reduce_to_fundamental_round_trip(entries, point):
    with np.errstate(divide="ignore", invalid="ignore"):
        det = abs(np.linalg.det(entries))
    assume(det > MIN_DET)
    lat = make_lattice(entries)
    u, k = reduce_to_fundamental(lat, point)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    back = lat.dual_basis @ (u + k)
    assert np.max(np.abs(back - point)) <= RECOMPOSE_TOL * (1.0 + np.max(np.abs(point)))


def _loop_orbits(perms, total):
    """The per-index labelling loop orbit_partition used before it labelled
    in array passes; kept as the reference for ids, order and members."""
    orbit_index = np.full(total, -1, dtype=np.int64)
    orbits = []
    for start in range(total):
        if orbit_index[start] >= 0:
            continue
        members = np.unique(perms[:, start])
        if np.any(orbit_index[members] >= 0):
            raise RuntimeError("orbit enumeration produced overlapping orbits")
        orbit_index[members] = len(orbits)
        orbits.append(members)
    return orbits, orbit_index


def _closed_offsets(group, seeds):
    found = {tuple(s) for s in seeds}
    frontier = list(found)
    while frontier:
        k = np.array(frontier.pop())
        for dual in group.duals:
            img = tuple(int(v) for v in dual @ k)
            if img not in found:
                found.add(img)
                frontier.append(img)
    return sorted(found)


_HEX6 = np.array([[0, -1], [1, 1]])
_HEX_LATTICE = [[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]
_ORBIT_CASES = [
    ("C2", np.eye(2), [-np.eye(2, dtype=int)], [[1, 0], [0, 1]]),
    ("C4", np.eye(2), [C4], [[1, 0], [1, 1]]),
    ("D4", np.eye(2), [C4, MIRROR], [[1, 0], [2, 1]]),
    ("C6 hexagonal", _HEX_LATTICE, [_HEX6], [[1, 0]]),
    ("D6 hexagonal", _HEX_LATTICE, [_HEX6, np.array([[0, 1], [1, 0]])], [[1, 0], [2, 1]]),
    ("3-D order 8", np.eye(3), [np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
                                -np.eye(3, dtype=int)], [[1, 0, 0], [0, 1, 1]]),
]


@pytest.mark.parametrize("name,basis,gens,seeds", _ORBIT_CASES,
                         ids=[c[0] for c in _ORBIT_CASES])
def test_orbit_partition_matches_loop_labelling(name, basis, gens, seeds):
    group = make_group(gens)
    lat = make_lattice(basis)
    d = lat.d
    offsets = _closed_offsets(group, [[0] * d] + seeds)
    for r in (1, 2, 3, 5):
        grid = make_grid(lat, r, offsets)
        cells = _cell_permutations(grid, group)
        off = offset_permutations(grid, group)
        pairs = np.stack([(off[g][:, None] * grid.n_cells + cells[g][None, :]).ravel()
                          for g in range(len(group))])
        fixed = np.zeros((len(group), 1), dtype=np.int64)
        for part, perms, off_perms in (
                (orbit_partition(grid, group, cells_only=True), cells, fixed),
                (orbit_partition(grid, group), pairs, off)):
            orbits, orbit_index = _loop_orbits(perms, perms.shape[1])
            assert np.array_equal(part.off_perms, off_perms)
            assert np.array_equal(part.cell_perms, cells)
            assert part.representatives.dtype == np.int64
            assert part.orbit_index.dtype == part.sizes.dtype == np.intp
            assert np.array_equal(part.orbit_index, orbit_index)
            assert np.array_equal(part.representatives, [o[0] for o in orbits])
            assert np.array_equal(part.sizes, [len(o) for o in orbits])
            assert len(part) == len(orbits)
            got = part.orbits
            assert len(got) == len(orbits)
            for a, b in zip(got, orbits):
                assert np.array_equal(a, b) and a.dtype == b.dtype


def test_orbit_partition_rejects_a_table_that_is_not_a_group():
    # an order-3 cycle without its square: images of 2 reach 0's orbit
    perms = np.array([[0, 1, 2], [1, 2, 0]], dtype=np.int64)
    with pytest.raises(RuntimeError, match="overlapping orbits"):
        _loop_orbits(perms, 3)
    # as the cell factor of an action with one fixed offset
    fixed = np.zeros((3, 1), dtype=np.int64)
    with pytest.raises(RuntimeError, match="overlapping orbits"):
        OrbitPartition(fixed[:2], perms)
    OrbitPartition(fixed, np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int64))


def test_group_action_rejects_wrong_dimension():
    grid = make_grid(make_lattice(np.eye(2)), 2, [[0, 0]])
    group = make_group([-np.eye(3, dtype=int)])
    for build in (offset_permutations, orbit_partition,
                  lambda g, G: orbit_partition(g, G, cells_only=True)):
        with pytest.raises(ValueError, match="group dimension 3 does not match grid dimension 2"):
            build(grid, group)


def test_pair_partition_holds_no_pair_table():
    # D4 on 3 x 3 offsets at r = 128: the |G| x |K| r^d int64 table of
    # (offset, cell) index maps alone is 9.4 MB
    group = make_group([C4, MIRROR])
    grid = make_grid(make_lattice(np.eye(2)), 128,
                     [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    part, peak = traced_peak(lambda: orbit_partition(grid, group))
    assert len(part) and peak < 12e6


def test_make_group_rejects_entries_of_2_53_or_more():
    # 2^62 + 1 would be read as the float 2^62
    for entry in (2 ** 53, -2 ** 53, 2 ** 62 + 1):
        with pytest.raises(ValueError, match="^group element entry of magnitude 2\\^53 or more$"):
            make_group([np.array([[1, 0], [entry, -1]])])
    assert len(make_group([np.array([[1, 0], [2 ** 53 - 1, -1]])])) == 2


def test_cell_permutations_are_exact_for_large_entries():
    # the dual of the involution [[1, 0], [N, -1]] maps cell (j0, j1) to
    # (j0 + N j1, -j1) mod r; at r = 1026 the int64 product N j1 wraps
    N, r = 2 ** 53 - 1, 1026
    group = make_group([np.array([[1, 0], [N, -1]])])
    grid = make_grid(make_lattice(np.eye(2)), r, [[0, 0]])
    perms = _cell_permutations(grid, group)
    rng = np.random.default_rng(5)
    for c in np.concatenate([np.arange(r * (r - 1), r * r), rng.integers(r * r, size=200)]):
        j = [int(v) for v in grid.cell_vectors()[c]]
        for g in range(len(group)):
            img = [sum(int(group.duals[g][a, b]) * j[b] for b in range(2)) % r
                   for a in range(2)]
            assert perms[g, c] == img[0] * r + img[1]


@pytest.mark.parametrize("p", [2 ** 20, 2 ** 26, 2 ** 30, 2 ** 40, 2 ** 52 - 2])
def test_make_group_is_exact_for_large_entries(p):
    # the involution [[p, 1 - p], [p + 1, -p]] has determinant -1; a float
    # determinant read it as 1 at 2^20 and 0 at 2^30, and refused it
    M = np.array([[p, 1 - p], [p + 1, -p]])
    group = make_group([M])
    assert len(group) == 2
    assert np.array_equal(group.elements[1], M)
    eye = np.eye(2, dtype=object)
    for g, dual in zip(group.elements, group.duals):
        assert np.array_equal(g.T.astype(object) @ dual.astype(object), eye)
    # determinants other than +-1 are still refused, however large
    for bad in ([[p, 1 - p], [p + 1, 1 - p]], [[p, 3], [5, p + 2]]):
        with pytest.raises(ValueError, match="^does not preserve lattice: \\|det\\| = "):
            make_group([np.array(bad)])


def test_make_group_refuses_products_of_2_53_or_more():
    # each generator's entries are below 2^53, a product's are not: refused
    # before an int64 product can wrap
    shear = np.array([[1, 2 ** 52], [0, 1]])
    with pytest.raises(ValueError, match="^group element entry of magnitude 2\\^53 or more$"):
        make_group([shear])
    with pytest.raises(ValueError, match="^group element entry of magnitude 2\\^53 or more$"):
        make_group([np.array([[1, 2 ** 51], [0, 1]]), np.array([[1, 0], [2 ** 51, 1]])])
