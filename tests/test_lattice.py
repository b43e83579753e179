import numpy as np
import pytest
from hypothesis import assume, given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pwsis.lattice import (Lattice, dilate_lattice, make_group, make_lattice,
                           orbit_partition, reduce_to_fundamental)
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
