import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak
from pwsis import fibers, solver
from pwsis.fibers import (GramianField, _block_cells, _dataset_blocks, gramian_field,
                          regrid_to_lattice, symmetrize)
from pwsis.lattice import (Lattice, _cell_permutations, _invariant, make_group, make_lattice,
                           offset_permutations, orbit_partition)
from pwsis.solver import (_RANK_CUT, _TIE_GAP, ApproxReport, SubspaceModel,
                          best_gamma, best_sis,
                          dilation_equivalence, eigen_field, error_against,
                          generators, project_then_solve,
                          refinement_inequality_check, solve_then_project,
                          subspace_length)
from pwsis.spectral import (Box, FrequencyGrid, Scene, SpectralDataset, _abs2,
                            interval, make_grid, project_pw, pw_mask, residual_energy,
                            synthesize)
from pwsis.suites import run_property_suites
from test_fibers import _whole_array_gramian

EXACT_TOL = 1e-10
ROUTE_TOL = 1e-9
MONOTONE_TOL = 1e-12

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


def _random_1d(rng, m=2, r=3):
    grid = make_grid(LAT_Z, r, K3)
    shape = (m, grid.n_offsets, grid.n_cells)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralDataset(LAT_Z, grid, vals)


def test_eigen_field_hand_values():
    F, _ = _two_bumps(1)
    ef = eigen_field(gramian_field(F), 2)
    assert np.allclose(ef.eigenvalues, [[8.0, 2.0]], atol=EXACT_TOL)
    assert np.all(ef.eigenvalues[:, 0] >= ef.eigenvalues[:, 1])
    V = ef.vectors[0]
    assert np.allclose(V @ V.conj().T, np.eye(2), atol=1e-12)
    # top eigenvector of [[5,3],[3,5]] is the symmetric combination
    assert np.allclose(np.abs(V[0]), np.sqrt(0.5), atol=1e-12)


def test_eigen_field_is_deterministic():
    rng = np.random.default_rng(11)
    F = _random_1d(rng, m=3)
    a = eigen_field(gramian_field(F), 3)
    b = eigen_field(gramian_field(F), 3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)


def test_best_sis_hand_values():
    F, _ = _two_bumps(1)
    for ell, expected in ((0, 10.0), (1, 2.0), (2, 0.0), (5, 0.0)):
        model, rep = best_sis(F, ell)
        assert abs(rep.total_error - expected) <= EXACT_TOL
        assert abs(rep.per_channel.sum() - rep.total_error) <= 1e-12 * (1.0 + expected)
        assert model.ell == ell


def test_best_sis_rejects_negative_length():
    F, _ = _two_bumps(1)
    with pytest.raises(ValueError):
        best_sis(F, -1)


def test_report_matches_direct_route():
    rng = np.random.default_rng(12)
    for _ in range(20):
        F = _random_1d(rng, m=3, r=2)
        scale = 1.0 + float(F.energy().sum())
        for ell in (0, 1, 2, 3):
            model, rep = best_sis(F, ell)
            direct = error_against(F, model)
            assert abs(direct.total_error - rep.total_error) <= ROUTE_TOL * scale


def test_no_model_beats_the_optimum():
    rng = np.random.default_rng(13)
    for _ in range(20):
        F = _random_1d(rng)
        other = _random_1d(rng)
        _, best = best_sis(F, 1)
        stray_model, _ = best_sis(other, 1)
        stray = error_against(F, stray_model)
        assert stray.total_error >= best.total_error - ROUTE_TOL * (1.0 + best.total_error)


def test_generator_rows_are_orthonormal_fibers():
    F, _ = _two_bumps(2)
    model, _ = best_sis(F, 2)
    gens = generators(model)
    assert gens.m == 2
    for c in model.active_idx:
        B = gens.values[:, :, c]
        assert np.allclose(B @ B.conj().T, np.eye(2), atol=1e-12)


def test_subspace_length_hand_values():
    F, _ = _two_bumps(2)
    assert subspace_length(F) == 2
    assert subspace_length(F.select_channels([0])) == 1
    empty = SpectralDataset(LAT_Z, F.grid, np.zeros((1, 3, 2), dtype=complex))
    assert subspace_length(empty) == 0


def test_pipeline_split_hand_values():
    F, grid = _two_bumps(2)
    mask = pw_mask(interval(-1.0, 1.0), LAT_Z, grid)
    model, rep = project_then_solve(F, mask, 1)
    assert abs(rep.total_error - 8.0) <= EXACT_TOL
    assert abs(rep.projected_error - 0.0) <= EXACT_TOL
    assert abs(rep.band_residual - 8.0) <= EXACT_TOL
    # the generators vanish outside the band
    gens = generators(model)
    off = ~mask.bits
    assert np.all(np.abs(gens.values[:, off]) == 0.0)
    _, rep2 = solve_then_project(F, mask, 1)
    assert abs(rep2.total_error - 10.0) <= EXACT_TOL
    _, free = best_sis(F, 1)
    assert abs(free.total_error - 2.0) <= EXACT_TOL


def test_pipeline_self_check_raises_on_broken_gramian(monkeypatch):
    from pwsis import fibers

    grid = make_grid(LAT_Z, 2, K3)
    scene = Scene(1)
    scene.add(0, 1.0, interval(-1.0, 0.0)).add(0, 1.0j, interval(0.0, 1.0))
    scene.add(1, 1.0j, interval(-1.0, 0.0)).add(1, 1.0, interval(0.0, 1.0))
    F = synthesize(scene, LAT_Z, grid)
    mask = pw_mask(interval(-1.0, 1.0), LAT_Z, grid)
    project_then_solve(F, mask, 1)
    monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", True)
    with pytest.raises(RuntimeError, match="differs from the measured error"):
        project_then_solve(F, mask, 1)


def test_pipeline_with_trivial_group_matches():
    F, grid = _two_bumps(2)
    mask = pw_mask(interval(-1.0, 1.0), LAT_Z, grid)
    trivial = make_group([np.eye(1, dtype=int)])
    _, rep = project_then_solve(F, mask, 1, group=trivial)
    assert abs(rep.total_error - 8.0) <= EXACT_TOL


def test_pipeline_rejects_non_invariant_mask():
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 2, [[0, 0]])
    vals = np.ones((1, 1, 4), dtype=complex)
    F = SpectralDataset(lat, grid, vals)
    bits = np.zeros((1, 4), dtype=bool)
    bits[0, 1] = True
    from pwsis.spectral import PWMask
    mask = PWMask(lat, grid, bits)
    group = make_group([np.array([[0, -1], [1, 0]])])
    with pytest.raises(ValueError, match="not invariant"):
        project_then_solve(F, mask, 1, group=group)


def test_pipeline_rejects_group_of_wrong_dimension():
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 2, [[0, 0]])
    F = SpectralDataset(lat, grid, np.ones((1, 1, 4), dtype=complex))
    from pwsis.spectral import PWMask
    mask = PWMask(lat, grid, np.ones((1, 4), dtype=bool))
    G3 = make_group([-np.eye(3, dtype=int)])
    msg = "group dimension 3 does not match grid dimension 2"
    with pytest.raises(ValueError, match=msg):
        project_then_solve(F, mask, 1, group=G3)
    with pytest.raises(ValueError, match=msg):
        best_gamma(F, G3, 1)


def test_best_gamma_trivial_group_matches_plain():
    rng = np.random.default_rng(14)
    trivial = make_group([np.eye(1, dtype=int)])
    for _ in range(10):
        F = _random_1d(rng)
        for ell in (0, 1, 2):
            _, rep_g = best_gamma(F, trivial, ell)
            _, rep_s = best_sis(F, ell)
            scale = 1.0 + float(F.energy().sum())
            assert abs(rep_g.total_error - rep_s.total_error) <= 1e-12 * scale


def test_best_gamma_never_beats_unconstrained():
    rng = np.random.default_rng(15)
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 2, [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]])
    group = make_group([np.array([[0, -1], [1, 0]])])
    for _ in range(10):
        shape = (1, grid.n_offsets, grid.n_cells)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        F = symmetrize(SpectralDataset(lat, grid, vals), group)
        _, rep_g = best_gamma(F, group, 1)
        _, rep_s = best_sis(F, 1)
        scale = 1.0 + float(F.energy().sum())
        assert rep_g.total_error >= rep_s.total_error - ROUTE_TOL * scale
        bound = float(rep_g.density.sum() * grid.cell_weight)
        assert bound <= rep_g.total_error + ROUTE_TOL * scale


def test_dilation_equivalence_agrees():
    rng = np.random.default_rng(16)
    F = _random_1d(rng)
    a, b = dilation_equivalence(F, np.array([[1.7]]), 1)
    assert abs(a - b) <= ROUTE_TOL * (1.0 + a)


def test_refinement_inequality_and_validation():
    F, _ = _two_bumps(4)
    fine, coarse = refinement_inequality_check(F, 2, 1)
    assert fine <= coarse + EXACT_TOL
    same_fine, same_coarse = refinement_inequality_check(F, 1, 1)
    assert same_fine == same_coarse
    with pytest.raises(ValueError, match="indivisible resolution"):
        refinement_inequality_check(F, 3, 1)
    with pytest.raises(ValueError, match="positive integer"):
        refinement_inequality_check(F, 0, 1)


@seed(40817)
@given(
    vals=arrays(np.complex128, (3, 3, 2),
                elements=st.complex_numbers(max_magnitude=100.0, allow_nan=False,
                                            allow_infinity=False)),
)
def test_best_sis_error_is_monotone_in_length(vals):
    grid = make_grid(LAT_Z, 2, K3)
    F = SpectralDataset(LAT_Z, grid, vals)
    scale = 1.0 + float(F.energy().sum())
    errs = [best_sis(F, ell)[1].total_error for ell in range(4)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + MONOTONE_TOL * scale
    assert abs(errs[0] - float(F.energy().sum())) <= MONOTONE_TOL * scale
    assert errs[3] <= MONOTONE_TOL * scale


def _order_ties(w, Y, trace):
    """The tie order one cell at a time, as eigen_field took it before the
    one lexsort per block: reorder eigenpairs inside tie groups by ascending
    lex order of the row magnitude sequence; w and Y move together."""
    n = w.shape[0]
    tol = _TIE_GAP * trace
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop - 1] - w[stop] < tol:
            stop += 1
        if stop - start > 1:
            rows = Y[start:stop]
            order = np.lexsort(np.abs(rows).T[::-1])
            Y[start:stop] = rows[order]
            w[start:stop] = w[start:stop][order]
        start = stop


def _reference_eigen_field(G):
    """eigen_field as it was before the in-place row reorder and the one
    lexsort per block: a separate contiguous copy of the transposed,
    reversed eigenvectors, its ties ordered one cell at a time."""
    w, v = np.linalg.eigh(G.mats)
    w = w[:, ::-1].copy()
    np.maximum(w, 0.0, out=w)
    Y = np.ascontiguousarray(v.transpose(0, 2, 1)[:, ::-1, :])
    if w.shape[1] > 1 and w.shape[0]:
        gaps = -np.diff(w, axis=1)
        has_tie = np.any(gaps < _TIE_GAP * G.trace[:, None], axis=1)
        for c in np.flatnonzero(has_tie):
            _order_ties(w[c], Y[c], G.trace[c])
    if G.m and Y.size:
        flat = Y.reshape(-1, G.m)
        big = np.abs(flat) > 1e-12
        piv_idx = np.argmax(big, axis=1)
        piv = flat[np.arange(flat.shape[0]), piv_idx]
        mag = np.abs(piv)
        safe = np.where(mag > 0.0, mag, 1.0)
        flat *= (piv.conj() / safe)[:, None]
    return w, Y


def _ref_captured(values, model):
    """_captured as one whole-array pass: every active fiber gathered."""
    va = values[:, :, model.active_idx]
    amp = np.einsum("cjk,ikc->cij", model.basis.conj(), va)
    return _abs2(amp).sum(axis=(0, 2)) * model.grid.cell_weight


def _ref_error_against(F, model):
    per_channel = F.energy() - _ref_captured(F.values, model)
    return ApproxReport(float(per_channel.sum()), per_channel)


def _ref_build_basis(values, cols, ef, ell):
    """_build_basis as one whole-array pass over values[:, :, cols], the
    fibers at ef's active cells."""
    rows = min(ell, ef.m)
    na = ef.n_active
    nK = values.shape[1]
    if rows == 0 or na == 0:
        return np.zeros((na, rows, nK), dtype=np.complex128), np.zeros(na, dtype=np.int64)
    lam = ef.eigenvalues[:, :rows]
    cut = _RANK_CUT * ef.trace
    keep = lam > cut[:, None]
    dims = keep.sum(axis=1).astype(np.int64)
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, lam, 1.0)), 0.0)
    scaled = ef.vectors[:, :rows, :].conj() * inv_sqrt[:, :, None]
    va = values[:, :, cols]
    basis = np.einsum("cji,ikc->cjk", scaled, va)
    basis[~keep] = 0.0
    return basis, dims


def _reference_best_gamma(F, group, ell):
    """best_gamma as it was built on the full symmetrized dataset: the
    Gramian on every cell, the representatives picked out of it, and the
    basis carried to each member by the first group element reaching it."""
    sym = symmetrize(F, group)
    G = gramian_field(sym)
    part = orbit_partition(F.grid, group, cells_only=True)
    active = np.zeros(F.grid.n_cells, dtype=bool)
    active[G.active_idx] = True
    act_orbits = [o for o in part.orbits if active[o].any()]
    for o in act_orbits:
        assert active[o].all()
    reps = np.array([o[0] for o in act_orbits], dtype=np.int64)
    pos = np.searchsorted(G.active_idx, reps)
    w, Y = _reference_eigen_field(GramianField(G.grid, G.m, G.active_idx[pos],
                                               G.mats[pos], G.trace[pos]))
    ef = SimpleNamespace(m=G.m, n_active=len(pos), eigenvalues=w, vectors=Y,
                         trace=G.trace[pos])
    rep_basis, rep_dims = _ref_build_basis(sym.values, G.active_idx[pos], ef, ell)
    density_rep = w[:, ell:].sum(axis=1) if ell < G.m else np.zeros(len(pos))
    cell_perms = _cell_permutations(F.grid, group)
    off_perms = offset_permutations(F.grid, group)
    na = G.n_active
    basis = np.zeros((na, rep_basis.shape[1], F.grid.n_offsets), dtype=np.complex128)
    dims = np.zeros(na, dtype=np.int64)
    density = np.zeros(na)
    pos_of = {int(c): k for k, c in enumerate(G.active_idx)}
    for oi, members in enumerate(act_orbits):
        pick = {}
        for gi, img in enumerate(cell_perms[:, members[0]]):
            pick.setdefault(int(img), gi)
        assert sorted(pick) == members.tolist()
        for member, gi in pick.items():
            k = pos_of[member]
            basis[k] = rep_basis[oi][:, off_perms[group.inverse_index(gi)]]
            dims[k] = rep_dims[oi]
            density[k] = density_rep[oi] / len(group)
    model = SubspaceModel(F.lattice, F.grid, ell, G.active_idx, basis, dims, group=group)
    measured = _ref_error_against(F, model)
    return model, ApproxReport(measured.total_error, measured.per_channel,
                               active_idx=G.active_idx, density=density)


def _closed_offsets(group, seeds):
    """The smallest offset set holding the seeds and closed under the dual
    action k -> Ghat k."""
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


_ROT4 = np.array([[0, -1], [1, 0]])
_FLIP = np.array([[1, 0], [0, -1]])
_HEX6 = np.array([[0, -1], [1, 1]])  # rotation by 60 degrees on the hexagonal basis
_HEX_LATTICE = [[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]
_CASES = [
    ("C2", np.eye(2), [-np.eye(2, dtype=int)], [[1, 0], [0, 1]], 2),
    ("C4", np.eye(2), [_ROT4], [[1, 0], [1, 1]], 2),
    ("D4", np.eye(2), [_ROT4, _FLIP], [[1, 0], [1, 1]], 2),
    ("C6 hexagonal", _HEX_LATTICE, [_HEX6], [[1, 0]], 2),
    ("D6 hexagonal", _HEX_LATTICE, [_HEX6, np.array([[0, 1], [1, 0]])], [[1, 0]], 2),
    ("3-D order 8", np.eye(3), [np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
                                -np.eye(3, dtype=int)], [[1, 0, 0], [0, 0, 1]], 3),
]


def _projectors(model):
    """B^H B per active cell: the orthogonal projector onto the model's fibers."""
    return np.einsum("cjk,cjl->ckl", model.basis.conj(), model.basis)


def _assert_equivariant(model, group):
    """The projector at the image of every active cell under every element
    is the element's offset permutation of the projector there."""
    cell_perms = _cell_permutations(model.grid, group)
    off_perms = offset_permutations(model.grid, group)
    act = model.active_idx
    assert np.isin(cell_perms[:, act], act).all()
    P = _projectors(model)
    for gi in range(len(group)):
        q = off_perms[group.inverse_index(gi)]
        moved = P[:, q[:, None], q[None, :]]
        at = np.searchsorted(act, cell_perms[gi, act])
        assert np.max(np.abs(P[at] - moved), initial=0.0) <= 1e-11


def _tie_split_cells(F, group, ell):
    """Whether the Gram-side rank-ell cut splits a tie, per active cell of
    the symmetrized data, taken over whole orbits."""
    G = gramian_field(symmetrize(F, group))
    lam = eigen_field(G, 0).eigenvalues
    split = np.zeros(G.n_active, dtype=bool)
    if 0 < ell < G.m:
        split = lam[:, ell - 1] - lam[:, ell] < _TIE_GAP * G.trace
    orbit_of = orbit_partition(F.grid, group, cells_only=True).orbit_index[G.active_idx]
    in_split_orbit = np.zeros(orbit_of.max(initial=-1) + 1, dtype=bool)
    in_split_orbit[orbit_of[split]] = True
    return G.active_idx, in_split_orbit[orbit_of]


def _assert_gamma_oracles(F, group, ell, reference):
    """best_gamma against a Gram-side reference.  Where the reference's cut
    splits no tie both give the same cells, dims, projectors and bound;
    where it splits one, best_gamma's bound is at least the reference's
    naive one.  Everywhere the model is invariant and attains its bound.
    Returns whether some cut split a tie."""
    model, rep = best_gamma(F, group, ell)
    ref_model, ref = reference(F, group, ell)
    tol = 1e-12 * (1.0 + float(F.energy().sum()))
    w = F.grid.cell_weight
    active, split = _tie_split_cells(F, group, ell)
    assert np.array_equal(model.active_idx, ref_model.active_idx)
    assert np.array_equal(model.active_idx, active)
    assert np.array_equal(rep.active_idx, ref.active_idx)
    ok = ~split
    assert np.array_equal(model.dims[ok], ref_model.dims[ok])
    dev = np.abs(_projectors(model)[ok] - _projectors(ref_model)[ok])
    assert np.max(dev, initial=0.0) <= 1e-11
    assert np.max(np.abs(rep.density[ok] - ref.density[ok]), initial=0.0) <= tol
    _assert_equivariant(model, group)
    bound = float(rep.density.sum()) * w
    assert abs(rep.total_error - bound) <= tol
    assert abs(float(rep.per_channel.sum()) - rep.total_error) <= tol
    if split.any():
        assert bound >= float(ref.density.sum()) * w - tol
    else:
        assert abs(rep.total_error - ref.total_error) <= tol
        assert np.max(np.abs(rep.per_channel - ref.per_channel), initial=0.0) <= tol
    return bool(split.any())


@pytest.mark.parametrize("name,basis,gens,seeds,d", _CASES, ids=[c[0] for c in _CASES])
def test_best_gamma_matches_symmetrized_reference(name, basis, gens, seeds, d):
    rng = np.random.default_rng(sum(map(ord, name)))
    group = make_group(gens)
    lat = make_lattice(basis)
    offsets = _closed_offsets(group, [[0] * d] + seeds)
    for r in ((1, 2, 3, 4, 6) if d == 2 else (1, 2, 3)):
        grid = make_grid(lat, r, offsets)
        cell_part = orbit_partition(grid, group, cells_only=True)
        box_part = orbit_partition(grid, group)
        for trial in range(3):
            m = int(rng.integers(1, 4))
            shape = (m, grid.n_offsets, grid.n_cells)
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if trial == 1:  # whole cell orbits dead: their orbits are inactive
                for o in cell_part.orbits:
                    if rng.random() < 0.5:
                        vals[:, :, o] = 0.0
            elif trial == 2:  # a band of whole box orbits, as --mask gives
                flat = vals.reshape(m, -1)
                for o in box_part.orbits:
                    if rng.random() < 0.5:
                        flat[:, o] = 0.0
            F = SpectralDataset(lat, grid, vals)
            for ell in (0, 1, 2, 3 * m * len(group)):
                _assert_gamma_oracles(F, group, ell, _reference_best_gamma)


def test_best_gamma_matches_reference_with_ties_and_one_active_orbit():
    # real integer data symmetrized over D4: the Gramians at cells with
    # nontrivial stabilizers carry exactly tied eigenvalues
    group = make_group([_ROT4, _FLIP])
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 4, _closed_offsets(group, [[0, 0], [1, 0]]))
    rng = np.random.default_rng(54)
    base = SpectralDataset(lat, grid, rng.integers(-2, 3, size=(1,) + (grid.n_offsets,
                                                                   grid.n_cells)) + 0j)
    F = symmetrize(base, group)
    split = [_assert_gamma_oracles(F, group, ell, _reference_best_gamma)
             for ell in (1, 2, 3, 5)]
    assert any(split)
    # one active orbit of several cells: a single representative is solved
    part = orbit_partition(grid, group, cells_only=True)
    big = max(part.orbits, key=len)
    vals = np.zeros_like(base.values)
    vals[:, :, big] = base.values[:, :, big] + 1.0
    for ell in (1, 2):
        _assert_gamma_oracles(SpectralDataset(lat, grid, vals), group, ell,
                              _reference_best_gamma)


def _materialized_best_gamma(F, group, ell):
    """best_gamma as it was before its Gramians were built per block: the
    whole representative field from a copy of the old whole-array Gramian
    route, then eigen_field."""
    n_group, m = len(group), F.m
    part = orbit_partition(F.grid, group, cells_only=True)
    reps = part.representatives
    cell_perms = part.cell_perms
    off_perms = offset_permutations(F.grid, group)
    sym = np.empty((m * n_group, F.grid.n_offsets, len(reps)), dtype=np.complex128)
    for gi in range(n_group):
        inv = group.inverse_index(gi)
        sym[gi * m:(gi + 1) * m] = F.values[:, off_perms[inv][:, None],
                                            cell_perms[inv, reps][None, :]]
    G = _whole_array_gramian(F.grid, sym, reps)
    keep = np.flatnonzero(np.isin(reps, G.active_idx))
    assert np.array_equal(reps[keep], G.active_idx)
    ef = eigen_field(G, ell)
    rep_basis, rep_dims = _ref_build_basis(sym, keep, ef, ell)
    rep_pos = np.full(len(reps), -1, dtype=np.int64)
    rep_pos[keep] = np.arange(len(keep))
    cell_rep = rep_pos[part.orbit_index]
    all_active = np.flatnonzero(cell_rep >= 0)
    src = cell_rep[all_active]
    first_g = np.empty(F.grid.n_cells, dtype=np.int64)
    for gi in range(n_group - 1, -1, -1):
        first_g[cell_perms[gi, G.active_idx]] = gi
    via = first_g[all_active]
    basis = np.empty((len(all_active), rep_basis.shape[1], F.grid.n_offsets),
                     dtype=np.complex128)
    for gi in np.unique(via):
        at = np.flatnonzero(via == gi)
        basis[at] = rep_basis[src[at]][:, :, off_perms[group.inverse_index(gi)]]
    model = SubspaceModel(F.lattice, F.grid, ell, all_active, basis, rep_dims[src],
                          group=group)
    measured = _ref_error_against(F, model)
    return model, ApproxReport(measured.total_error, measured.per_channel,
                               active_idx=all_active,
                               density=ef.density[src] / n_group)


def _spy_steps(monkeypatch):
    """The step of every route solver._fiber_blocks returns from now on."""
    steps, route = [], solver._fiber_blocks

    def spy(*args, **kwargs):
        out = route(*args, **kwargs)
        steps.append(out[5])
        return out

    monkeypatch.setattr(solver, "_fiber_blocks", spy)
    return steps


def test_blocked_best_gamma_matches_materialized_field(monkeypatch):
    # m|G| = 24 (C4) and 48 (D4) on |K| = 9 offsets, with blocks the size
    # of 20 operators: the fibers, the larger shape, set 7 (C4) or 3 (D4)
    # cells per gather and per eigh, so the representatives take many
    # blocks, and a share of whole cell orbits is zeroed so the active ones
    # are gathered
    monkeypatch.setattr(fibers, "_BLOCK_BYTES", 32 * 9 * 9 * 20)
    steps = _spy_steps(monkeypatch)
    lat = make_lattice(np.eye(2))
    for gens, r, seed_ in (([_ROT4], 24, 60), ([_ROT4, _FLIP], 16, 61)):
        group = make_group(gens)
        grid = make_grid(lat, r, _closed_offsets(group, [[0, 0], [1, 0], [1, 1]]))
        part = orbit_partition(grid, group, cells_only=True)
        m = 6
        assert grid.n_offsets == 9
        assert len(part.representatives) > 2 * _block_cells(grid.n_offsets, grid.n_offsets)
        rng = np.random.default_rng(seed_)
        shape = (m, grid.n_offsets, grid.n_cells)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dead = [o for o in part.orbits if rng.random() < 0.3]
        assert dead
        for o in dead:
            vals[:, :, o] = 0.0
        F = SpectralDataset(lat, grid, vals)
        for ell in (1, 3, m * len(group)):
            _assert_gamma_oracles(F, group, ell, _materialized_best_gamma)
        steps.clear()
        assert len(best_gamma(F, group, 1)[0].active_idx) < grid.n_cells
        assert steps == [7 if len(group) == 4 else 3]


def test_fiber_blocks_ending_in_a_single_cell_match_the_whole_array_route(monkeypatch):
    # _BLOCK_BYTES is set so that the blocks of the cut, and then those of
    # the pass that builds and measures the basis, hold n - 1 of the n
    # active cells: the last block is a single cell, whose eigh and einsums
    # must give the bits of the whole-array route
    lat = make_lattice(np.eye(2))
    group = make_group([_ROT4, _FLIP])
    grid = make_grid(lat, 6, _closed_offsets(group, [[0, 0], [1, 0]]))
    part = orbit_partition(grid, group, cells_only=True)
    rng = np.random.default_rng(64)
    m = 3
    shape = (m, grid.n_offsets, grid.n_cells)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dead = part.orbits[1::3]
    for o in dead:
        vals[:, :, o] = 0.0
    F = SpectralDataset(lat, grid, vals)
    n = gramian_field(F).n_active
    assert n == grid.n_cells - sum(len(o) for o in dead) and n > 2
    blocks = []  # the cells of each block of the pass
    sis_rows = solver._sis_rows

    def spy(ef, ell):
        rows_of, dims = sis_rows(ef, ell)
        return (lambda s, e, v: blocks.append(v.shape[2]) or rows_of(s, e, v)), dims

    monkeypatch.setattr(solver, "_sis_rows", spy)
    for ell, per_cell in ((1, m), (2, m), (1, m + 1), (2, m + 2)):
        # a block holds its m fibers, and in the pass also its rows, twice
        monkeypatch.setattr(fibers, "_BLOCK_BYTES", 32 * per_cell * grid.n_offsets * (n - 1))
        blocks.clear()
        model, rep = best_sis(F, ell)
        if per_cell == m:
            assert n % _dataset_blocks(F)[5] == 1
        else:
            assert blocks == [n - 1, 1]
        ef = eigen_field(gramian_field(F), ell)
        basis, dims = _ref_build_basis(F.values, ef.active_idx, ef, ell)
        assert np.array_equal(model.basis, basis) and np.array_equal(model.dims, dims)
        assert np.array_equal(rep.per_channel, F.energy() - _ref_captured(F.values, model))
        got, want = error_against(F, model), _ref_error_against(F, model)
        assert got.total_error == want.total_error
        assert np.array_equal(got.per_channel, want.per_channel)
    # the group solve gathers n_reps - 1 of the n_reps representatives per
    # block: the bits must be those of the default blocks, which hold them all
    n_reps = len(part) - len(dead)
    assert n_reps > 2
    monkeypatch.undo()
    whole = {ell: best_gamma(F, group, ell) for ell in (1, 3)}
    monkeypatch.setattr(fibers, "_BLOCK_BYTES",
                        32 * m * len(group) * grid.n_offsets * (n_reps - 1))
    steps = _spy_steps(monkeypatch)
    for ell in (1, 3):
        steps.clear()
        model, rep = best_gamma(F, group, ell)
        assert steps == [n_reps - 1]
        want_model, want = whole[ell]
        assert np.array_equal(model.basis, want_model.basis)
        assert np.array_equal(model.dims, want_model.dims)
        assert rep.total_error == want.total_error
        assert np.array_equal(rep.per_channel, want.per_channel)
        assert np.array_equal(rep.density, want.density)
        _assert_gamma_oracles(F, group, ell, _materialized_best_gamma)


def _irreducible_pieces(T, perms, rng):
    """(dimension, mass of T) of every irreducible piece of C^n under the
    permutations perms, for a Hermitian T commuting with them.  The
    isotypic components are the eigenspaces of a Hermitian element of the
    centre of the group algebra, a random combination of class sums; a
    component of multiplicity n_c and irreducible dimension d_c holds T's
    eigenvalues in runs of d_c equal ones."""
    n = T.shape[0]
    mats = np.zeros((len(perms), n, n))
    for i, p in enumerate(perms):
        mats[i, np.arange(n), p] = 1.0
    mats = np.unique(mats, axis=0)  # the group as it acts, each element once
    key = {m.tobytes(): i for i, m in enumerate(mats)}
    classes = {frozenset(key[(g @ h @ g.T).tobytes()] for g in mats) for h in mats}
    Z = np.zeros((n, n), dtype=complex)
    for cls in sorted(classes, key=sorted):
        a = complex(rng.standard_normal(), rng.standard_normal())
        S = mats[list(cls)].sum(axis=0)
        Z += a * S + np.conj(a) * S.T
    z, Q = np.linalg.eigh(Z)
    pieces = []
    lo = 0
    for hi in range(1, n + 1):
        if hi < n and z[hi] - z[hi - 1] < 1e-8:
            continue
        W = Q[:, lo:hi]
        chi = np.einsum("ka,gkl,la->g", W.conj(), mats, W)
        mult = int(round(np.sqrt(np.sum(np.abs(chi) ** 2) / len(mats))))
        dim = (hi - lo) // mult
        assert mult * dim == hi - lo
        mu = np.linalg.eigvalsh(W.conj().T @ T @ W)[::-1]
        pieces += [(dim, float(mu[j:j + dim].sum())) for j in range(0, hi - lo, dim)]
        lo = hi
    return pieces


def test_best_gamma_attains_the_invariant_optimum_on_tiny_grids():
    # every orbit's error is the best over all selections of irreducible
    # pieces of total dimension at most ell at its representative; real data
    # ties the conjugate pieces of C4, and the two-dimensional pieces of D4
    # tie in any data, so many cuts split a tie
    lat = make_lattice(np.eye(2))
    rng = np.random.default_rng(67)
    below_naive = 0
    for gens in ([_ROT4], [_ROT4, _FLIP]):
        group = make_group(gens)
        for seeds in ([[0, 0]], [[0, 0], [1, 0]], [[0, 0], [1, 1]]):
            offsets = _closed_offsets(group, seeds)
            for r in (1, 2, 3, 4):
                grid = make_grid(lat, r, offsets)
                nK, w = grid.n_offsets, grid.cell_weight
                part = orbit_partition(grid, group, cells_only=True)
                off_perms = offset_permutations(grid, group)
                for m, real in ((1, False), (1, True), (2, True)):
                    shape = (m, nK, grid.n_cells)
                    vals = rng.standard_normal(shape) + 0j
                    if not real:
                        vals += 1j * rng.standard_normal(shape)
                    F = SpectralDataset(lat, grid, vals)
                    sym = symmetrize(F, group)
                    tol = 1e-12 * (1.0 + float(F.energy().sum()))
                    for ell in range(nK + 2):
                        model, rep = best_gamma(F, group, ell)
                        cell_err = (_abs2(F.values).sum(axis=(0, 1))
                                    - np.bincount(model.active_idx, minlength=grid.n_cells,
                                                  weights=_abs2(np.einsum(
                                                      "cjk,ikc->cij", model.basis.conj(),
                                                      F.values[:, :, model.active_idx])
                                                  ).sum(axis=(1, 2)))) * w
                        bound = np.zeros(grid.n_cells)
                        bound[model.active_idx] = rep.density * w
                        for orbit in part.orbits:
                            c = orbit[0]
                            S = sym.values[:, :, c].T
                            T = S @ S.conj().T
                            stab = off_perms[part.cell_perms[:, c] == c]
                            pieces = _irreducible_pieces(T, stab, rng)
                            best = max(sum(p[1] for p in pick)
                                       for k in range(len(pieces) + 1)
                                       for pick in itertools.combinations(pieces, k)
                                       if sum(p[0] for p in pick) <= ell)
                            trace = float(np.trace(T).real)
                            want = len(orbit) / len(group) * (trace - best) * w
                            assert abs(cell_err[orbit].sum() - want) <= tol
                            assert abs(bound[orbit].sum() - want) <= tol
                            naive = np.linalg.eigvalsh(T)[::-1][:ell].sum()
                            below_naive += best < naive - 1e-9 * (1.0 + trace)
    assert below_naive > 0


@pytest.mark.parametrize("suite_seed", (208, 305, 334, 356))
def test_equivariance_suite_passes_at_seeds_with_split_ties(suite_seed, tmp_path):
    # each of these seeds has an instance whose cut splits a tie at a cell
    # with a nontrivial stabilizer
    res = run_property_suites(suite_seed, suites=["equivariance"],
                              failure_dir=str(tmp_path))[0]
    assert res.count == 30 and not res.failures, res.failures


def test_eigen_field_and_best_gamma_without_channels_or_active_cells():
    lat = make_lattice(np.eye(2))
    group = make_group([_ROT4, _FLIP])
    grid = make_grid(lat, 4, _closed_offsets(group, [[0, 0], [1, 0]]))
    for m in (0, 2):  # no channels; channels that are zero everywhere
        F = SpectralDataset(lat, grid, np.zeros((m, grid.n_offsets, grid.n_cells),
                                                dtype=complex))
        for ell in (0, 1, 3):
            ef = eigen_field(gramian_field(F), ell)
            assert ef.n_active == 0 and ef.error == 0.0 and ef.length == 0
            assert ef.vectors.shape == (0, min(ell, m), m)
            model, rep = best_gamma(F, group, ell)
            assert model.active_idx.shape == (0,) and model.dims.shape == (0,)
            assert model.basis.shape == (0, min(ell, m * len(group)), grid.n_offsets)
            assert rep.total_error == 0.0
            assert rep.per_channel.shape == (m,) and not rep.per_channel.any()


def test_gramian_fault_reaches_best_gamma_blocks(monkeypatch):
    lat = make_lattice(np.eye(2))
    group = make_group([_ROT4])
    grid = make_grid(lat, 4, _closed_offsets(group, [[0, 0], [1, 0]]))
    rng = np.random.default_rng(62)
    shape = (2, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    blocks = []
    real = fibers._gramian_mats

    def spy(va):
        mats = real(va)
        blocks.append(mats)
        return mats

    monkeypatch.setattr(fibers, "_gramian_mats", spy)
    for planted in (False, True):
        monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", planted)
        blocks.clear()
        best_gamma(F, group, 1)
        assert blocks
        dev = max(float(np.max(np.abs(b - b.conj().transpose(0, 2, 1)))) for b in blocks)
        assert (dev > 1e-6) == planted


def test_best_gamma_never_holds_the_whole_gramian_field():
    # D4 with m = 6 on 3 x 3 offsets: the representatives' field is
    # n_reps 48 x 48 complex matrices
    lat = make_lattice(np.eye(2))
    group = make_group([_ROT4, _FLIP])
    grid = make_grid(lat, 32, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    n_reps = len(orbit_partition(grid, group, cells_only=True).representatives)
    rng = np.random.default_rng(63)
    shape = (6, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    _, peak = traced_peak(lambda: best_gamma(F, group, 1))
    assert peak < n_reps * 48 * 48 * 16


def test_best_gamma_never_holds_the_representatives_fibers():
    # D4 with m = 6 on 5 x 5 offsets: the representatives' symmetrized
    # fibers are m|G| x |K| x n_reps complex samples, 6.2 MB here, against
    # about 1 MB per gathered or eigh block
    lat = make_lattice(np.eye(2))
    group = make_group([_ROT4, _FLIP])
    grid = make_grid(lat, 48, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    n_reps = len(orbit_partition(grid, group, cells_only=True).representatives)
    m = 6
    rng = np.random.default_rng(65)
    shape = (m, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    _, peak = traced_peak(lambda: best_gamma(F, group, 1))
    assert peak < m * len(group) * grid.n_offsets * n_reps * 16


def _field(mats):
    trace = np.trace(mats, axis1=1, axis2=2).real.copy()
    return GramianField(None, mats.shape[1], np.arange(len(mats)), mats, trace)


def _identity_tied_field(rng, m):
    """More cells than two eigh blocks, with exact ties at half of them."""
    n = 2 * _block_cells(m, m) + 188
    A = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    mats = A @ A.conj().transpose(0, 2, 1)
    mats[::2] = np.eye(m) * rng.integers(1, 3, size=(n + 1) // 2)[:, None, None]
    return _field(mats)


def _zero_tied_field(rng, m):
    """Gramians of rank one or two over more cells than two eigh blocks:
    the m - 1 or m - 2 eigenvalues at zero or round-off tie at nearly every
    cell, as they do at the cells of example 6.5."""
    n = 2 * _block_cells(m, m) + 61
    A = rng.standard_normal((n, m, 2)) + 1j * rng.standard_normal((n, m, 2))
    A[::3, :, 1] = 0.0
    A[1::7] *= 1e-3
    return _field(A @ A.conj().transpose(0, 2, 1))


def test_eigen_field_matches_copying_reorder():
    m = 4
    G = _identity_tied_field(np.random.default_rng(55), m)
    ef = eigen_field(G, m)
    w, Y = _reference_eigen_field(G)
    assert np.array_equal(ef.eigenvalues, w)
    assert np.array_equal(ef.vectors, Y)
    assert ef.vectors.flags.c_contiguous


def _tied_field(rng, n, m):
    """n Hermitian m x m Gramians in four kinds: scaled identities (one tie
    over every cut), diagonals with small integer spectra, D (k I + J) D^H
    with J all ones and D a diagonal of units (a tie of size m - 1 at k), and
    small integer spectra rotated by a random unitary (ties to round-off);
    the last two make eigh return tied vectors out of lex order."""
    mats = np.empty((n, m, m), dtype=complex)
    for c in range(n):
        lam = rng.integers(0, 3, size=m).astype(float)
        lam[rng.integers(m)] = 3.0
        kind = c % 4
        if kind == 0:
            mats[c] = np.eye(m) * lam[0]
        elif kind == 1:
            mats[c] = np.diag(lam)
        elif kind == 2:
            D = np.diag(np.array([1, -1, 1j, -1j])[rng.integers(4, size=m)])
            mats[c] = D @ (lam[0] * np.eye(m) + np.ones((m, m))) @ D.conj().T
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            mats[c] = (Q * lam) @ Q.conj().T
    return _field(mats)


def test_eigen_field_rank_cut_matches_reference():
    rng = np.random.default_rng(57)
    m = 5
    # every tie group of a block is ordered by one lexsort; the reference
    # orders them one cell at a time
    fields = [_tied_field(rng, 2 * _block_cells(m, m) + 37, m),
              _identity_tied_field(rng, m), _zero_tied_field(rng, m),
              GramianField(None, m, np.arange(0), np.zeros((0, m, m), dtype=complex),
                           np.zeros(0))]
    for G in fields:
        w, Y = _reference_eigen_field(G)
        gaps = -np.diff(w, axis=1)
        assert np.any(gaps < _TIE_GAP * G.trace[:, None], axis=1).sum() >= G.n_active // 2
        rank = (w > 1e-9 * G.trace[:, None]).sum(axis=1)
        for ell in (0, 1, m - 1, m, m + 2):
            ef = eigen_field(G, ell)
            rows = min(ell, m)
            assert ef.vectors.shape[1] == rows
            assert np.array_equal(ef.eigenvalues, w)
            assert np.array_equal(ef.vectors, Y[:, :rows])
            density = w[:, ell:].sum(axis=1) if ell < m else np.zeros(G.n_active)
            assert np.array_equal(ef.density, density)
            assert ef.length == (int(rank.max()) if G.n_active else 0)
    with pytest.raises(ValueError, match="nonnegative integer"):
        eigen_field(fields[0], -1)


def _route_field(route):
    """The operators of a _fiber_blocks route, read through its block
    function at its own step, as a GramianField."""
    grid, n, active, trace, block, step = route
    mats = np.empty((len(active), n, n), dtype=complex)
    for s in range(0, len(active), step):
        mats[s:s + step] = block(s, s + step)
    return GramianField(grid, n, active, mats, trace)


def _eigvalsh_length(G):
    """subspace_length's rank path before it moved onto eigen_field."""
    if G.n_active == 0:
        return 0
    w = np.linalg.eigvalsh(G.mats)
    return int((w > 1e-9 * G.trace[:, None]).sum(axis=1).max())


def test_length_from_eigh_matches_eigvalsh_rank(monkeypatch):
    from pwsis import examples, suites

    # suite-style datasets: random lattices, offsets, dead cells
    for k in range(400):
        rng = np.random.default_rng([7, k])
        G = gramian_field(suites._random_dataset(rng, m_max=4, r_max=6))
        assert eigen_field(G, 0).length == _eigvalsh_length(G)
    # every operator set the worked examples cut, at their own resolutions,
    # whether from a dataset, through a band or through a regrid map, read
    # through the route's block function while its data is alive
    seen = []
    real = fibers._fiber_blocks

    def spy(*args, **kwargs):
        route = real(*args, **kwargs)
        seen.append(_route_field(route))
        return route

    for module in (fibers, solver):  # each binds the name itself
        monkeypatch.setattr(module, "_fiber_blocks", spy)
    for example_id in examples.EXAMPLE_IDS:
        assert examples.reproduce_example(example_id).passed
    assert len(seen) >= 2 * len(examples.EXAMPLE_IDS)
    for G in seen:
        assert eigen_field(G, 0).length == _eigvalsh_length(G)


def _reference_refine_dataset(F, N):
    """refinement_inequality_check's own re-indexing before it moved onto
    regrid_to_lattice: the same samples on the lattice basis / N with
    resolution N * r."""
    grid = F.grid
    d, r = grid.d, grid.r
    r2 = N * r
    lat2 = Lattice(F.lattice.basis / N)
    K = grid.offsets
    K2_all = K // N
    t_all = K - N * K2_all
    K2 = np.unique(K2_all, axis=0)
    grid2 = FrequencyGrid(lat2, r2, K2)
    cells = grid.cell_vectors()
    vals = np.zeros((F.m, grid2.n_offsets, grid2.n_cells), dtype=np.complex128)
    for ki in range(grid.n_offsets):
        k2i = grid2.offset_index(K2_all[ki])
        j2 = np.ravel_multi_index((cells + r * t_all[ki]).T, (r2,) * d)
        vals[:, k2i, j2] = F.values[:, ki, :]
    return SpectralDataset(lat2, grid2, vals, check_finite=False)


_REFINE_BASES = {1: [[[1.0]], [[0.37]], [[-2.5]]],
                 2: [np.eye(2), [[1.0, 0.6], [0.0, 1.3]], [[0.9, -0.4], [0.25, 1.1]]]}


def _refinement_case(trial):
    """The seeded dataset of refinement trial 0..299, its factor N and a
    generator for what the trial draws next."""
    rng = np.random.default_rng([58, trial])
    d = 1 + trial % 2
    N = 2 + (trial // 2) % 2
    lat = make_lattice(_REFINE_BASES[d][int(rng.integers(len(_REFINE_BASES[d])))])
    box = np.stack(np.meshgrid(*[np.arange(-2, 3)] * d, indexing="ij"),
                   axis=-1).reshape(-1, d)
    pick = rng.random(len(box)) < 0.4
    pick[len(box) // 2] = True  # the zero offset
    grid = make_grid(lat, N * int(rng.integers(1, 4)), box[pick])
    m = int(rng.integers(0, 4))  # m = 0: a dataset with no channels
    shape = (m, grid.n_offsets, grid.n_cells)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[:, :, rng.random(grid.n_cells) < 0.3] = 0.0
    return SpectralDataset(lat, grid, vals), N, rng


def test_refinement_regrid_matches_old_refine():
    for trial in range(300):
        F, N, rng = _refinement_case(trial)
        old = _reference_refine_dataset(F, N)
        new = regrid_to_lattice(F, Lattice(F.lattice.basis / N))
        assert np.array_equal(new.lattice.basis, old.lattice.basis)
        assert new.grid.r == old.grid.r
        assert np.array_equal(new.grid.offsets, old.grid.offsets)
        assert np.array_equal(new.values, old.values)
        ell = int(rng.integers(0, F.m + 1))
        fine, _ = refinement_inequality_check(F, N, ell)
        assert fine == best_sis(old, ell)[1].total_error


def _rowwise_label_offsets(k2):
    """regrid_to_lattice's offset labelling before the 1-D key: a row-wise
    unique of k2 with the zero row appended."""
    K2, inverse = np.unique(np.vstack([k2, np.zeros((1, k2.shape[1]), dtype=np.int64)]),
                            axis=0, return_inverse=True)
    return K2, np.asarray(inverse).ravel()[: k2.shape[0]]


def _reference_regrid(F, lat):
    """regrid_to_lattice before its regrid map: the same checks, then the
    sample coordinates as (|K| r^d, d) tables, a row-wise unique of the
    target offsets and a zero-filled target written in one scatter."""
    src, grid, d = F.lattice, F.grid, F.grid.d
    assert lat.d == d
    if lat.same_as(src):
        return F
    sigma = (src.det_abs / lat.det_abs) ** (1.0 / d)
    r2 = int(round(sigma * grid.r))
    M = (lat.basis.T @ src.dual_basis) * (float(r2) / grid.r)
    C = np.rint(M).astype(np.int64)
    full = (grid.cell_vectors()[None, :, :]
            + grid.r * grid.offsets[:, None, :]).reshape(-1, d)
    k2, j2 = np.divmod(full @ C.T, r2)
    K2, ki = _rowwise_label_offsets(k2)
    grid2 = FrequencyGrid(lat, r2, K2)
    ci = np.ravel_multi_index(j2.T, (r2,) * d)
    vals = np.zeros((F.m, grid2.n_offsets, grid2.n_cells), dtype=np.complex128)
    vals[:, ki, ci] = F.values.reshape(F.m, len(ki))
    return SpectralDataset(lat, grid2, vals, check_finite=False)


_FILES_LATTICES = (np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.eye(2) / 2)


def _files_layout(seed, dead=False):
    """The files benchmark's dataset layout: d = 2, r = 64, offsets
    {-2..2}^2, m = 3 complex normal channels; dead cells on request."""
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    rng = np.random.default_rng(seed)
    shape = (3, grid.n_offsets, grid.n_cells)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if dead:
        vals[:, :, rng.random(grid.n_cells) < 0.3] = 0.0
    return SpectralDataset(lat, grid, vals)


def _regrid_cases():
    """The 300 refinement datasets on their refined lattices, and the files
    layout on its three lattices."""
    cases = []
    for trial in range(300):
        F, N, _ = _refinement_case(trial)
        cases.append((F, Lattice(F.lattice.basis / N)))
    F = _files_layout(66)
    cases.extend((F, make_lattice(basis)) for basis in _FILES_LATTICES)
    return cases


def test_regrid_map_matches_the_index_table_route():
    regridded = 0
    for F, target in _regrid_cases():
        new = regrid_to_lattice(F, target)
        old = _reference_regrid(F, target)
        if old is F:
            assert new is F
            continue
        regridded += 1
        assert new.lattice is target and new.support is None
        assert new.grid.r == old.grid.r
        assert np.array_equal(new.grid.offsets, old.grid.offsets)
        assert np.array_equal(new.values, old.values)
    # every target but the dataset's own lattice is regridded
    assert regridded == 302


def _assert_lattice_field(F, lat):
    """The Gramians compare-lattices cuts, read through the regrid map by
    the route's block function, equal the field of the regridded dataset,
    bit for bit."""
    got = _route_field(_dataset_blocks(F, fibers._regrid_layout(F, lat)))
    R = _reference_regrid(F, lat)
    want = gramian_field(R)
    assert got.grid.compatible(R.grid) and got.m == F.m
    assert np.array_equal(got.active_idx, want.active_idx)
    assert np.array_equal(got.mats, want.mats)
    assert np.array_equal(got.trace, want.trace)
    return got


def test_lattice_gramian_matches_the_regridded_dataset_route(monkeypatch):
    for F, target in _regrid_cases():
        _assert_lattice_field(F, target)
    dense = _files_layout(66)
    dead = _files_layout(69, dead=True)
    lats = [make_lattice(basis) for basis in _FILES_LATTICES]
    for lat in lats:
        _assert_lattice_field(dead, lat)
    _assert_lattice_field(dead.select_channels([]), lats[2])  # m = 0
    # blocks whose last one holds a single cell: of all target cells for
    # the trace pass, of the active cells for the Gramians
    R = _reference_regrid(dead, lats[2])
    for n in (R.grid.n_cells, gramian_field(R).n_active):
        # a block holds its m = 3 fibers per cell twice
        monkeypatch.setattr(fibers, "_BLOCK_BYTES", 32 * 3 * R.grid.n_offsets * (n - 1))
        assert n % _dataset_blocks(dead, fibers._regrid_layout(dead, lats[2]))[5] == 1
        for F in (dense, dead):
            _assert_lattice_field(F, lats[2])
    monkeypatch.undo()
    # the planted conjugation fault reaches every block
    monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", True)
    for lat in lats[1:]:
        broken = _assert_lattice_field(dead, lat)
        assert np.max(np.abs(broken.mats - broken.mats.conj().transpose(0, 2, 1))) > 1e-6


def _reference_project_then_solve(F, mask, ell, group=None):
    """project_then_solve before it read the band through a gather: the
    solve of the whole band-limited copy, F's values zeroed off the mask."""
    if group is not None:
        # the band check before it ran inside the solve
        if not _invariant(mask.bits, offset_permutations(mask.grid, group),
                          _cell_permutations(mask.grid, group)):
            raise ValueError("mask is not invariant under the group")
    PF = SpectralDataset(F.lattice, F.grid, np.where(mask.bits, F.values, 0.0),
                         check_finite=False, support=F.support)
    model, rep = best_gamma(PF, group, ell) if group is not None else best_sis(PF, ell)
    # residual_energy before it shared the band energy loop
    outside = np.array([(_abs2(F.values[i]) * ~mask.bits).sum() * F.grid.cell_weight
                        for i in range(F.m)])
    return model, rep, outside


def _assert_band_route(F, mask, ell, group=None):
    model, rep = project_then_solve(F, mask, ell, group=group)
    ref_model, ref, outside = _reference_project_then_solve(F, mask, ell, group)
    assert np.array_equal(residual_energy(F, mask), outside)
    assert np.array_equal(model.active_idx, ref_model.active_idx)
    assert np.array_equal(model.dims, ref_model.dims)
    assert np.array_equal(model.basis, ref_model.basis)
    assert rep.total_error == ref.total_error + float(outside.sum())
    assert np.array_equal(rep.per_channel, ref.per_channel + outside)
    assert np.array_equal(rep.active_idx, ref.active_idx)
    assert np.array_equal(rep.density, ref.density)
    assert rep.projected_error == ref.total_error
    assert rep.band_residual == float(outside.sum())


def _with_support(F, rng):
    """F zeroed off a random set of cells, which it is told as its support."""
    support = np.flatnonzero(rng.random(F.grid.n_cells) < 0.5)
    vals = np.zeros_like(F.values)
    vals[:, :, support] = F.values[:, :, support]
    return SpectralDataset(F.lattice, F.grid, vals, support=support)


def test_band_gather_matches_the_projected_copy():
    from pwsis import suites
    from pwsis.spectral import PWMask

    for k in range(60):
        rng = np.random.default_rng([71, k])
        F = suites._random_dataset(rng, m_max=4, r_max=6)
        for G in (F, _with_support(F, rng)):
            mask = PWMask(G.lattice, G.grid, rng.random((G.grid.n_offsets, G.grid.n_cells)) < 0.6)
            for ell in range(G.m + 2):
                _assert_band_route(G, mask, ell)
    # a synthesized support and the files layout with its disc band
    F, grid = _two_bumps(4)
    assert F.support is not None
    for ell in (0, 1, 2):
        _assert_band_route(F, pw_mask(interval(-1.0, 1.0), LAT_Z, grid), ell)
    F = _files_layout(70, dead=True)
    xi = F.grid.cell_vectors() / 64.0
    disc = (((xi[None] + F.grid.offsets[:, None]) - 0.5) ** 2).sum(axis=2) < 1.6 ** 2
    _assert_band_route(F, PWMask(F.lattice, F.grid, disc), 1)


def test_group_band_gather_matches_the_projected_copy():
    from pwsis.spectral import PWMask

    group = make_group([_ROT4, _FLIP])
    lat = make_lattice(np.eye(2))
    rng = np.random.default_rng(72)
    for r in (1, 2, 3, 4, 6):
        grid = make_grid(lat, r, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
        orbits = orbit_partition(grid, group).orbits
        for trial in range(4):
            m = int(rng.integers(1, 4))
            shape = (m, grid.n_offsets, grid.n_cells)
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if trial == 3:  # real integer data symmetrized: tied eigenvalues
                base = SpectralDataset(lat, grid, rng.integers(-2, 3, size=shape[1:])[None] + 0j)
                vals = symmetrize(base, group).values
            F = SpectralDataset(lat, grid, vals)
            bits = np.zeros(grid.n_offsets * grid.n_cells, dtype=bool)
            for o in orbits:
                bits[o] = rng.random() < 0.6
            mask = PWMask(lat, grid, bits.reshape(grid.n_offsets, grid.n_cells))
            for G in (F, _with_support(F, rng)):
                for ell in (0, 1, 2, 3 * F.m):
                    _assert_band_route(G, mask, ell, group)


def test_non_invariant_band_is_refused():
    from pwsis.spectral import PWMask

    rot, flip = _ROT4, _FLIP
    d4 = make_group([rot, flip])
    lat = make_lattice(np.eye(2))
    rng = np.random.default_rng(82)
    seen = set()
    for r in (1, 2, 3, 4):
        grid = make_grid(lat, r, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
        shape = (2, grid.n_offsets, grid.n_cells)
        F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        # bands invariant under a subgroup H, tried under H and under D4;
        # the solve refuses them exactly where some element maps a box and
        # its image to opposite sides of the band
        for gens in ([rot], [flip], [rot @ rot], [rot, flip]):
            sub = make_group(gens)
            for trial in range(6):
                bits = np.zeros(grid.n_offsets * grid.n_cells, dtype=bool)
                for o in orbit_partition(grid, sub).orbits:
                    bits[o] = rng.random() < 0.5
                if trial == 5:  # one bit flipped
                    bits[rng.integers(len(bits))] ^= True
                mask = PWMask(lat, grid, bits.reshape(grid.n_offsets, grid.n_cells))
                for group in (sub, d4):
                    fixed = _invariant(bits.reshape(grid.n_offsets, grid.n_cells),
                                       offset_permutations(grid, group),
                                       _cell_permutations(grid, group))
                    seen.add(fixed)
                    if fixed:
                        project_then_solve(F, mask, 1, group=group)
                    else:
                        with pytest.raises(ValueError,
                                           match="^mask is not invariant under the group$"):
                            project_then_solve(F, mask, 1, group=group)
    assert seen == {False, True}


def test_group_band_solve_holds_no_pair_table():
    from pwsis.spectral import PWMask

    # D4 with m = 3 on 3 x 3 offsets at r = 256: 28.3 MB of values; the
    # |G| x |K| r^d int64 table of (offset, cell) index maps alone is
    # 37.7 MB
    group = make_group([_ROT4, _FLIP])
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 256, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    rng = np.random.default_rng(83)
    shape = (3, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    table = 8 * len(group) * grid.n_offsets * grid.n_cells
    _, peak = traced_peak(lambda: project_then_solve(F, PWMask.full(lat, grid), 1,
                                                     group=group))
    assert peak < table


def test_compare_lattices_route_never_holds_the_target():
    F = _files_layout(73)
    for basis in _FILES_LATTICES[1:]:
        lat = make_lattice(basis)
        target = fibers._regrid_layout(F, lat)[0]
        nbytes = 16 * F.m * target.n_offsets * target.n_cells
        _, peak = traced_peak(lambda: solver._lattice_cut(F, lat)(1))
        assert peak < nbytes


def test_no_solve_holds_its_gramian_field():
    from pwsis.spectral import PWMask

    # m = 8 channels on K = {0} at r = 128: the Gramian field is 16,384
    # 8 x 8 complex matrices, 16 MB, against 2 MB of values and about 1 MB
    # per block
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 128, [[0, 0]])
    rng = np.random.default_rng(79)
    shape = (8, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    field = 16 * F.m * F.m * grid.n_cells
    mask = PWMask(lat, grid, rng.random((grid.n_offsets, grid.n_cells)) < 0.5)
    # the half-step lattice is refinement_inequality_check's; compare-lattices
    # is run on the re-basis
    for solve in (lambda: best_sis(F, 1), lambda: project_then_solve(F, mask, 1),
                  lambda: subspace_length(F), lambda: refinement_inequality_check(F, 2, 1),
                  lambda: solver._lattice_cut(F, make_lattice(_FILES_LATTICES[1]))(1)):
        _, peak = traced_peak(solve)
        assert peak < field


def test_band_solves_never_copy_the_dataset():
    from pwsis.spectral import PWMask

    # the files layout, 4.9 MB of values, and D4 with m = 6 on 5 x 5
    # offsets at r = 48, 5.5 MB, against about 1 MB per block
    F = _files_layout(74)
    mask = PWMask(F.lattice, F.grid, np.random.default_rng(75).random(
        (F.grid.n_offsets, F.grid.n_cells)) < 0.5)
    group = make_group([_ROT4, _FLIP])
    grid = make_grid(F.lattice, 48, F.grid.offsets)
    rng = np.random.default_rng(76)
    shape = (6, grid.n_offsets, grid.n_cells)
    Fg = SpectralDataset(F.lattice, grid, rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
    bits = np.zeros(grid.n_offsets * grid.n_cells, dtype=bool)
    for o in orbit_partition(grid, group).orbits:
        bits[o] = rng.random() < 0.25
    gmask = PWMask(F.lattice, grid, bits.reshape(grid.n_offsets, grid.n_cells))
    for data, band, g in ((F, mask, None), (Fg, gmask, group)):
        _, peak = traced_peak(lambda: project_then_solve(data, band, 1, group=g))
        assert peak < data.values.nbytes


def test_solve_then_project_clips_one_cell_at_a_time(monkeypatch):
    from pwsis.spectral import PWMask

    # m = 2, ell = 2 on 5 x 5 offsets at r = 64: the basis is 3.3 MB; with
    # the rank cut taken beforehand, the pass that builds, clips and
    # measures the rows holds the clipped basis it returns and one block,
    # not a second basis: clipping adds less than a quarter of the basis
    # to the peak of the same pass unclipped
    F = _files_layout(77).select_channels([0, 1])
    mask = PWMask(F.lattice, F.grid, np.random.default_rng(78).random(
        (F.grid.n_offsets, F.grid.n_cells)) < 0.5)
    want, _ = solve_then_project(F, mask, 2)
    cut = solver._eigen_cut(*_dataset_blocks(F), 2)
    monkeypatch.setattr(solver, "_eigen_cut", lambda *a: cut)
    (model, _, _, _), clipped = traced_peak(lambda: solver._solve(F, 2, clip=mask.bits))
    _, plain = traced_peak(lambda: solver._solve(F, 2))
    assert np.array_equal(model.basis, want.basis)
    assert clipped - plain < 0.25 * model.basis.nbytes


def test_solve_then_project_measures_one_error(monkeypatch):
    from pwsis.spectral import PWMask

    # the clipped model's error, and not the unclipped one's as well: one
    # pass over the fibers builds, clips and measures the rows
    F = _files_layout(79).select_channels([0, 1])
    mask = PWMask(F.lattice, F.grid, np.random.default_rng(80).random(
        (F.grid.n_offsets, F.grid.n_cells)) < 0.5)
    want = solve_then_project(F, mask, 2)
    calls = []
    fiber_pass = solver._fiber_pass
    monkeypatch.setattr(solver, "_fiber_pass",
                        lambda *a, **k: calls.append(a[5]) or fiber_pass(*a, **k))
    model, rep = solve_then_project(F, mask, 2)
    assert len(calls) == 1 and calls[0] is mask.bits
    monkeypatch.undo()
    assert np.array_equal(model.basis, want[0].basis)
    assert rep.total_error == want[1].total_error
    direct = error_against(F, model)
    assert rep.total_error == direct.total_error
    assert np.array_equal(rep.per_channel, direct.per_channel)


def _orthonormalize_rows(rows, drop=1e-12):
    """Modified Gram-Schmidt on the rows of one cell; rows with residual
    norm <= drop are removed (the per-cell loop solve_then_project ran)."""
    out = []
    for v in rows:
        v = v.copy()
        for u in out:
            v -= np.vdot(u, v) * u
        n = np.linalg.norm(v)
        if n > drop:
            out.append(v / n)
    if not out:
        return np.zeros((0, rows.shape[1]), dtype=np.complex128)
    return np.array(out)


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 4])
def test_block_gram_schmidt_matches_the_per_cell_loop(ell):
    from pwsis.spectral import PWMask

    # m = 3 on 3 x 3 offsets at r = 8 with dead cells.  The band keeps all
    # offsets at some cells, none at others, and one or two at others, where
    # the clipped rows are parallel or fill the plane and the rows after
    # them fall under the 1e-12 cut
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 8, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    rng = np.random.default_rng(91)
    shape = (3, grid.n_offsets, grid.n_cells)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[:, :, rng.random(grid.n_cells) < 0.2] = 0.0
    F = SpectralDataset(lat, grid, vals)
    kind = rng.integers(5, size=grid.n_cells)
    bits = rng.random((grid.n_offsets, grid.n_cells)) < 0.5
    bits[:, kind == 0] = True
    bits[:, kind == 1] = False
    for n_kept in (1, 2):
        for c in np.flatnonzero(kind == 1 + n_kept):
            bits[:, c] = False
            bits[rng.choice(grid.n_offsets, n_kept, replace=False), c] = True
    mask = PWMask(lat, grid, bits)

    model, rep = solve_then_project(F, mask, ell)
    solved, _ = best_sis(F, ell)
    assert np.array_equal(model.active_idx, solved.active_idx)
    dims = np.zeros_like(solved.dims)
    basis = np.zeros_like(solved.basis)
    for c, cell in enumerate(solved.active_idx):
        block = _orthonormalize_rows(solved.basis[c, :solved.dims[c]] * bits[:, cell])
        dims[c] = len(block)
        basis[c, :dims[c]] = block
    assert np.array_equal(model.dims, dims)
    assert np.max(np.abs(model.basis - basis), initial=0.0) <= 1e-12
    want = error_against(F, SubspaceModel(lat, grid, ell, solved.active_idx, basis, dims))
    assert abs(rep.total_error - want.total_error) <= 1e-12 * (1.0 + F.energy().sum())
    if ell >= 2:  # rows were dropped at the cut where one or two offsets stay
        few = np.isin(solved.active_idx, np.flatnonzero(kind >= 2))
        assert np.any(dims[few] < solved.dims[few]) and np.any(dims[few] > 0)


# The basis and error routes as they were before one pass built, clipped
# and measured the rows: _build_basis took the basis whole, a block of
# fibers at a time, and _captured gathered every fiber again to measure it.

def _two_pass_build_basis(gather, ef, ell):
    rows = min(ell, ef.m)
    na = ef.n_active
    nK = ef.grid.n_offsets
    if rows == 0 or na == 0:
        return np.zeros((na, rows, nK), dtype=np.complex128), np.zeros(na, dtype=np.int64)
    lam = ef.eigenvalues[:, :rows]
    cut = _RANK_CUT * ef.trace
    keep = lam > cut[:, None]
    dims = keep.sum(axis=1).astype(np.int64)
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, lam, 1.0)), 0.0)
    scaled = ef.vectors[:, :rows, :].conj() * inv_sqrt[:, :, None]
    basis = np.empty((na, rows, nK), dtype=np.complex128)
    step = _block_cells(ef.m, nK)
    for s in range(0, na, step):
        basis[s:s + step] = np.einsum("cji,ikc->cjk", scaled[s:s + step],
                                      gather(ef.active_idx[s:s + step]))
    basis[~keep] = 0.0
    return basis, dims


def _two_pass_captured(gather, m, model):
    na, rows, nK = model.basis.shape
    amp = np.empty((na, m, rows), dtype=np.complex128)
    step = _block_cells(m, nK)
    for s in range(0, na, step):
        amp[s:s + step] = np.einsum("cjk,ikc->cij", model.basis[s:s + step].conj(),
                                    gather(model.active_idx[s:s + step]))
    return _abs2(amp).sum(axis=(0, 2)) * model.grid.cell_weight


def _two_pass_unexplained(F, model):
    return F.energy() - _two_pass_captured(F._fibers, F.m, model)


def _two_pass_sis_model(F, ell):
    ef = solver._eigen_cut(*_dataset_blocks(F), ell)
    basis, dims = _two_pass_build_basis(F._fibers, ef, ell)
    return SubspaceModel(F.lattice, F.grid, ell, ef.active_idx, basis, dims), ef


def _two_pass_best_sis(F, ell):
    model, ef = _two_pass_sis_model(F, ell)
    per_channel = _two_pass_unexplained(F, model)
    return model, ApproxReport(ef.error, per_channel, active_idx=ef.active_idx,
                               density=ef.density)


def _two_pass_best_gamma(F, group, ell):
    n_group, m, nK = len(group), F.m, F.grid.n_offsets
    part = orbit_partition(F.grid, group, cells_only=True)
    reps, cell_perms = part.representatives, part.cell_perms
    off_perms = offset_permutations(F.grid, group)
    gather = fibers._symmetrized(F, group, cell_perms, off_perms)
    route = fibers._fiber_blocks(F.grid, m * n_group, reps, gather, fiber_side=True)
    _, _, active, trace, fiber_ops, _ = route
    ef = solver._eigen_cut(*route, ell)
    rows = min(ell, m * n_group)
    kept = min(rows, nK)
    live = ef.eigenvalues[:, :kept] > _RANK_CUT * trace[:, None]
    rep_basis = np.zeros((len(active), rows, nK), dtype=np.complex128)
    rep_basis[:, :kept] = ef.vectors[:, :kept] * live[:, :, None]
    rep_dims = live.sum(axis=1).astype(np.int64)
    if 0 < ell < nK:
        w = ef.eigenvalues
        for i in np.flatnonzero(w[:, ell - 1] - w[:, ell] < _TIE_GAP * trace):
            c = active[i]
            stab = off_perms[cell_perms[:, c] == c]
            if len(stab) > 1:
                vecs, ef.density[i] = solver._invariant_cut(fiber_ops(i, i + 1)[0], trace[i],
                                                            stab, rows)
                rep_basis[i] = 0.0
                rep_basis[i, :len(vecs)] = vecs
                rep_dims[i] = len(vecs)
    rep_pos = np.full(len(reps), -1, dtype=np.int64)
    rep_pos[np.searchsorted(reps, active)] = np.arange(len(active))
    cell_rep = rep_pos[part.orbit_index]
    all_active = np.flatnonzero(cell_rep >= 0)
    src = cell_rep[all_active]
    pos = np.searchsorted(all_active, cell_perms[:, ef.active_idx])
    basis = np.empty((len(all_active),) + rep_basis.shape[1:], dtype=np.complex128)
    for gi in range(n_group - 1, -1, -1):
        basis[pos[gi]] = rep_basis[:, :, off_perms[group.inverses[gi]]]
    model = SubspaceModel(F.lattice, F.grid, ell, all_active, basis, rep_dims[src],
                          group=group)
    per_channel = _two_pass_unexplained(F, model)
    return model, ApproxReport(float(per_channel.sum()), per_channel, active_idx=all_active,
                               density=ef.density[src] / n_group)


def _two_pass_error_against(F, model):
    per_channel = _two_pass_unexplained(F, model)
    return ApproxReport(float(per_channel.sum()), per_channel)


def _two_pass_project_then_solve(F, mask, ell, group=None):
    outside = residual_energy(F, mask)
    P = project_pw(F, mask)
    if group is not None:
        model, rep = _two_pass_best_gamma(P, group, ell)
    else:
        model, rep = _two_pass_best_sis(P, ell)
    total = rep.total_error + float(outside.sum())
    direct = _two_pass_error_against(F, model)
    assert abs(direct.total_error - total) <= 1e-9 * (1.0 + float(F.energy().sum()))
    return model, ApproxReport(total, rep.per_channel + outside, active_idx=rep.active_idx,
                               density=rep.density, projected_error=rep.total_error,
                               band_residual=float(outside.sum()))


def _two_pass_solve_then_project(F, mask, ell):
    model, _ = _two_pass_sis_model(F, ell)
    step = _block_cells(4, F.grid.n_offsets)
    for s in range(0, len(model.active_idx), step):
        model.dims[s:s + step] = solver._clip_orthonormalize(
            model.basis[s:s + step], mask.bits[:, model.active_idx[s:s + step]])
    return model, _two_pass_error_against(F, model)


def _assert_same_solution(got, want):
    (model, rep), (ref_model, ref) = got, want
    for field in ("active_idx", "dims", "basis"):
        a, b = getattr(model, field), getattr(ref_model, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rep.total_error == ref.total_error
    assert rep.per_channel.tobytes() == ref.per_channel.tobytes()
    for field in ("active_idx", "density"):
        a, b = getattr(rep, field), getattr(ref, field)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    assert rep.projected_error == ref.projected_error
    assert rep.band_residual == ref.band_residual


def _bit_cases():
    """Datasets with and without dead cells and a support, a synthesized
    one stored as pairs, and no channels at all."""
    rng = np.random.default_rng(97)
    lat = make_lattice(np.eye(2))
    cases = [_files_layout(98, dead=True).select_channels([0, 1])]
    for m, r, offs in ((3, 12, [[0, 0], [1, 0], [0, 1]]), (1, 8, [[0, 0]]),
                       (0, 4, [[0, 0], [1, 0]])):
        grid = make_grid(lat, r, offs)
        shape = (m, grid.n_offsets, grid.n_cells)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals[:, :, rng.random(grid.n_cells) < 0.3] = 0.0
        support = np.flatnonzero(np.abs(vals).sum(axis=(0, 1)))
        cases.append(SpectralDataset(lat, grid, vals, support=support))
    scene = Scene(2)
    scene.add(0, 1.0, Box([0.1, 0.2], [0.7, 0.9]))
    scene.add(1, 0.5 - 0.25j, Box([-0.5, 0.0], [0.3, 0.4]), mod=[0.3, -0.7])
    scene.add(1, 2.0, Box([0.0, 0.0], [0.25, 0.25]))
    F = synthesize(scene, lat, make_grid(lat, 32, [[a, b] for a in (-1, 0, 1)
                                                   for b in (-1, 0, 1)]))
    assert F._pairs is not None
    cases.append(F)
    return cases


@pytest.mark.parametrize("block_bytes", [None, 16 * 3 * 25 * 7, 32 * 3 * 25 * 7])
def test_solves_match_the_two_pass_basis_and_error_routes(monkeypatch, block_bytes):
    # every public solve returns the model and report the separate basis
    # and error passes gave, bit for bit, with default and with small blocks
    # (3 or 7 cells of the 25-offset, three-channel cases per block)
    from pwsis.spectral import PWMask

    if block_bytes is not None:
        monkeypatch.setattr(fibers, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(99)
    for F in _bit_cases():
        mask = PWMask(F.lattice, F.grid, rng.random((F.grid.n_offsets, F.grid.n_cells)) < 0.5)
        for ell in (0, 1, 2, 4):
            _assert_same_solution(best_sis(F, ell), _two_pass_best_sis(F, ell))
            _assert_same_solution(project_then_solve(F, mask, ell),
                                  _two_pass_project_then_solve(F, mask, ell))
            _assert_same_solution(solve_then_project(F, mask, ell),
                                  _two_pass_solve_then_project(F, mask, ell))
        model, _ = best_sis(F, 2)
        _assert_same_solution((model, error_against(F, model)),
                              (model, _two_pass_error_against(F, model)))
    lat = make_lattice(np.eye(2))
    for gens in ([_ROT4], [_ROT4, _FLIP]):
        group = make_group(gens)
        grid = make_grid(lat, 10, _closed_offsets(group, [[0, 0], [1, 0], [1, 1]]))
        part = orbit_partition(grid, group, cells_only=True)
        shape = (3, grid.n_offsets, grid.n_cells)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for o in part.orbits[::4]:
            vals[:, :, o] = 0.0
        F = SpectralDataset(lat, grid, vals)
        bits = np.zeros(grid.n_offsets * grid.n_cells, dtype=bool)
        for o in orbit_partition(grid, group).orbits:
            bits[o] = rng.random() < 0.5
        mask = PWMask(lat, grid, bits.reshape(grid.n_offsets, grid.n_cells))
        for ell in (0, 1, 2, 5):
            _assert_same_solution(best_gamma(F, group, ell), _two_pass_best_gamma(F, group, ell))
            _assert_same_solution(project_then_solve(F, mask, ell, group=group),
                                  _two_pass_project_then_solve(F, mask, ell, group))


def test_command_line_solves_hold_no_basis():
    # the command line's solves print the same reports from models that
    # keep only their cells and dims
    from pwsis.spectral import PWMask

    F = _files_layout(100, dead=True)
    mask = PWMask(F.lattice, F.grid, np.random.default_rng(101).random(
        (F.grid.n_offsets, F.grid.n_cells)) < 0.5)
    group = make_group([_ROT4, _FLIP])
    grid = make_grid(F.lattice, 8, F.grid.offsets)
    Fg = SpectralDataset(F.lattice, grid, np.random.default_rng(102).standard_normal(
        (2, grid.n_offsets, grid.n_cells)) + 0j)
    runs = [(lambda s: best_sis(F, 2, _store=s), best_sis(F, 2)),
            (lambda s: best_gamma(Fg, group, 1, _store=s), best_gamma(Fg, group, 1)),
            (lambda s: project_then_solve(F, mask, 2, _store=s),
             project_then_solve(F, mask, 2)),
            (lambda s: solve_then_project(F, mask, 2, _store=s),
             solve_then_project(F, mask, 2))]
    for run, (want_model, want) in runs:
        model, rep = run(False)
        assert model.basis is None
        assert np.array_equal(model.dims, want_model.dims)
        assert np.array_equal(model.active_idx, want_model.active_idx)
        assert rep.total_error == want.total_error
        assert np.array_equal(rep.per_channel, want.per_channel)


def test_lattice_cut_keeps_no_eigenvectors(monkeypatch):
    # compare-lattices reads only the error and length: the cut keeps
    # neither eigenvalues nor eigenvectors, and still orders ties per block,
    # so its density has the bits of the cut that keeps them.  m = 12
    # discards up to 11 eigenvalues, which numpy sums pairwise
    rng = np.random.default_rng(103)
    m = 12
    G = _tied_field(rng, 2 * _block_cells(m, m) + 37, m)
    for ell in (0, 1, 5, m - 1, m):
        args = (None, m, G.active_idx, G.trace, lambda s, e: G.mats[s:e],
                _block_cells(m, m), ell)
        full = solver._eigen_cut(*args)
        bare = solver._eigen_cut(*args, vectors=False)
        assert bare.eigenvalues is None and bare.vectors is None
        density = full.eigenvalues[:, ell:].sum(axis=1) if ell < m else np.zeros(G.n_active)
        assert bare.density.tobytes() == density.tobytes() == full.density.tobytes()
        assert bare.length == full.length
    F = _files_layout(104, dead=True)
    for basis in _FILES_LATTICES:
        layout = fibers._regrid_layout(F, make_lattice(basis))
        for block_bytes in (None, 32 * 3 * 9 * 97):
            if block_bytes is not None:
                monkeypatch.setattr(fibers, "_BLOCK_BYTES", block_bytes)
            full = solver._eigen_cut(*_dataset_blocks(F, layout), 1)
            bare = solver._lattice_cut(F, make_lattice(basis))(1)
            monkeypatch.undo()
            assert bare.vectors is None
            assert bare.error == full.error and bare.length == full.length
            assert bare.density.tobytes() == full.density.tobytes()
