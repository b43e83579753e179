from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pwsis import fibers, solver
from pwsis.fibers import GramianField, gramian_field, regrid_to_lattice, symmetrize
from pwsis.lattice import (Lattice, _cell_permutations, make_group, make_lattice,
                           offset_permutations, orbit_partition)
from pwsis.solver import (_RANK_CUT, _TIE_GAP, _block_cells, ApproxReport, SubspaceModel,
                          _order_ties, best_gamma, best_sis,
                          dilation_equivalence, eigen_field, error_against,
                          generators, project_then_solve,
                          refinement_inequality_check, solve_then_project,
                          subspace_length)
from pwsis.spectral import (FrequencyGrid, Scene, SpectralDataset, _abs2, interval,
                            make_grid, pw_mask, synthesize)

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


def _reference_eigen_field(G):
    """eigen_field as it was before the in-place row reorder: a separate
    contiguous copy of the transposed, reversed eigenvectors."""
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


def _assert_same_gamma(F, group, ell):
    model, rep = best_gamma(F, group, ell)
    ref_model, ref = _reference_best_gamma(F, group, ell)
    assert np.array_equal(model.active_idx, ref_model.active_idx)
    assert np.array_equal(model.basis, ref_model.basis)
    assert np.array_equal(model.dims, ref_model.dims)
    assert rep.total_error == ref.total_error
    assert np.array_equal(rep.per_channel, ref.per_channel)
    assert np.array_equal(rep.density, ref.density)
    assert np.array_equal(rep.active_idx, ref.active_idx)


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
                _assert_same_gamma(F, group, ell)


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
    for ell in (1, 2, 3, 5):
        _assert_same_gamma(F, group, ell)
    # one active orbit of several cells: a single representative is solved
    part = orbit_partition(grid, group, cells_only=True)
    big = max(part.orbits, key=len)
    vals = np.zeros_like(base.values)
    vals[:, :, big] = base.values[:, :, big] + 1.0
    for ell in (1, 2):
        _assert_same_gamma(SpectralDataset(lat, grid, vals), group, ell)


def _materialized_best_gamma(F, group, ell):
    """best_gamma as it was before its Gramians were built per block: the
    whole representative field from _gramian_on, then eigen_field."""
    n_group, m = len(group), F.m
    part = orbit_partition(F.grid, group, cells_only=True)
    reps = part.representatives
    cell_perms = part.perms
    off_perms = offset_permutations(F.grid, group)
    sym = np.empty((m * n_group, F.grid.n_offsets, len(reps)), dtype=np.complex128)
    for gi in range(n_group):
        inv = group.inverse_index(gi)
        sym[gi * m:(gi + 1) * m] = F.values[:, off_perms[inv][:, None],
                                            cell_perms[inv, reps][None, :]]
    G = fibers._gramian_on(F.grid, sym, reps)
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


def test_blocked_best_gamma_matches_materialized_field():
    # m|G| = 24 (C4) and 48 (D4): more representatives than one eigh block,
    # and a share of whole cell orbits zeroed so the active ones are gathered
    lat = make_lattice(np.eye(2))
    for gens, r, seed_ in (([_ROT4], 24, 60), ([_ROT4, _FLIP], 16, 61)):
        group = make_group(gens)
        grid = make_grid(lat, r, _closed_offsets(group, [[0, 0], [1, 0], [1, 1]]))
        part = orbit_partition(grid, group, cells_only=True)
        m = 6
        assert len(part.representatives) > _block_cells(m * len(group), m * len(group))
        rng = np.random.default_rng(seed_)
        shape = (m, grid.n_offsets, grid.n_cells)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dead = [o for o in part.orbits if rng.random() < 0.3]
        assert dead
        for o in dead:
            vals[:, :, o] = 0.0
        F = SpectralDataset(lat, grid, vals)
        for ell in (1, 3, m * len(group)):
            model, rep = best_gamma(F, group, ell)
            ref_model, ref = _materialized_best_gamma(F, group, ell)
            assert len(model.active_idx) < grid.n_cells
            assert np.array_equal(model.active_idx, ref_model.active_idx)
            assert np.array_equal(model.basis, ref_model.basis)
            assert np.array_equal(model.dims, ref_model.dims)
            assert rep.total_error == ref.total_error
            assert np.array_equal(rep.per_channel, ref.per_channel)
            assert np.array_equal(rep.density, ref.density)


def test_fiber_blocks_ending_in_a_single_cell_match_the_whole_array_route(monkeypatch):
    # _BLOCK_BYTES is set so that the fiber blocks of _build_basis and
    # _captured hold n - 1 of the n active cells: the last block is a
    # single cell, whose einsum must give the bits of the whole-array pass
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
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 16 * m * grid.n_offsets * (n - 1))
    for ell in (1, 2):
        model, rep = best_sis(F, ell)
        ef = eigen_field(gramian_field(F), ell)
        basis, dims = _ref_build_basis(F.values, ef.active_idx, ef, ell)
        assert np.array_equal(model.basis, basis) and np.array_equal(model.dims, dims)
        assert np.array_equal(rep.per_channel, F.energy() - _ref_captured(F.values, model))
        got, want = error_against(F, model), _ref_error_against(F, model)
        assert got.total_error == want.total_error
        assert np.array_equal(got.per_channel, want.per_channel)
    n_reps = len(part) - len(dead)
    assert n_reps > 2
    monkeypatch.setattr(solver, "_BLOCK_BYTES",
                        16 * m * len(group) * grid.n_offsets * (n_reps - 1))
    for ell in (1, 3):
        model, rep = best_gamma(F, group, ell)
        ref_model, ref = _materialized_best_gamma(F, group, ell)
        assert np.array_equal(model.basis, ref_model.basis)
        assert rep.total_error == ref.total_error
        assert np.array_equal(rep.per_channel, ref.per_channel)
        assert np.array_equal(rep.density, ref.density)


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

    def spy(va):
        mats = fibers._gramian_mats(va)
        blocks.append(mats)
        return mats

    monkeypatch.setattr(solver, "_gramian_mats", spy)
    for planted in (False, True):
        monkeypatch.setattr(fibers, "_BUG_GRAMIAN_NO_CONJ", planted)
        blocks.clear()
        best_gamma(F, group, 1)
        assert blocks
        dev = max(float(np.max(np.abs(b - b.conj().transpose(0, 2, 1)))) for b in blocks)
        assert (dev > 1e-6) == planted


def test_best_gamma_never_holds_the_whole_gramian_field():
    import tracemalloc

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
    tracemalloc.start()
    try:
        best_gamma(F, group, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_reps * 48 * 48 * 16


def test_best_gamma_never_holds_the_representatives_fibers():
    import tracemalloc

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
    tracemalloc.start()
    try:
        best_gamma(F, group, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * len(group) * grid.n_offsets * n_reps * 16


def test_eigen_field_matches_copying_reorder():
    # more cells than two eigh blocks, with exact ties at half of them
    rng = np.random.default_rng(55)
    m = 4
    n = 2 * _block_cells(m, m) + 188
    A = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    mats = A @ A.conj().transpose(0, 2, 1)
    mats[::2] = np.eye(m) * rng.integers(1, 3, size=(n + 1) // 2)[:, None, None]
    trace = np.trace(mats, axis1=1, axis2=2).real.copy()
    G = GramianField(None, m, np.arange(n), mats, trace)
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
    trace = np.trace(mats, axis1=1, axis2=2).real.copy()
    return GramianField(None, m, np.arange(n), mats, trace)


def test_eigen_field_rank_cut_matches_reference():
    rng = np.random.default_rng(57)
    m = 5
    fields = [_tied_field(rng, 2 * _block_cells(m, m) + 37, m),
              GramianField(None, m, np.arange(0), np.zeros((0, m, m), dtype=complex),
                           np.zeros(0))]
    for G in fields:
        w, Y = _reference_eigen_field(G)
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


def _eigvalsh_length(G):
    """subspace_length's rank path before it moved onto eigen_field."""
    if G.n_active == 0:
        return 0
    w = np.linalg.eigvalsh(G.mats)
    return int((w > 1e-9 * G.trace[:, None]).sum(axis=1).max())


def test_length_from_eigh_matches_eigvalsh_rank(monkeypatch):
    from pwsis import examples, fibers, suites

    # suite-style datasets: random lattices, offsets, dead cells
    for k in range(400):
        rng = np.random.default_rng([7, k])
        G = gramian_field(suites._random_dataset(rng, m_max=4, r_max=6))
        assert eigen_field(G, 0).length == _eigvalsh_length(G)
    # every Gramian the worked examples build, at their own resolutions
    seen = []
    real = fibers._gramian_on

    def spy(*args):
        G = real(*args)
        seen.append(G)
        return G

    monkeypatch.setattr(fibers, "_gramian_on", spy)
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


def test_regrid_offset_labels_match_the_rowwise_unique(monkeypatch):
    # the 300 refinement datasets, and the files benchmark's dataset layout
    # (d = 2, r = 64, offsets {-2..2}^2, m = 3) on its three lattices
    cases = []
    for trial in range(300):
        F, N, _ = _refinement_case(trial)
        cases.append((F, Lattice(F.lattice.basis / N)))
    lat = make_lattice(np.eye(2))
    grid = make_grid(lat, 64, [[a, b] for a in range(-2, 3) for b in range(-2, 3)])
    rng = np.random.default_rng(66)
    shape = (3, grid.n_offsets, grid.n_cells)
    F = SpectralDataset(lat, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for basis in (np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.eye(2) / 2):
        cases.append((F, make_lattice(basis)))
    new_label = fibers._label_offsets
    calls = []
    labelled = 0

    def spy(k2):
        got = new_label(k2)
        calls.append((k2, got))
        return got

    for F, target in cases:
        calls.clear()
        monkeypatch.setattr(fibers, "_label_offsets", spy)
        new = regrid_to_lattice(F, target)
        monkeypatch.setattr(fibers, "_label_offsets", _rowwise_label_offsets)
        old = regrid_to_lattice(F, target)
        for k2, (K2, labels) in calls:
            want_K2, want_labels = _rowwise_label_offsets(k2)
            assert np.array_equal(K2, want_K2) and np.array_equal(labels, want_labels)
        labelled += len(calls)
        assert np.array_equal(new.grid.offsets, old.grid.offsets)
        assert np.array_equal(new.values, old.values)
    # every target but the dataset's own lattice is regridded
    assert labelled == len(cases) - 1
