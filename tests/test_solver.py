import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pwsis.fibers import gramian_field, symmetrize
from pwsis.lattice import make_group, make_lattice
from pwsis.solver import (best_gamma, best_sis, dilation_equivalence,
                          eigen_field, error_against, generators,
                          project_then_solve, refinement_inequality_check,
                          solve_then_project, subspace_length)
from pwsis.spectral import (Scene, SpectralDataset, interval, make_grid,
                            pw_mask, synthesize)

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
    ef = eigen_field(gramian_field(F))
    assert np.allclose(ef.eigenvalues, [[8.0, 2.0]], atol=EXACT_TOL)
    assert np.all(ef.eigenvalues[:, 0] >= ef.eigenvalues[:, 1])
    V = ef.vectors[0]
    assert np.allclose(V @ V.conj().T, np.eye(2), atol=1e-12)
    # top eigenvector of [[5,3],[3,5]] is the symmetric combination
    assert np.allclose(np.abs(V[0]), np.sqrt(0.5), atol=1e-12)


def test_eigen_field_is_deterministic():
    rng = np.random.default_rng(11)
    F = _random_1d(rng, m=3)
    a = eigen_field(gramian_field(F))
    b = eigen_field(gramian_field(F))
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
