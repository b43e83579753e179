import numpy as np
import pytest

from conftest import traced_peak
from pwsis.lattice import make_lattice
from pwsis.solver import SubspaceModel, error_against
from pwsis.spectral import PWMask, SpectralDataset, make_grid
from pwsis.suites import _model_errors, _random_dataset, _random_models


def _loop_random_model(rng, F, ell, mask=None):
    """The random model one cell at a time, one QR per cell, as the suites
    drew it before the batched draw: (basis, dims)."""
    grid = F.grid
    nc, nK = grid.n_cells, grid.n_offsets
    basis = np.zeros((nc, ell, nK), dtype=np.complex128)
    dims = np.zeros(nc, dtype=np.int64)
    for c in range(nc):
        avail = np.arange(nK) if mask is None else np.flatnonzero(mask.bits[:, c])
        d_c = min(ell, avail.size)
        if d_c:
            Mx = rng.normal(size=(avail.size, d_c)) + 1j * rng.normal(size=(avail.size, d_c))
            Q = np.linalg.qr(Mx)[0]
            for j in range(d_c):
                basis[c, j, avail] = Q[:, j]
        dims[c] = d_c
    return basis, dims


def _instance(seed, d, vacuous=False, masked=False):
    rng = np.random.default_rng([seed, d, vacuous, masked])
    F = _random_dataset(rng, d=d, m_max=3, k_max=4, r_max=5, vacuous=vacuous)
    mask = None
    if masked:
        bits = rng.random((F.grid.n_offsets, F.grid.n_cells)) < 0.5
        bits[:, 0] = False  # a cell with no offset in the band
        mask = PWMask(F.lattice, F.grid, bits)
    return F, mask


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("vacuous", [False, True])
def test_batched_models_match_the_per_cell_loop(masked, d, vacuous):
    for seed in (1, 7, 11, 13):
        F, mask = _instance(seed, d, vacuous, masked)
        count = 1 if masked else 5
        for ell in (0, 1, 2, F.grid.n_offsets + 1):
            ref_rng = np.random.default_rng([seed, ell])
            rng = np.random.default_rng([seed, ell])
            loop = [_loop_random_model(ref_rng, F, ell, mask) for _ in range(count)]
            basis, dims = _random_models(rng, F, ell, count, mask)
            assert basis.shape == (count, F.grid.n_cells, ell, F.grid.n_offsets)
            assert np.array_equal(basis, np.stack([b for b, _ in loop]))
            assert np.array_equal(dims, loop[0][1])
            # the same stream, drawn to the same point
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_batched_errors_match_error_against():
    for seed in (2, 3, 5):
        for d in (1, 2):
            F, mask = _instance(seed, d, masked=seed == 5)
            energy = float(F.energy().sum())
            ell = min(2, F.m)
            basis, dims = _random_models(np.random.default_rng(seed), F, ell, 20, mask)
            errors = _model_errors(F, basis)
            assert errors.shape == (20,)
            for b, err in zip(basis, errors):
                model = SubspaceModel(F.lattice, F.grid, ell, np.arange(F.grid.n_cells),
                                      b, dims)
                assert abs(err - error_against(F, model).total_error) <= 1e-12 * (1.0 + energy)


def test_random_models_and_their_errors_hold_few_copies_of_the_models():
    # the eckart-young suite's largest instances: m = 3, |K| = 3, 3 cells and
    # 1000 models of length 3; with the complex sum of the real and imaginary
    # draws and a conjugate copy of the models the traced peak was 7.4 times
    # the models' size, without them it is 6.4
    lat = make_lattice(np.eye(1))
    F = SpectralDataset(lat, make_grid(lat, 3, [[-1], [0], [1]]),
                        np.random.default_rng(0).normal(size=(3, 3, 3)) + 0j)
    errors, peak = traced_peak(
        lambda: _model_errors(F, _random_models(np.random.default_rng(1), F, 3, 1000)[0]))
    assert errors.shape == (1000,)
    assert peak < 6.8 * (1000 * 3 * 3 * 3 * 16)
