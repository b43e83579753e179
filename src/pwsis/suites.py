"""Randomized self-check suites behind the `check` verb.

Each suite runs numbered instances off a deterministic per-instance RNG
stream, so a failure is replayable from (suite, seed, index); failing
instances that carry a dataset are also written to a replay file.  Instance
0 of every suite is vacuous (an empty or zero dataset) and must pass.
"""

import itertools
import math

import numpy as np

from .lattice import (Lattice, _cell_permutations, _invariant, make_group, make_lattice,
                      offset_permutations, orbit_partition, reduce_to_fundamental)
from .spectral import (PWMask, SpectralDataset, _abs2, make_grid, project_pw,
                       residual_energy)
from . import fibers
from .fibers import (dilation_transport, gramian_covariance_check,
                     gramian_field, membership_test, symmetrize)
from .solver import (_TIE_GAP, SubspaceModel, best_gamma, best_sis, eigen_field,
                     error_against, project_then_solve,
                     refinement_inequality_check)
from .omega import best_omega, best_omega_invariant, energy_density, omega_duality_check
from . import textio

__all__ = ["SuiteResult", "run_property_suites", "SUITE_NAMES"]


class _CheckFailure(Exception):
    def __init__(self, message, dataset=None):
        super().__init__(message)
        self.dataset = dataset


def _check(cond, message, dataset=None):
    if not cond:
        raise _CheckFailure(message, dataset)


class SuiteResult:
    def __init__(self, name, count):
        self.name = name
        self.count = count
        self.failures = []

    @property
    def passed(self):
        return not self.failures


# ---------------------------------------------------------------------------
# random inputs

def _random_lattice(rng, d):
    while True:
        B = rng.normal(size=(d, d)) + 0.5 * np.eye(d)
        if abs(np.linalg.det(B)) > 0.3:
            return make_lattice(B)


def _random_offsets(rng, d, k_max):
    cands = np.array(list(itertools.product(range(-2, 3), repeat=d)), dtype=np.int64)
    nonzero = cands[np.any(cands != 0, axis=1)]
    n = int(rng.integers(1, k_max + 1))
    extra = rng.choice(len(nonzero), size=n - 1, replace=False) if n > 1 else []
    return np.vstack([np.zeros((1, d), dtype=np.int64), nonzero[list(extra)]])


def _random_dataset(rng, d=None, m_max=3, k_max=3, r_max=8, vacuous=False):
    if d is None:
        d = int(rng.integers(1, 3))
    r = int(rng.integers(1, r_max + 1))
    lat = _random_lattice(rng, d)
    grid = make_grid(lat, r, _random_offsets(rng, d, k_max))
    m = 0 if vacuous else int(rng.integers(1, m_max + 1))
    shape = (m, grid.n_offsets, grid.n_cells)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if m and rng.random() < 0.5:
        dead = rng.random(grid.n_cells) < 0.3
        vals[:, :, dead] = 0.0
    return SpectralDataset(lat, grid, vals)


_D4_POOLS = (
    lambda: [np.eye(2, dtype=int)],
    lambda: [-np.eye(2, dtype=int)],
    lambda: [np.array([[0, -1], [1, 0]])],
    lambda: [np.array([[1, 0], [0, -1]])],
    lambda: [np.array([[0, 1], [1, 0]])],
    lambda: [np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])],
)


def _random_group(rng):
    return make_group(_D4_POOLS[int(rng.integers(0, len(_D4_POOLS)))]())


def _random_group_dataset(rng, vacuous=False, r_max=4):
    """d=2 dataset on a group-closed symmetric offset box, plus the group."""
    group = _random_group(rng)
    b = int(rng.integers(0, 2))
    side = np.arange(-b, b + 1)
    offs = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    r = int(rng.integers(1, r_max + 1))
    lat = _random_lattice(rng, 2)
    grid = make_grid(lat, r, offs)
    m = 0 if vacuous else int(rng.integers(1, 3))
    shape = (m, grid.n_offsets, grid.n_cells)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SpectralDataset(lat, grid, vals), group


def _random_models(rng, F, ell, count=1, mask=None):
    """count random models of length ell on F's grid, as (basis, dims) of
    SubspaceModel with basis (count, cells, ell, |K|): at each cell the Q of
    a complex Gaussian a x min(ell, a) matrix, on the cell's a mask-true
    offsets (all offsets without a mask).  All draws come from one
    rng.normal call, in the order of one model at a time, one cell at a
    time, real parts before imaginary parts; the QRs run as one stack per
    matrix shape."""
    grid = F.grid
    nc, nK = grid.n_cells, grid.n_offsets
    bits = np.ones((nK, nc), dtype=bool) if mask is None else mask.bits
    avail = bits.sum(axis=0)
    dims = np.minimum(avail, ell)
    sizes = 2 * avail * dims
    draws = rng.normal(size=(count, int(sizes.sum())))
    starts = np.cumsum(sizes) - sizes
    basis = np.zeros((count, nc, ell, nK), dtype=np.complex128)
    for a, d in set(zip(avail.tolist(), dims.tolist())):
        if not d:
            continue
        cells = np.flatnonzero((avail == a) & (dims == d))
        Mx = draws[:, starts[cells, None] + np.arange(2 * a * d)].reshape(count, -1, 2, a, d)
        Q = np.linalg.qr(Mx[:, :, 0] + 1j * Mx[:, :, 1])[0]
        offs = np.nonzero(bits[:, cells].T)[1].reshape(-1, 1, a)
        basis[:, cells[:, None, None], np.arange(d)[:, None], offs] = Q.swapaxes(2, 3)
    return basis, dims


def _model_errors(F, basis):
    """The total error of F against each of a stack of models' bases, by
    the formula of error_against: energy minus captured amplitudes."""
    amp = np.einsum("ncjk,ikc->ncij", basis.conj(), F.values)
    return (F.energy() - _abs2(amp).sum(axis=(1, 3)) * F.grid.cell_weight).sum(axis=1)


def _energy(F):
    return float(F.energy().sum())


# ---------------------------------------------------------------------------
# suites

def _suite_lattice(rng, k, res):
    d = int(rng.integers(1, 3))
    lat = _random_lattice(rng, d)
    _check(np.max(np.abs(lat.basis.T @ lat.dual_basis - np.eye(d))) < 1e-10,
           "dual basis identity violated")
    xi = rng.normal(size=(8, d)) * 3.0
    for row in xi:
        u, kk = reduce_to_fundamental(lat, row)
        _check(np.all(u >= 0.0) and np.all(u < 1.0), "fundamental cell coordinate outside [0,1)")
        back = lat.dual_basis @ (u + kk)
        _check(np.max(np.abs(back - row)) <= 1e-9 * (1.0 + np.max(np.abs(row))),
               "fundamental reduction does not recompose")

    group = _random_group(rng)
    n = len(group)
    _check(np.array_equal(group.elements[0], np.eye(2, dtype=np.int64)), "identity not first")
    for gi in range(n):
        inv = group.inverse_index(gi)
        _check(np.array_equal(group.duals[gi] @ group.duals[inv], np.eye(2, dtype=np.int64)),
               "inverse index wrong")

    grid = make_grid(_random_lattice(rng, 2), int(rng.integers(1, 5)),
                     np.array(list(itertools.product((-1, 0, 1), repeat=2))))
    part = orbit_partition(grid, group)
    total = grid.n_offsets * grid.n_cells
    _check(int(part.sizes.sum()) == total, "orbit sizes do not cover the grid")
    _check(all(n % int(s) == 0 for s in part.sizes), "orbit size does not divide group order")
    _check(np.array_equal(np.sort(np.concatenate(part.orbits)), np.arange(total)),
           "orbits are not a partition")
    for oi, members in enumerate(part.orbits):
        _check(int(members[0]) == int(part.representatives[oi]), "representative not the minimum")
        _check(np.all(part.orbit_index[members] == oi), "orbit_index inconsistent")

    # the index action is a homomorphism: the permutation of a product is the
    # composition of the permutations
    perms = _cell_permutations(grid, group)
    for a in range(n):
        for b in range(n):
            prod = group.duals[a] @ group.duals[b]
            pi = next(i for i in range(n) if np.array_equal(group.duals[i], prod))
            _check(np.array_equal(perms[a][perms[b]], perms[pi]), "cell action not a homomorphism")

    if k == 1:
        try:
            make_group([np.array([[1, 1], [0, 1]])])
            _check(False, "infinite group not rejected")
        except ValueError as e:
            _check("not finite" in str(e), "wrong infinite-group error")
        try:
            make_group([np.array([[2, 0], [0, 1]])])
            _check(False, "non-unimodular matrix not rejected")
        except ValueError:
            pass


def _suite_roundtrip(rng, k, res):
    F = _random_dataset(rng, vacuous=(k == 0))
    back = textio.parse_dataset(textio.format_dataset(F))
    _check(np.array_equal(back.values, F.values), "dataset values not byte-stable", F)
    _check(np.array_equal(back.grid.offsets, F.grid.offsets), "offsets changed", F)
    _check(back.grid.r == F.grid.r, "resolution changed", F)
    _check(np.array_equal(back.lattice.basis, F.lattice.basis), "lattice changed", F)

    bits = rng.random((F.grid.n_offsets, F.grid.n_cells)) < 0.4
    mask = PWMask(F.lattice, F.grid, bits)
    mback = textio.parse_mask(textio.format_mask(mask))
    _check(np.array_equal(mback.bits, mask.bits), "mask bits not byte-stable", F)

    sc = textio.parse_scene("# comment\nchannel 0 coeff 1.5 -2.0 interval -1 2.25\n"
                            "channel 1 coeff 0 1 interval 0 1 mod 0.25\n")
    _check(sc.n_channels == 2 and len(sc.terms) == 2, "scene parse miscounted")

    if k == 1:
        bad = [
            "pwsis-dataset v2\n",
            "pwsis-dataset v1\ndim 0\n",
            "pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 1\noffsets 1\n0\nchannels 1\n1.0\n",
            "pwsis-dataset v1\ndim 1\nlattice 1.0\nresolution 1\noffsets 2\n0\n0\nchannels 0\n",
            "pwsis-dataset v1\ndim 1\nlattice 0.0\nresolution 1\noffsets 1\n0\nchannels 0\n",
        ]
        for text in bad:
            try:
                textio.parse_dataset(text)
                _check(False, "malformed dataset accepted: %r" % text[:40])
            except ValueError:
                pass
        try:
            textio.parse_mask("pwsis-mask v1\ndim 1\nlattice 1.0\nresolution 1\noffsets 1\n0\n2\n")
            _check(False, "bad mask bit accepted")
        except ValueError:
            pass


def _suite_projection(rng, k, res):
    F = _random_dataset(rng, d=1, m_max=3, k_max=3, r_max=8, vacuous=(k == 0))
    grid = F.grid
    bits = rng.random((grid.n_offsets, grid.n_cells)) < rng.uniform(0.2, 0.9)
    mask = PWMask(F.lattice, grid, bits)
    energy = _energy(F)

    PF = project_pw(F, mask)
    _check(np.array_equal(project_pw(PF, mask).values, PF.values), "projection not idempotent", F)
    split = _energy(PF) + float(residual_energy(F, mask).sum())
    _check(abs(split - energy) <= 1e-9 * (1.0 + energy), "projection energy split broken", F)

    ell = int(rng.integers(0, 4))
    basis, dims = _random_models(rng, F, ell, mask=mask)
    S = SubspaceModel(F.lattice, grid, ell, np.arange(grid.n_cells), basis[0], dims)
    lhs = error_against(F, S).total_error
    rhs = error_against(PF, S).total_error + float(residual_energy(F, mask).sum())
    _check(abs(lhs - rhs) <= 1e-9 * max(energy, 1e-30) if energy else lhs == rhs == 0.0,
           "in-band error identity violated: |%.17g - %.17g|" % (lhs, rhs), F)

    _, rep = project_then_solve(F, mask, ell)
    _check(rep.total_error <= lhs + 1e-9 * (1.0 + energy),
           "project-then-solve beaten by a random in-band model", F)
    _check(abs(rep.total_error - float(rep.per_channel.sum())) <= 1e-9 * (1.0 + energy),
           "report total does not match per-channel sum", F)


def _suite_covariance(rng, k, res):
    F = _random_dataset(rng, vacuous=(k == 0))
    d = F.grid.d
    while True:
        A = rng.normal(size=(d, d))
        if 0.3 < abs(np.linalg.det(A)) < 5.0:
            break
    energy = _energy(F)

    dev = gramian_covariance_check(F, A)
    _check(dev <= 1e-10, "Gramian covariance deviation %.3g" % dev, F)

    D = dilation_transport(F, A)
    scale = abs(np.linalg.det(A)) ** -0.5
    _check(np.max(np.abs(D.values - scale * F.values), initial=0.0) <= 1e-10 * (1.0 + np.max(np.abs(F.values), initial=0.0)),
           "fiber transport identity violated", F)
    _check(abs(_energy(D) - energy) <= 1e-9 * (1.0 + energy), "transport not unitary", F)

    ell = int(rng.integers(0, F.m + 1)) if F.m else 0
    e1, e2 = best_sis(F, ell)[1].total_error, best_sis(D, ell)[1].total_error
    _check(abs(e1 - e2) <= 1e-9 * max(energy, 1e-30) if energy else e1 == e2 == 0.0,
           "dilated optimum differs: %.17g vs %.17g" % (e1, e2), F)

    G = gramian_field(F)
    tr = 1.0 + (float(G.trace.max()) if G.n_active else 0.0)
    if G.n_active:
        herm = np.max(np.abs(G.mats - G.mats.conj().transpose(0, 2, 1)))
        _check(herm <= 1e-12 * tr, "Gramian not Hermitian", F)
        wmin = float(np.linalg.eigvalsh(G.mats).min())
        _check(wmin >= -1e-10 * tr, "Gramian not PSD: min eig %.3g" % wmin, F)
        diag = np.einsum("cii->c", G.mats).real
        _check(np.max(np.abs(diag - G.trace)) <= 1e-12 * tr, "trace mismatch", F)

        ef = eigen_field(G, G.m)
        recon = np.einsum("cj,cji,cjl->cil", ef.eigenvalues, ef.vectors, ef.vectors.conj())
        _check(np.max(np.abs(recon - G.mats)) <= 1e-9 * tr, "eigen reconstruction off", F)
        _check(np.all(np.diff(ef.eigenvalues, axis=1) <= 1e-12 * tr), "eigenvalues not descending", F)
        _check(float(ef.eigenvalues.min()) >= 0.0, "negative eigenvalue survived clamping", F)

    if F.m and G.n_active:
        planted = fibers._BUG_GRAMIAN_NO_CONJ
        fibers._BUG_GRAMIAN_NO_CONJ = True
        try:
            GB = gramian_field(F)
            broken = np.max(np.abs(GB.mats - GB.mats.conj().transpose(0, 2, 1)), initial=0.0)
        finally:
            fibers._BUG_GRAMIAN_NO_CONJ = planted
        _check(broken > 1e-12 * tr, "conjugation debug hook went undetected", F)


def _suite_eckart_young(rng, k, res):
    F = _random_dataset(rng, d=1, m_max=3, k_max=3, r_max=4, vacuous=(k == 0))
    energy = _energy(F)
    totals = []
    for ell in range(F.m + 2):
        model, rep = best_sis(F, ell)
        totals.append(rep.total_error)
        _check(abs(rep.total_error - float(rep.per_channel.sum())) <= 1e-9 * (1.0 + energy),
               "report total inconsistent at ell=%d" % ell, F)
        direct = error_against(F, model).total_error
        _check(abs(rep.total_error - direct) <= 1e-9 * (1.0 + energy),
               "density route disagrees with direct errors at ell=%d" % ell, F)
    _check(abs(totals[0] - energy) <= 1e-12 * (1.0 + energy), "ell=0 must leave all energy", F)
    _check(totals[-1] <= 1e-12 * (1.0 + energy), "full length must capture everything", F)
    _check(all(totals[i + 1] <= totals[i] + 1e-12 * (1.0 + energy) for i in range(len(totals) - 1)),
           "optimum not monotone in the length", F)

    ell = int(rng.integers(0, F.m + 1)) if F.m else 0
    best = best_sis(F, ell)[1].total_error
    errors = _model_errors(F, _random_models(rng, F, ell, 1000 if F.m else 1)[0])
    beaten = errors[~(best <= errors + 1e-12 * (1.0 + energy))]
    if beaten.size:
        raise _CheckFailure("a random model beat the solver: %.17g < %.17g"
                            % (beaten[0], best), F)


def _suite_refinement(rng, k, res):
    N = int(rng.integers(2, 5))
    r = N * int(rng.integers(1, 3))
    d = int(rng.integers(1, 3))
    lat = _random_lattice(rng, d)
    grid = make_grid(lat, r, _random_offsets(rng, d, 3))
    m = 0 if k == 0 else int(rng.integers(1, 4))
    shape = (m, grid.n_offsets, grid.n_cells)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    F = SpectralDataset(lat, grid, vals)
    ell = int(rng.integers(0, m + 1)) if m else 0

    fine, coarse = refinement_inequality_check(F, N, ell)
    _check(fine <= coarse + 1e-10, "refinement increased the optimum: %.17g > %.17g" % (fine, coarse), F)
    same = refinement_inequality_check(F, 1, ell)
    _check(same[0] == same[1], "N=1 must be an exact no-op", F)

    if k == 1:
        lat = make_lattice([[1.0]])
        bad = SpectralDataset(lat, make_grid(lat, 3, [[0]]), np.zeros((1, 1, 3), complex))
        try:
            refinement_inequality_check(bad, 2, 1)
            _check(False, "indivisible resolution accepted")
        except ValueError as e:
            _check("indivisible resolution" in str(e), "wrong indivisibility error")


def _suite_membership(rng, k, res):
    F = _random_dataset(rng, m_max=2, vacuous=(k == 0))
    if F.m == 0:
        return
    grid = F.grid
    # a per-cell scalar multiple of a generator stays inside its space
    mult = rng.normal(size=grid.n_cells) + 1j * rng.normal(size=grid.n_cells)
    inside = SpectralDataset(F.lattice, grid, F.values[:1] * mult[None, None, :])
    _check(membership_test(inside, 0, F, 0), "scalar multiple rejected", F)
    _check(membership_test(F, 0, F, 0), "generator not inside its own space", F)
    alpha, beta = 10.0 ** rng.integers(-6, 7), 10.0 ** rng.integers(-6, 7)
    scaled_f = SpectralDataset(F.lattice, grid, alpha * inside.values)
    scaled_psi = SpectralDataset(F.lattice, grid, beta * F.values)
    _check(membership_test(scaled_f, 0, scaled_psi, 0), "membership not scale-invariant", F)

    zero = SpectralDataset(F.lattice, grid, np.zeros_like(F.values[:1]))
    _check(membership_test(zero, 0, F, 0), "zero channel rejected", F)

    if grid.n_offsets >= 2:
        other = SpectralDataset(F.lattice, grid,
                                (rng.normal(size=F.values[:1].shape)
                                 + 1j * rng.normal(size=F.values[:1].shape)))
        _check(not membership_test(other, 0, F, 0), "independent channel accepted", F)

    hole = F.values[:1].copy()
    hole[0, :, 0] = 0.0
    psi_hole = SpectralDataset(F.lattice, grid, hole)
    probe = np.zeros_like(hole)
    probe[0, 0, 0] = 1.0
    _check(not membership_test(SpectralDataset(F.lattice, grid, probe), 0, psi_hole, 0),
           "nonzero fiber accepted over a vanishing generator fiber", F)


def _suite_equivariance(rng, k, res):
    F, group = _random_group_dataset(rng, vacuous=(k == 0))
    grid = F.grid
    n = len(group)
    energy = _energy(F)

    sym = symmetrize(F, group)
    _check(sym.m == n * F.m, "symmetrized channel count wrong", F)
    if F.m:
        _check(np.array_equal(sym.values[:F.m], F.values), "identity block not an exact copy", F)
        for gi in range(n):
            for i in range(F.m):
                _check(abs(sym.energy(gi * F.m + i) - F.energy(i)) <= 1e-12 * (1.0 + energy),
                       "symmetrized channel changed energy", F)
        sym2 = symmetrize(sym, group)
        for g2 in range(n):
            for g1 in range(n):
                prod = group.elements[g2] @ group.elements[g1]
                p = next(i for i in range(n) if np.array_equal(group.elements[i], prod))
                for i in range(F.m):
                    _check(np.array_equal(sym2.values[g2 * sym.m + g1 * F.m + i],
                                          sym.values[p * F.m + i]),
                           "double symmetrization is not the product relabeling", F)

    cell_perms = _cell_permutations(grid, group)
    off_perms = offset_permutations(grid, group)
    G = gramian_field(sym)
    if G.n_active == grid.n_cells and F.m:
        tr = 1.0 + float(G.trace.max())
        for gi in range(n):
            # channels permute among themselves and offsets reindex, leaving
            # the symmetrized Gramian equal at matched cells up to channel
            # relabeling; check the relabel-free invariant instead: traces
            _check(np.max(np.abs(G.trace[cell_perms[gi]] - G.trace)) <= 1e-12 * tr,
                   "symmetrized trace field not invariant", F)

    ell = int(rng.integers(0, 3))
    model, rep = best_gamma(F, group, ell)
    _check(abs(rep.total_error - float(rep.per_channel.sum())) <= 1e-9 * (1.0 + energy),
           "group report total inconsistent", F)
    bound = float(rep.density.sum() * grid.cell_weight) if F.m else 0.0
    _check(bound <= rep.total_error + 1e-9 * (1.0 + energy),
           "per-orbit bound exceeds the measured group error", F)
    _, plain = best_sis(F, ell)
    _check(plain.total_error <= rep.total_error + 1e-9 * (1.0 + energy),
           "group-constrained optimum beat the unconstrained one", F)

    trivial = make_group([np.eye(2, dtype=int)])
    mt, rt = best_gamma(F, trivial, ell)
    _check(abs(rt.total_error - best_sis(F, ell)[1].total_error) <= 1e-12 * (1.0 + energy),
           "trivial group does not match the plain solver", F)

    if F.m and model.basis.shape[1]:
        _check(np.array_equal(model.active_idx, G.active_idx),
               "group model active set differs from the Gramian's", F)
        pos_of = {int(c): i for i, c in enumerate(model.active_idx)}
        ef = eigen_field(G, 0)
        lam = ef.eigenvalues
        # the projector comparison below is conditioned by the gap at the
        # cut, so a cell whose cut falls in a narrow but open gap is skipped;
        # a cut that splits a tie is compared, since best_gamma keeps whole
        # irreducible pieces there
        checkable = np.empty(lam.shape[0], dtype=bool)
        for i in range(lam.shape[0]):
            cut = int(model.dims[i])
            if cut <= 0 or cut >= sym.m:
                checkable[i] = True
            else:
                gap = lam[i, cut - 1] - lam[i, cut]
                tr = max(float(ef.trace[i]), 1e-30)
                checkable[i] = gap < _TIE_GAP * tr or gap > 1e-6 * tr
        for gi in range(n):
            for i, c in enumerate(model.active_idx):
                img = int(cell_perms[gi][c])
                if img not in pos_of:
                    _check(False, "active set not group-closed", F)
                j = pos_of[img]
                if not (checkable[i] and checkable[j]):
                    continue
                B1 = model.basis[j]
                B2 = model.basis[i][:, off_perms[group.inverse_index(gi)]]
                P1 = B1.conj().T @ B1
                P2 = B2.conj().T @ B2
                _check(np.max(np.abs(P1 - P2)) <= 1e-9 * (1.0 + energy),
                       "model projectors not equivariant", F)

    inv_bits = np.zeros(grid.n_offsets * grid.n_cells, dtype=bool)
    part = orbit_partition(grid, group)
    chosen = [o for o in part.orbits if rng.random() < 0.5]
    for o in chosen:
        inv_bits[o] = True
    inv_mask = PWMask(F.lattice, grid, inv_bits.reshape(grid.n_offsets, grid.n_cells))
    if F.m:
        project_then_solve(F, inv_mask, 1, group=group)
    flip = inv_bits.copy()
    big = max(part.orbits, key=len)
    if len(big) > 1:
        flip[big[0]] = not flip[big[0]]
        try:
            project_then_solve(F, PWMask(F.lattice, grid, flip.reshape(inv_mask.bits.shape)),
                               1, group=group)
            _check(False, "non-invariant mask accepted", F)
        except ValueError as e:
            _check("not invariant" in str(e), "wrong mask invariance error", F)


def _suite_omega(rng, k, res):
    F = _random_dataset(rng, d=1, m_max=2, k_max=3, r_max=8, vacuous=(k == 0))
    grid = F.grid
    total = grid.n_offsets * grid.n_cells
    phi = energy_density(F).phi.ravel()
    w = grid.cell_weight

    n = int(rng.integers(0, total + 1))
    mask, attained = best_omega(energy_density(F), n * w)
    _check(int(mask.bits.sum()) == n, "selected box count wrong", F)
    sel = np.flatnonzero(mask.bits.ravel())
    left = math.fsum(phi[sel]) * w
    _check(abs(attained - left) <= 1e-12 * (1.0 + abs(left)), "attained value inconsistent", F)

    if total <= 12:
        best = max((math.fsum(phi[list(combo)]) for combo in
                    itertools.combinations(range(total), n)), default=0.0) * w
    else:
        top = np.sort(phi)[::-1][:n]
        best = math.fsum(top) * w
    _check(left == best, "selection not exactly optimal: %.17g vs %.17g" % (left, best), F)

    if 0 < n < total:
        _check(phi[sel].min() >= phi[np.flatnonzero(~mask.bits.ravel())].max() - 0.0,
               "threshold property violated", F)

    try:
        best_omega(energy_density(F), (n + 0.5) * w)
        _check(False, "non-representable measure accepted", F)
    except ValueError as e:
        _check("not grid-representable" in str(e), "wrong representability error", F)

    FG, group = _random_group_dataset(rng, vacuous=(k == 0))
    part = orbit_partition(FG.grid, group)
    pick = [oi for oi in range(len(part.orbits)) if rng.random() < 0.5]
    n_inv = int(sum(part.sizes[oi] for oi in pick))
    wg = FG.grid.cell_weight
    gmask, gattained = best_omega_invariant(FG, group, n_inv * wg)
    _check(_invariant(gmask.bits, part.off_perms, part.cell_perms),
           "invariant mask is not group-fixed", FG)
    phi_g = energy_density(FG).phi.ravel()
    if len(part.orbits) <= 12:
        osum = [math.fsum(phi_g[o]) for o in part.orbits]
        cand = [0.0]
        for rsub in range(len(part.orbits) + 1):
            for combo in itertools.combinations(range(len(part.orbits)), rsub):
                if int(sum(part.sizes[oi] for oi in combo)) == n_inv:
                    cand.append(math.fsum(osum[oi] for oi in combo))
        best_inv = max(cand) * wg if n_inv else 0.0
        got = math.fsum(phi_g[np.flatnonzero(gmask.bits.ravel())]) * wg
        _check(abs(got - best_inv) <= 1e-12 * (1.0 + abs(best_inv)),
               "orbit selection not optimal", FG)
    if FG.m:
        plain_attained = best_omega(energy_density(FG), n_inv * wg)[1]
        _check(gattained <= plain_attained + 1e-12 * (1.0 + abs(plain_attained)),
               "invariant selection beat the unconstrained one", FG)
    left_d, right_d = omega_duality_check(FG, group, n_inv * wg)
    _check(abs(left_d - right_d) <= 1e-10 * max(abs(left_d), abs(right_d), 1e-30)
           if (left_d or right_d) else True,
           "quotient route disagrees: %.17g vs %.17g" % (left_d, right_d), FG)

    if k == 1:
        lat = make_lattice(np.eye(2))
        g3 = make_grid(lat, 3, [[0, 0]])
        c4 = make_group([np.array([[0, -1], [1, 0]])])
        zero = SpectralDataset(lat, g3, np.zeros((1, 1, 9), complex))
        try:
            best_omega_invariant(zero, c4, 2 * g3.cell_weight)
            _check(False, "unreachable orbit measure accepted")
        except ValueError as e:
            _check("nearest reachable" in str(e), "wrong unreachable error: %s" % e)


def _suite_padding(rng, k, res):
    F = _random_dataset(rng, vacuous=(k == 0))
    energy = _energy(F)
    ell = int(rng.integers(0, F.m + 1)) if F.m else 0
    model, rep = best_sis(F, ell)
    base = error_against(F, model).total_error

    na = len(model.active_idx)
    nK = F.grid.n_offsets
    extra_rows = int(rng.integers(1, 3))
    padded = np.zeros((na, model.basis.shape[1] + extra_rows, nK), dtype=np.complex128)
    padded[:, :model.basis.shape[1], :] = model.basis
    dims2 = model.dims.copy()
    for i, c in enumerate(model.active_idx):
        D = F.values[:, :, c]
        u, s, vh = np.linalg.svd(D, full_matrices=True)
        rank = int((s > 1e-12 * (s.max() if s.size else 1.0)).sum())
        null = vh[rank:]
        take = min(extra_rows, null.shape[0], nK - int(dims2[i]))
        room = model.basis.shape[1] + extra_rows - int(dims2[i])
        take = min(take, room)
        # captured energy per fiber is sum_k conj(b_k) D[i,k], so a row b of
        # vh past the rank satisfies D @ conj(b) = 0 and adds nothing
        for j in range(take):
            padded[i, int(dims2[i]) + j] = null[j]
        dims2[i] += take
    model2 = SubspaceModel(F.lattice, F.grid, ell + extra_rows, model.active_idx, padded, dims2)
    padded_err = error_against(F, model2).total_error
    _check(abs(padded_err - base) <= 1e-10 * (1.0 + energy),
           "fibers orthogonal to the data changed the error", F)


SUITE_NAMES = ("lattice", "roundtrip", "projection", "covariance", "eckart-young",
               "refinement", "membership", "equivariance", "omega", "padding")

_SUITES = {
    "lattice": (_suite_lattice, 60, 1),
    "roundtrip": (_suite_roundtrip, 30, 2),
    "projection": (_suite_projection, 200, 3),
    "covariance": (_suite_covariance, 100, 4),
    "eckart-young": (_suite_eckart_young, 10, 5),
    "refinement": (_suite_refinement, 100, 6),
    "membership": (_suite_membership, 40, 7),
    "equivariance": (_suite_equivariance, 30, 8),
    "omega": (_suite_omega, 100, 9),
    "padding": (_suite_padding, 30, 10),
}


def run_property_suites(seed=0, sizes=None, suites=None, failure_dir="."):
    """Run the named suites (all by default) at the given seed.

    sizes optionally overrides instance counts per suite name.  Returns a
    list of SuiteResult; failing instances with a dataset are serialized to
    failure_dir for replay.
    """
    import os

    chosen = list(suites) if suites else list(SUITE_NAMES)
    results = []
    for name in chosen:
        if name not in _SUITES:
            raise ValueError("unknown suite %r (have %s)" % (name, ", ".join(SUITE_NAMES)))
        func, default_count, code = _SUITES[name]
        count = int((sizes or {}).get(name, default_count))
        result = SuiteResult(name, count)
        for k in range(count):
            rng = np.random.default_rng([seed, code, k])
            try:
                func(rng, k, result)
            except _CheckFailure as e:
                artifact = None
                if e.dataset is not None:
                    artifact = os.path.join(failure_dir, "pwsis-failure-%s-%d.dataset" % (name, k))
                    textio.write_dataset(e.dataset, artifact)
                result.failures.append((k, str(e), artifact))
        results.append(result)
    return results
