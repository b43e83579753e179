"""Optimal invariant subspaces from per-cell eigendecompositions.

Every solve is per-cell Eckart-Young: diagonalize the fiber Gramian, keep the
top eigenvectors, and read the approximation error off the discarded
eigenvalue mass times the cell weight.  Group-invariant solves run the same
step on the symmetrized channels at one representative cell per orbit and
transport the basis along the group action.
"""

import numpy as np

from .lattice import Lattice, offset_permutations, orbit_partition, pair_permutations
from .fibers import (_cell_trace, _gramian_mats, dilation_transport, gramian_field,
                     regrid_to_lattice)
from .spectral import SpectralDataset, _abs2, project_pw, residual_energy

__all__ = [
    "EigenField",
    "SubspaceModel",
    "ApproxReport",
    "eigen_field",
    "best_sis",
    "best_gamma",
    "generators",
    "subspace_length",
    "error_against",
    "project_then_solve",
    "solve_then_project",
    "dilation_equivalence",
    "refinement_inequality_check",
]

# relative gaps below this count as ties for deterministic eigenvector order
_TIE_GAP = 1e-12
# bytes of m x m Gramians per eigh call, and of fibers per gather: a
# block's Gramians and full eigenvectors are held only until its top rows
# are kept, a block's fibers only until its products are taken
_BLOCK_BYTES = 1 << 20
# eigenvalues below this fraction of the cell trace are treated as zero when
# building generator bases
_RANK_CUT = 1e-12
# eigenvalues above this fraction of the cell trace count toward the data's
# subspace length
_LENGTH_CUT = 1e-9


class EigenField:
    """The rank-ell cut of a Gramian field on its active cells.

    eigenvalues[c] holds all m eigenvalues of cell c, descending, clamped at
    zero.  vectors[c, j] is the j-th eigenvector (a row) for j < min(ell, m)
    only, phase-normalized so its first component above 1e-12 in modulus is
    real positive; within groups of tied eigenvalues the pairs are ordered by
    the lexicographic order of the component magnitudes before the cut, so
    the kept rows are reproducible across runs.  density[c] is the
    eigenvalue mass the cut discards at cell c, error its total times the
    cell weight (the optimal error at length ell), and length the largest
    rank over cells at the relative threshold 1e-9 (the smallest length
    that holds the data, 0 with no active cell).
    """

    def __init__(self, grid, m, active_idx, eigenvalues, vectors, trace,
                 density, length):
        self.grid = grid
        self.m = m
        self.active_idx = active_idx
        self.eigenvalues = eigenvalues
        self.vectors = vectors
        self.trace = trace
        self.density = density
        self.length = length

    @property
    def n_active(self):
        return self.active_idx.shape[0]

    @property
    def error(self):
        return float(self.density.sum() * self.grid.cell_weight)


def _check_length(ell):
    if ell < 0 or int(ell) != ell:
        raise ValueError("subspace length must be a nonnegative integer")
    return int(ell)


def _order_ties(w, Y, trace):
    """Reorder eigenpairs inside tie groups by ascending lex order of the
    row magnitude sequence; w and Y move together."""
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


def _block_cells(m, k):
    """Cells per block: about _BLOCK_BYTES of m x k complex matrices (m x m
    Gramians per eigh call, m channels x k offsets of fibers per gather),
    at least one (also for m = 0)."""
    return max(1, _BLOCK_BYTES // max(1, 16 * m * k))


def _eigen_cut(grid, m, active_idx, trace, block, ell):
    """The rank-ell cut of the Gramians that block(s, e) returns for the
    active cells s..e-1, taken a block of _block_cells(m, m) cells at a time
    (see EigenField).  eigh treats each matrix on its own, so the result
    does not depend on how the cells are split."""
    n = active_idx.shape[0]
    rows = min(ell, m)
    step = _block_cells(m, m)
    w = np.empty((n, m))
    Y = np.empty((n, rows, m), dtype=np.complex128)
    for s in range(0, n, step):
        try:
            wb, vb = np.linalg.eigh(block(s, s + step))
        except np.linalg.LinAlgError as e:
            raise RuntimeError("eigensolver failed to converge: %s" % e)
        wb = wb[:, ::-1].copy()
        np.maximum(wb, 0.0, out=wb)
        # eigh returns eigenvectors as columns; view them as rows, descending
        Yb = vb.transpose(0, 2, 1)[:, ::-1, :]
        # ties are ordered whole before the cut, so the kept rows do not
        # depend on where the cut falls
        tb = trace[s:s + step]
        if m > 1:
            gaps = -np.diff(wb, axis=1)
            for c in np.flatnonzero(np.any(gaps < _TIE_GAP * tb[:, None], axis=1)):
                _order_ties(wb[c], Yb[c], tb[c])
        w[s:s + step] = wb
        Y[s:s + step] = Yb[:, :rows]

    if Y.size:
        flat = Y.reshape(-1, m)
        big = np.abs(flat) > 1e-12
        piv_idx = np.argmax(big, axis=1)
        piv = flat[np.arange(flat.shape[0]), piv_idx]
        mag = np.abs(piv)
        safe = np.where(mag > 0.0, mag, 1.0)
        flat *= (piv.conj() / safe)[:, None]
    density = w[:, ell:].sum(axis=1) if ell < m else np.zeros(n)
    length = int((w > _LENGTH_CUT * trace[:, None]).sum(axis=1).max()) if n else 0
    return EigenField(grid, m, active_idx, w, Y, trace, density, length)


def eigen_field(G, ell):
    """Hermitian eigendecomposition of a Gramian field cut at rank ell: all
    eigenvalues, the top min(ell, m) eigenvectors, the discarded mass per
    cell and the data's subspace length (see EigenField)."""
    return _eigen_cut(G.grid, G.m, G.active_idx, G.trace,
                      lambda s, e: G.mats[s:e], _check_length(ell))


class SubspaceModel:
    """A lattice- (or group-) invariant subspace by per-cell orthonormal
    generator fibers.

    basis has shape (n_active, rows, n_offsets); row j of cell c is the fiber
    of the j-th generator there, rows beyond dims[c] are zero.  Cells outside
    active_idx carry the zero fiber.
    """

    def __init__(self, lattice, grid, ell, active_idx, basis, dims, group=None):
        self.lattice = lattice
        self.grid = grid
        self.ell = int(ell)
        self.active_idx = active_idx
        self.basis = basis
        self.dims = dims
        self.group = group

    def __repr__(self):
        kind = "group-invariant" if self.group is not None else "shift-invariant"
        return "SubspaceModel(%s, ell=%d, active=%d)" % (kind, self.ell, len(self.active_idx))


class ApproxReport:
    """Error report of approximating a dataset by a subspace model.

    total_error = sum over cells of density * cell_weight = sum of
    per_channel, where density(u) is the unexplained Gramian mass at u.
    projected_error / band_residual split the total for project-then-solve
    runs (inside-band optimum vs energy removed by the band-limit).
    """

    def __init__(self, total_error, per_channel, active_idx=None, density=None,
                 projected_error=None, band_residual=None):
        self.total_error = float(total_error)
        self.per_channel = np.asarray(per_channel, dtype=float)
        self.active_idx = active_idx
        self.density = density
        self.projected_error = projected_error
        self.band_residual = band_residual


def _captured(values, model):
    """Per-channel energy captured by the model's orthonormal fibers.  The
    amplitudes are taken a block of fibers at a time; each cell's products
    are its own, so the blocks give the bits of one whole pass."""
    na, rows, nK = model.basis.shape
    amp = np.empty((na, values.shape[0], rows), dtype=np.complex128)
    step = _block_cells(values.shape[0], nK)
    for s in range(0, na, step):
        amp[s:s + step] = np.einsum("cjk,ikc->cij", model.basis[s:s + step].conj(),
                                    values[:, :, model.active_idx[s:s + step]])
    return _abs2(amp).sum(axis=(0, 2)) * model.grid.cell_weight


def _build_basis(fibers, ef, ell):
    """Generator fibers b_j = lambda_j^(-1/2) sum_i conj(y_j)_i fiber_i for
    the top-ell eigenpairs, zero rows where the eigenvalue is negligible.
    fibers(s, e) returns the (m, |K|, e - s) fibers at ef's active cells
    s..e-1, as _eigen_cut's block does their Gramians; they are taken a
    block at a time."""
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
        basis[s:s + step] = np.einsum("cji,ikc->cjk", scaled[s:s + step], fibers(s, s + step))
    basis[~keep] = 0.0
    return basis, dims


def best_sis(F, ell):
    """Optimal lattice-invariant subspace of length at most ell.

    Returns (model, report); the report's total is the infimum of the
    aggregate squared approximation error over all such subspaces.
    """
    ell = _check_length(ell)
    ef = eigen_field(gramian_field(F), ell)
    basis, dims = _build_basis(lambda s, e: F.values[:, :, ef.active_idx[s:e]], ef, ell)
    model = SubspaceModel(F.lattice, F.grid, ell, ef.active_idx, basis, dims)
    per_channel = F.energy() - _captured(F.values, model)
    report = ApproxReport(ef.error, per_channel, active_idx=ef.active_idx,
                          density=ef.density)
    return model, report


def subspace_length(F):
    """Smallest length of an invariant subspace containing all channels:
    the max over cells of the fiber Gramian rank at relative threshold 1e-9."""
    return eigen_field(gramian_field(F), 0).length


def error_against(F, model):
    """Aggregate and per-channel squared error of approximating F by an
    already-built model (whose basis rows must be orthonormal per cell)."""
    if not F.grid.compatible(model.grid):
        raise ValueError("mismatched grid between dataset and model")
    captured = _captured(F.values, model)
    per_channel = F.energy() - captured
    return ApproxReport(float(per_channel.sum()), per_channel)


def generators(model, F=None):
    """The model's generator fibers as a dataset over its own grid (one
    channel per generator row; cells beyond the model's active set are zero)."""
    grid = model.grid
    rows = model.basis.shape[1]
    vals = np.zeros((rows, grid.n_offsets, grid.n_cells), dtype=np.complex128)
    vals[:, :, model.active_idx] = model.basis.transpose(1, 2, 0)
    return SpectralDataset(model.lattice, grid, vals, check_finite=False)


def best_gamma(F, group, ell):
    """Optimal group-invariant subspace of length at most ell.

    Solves the per-cell problem for the symmetrized channels (channel (g, i)
    is R_g f_i) at one representative cell per orbit, gathering their fibers
    there only, and extends the basis to the orbit by the pure offset
    permutation carried by the group action on fibers.  The representatives'
    m|G| x m|G| Gramians are built per block, each block just before its
    eigendecomposition, so the whole field is never held; the traces, the
    Gramians and the basis each gather the representatives' fibers a block
    at a time, so neither are those fibers.  A representative is active
    when its symmetrized trace is positive; that trace sums the same squared
    samples at every cell of the orbit, so activity is an orbit property.
    Returns (model, report); the report carries the measured error
    of the returned model, while report.density times cell_weight (already
    divided by the group order) is the per-orbit lower bound, attained except
    when the rank cut splits a tied eigenvalue at a cell with a nontrivial
    stabilizer (there no extension of one eigenbasis choice need be exactly
    invariant, and the bound itself need not be attainable).
    """
    ell = _check_length(ell)
    n_group, m = len(group), F.m
    part = orbit_partition(F.grid, group, cells_only=True)
    reps = part.representatives
    cell_perms = part.perms
    off_perms = offset_permutations(F.grid, group)
    inverses = [group.inverse_index(gi) for gi in range(n_group)]

    def gather(cells):
        """Symmetrized fibers at the given cells, as symmetrize lays them
        out: channel (g, i) at (k, c) reads f_i at the inverse image."""
        out = np.empty((m * n_group, F.grid.n_offsets, len(cells)), dtype=np.complex128)
        for gi, inv in enumerate(inverses):
            out[gi * m:(gi + 1) * m] = F.values[:, off_perms[inv][:, None],
                                                cell_perms[inv, cells][None, :]]
        return out

    # the trace is per cell, so blocks of representatives give its bits
    trace = np.empty(len(reps))
    step = _block_cells(m * n_group, F.grid.n_offsets)
    for s in range(0, len(reps), step):
        trace[s:s + step] = _cell_trace(gather(reps[s:s + step]))
    keep = np.flatnonzero(trace > 0.0)
    active = reps[keep]
    ef = _eigen_cut(F.grid, m * n_group, active, trace[keep],
                    lambda s, e: _gramian_mats(gather(active[s:e])), ell)
    rep_basis, rep_dims = _build_basis(lambda s, e: gather(active[s:e]), ef, ell)

    # active cells: every member of an orbit whose representative is active
    rep_pos = np.full(len(reps), -1, dtype=np.int64)
    rep_pos[keep] = np.arange(len(keep))
    cell_rep = rep_pos[part.orbit_index]
    all_active = np.flatnonzero(cell_rep >= 0)
    src = cell_rep[all_active]
    # the first group element mapping the representative to a cell carries
    # the representative's basis there: write in descending order so the
    # smallest element index is the one that stays
    first_g = np.empty(F.grid.n_cells, dtype=np.int64)
    for gi in range(n_group - 1, -1, -1):
        first_g[cell_perms[gi, ef.active_idx]] = gi
    via = first_g[all_active]

    rows = rep_basis.shape[1]
    basis = np.empty((len(all_active), rows, F.grid.n_offsets), dtype=np.complex128)
    for gi in np.unique(via):
        at = np.flatnonzero(via == gi)
        basis[at] = rep_basis[src[at]][:, :, off_perms[group.inverse_index(gi)]]
    dims = rep_dims[src]
    density = ef.density[src] / n_group

    model = SubspaceModel(F.lattice, F.grid, ell, all_active, basis, dims, group=group)
    measured = error_against(F, model)
    report = ApproxReport(measured.total_error, measured.per_channel,
                          active_idx=all_active, density=density)
    return model, report


def _check_mask_invariant(mask, group):
    flat = mask.bits.ravel()
    if np.any(flat[pair_permutations(mask.grid, group)] != flat):
        raise ValueError("mask is not invariant under the group")


def project_then_solve(F, mask, ell, group=None):
    """Project the data onto the band mask, then solve for the optimal
    subspace inside it.

    The report's total is the projected optimum plus the out-of-band energy;
    its generators vanish outside the mask by construction.
    """
    if not F.grid.compatible(mask.grid):
        raise ValueError("mismatched grid between dataset and mask")
    if group is not None:
        _check_mask_invariant(mask, group)
    PF = project_pw(F, mask)
    if group is not None:
        model, rep = best_gamma(PF, group, ell)
    else:
        model, rep = best_sis(PF, ell)
    outside = residual_energy(F, mask)
    total = rep.total_error + float(outside.sum())
    per_channel = rep.per_channel + outside
    direct = error_against(F, model)
    scale = 1.0 + float(F.energy().sum())
    if not abs(direct.total_error - total) <= 1e-9 * scale:
        raise RuntimeError(
            "project-then-solve total %r differs from the measured error %r of "
            "its own model" % (total, direct.total_error))
    report = ApproxReport(total, per_channel, active_idx=rep.active_idx,
                          density=rep.density, projected_error=rep.total_error,
                          band_residual=float(outside.sum()))
    return model, report


def _orthonormalize_rows(rows, drop=1e-12):
    """Modified Gram-Schmidt on the rows; rows with residual norm <= drop
    are removed.  Returns the new row block."""
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


def solve_then_project(F, mask, ell):
    """Solve for the optimal subspace first, then intersect its generators
    with the band mask.  Generally suboptimal; returned for comparison with
    project_then_solve."""
    if not F.grid.compatible(mask.grid):
        raise ValueError("mismatched grid between dataset and mask")
    model, _ = best_sis(F, ell)
    sel = mask.bits.T[model.active_idx]
    clipped = model.basis * sel[:, None, :]
    rows = model.basis.shape[1]
    basis = np.zeros_like(model.basis)
    dims = np.zeros(len(model.active_idx), dtype=np.int64)
    for c in range(clipped.shape[0]):
        block = _orthonormalize_rows(clipped[c, : model.dims[c]])
        dims[c] = block.shape[0]
        basis[c, : dims[c]] = block
    out = SubspaceModel(F.lattice, F.grid, ell, model.active_idx, basis, dims)
    return out, error_against(F, out)


def dilation_equivalence(F, A, ell):
    """Optimal errors of F on its own lattice and of the dilated data on the
    transported lattice, computed independently; the two agree."""
    _, rep1 = best_sis(F, ell)
    D = dilation_transport(F, A)
    _, rep2 = best_sis(D, ell)
    return rep1.total_error, rep2.total_error


def refinement_inequality_check(F, N, ell):
    """Optimal errors on the N-refined lattice and on the original one, as
    (fine, coarse); fine <= coarse always, with equality at N = 1."""
    if N < 1 or int(N) != N:
        raise ValueError("refinement factor must be a positive integer")
    N = int(N)
    _, rep = best_sis(F, ell)
    if N == 1:
        return rep.total_error, rep.total_error
    if F.grid.r % N:
        raise ValueError("indivisible resolution: r=%d is not a multiple of N=%d"
                         % (F.grid.r, N))
    fine = regrid_to_lattice(F, Lattice(F.lattice.basis / N))
    _, rep_fine = best_sis(fine, ell)
    return rep_fine.total_error, rep.total_error
