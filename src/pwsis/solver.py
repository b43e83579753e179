"""Optimal invariant subspaces from per-cell eigendecompositions.

Every solve is per-cell Eckart-Young: diagonalize the fiber Gramian, keep the
top eigenvectors, and read the approximation error off the discarded
eigenvalue mass times the cell weight.  Group-invariant solves run the same
step on the fiber side, the |K| x |K| operator of the symmetrized channels,
at one representative cell per orbit, keep whole irreducible pieces where
the cut splits a tie, and transport the basis along the group action.
"""

import numpy as np

from .lattice import Lattice, _invariant, offset_permutations, orbit_partition
from .omega import _exact_fill_knapsack
from .fibers import (_block_cells, _dataset_blocks, _fiber_blocks, _gather,
                     _lattice_blocks, _regrid_layout, _symmetrized, dilation_transport)
from .spectral import (SpectralDataset, _abs2, _band_energy, _finite_sum,
                       residual_energy)

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
        with np.errstate(over="ignore"):
            return float(_finite_sum(self.density.sum() * self.grid.cell_weight))


def _check_length(ell):
    if ell < 0 or int(ell) != ell:
        raise ValueError("subspace length must be a nonnegative integer")
    return int(ell)


def _order_ties(w, Y, tie):
    """Reorder eigenpairs inside tie groups by ascending lex order of the
    row magnitude sequence, for a block of cells: w (cells, m) and Y
    (cells, m, m) move together, and tie[c, j] says the gap after
    eigenvalue j of cell c is a tie.  A tie group is a run of tied gaps.
    One stable lexsort takes every cell with a tie at once, keyed by cell,
    then group, then |y_0|, ..., |y_{m-1}|; groups are contiguous, so each
    cell gets the permutation a sort of each group on its own gives."""
    cells = np.flatnonzero(tie.any(axis=1))
    if not cells.size:
        return
    n, m = cells.size, w.shape[1]
    group = np.zeros((n, m), dtype=np.int64)
    np.cumsum(~tie[cells], axis=1, out=group[:, 1:])
    rows = Y[cells].reshape(n * m, m)
    order = np.lexsort((*np.abs(rows).T[::-1], group.ravel(), np.arange(n).repeat(m)))
    Y[cells] = rows[order].reshape(n, m, m)
    w[cells] = w[cells].ravel()[order].reshape(n, m)


def _eigen_cut(grid, m, active_idx, trace, block, step, ell):
    """The rank-ell cut of the m x m operators that block(s, e) returns for
    the active cells s..e-1, taken step cells at a time (see EigenField).
    eigh treats each matrix on its own, so the result does not depend on
    how the cells are split."""
    n = active_idx.shape[0]
    rows = min(ell, m)
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
        if m > 1:
            _order_ties(wb, Yb, -np.diff(wb, axis=1) < _TIE_GAP * trace[s:s + step, None])
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
    return _eigen_cut(G.grid, G.m, G.active_idx, G.trace, lambda s, e: G.mats[s:e],
                      _block_cells(G.m, G.m), _check_length(ell))


def _dataset_cut(F, ell, bits=None):
    """eigen_field(gramian_field(F), ell), with band bits of project_pw(F,
    mask), built a block at a time: no Gramian field is held."""
    return _eigen_cut(*_dataset_blocks(F, bits), ell)


def _lattice_cut(F, lat):
    """Check lat against F, as regrid_to_lattice does, and return cut(ell):
    the rank-ell cut of F regridded onto lat, with neither the regridded
    dataset nor its Gramian field held."""
    layout = _regrid_layout(F, lat)
    return lambda ell: _eigen_cut(*_lattice_blocks(F, layout), _check_length(ell))


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


def _captured(gather, m, model):
    """Per-channel energy captured by the model's orthonormal fibers, where
    gather(c) returns the m-channel fibers at the cells c (see _gather).  The
    amplitudes are taken a block of fibers at a time; each cell's products
    are its own, so the blocks give the bits of one whole pass."""
    na, rows, nK = model.basis.shape
    amp = np.empty((na, m, rows), dtype=np.complex128)
    step = _block_cells(m, nK)
    for s in range(0, na, step):
        amp[s:s + step] = np.einsum("cjk,ikc->cij", model.basis[s:s + step].conj(),
                                    gather(model.active_idx[s:s + step]))
    return _abs2(amp).sum(axis=(0, 2)) * model.grid.cell_weight


def _unexplained(F, model, bits=None):
    """Per-channel energy the model leaves out of F, or with the bits of a
    band mask out of project_pw(F, mask).  Both energies are checked
    finite, with their sum, and the captured part is no larger."""
    energy = F.energy() if bits is None else _band_energy(F, bits)
    return energy - _captured(_gather(F, bits), F.m, model)


def _build_basis(gather, ef, ell):
    """Generator fibers b_j = lambda_j^(-1/2) sum_i conj(y_j)_i fiber_i for
    the top-ell eigenpairs, zero rows where the eigenvalue is negligible.
    gather(c) returns the (m, |K|, len(c)) fibers at the cells c; ef's
    active cells are taken a block at a time."""
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


def best_sis(F, ell):
    """Optimal lattice-invariant subspace of length at most ell.

    Returns (model, report); the report's total is the infimum of the
    aggregate squared approximation error over all such subspaces.
    """
    return _best_sis(F, ell)


def _sis_model(F, ell, bits=None):
    """_best_sis's model and the rank cut it is built from, with no error measured."""
    ell = _check_length(ell)
    ef = _dataset_cut(F, ell, bits)
    basis, dims = _build_basis(_gather(F, bits), ef, ell)
    return SubspaceModel(F.lattice, F.grid, ell, ef.active_idx, basis, dims), ef


def _best_sis(F, ell, bits=None):
    """best_sis of F, or with the bits of a band mask best_sis of
    project_pw(F, mask), with every fiber read from F through the band."""
    model, ef = _sis_model(F, ell, bits)
    per_channel = _unexplained(F, model, bits)
    report = ApproxReport(ef.error, per_channel, active_idx=ef.active_idx,
                          density=ef.density)
    return model, report


def subspace_length(F):
    """Smallest length of an invariant subspace containing all channels:
    the max over cells of the fiber Gramian rank at relative threshold 1e-9."""
    return _dataset_cut(F, 0).length


def error_against(F, model):
    """Aggregate and per-channel squared error of approximating F by an
    already-built model (whose basis rows must be orthonormal per cell)."""
    if not F.grid.compatible(model.grid):
        raise ValueError("mismatched grid between dataset and model")
    per_channel = _unexplained(F, model)
    return ApproxReport(float(per_channel.sum()), per_channel)


def generators(model, F=None):
    """The model's generator fibers as a dataset over its own grid (one
    channel per generator row; cells beyond the model's active set are zero)."""
    grid = model.grid
    rows = model.basis.shape[1]
    vals = np.zeros((rows, grid.n_offsets, grid.n_cells), dtype=np.complex128)
    vals[:, :, model.active_idx] = model.basis.transpose(1, 2, 0)
    return SpectralDataset(model.lattice, grid, vals, check_finite=False)


def _commutant_probe(n):
    """A fixed Hermitian n x n matrix with irrational phases and no
    structure of its own: averaged over a permutation group it becomes a
    generic element of the group's commutant."""
    j = np.arange(1, n + 1, dtype=float)
    X = np.exp(1j * (np.sqrt(2.0) * np.outer(j, j * j) + np.sqrt(3.0) * j))
    return X + X.conj().T


def _invariant_cut(T, trace, perms, ell):
    """The best subspace of dimension at most ell that the offset
    permutations perms (a stabilizer acting on C^|K|) map onto itself, for a
    Hermitian T commuting with them.  Returns its orthonormal rows and the
    mass of T it leaves out, trace minus the captured mass.

    One full eigh of T gives its eigenspaces, which the stabilizer maps onto
    themselves.  A fixed averaged matrix A commutes with every permutation,
    so its eigenspaces inside a tied eigenspace of T split it into
    irreducible pieces; an untied eigenvalue is a piece of dimension one.
    Pieces of mass at most _RANK_CUT * trace per dimension are left out, as
    the rank cut leaves out rows.  The exact knapsack of the band solve,
    with its deterministic tie rule, then picks the pieces of total
    dimension at most ell with the most mass."""
    n = T.shape[0]
    try:
        w, V = np.linalg.eigh(T)
    except np.linalg.LinAlgError as e:
        raise RuntimeError("eigensolver failed to converge: %s" % e)
    w = np.maximum(w[::-1], 0.0)
    V = V[:, ::-1]
    probe = _commutant_probe(n)
    A = sum(probe[np.ix_(p, p)] for p in perms)
    split_tol = 1e-9 * float(np.abs(A).max())
    pieces = []  # (dimension, mass, orthonormal columns)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop - 1] - w[stop] < _TIE_GAP * trace:
            stop += 1
        Vt = V[:, start:stop]
        mu, U = np.linalg.eigh(Vt.conj().T @ A @ Vt)
        lo = 0
        for hi in range(1, len(mu) + 1):
            if hi == len(mu) or mu[hi] - mu[hi - 1] > split_tol:
                Up = U[:, lo:hi]
                mass = float(_abs2(Up).sum(axis=1) @ w[start:stop])
                if mass > _RANK_CUT * trace * (hi - lo):
                    pieces.append((hi - lo, mass, Vt @ Up))
                lo = hi
        start = stop

    # ell massless pieces of dimension one turn "at most ell" into the
    # exact fill the band knapsack solves
    captured, sel = _exact_fill_knapsack([p[1] for p in pieces] + [0.0] * ell,
                                         [p[0] for p in pieces] + [1] * ell, ell)
    chosen = [pieces[i][2] for i in sel if i < len(pieces)]
    rows = np.concatenate(chosen, axis=1).T if chosen else np.zeros((0, n))
    return rows, max(trace - captured, 0.0)


def best_gamma(F, group, ell):
    """Optimal group-invariant subspace of length at most ell.

    Solves the per-cell problem at one representative cell c per orbit on
    the fiber side: the |K| x |K| operator T_c = sum over g, i of
    (R_g f_i)(R_g f_i)^H has the nonzero spectrum of the symmetrized
    channels' m|G| x m|G| Gramian, and its top eigenvectors are the
    generator fibers themselves.  T_c is built a block at a time, just
    before its eigendecomposition, from the representatives' symmetrized
    fibers, so neither the operators nor those fibers are held whole.  The
    basis is extended to the orbit by the pure offset permutation carried
    by the group action on fibers.  A
    representative is active when its symmetrized trace is positive; that
    trace sums the same squared samples at every cell of the orbit, so
    activity is an orbit property.

    Where the rank cut splits a tied eigenvalue at a representative whose
    stabilizer H is nontrivial, no choice inside the tie need be H-invariant.
    There the eigenspaces of T_c are split into H-irreducible pieces and the
    pieces of total dimension at most ell that capture the most mass are
    kept (_invariant_cut), so the model is invariant everywhere.  Returns
    (model, report); the report carries the measured error of the returned
    model, and report.density times cell_weight (already divided by the
    group order) is the per-orbit optimum, which the model attains.
    """
    return _best_gamma(F, group, ell)


def _best_gamma(F, group, ell, bits=None):
    """best_gamma of F, or with the bits of a group-invariant band mask
    best_gamma of project_pw(F, mask): the band zeroes the symmetrized
    fibers where it zeroes the fibers, since it maps onto itself."""
    ell = _check_length(ell)
    n_group, m, nK = len(group), F.m, F.grid.n_offsets
    part = orbit_partition(F.grid, group, cells_only=True)
    reps, cell_perms = part.representatives, part.cell_perms
    off_perms = offset_permutations(F.grid, group)
    if bits is not None and not _invariant(bits, off_perms, cell_perms):
        raise ValueError("mask is not invariant under the group")
    gather = _symmetrized(F, group, cell_perms, off_perms, bits)

    route = _fiber_blocks(F.grid, m * n_group, reps, gather, fiber_side=True)
    _, _, active, trace, fiber_ops, _ = route
    ef = _eigen_cut(*route, ell)
    # T_c has rank at most m|G|: rows past it would be zero
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
                vecs, ef.density[i] = _invariant_cut(fiber_ops(i, i + 1)[0], trace[i],
                                                     stab, rows)
                rep_basis[i] = 0.0
                rep_basis[i, :len(vecs)] = vecs
                rep_dims[i] = len(vecs)

    # active cells: every member of an orbit whose representative is active
    rep_pos = np.full(len(reps), -1, dtype=np.int64)
    rep_pos[np.searchsorted(reps, active)] = np.arange(len(active))
    cell_rep = rep_pos[part.orbit_index]
    all_active = np.flatnonzero(cell_rep >= 0)
    src = cell_rep[all_active]
    # group element g carries each representative's basis to the cell g
    # maps it to: written in descending order, the smallest such g stays
    pos = np.searchsorted(all_active, cell_perms[:, ef.active_idx])
    basis = np.empty((len(all_active),) + rep_basis.shape[1:], dtype=np.complex128)
    for gi in range(n_group - 1, -1, -1):
        basis[pos[gi]] = rep_basis[:, :, off_perms[group.inverses[gi]]]
    dims = rep_dims[src]
    density = ef.density[src] / n_group

    model = SubspaceModel(F.lattice, F.grid, ell, all_active, basis, dims, group=group)
    per_channel = _unexplained(F, model, bits)
    report = ApproxReport(float(per_channel.sum()), per_channel,
                          active_idx=all_active, density=density)
    return model, report


def project_then_solve(F, mask, ell, group=None):
    """Project the data onto the band mask, then solve for the optimal
    subspace inside it.

    The report's total is the projected optimum plus the out-of-band energy;
    its generators vanish outside the mask by construction.  The projected
    data is never built: the solve reads F's fibers zeroed outside the band.
    """
    if not F.grid.compatible(mask.grid):
        raise ValueError("mismatched grid between dataset and mask")
    outside = residual_energy(F, mask)
    if group is not None:
        model, rep = _best_gamma(F, group, ell, mask.bits)
    else:
        model, rep = _best_sis(F, ell, mask.bits)
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


def _clip_orthonormalize(basis, bits, drop=1e-12):
    """The rows of each cell of basis (cells, rows, |K|) clipped to its
    column of the band bits (|K|, cells) and orthonormalized by modified
    Gram-Schmidt, in place; a row whose residual norm is <= drop is removed
    and the later rows move up, leaving zero rows at the end.  Returns the
    number of rows kept per cell.

    Row j is taken for every cell at once.  Before it, each cell's kept rows
    fill its first slots and its other slots below j are zero, so projecting
    out all j slots is each cell's own Gram-Schmidt step."""
    n, rows, _ = basis.shape
    basis *= bits.T[:, None, :]
    out = np.zeros(n, dtype=np.int64)
    for j in range(rows):
        v = basis[:, j]
        for i in range(j):
            u = basis[:, i]
            v -= np.einsum("ck,ck->c", u.conj(), v)[:, None] * u
        norm = np.sqrt(_abs2(v).sum(axis=1))
        keep = norm > drop
        v /= np.where(keep, norm, 1.0)[:, None]
        moved = keep & (out < j)
        basis[moved, out[moved]] = v[moved]
        basis[~keep | moved, j] = 0.0
        out += keep
    return out


def solve_then_project(F, mask, ell):
    """Solve for the optimal subspace first, then intersect its generators
    with the band mask.  Generally suboptimal; returned for comparison with
    project_then_solve."""
    if not F.grid.compatible(mask.grid):
        raise ValueError("mismatched grid between dataset and mask")
    model, _ = _sis_model(F, ell)
    # about _BLOCK_BYTES of the few cells x |K| temporaries a row's step holds
    step = _block_cells(4, F.grid.n_offsets)
    for s in range(0, len(model.active_idx), step):
        model.dims[s:s + step] = _clip_orthonormalize(
            model.basis[s:s + step], mask.bits[:, model.active_idx[s:s + step]])
    return model, error_against(F, model)


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
    coarse = _lattice_cut(F, F.lattice)(ell).error
    if N == 1:
        return coarse, coarse
    if F.grid.r % N:
        raise ValueError("indivisible resolution: r=%d is not a multiple of N=%d"
                         % (F.grid.r, N))
    return _lattice_cut(F, Lattice(F.lattice.basis / N))(ell).error, coarse
