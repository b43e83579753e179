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
from .fibers import (_block_cells, _dataset_blocks, _fiber_blocks, _regrid_layout,
                     _symmetrized, dilation_transport)
from .spectral import (SpectralDataset, _abs2, _finite_sum, _require_same_grid, project_pw,
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


def _eigen_cut(grid, m, active_idx, trace, block, step, ell, vectors=True):
    """The rank-ell cut of the m x m operators that block(s, e) returns for
    the active cells s..e-1, taken step cells at a time (see EigenField).
    eigh treats each matrix on its own, so the result does not depend on
    how the cells are split.  Each block's discarded mass and ranks are
    taken as it is cut; with vectors False neither the eigenvalues nor the
    eigenvectors are kept (EigenField's are None)."""
    n = active_idx.shape[0]
    rows = min(ell, m)
    w = np.empty((n, m)) if vectors else None
    Y = np.empty((n, rows, m), dtype=np.complex128) if vectors else None
    density = np.zeros(n)
    length = 0
    for s in range(0, n, step):
        try:
            wb, vb = np.linalg.eigh(block(s, s + step))
        except np.linalg.LinAlgError as e:
            raise RuntimeError("eigensolver failed to converge: %s" % e)
        wb = wb[:, ::-1].copy()
        np.maximum(wb, 0.0, out=wb)
        # eigh returns eigenvectors as columns; view them as rows, descending
        Yb = vb.transpose(0, 2, 1)[:, ::-1, :]
        # ties are ordered whole before the cut, so the kept rows and the
        # discarded mass do not depend on where the cut falls
        tb = trace[s:s + step, None]
        if m > 1:
            _order_ties(wb, Yb, -np.diff(wb, axis=1) < _TIE_GAP * tb)
        if ell < m:
            density[s:s + step] = wb[:, ell:].sum(axis=1)
        length = max(length, int((wb > _LENGTH_CUT * tb).sum(axis=1).max()))
        if vectors:
            w[s:s + step] = wb
            Y[s:s + step] = Yb[:, :rows]

    if vectors and Y.size:
        flat = Y.reshape(-1, m)
        big = np.abs(flat) > 1e-12
        piv_idx = np.argmax(big, axis=1)
        piv = flat[np.arange(flat.shape[0]), piv_idx]
        mag = np.abs(piv)
        safe = np.where(mag > 0.0, mag, 1.0)
        flat *= (piv.conj() / safe)[:, None]
    return EigenField(grid, m, active_idx, w, Y, trace, density, length)


def eigen_field(G, ell):
    """Hermitian eigendecomposition of a Gramian field cut at rank ell: all
    eigenvalues, the top min(ell, m) eigenvectors, the discarded mass per
    cell and the data's subspace length (see EigenField)."""
    return _eigen_cut(G.grid, G.m, G.active_idx, G.trace, lambda s, e: G.mats[s:e],
                      _block_cells(G.m, G.m), _check_length(ell))


def _lattice_cut(F, lat):
    """Check lat against F, as regrid_to_lattice does, and return cut(ell):
    the rank-ell cut of F regridded onto lat, its error, density and length
    only, with neither the regridded dataset nor its Gramian field held;
    on F's own lattice, eigen_field(gramian_field(F), ell)'s."""
    layout = _regrid_layout(F, lat)
    return lambda ell: _eigen_cut(*_dataset_blocks(F, layout), _check_length(ell),
                                  vectors=False)


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


def _fiber_pass(F, cells, rows, rows_of, band=None, clip=None, store=True):
    """The one pass that builds a model's basis rows at the ascending cells
    and measures them, a block of cells at a time, sized for each cell's m
    fibers and its rows.  Each block reads F's fibers once, takes its rows
    rows_of(s, e, fibers) of cells s..e-1 -- from the fibers of band, a
    projection project_pw(F, mask), when given -- clips them to the band
    bits clip when given (_clip_orthonormalize), and takes their amplitudes
    against F's fibers and, with a band, the band's; then the block is
    dropped.

    Returns (basis, dims, captured, band_captured): the (cells, rows, |K|)
    basis if store, else None; the rows kept per cell if clipped, else None;
    and the per-channel energy the rows capture of F and of the band (None
    without one).  The amplitudes the report reads -- F's without a band,
    the band's with one -- are kept whole and summed as one array, and
    each cell's products are its own, so the blocks give the bits of one
    whole pass.  With a band, F's own capture only feeds
    project_then_solve's self-check, and is summed a block at a time
    instead."""
    m, nK = F.m, F.grid.n_offsets
    n = len(cells)
    amp = np.empty((n, m, rows), dtype=np.complex128)
    own = None if band is None else np.zeros(m)
    basis = np.empty((n, rows, nK), dtype=np.complex128) if store else None
    dims = None if clip is None else np.empty(n, dtype=np.int64)
    step = _block_cells(m + rows, nK)

    def take(s, e):
        # a call per block: its arrays are freed before the next is built
        c = cells[s:e]
        v = F._fibers(c)
        vb = v if band is None else band._fibers(c)
        b = rows_of(s, e, vb)
        if clip is not None:
            dims[s:e] = _clip_orthonormalize(b, clip[:, c])
        if store:
            basis[s:e] = b
            b = basis[s:e]
        conj = b.conj()
        if band is not None:
            own[:] += _abs2(np.einsum("cjk,ikc->cij", conj, v)).sum(axis=(0, 2))
        amp[s:e] = np.einsum("cjk,ikc->cij", conj, vb)

    for s in range(0, n, step):
        take(s, s + step)
    w = F.grid.cell_weight
    total = _abs2(amp).sum(axis=(0, 2)) * w
    if band is None:
        return basis, dims, total, None
    return basis, dims, own * w, total


def _sis_rows(ef, ell):
    """rows_of for _fiber_pass over ef's active cells, and the rows kept per
    cell: the generator fibers b_j = lambda_j^(-1/2) sum_i conj(y_j)_i
    fiber_i of the top-ell eigenpairs, zero rows where the eigenvalue is
    negligible."""
    rows = min(ell, ef.m)
    lam = ef.eigenvalues[:, :rows]
    keep = lam > (_RANK_CUT * ef.trace)[:, None]
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, lam, 1.0)), 0.0)
    scaled = ef.vectors[:, :rows, :].conj() * inv_sqrt[:, :, None]

    def rows_of(s, e, v):
        b = np.einsum("cji,ikc->cjk", scaled[s:e], v)
        b[~keep[s:e]] = 0.0
        return b

    return rows_of, keep.sum(axis=1).astype(np.int64)


def _solve(F, ell, group=None, mask=None, clip=None, store=True):
    """best_sis of F, or with a group best_gamma, or either of the band
    project_pw(F, mask) with a band mask, whose fibers every cut and row
    reads; with clip, best_sis's rows clipped to those band bits
    (solve_then_project).  Returns (model, report, energy, captured): F's
    own per-channel energy and the part of it the model's rows capture,
    taken in the same pass as the report's.  The model holds its basis
    only if store: the command line reads only its dims.  The energies are
    checked finite before the pass, so no amplitude sum overflows.  With a
    band, F's captured energy is summed a block at a time: it only feeds
    project_then_solve's self-check."""
    ell = _check_length(ell)
    band = None if mask is None else project_pw(F, mask)
    P = F if band is None else band
    if group is None:
        ef = _eigen_cut(*_dataset_blocks(P), ell)
        cells, density = ef.active_idx, ef.density
        rows_of, dims = _sis_rows(ef, ell)
        rows = min(ell, ef.m)
    else:
        part = orbit_partition(F.grid, group, cells_only=True)
        off_perms = offset_permutations(F.grid, group)
        if mask is not None and not _invariant(mask.bits, off_perms, part.cell_perms):
            raise ValueError("mask is not invariant under the group")
        cells, density, rows, rows_of, dims = _gamma_rows(P, group, ell, part, off_perms)
    inside = None if band is None else band.energy()
    energy = F.energy()
    basis, clipped, captured, band_captured = _fiber_pass(F, cells, rows, rows_of, band,
                                                          clip, store)
    model = SubspaceModel(F.lattice, F.grid, ell, cells, basis,
                          dims if clip is None else clipped, group=group)
    per_channel = energy - captured if band is None else inside - band_captured
    total = ef.error if group is None else float(per_channel.sum())
    report = ApproxReport(total, per_channel, active_idx=cells, density=density)
    return model, report, energy, captured


def best_sis(F, ell, *, _store=True):
    """Optimal lattice-invariant subspace of length at most ell.

    Returns (model, report); the report's total is the infimum of the
    aggregate squared approximation error over all such subspaces.  With
    _store False the model keeps no basis (model.basis is None): the
    command line prints only its dims.
    """
    return _solve(F, ell, store=_store)[:2]


def subspace_length(F):
    """Smallest length of an invariant subspace containing all channels:
    the max over cells of the fiber Gramian rank at relative threshold 1e-9."""
    return _eigen_cut(*_dataset_blocks(F), 0, vectors=False).length


def error_against(F, model):
    """Aggregate and per-channel squared error of approximating F by an
    already-built model (whose basis rows must be orthonormal per cell)."""
    if not F.grid.compatible(model.grid):
        raise ValueError("mismatched grid between dataset and model")
    energy = F.energy()
    basis = model.basis
    captured = _fiber_pass(F, model.active_idx, basis.shape[1], lambda s, e, v: basis[s:e],
                           store=False)[2]
    per_channel = energy - captured
    return ApproxReport(float(per_channel.sum()), per_channel)


def generators(model):
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


def best_gamma(F, group, ell, *, _store=True):
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
    group order) is the per-orbit optimum, which the model attains.  With
    _store False the model keeps no basis, as in best_sis.
    """
    return _solve(F, ell, group, store=_store)[:2]


def _gamma_rows(F, group, ell, part, off_perms):
    """best_gamma's cut of F, a band of an invariant mask included, for the
    orbit partition part of the cells and the offset permutations
    off_perms.  Returns (cells, density, rows, rows_of, dims) for
    _fiber_pass: every active cell, its share of the per-orbit optimum, the
    rows per cell, the rows of cells s..e-1 -- each its representative's
    carried by the smallest group element that maps the representative
    there -- and the rows kept per cell."""
    n_group, m, nK = len(group), F.m, F.grid.n_offsets
    reps, cell_perms = part.representatives, part.cell_perms
    gather = _symmetrized(F, group, cell_perms, off_perms)

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
    # the inverse of the group element that carries each cell's
    # representative there: written in descending order, the smallest stays
    pos = np.searchsorted(all_active, cell_perms[:, active])
    carry = np.empty(len(all_active), dtype=np.int64)
    for gi in range(n_group - 1, -1, -1):
        carry[pos[gi]] = group.inverses[gi]

    def rows_of(s, e, v):
        return np.take_along_axis(rep_basis[src[s:e]], off_perms[carry[s:e], None, :], axis=2)

    return all_active, ef.density[src] / n_group, rows, rows_of, rep_dims[src]


def project_then_solve(F, mask, ell, group=None, *, _store=True):
    """Project the data onto the band mask, then solve for the optimal
    subspace inside it.

    The report's total is the projected optimum plus the out-of-band energy;
    its generators vanish outside the mask by construction.  The solve
    reads the band project_pw(F, mask), which holds no copy of F.
    The self-check measures the model against F's own fibers in the pass
    that builds it.  With _store False the model keeps no basis, as in
    best_sis.
    """
    _require_same_grid(F, mask)
    outside = residual_energy(F, mask)
    model, rep, energy, captured = _solve(F, ell, group, mask, store=_store)
    total = rep.total_error + float(outside.sum())
    per_channel = rep.per_channel + outside
    direct = float((energy - captured).sum())
    scale = 1.0 + float(energy.sum())
    if not abs(direct - total) <= 1e-9 * scale:
        raise RuntimeError(
            "project-then-solve total %r differs from the measured error %r of "
            "its own model" % (total, direct))
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


def solve_then_project(F, mask, ell, *, _store=True):
    """Solve for the optimal subspace first, then intersect its generators
    with the band mask.  Generally suboptimal; returned for comparison with
    project_then_solve.  Each block's rows are clipped in the pass that
    builds them, and only the clipped model's error is measured.  With
    _store False the model keeps no basis, as in best_sis."""
    _require_same_grid(F, mask)
    model, rep = _solve(F, ell, clip=mask.bits, store=_store)[:2]
    return model, ApproxReport(float(rep.per_channel.sum()), rep.per_channel)


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
