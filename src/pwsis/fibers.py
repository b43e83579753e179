"""Fibers of spectral datasets, per-cell Gramian fields, group symmetrization
of channels, periodic-multiplier membership tests, and dilation transport.

The fiber of channel i at torus cell u is the vector of samples over the
offset set K.  All statements about invariant subspaces reduce to independent
linear algebra on these vectors; the Gramian field collects their inner
products.  Cells whose Gramian trace is exactly zero carry no information and
are skipped everywhere (synthesized zeros are exact zeros, so this loses
nothing).
"""

import math
import os

import numpy as np

from .lattice import _det, dilate_lattice, _cell_permutations, offset_permutations
from .spectral import (FrequencyGrid, SpectralDataset, _VALUE_CAP, _abs2, _grid_product,
                       _unique)

__all__ = [
    "FiberVector",
    "GramianField",
    "fiber",
    "gramian_field",
    "symmetrize",
    "membership_test",
    "dilation_transport",
    "regrid_to_lattice",
    "gramian_covariance_check",
]

# debug hook: when set, every Gramian drops the conjugation on the second
# factor, which silently breaks Hermiticity; the covariance suite must catch
# it.  Enabled by the PWSIS_BUG_GRAMIAN_NO_CONJ environment variable, read
# once at import.
_BUG_GRAMIAN_NO_CONJ = bool(os.environ.get("PWSIS_BUG_GRAMIAN_NO_CONJ"))


class FiberVector:
    """Samples of one channel over all offsets at a fixed cell."""

    def __init__(self, cell, entries):
        self.cell = int(cell)
        self.entries = np.asarray(entries, dtype=np.complex128)

    def norm(self):
        return float(np.linalg.norm(self.entries))

    def __repr__(self):
        return "FiberVector(cell=%d, entries=%s)" % (self.cell, self.entries)


def _flat_cell(grid, cell):
    if isinstance(cell, (tuple, list, np.ndarray)):
        idx = np.ravel_multi_index(np.asarray(cell, dtype=np.int64), (grid.r,) * grid.d)
        return int(idx)
    cell = int(cell)
    if cell < 0 or cell >= grid.n_cells:
        raise IndexError("cell index %d out of range" % cell)
    return cell


def _check_channel(F, i):
    if i < 0 or i >= F.m:
        raise IndexError("channel index %d out of range" % i)


def fiber(F, i, cell):
    """Fiber of channel i at a cell (flat index or d-tuple of cell indices)."""
    _check_channel(F, i)
    c = _flat_cell(F.grid, cell)
    return FiberVector(c, F._take(np.arange(F.grid.n_offsets) * F.grid.n_cells + c)[i])


class GramianField:
    """Hermitian m x m Gramians G(u)_ij = <fiber_i(u), fiber_j(u)>, stored on
    the active cells only (trace > 0)."""

    def __init__(self, grid, m, active_idx, mats, trace):
        self.grid = grid
        self.m = m
        self.active_idx = active_idx
        self.mats = mats
        self.trace = trace
        for a in (self.active_idx, self.mats, self.trace):
            a.setflags(write=False)

    @property
    def n_active(self):
        return self.active_idx.shape[0]

    def dense_at(self, cell):
        """Gramian at one flat cell index, zero if the cell is inactive."""
        pos = np.searchsorted(self.active_idx, cell)
        if pos < self.n_active and self.active_idx[pos] == cell:
            return self.mats[pos]
        return np.zeros((self.m, self.m), dtype=np.complex128)

    def __repr__(self):
        return "GramianField(m=%d, active=%d/%d)" % (self.m, self.n_active, self.grid.n_cells)


# bytes of a block.  A block's fibers are held only until its products are
# taken, its operators and full eigenvectors only until their top rows are
# kept.
_BLOCK_BYTES = 1 << 20


def _block_cells(m, k):
    """Cells per block, the one block rule: as many as fit in _BLOCK_BYTES
    when each holds its m x k complex matrices twice, at least one (also for
    m = 0).  Twice covers what a block holds beside what it gathers: the
    conjugate, a copy or the rows made of its fibers, the eigenvectors of
    its operators."""
    return max(1, _BLOCK_BYTES // max(1, 32 * m * k))


def _cell_trace(values):
    """Sum of |value|^2 per cell: each channel's offsets in ascending order,
    then the channels in order, one channel's |v|^2 held at a time.  The
    explicit row loop keeps that order for any number of cells (numpy sums a
    single column pairwise), so a subset of cells gets the grid's sums."""
    out = np.zeros(values.shape[2])
    for i in range(values.shape[0]):
        s = _abs2(values[i])
        for k in range(1, values.shape[1]):
            s[0] += s[k]
        out += s[0]
    return out


def _active_cells(cells, gather, step):
    """Positions in cells whose fibers have a positive trace (see
    _cell_trace), and those traces.  gather(cells[s:e]) returns the fibers
    there; they are read step cells at a time, and the trace is per cell,
    so the blocks give the bits of one whole pass."""
    trace = np.empty(len(cells))
    for s in range(0, len(cells), step):
        trace[s:s + step] = _cell_trace(gather(cells[s:s + step]))
    keep = np.flatnonzero(trace > 0.0)
    return keep, trace[keep]


def _gramian_mats(va):
    """The Gramians G[c]_ij = sum_k va[i, k, c] conj(va[j, k, c]) of the
    fibers va: each entry sums over k in order, whatever the number of
    cells, so any slice of cells gets the bits of the whole."""
    other = va if _BUG_GRAMIAN_NO_CONJ else va.conj()
    return np.einsum("ikc,jkc->cij", va, other)


def _fiber_blocks(grid, m, cells, gather, fiber_side=False):
    """The one route from the m-channel fibers gather(c) at the ascending
    cells to their n x n operators: (grid, n, active, trace, block, step),
    solver._eigen_cut's arguments but the rank.  The trace pass reads step
    cells at a time; block(s, e) gathers the active cells s..e-1 once and
    returns their Gramians (n = m) or, on the fiber side, the Gramians
    across channels (n = |K|).  The larger of the two shapes sizes each
    gather and each eigh."""
    nK = grid.n_offsets
    n = nK if fiber_side else m
    step = min(_block_cells(m, nK), _block_cells(n, n))
    keep, trace = _active_cells(cells, gather, step)
    active = cells[keep]

    def block(s, e):
        v = gather(active[s:e])
        return _gramian_mats(v.transpose(1, 0, 2) if fiber_side else v)

    return grid, n, active, trace, block, step


def _dataset_blocks(F, layout=None):
    """_fiber_blocks of F's fibers over F's support, off which every cell is
    zero and so inactive, or over its whole grid; or, with layout =
    _regrid_layout(F, lat), of F regridded onto lat, read through
    _regrid_positions instead of from a regridded dataset."""
    if layout is None:
        cells = np.arange(F.grid.n_cells) if F.support is None else F.support
        return _fiber_blocks(F.grid, F.m, cells, F._fibers)
    positions = _regrid_positions(F, layout)
    return _fiber_blocks(layout[0], F.m, np.arange(layout[0].n_cells),
                         lambda c: F._take(positions(c)))


def gramian_field(F):
    """Per-cell Gramian of all channel fibers, summed in ascending offset
    order (einsum over the offset axis is a fixed-order reduction), on the
    active cells.  Cells never interact, so a support or a split into
    blocks gives the result of the full grid."""
    grid, m, active, trace, block, step = _dataset_blocks(F)
    mats = np.empty((len(active), m, m), dtype=np.complex128)
    for s in range(0, len(active), step):
        mats[s:s + step] = block(s, s + step)
    return GramianField(grid, m, active, mats, trace)


def _symmetrized(F, group, cell_perms, off_perms):
    """gather(c): symmetrize(F, group)'s fibers at the cells c, channel (g, i)
    at (k, c) taken from f_i at the inverse image, one group element's
    channels at a time, straight into the output."""
    m, n = F.m, F.grid.n_cells

    def gather(c):
        out = np.empty((m * len(group), F.grid.n_offsets, len(c)), dtype=np.complex128)
        for g, inv in enumerate(group.inverses):
            F._take(off_perms[inv][:, None] * n + cell_perms[inv, c], out[g * m:(g + 1) * m])
        return out

    return gather


def symmetrize(F, group):
    """Expand channels by the group action: channel (g, i) holds R_g f_i.

    The output has m * |G| channels ordered g-major.  Channel (g, i) at index
    (k, u) reads channel i of F at the inverse-image index, so the identity
    block is an exact copy and every channel is an index permutation of its
    source (energies are preserved exactly): the _symmetrized gather at
    every cell.
    """
    if group.d != F.grid.d:
        raise ValueError("group dimension %d does not match grid" % group.d)
    gather = _symmetrized(F, group, _cell_permutations(F.grid, group),
                          offset_permutations(F.grid, group))
    return SpectralDataset(F.lattice, F.grid, gather(np.arange(F.grid.n_cells)),
                           check_finite=False)


def membership_test(F, i, Psi, j, tol=1e-9):
    """Whether channel i of F lies in the invariant space generated by
    channel j of Psi: at every cell the fiber of f must be colinear with the
    fiber of psi (and vanish where psi does).

    The per-cell residual of projecting T f(u) onto span{T psi(u)} equals
    |T f(u)|^2 sin^2(angle) and must not exceed tol * |T f(u)|^2, a bound
    invariant under rescaling either fiber; zero psi-fibers admit only zero
    f-fibers.
    """
    if not F.grid.compatible(Psi.grid):
        raise ValueError("mismatched grid between datasets")
    _check_channel(F, i)
    _check_channel(Psi, j)
    a = F.values[i]
    b = Psi.values[j]
    na2 = _abs2(a).sum(axis=0)
    nb2 = _abs2(b).sum(axis=0)
    ip2 = _abs2((b.conj() * a).sum(axis=0))
    resid = np.where(nb2 > 0.0, na2 - ip2 / np.where(nb2 > 0.0, nb2, 1.0), na2)
    bound = tol * na2
    return bool(np.all(resid <= bound))


def dilation_transport(F, A):
    """Dataset of the unitary dilations D_A f_i, living on the lattice
    A^-1 (lattice of F).

    D_A f(x) = |det A|^(1/2) f(Ax) has spectrum |det A|^(-1/2) f_hat(Ahat xi),
    so on the transported lattice the sample points coincide with F's and the
    transport is a pure scaling of the stored values with the same (r, K)
    layout.  Transporting F from Lambda to A Lambda is the same call with
    A^-1.
    """
    A = np.asarray(A, dtype=float)
    lat = dilate_lattice(F.lattice, np.linalg.inv(A))
    grid = FrequencyGrid(lat, F.grid.r, F.grid.offsets)
    scale = abs(np.linalg.det(A)) ** -0.5
    return SpectralDataset(lat, grid, scale * F.values, check_finite=False,
                           support=F.support)


def _regrid_layout(F, lat):
    """(grid2, D, bounds): the grid of F's samples re-indexed over lat, the
    inverse D = C^-1 of the integer sample map C (see regrid_to_lattice) and
    the rows qlo, qhi, klo2, kbox _regrid_positions keys offsets with; or
    None when lat is F's own lattice.  Every check of the regrid runs here,
    the size cap included, before anything of the regridded size is
    allocated.

    The target offsets are found one source offset at a time: the offsets
    of its samples are keyed in 1-D over the bounding box of all of them,
    which row-major keys sort as the rows do.  The box is bounded from the
    corners of the cell box, where each linear coordinate takes its extremes;
    a box of more than 2^63 offsets raises numpy's ValueError."""
    src = F.lattice
    grid = F.grid
    d = src.d
    if lat.d != d:
        raise ValueError(
            "lattice dimension %d does not match the dataset's %d" % (lat.d, d))
    if lat.same_as(src):
        return None
    with np.errstate(over="ignore"):  # an infinite scale is reported below
        sigma = (src.det_abs / lat.det_abs) ** (1.0 / d)
        scaled = sigma * grid.r
    r2 = int(round(scaled)) if np.isfinite(scaled) else 0
    if r2 < 1 or abs(scaled - r2) > 1e-6 * max(1.0, scaled):
        raise ValueError(
            "incommensurable lattices: resolution scale %.12g does not give "
            "an integer resolution at r=%d" % (sigma, grid.r))
    if r2 > _VALUE_CAP:
        raise ValueError(
            "regridded dataset too large: resolution %.12g exceeds the supported "
            "bound %d" % (scaled, _VALUE_CAP))
    M = (lat.basis.T @ src.dual_basis) * (float(r2) / grid.r)
    C = np.rint(M)
    if not np.max(np.abs(M - C)) <= 1e-9:
        raise ValueError(
            "incommensurable lattices: the sample map is not integer "
            "(max deviation %.3g)" % float(np.max(np.abs(M - C))))
    # |C (j + r k)| bounded in Python ints: below 2^62, no int64 sum,
    # product or difference of sample coordinates below can wrap
    rows = [[int(x) for x in row] for row in C]
    kmax = max(int(grid.offsets.max()), -int(grid.offsets.min()))
    reach = max(sum(map(abs, row)) for row in rows) * (grid.r - 1 + grid.r * kmax)
    if reach >= 2 ** 62:
        raise ValueError("regrid out of range: sample coordinates reach %d, "
                         "2^62 or more" % reach)
    det = _det(rows)
    if abs(det) != 1:
        raise ValueError("incommensurable lattices: the sample map is not unimodular")
    # a target sample j2 + r2 k2 is the source sample D (j2 + r2 k2), taken
    # as D j2, below qreach, plus r2 D k2 = x - D j2 for a source sample x
    # at k2, below reach + qreach: with qreach below 2^61 each part and
    # their sum stay below 2^63
    D = [[det * (-1) ** (i + j) * _det([row[:i] + row[i + 1:]
                                        for t, row in enumerate(rows) if t != j])
          for j in range(d)] for i in range(d)]
    qreach = max(sum(map(abs, row)) for row in D) * max(r2 - 1, 1)
    if qreach >= 2 ** 61:
        raise ValueError("regrid out of range: inverse sample coordinates reach %d, "
                         "2^61 or more" % qreach)
    # qlo..qhi bounds D j2 // r over the target cells j2 per coordinate; the
    # source offsets of _regrid_positions are keyed over the box from klo2
    # of shape kbox: K's bounding box widened by what the cell part and its
    # carry add to an offset part clipped to lie just outside it
    klo, khi = grid.offsets.min(axis=0).tolist(), grid.offsets.max(axis=0).tolist()
    qlo = [sum(min(x, 0) for x in row) * (r2 - 1) // grid.r for row in D]
    qhi = [sum(max(x, 0) for x in row) * (r2 - 1) // grid.r for row in D]
    klo2 = [a - h - 2 + l for a, h, l in zip(klo, qhi, qlo)]
    kbox = [b - a + 2 * (h - l) + 5 for a, b, h, l in zip(klo, khi, qhi, qlo)]
    if math.prod(kbox) >= 2 ** 63:
        raise ValueError("regrid out of range: the source offsets of the target "
                         "samples span a box of 2^63 or more offsets")
    D = np.array(D, dtype=np.int64)
    C = C.astype(np.int64)

    corners = _grid_product([[0, grid.r - 1]] * d)
    ext = ((corners[None] + grid.r * grid.offsets[:, None]) @ C.T) // r2
    lo = np.minimum(ext.min(axis=(0, 1)), 0)
    box = tuple(np.maximum(ext.max(axis=(0, 1)), 0) - lo + 1)
    keys = [np.ravel_multi_index(-lo[:, None], box)]  # 0, which every grid holds
    # the sample Ahat (j + r k) / r is Ahat' (j2 + r2 k2) / r2 with (k2, j2) =
    # divmod(C (j + r k), r2); one source offset k at a time
    base = grid.cell_vectors() @ C.T
    for k in grid.offsets:
        y = base + grid.r * (C @ k)
        keys.append(_unique(np.ravel_multi_index((y // r2 - lo).T, box)))
    K2 = np.stack(np.unravel_index(_unique(np.concatenate(keys)), box), axis=1) + lo
    if F.m * K2.shape[0] * r2 ** d > _VALUE_CAP:
        raise ValueError(
            "regridded dataset too large: %d values exceeds the supported bound"
            % (F.m * K2.shape[0] * r2 ** d))
    grid2 = FrequencyGrid(lat, r2, K2)
    if not np.array_equal(grid2.offsets, K2):
        raise RuntimeError("regridded offsets lost their sorted order")
    return grid2, D, np.array([qlo, qhi, klo2, kbox])


def _regrid_positions(F, layout):
    """positions(c): the flat source positions k * n_cells + cell of the
    samples at the target cells c of layout = _regrid_layout(F, lat), a
    (|K'|, len(c)) array holding -1 where no source sample lands.

    C is unimodular, so target sample (k2, j2) is the source sample x =
    D (j2 + r2 k2) with (k, j) = divmod(x, r), none where k is not in K.
    The per-offset part r2 D k2 and the per-cell part D j2 are each divided
    by r once and keyed; a sample then costs adds, a carry per coordinate
    and one search in K's sorted keys."""
    grid2, D, (qlo, qhi, lo, box) = layout
    r, d = F.grid.r, F.grid.d
    # r2 D k2 is below 2^63 (see _regrid_layout), so its int64 product is
    # exact even where a partial product wraps; an offset part beyond K's
    # box by more than a cell part reaches holds no sample, and is moved to
    # just beyond it
    pk, pj = np.divmod((grid2.r * grid2.offsets) @ D.T, r)
    np.clip(pk, lo - qlo, lo + box - qhi - 2, out=pk)
    kstride = np.cumprod(np.append(1, box[:0:-1]))[::-1]
    cstride = r ** np.arange(d - 1, -1, -1)
    pkey, pcell = (pk - lo) @ kstride, pj @ cstride
    shape2 = (grid2.r,) * d
    # row-major keys sort as K's rows do; a key not in K finds the last
    # base, -n_cells, which leaves its position negative
    keys = (F.grid.offsets - lo) @ kstride
    base = np.append(np.arange(F.grid.n_offsets) * F.grid.n_cells, -F.grid.n_cells)

    def positions(c):
        qk, qj = np.divmod(np.stack(np.unravel_index(c, shape2), axis=1) @ D.T, r)
        key = pkey[:, None] + qk @ kstride
        cell = pcell[:, None] + qj @ cstride
        for i in range(d):
            carry = pj[:, i, None] >= r - qj[:, i]
            np.add(key, kstride[i], out=key, where=carry)
            np.subtract(cell, r * cstride[i], out=cell, where=carry)
        pos = np.searchsorted(keys, key)
        np.putmask(pos, keys.take(pos, mode="clip") != key, len(keys))
        cell += base.take(pos)
        return np.maximum(cell, -1, out=cell)

    return positions


def regrid_to_lattice(F, lat):
    """Re-index the dataset's samples as a grid over another commensurable
    lattice, so per-lattice optima are computed from the same frequency set.

    Writing a sample as Ahat (j + r k) / r, the target layout needs the scale
    sigma = (det A / det A')^(1/d) to give an integer resolution r' = sigma r
    and the map C = (r'/r) A'^T Ahat to be an integer matrix; C then has
    determinant +-1 automatically, so samples land on distinct grid boxes of
    equal measure.  Raises ValueError for incommensurable targets.  The
    target is filled a block of cells at a time through _regrid_positions.
    """
    layout = _regrid_layout(F, lat)
    if layout is None:
        return F
    grid2 = layout[0]
    positions = _regrid_positions(F, layout)
    values = np.empty((F.m, grid2.n_offsets, grid2.n_cells), dtype=np.complex128)
    step = _block_cells(F.m, grid2.n_offsets)
    for s in range(0, grid2.n_cells, step):
        c = np.arange(s, min(s + step, grid2.n_cells))
        F._take(positions(c), out=values[:, :, s:s + step])
    return SpectralDataset(lat, grid2, values, check_finite=False)


def gramian_covariance_check(F, A):
    """Max deviation over cells of |G_F(u) - |det A| * G_{F_D}(u)| where F_D
    is the dilation transport.

    Both Gramian fields are computed independently from their own datasets;
    the identity ties the field over A Lambda to the field of the dilated
    data over Lambda.
    """
    A = np.asarray(A, dtype=float)
    D = dilation_transport(F, A)
    GF = gramian_field(F)
    GD = gramian_field(D)
    scale = abs(np.linalg.det(A))
    cells = np.union1d(GF.active_idx, GD.active_idx)
    if cells.shape[0] == 0:
        return 0.0
    gf = np.zeros((cells.shape[0], F.m, F.m), dtype=np.complex128)
    gd = np.zeros_like(gf)
    gf[np.searchsorted(cells, GF.active_idx)] = GF.mats
    gd[np.searchsorted(cells, GD.active_idx)] = GD.mats
    return float(np.max(np.abs(gf - scale * gd)))
