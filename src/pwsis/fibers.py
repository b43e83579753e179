"""Fibers of spectral datasets, per-cell Gramian fields, group symmetrization
of channels, periodic-multiplier membership tests, and dilation transport.

The fiber of channel i at torus cell u is the vector of samples over the
offset set K.  All statements about invariant subspaces reduce to independent
linear algebra on these vectors; the Gramian field collects their inner
products.  Cells whose Gramian trace is exactly zero carry no information and
are skipped everywhere (synthesized zeros are exact zeros, so this loses
nothing).
"""

import os

import numpy as np

from .lattice import dilate_lattice, _cell_permutations, offset_permutations
from .spectral import FrequencyGrid, SpectralDataset, _VALUE_CAP, _abs2

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


def fiber(F, i, cell):
    """Fiber of channel i at a cell (flat index or d-tuple of cell indices)."""
    if i < 0 or i >= F.m:
        raise IndexError("channel index %d out of range" % i)
    c = _flat_cell(F.grid, cell)
    return FiberVector(c, F.values[i, :, c].copy())


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


def _cell_trace(values):
    """Sum of |value|^2 per cell: each channel's offsets in ascending order,
    then the channels in order, one row at a time to bound temporaries.  The
    explicit row loop keeps that order for any number of cells (numpy sums a
    single column pairwise), so a subset of cells gets the grid's sums."""
    out = np.zeros(values.shape[2])
    for i in range(values.shape[0]):
        s = _abs2(values[i, 0])
        for k in range(1, values.shape[1]):
            s += _abs2(values[i, k])
        out += s
    return out


def _active_cells(values):
    """Columns of values with a positive trace (see _cell_trace), and those
    traces."""
    trace = _cell_trace(values)
    keep = np.flatnonzero(trace > 0.0)
    return keep, trace[keep]


def _gramian_mats(va):
    """The Gramians G[c]_ij = sum_k va[i, k, c] conj(va[j, k, c]) of the
    C-contiguous fibers va: each entry sums over k in order, whatever the
    number of cells, so any slice of cells gets the bits of the whole."""
    other = va if _BUG_GRAMIAN_NO_CONJ else va.conj()
    return np.einsum("ikc,jkc->cij", va, other)


def _gramian_on(grid, values, cells=None):
    """Gramian field of the fibers in values[:, :, c], which sit at cells[c]
    (at cell c when cells is None).  values must be C-contiguous, so any
    subset of cells gives the same field there as the full grid."""
    keep, trace = _active_cells(values)
    if keep.shape[0] == values.shape[2]:
        va = values  # every cell is active: no gathered copy
    else:
        va = np.ascontiguousarray(values[:, :, keep])
    active = keep if cells is None else cells[keep]
    return GramianField(grid, values.shape[0], active, _gramian_mats(va), trace)


def gramian_field(F):
    """Per-cell Gramian of all channel fibers, summed in ascending offset
    order (einsum over the offset axis is a fixed-order reduction).

    When the dataset knows its support, only those cells are read; every
    other cell is zero and so inactive.  Cells never interact, so the result
    is the same as from the full grid."""
    if F.support is None:
        return _gramian_on(F.grid, F.values)
    # take() keeps the C layout, so the per-cell sums run as on the grid
    return _gramian_on(F.grid, F.values.take(F.support, axis=2), F.support)


def symmetrize(F, group):
    """Expand channels by the group action: channel (g, i) holds R_g f_i.

    The output has m * |G| channels ordered g-major.  Channel (g, i) at index
    (k, u) reads channel i of F at the inverse-image index, so the identity
    block is an exact copy and every channel is an index permutation of its
    source (energies are preserved exactly).
    """
    if group.d != F.grid.d:
        raise ValueError("group dimension %d does not match grid" % group.d)
    cell_perms = _cell_permutations(F.grid, group)
    off_perms = offset_permutations(F.grid, group)
    m, n = F.m, len(group)
    out = np.empty((m * n, F.grid.n_offsets, F.grid.n_cells), dtype=np.complex128)
    for gi in range(n):
        inv = group.inverse_index(gi)
        src = np.ix_(off_perms[inv], cell_perms[inv])
        for i in range(m):
            out[gi * m + i] = F.values[i][src]
    return SpectralDataset(F.lattice, F.grid, out, check_finite=False)


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


def regrid_to_lattice(F, lat):
    """Re-index the dataset's samples as a grid over another commensurable
    lattice, so per-lattice optima are computed from the same frequency set.

    Writing a sample as Ahat (j + r k) / r, the target layout needs the scale
    sigma = (det A / det A')^(1/d) to give an integer resolution r' = sigma r
    and the map C = (r'/r) A'^T Ahat to be an integer matrix; C then has
    determinant +-1 automatically, so samples land on distinct grid boxes of
    equal measure.  Raises ValueError for incommensurable targets.
    """
    src = F.lattice
    grid = F.grid
    d = src.d
    if lat.d != d:
        raise ValueError(
            "lattice dimension %d does not match the dataset's %d" % (lat.d, d))
    if lat.same_as(src):
        return F
    sigma = (src.det_abs / lat.det_abs) ** (1.0 / d)
    r2 = int(round(sigma * grid.r))
    if r2 < 1 or abs(sigma * grid.r - r2) > 1e-6 * max(1.0, sigma * grid.r):
        raise ValueError(
            "incommensurable lattices: resolution scale %.12g does not give "
            "an integer resolution at r=%d" % (sigma, grid.r))
    M = (lat.basis.T @ src.dual_basis) * (float(r2) / grid.r)
    C = np.rint(M)
    if np.max(np.abs(M - C)) > 1e-9:
        raise ValueError(
            "incommensurable lattices: the sample map is not integer "
            "(max deviation %.3g)" % float(np.max(np.abs(M - C))))
    C = C.astype(np.int64)
    if abs(int(round(np.linalg.det(C)))) != 1:
        raise ValueError("incommensurable lattices: the sample map is not unimodular")

    full = (grid.cell_vectors()[None, :, :]
            + grid.r * grid.offsets[:, None, :]).reshape(-1, d)
    full2 = full @ C.T
    k2 = np.floor_divide(full2, r2)
    j2 = full2 - r2 * k2
    K2, inverse = np.unique(np.vstack([k2, np.zeros((1, d), dtype=np.int64)]),
                            axis=0, return_inverse=True)
    if F.m * K2.shape[0] * r2 ** d > _VALUE_CAP:
        raise ValueError(
            "regridded dataset too large: %d values exceeds the supported bound"
            % (F.m * K2.shape[0] * r2 ** d))
    grid2 = FrequencyGrid(lat, r2, K2)
    if not np.array_equal(grid2.offsets, K2):
        raise RuntimeError("regridded offsets lost their sorted order")
    ki = np.asarray(inverse).ravel()[: k2.shape[0]]
    ci = np.ravel_multi_index(j2.T, (r2,) * d)
    vals = np.zeros((F.m, grid2.n_offsets, grid2.n_cells), dtype=np.complex128)
    vals[:, ki, ci] = F.values.reshape(F.m, len(ki))
    return SpectralDataset(lat, grid2, vals, check_finite=False)


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
