"""Reference computations the benchmark checks the CLI against.

Everything here is written from the definitions (per-cell Eckart-Young on
fiber Gramians, the D4 index action, orbit sums), with numpy only, and
imports nothing from `pwsis`.
"""

import numpy as np

# D4 in lattice coordinates.  Each matrix is orthogonal, so the set of dual
# matrices (G^T)^-1 is the same set and acts on offsets and cells directly.
D4 = [np.array(g).reshape(2, 2) for g in (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))]

_TIE = 1e-9


def energies(values, w):
    """Per-channel energy sum |v|^2 * cell weight."""
    return (np.abs(values) ** 2).sum(axis=(1, 2)) * w


def eckart_young(values, ell, w):
    """Best length-ell lattice-invariant approximation, cell by cell.

    Returns (total error, per-channel errors, largest fiber Gramian rank).
    values has shape (m, n_offsets, n_cells).
    """
    m = values.shape[0]
    G = np.einsum("ikc,jkc->cij", values, values.conj())
    lam, Y = np.linalg.eigh(G)  # ascending, eigenvectors in columns
    lam = np.maximum(lam, 0.0)
    trace = np.einsum("cii->c", G).real
    drop = max(m - ell, 0)
    total = lam[:, :drop].sum() * w
    top_lam, top_vec = lam[:, drop:], Y[:, :, drop:]
    captured = np.einsum("cj,cij->i", top_lam, np.abs(top_vec) ** 2)
    per_channel = energies(values, w) - captured * w
    rank = int((lam > 1e-9 * trace[:, None]).sum(axis=1).max()) if len(trace) else 0
    return float(total), per_channel, rank


def index_maps(offsets, r, group):
    """Offset and flat-cell images k -> Gk, j -> Gj mod r for every element."""
    lookup = {tuple(int(v) for v in k): i for i, k in enumerate(offsets)}
    d = offsets.shape[1]
    mesh = np.meshgrid(*[np.arange(r)] * d, indexing="ij")
    cells = np.stack([a.ravel() for a in mesh], axis=1)
    off_perm = np.array([[lookup[tuple(int(v) for v in row)] for row in offsets @ g.T]
                         for g in group])
    cell_perm = np.array([np.ravel_multi_index(((cells @ g.T) % r).T, (r,) * d)
                          for g in group])
    return off_perm, cell_perm


def pair_perms(off_perm, cell_perm):
    """Flat (offset, cell) index images, shape (|G|, n_offsets * n_cells)."""
    nc = cell_perm.shape[1]
    return (off_perm[:, :, None] * nc + cell_perm[:, None, :]).reshape(len(off_perm), -1)


def orbits(perms):
    """Orbit id (smallest member) and orbit size of every index."""
    ids = perms.min(axis=0)
    srt = np.sort(perms, axis=0)
    sizes = 1 + (np.diff(srt, axis=0) != 0).sum(axis=0)
    return ids, sizes


def group_bound(values, off_perm, cell_perm, ell, w):
    """Per-orbit bound on the group-invariant optimum from symmetrized
    fibers at one representative cell per cell orbit.

    Returns (bound, low, high, ties).  An invariant model attains the bound.
    At orbits where the rank cut splits a tied eigenvalue the extension of
    the representative's basis need not be invariant, so there the error
    is only known to lie between the best length-ell error of the orbit's
    own cells and the orbit's whole energy; low and high widen the bound by
    those ranges over the `ties` such orbits.
    """
    n_group = len(off_perm)
    rep_of = cell_perm.min(axis=0)
    reps = np.unique(rep_of)
    sizes = np.bincount(rep_of, minlength=cell_perm.shape[1])[reps]
    S = np.concatenate([values[:, off_perm[g]][:, :, cell_perm[g][reps]]
                        for g in range(n_group)])
    M = np.einsum("akc,alc->ckl", S, S.conj())
    lam = np.maximum(np.linalg.eigvalsh(M)[:, ::-1], 0.0)
    trace = lam.sum(axis=1)
    scale = sizes / n_group * w
    orbit_bound = lam[:, ell:].sum(axis=1) * scale
    tie = np.zeros(len(reps), dtype=bool)
    if 0 < ell < lam.shape[1]:
        above, below = lam[:, ell - 1], lam[:, ell]
        tie = (above - below <= _TIE * trace) & (above > _TIE * trace)
    G = np.einsum("ikc,jkc->cij", values, values.conj())
    own = np.maximum(np.linalg.eigvalsh(G), 0.0)[:, :max(values.shape[0] - ell, 0)]
    orbit_own = np.bincount(np.searchsorted(reps, rep_of), weights=own.sum(axis=1),
                            minlength=len(reps)) * w
    bound = float(orbit_bound.sum())
    low = bound - float((orbit_bound - orbit_own)[tie].sum())
    high = bound + float((trace * scale - orbit_bound)[tie].sum())
    return bound, low, high, int(tie.sum())
