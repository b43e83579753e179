"""Full-rank lattices, their duals and dilations, finite integer point groups,
and orbit partitions of frequency-grid indices under the dual group action.

Conventions used by every other module:

* a lattice is an invertible basis matrix A whose columns generate it,
* the dual basis is Ahat = (A^T)^-1, so the dual lattice is Ahat @ Z^d,
* point-group elements are integer unimodular matrices written in lattice
  coordinates (the element acts on R^d as A @ Gint @ A^-1), which turns
  "preserves the lattice" into a syntactic property of the matrix,
* the dual-coordinate matrices Ghat = (Gint^T)^-1 are again integer and
  unimodular, so they permute grid sample indices exactly: a sample index
  (offset k, cell j) maps to (Ghat @ k, Ghat @ j mod r).  The offset part
  carries no wrap-around, which is what keeps a truncated offset set closed
  under the action whenever Ghat(K) = K.
"""

import operator
from itertools import chain

import numpy as np

__all__ = [
    "Lattice",
    "PointGroup",
    "OrbitPartition",
    "make_lattice",
    "dilate_lattice",
    "reduce_to_fundamental",
    "make_group",
    "orbit_partition",
    "offset_permutations",
]

_SINGULAR_TOL = 1e-12


class Lattice:
    """Full-rank lattice A @ Z^d with cached dual basis and determinant.

    Immutable; the stored arrays are read-only views.
    """

    def __init__(self, basis):
        basis = np.array(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError("degenerate lattice: basis must be a square matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(basis)
        if not (np.isfinite(basis).all() and np.isfinite(det)):
            raise ValueError("lattice out of range: a basis entry or |det basis| is not finite")
        if abs(det) <= _SINGULAR_TOL:
            raise ValueError("degenerate lattice: |det basis| = %g" % abs(det))
        self.basis = basis
        self.dual_basis = np.linalg.inv(basis.T)
        self.det_abs = abs(det)
        self.d = basis.shape[0]
        for a in (self.basis, self.dual_basis):
            a.setflags(write=False)

    def __repr__(self):
        return "Lattice(%s)" % np.array2string(self.basis, separator=", ")

    def same_as(self, other):
        """Exact basis equality; used for grid compatibility checks."""
        return self.d == other.d and np.array_equal(self.basis, other.basis)


def make_lattice(basis):
    """Build a Lattice, rejecting singular bases."""
    return Lattice(basis)


def dilate_lattice(lat, A):
    """Lattice A @ (lat), i.e. basis A @ lat.basis.

    The dual basis of the result equals Ahat @ lat.dual_basis; this identity
    is checked because downstream transports rely on it.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (lat.d, lat.d):
        raise ValueError("dilation matrix must be %dx%d" % (lat.d, lat.d))
    if abs(np.linalg.det(A)) <= _SINGULAR_TOL:
        raise ValueError("singular dilation matrix")
    out = Lattice(A @ lat.basis)
    ahat = np.linalg.inv(A.T)
    if not np.allclose(out.dual_basis, ahat @ lat.dual_basis, atol=1e-10):
        raise RuntimeError("dual basis identity violated in dilate_lattice")
    return out


def reduce_to_fundamental(lat, xi):
    """Split a frequency point as xi = Ahat @ (u + k), u in [0,1)^d, k integer.

    Returns (u, k) with u a float vector and k an int vector.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (lat.d,):
        raise ValueError("frequency point must have dimension %d" % lat.d)
    # Ahat^-1 = A^T, so lattice coordinates are x = A^T @ xi.
    x = lat.basis.T @ xi
    k = np.floor(x)
    u = x - k
    # floating point can round u up to exactly 1.0; push such hits to the
    # next cell so the [0,1) contract holds
    bump = u >= 1.0
    u[bump] = 0.0
    k[bump] += 1
    return u, k.astype(int)


class PointGroup:
    """Finite group of integer unimodular matrices in lattice coordinates.

    elements[0] is the identity; the rest are sorted by their flattened
    entries so group construction is deterministic.  inverses[i] is the
    index of the inverse of element i, found once from the integer
    products.  duals[i] is (elements[i]^T)^-1 = (elements[i]^-1)^T, the
    transposed inverse, also integer.
    """

    def __init__(self, elements):
        self.elements = elements
        self.d = elements.shape[1]
        self.order = elements.shape[0]
        self.identity_index = 0
        prods = np.einsum("aij,bjk->abik", elements, elements)
        is_ident = np.all(prods == np.eye(self.d, dtype=elements.dtype), axis=(2, 3))
        if not np.all(is_ident.any(axis=1)):
            raise RuntimeError("group closure lost an inverse")
        self.inverses = np.argmax(is_ident, axis=1)
        self.duals = np.ascontiguousarray(elements[self.inverses].transpose(0, 2, 1))
        for a in (self.elements, self.duals, self.inverses):
            a.setflags(write=False)

    def __len__(self):
        return self.order

    def __repr__(self):
        return "PointGroup(order=%d, d=%d)" % (self.order, self.d)

    def inverse_index(self, i):
        """Index of the inverse of element i."""
        return int(self.inverses[i])


# Bound on the magnitude of every entry of a group element, generator or
# product: below it an entry is exact as a float and as int64.  The product
# of two elements of the closed group is an element, so its int64 product
# (PointGroup's inverse table) comes out exact, even where a partial sum
# wraps.
_ENTRY_CAP = 2 ** 53


def _det(rows):
    """Exact determinant of a square matrix given as rows of Python ints,
    by fraction-free (Bareiss) elimination: every division is exact."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _check_unimodular(mat):
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("group element must be a square matrix")
    mf = np.asarray(m, dtype=float)
    if not np.all(mf == np.rint(mf)):
        raise ValueError("does not preserve lattice: non-integer entries")
    if not np.all(np.abs(mf) < 2.0 ** 63):  # before the cast to int64
        raise ValueError("group element entry outside the int64 range")
    # entries of 2^53 or more may have been rounded on the way to floats
    if not np.all(np.abs(mf) < _ENTRY_CAP):
        raise ValueError("group element entry of magnitude 2^53 or more")
    ints = np.rint(mf).astype(np.int64)
    det = _det(ints.tolist())
    if abs(det) != 1:
        raise ValueError("does not preserve lattice: |det| = %g, must be 1" % abs(det))
    return ints


def _product(a, b):
    """a @ b of two matrices given as tuples of rows of Python ints, formed
    exactly; ValueError if an entry is of magnitude _ENTRY_CAP or more."""
    cols = list(zip(*b))
    prod = tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a])
    if max(map(abs, chain.from_iterable(prod))) >= _ENTRY_CAP:
        raise ValueError("group element entry of magnitude 2^53 or more")
    return prod


def make_group(mats, max_order=48):
    """Close a list of integer unimodular matrices into a finite group.

    Fails with "group not finite under bound" if the closure exceeds
    max_order (48 covers the crystallographic point groups in 2 and 3
    dimensions).  Determinants and the closure's products are exact,
    and every element's entries are below 2^53 in magnitude.
    """
    mats = [_check_unimodular(m) for m in mats]
    if not mats:
        raise ValueError("group needs at least one generator (or pass the identity)")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("group elements must share one dimension")
    # every word in the generators, found by multiplying each new element by
    # each generator; inverses come for free in a finite closed monoid of
    # invertible elements.  Elements are tuples of rows of Python ints, so no
    # product wraps.
    gens = [tuple(map(tuple, m.tolist())) for m in mats]
    ident = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                prod = _product(a, g)
                if prod not in seen:
                    if len(seen) >= max_order:
                        raise ValueError(
                            "group not finite under bound (max order %d)" % max_order
                        )
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    others = sorted((m for m in seen if m != ident), key=lambda m: sum(m, ()))
    return PointGroup(np.array([ident] + others, dtype=np.int64))


class OrbitPartition:
    """Partition of flat grid indices into orbits of the dual group action.

    Element g maps flat index k * n + c (n cells) to off_perms[g][k] * n +
    cell_perms[g][c]; the partition is labelled from these two factors.
    Orbit ids number the orbits by their minimum member, which is the
    lexicographic minimum because flat indices enumerate (offset, cell)
    pairs in lexicographic order: orbit_index maps every index to its id,
    representatives[i] is the minimum of orbit i and sizes[i] its member
    count.  orbits lists each orbit's members, sorted.
    """

    def __init__(self, off_perms, cell_perms):
        self.off_perms, self.cell_perms = off_perms, cell_perms
        n = cell_perms.shape[1]
        # a group's action holds the identity and its images of i are i's
        # whole orbit, so every member's minimum image is the orbit minimum;
        # taken one element at a time: no |G| x |K| n table
        low = np.full((off_perms.shape[1], n), np.iinfo(np.int64).max)
        for op, cp in zip(off_perms, cell_perms):
            np.minimum(low, op[:, None] * n + cp, out=low)
        # the orbit minima are the indices that are their own minimum, in
        # ascending order, and an orbit's id is its minimum's rank among them
        is_rep = low.ravel() == np.arange(low.size)
        self.representatives = np.flatnonzero(is_rep)
        rank = np.cumsum(is_rep)
        rank -= 1
        self.orbit_index = rank[low.ravel()]
        self.sizes = np.bincount(self.orbit_index, minlength=len(self.representatives))
        if not _invariant(self.orbit_index.reshape(low.shape), off_perms, cell_perms):
            raise RuntimeError("orbit enumeration produced overlapping orbits")

    def __len__(self):
        return len(self.sizes)

    @property
    def orbits(self):
        members = np.argsort(self.orbit_index, kind="stable")
        return np.split(members, np.cumsum(self.sizes)[:-1])


def _invariant(table, off_perms, cell_perms):
    """Whether each group element maps table (offsets x cells) onto itself."""
    return all(np.array_equal(table[np.ix_(op, cp)], table)
               for op, cp in zip(off_perms, cell_perms))


def _check_dimension(grid, group):
    if group.d != grid.d:
        raise ValueError("group dimension %d does not match grid dimension %d" % (group.d, grid.d))


def _cell_permutations(grid, group):
    """Flat cell index permutations for every dual matrix: j -> Ghat j mod r.

    perms[g][c] is the image cell of c under group element g.  Each dual is
    reduced mod r before the product, so no int64 sum wraps.
    """
    J = grid.cell_vectors()
    r = grid.r
    shape = (r,) * grid.d
    perms = np.empty((len(group), grid.n_cells), dtype=np.int64)
    for gi in range(len(group)):
        img = (J @ (group.duals[gi] % r).T) % r
        perms[gi] = np.ravel_multi_index(img.T, shape)
    return perms


def offset_permutations(grid, group):
    """Offset index maps k -> Ghat k, or an error if K is not closed.  The
    images are exact Python integers, so none wraps onto a listed offset."""
    _check_dimension(grid, group)
    lookup = {tuple(k): i for i, k in enumerate(grid.offsets)}
    perms = np.empty((len(group), grid.offsets.shape[0]), dtype=np.int64)
    for gi in range(len(group)):
        img = grid.offsets.astype(object) @ group.duals[gi].T
        for ki, row in enumerate(img):
            t = tuple(int(v) for v in row)
            if t not in lookup:
                raise ValueError(
                    "offset set not group-closed: image %s of offset %s is missing"
                    % (t, tuple(int(v) for v in grid.offsets[ki]))
                )
            perms[gi, ki] = lookup[t]
    return perms


def orbit_partition(grid, group, cells_only=False):
    """Partition grid indices into orbits of the dual group action.

    By default the indices are flat (offset, cell) pairs, offset-major,
    matching the dataset sample layout.  cells_only=True partitions just the
    torus cells, which is what per-fiber solvers need.
    """
    _check_dimension(grid, group)
    off_perms = (np.zeros((len(group), 1), dtype=np.int64) if cells_only
                 else offset_permutations(grid, group))
    return OrbitPartition(off_perms, _cell_permutations(grid, group))
