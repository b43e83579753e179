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
    "pair_permutations",
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
        det = np.linalg.det(basis)
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
    entries so group construction is deterministic.  duals[i] is
    (elements[i]^T)^-1, also integer.  inverses[i] is the index of the
    inverse of element i, found once from the integer products.
    """

    def __init__(self, elements, duals):
        self.elements = elements
        self.duals = duals
        self.d = elements.shape[1]
        self.order = elements.shape[0]
        self.identity_index = 0
        prods = np.einsum("aij,bjk->abik", elements, elements)
        is_ident = np.all(prods == np.eye(self.d, dtype=elements.dtype), axis=(2, 3))
        if not np.all(is_ident.any(axis=1)):
            raise RuntimeError("group closure lost an inverse")
        self.inverses = np.argmax(is_ident, axis=1)
        for a in (self.elements, self.duals, self.inverses):
            a.setflags(write=False)

    def __len__(self):
        return self.order

    def __repr__(self):
        return "PointGroup(order=%d, d=%d)" % (self.order, self.d)

    def inverse_index(self, i):
        """Index of the inverse of element i."""
        return int(self.inverses[i])


def _check_unimodular(mat):
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("group element must be a square matrix")
    mf = np.asarray(m, dtype=float)
    if not np.all(mf == np.rint(mf)):
        raise ValueError("does not preserve lattice: non-integer entries")
    mi = np.rint(mf).astype(np.int64)
    det = round(float(np.linalg.det(mf)))
    if abs(float(np.linalg.det(mf)) - det) > 1e-9 or abs(det) != 1:
        raise ValueError(
            "does not preserve lattice: |det| = %g, must be 1" % abs(np.linalg.det(mf))
        )
    return mi


def _integer_dual(mat):
    # (M^T)^-1 of an integer unimodular matrix is integer unimodular
    inv = np.linalg.inv(mat.T.astype(float))
    dual = np.rint(inv).astype(np.int64)
    if not np.array_equal(mat.T @ dual, np.eye(mat.shape[0], dtype=np.int64)):
        raise RuntimeError("dual of unimodular matrix failed integrality check")
    return dual


def make_group(mats, max_order=48):
    """Close a list of integer unimodular matrices into a finite group.

    Fails with "group not finite under bound" if the closure exceeds
    max_order (48 covers the crystallographic point groups in 2 and 3
    dimensions).
    """
    mats = [_check_unimodular(m) for m in mats]
    if not mats:
        raise ValueError("group needs at least one generator (or pass the identity)")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("group elements must share one dimension")
    ident = np.eye(d, dtype=np.int64)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    for m in mats:
        key = m.tobytes()
        if key not in seen:
            seen[key] = m
            frontier.append(m)
    # product closure; inverses come for free in a finite closed monoid of
    # invertible elements
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen.values()):
                for prod in (a @ b, b @ a):
                    key = prod.tobytes()
                    if key not in seen:
                        if len(seen) >= max_order:
                            raise ValueError(
                                "group not finite under bound (max order %d)" % max_order
                            )
                        seen[key] = prod
                        nxt.append(prod)
        frontier = nxt
    others = sorted(
        (m for m in seen.values() if not np.array_equal(m, ident)),
        key=lambda m: tuple(m.ravel()),
    )
    elements = np.stack([ident] + others) if others else ident[None]
    duals = np.stack([_integer_dual(m) for m in elements])
    return PointGroup(elements, duals)


class OrbitPartition:
    """Partition of flat grid indices into orbits of the dual group action.

    perms[g][i] is the image of index i under group element g, the table
    the partition is labelled from.  Orbit ids number the orbits by their
    minimum member, which is the lexicographic minimum because flat indices
    enumerate (offset, cell) pairs in lexicographic order: orbit_index maps
    every index to its id, representatives[i] is the minimum of orbit i and
    sizes[i] its member count.  orbits lists each orbit's members, sorted.
    """

    def __init__(self, perms):
        self.perms = perms
        # a group's table holds the identity and its images of i are i's
        # whole orbit, so every member's column minimum is the orbit minimum
        self.representatives, self.orbit_index, self.sizes = np.unique(
            perms.min(axis=0), return_inverse=True, return_counts=True)
        # one group element's row at a time: no |G| x n table of orbit ids
        if any(np.any(self.orbit_index[p] != self.orbit_index) for p in perms):
            raise RuntimeError("orbit enumeration produced overlapping orbits")

    def __len__(self):
        return len(self.sizes)

    @property
    def orbits(self):
        members = np.argsort(self.orbit_index, kind="stable")
        return np.split(members, np.cumsum(self.sizes)[:-1])


def _check_dimension(grid, group):
    if group.d != grid.d:
        raise ValueError("group dimension %d does not match grid dimension %d" % (group.d, grid.d))


def _cell_permutations(grid, group):
    """Flat cell index permutations for every dual matrix: j -> Ghat j mod r.

    perms[g][c] is the image cell of c under group element g.
    """
    J = grid.cell_vectors()
    r = grid.r
    shape = (r,) * grid.d
    perms = np.empty((len(group), grid.n_cells), dtype=np.int64)
    for gi in range(len(group)):
        img = (J @ group.duals[gi].T) % r
        perms[gi] = np.ravel_multi_index(img.T, shape)
    return perms


def offset_permutations(grid, group):
    """Offset index maps k -> Ghat k, or an error if K is not closed."""
    _check_dimension(grid, group)
    lookup = {tuple(k): i for i, k in enumerate(grid.offsets)}
    perms = np.empty((len(group), grid.offsets.shape[0]), dtype=np.int64)
    for gi in range(len(group)):
        img = grid.offsets @ group.duals[gi].T
        for ki, row in enumerate(img):
            t = tuple(int(v) for v in row)
            if t not in lookup:
                raise ValueError(
                    "offset set not group-closed: image %s of offset %s is missing"
                    % (t, tuple(int(v) for v in grid.offsets[ki]))
                )
            perms[gi, ki] = lookup[t]
    return perms


def pair_permutations(grid, group):
    """Flat (offset, cell) index maps for every dual matrix, offset-major as
    the dataset samples are laid out: perms[g][k * n_cells + c] is the flat
    index of (Ghat k, Ghat c mod r)."""
    off_perms = offset_permutations(grid, group)
    cell_perms = _cell_permutations(grid, group)
    pair_perms = off_perms[:, :, None] * grid.n_cells + cell_perms[:, None, :]
    return pair_perms.reshape(len(group), -1)


def orbit_partition(grid, group, cells_only=False):
    """Partition grid indices into orbits of the dual group action.

    By default the indices are flat (offset, cell) pairs, offset-major,
    matching the dataset sample layout.  cells_only=True partitions just the
    torus cells, which is what per-fiber solvers need.
    """
    if cells_only:
        _check_dimension(grid, group)
        return OrbitPartition(_cell_permutations(grid, group))
    return OrbitPartition(pair_permutations(grid, group))
