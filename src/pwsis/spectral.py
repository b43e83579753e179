"""Discretized frequency domain: grids of torus cells times dual-lattice
offsets, scene-driven synthesis of spectral datasets, band-limitation masks
and their projections.

The grid samples frequency points xi = Ahat @ (u + k) where u = j/r runs over
the left corners of the half-open torus cells [j/r, (j+1)/r) and k runs over a
finite integer offset set K.  Corner sampling plus half-open membership makes
two things exact: indicator partitions of aligned breakpoints, and the index
permutation action of integer dual-group matrices.
"""

import math

import numpy as np

from .lattice import Lattice

__all__ = [
    "FrequencyGrid",
    "SpectralDataset",
    "PWMask",
    "Scene",
    "Box",
    "Ball",
    "interval",
    "make_grid",
    "synthesize",
    "pw_mask",
    "project_pw",
    "residual_energy",
]


# Size cap checked before allocating: a parsed dataset or mask header may
# promise at most this many samples per channel (|K| * r^d), and a regridded
# dataset or one `pwsis synth` writes may hold at most this many values
# (m * |K| * r^d).
_VALUE_CAP = 1 << 24

# Bound on the magnitude of each real and imaginary part of a sample a
# dataset file or a synthesized scene may hold: below it every |v|^2 is
# finite.
_MAGNITUDE_CAP = 2.0 ** 511


class SumOverflow(ValueError):
    """A sum of |v|^2 over samples below _MAGNITUDE_CAP, or a synthesized
    sum of scene terms below it, exceeds its range; the command line names
    the input file the samples came from."""


def _finite_sum(x):
    """x, the float or array of energies just summed under np.errstate;
    SumOverflow unless its own sum is finite, so also every entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(x)
    if not np.isfinite(total):
        raise SumOverflow("energy of the samples exceeds the float64 range")
    return x


def _within_cap(x):
    """Whether every real and imaginary part in the float or complex array x
    is below _MAGNITUDE_CAP in magnitude (so also finite), read from its
    extremes without a temporary of its size."""
    x = np.ascontiguousarray(x).view(np.float64)
    return x.size == 0 or bool(-_MAGNITUDE_CAP < x.min() and x.max() < _MAGNITUDE_CAP)


def _unique(a, axis=None):
    """np.unique(a, axis=axis): the sorted distinct entries (or rows).
    Asking numpy for the indices too keeps it from importing numpy.ma, which
    numpy 2 does on the first np.unique call without them (8-16 ms, paid by
    every process that builds a grid)."""
    return np.unique(a, axis=axis, return_index=True)[0]


def _sorted_offsets(offsets, d):
    arr = np.array(offsets, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError("offsets must be integer %d-vectors" % d)
    arr = _unique(arr, axis=0)  # unique sorts rows lexicographically
    return arr


def _cell_weight(lattice, n_cells):
    """|det Ahat| / r^d, the measure of one sample of a grid of n_cells = r^d
    cells; ValueError unless it is a positive finite float."""
    # |det Ahat| = 1 / |det A|
    with np.errstate(over="ignore"):
        weight = 1.0 / (lattice.det_abs * n_cells)
    if not 0.0 < weight < np.inf:
        raise ValueError("cell weight %g out of range" % weight)
    return weight


def _grid_product(ranges):
    """Rows of the cartesian product of integer ranges, in C order."""
    mesh = np.meshgrid(*ranges, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)


class FrequencyGrid:
    """Sampling layout: resolution r per torus unit, offset set K, weights.

    cell_weight = |det Ahat| / r^d is the Lebesgue measure represented by one
    sample; the total represented measure is |K| * |det Ahat|.
    """

    def __init__(self, lattice, r, offsets):
        if int(r) != r or r < 1:
            raise ValueError("resolution must be a positive integer")
        self.lattice = lattice
        self.d = lattice.d
        self.r = int(r)
        self.offsets = _sorted_offsets(offsets, self.d)
        if self.offsets.shape[0] == 0:
            raise ValueError("empty offset set")
        if not any(np.all(k == 0) for k in self.offsets):
            raise ValueError("offset set must contain 0")
        self.n_offsets = self.offsets.shape[0]
        self.n_cells = self.r ** self.d
        self.cell_weight = _cell_weight(lattice, self.n_cells)
        self._offset_lookup = {tuple(int(v) for v in k): i for i, k in enumerate(self.offsets)}
        self._cells = None
        self.offsets.setflags(write=False)

    def cell_vectors(self):
        """(n_cells, d) integer cell indices j in C order."""
        if self._cells is None:
            cells = _grid_product([np.arange(self.r)] * self.d)
            cells.setflags(write=False)
            self._cells = cells
        return self._cells

    def sample_points(self, cells, k):
        """Physical sample points Ahat @ (j/r + k) of the cell vectors j (rows
        of cells) at offset k, (n, d).  Every sample point in the package is
        computed by this one expression."""
        return (cells / float(self.r) + k) @ self.lattice.dual_basis.T

    def offset_index(self, k):
        t = tuple(int(v) for v in np.atleast_1d(k))
        if t not in self._offset_lookup:
            raise KeyError("offset %s not in grid" % (t,))
        return self._offset_lookup[t]

    def difference(self, other):
        """The first field in which other differs from this grid, in the
        order dimension, resolution, lattice, offsets; None if none does."""
        same = {"dimension": self.d == other.d, "resolution": self.r == other.r,
                "lattice": self.lattice.same_as(other.lattice),
                "offsets": np.array_equal(self.offsets, other.offsets)}
        return next((field for field, ok in same.items() if not ok), None)

    def compatible(self, other):
        return self.difference(other) is None

    def __repr__(self):
        return "FrequencyGrid(d=%d, r=%d, offsets=%d)" % (self.d, self.r, self.n_offsets)


def make_grid(lattice, r, offsets):
    return FrequencyGrid(lattice, r, offsets)


# ---------------------------------------------------------------------------
# scenes


class Box:
    """Half-open axis-aligned box prod_i [lo_i, hi_i)."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("box bounds must be vectors of equal length")
        if not np.all(self.lo < self.hi):
            raise ValueError("box needs lo < hi in every coordinate")
        self.d = self.lo.shape[0]

    def contains(self, pts):
        return np.all((pts >= self.lo) & (pts < self.hi), axis=1)

    def __repr__(self):
        if self.d == 1:
            return "interval [%g, %g)" % (self.lo[0], self.hi[0])
        return "box %s x %s" % (self.lo.tolist(), self.hi.tolist())


class Ball:
    """Open euclidean ball |xi - center| < radius."""

    def __init__(self, center, radius):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        self.d = self.center.shape[0]

    def contains(self, pts):
        diff = pts - self.center
        return np.einsum("nd,nd->n", diff, diff) < self.radius ** 2

    def __repr__(self):
        return "ball(center=%s, radius=%g)" % (self.center.tolist(), self.radius)


def interval(a, b):
    """One-dimensional half-open box [a, b)."""
    return Box([a], [b])


class Scene:
    """Channel definitions: finite sums coeff * chi_primitive, each term
    optionally modulated by exp(-2 pi i <h, xi>) (a time translate by h).
    """

    def __init__(self, d):
        self.d = d
        self.terms = []  # (channel, coeff, primitive, h or None)

    def add(self, channel, coeff, primitive, mod=None):
        if primitive.d != self.d:
            raise ValueError("primitive dimension mismatch")
        if channel < 0 or int(channel) != channel:
            raise ValueError("channel must be a nonnegative integer")
        h = None
        if mod is not None:
            h = np.atleast_1d(np.asarray(mod, dtype=float))
            if h.shape != (self.d,):
                raise ValueError("modulation vector must have dimension %d" % self.d)
        self.terms.append((int(channel), complex(coeff), primitive, h))
        return self

    @property
    def n_channels(self):
        if not self.terms:
            return 0
        return max(t[0] for t in self.terms) + 1


def _offset_hull(primitive, lattice):
    """Hull of a primitive in lattice coordinates x = A^T xi: the extremes
    of each coordinate x_i = <a_i, xi> over the primitive, a_i the columns
    of A.  A ball's are c . a_i -+ R |a_i|; a box's are taken at its
    corners.  Membership is decided later on the real samples.  Returns the
    per-dimension bounds (xlo, xhi) as floats; the integer offsets a
    primitive can touch are floor(xlo) .. floor(xhi).
    """
    if isinstance(primitive, Ball):
        mid = primitive.center @ lattice.basis
        half = primitive.radius * np.linalg.norm(lattice.basis, axis=0)
        return mid - half, mid + half
    lo, hi = primitive.lo, primitive.hi
    d = lattice.d
    corners = np.array(np.meshgrid(*[(lo[i], hi[i]) for i in range(d)], indexing="ij"))
    corners = corners.reshape(d, -1).T @ lattice.basis  # rows: A^T @ corner
    return corners.min(axis=0), corners.max(axis=0)


def _cell_bounds(hull, grid, k):
    """Per-dimension bounds (lo, hi) of the cells a primitive with
    lattice-coordinate hull (xlo, xhi) can reach at offset k: every cell j
    whose corner j/r + k lies in the hull widened by one cell, clipped to
    [0, r).  k may be a stack of offsets (rows), giving rows of bounds."""
    r = grid.r
    xlo, xhi = hull
    lo = np.maximum(np.floor((xlo - k) * r) - 1.0, 0.0)
    hi = np.minimum(np.floor((xhi - k) * r) + 1.0, r - 1.0)
    return lo, hi


def _candidate_counts(hull, grid):
    """Number of _candidate_cells of hull at each grid offset, as floats,
    from the bounds of every offset in one pass."""
    lo, hi = _cell_bounds(hull, grid, grid.offsets)
    return np.prod(np.maximum(hi - lo + 1.0, 0.0), axis=1)


def _reached_offsets(hull, grid):
    """Indices of the grid offsets where _candidate_cells of hull is not
    empty."""
    return np.flatnonzero(_candidate_counts(hull, grid))


def _candidate_cells(hull, grid, k):
    """Cells a primitive with lattice-coordinate hull (xlo, xhi) can reach at
    offset k (see _cell_bounds).

    Returns (flat, pts): ascending flat cell indices and their sample points.
    The widening covers rounding in the sample-point product, so every sample
    inside the primitive is among the candidates.
    """
    r = grid.r
    lo, hi = _cell_bounds(hull, grid, k)
    if not np.all(lo <= hi):
        return np.zeros(0, dtype=np.int64), np.zeros((0, grid.d))
    cells = _grid_product([np.arange(int(a), int(b) + 1) for a, b in zip(lo, hi)])
    flat = np.ravel_multi_index(cells.T, (r,) * grid.d)
    return flat, grid.sample_points(cells, k)


# The band check walks a hull offset by offset and refuses a hull of more
# offsets than this.  A listing of a hull's offsets as int64 rows takes
# about 32 bytes per offset with its temporaries (61 MiB for the 2,000,001
# offsets of interval(-1e6, 1e6)), so no hull past the cap could be listed
# in 2 GiB.
_BAND_HULL_CAP = 2 ** 26


def _c_order(ranges):
    """The tuples of the product of the ranges, in C order, one at a time
    (itertools.product would hold every range as a tuple)."""
    if not ranges:
        yield ()
        return
    for k in ranges[0]:
        for rest in _c_order(ranges[1:]):
            yield (k,) + rest


def _validate_band(primitives, lattice, grid):
    """Error if a primitive has grid samples at offsets missing from K: the
    first such offset of its hull in C order.  The hull's offsets are
    walked, not listed, and the sample points decide, so half-open
    boundaries aligned with the band edge stay legal.  A hull that reaches
    offsets of 2^53/r or more, where sample points j/r + k are no longer
    exact, or that spans more than _BAND_HULL_CAP offsets is refused."""
    for prim in primitives:
        hull = _offset_hull(prim, lattice)
        if not np.all(np.abs(hull) * grid.r < 2.0 ** 53):
            raise ValueError("cannot check the band of %r: it reaches offsets of 2^53/r "
                             "or more" % (prim,))
        ranges = [range(math.floor(lo), math.floor(hi) + 1) for lo, hi in zip(*hull)]
        if math.prod(map(len, ranges)) > _BAND_HULL_CAP:
            raise ValueError("cannot check the band of %r: its hull spans more than 2^26 "
                             "offsets" % (prim,))
        for key in _c_order(ranges):
            if key in grid._offset_lookup:
                continue
            if np.any(prim.contains(_candidate_cells(hull, grid, np.array(key))[1])):
                raise ValueError(
                    "band too small: %r needs offset %s outside the grid" % (prim, key))


# samples whose squared imaginary parts _abs2 adds at once
_SLICE = 1 << 13


def _abs2(v):
    """Elementwise |v|^2 of a complex array, the one form every energy,
    trace and residual in the package is summed from: a new C-ordered array
    of the squared real parts, to which the squared imaginary parts are
    added a slice at a time, so its bits are v.real ** 2 + v.imag ** 2's."""
    out = np.square(v.real, out=np.empty(v.shape))
    flat, imag = out.reshape(-1), v.imag.reshape(-1)
    for a in range(0, flat.size, _SLICE):
        flat[a:a + _SLICE] += imag[a:a + _SLICE] ** 2
    return out


class SpectralDataset:
    """m channels of complex frequency samples over (offset, cell) indices.

    values has shape (m, n_offsets, n_cells), complex128, read-only.
    support, when known, is a read-only ascending array of flat cell indices
    that holds every cell with a nonzero value in any channel and offset;
    None means unknown.  Per-cell work may then skip the other cells.

    A synthesized dataset may be stored as its nonzero (offset, cell) pairs
    instead (see _from_pairs), and a band as the dataset it projects and the
    band's bits (see project_pw); values is then built on first access and
    kept.  Only this class knows the storage: _take, _fibers and _squares
    read the pairs or the band without building values.
    """

    def __init__(self, lattice, grid, values, check_finite=True, support=None):
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.ndim != 3 or values.shape[1:] != (grid.n_offsets, grid.n_cells):
            raise ValueError(
                "values must have shape (m, %d, %d)" % (grid.n_offsets, grid.n_cells)
            )
        if check_finite and not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")
        self.lattice = lattice
        self.grid = grid
        self._values = values
        self._values.setflags(write=False)
        self._pairs = self._band = None
        if support is not None:
            support = np.array(support, dtype=np.int64)
            if support.ndim != 1:
                raise ValueError("support must be a vector of flat cell indices")
            support.setflags(write=False)
        self.support = support

    @classmethod
    def _from_pairs(cls, lattice, grid, keys, pairs):
        """The dataset whose sample at the flat key k * n_cells + cell of
        channel i is pairs[i, p] where keys[p] is that key, zero off the
        keys: keys ascending, pairs of shape (m, len(keys)).  Its support is
        the keys' cells."""
        F = cls.__new__(cls)
        F.lattice = lattice
        F.grid = grid
        F._values = F._band = None
        for a in (keys, pairs):
            a.setflags(write=False)
        F._pairs = keys, pairs
        F.support = _unique(keys % grid.n_cells)
        F.support.setflags(write=False)
        return F

    @classmethod
    def _from_band(cls, F, bits):
        """F read through the band bits, zero off them: F's samples are not
        copied.  Its support is F's."""
        P = cls.__new__(cls)
        P.lattice, P.grid, P.support = F.lattice, F.grid, F.support
        P._values = P._pairs = None
        P._band = F, bits
        return P

    @property
    def values(self):
        """The dense samples, read through _fibers on first access when
        they are stored as pairs or a band."""
        if self._values is None:
            values = self._fibers(np.arange(self.grid.n_cells))
            values.setflags(write=False)
            self._values = values
        return self._values

    @property
    def _stored(self):
        """The array the samples are held in: the (m, P) pair values, those
        of the dataset a band reads, or values."""
        if self._band is not None:
            return self._band[0]._stored
        return self.values if self._pairs is None else self._pairs[1]

    @property
    def m(self):
        return self._stored.shape[0]

    def _take(self, idx, out=None):
        """Every channel's samples at the flat positions idx = k * n_cells +
        cell, an int array of any shape, as a new (m,) + idx.shape array or
        into out; a negative position reads 0, the one way a gather reads a
        zero.  A band sends its positions off the bits to -1."""
        if self._band is not None:
            F, bits = self._band
            return F._take(np.where(bits.reshape(-1).take(idx, mode="clip"), idx, -1), out)
        if self._pairs is None:
            flat = self.values.reshape(self.m, self.grid.n_offsets * self.grid.n_cells)
            # mode "raise" would buffer out whole; negative positions clip
            v = flat.take(idx, axis=1, mode="clip", out=out)
            np.copyto(v, 0.0, where=idx < 0)
            return v
        keys, pairs = self._pairs
        pos = np.searchsorted(keys, idx)
        found = pos < keys.size
        found[found] = keys[pos[found]] == idx[found]
        v = np.empty((pairs.shape[0],) + idx.shape, dtype=np.complex128) if out is None else out
        np.copyto(v, 0.0, where=~found)
        v[:, found] = pairs[:, pos[found]]
        return v

    def _fibers(self, c):
        """The (m, |K|, len(c)) fibers at the ascending cells c, a view for
        a contiguous run of dense storage."""
        if self._pairs is not None or self._band is not None:
            return self._take(np.arange(self.grid.n_offsets)[:, None] * self.grid.n_cells + c)
        if c[-1] - c[0] == len(c) - 1:
            return self.values[:, :, c[0]:c[-1] + 1]
        return self.values.take(c, axis=2)

    def _squares(self, i):
        """_abs2 of channel i as a new (n_offsets, n_cells) array: the very
        array of the dense layout, so every sum of it keeps its bits."""
        if self._band is not None:
            F, bits = self._band
            out = F._squares(i)
            out *= bits
            return out
        if self._pairs is None:
            return _abs2(self.values[i])
        keys, pairs = self._pairs
        out = np.zeros((self.grid.n_offsets, self.grid.n_cells))
        out.reshape(-1)[keys] = _abs2(pairs[i])
        return out

    def energy(self, i=None):
        """Squared norms per channel (Plancherel is exact on the grid)."""
        if i is not None:
            with np.errstate(over="ignore"):
                return float(_finite_sum(self._squares(i).sum() * self.grid.cell_weight))
        out = np.empty(self.m)
        for ch in range(self.m):
            out[ch] = self.energy(ch)
        return _finite_sum(out)

    def select_channels(self, indices):
        if self._pairs is not None:
            keys, pairs = self._pairs
            return SpectralDataset._from_pairs(self.lattice, self.grid, keys,
                                               pairs[list(indices)])
        return SpectralDataset(
            self.lattice, self.grid, self.values[list(indices)], check_finite=False,
            support=self.support,
        )

    def __repr__(self):
        return "SpectralDataset(m=%d, grid=%r)" % (self.m, self.grid)


def _term_samples(scene, hulls, grid):
    """(channel, ki, hit, add) in scene order: for each term, with its
    lattice-coordinate hull in hulls, and each offset ki where it hits a
    cell, ascending, the ascending cells hit and what the term adds to
    them: its coefficient, or the coefficient times each cell's phase."""
    for (channel, coeff, prim, h), hull in zip(scene.terms, hulls):
        for ki in _reached_offsets(hull, grid):
            cells, pts = _candidate_cells(hull, grid, grid.offsets[ki])
            inside = prim.contains(pts)
            hit = cells[inside]
            if hit.size == 0:
                continue
            if h is None:
                yield channel, ki, hit, coeff
            else:
                yield channel, ki, hit, coeff * np.exp(-2j * np.pi * (pts[inside] @ h))


def synthesize(scene, lattice, grid):
    """Sample a scene on the grid.

    Indicator membership is half-open for boxes and open for balls; the
    modulation term multiplies by exp(-2 pi i <h, xi>) at the physical sample
    point xi.  Every primitive must fit inside the covered band, otherwise a
    "band too small" error names the offender.  Each primitive is tested only
    at the offsets and on the cells its bounding box can reach, and the
    dataset's support is the union of the cells some primitive hit.  Terms
    are added in scene order at every sample.

    The dataset is stored as its nonzero (offset, cell) pairs unless a bound
    taken before anything is allocated, every candidate sample a key and m
    values, shows the pairs would not be smaller than the dense array.  Both
    take the same additions in the same order, so values is the same.
    """
    if scene.d != grid.d:
        raise ValueError("scene dimension %d does not match grid" % scene.d)
    if not lattice.same_as(grid.lattice):
        raise ValueError("mismatched grid: lattice differs from grid lattice")
    _validate_band([t[2] for t in scene.terms], lattice, grid)
    m = scene.n_channels
    n_cells = grid.n_cells
    hulls = [_offset_hull(t[2], lattice) for t in scene.terms]
    candidates = sum(_candidate_counts(hull, grid).sum() for hull in hulls)
    samples = _term_samples(scene, hulls, grid)
    if candidates * (8 + 16 * m) >= 16 * m * grid.n_offsets * n_cells:
        values = np.zeros((m, grid.n_offsets, n_cells), dtype=np.complex128)
        touched = np.zeros(n_cells, dtype=bool)
        for channel, ki, hit, add in samples:
            touched[hit] = True
            values[channel, ki, hit] += add
        F = SpectralDataset(lattice, grid, values, check_finite=False,
                            support=np.flatnonzero(touched))
    else:
        samples = list(samples)
        keys = _unique(np.concatenate([np.zeros(0, dtype=np.int64)]
                                      + [ki * n_cells + hit for _, ki, hit, _ in samples]))
        pairs = np.zeros((m, keys.size), dtype=np.complex128)
        for channel, ki, hit, add in samples:
            pairs[channel, np.searchsorted(keys, ki * n_cells + hit)] += add
        F = SpectralDataset._from_pairs(lattice, grid, keys, pairs)
    # coefficients below the cap can sum, or turn by a phase, past it; the
    # samples not stored are zero
    if not _within_cap(F._stored):
        raise SumOverflow("synthesized samples reach 2^511 or more in magnitude")
    return F


class PWMask:
    """Boolean field over (offset, cell): a band-limitation region as a union
    of grid cells."""

    def __init__(self, lattice, grid, bits):
        bits = np.ascontiguousarray(bits, dtype=bool)
        if bits.shape != (grid.n_offsets, grid.n_cells):
            raise ValueError("mask bits must have shape (%d, %d)" % (grid.n_offsets, grid.n_cells))
        self.lattice = lattice
        self.grid = grid
        self.bits = bits
        self.bits.setflags(write=False)

    @property
    def measure(self):
        return float(np.count_nonzero(self.bits)) * self.grid.cell_weight

    @classmethod
    def full(cls, lattice, grid):
        return cls(lattice, grid, np.ones((grid.n_offsets, grid.n_cells), dtype=bool))

    @classmethod
    def empty(cls, lattice, grid):
        return cls(lattice, grid, np.zeros((grid.n_offsets, grid.n_cells), dtype=bool))

    def complement(self):
        return PWMask(self.lattice, self.grid, ~self.bits)

    def __repr__(self):
        return "PWMask(measure=%g)" % self.measure


def pw_mask(region, lattice, grid):
    """Mask of the union of primitives; bit true iff the sample point lies in
    some primitive (same half-open conventions as synthesis)."""
    if not isinstance(region, (list, tuple)):
        region = [region]
    _validate_band(region, lattice, grid)
    bits = np.zeros((grid.n_offsets, grid.n_cells), dtype=bool)
    for prim in region:
        hull = _offset_hull(prim, lattice)
        for ki in _reached_offsets(hull, grid):
            cells, pts = _candidate_cells(hull, grid, grid.offsets[ki])
            bits[ki, cells[prim.contains(pts)]] = True
    return PWMask(lattice, grid, bits)


def _require_same_grid(F, other):
    if not F.grid.compatible(other.grid):
        raise ValueError("mismatched grid between dataset and mask")


def project_pw(F, mask):
    """The orthogonal projection of F onto the band of the mask: F read
    through the mask's bits, zero off them, with no copy of F's samples."""
    _require_same_grid(F, mask)
    return SpectralDataset._from_band(F, mask.bits)


def residual_energy(F, mask):
    """Per-channel energy outside the mask, i.e. the distance squared to the
    band-limited subspace of the mask."""
    return project_pw(F, mask.complement()).energy()
