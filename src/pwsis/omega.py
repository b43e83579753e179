"""Optimal band selection: given a measure budget, pick the region of the
frequency grid capturing the most signal energy.

The energy density is piecewise constant on grid boxes of measure
cell_weight, so the optimum is a top-n selection of flat (offset, cell)
indices; the group-invariant variant selects whole orbits via an exact-fill
knapsack over the few distinct orbit sizes.
"""

import math

import numpy as np

from .lattice import orbit_partition
from .spectral import PWMask, _finite_sum, _unique

__all__ = [
    "DensityField",
    "energy_density",
    "best_omega",
    "best_omega_invariant",
    "omega_duality_check",
]


class DensityField:
    """Summed squared channel magnitudes per (offset, cell) box."""

    def __init__(self, lattice, grid, phi):
        self.lattice = lattice
        self.grid = grid
        self.phi = phi
        self.phi.setflags(write=False)

    def total(self):
        with np.errstate(over="ignore"):
            return float(_finite_sum(self.phi.sum() * self.grid.cell_weight))


def energy_density(F):
    """The density of F; a box whose sum over channels overflows holds inf,
    which total() reports."""
    phi = np.zeros((F.grid.n_offsets, F.grid.n_cells))
    with np.errstate(over="ignore"):
        for i in range(F.m):
            phi += F._squares(i)
    return DensityField(F.lattice, F.grid, phi)


def _box_count(grid, measure):
    """Validate that the measure is an integer number of grid boxes and
    within range (a non-finite measure is out of range); return the count."""
    # a Python float quotient overflows to inf without a numpy warning
    w = float(grid.cell_weight)
    q = float(measure) / w
    n = int(round(q)) if math.isfinite(q) else None  # None: out of range
    if n is not None and not math.isclose(q, n, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            "measure not grid-representable: %.12g is not a multiple of the box "
            "measure %.12g; nearest representable are %.12g and %.12g"
            % (measure, w, math.floor(q) * w, math.ceil(q) * w))
    total = grid.n_offsets * grid.n_cells
    if n is None or n < 0 or n > total:
        raise ValueError("measure %.12g outside the representable range [0, %.12g]"
                         % (measure, total * w))
    return n


def best_omega(density, measure):
    """Mask of the n highest-density boxes (ties broken toward the smaller
    flat index) and the captured energy; the mask maximizes captured energy
    among all masks of the given measure.

    The n-th largest density t is found by one partition: every box above
    t is taken, then the boxes at t in ascending flat order until n are,
    the set a stable descending sort would give first."""
    grid = density.grid
    n = _box_count(grid, measure)
    flat = density.phi.ravel()
    if n:
        t = np.partition(flat, flat.size - n)[flat.size - n]
        bits = flat > t
        tied = np.flatnonzero(flat == t)
        bits[tied[:n - np.count_nonzero(bits)]] = True
    else:
        bits = np.zeros(flat.size, dtype=bool)
    attained = float(flat[bits].sum() * grid.cell_weight)
    return PWMask(density.lattice, grid, bits.reshape(density.phi.shape)), attained


def _exact_fill_knapsack(values, weights, capacity):
    """Maximize sum(values[S]) over S with sum(weights[S]) == capacity.

    Items are grouped by (positive integer) weight; inside one group an
    optimal exact fill always takes a top-value prefix, ordered by
    (-value, index).  The state is one best value per used-capacity level
    0..capacity, updated group by group in ascending weight; each group
    keeps one backpointer array holding the prefix length taken at every
    level, and the selection is read back by walking the groups in reverse.
    Among equal values the smallest capacity used before the group (the
    longest prefix) wins.  Returns (value, sorted selected indices) or
    (None, None) when the capacity is not reachable.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=np.int64)
    best = np.full(capacity + 1, -np.inf)
    best[0] = 0.0
    reach = np.zeros(capacity + 1, dtype=bool)
    reach[0] = True
    steps = []
    for size in _unique(weights):
        size = int(size)
        ids = np.flatnonzero(weights == size)
        ids = ids[np.lexsort((ids, -values[ids]))]
        prefix = np.cumsum(values[ids])
        new, new_reach = best.copy(), reach.copy()
        took = np.zeros(capacity + 1, dtype=np.int64)
        for j in range(1, min(len(ids), capacity // size) + 1):
            shift = j * size
            cand = best[: capacity + 1 - shift] + prefix[j - 1]
            win = reach[: capacity + 1 - shift] & (cand >= new[shift:])
            new[shift:][win] = cand[win]
            took[shift:][win] = j
            new_reach[shift:] |= win
        best, reach = new, new_reach
        steps.append((size, ids, took))
    if not reach[capacity]:
        return None, None
    sel = []
    used = capacity
    for size, ids, took in reversed(steps):
        j = int(took[used])
        sel.extend(ids[:j].tolist())
        used -= j * size
    return best[capacity], sorted(sel)


def _reachable_units(sizes, total):
    """Boolean table of box counts expressible as whole-orbit sums.

    Bounded-knapsack reachability, one sliding-window pass per distinct
    orbit size (window OR via cumulative sums), O(total) per size class.
    """
    counts = {}
    for s in sizes:
        counts[int(s)] = counts.get(int(s), 0) + 1
    reach = np.zeros(total + 1, dtype=bool)
    reach[0] = True
    for size, count in sorted(counts.items()):
        nxt = np.zeros_like(reach)
        for res in range(size):
            sl = reach[res::size].astype(np.int64)
            c = np.cumsum(sl)
            width = count + 1
            shifted = np.zeros_like(c)
            if len(c) > width:
                shifted[width:] = c[:-width]
            nxt[res::size] = (c - shifted) > 0
        reach = nxt
    return reach


def best_omega_invariant(F, group, measure):
    """Best group-invariant mask of the given measure: selects whole orbits
    of (offset, cell) boxes maximizing captured energy with the measure met
    exactly; unreachable measures raise with the nearest reachable ones."""
    return _invariant_mask(F, orbit_partition(F.grid, group),
                           energy_density(F).phi.ravel(), measure)


def _invariant_mask(F, part, phi, measure):
    """best_omega_invariant on the box orbit partition part of F's grid and
    the flat energy density phi."""
    grid = F.grid
    n = _box_count(grid, measure)
    orb_val = np.bincount(part.orbit_index, weights=phi, minlength=len(part))
    best, sel = _exact_fill_knapsack(orb_val, part.sizes, n)
    if best is None:
        reach = np.flatnonzero(_reachable_units(part.sizes, phi.shape[0]))
        w = grid.cell_weight
        below = reach[reach < n].max()
        above = reach[reach > n].min()
        raise ValueError(
            "measure %.12g is not reachable as a union of whole orbits; nearest "
            "reachable measures are %.12g and %.12g" % (measure, below * w, above * w))
    chosen = np.zeros(len(part), dtype=bool)
    chosen[sel] = True
    bits = chosen[part.orbit_index]
    idx = np.flatnonzero(bits)
    attained = float(phi[idx].sum() * grid.cell_weight)
    return PWMask(F.lattice, grid, bits.reshape((grid.n_offsets, grid.n_cells))), attained


def omega_duality_check(F, group, measure):
    """Two routes to the group-invariant optimum: the direct masked integral
    of the density, and an independent selection over one representative box
    per orbit using the orbit-summed density and a 1/|G| measure budget.
    Returns (direct, sectioned); the two agree to rounding."""
    grid = F.grid
    part = orbit_partition(grid, group)
    phi = energy_density(F).phi.ravel()
    mask, _ = _invariant_mask(F, part, phi, measure)
    left = float(phi[np.flatnonzero(mask.bits.ravel())].sum() * grid.cell_weight)

    n = _box_count(grid, measure)
    # orbit-summed density at the representative, counted with stabilizer
    # multiplicity: sum of phi over all group images of the rep box
    k, c = np.divmod(part.representatives, grid.n_cells)
    phi_orbit = phi[part.off_perms[:, k] * grid.n_cells + part.cell_perms[:, c]].sum(axis=0)
    # a representative box occupies measure size * w / |G| of the quotient,
    # so its captured energy is the multiplicity-weighted density times that
    values = phi_orbit * part.sizes * (grid.cell_weight / len(group))
    best, _ = _exact_fill_knapsack(values, part.sizes, n)
    if best is None:
        raise RuntimeError("the orbit-representative knapsack found no exact fill "
                           "of %d boxes that the direct route reached" % n)
    right = float(best)
    return left, right
