"""Mask graphs over arrival structure: cycle powers and batchings.

These are the {0,1}-weighted graphs the covering analysis is phrased in,
plus the pointwise algebra (linear combination, cover deficits) and the
enumeration of periodic batch partitions used as covering-LP columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graphs import ArrivalOrder, Pair, WeightedGraph, as_integer, ordered_pair

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Cyclic geometry on vertices 1..n

def cyclic_distance(i: int, j: int, n: int) -> int:
    raw = abs(i - j) % n
    return min(raw, n - raw)


def rotate(batch, r: int, n: int) -> tuple[int, ...]:
    """The sorted image of a batch moved r steps round the n-cycle."""
    return tuple(sorted((v + r - 1) % n + 1 for v in batch))


def shift_orbit(batch, p: int, n: int) -> list[tuple[int, ...]]:
    """The sorted batch and its images under 1, ..., n/p - 1 shifts by p.

    When p divides n the list is the batch's period-shift orbit, each member
    repeated equally often if the orbit is shorter than n/p.
    """
    orbit = []
    cur = tuple(sorted(batch))
    for _ in range(n // p):
        orbit.append(cur)
        cur = rotate(cur, p, n)
    return orbit


def rotation_keys(batches, p: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The distinct rotations of a p-periodic partition, as sorted batch
    tuples in first-seen order of the step r. Rotating by p maps the
    partition to itself, so the steps r < p reach every rotation."""
    return list(dict.fromkeys(tuple(sorted(rotate(b, r, n) for b in batches))
                              for r in range(p)))


def periodic_extension(head, p: int, n: int) -> tuple[int, ...]:
    """Extend values on 1..p to 1..n by sigma(i + p) = sigma(i) + p (mod n)."""
    return tuple((head[i % p] + i // p * p - 1) % n + 1 for i in range(n))


def cycle_power(n: int, d: int) -> WeightedGraph:
    """The n-cycle to the power d: edge iff cyclic distance <= d."""
    if d < 1:
        raise ValueError("cycle power needs d >= 1")
    if n <= 2 * d:
        raise ValueError(f"n={n} <= 2d={2 * d}: cycle power degenerates")
    return WeightedGraph(n, {rotate((1, 1 + step), r, n): ONE
                             for r in range(n) for step in range(1, d + 1)})


def _slots(sigma, n: int) -> tuple[int, ...]:
    if isinstance(sigma, ArrivalOrder):
        slots = sigma.slots
    else:
        slots = tuple(int(s) for s in sigma)
    if len(slots) != n:
        raise ValueError("sigma length disagrees with n")
    return ArrivalOrder(slots).slots  # validates the permutation


def batch_index(slot: int, d: int) -> int:
    """The unique b with (d+1)(b-1) < slot <= (d+1)b."""
    return (slot + d) // (d + 1)


# ---------------------------------------------------------------------------
# Pointwise graph algebra

def combine(a, h: WeightedGraph, b, h2: WeightedGraph) -> WeightedGraph:
    """The weighted sum a*h + b*h2 (coefficients must keep weights >= 0)."""
    if h.n != h2.n:
        raise ValueError("graph sizes differ")
    a, b = Fraction(a), Fraction(b)
    sums: dict[Pair, Fraction] = {}
    for pair, w in h.weights.items():
        sums[pair] = sums.get(pair, Fraction(0)) + a * w
    for pair, w in h2.weights.items():
        sums[pair] = sums.get(pair, Fraction(0)) + b * w
    return WeightedGraph(h.n, sums)


def cover_deficits(h: WeightedGraph, h2: WeightedGraph):
    """Edges where h falls short of h2, with the (positive) deficit."""
    if h.n != h2.n:
        raise ValueError("graph sizes differ")
    out = []
    for i, j, w in h2.edges():
        have = h.weight(i, j)
        if have < w:
            out.append(((i, j), w - have))
    return out


# ---------------------------------------------------------------------------
# Periodic batch partitions

@dataclass(frozen=True)
class PeriodicBatching:
    """A partition of 1..n into batches that repeats with period p.

    Shifting every vertex by p (mod n) maps batches to batches. Full batches
    have batch_size vertices; at most one boundary batch may be smaller, and
    only when n is not a multiple of the batch size.
    """

    n: int
    batch_size: int
    period: int
    batches: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        batches = tuple(tuple(sorted(b)) for b in self.batches)
        batches = tuple(sorted(batches, key=lambda b: b[0]))
        object.__setattr__(self, "batches", batches)
        flat = [v for b in batches for v in b]
        if sorted(flat) != list(range(1, self.n + 1)):
            raise ValueError("batches must partition 1..n")
        sizes = sorted(len(b) for b in batches)
        if sizes[1:] and sizes[1:] != [self.batch_size] * (len(sizes) - 1):
            raise ValueError("all but at most one batch must have the full size")
        if sizes and sizes[0] != self.batch_size:
            if self.n % self.batch_size == 0:
                raise ValueError("no boundary batch allowed when the size divides n")
        if self.n % self.period:
            raise ValueError("period must divide n")
        if self.period < self.n:
            # shifting by p must permute the batches
            key = set(batches)
            if any(rotate(b, self.period, self.n) not in key for b in batches):
                raise ValueError("partition is not periodic with the stated period")

    def mask(self) -> WeightedGraph:
        weights = {}
        for batch in self.batches:
            for i, j in combinations(batch, 2):
                weights[ordered_pair(i, j)] = ONE
        return WeightedGraph(self.n, weights)

    def shifted(self, r: int) -> "PeriodicBatching":
        return PeriodicBatching(self.n, self.batch_size, self.period,
                                tuple(rotate(b, r, self.n) for b in self.batches))

    def canonical_key(self) -> tuple[tuple[int, ...], ...]:
        return self.batches

    def rotation_orbit(self) -> list["PeriodicBatching"]:
        return [PeriodicBatching(self.n, self.batch_size, self.period, key)
                for key in rotation_keys(self.batches, self.period, self.n)]

    def generator_batches(self) -> tuple[tuple[int, ...], ...]:
        """One representative batch per period-shift orbit (for storage)."""
        reps = []
        covered: set[tuple[int, ...]] = set()
        for batch in self.batches:
            if batch not in covered:
                reps.append(batch)
                covered.update(shift_orbit(batch, self.period, self.n))
        return tuple(reps)

    @classmethod
    def from_generators(cls, n: int, batch_size: int, period: int,
                        generators) -> "PeriodicBatching":
        if period < 1:
            raise ValueError(f"period must be positive, got {period}")
        batches = {b for gen in generators
                   for b in shift_orbit([as_integer(v) for v in gen], period, n)}
        return cls(n, batch_size, period, tuple(batches))


def batching_from_order(sigma, n: int, d: int, period: int | None = None) -> PeriodicBatching:
    """The batch partition induced by an arrival order with (d+1)-slot batches."""
    slots = _slots(sigma, n)
    buckets: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        buckets.setdefault(batch_index(slots[v - 1], d), []).append(v)
    return PeriodicBatching(n, d + 1, period if period is not None else n,
                            tuple(tuple(b) for b in buckets.values()))


def enumerate_periodic_batchings(n: int, p: int, d: int) -> list[PeriodicBatching]:
    """All distinct p-periodic (d+1)-batch partitions realizable by p-periodic
    permutations, i.e. the deduplicated covering-LP columns.

    Realizability requires every batch to hit pairwise distinct residues mod p
    (so its period-shift orbit has full length n/p and batch labels can follow
    the slot blocks). The enumeration places the batch of the smallest
    uncovered vertex together with its whole shift orbit, which yields each
    partition exactly once.
    """
    if (d + 1) > p or p % (d + 1):
        raise ValueError("batch size d+1 must divide the period")
    if n % p:
        raise ValueError("p must divide n")
    size = d + 1
    results: list[PeriodicBatching] = []

    def recurse(remaining: set[int], placed: list[tuple[int, ...]]):
        if not remaining:
            results.append(PeriodicBatching(n, size, p, tuple(placed)))
            return
        anchor = min(remaining)
        pool = sorted(v for v in remaining if v != anchor and (v - anchor) % p)
        for extra in combinations(pool, size - 1):
            batch = (anchor, *extra)
            residues = {v % p for v in batch}
            if len(residues) != size:
                continue
            # distinct residues keep the cells disjoint and inside `remaining`
            cells = shift_orbit(batch, p, n)
            recurse(remaining.difference(*cells), placed + cells)

    recurse(set(range(1, n + 1)), [])
    return results
