"""Reference implementations the suite checks the library against.

None of these run in the library. The subset DP is an O(2^n * n) maximum
weight matching over any vertex set, kept as the independent reference for
the bandwidth DP in `deadline_matching.offline`. The mask constructions,
the pointwise product and the cover test spell out the covering analysis on
explicit {0,1} graphs, and `solve_cover_lp_direct` solves the covering LP
with one variable per column (or per permutation), which the
orbit-collapsed `solve_cover_lp` must agree with; `realizing_permutation`
gives a p-periodic arrival order that induces a periodic batching, the
order reading of the columns that the covering transforms no longer use. `replay_branches` walks
a policy's coin tree with one replay per coin prefix, the reference for
`engine.enumerate_branches`, which replays each leaf once.
`AliveKeyedNaiveGreedy` and `AliveKeyedPostponedGreedy` are naive-greedy
and pg under finer state keys, over every alive vertex, which the forward
pass must agree with over more worlds. `PairwisePostponedGreedy` and
`PairwiseBatching` read one `weight` per pair where the library reads each
vertex's own edges, and `SnapshotDDA` copies every price and margin at
every event where the library keeps only the duals that moved.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from deadline_matching import engine
from deadline_matching.engine import (MAX_FLIPS, BranchingLimitExceeded, OutOfBits,
                                      ScriptedBits)
from deadline_matching.graphs import (ArrivalOrder, Matching, Pair, WeightedGraph,
                                      invert_permutation, ordered_pair)
from deadline_matching.masks import (PeriodicBatching, batching_from_order, cover_deficits,
                                     cycle_power, enumerate_periodic_batchings,
                                     translates)
from deadline_matching.offline import EXACT_MATCHING_CAP, SizeLimitError, band_matching
from deadline_matching.policies import (UNDETERMINED, BatchingPolicy,
                                        DynamicDeferredAcceptance, NaiveGreedy,
                                        PostponedGreedy)
from deadline_matching.simplex import certify_min_geq, solve_min_geq

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# The subset DP

def _subset_dp(graph: WeightedGraph, verts):
    """dp[mask]: best scaled matching value on the ascending vertices
    verts[i] with bit i set in `mask`, over `graph.scaled`; returns dp and
    the scaled adjacency lists."""
    k = len(verts)
    if k > EXACT_MATCHING_CAP:
        raise SizeLimitError(f"n={k} exceeds the exact cap of {EXACT_MATCHING_CAP}")
    ints = graph.scaled[0]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for i, u in enumerate(verts):
        for j in range(i + 1, k):
            w = ints.get((u, verts[j]))
            if w is not None:
                adj[i].append((j, w))
                adj[j].append((i, w))
    dp = [0] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        best = dp[rest]  # leave `low` unmatched
        for other, w in adj[low]:
            bit = 1 << other
            if mask & bit:
                cand = w + dp[rest ^ bit]
                if cand > best:
                    best = cand
        dp[mask] = best
    return dp, adj


def max_weight_matching_value(graph: WeightedGraph, vertices=None) -> Fraction:
    """Optimal matching value of the subgraph induced by `vertices` (default: all)."""
    verts = sorted(set(vertices)) if vertices is not None else graph.vertices()
    dp, _ = _subset_dp(graph, verts)
    return Fraction(dp[-1], graph.scaled[1])


def max_weight_matching_exact(graph: WeightedGraph) -> Matching:
    """Maximum-weight matching of a general graph by the subset DP. Refuses
    graphs beyond the cap rather than silently approximating."""
    dp, adj = _subset_dp(graph, graph.vertices())
    pairs: list[Pair] = []
    mask = len(dp) - 1
    while mask:  # the lowest vertex takes its smallest partner that keeps the optimum
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        for other, w in sorted(adj[low]):
            bit = 1 << other
            if mask & bit and w + dp[rest ^ bit] == dp[mask]:
                pairs.append((low + 1, other + 1))
                rest ^= bit
                break
        mask = rest
    return Matching.from_pairs(graph, pairs)


# ---------------------------------------------------------------------------
# Explicit masks and their algebra

def path_power(sigma, n: int, d: int) -> WeightedGraph:
    """Edge (i, j) iff |slot(i) - slot(j)| <= d: the arrival path to power d."""
    slots = (sigma if isinstance(sigma, ArrivalOrder) else ArrivalOrder(tuple(sigma))).slots
    if len(slots) != n:
        raise ValueError("sigma length disagrees with n")
    weights = {}
    for i, j in combinations(range(1, n + 1), 2):
        if abs(slots[i - 1] - slots[j - 1]) <= d:
            weights[(i, j)] = ONE
    return WeightedGraph(n, weights)


def batched_graph(sigma, n: int, d: int) -> WeightedGraph:
    """Edge (i, j) iff i and j fall in the same (d+1)-slot batch."""
    return batching_from_order(sigma, n, d).mask()


def multiply(h: WeightedGraph, h2: WeightedGraph) -> WeightedGraph:
    """Pointwise product; masking a weighted graph by a {0,1} mask is h*mask."""
    if h.n != h2.n:
        raise ValueError("graph sizes differ")
    out = {
        pair: w * h2.weights[pair]
        for pair, w in h.weights.items()
        if pair in h2.weights
    }
    return WeightedGraph(h.n, out)


def is_cover(h: WeightedGraph, h2: WeightedGraph) -> bool:
    """True iff h dominates h2 edgewise (every weight of h >= that of h2)."""
    return not cover_deficits(h, h2)


def contract_cycle_mask(n: int, d: int, u: int) -> WeightedGraph:
    """Group u consecutive vertices of C_n^d; edge between groups with any edge."""
    if n % u:
        raise ValueError("u must divide n")
    base = cycle_power(n, d)
    m = n // u
    group = lambda v: (v - 1) // u + 1
    weights = {}
    for i, j, _ in base.edges():
        gi, gj = group(i), group(j)
        if gi != gj:
            weights[ordered_pair(gi, gj)] = ONE
    return WeightedGraph(m, weights)


# ---------------------------------------------------------------------------
# Periodic arrival orders

def periodic_extension(head, p: int, n: int) -> tuple[int, ...]:
    """Extend values on 1..p to 1..n by sigma(i + p) = sigma(i) + p (mod n)."""
    return tuple((head[i % p] + i // p * p - 1) % n + 1 for i in range(n))


def realizing_permutation(pb: PeriodicBatching) -> tuple[int, ...]:
    """A p-periodic arrival order whose slot blocks induce this batching."""
    n, p, size = pb.n, pb.period, pb.batch_size
    if n % size:
        raise ValueError("boundary batches have no realizing block order")
    reps = pb.generator_batches()
    for batch in reps:
        if len(set(translates([batch], p, n))) != n // p:
            raise ValueError("a batch orbit is shorter than n/p; not realizable")
    if len(reps) != p // size:
        raise ValueError("orbit count disagrees with blocks per period")
    # the j-th representative fills slots j*size+1..(j+1)*size; the map from
    # slots to the vertices in them is p-periodic like the order itself
    occupant = periodic_extension([v for rep in reps for v in rep], p, n)
    order = invert_permutation(occupant, n)
    if batching_from_order(order, n, size - 1, period=p).canonical_key() != pb.canonical_key():
        raise AssertionError("reconstructed order does not realize the batching")
    return order


# ---------------------------------------------------------------------------
# Covering LPs without the orbit collapse

def enumerate_periodic_permutations(n: int, p: int):
    """All p-periodic permutations of 1..n (slot values of vertices 1..p fix the rest).

    A p-periodic permutation is determined by sigma on 1..p, which must take
    pairwise distinct values mod p; the remaining slots follow from
    sigma(i + p) = sigma(i) + p (mod n). Exponential in p; test-scale only.
    """
    if n % p:
        raise ValueError("p must divide n")

    def extend(sigma_head: list[int], used_residues: set[int]):
        if len(sigma_head) == p:
            yield periodic_extension(sigma_head, p, n)
            return
        for value in range(1, n + 1):
            if value % p in used_residues:
                continue
            used_residues.add(value % p)
            sigma_head.append(value)
            yield from extend(sigma_head, used_residues)
            sigma_head.pop()
            used_residues.discard(value % p)

    yield from extend([], set())


def solve_cover_lp_direct(n: int, p: int, d: int, power: int,
                          deduplicate: bool = True) -> Fraction:
    """One-variable-per-column LP, optionally per permutation (no dedup).

    Exponential in p; it exists to cross-check the orbit-collapsed solver on
    small cases, including the claim that duplicate columns do not move the
    optimum.
    """
    if deduplicate:
        masks = [col.mask() for col in enumerate_periodic_batchings(n, p, d)]
    else:
        masks = [batching_from_order(sigma, n, d).mask()
                 for sigma in enumerate_periodic_permutations(n, p)]
    target = cycle_power(n, power)
    edges = [(i, j) for i, j, _ in target.edges()]
    rows = [[mask.weight(i, j) for mask in masks] for (i, j) in edges]
    rhs = [Fraction(1)] * len(edges)
    costs = [Fraction(1)] * len(masks)
    solution = solve_min_geq(costs, rows, rhs)
    certify_min_geq(solution, costs, rows, rhs)
    return solution.value


# ---------------------------------------------------------------------------
# The coin tree, one replay per prefix

def replay_branches(instance, policy):
    """Yield (bits, RunResult) over the policy's fair-coin tree, depth first
    with 0 before 1: a replay that runs out of its scripted prefix is dropped
    and both one-bit extensions are replayed in its place. Refuses runs that
    consume more than MAX_FLIPS bits, as `engine.enumerate_branches` does."""
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        try:
            result = engine.simulate(instance, policy, bits=ScriptedBits(prefix))
        except OutOfBits:
            if len(prefix) >= MAX_FLIPS:
                raise BranchingLimitExceeded(f"policy consumed more than {MAX_FLIPS} fair bits")
            stack.append(prefix + (1,))
            stack.append(prefix + (0,))
            continue
        assert result.bits_used == len(prefix)
        yield prefix, result


# ---------------------------------------------------------------------------
# Naive-greedy and pg keyed on every alive vertex

class AliveKeyedNaiveGreedy(NaiveGreedy):
    """Naive-greedy keyed on each alive vertex's matched flag, tentative
    buyer and role. A seller keeps its tentative buyer after its critical
    event. The key is sound but finer than the open-seller key: it keeps
    worlds apart that differ only in a buyer or a closed seller."""

    def on_critical(self, v: int):
        buyer = self.tentative.get(v)
        return [(v, buyer)] if buyer is not None else ()

    def state_key(self):
        alive = self.view.alive()
        return (tuple(alive), tuple(map(self.view.is_matched, alive)),
                tuple(map(self.tentative.get, alive)), tuple(map(self.roles.get, alive)))


class AliveKeyedPostponedGreedy(PostponedGreedy):
    """pg keyed on each alive vertex's matched flag, tentative buyer and
    side, and that buyer's side. An alive partner's matched flag is in the
    key and a partner that is not alive has departed, so the key is sound
    but finer than the open-vertex key: it keeps worlds apart that differ
    only in a vertex whose critical event has run."""

    def state_key(self):
        alive, status, tentative = self.view.alive(), self.status, self.tentative
        return (tuple(alive), tuple(map(self.view.is_matched, alive)),
                tuple(map(tentative.get, alive)), tuple(map(status.get, alive)),
                tuple(map(status.get, map(tentative.get, alive))))


# ---------------------------------------------------------------------------
# Policies reading one weight per pair, and dda's histories as snapshots

class PairwisePostponedGreedy(PostponedGreedy):
    """pg whose arriving buyer copy bids on `weight` to every open seller
    copy, ascending, zero weights included."""

    def on_arrival(self, k: int):
        weight = self.view.weight
        self._bid(k, [(s, weight(s, k)) for s in sorted(self.tentative)])
        self._add_seller(k)
        self.status[k] = UNDETERMINED
        return ()


class PairwiseBatching(BatchingPolicy):
    """Batching whose table holds `weight` of every pair of alive members."""

    def on_arrival(self, v: int):
        self.members.append(v)
        slot = self.view.slot_of(v)
        width = self.view.deadline + self.lookahead + 1
        if slot % width and slot != self.view.n:
            return ()
        batch, self.members = self.members, []
        if len(batch) < 2:
            return ()
        batch, weight, alive = sorted(batch), self.view.weight, set(self.view.alive())
        live = [v for v in batch if v in alive]
        ints = {(a, b): w for i, a in enumerate(live, 1) for b in live[i:]
                if (w := weight(a, b))}
        self.log.append(("batch", tuple(batch)))
        return band_matching(ints, live, len(live) - 1)[1]


class SnapshotDDA(DynamicDeferredAcceptance):
    """dda whose histories append every market price and margin after
    every event."""

    def reset(self, view, rng):
        super().reset(view, rng)
        self._snapshots: tuple[dict, dict] = ({}, {})

    @property
    def _price_history(self):
        return self._snapshots[0]

    @property
    def _margin_history(self):
        return self._snapshots[1]

    def _snapshot(self):
        for s, p in self.market.prices.items():
            self._snapshots[0].setdefault(s, []).append(p)
        for b, q in self.market.margins.items():
            self._snapshots[1].setdefault(b, []).append(q)

    def on_arrival(self, v: int):
        emitted = super().on_arrival(v)
        self._snapshot()
        return emitted

    def on_critical(self, v: int):
        emitted = super().on_critical(v)
        self._snapshot()
        return emitted
