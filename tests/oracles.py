"""Reference implementations the suite checks the library against.

None of these run in the library. The subset DP is an O(2^n * n) maximum
weight matching over any vertex set, kept as the independent reference for
the bandwidth DP in `deadline_matching.offline`. The mask constructions,
the pointwise product and the cover test spell out the covering analysis on
explicit {0,1} graphs, and `solve_cover_lp_direct` solves the covering LP
with one variable per column (or per permutation), which the
orbit-collapsed `solve_cover_lp` must agree with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from deadline_matching.graphs import Matching, Pair, WeightedGraph, ordered_pair
from deadline_matching.masks import (_slots, batching_from_order, cover_deficits,
                                     cycle_power, enumerate_periodic_batchings,
                                     periodic_extension)
from deadline_matching.offline import EXACT_MATCHING_CAP, SizeLimitError
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
    slots = _slots(sigma, n)
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
