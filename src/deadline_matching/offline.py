"""Exact offline benchmarks: optimal matchings and bipartite auction duals.

Matchings come from two exact DPs on weights scaled to integers by the LCM
of their denominators, which keeps every comparison and tie: a bandwidth DP
along the arrival order, O(n * 2^d * d), and a subset DP over general graphs,
O(2^n * n). Every `Matching` returned has, among the maximum-weight ones, the
lexicographically smallest sorted pair list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .graphs import (Matching, OnlineInstance, Pair, WeightedGraph,
                     build_online_graph, ordered_pair)

EXACT_MATCHING_CAP = 24  # 2**n subset states; larger inputs are refused


class SizeLimitError(ValueError):
    """Input too large for the exact-by-enumeration guarantee."""


def _scaled(weights: list[Fraction]) -> tuple[list[int], int]:
    """The weights as integers over their least common denominator, and it."""
    scale = lcm(*(w.denominator for w in weights))
    return [w.numerator * (scale // w.denominator) for w in weights], scale


def _subset_dp(graph: WeightedGraph, verts):
    """dp[mask]: best scaled matching value on the vertices verts[i] with bit
    i set in `mask`; returns dp, the scaled adjacency lists and the scale."""
    k = len(verts)
    if k > EXACT_MATCHING_CAP:
        raise SizeLimitError(f"n={k} exceeds the exact cap of {EXACT_MATCHING_CAP}")
    index = {v: i for i, v in enumerate(verts)}
    edges = [(e, w) for e, w in graph.weights.items() if e[0] in index and e[1] in index]
    ints, scale = _scaled([w for _, w in edges])
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for ((i, j), _), w in zip(edges, ints):
        adj[index[i]].append((index[j], w))
        adj[index[j]].append((index[i], w))
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
    return dp, adj, scale


def max_weight_matching_value(graph: WeightedGraph, vertices=None) -> Fraction:
    """Optimal matching value of the subgraph induced by `vertices` (default: all)."""
    verts = sorted(vertices) if vertices is not None else graph.vertices()
    dp, _, scale = _subset_dp(graph, verts)
    return Fraction(dp[-1], scale)


def max_weight_matching_exact(graph: WeightedGraph) -> Matching:
    """Maximum-weight matching of a general graph by the subset DP. Refuses
    graphs beyond the cap rather than silently approximating."""
    dp, adj, _ = _subset_dp(graph, graph.vertices())
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


def _band_dp(graph: WeightedGraph, slots, d: int, value) -> tuple[int, int]:
    """Best total, and the scale, of `value(u, v, w)` over matchings of the
    live edges, w being the scaled weight of edge (u, v). The state after slot
    t has one bit per arrived vertex that is unmatched and has a live edge to
    a later arrival (bit k: slot t - k): at most 2**min(d, n - 1) states."""
    n = graph.n
    if min(d, n - 1) >= EXACT_MATCHING_CAP:
        raise SizeLimitError(f"band of {d} on n={n} exceeds the cap of {EXACT_MATCHING_CAP - 1}")
    inverse = [0] * n
    for v, s in enumerate(slots, start=1):
        inverse[s - 1] = v
    weights = graph.weights
    back: list[list] = [[] for _ in range(n)]  # per slot: (distance, vertex, weight)
    last = list(range(n))  # last[s]: latest slot with a live edge to slot s
    for t, v in enumerate(inverse):
        for dist in range(1, min(d, t) + 1):
            u = inverse[t - dist]
            w = weights.get((u, v) if u < v else (v, u))
            if w is not None:
                back[t].append((dist, u, w))
                last[t - dist] = t
    ints, scale = _scaled([w for row in back for _, _, w in row])
    drop = [0] * n  # bits of the vertices whose last live edge is at slot t
    for s, t in enumerate(last):
        drop[t] |= 1 << (t - s)
    scaled = iter(ints)
    states = {0: 0}
    for t, v in enumerate(inverse):
        edges = []
        for dist, u, _ in back[t]:
            edges.append((1 << (dist - 1), value(u, v, next(scaled))))
        keep = ~drop[t]
        nxt: dict[int, int] = {}
        for mask, total in states.items():
            up = mask << 1
            key = (up | 1) & keep  # the arrival waits
            if nxt.get(key, -1) < total:
                nxt[key] = total
            for bit, w in edges:  # or takes a waiting earlier vertex
                if mask & bit:
                    key = (up ^ (bit << 1)) & keep
                    cand = total + w
                    if nxt.get(key, -1) < cand:
                        nxt[key] = cand
        states = nxt
    return states[0], scale


def offline_optimum(instance: OnlineInstance) -> Matching:
    """Maximum-weight matching of the deadline-masked online graph.

    The bandwidth DP counts edge (i < j) as w * B**n + (n + 1 - j) * B**(n - i)
    with B = 2**bitlen(n); the low n base-B digits of a total name each
    vertex's larger partner, so the best total is unique and carries the
    tie-break. This key of about n * log2(n + 1) bits makes the DP superlinear.
    """
    n = instance.n
    b = n.bit_length()
    shift = b * n
    best, scale = _band_dp(instance.graph, instance.order.slots, instance.deadline,
                           lambda u, v, w: w << shift | (n + 1 - max(u, v)) << b * (n - min(u, v)))
    digits = format(best & ((1 << shift) - 1), f"0{shift}b")
    ends = [int(digits[i * b:(i + 1) * b], 2) for i in range(n)]
    pairs = [(i, n + 1 - end) for i, end in enumerate(ends, start=1) if end]
    return Matching(frozenset(pairs), Fraction(best >> shift, scale))


def realized_online_graph(instance: OnlineInstance,
                          departures: tuple[int, ...]) -> WeightedGraph:
    """Keep edge (i, j) iff the later arrival comes while the earlier vertex
    is still present under the realized departure offsets.

    The deadline still bounds which edges exist at all; realized departures
    can only shorten a window, never stretch it past the deadline graph.
    """
    slot = instance.order.slot_of
    kept = {}
    for (i, j), w in instance.graph.weights.items():
        earlier, later = (i, j) if slot(i) <= slot(j) else (j, i)
        window = min(departures[earlier - 1], instance.deadline)
        if slot(later) <= slot(earlier) + window:
            kept[(i, j)] = w
    return WeightedGraph(instance.n, kept)


def realized_offline_optimum(instance: OnlineInstance,
                             departures: tuple[int, ...]) -> Matching:
    """The offline benchmark under realized departures: optimal matching over
    pairs whose presence windows overlap."""
    return offline_optimum(replace(instance, graph=realized_online_graph(instance, departures)))


def arrival_window_matching_value(graph: WeightedGraph, slots: tuple[int, ...],
                                  d: int) -> Fraction:
    """m(G masked to |slot(i) - slot(j)| <= d), by the bandwidth DP."""
    best, scale = _band_dp(graph, slots, d, lambda u, v, w: w)
    return Fraction(best, scale)


def batched_matching_value(graph: WeightedGraph, slots: tuple[int, ...],
                           d: int) -> Fraction:
    """Sum of optimal matchings inside each consecutive (d+1)-slot batch."""
    n = graph.n
    inverse = [0] * n
    for v, s in enumerate(slots, start=1):
        inverse[s - 1] = v
    total = Fraction(0)
    weight = graph.weight
    for start in range(0, n, d + 1):
        batch = inverse[start:start + d + 1]
        if len(batch) < 2:
            continue
        if len(batch) == 2:
            total += weight(batch[0], batch[1])
        elif len(batch) == 3:
            a, b, c = batch
            total += max(weight(a, b), weight(a, c), weight(b, c))
        else:
            total += max_weight_matching_value(graph, batch)
    return total


# ---------------------------------------------------------------------------
# Offline dual feasibility

@dataclass(frozen=True)
class DualReport:
    feasible: bool
    total: Fraction
    weak_duality_ok: bool
    violations: tuple[tuple[Pair, Fraction], ...]  # (edge, positive slack deficit)

    def __str__(self):
        if self.feasible:
            return f"feasible, sum = {self.total}"
        lines = ", ".join(f"{e}: short by {s}" for e, s in self.violations)
        return f"infeasible on {len(self.violations)} edge(s): {lines}"


def verify_offline_dual(instance: OnlineInstance, lambdas: dict[int, Fraction],
                        claimed_primal: Fraction | None = None) -> DualReport:
    """Check v_ij <= lambda_i + lambda_j on every edge of the online graph.

    Also reports the dual objective and, when a primal value is claimed,
    whether weak duality (sum >= claimed) holds.
    """
    lam = {v: Fraction(lambdas.get(v, 0)) for v in instance.graph.vertices()}
    if any(x < 0 for x in lam.values()):
        bad = [v for v, x in lam.items() if x < 0]
        raise ValueError(f"dual values must be nonnegative; negative at {bad}")
    masked = build_online_graph(instance)
    violations = []
    for i, j, w in masked.edges():
        slack = lam[i] + lam[j] - w
        if slack < 0:
            violations.append(((i, j), -slack))
    total = sum(lam.values(), Fraction(0))
    weak = True if claimed_primal is None else total >= claimed_primal
    return DualReport(not violations, total, weak, tuple(violations))


# ---------------------------------------------------------------------------
# Incremental maximum-weight bipartite matching with exact dual prices.
# Buyers are inserted one at a time; each insertion either augments along
# tight edges or raises prices along an alternating tree until a zero-margin
# buyer is reached. Prices only rise and margins only fall, and the sum of
# prices and margins over pre-existing vertices is conserved per insertion.

class AuctionMarket:
    def __init__(self):
        self.prices: dict[int, Fraction] = {}
        self.margins: dict[int, Fraction] = {}
        self.edges: dict[Pair, Fraction] = {}  # (seller, buyer) -> weight
        self.match_sb: dict[int, int] = {}
        self.match_bs: dict[int, int] = {}

    # -- construction -------------------------------------------------------
    def add_seller(self, s: int, price: Fraction = Fraction(0)):
        if s in self.prices or s in self.margins:
            raise ValueError(f"vertex {s} already in the market")
        if price < 0:
            raise ValueError("prices are nonnegative")
        self.prices[s] = Fraction(price)

    def add_buyer(self, b: int, edges: dict[int, Fraction]) -> Fraction:
        """Insert a buyer with its seller edges and rebalance; returns q_b.

        The initial margin is max(0, max_s v_sb - p_s): a buyer with no
        profitable seller stays unmatched at margin zero, which keeps the
        duals feasible and complementary slackness intact.
        """
        if b in self.margins or b in self.prices:
            raise ValueError(f"vertex {b} already in the market")
        clean: dict[int, Fraction] = {}
        for s, w in edges.items():
            if s not in self.prices:
                raise ValueError(f"buyer {b} references unknown seller {s}")
            w = Fraction(w)
            if w < 0:
                raise ValueError("weights are nonnegative")
            if w > 0:
                clean[s] = w
                self.edges[(s, b)] = w
        margin = max((w - self.prices[s] for s, w in clean.items()), default=Fraction(0))
        self.margins[b] = max(Fraction(0), margin)
        if self.margins[b] > 0:
            self._rebalance(b)
        return self.margins[b]

    # -- removal (departures and finalized pairs) ---------------------------
    def remove_pair(self, s: int, b: int):
        if self.match_sb.get(s) != b:
            raise ValueError(f"({s}, {b}) is not a tentative pair")
        del self.match_sb[s]
        del self.match_bs[b]
        self._drop_seller(s)
        self._drop_buyer(b)

    def remove_seller(self, s: int):
        if s in self.match_sb:
            raise ValueError(f"seller {s} departs while matched")
        self._drop_seller(s)

    def remove_buyer(self, b: int):
        if b in self.match_bs:
            raise ValueError(f"buyer {b} departs while matched")
        self._drop_buyer(b)

    def _drop_seller(self, s: int):
        del self.prices[s]
        for pair in [p for p in self.edges if p[0] == s]:
            del self.edges[pair]

    def _drop_buyer(self, b: int):
        del self.margins[b]
        for pair in [p for p in self.edges if p[1] == b]:
            del self.edges[pair]

    # -- queries -------------------------------------------------------------
    def matched_buyer(self, s: int) -> int | None:
        return self.match_sb.get(s)

    def matching_value(self) -> Fraction:
        return sum((self.edges[(s, b)] for s, b in self.match_sb.items()), Fraction(0))

    def dual_total(self) -> Fraction:
        return sum(self.prices.values(), Fraction(0)) + sum(self.margins.values(), Fraction(0))

    def check_optimal(self):
        """Assert dual feasibility and complementary slackness (CS1-CS3)."""
        for (s, b), w in self.edges.items():
            if self.prices[s] + self.margins[b] < w:
                raise AssertionError(f"dual infeasible on ({s}, {b})")
        for s, b in self.match_sb.items():
            if self.prices[s] + self.margins[b] != self.edges.get((s, b)):
                raise AssertionError(f"matched edge ({s}, {b}) not tight")
        for s, p in self.prices.items():
            if s not in self.match_sb and p != 0:
                raise AssertionError(f"unmatched seller {s} has price {p}")
        for b, q in self.margins.items():
            if b not in self.match_bs and q != 0:
                raise AssertionError(f"unmatched buyer {b} has margin {q}")

    # -- the insertion procedure ---------------------------------------------
    def _tight(self, s: int, b: int) -> bool:
        w = self.edges.get((s, b))
        return w is not None and self.prices[s] + self.margins[b] == w

    def _rebalance(self, b_star: int):
        while True:
            blue = [b_star]
            blue_set = {b_star}
            red: list[int] = []
            red_set: set[int] = set()
            parent: dict[int, int] = {}
            frontier = [b_star]
            augment_from: int | None = None
            while frontier and augment_from is None:
                nxt = []
                for b in frontier:
                    for s in sorted(self.prices):
                        if s in red_set or not self._tight(s, b):
                            continue
                        if self.match_bs.get(b) == s:
                            continue
                        parent[s] = b
                        if s not in self.match_sb:
                            augment_from = s
                            break
                        red.append(s)
                        red_set.add(s)
                        mate = self.match_sb[s]
                        parent[mate] = s
                        blue.append(mate)
                        blue_set.add(mate)
                        nxt.append(mate)
                    if augment_from is not None:
                        break
                frontier = nxt
            if augment_from is not None:
                self._flip(augment_from, parent)
                return
            delta1 = min(self.margins[b] for b in blue)
            if delta1 == 0:
                # free a zero-margin buyer instead of augmenting
                b0 = min(b for b in blue if self.margins[b] == 0)
                self._flip(b0, parent)
                return
            candidates = [
                self.prices[s] + self.margins[b] - w
                for (s, b), w in self.edges.items()
                if b in blue_set and s not in red_set and self.match_bs.get(b) != s
            ]
            delta2 = min((c for c in candidates if c > 0), default=None)
            delta = delta1 if delta2 is None else min(delta1, delta2)
            for s in red:
                self.prices[s] += delta
            for b in blue:
                self.margins[b] -= delta
            # loop: either a new tight edge appeared (delta = delta2) or some
            # blue buyer reached margin zero (delta = delta1) and terminates

    def _flip(self, end, parent: dict[int, int]):
        """Alternate matched/unmatched along the tree path ending at `end`.

        `end` is an unmatched seller (augmenting path: the new buyer becomes
        matched) or a zero-margin buyer (its seller is handed up the path and
        it becomes unmatched).
        """
        node = end
        if node in self.margins:  # ends at a buyer: detach its seller first
            s = self.match_bs.pop(node, None)
            if s is not None:
                del self.match_sb[s]
            node = parent.get(node)
            if node is None:
                return  # the new buyer itself hit margin zero; stays unmatched
        while node is not None:
            s = node
            b = parent[s]
            old = self.match_bs.get(b)
            if old is not None:
                del self.match_sb[old]
            self.match_sb[s] = b
            self.match_bs[b] = s
            node = parent.get(b)


def hungarian_bipartite(sellers, buyers, weights: dict[Pair, Fraction],
                        prices: dict[int, Fraction] | None = None,
                        margins: dict[int, Fraction] | None = None,
                        matching: dict[int, int] | None = None):
    """Maximum-weight bipartite matching with optimal duals, exact.

    Warm-startable: pass prices/margins/matching from a previous solve over a
    subset of the buyers; they must be feasible and complementary for the
    current subgraph or the call is rejected. Remaining buyers are inserted
    one at a time (the incremental procedure DDA uses). Returns
    (Matching, prices, margins).
    """
    sellers = list(sellers)
    buyers = list(buyers)
    weights = {(s, b): Fraction(w) for (s, b), w in weights.items()
               if s in set(sellers) and b in set(buyers)}
    market = AuctionMarket()
    prices = dict(prices or {})
    margins = dict(margins or {})
    matching = dict(matching or {})
    for s in sellers:
        market.add_seller(s, prices.get(s, Fraction(0)))
    warm = [b for b in buyers if b in margins]
    cold = [b for b in buyers if b not in margins]
    for b in warm:
        q = Fraction(margins[b])
        if q < 0:
            raise ValueError("warm-start margins must be nonnegative")
        market.margins[b] = q
        for s in sellers:
            w = Fraction(weights.get((s, b), 0))
            if w > 0:
                market.edges[(s, b)] = w
                if market.prices[s] + q < w:
                    raise ValueError(f"warm-start duals infeasible on ({s}, {b})")
    for s, b in matching.items():
        market.match_sb[s] = b
        market.match_bs[b] = s
    try:
        market.check_optimal()
    except AssertionError as exc:
        raise ValueError(f"warm start rejected: {exc}") from exc
    for b in cold:
        market.add_buyer(b, {s: w for (s, bb), w in weights.items() if bb == b})
    market.check_optimal()
    graph_pairs = [(s, b) for s, b in market.match_sb.items()]
    n = max([*sellers, *buyers], default=0)
    graph = WeightedGraph(n, {ordered_pair(s, b): w for (s, b), w in weights.items() if w > 0})
    return (Matching.from_pairs(graph, graph_pairs),
            dict(market.prices), dict(market.margins))
