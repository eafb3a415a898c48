"""Exact offline benchmarks: optimal matchings and bipartite auction duals.

Every matching comes from one exact DP, `_band_dp`, which runs along the
participating vertices in arrival order with one state bit per waiting
vertex, O(k * 2^d * d) for k vertices and band d. The deadline-masked online
graph is a band of d; a batch, or a general graph on k vertices, is a full
band of k - 1, whose value is the same in any order. Weights are the
graph's one integer form, per-vertex rows over one scale
(`WeightedGraph.rows` and `.scale`, or the rows a `MarketView` reads), so
every comparison and tie is exact and no pair key is built. At band 1 the
state is one bit, so the value is the path recurrence best(t) =
max(best(t-1), best(t-2) + w(t-1, t)), kept as two running integers
(`_path_dp`, which `_band_dp` calls at band 1 with its reach and tie-break
key, if any). A wider band lists each position's live edges first, walking
the participants' rows when they hold fewer entries than the band has
position pairs (a sparse online graph, O(k + E)) and probing the position
pairs otherwise (a batch of a larger graph). Every arrival order is read
through `graphs.invert_permutation`, which checks it in linear time and
keeps the last tuple it accepted, so the two sweep evaluators, given one
tuple in turn, check it once; the batched evaluator cuts that arrival
sequence into runs of d + 1, reading them as pairs when d = 1. The sweep
evaluators turn their totals into Fractions through one shared cache, `graphs.over_scale`.
Every matching returned has, among the maximum-weight ones, the
lexicographically smallest sorted pair list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import (Matching, OnlineInstance, Pair, WeightedGraph, as_rational,
                     build_online_graph,  # noqa: F401 (perfbench/tracer.py wraps it here)
                     invert_permutation, ordered_pair, over_scale)

EXACT_MATCHING_CAP = 24  # a band of 24 or more (2**24 DP states) is refused


class SizeLimitError(ValueError):
    """Input too large for the exact-by-enumeration guarantee."""


def _band_dp(rows, order, d: int, reach=None, tie=None) -> int:
    """Best total over matchings of the live edges among `order`, the
    participating vertices in arrival order, an edge (u, v) counting as its
    integer weight w = ``rows[u][v]`` or as `tie(u, v, w)` when a tie-break
    key is given. An edge is live when its endpoints are at most d positions
    apart and, when `reach` (`PresenceWindows.reach`, by vertex) is given,
    the earlier endpoint u reaches the later one: gap <= reach[u - 1]. The
    state after position t has one bit per earlier vertex that is unmatched
    and has a live edge to a later one (bit i: position t - i): at most
    2**min(d, k - 1) states for k vertices. At band 1 two running totals
    carry it (`_path_dp`); otherwise one set-up pass lists each position's
    live edges and the drop masks. That pass walks each participant's row
    from its earlier end when the rows hold fewer entries than the band's
    position pairs (a row may reach vertices outside `order`), else it
    probes each position pair."""
    k = len(order)
    band = min(d, k - 1)
    if band >= EXACT_MATCHING_CAP:
        raise SizeLimitError(f"band of {band} on n={k} exceeds the cap of {EXACT_MATCHING_CAP - 1}")
    if band == 1:
        return _path_dp(rows, order, reach, tie)
    back: list[list] = [[] for _ in range(k)]  # per position: (state bit, value) per live edge
    last = list(range(k))  # last[s]: latest position with a live edge to position s
    if sum(len(rows[u]) for u in order) < band * k - band * (band + 1) // 2:
        at = {v: s for s, v in enumerate(order)}
        for s, u in enumerate(order):
            end = s + (band if reach is None else min(band, reach[u - 1]))
            for v, w in rows[u].items():
                t = at.get(v, s)  # s itself for a v outside `order`
                if s < t <= end:
                    back[t].append((1 << (t - s - 1), w if tie is None else tie(u, v, w)))
                    if t > last[s]:
                        last[s] = t
    else:
        for dist in range(1, band + 1):
            bit = 1 << (dist - 1)
            for s, (u, v) in enumerate(zip(order, order[dist:])):  # positions s and s + dist
                w = rows[u].get(v)
                if w is not None and (reach is None or dist <= reach[u - 1]):
                    back[s + dist].append((bit, w if tie is None else tie(u, v, w)))
                    last[s] = s + dist
    drop = [0] * k  # bits of the vertices whose last live edge is at position t
    for s, t in enumerate(last):
        drop[t] |= 1 << (t - s)
    states = {0: 0}
    for edges, gone in zip(back, drop):
        keep = ~gone
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
    return states[0]


def _path_dp(rows, order, reach=None, tie=None) -> int:
    """The band DP at band 1, where the state is one bit: the path
    recurrence best(t) = max(best(t - 1), best(t - 2) + w(t - 1, t)) along
    `order`, kept as two running totals. Consecutive u, v add their weight
    w = ``rows[u][v]``, or `tie(u, v, w)` with a tie-break key, read once
    and only when the edge is live: in u's row and, with a `reach`,
    reach[u - 1] >= 1. No live edge adds 0, which leaves best unchanged."""
    keyed = reach is not None or tie is not None
    before = best = 0  # the best totals over the positions before v, and up to v
    steps = iter(order)
    u = next(steps, None)
    for v in steps:
        if keyed:
            w = rows[u].get(v)
            if w is None or reach is not None and reach[u - 1] < 1:
                w = 0
            elif tie is not None:
                w = tie(u, v, w)
        else:
            w = rows[u].get(v, 0)
        w += before
        before, best, u = best, (w if w > best else best), v
    return best


def band_matching(rows, order, d: int, reach=None) -> tuple[int, list[Pair]]:
    """The band DP's optimum over `order` and its pairs, ascending, on the
    integer weights ``rows[u][v]``.

    With the k participants ranked 1..k by label, the DP counts the edge
    between ranks i < j as w * B**k + (k + 1 - j) * B**(k - i) with
    B = 2**bitlen(k); the low k base-B digits of a total name each vertex's
    larger partner, so the best total is unique and carries the tie-break.
    Ranks keep this key at about k * log2(k + 1) bits whatever the labels.
    """
    verts = sorted(order)
    k = len(verts)
    b = k.bit_length()
    shift = b * k
    rank = {v: i for i, v in enumerate(verts, start=1)}

    def tie(u: int, v: int, w: int) -> int:
        i, j = rank[u], rank[v]
        if i > j:
            i, j = j, i
        return w << shift | (k + 1 - j) << b * (k - i)

    best = _band_dp(rows, order, d, reach, tie)
    digits = format(best & ((1 << shift) - 1), f"0{shift}b")
    pairs = [(v, verts[k - end]) for i, v in enumerate(verts)
             if (end := int(digits[i * b:(i + 1) * b], 2))]
    return best >> shift, pairs


def max_weight_matching_exact(graph: WeightedGraph) -> Matching:
    """Maximum-weight matching of a general graph: the band DP with a full
    band over its ascending vertices. Refuses graphs beyond the cap rather
    than silently approximating."""
    value, pairs = band_matching(graph.rows, graph.vertices(), graph.n - 1)
    return Matching(frozenset(pairs), Fraction(value, graph.scale))


def offline_optimum(instance: OnlineInstance) -> Matching:
    """Maximum-weight matching of the deadline-masked online graph."""
    return _band_optimum(instance)


def _band_optimum(instance: OnlineInstance, reach=None) -> Matching:
    """The bandwidth DP's optimum with its matching, over the band's edges
    within `reach` (`PresenceWindows.reach`); the deadline's reach, d, is the band's."""
    graph = instance.graph
    value, pairs = band_matching(graph.rows, instance.order.sequence, instance.deadline, reach)
    return Matching(frozenset(pairs), Fraction(value, graph.scale))


def realized_online_graph(instance: OnlineInstance,
                          departures: tuple[int, ...]) -> WeightedGraph:
    """Keep edge (i, j) iff the later arrival comes while the earlier vertex
    is still present under the realized offsets, checked as an instance's."""
    return instance.windows(departures).subgraph(instance.graph)


def realized_offline_optimum(instance: OnlineInstance,
                             departures: tuple[int, ...]) -> Matching:
    """The offline benchmark under realized departures, checked as an
    instance's own are: optimal matching over pairs whose windows overlap."""
    return _band_optimum(instance, instance.windows(departures).reach)


def arrival_window_matching_value(graph: WeightedGraph, slots: tuple[int, ...],
                                  d: int) -> Fraction:
    """m(G masked to |slot(i) - slot(j)| <= d), by the bandwidth DP; at
    d = 1, the path recurrence on the graph's rows (`WeightedGraph.rows`).
    Refuses d < 0 and `slots` that are not a permutation of 1..graph.n."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    order = invert_permutation(slots, graph.n)
    rows = graph.rows
    return over_scale(_path_dp(rows, order) if d == 1 else _band_dp(rows, order, d), graph.scale)


def batched_matching_value(graph: WeightedGraph, slots: tuple[int, ...],
                           d: int) -> Fraction:
    """Sum of optimal matchings inside each consecutive (d+1)-slot batch.
    Refuses d < 0 and `slots` that are not a permutation of 1..graph.n.

    The batches are consecutive runs of d + 1 in the arrival sequence, each
    matched by the band DP with a full band. When d = 1 every batch is a
    pair, read from the graph's rows (`WeightedGraph.rows`)."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    order = invert_permutation(slots, graph.n)
    rows, total = graph.rows, 0
    if d == 1:
        arrivals = iter(order)
        for a, b in zip(arrivals, arrivals):  # one iterator twice: positions 0 and 1, 2 and 3, ...
            total += rows[a].get(b, 0)
    else:
        for start in range(0, graph.n, d + 1):
            total += _band_dp(rows, order[start:start + d + 1], d)
    return over_scale(total, graph.scale)


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
    whether weak duality (sum >= claimed) holds. A `Fraction` dual is read
    as given and any other through `as_rational`; the signs and every edge
    test, one per edge of the graph's rows, are on integers over one common
    denominator, and only the edges found short are sorted and built as
    Fractions. The online graph is the
    deadline rule that `OnlineInstance.windows` keeps, the one a run with
    fixed departures of d has just used.
    """
    graph, lam = instance.graph, {}
    for v in graph.vertices():
        x = lambdas.get(v, 0)
        lam[v] = x if type(x) is Fraction else as_rational(x)
    bad = [v for v, x in lam.items() if x.numerator < 0]
    if bad:
        raise ValueError(f"dual values must be nonnegative; negative at {bad}")
    common = lcm(graph.scale, *(x.denominator for x in lam.values()))
    up = common // graph.scale
    num = {v: x.numerator * (common // x.denominator) for v, x in lam.items()}
    live = instance.windows().live
    shortfalls = [((u, v), short) for u, row in enumerate(graph.rows) for v, w in row.items()
                  if u < v and (short := w * up - num[u] - num[v]) > 0 and live(u, v)]
    violations = tuple((e, Fraction(short, common)) for e, short in sorted(shortfalls))
    total = Fraction(sum(num.values()), common)
    weak = True if claimed_primal is None else total >= claimed_primal
    return DualReport(not violations, total, weak, violations)


# ---------------------------------------------------------------------------
# Incremental maximum-weight bipartite matching with exact dual prices.
# Buyers are inserted one at a time, each with its bids (seller edges kept
# with the buyer, sellers ascending); each insertion either augments along
# tight bids or raises prices along an alternating tree until a zero-margin
# buyer is reached. Prices only rise and margins only fall, and the sum of
# prices and margins over pre-existing vertices is conserved per insertion.
# The market never divides: it runs on ints (DDA's weights over a common
# scale) as it does on Fractions, keeping whichever it is given. `moved`
# names the vertices whose dual the last insertion set or changed.

class AuctionMarket:
    def __init__(self):
        self.prices: dict[int, int | Fraction] = {}
        self.margins: dict[int, int | Fraction] = {}
        self.edges: dict[int, dict[int, int | Fraction]] = {}  # buyer -> {seller: weight}
        self.match_sb: dict[int, int] = {}
        self.match_bs: dict[int, int] = {}
        self.moved: set[int] = set()

    # -- construction -------------------------------------------------------
    def add_seller(self, s: int):
        if s in self.prices or s in self.margins:
            raise ValueError(f"vertex {s} already in the market")
        self.prices[s] = 0
        self.moved = {s}

    def add_buyer(self, b: int, edges: dict[int, int | Fraction]) -> int | Fraction:
        """Insert a buyer with its seller edges and rebalance; returns q_b.

        The initial margin is max(0, max_s v_sb - p_s): a buyer with no
        profitable seller stays unmatched at margin zero, which keeps the
        duals feasible and complementary slackness intact.
        """
        if b in self.margins or b in self.prices:
            raise ValueError(f"vertex {b} already in the market")
        margin, bids = 0, {}
        for s, w in sorted(edges.items()):
            if s not in self.prices:
                raise ValueError(f"buyer {b} references unknown seller {s}")
            if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
                raise TypeError(f"weight {w!r} of ({s}, {b}) is not an int or a Fraction")
            if w < 0:
                raise ValueError("weights are nonnegative")
            if w > 0:
                bids[s] = w
                margin = max(margin, w - self.prices[s])
        self.edges[b] = bids
        self.margins[b] = margin
        self.moved = {b}
        if margin > 0:
            self._rebalance(b)
        return self.margins[b]

    # -- removal: a critical vertex leaves with its tentative partner -------
    def remove(self, v: int) -> tuple[int, int] | None:
        """Take v out of the market with its tentative partner, if it has
        one, and return their (seller, buyer) pair. A vertex that already
        left with its partner changes nothing. The rest stays optimal:
        dropping vertices keeps the duals feasible and every other matched
        edge tight."""
        if v in self.prices:
            s, b = v, self.match_sb.pop(v, None)
            self.match_bs.pop(b, None)
        else:
            s, b = self.match_bs.pop(v, None), v
            self.match_sb.pop(s, None)
        if s is not None:
            del self.prices[s]
            for bids in self.edges.values():
                bids.pop(s, None)
        if b in self.margins:
            del self.margins[b], self.edges[b]
        return (s, b) if s is not None and b is not None else None

    # -- queries -------------------------------------------------------------
    def dual_total(self) -> Fraction:
        return sum(self.prices.values(), Fraction(0)) + sum(self.margins.values(), Fraction(0))

    def check_optimal(self):
        """Assert dual feasibility and complementary slackness (CS1-CS3)."""
        for b, bids in self.edges.items():
            for s, w in bids.items():
                if self.prices[s] + self.margins[b] < w:
                    raise AssertionError(f"dual infeasible on ({s}, {b})")
        for s, b in self.match_sb.items():
            if self.prices[s] + self.margins[b] != self.edges[b].get(s):
                raise AssertionError(f"matched edge ({s}, {b}) not tight")
        for s, p in self.prices.items():
            if s not in self.match_sb and p != 0:
                raise AssertionError(f"unmatched seller {s} has price {p}")
        for b, q in self.margins.items():
            if b not in self.match_bs and q != 0:
                raise AssertionError(f"unmatched buyer {b} has margin {q}")

    # -- the insertion procedure ---------------------------------------------
    def _rebalance(self, b_star: int):
        """Grow the alternating tree from b_star over each frontier buyer's
        tight bids, sellers ascending, until it augments or frees a buyer."""
        prices, margins, edges, match_sb = self.prices, self.margins, self.edges, self.match_sb
        while True:
            blue, red, red_set, frontier = [b_star], [], set(), [b_star]
            parent: dict[int, int] = {}
            augment_from: int | None = None
            while frontier and augment_from is None:
                nxt = []
                for b in frontier:
                    q = margins[b]
                    for s, w in edges[b].items():
                        if s in red_set or prices[s] + q != w:
                            continue
                        parent[s] = b
                        if s not in match_sb:
                            augment_from = s
                            break
                        red.append(s)
                        red_set.add(s)
                        mate = match_sb[s]
                        parent[mate] = s
                        blue.append(mate)
                        nxt.append(mate)
                    if augment_from is not None:
                        break
                frontier = nxt
            if augment_from is not None:
                self._flip(augment_from, parent)
                return
            delta1 = min(margins[b] for b in blue)
            if delta1 == 0:
                # free a zero-margin buyer instead of augmenting
                self._flip(min(b for b in blue if margins[b] == 0), parent)
                return
            delta2 = min((c for b in blue for s, w in edges[b].items()
                          if s not in red_set and (c := prices[s] + margins[b] - w) > 0),
                         default=None)
            delta = delta1 if delta2 is None else min(delta1, delta2)
            for s in red:
                prices[s] += delta
            for b in blue:
                margins[b] -= delta
            self.moved.update(red, blue)
            # loop: either a new tight bid appeared (delta = delta2) or some
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


def hungarian_bipartite(sellers, buyers, weights: dict[Pair, Fraction]):
    """Maximum-weight bipartite matching with optimal duals, exact.

    Buyers are inserted one at a time (the incremental procedure DDA uses).
    Weights go through `as_rational`. Returns (Matching, prices, margins).
    """
    sellers, buyers = list(sellers), list(buyers)
    seller_set, by_buyer = set(sellers), {b: {} for b in buyers}
    for (s, b), w in weights.items():
        if s in seller_set and b in by_buyer:
            by_buyer[b][s] = as_rational(w)
    market = AuctionMarket()
    for s in sellers:
        market.add_seller(s)
    for b in buyers:
        market.add_buyer(b, by_buyer[b])
    market.check_optimal()
    n = max([*sellers, *buyers], default=0)
    graph = WeightedGraph(n, {ordered_pair(s, b): w for b, edges in by_buyer.items()
                              for s, w in edges.items() if w > 0})
    return (Matching.from_pairs(graph, market.match_sb.items()),
            {s: Fraction(p) for s, p in market.prices.items()},
            {b: Fraction(q) for b, q in market.margins.items()})
