"""Online matching policies: greedy variants, the virtual two-sided market,
the incremental-auction policy, batching, and a patient baseline."""

from __future__ import annotations

from fractions import Fraction

from .engine import MarketView, OnlinePolicy
from .graphs import OnlineInstance, WeightedGraph, build_online_graph
from .offline import AuctionMarket, max_weight_matching_exact

SELLER = "seller"
BUYER = "buyer"
UNDETERMINED = "undetermined"


class NonBipartiteError(ValueError):
    """The input is not a constrained bipartite online graph."""


def infer_roles(instance: OnlineInstance) -> dict[int, str]:
    """Derive seller/buyer sides from edge direction in the online graph.

    In a constrained bipartite instance every edge runs from an earlier
    seller to a later buyer, so the earlier endpoint of each positive masked
    edge must be a seller and the later one a buyer. Vertices with no edges
    default to buyers. Conflicts mean the instance is not constrained
    bipartite.
    """
    slot = instance.order.slot_of
    roles: dict[int, str] = {}
    for i, j, _ in build_online_graph(instance).edges():
        s, b = (i, j) if slot(i) < slot(j) else (j, i)
        for v, role in ((s, SELLER), (b, BUYER)):
            if roles.setdefault(v, role) != role:
                raise NonBipartiteError(
                    f"vertex {v} would need to be both a seller and a buyer")
    for v in instance.graph.vertices():
        roles.setdefault(v, BUYER)
    return roles


class _RoleBased(OnlinePolicy):
    def reset(self, view: MarketView, rng):
        super().reset(view, rng)
        self.roles = self._roles(view)

    def _roles(self, view: MarketView) -> dict[int, str]:
        roles = view.roles()
        if roles is None:
            raise NonBipartiteError(
                f"{self.name} needs seller/buyer roles declared on the instance")
        return roles

    def _check_bipartite_arrival(self, v: int):
        # A seller may not see any live edge on arrival: earlier sellers
        # would break bipartiteness, earlier buyers the arrival constraint.
        if self.roles[v] == SELLER and self.view.revealed_neighbors(v):
            raise NonBipartiteError(
                f"seller {v} arrives with live edges; input is not "
                "constrained bipartite")
        if self.roles[v] == BUYER:
            for u in self.view.revealed_neighbors(v):
                if self.roles[u] != SELLER:
                    raise NonBipartiteError(
                        f"edge between buyers {u} and {v}; input is not "
                        "constrained bipartite")


class _BestMarginBids(OnlinePolicy):
    """The free-disposal greedy bid shared by greedy, naive-greedy and pg.

    Sellers enter at price 0. A buyer bids once, on the seller with the
    largest positive margin (weight minus price); the seller's price rises to
    that weight and its previous tentative buyer is displaced for good.
    """

    def reset(self, view, rng):
        super().reset(view, rng)
        self.prices: dict[int, Fraction] = {}
        self.tentative: dict[int, int | None] = {}
        self.initial_margin: dict[int, Fraction] = {}

    def clone(self):
        other = super().clone()
        other.prices = dict(self.prices)
        other.tentative = dict(self.tentative)
        other.initial_margin = {}
        return other

    def state_key(self):
        """Per vertex still alive: matched or not and its tentative buyer,
        plus the subclass's `_sides`. A seller's price is the weight to its
        tentative buyer, or 0 without one, so the buyer stands for it.
        Initial margins, like the log, are history."""
        alive = self.view.alive()
        return (tuple(alive), tuple(map(self.view.is_matched, alive)),
                tuple(map(self.tentative.get, alive)), self._sides(alive))

    def _sides(self, alive: list[int]) -> tuple:
        raise NotImplementedError

    def _add_seller(self, s: int):
        self.prices[s] = Fraction(0)
        self.tentative[s] = None

    def _bid(self, b: int, sellers):
        """Buyer b bids on `sellers`, scanned in ascending order: only
        positive margins count, and a tie keeps the lowest seller."""
        best_s, best_w, best_margin = None, None, Fraction(0)
        for s in sellers:
            w = self.view.weight(s, b)
            margin = w - self.prices[s]
            if margin > best_margin:
                best_s, best_w, best_margin = s, w, margin
        self.initial_margin[b] = best_margin
        if best_s is not None:
            self.tentative[best_s] = b
            self.prices[best_s] = best_w
            self.log.append(("bid", b, best_s, best_margin))


class FreeDisposalGreedy(_RoleBased, _BestMarginBids):
    """Match each arriving buyer to its best-margin present seller, with free
    disposal: a displaced buyer never gets matched again. Sellers finalize
    their tentative buyer when they become critical."""

    name = "greedy"

    def on_arrival(self, v: int):
        self._check_bipartite_arrival(v)
        return self._arrive(v)

    def _arrive(self, v: int):
        if self.roles[v] == SELLER:
            self._add_seller(v)
        else:
            roles = self.roles
            self._bid(v, [s for s in self.view.present() if roles[s] == SELLER])
        return ()

    def on_critical(self, v: int):
        buyer = self.tentative.get(v)  # only sellers hold tentative buyers
        return [(v, buyer)] if buyer is not None else ()

    def clone(self):
        other = super().clone()
        other.roles = dict(self.roles)
        return other

    def _sides(self, alive):
        return tuple(map(self.roles.get, alive))


class NaiveGreedy(FreeDisposalGreedy):
    """Greedy whose roles come from one fair coin per arrival, so only
    seller-to-later-buyer edges count. It needs no declared roles and skips
    the bipartite arrival check."""

    name = "naive-greedy"

    def _roles(self, view):
        return {}

    def on_arrival(self, v: int):
        self.roles[v] = SELLER if self.rng.flip() else BUYER
        self.log.append(("role", v, self.roles[v]))
        return self._arrive(v)


class PostponedGreedy(_BestMarginBids):
    """Run greedy over a virtual market holding a seller and a buyer copy of
    every vertex, deferring each vertex's side to its critical event.

    Arriving vertex k's buyer copy bids once on the active seller copies,
    then k adds a zero-price seller copy. When k becomes critical its seller
    copy leaves the virtual market. With a tentative buyer, k's side decides
    what happens: a seller finalizes the pair and collects, a buyer yields,
    and either way the partner inherits the opposite side, so the decision
    propagates along the tentative 2-matching's paths. A coin is flipped
    only at the head of each path.

    With departure_guard on, a seller whose tentative partner already left
    the market finalizes nothing (the stochastic-departure variant).
    """

    name = "pg"

    def __init__(self, departure_guard: bool = False):
        self.departure_guard = departure_guard
        if departure_guard:
            self.name = "pg-stochastic"

    def reset(self, view, rng):
        super().reset(view, rng)
        self.status: dict[int, str] = {}
        self.active: set[int] = set()

    def clone(self):
        other = super().clone()
        other.departure_guard = self.departure_guard
        other.status = dict(self.status)
        other.active = set(self.active)
        return other

    def _sides(self, alive):
        """Each alive vertex's side and its tentative partner's, which the
        vertex's critical event reads and may set even after the partner
        has departed."""
        status = self.status
        return (tuple(map(status.get, alive)),
                tuple(map(status.get, map(self.tentative.get, alive))))

    def on_arrival(self, k: int):
        self._bid(k, sorted(self.active))
        self._add_seller(k)
        self.status[k] = UNDETERMINED
        self.active.add(k)
        return ()

    def on_critical(self, k: int):
        self.active.discard(k)
        partner = self.tentative.get(k)
        if partner is None:
            return ()
        if self.status[k] == UNDETERMINED:
            self.status[k] = SELLER if self.rng.flip() else BUYER
            self.log.append(("coin", k, self.status[k]))
        emitted = []
        if self.status[k] == SELLER:
            available = (not self.view.has_departed(partner)
                         and not self.view.is_matched(partner))
            if available or not self.departure_guard:
                emitted.append((k, partner))
                self.log.append(("finalize", k, partner))
            else:
                self.log.append(("guard", k, partner))
            follower = BUYER
        else:
            self.log.append(("yield", k, partner))
            follower = SELLER
        if self.status.get(partner) == UNDETERMINED:
            self.status[partner] = follower
            self.log.append(("propagate", partner, follower))
        return emitted

    def dual_vector(self) -> dict[int, Fraction]:
        """Final seller price plus initial buyer margin, per original vertex."""
        return {
            v: self.prices.get(v, Fraction(0)) + self.initial_margin.get(v, Fraction(0))
            for v in self.status
        }

    def price_margin_sums(self) -> tuple[Fraction, Fraction]:
        total_p = sum(self.prices.values(), Fraction(0))
        total_q = sum(self.initial_margin.values(), Fraction(0))
        return total_p, total_q


class DynamicDeferredAcceptance(_RoleBased):
    """Keep a maximum-weight tentative matching with exact auction duals.

    Every buyer arrival triggers an incremental rebalance of the bipartite
    market; a seller finalizes its tentative buyer at its critical event and
    both leave. Prices only rise, margins only fall, and the pre-existing
    dual mass is conserved per arrival.
    """

    name = "dda"

    def reset(self, view, rng):
        super().reset(view, rng)
        self.market = AuctionMarket()
        self.initial_margin: dict[int, Fraction] = {}
        self.final_price: dict[int, Fraction] = {}
        self.final_margin: dict[int, Fraction] = {}
        self.price_history: dict[int, list[Fraction]] = {}
        self.margin_history: dict[int, list[Fraction]] = {}

    def _snapshot(self):
        for s, p in self.market.prices.items():
            self.price_history.setdefault(s, []).append(p)
        for b, q in self.market.margins.items():
            self.margin_history.setdefault(b, []).append(q)

    def on_arrival(self, v: int):
        self._check_bipartite_arrival(v)
        if self.roles[v] == SELLER:
            self.market.add_seller(v)
        else:
            edges = {
                s: w for s, w in self.view.revealed_neighbors(v).items()
                if s in self.market.prices
            }
            self.initial_margin[v] = self.market.add_buyer(v, edges)
        self._snapshot()
        return ()

    def on_critical(self, v: int):
        emitted = []
        if self.roles[v] == SELLER:
            buyer = self.market.matched_buyer(v)
            self.final_price[v] = self.market.prices[v]
            if buyer is not None:
                self.final_margin[buyer] = self.market.margins[buyer]
                self.market.remove_pair(v, buyer)
                emitted.append((v, buyer))
            else:
                self.market.remove_seller(v)
        elif v in self.market.margins:  # unmatched buyer departs
            self.final_margin[v] = self.market.margins[v]
            self.market.remove_buyer(v)
        self._snapshot()
        return emitted

    def conservation_sums(self) -> tuple[Fraction, Fraction, Fraction]:
        """(sum of final prices, sum of final margins, sum of initial margins)."""
        p_f = sum(self.final_price.values(), Fraction(0))
        q_f = sum(self.final_margin.values(), Fraction(0))
        q_i = sum(self.initial_margin.values(), Fraction(0))
        return p_f, q_f, q_i


class BatchingPolicy(OnlinePolicy):
    """Solve a maximum-weight matching over each window of d+l+1 arrival
    slots and finalize it; leftovers are discarded.

    Lookahead l >= 0 widens the window; knowing the next l arrivals at the
    moment the first batch member turns critical is what makes the late
    close admissible, and it is equivalent to running plain batching with
    deadline d+l. A final partial batch closes at the last arrival.
    """

    def __init__(self, lookahead: int = 0):
        if lookahead < 0:
            raise ValueError("lookahead must be >= 0")
        self.lookahead = lookahead
        self.name = "batching" if lookahead == 0 else f"batching:{lookahead}"

    def reset(self, view, rng):
        super().reset(view, rng)
        self.members: list[int] = []

    def on_arrival(self, v: int):
        self.members.append(v)
        slot = self.view.slot_of(v)
        width = self.view.deadline + self.lookahead + 1
        if slot % width and slot != self.view.n:
            return ()
        batch, self.members = self.members, []
        if len(batch) < 2:
            return ()
        index = {u: i + 1 for i, u in enumerate(sorted(batch))}
        back = {i: u for u, i in index.items()}
        weights = {}
        for a in batch:
            for b in batch:
                if a < b:
                    w = self.view.weight(a, b)
                    if w > 0:
                        weights[(index[a], index[b])] = w
        local = max_weight_matching_exact(WeightedGraph(len(batch), weights))
        self.log.append(("batch", tuple(sorted(batch))))
        return [(back[i], back[j]) for i, j in local.sorted_pairs()]


class PatientBaseline(OnlinePolicy):
    """Match each critical vertex to its best present neighbor, if any."""

    name = "patient"

    def on_critical(self, v: int):
        if self.view.is_matched(v) or self.view.has_departed(v):
            return ()
        best_u, best_w = None, Fraction(0)
        for u in self.view.present():
            if u == v:
                continue
            w = self.view.weight(u, v)
            if w > best_w:
                best_u, best_w = u, w
        if best_u is not None:
            return [(v, best_u)]
        return ()


# Spec-facing constructors -----------------------------------------------

def greedy_free_disposal() -> FreeDisposalGreedy:
    return FreeDisposalGreedy()


def naive_greedy() -> NaiveGreedy:
    return NaiveGreedy()


def postponed_greedy() -> PostponedGreedy:
    return PostponedGreedy(departure_guard=False)


def pg_stochastic() -> PostponedGreedy:
    return PostponedGreedy(departure_guard=True)


def dda() -> DynamicDeferredAcceptance:
    return DynamicDeferredAcceptance()


def batching(lookahead: int = 0) -> BatchingPolicy:
    return BatchingPolicy(lookahead)


def patient_baseline() -> PatientBaseline:
    return PatientBaseline()


POLICY_FACTORIES = {
    "greedy": greedy_free_disposal,
    "naive-greedy": naive_greedy,
    "pg": postponed_greedy,
    "pg-stochastic": pg_stochastic,
    "dda": dda,
    "batching": batching,
    "patient": patient_baseline,
}


def make_policy(spec: str):
    """Build a policy from its CLI name, e.g. 'pg' or 'batching:2'."""
    if spec.startswith("batching:"):
        return batching(int(spec.split(":", 1)[1]))
    try:
        return POLICY_FACTORIES[spec]()
    except KeyError:
        raise ValueError(f"unknown policy {spec!r}") from None
