"""Online matching policies: greedy variants, the virtual two-sided market,
the incremental-auction policy, batching, and a patient baseline."""

from __future__ import annotations

from fractions import Fraction

from .engine import MarketView, OnlinePolicy
from .graphs import OnlineInstance, build_online_graph
# perfbench/tracer.py times policies.max_weight_matching_exact, so the name stays
from .offline import AuctionMarket, band_matching, max_weight_matching_exact  # noqa: F401

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

    def _check_bipartite_arrival(self, v: int) -> dict[int, int]:
        # Returns v's revealed neighbours. A seller may not see any live edge on
        # arrival: earlier sellers would break bipartiteness, earlier buyers the
        # arrival constraint.
        neighbors = self.view.revealed_neighbors(v)
        if self.roles[v] == SELLER and neighbors:
            raise NonBipartiteError(
                f"seller {v} arrives with live edges; input is not "
                "constrained bipartite")
        if self.roles[v] == BUYER:
            for u in neighbors:
                if self.roles[u] != SELLER:
                    raise NonBipartiteError(
                        f"edge between buyers {u} and {v}; input is not "
                        "constrained bipartite")
        return neighbors


class _OverScale:
    """A policy's record kept in integers over its view's scale, per vertex
    one value or a list of them; reading it gives Fractions."""

    def __set_name__(self, owner, name):
        self.field = "_" + name

    def __get__(self, policy, owner=None):
        if policy is None:
            return self
        scale = policy.view.scale
        return {v: [Fraction(x, scale) for x in value] if isinstance(value, list)
                else Fraction(value, scale) for v, value in getattr(policy, self.field).items()}


class _BestMarginBids(OnlinePolicy):
    """The free-disposal greedy bid shared by greedy, naive-greedy and pg.

    Sellers enter at price 0. A buyer bids once, on the seller with the
    largest positive margin (weight minus price); the seller's price rises to
    that weight and its previous tentative buyer is displaced for good.
    Prices and margins are integers over the view's scale.
    """

    initial_margin = _OverScale()

    def reset(self, view, rng):
        super().reset(view, rng)
        self.prices: dict[int, int] = {}
        self.tentative: dict[int, int | None] = {}
        self._initial_margin: dict[int, int] = {}

    def clone(self):
        other = super().clone()
        other.prices = dict(self.prices)
        other.tentative = dict(self.tentative)
        other._initial_margin = {}
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
        self.prices[s] = 0
        self.tentative[s] = None

    def _bid(self, b: int, offers):
        """Buyer b bids on `offers`, (seller, weight) pairs in ascending seller
        order: only positive margins count, and a tie keeps the lowest seller."""
        prices = self.prices
        best_s, best_w, best_margin = None, 0, 0
        for s, w in offers:
            margin = w - prices[s]
            if margin > best_margin:
                best_s, best_w, best_margin = s, w, margin
        self._initial_margin[b] = best_margin
        if best_s is not None:
            self.tentative[best_s] = b
            prices[best_s] = best_w
            self.log.append(("bid", b, best_s, Fraction(best_margin, self.view.scale)))


class FreeDisposalGreedy(_RoleBased, _BestMarginBids):
    """Match each arriving buyer to its best-margin present seller, with free
    disposal: a displaced buyer never gets matched again. Sellers finalize
    their tentative buyer when they become critical."""

    name = "greedy"

    def on_arrival(self, v: int):
        neighbors = self._check_bipartite_arrival(v)
        if self.roles[v] == SELLER:
            self._add_seller(v)
        else:
            self._bid(v, neighbors.items())  # a buyer's neighbours are sellers
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
        role = self.roles[v] = SELLER if self.rng.flip() else BUYER
        self.log.append(("role", v, role))
        if role == SELLER:
            self._add_seller(v)
        else:
            roles = self.roles
            self._bid(v, [(s, w) for s, w in self.view.revealed_neighbors(v).items()
                          if roles[s] == SELLER])
        return ()


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
        weight = self.view.weight
        self._bid(k, [(s, weight(s, k)) for s in sorted(self.active)])
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
        prices, margins, scale = self.prices, self._initial_margin, self.view.scale
        return {v: Fraction(prices.get(v, 0) + margins.get(v, 0), scale) for v in self.status}

    def price_margin_sums(self) -> tuple[Fraction, Fraction]:
        scale = self.view.scale
        return (Fraction(sum(self.prices.values()), scale),
                Fraction(sum(self._initial_margin.values()), scale))


class DynamicDeferredAcceptance(_RoleBased):
    """Keep a maximum-weight tentative matching with exact auction duals.

    Every buyer arrival triggers an incremental rebalance of the bipartite
    market; a seller finalizes its tentative buyer at its critical event and
    both leave. Prices only rise, margins only fall, and the pre-existing
    dual mass is conserved per arrival. The market runs on the view's
    integer weights; the records below read as Fractions.
    """

    name = "dda"
    initial_margin, final_price, final_margin = _OverScale(), _OverScale(), _OverScale()
    price_history, margin_history = _OverScale(), _OverScale()

    def reset(self, view, rng):
        super().reset(view, rng)
        self.market = AuctionMarket()
        self._initial_margin: dict[int, int] = {}
        self._final_price: dict[int, int] = {}
        self._final_margin: dict[int, int] = {}
        self._price_history: dict[int, list[int]] = {}
        self._margin_history: dict[int, list[int]] = {}

    def _snapshot(self):
        for s, p in self.market.prices.items():
            self._price_history.setdefault(s, []).append(p)
        for b, q in self.market.margins.items():
            self._margin_history.setdefault(b, []).append(q)

    def on_arrival(self, v: int):
        neighbors = self._check_bipartite_arrival(v)
        if self.roles[v] == SELLER:
            self.market.add_seller(v)
        else:
            # every present seller is in the market: it leaves at its critical
            # event, after the arrivals of that tick
            self._initial_margin[v] = self.market.add_buyer(v, neighbors)
        self._snapshot()
        return ()

    def on_critical(self, v: int):
        emitted = []
        if self.roles[v] == SELLER:
            buyer = self.market.matched_buyer(v)
            self._final_price[v] = self.market.prices[v]
            if buyer is not None:
                self._final_margin[buyer] = self.market.margins[buyer]
                self.market.remove_pair(v, buyer)
                emitted.append((v, buyer))
            else:
                self.market.remove_seller(v)
        elif v in self.market.margins:  # unmatched buyer departs
            self._final_margin[v] = self.market.margins[v]
            self.market.remove_buyer(v)
        self._snapshot()
        return emitted

    def conservation_sums(self) -> tuple[Fraction, Fraction, Fraction]:
        """(sum of final prices, sum of final margins, sum of initial margins)."""
        return tuple(Fraction(sum(record.values()), self.view.scale) for record in
                     (self._final_price, self._final_margin, self._initial_margin))


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
        batch, weight, alive = sorted(batch), self.view.weight, set(self.view.alive())
        # a member whose window has closed (departed early) is not matched
        live = [v for v in batch if v in alive]
        ints = {(a, b): w for i, a in enumerate(live, 1) for b in live[i:]
                if (w := weight(a, b))}
        self.log.append(("batch", tuple(batch)))
        return band_matching(ints, live, len(live) - 1)[1]


class PatientBaseline(OnlinePolicy):
    """Match each critical vertex to its best present neighbor, if any."""

    name = "patient"

    def on_critical(self, v: int):
        if self.view.is_matched(v):
            return ()
        neighbors = self.view.revealed_neighbors(v)  # ascending: a tie keeps the lowest
        return [(v, max(neighbors, key=neighbors.get))] if neighbors else ()


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
