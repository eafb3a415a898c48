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
        self.roles = view.roles()
        if self.roles is None:
            raise NonBipartiteError(
                f"{self.name} needs seller/buyer roles declared on the instance")

    def clone(self):
        other = super().clone()
        other.roles = self.roles  # no hook writes them: shared, like the instance
        return other

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
    """The free-disposal greedy bid and close of greedy, naive-greedy and pg.

    Sellers enter at price 0. A buyer bids once, on the seller with the
    largest positive margin (weight minus price); the seller's price rises to
    that weight and its previous tentative buyer is displaced for good.
    `tentative` holds the open sellers, in arrival order; each leaves at its
    critical event and closes through `_finalize`. Prices and margins are
    integers over the view's scale.
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

    def _dropped(self, b) -> bool:
        """The guard's test: buyer b (None: no buyer) departed or was matched."""
        return self.view.has_departed(b) or self.view.is_matched(b)

    def _finalize(self, seller: int, buyer: int):
        """The seller's close: its pair with `buyer`, or none and a ("guard",
        seller, buyer) log entry when the buyer departed or was matched."""
        if self._dropped(buyer):
            self.log.append(("guard", seller, buyer))
            return ()
        return [(seller, buyer)]

    def on_critical(self, v: int):
        self.prices.pop(v, None)  # the seller closes (pg keeps prices for its duals)
        buyer = self.tentative.pop(v, None)  # buyers hold no entry
        return self._finalize(v, buyer) if buyer is not None else ()

    def state_key(self):
        """Each open seller with its tentative buyer, in arrival order: all
        that a future hook reads. The open sellers are the present ones, a
        seller's price is the weight to its tentative buyer (0 without one),
        and a buyer bids once and is matched only by the seller that holds
        it, so the roles and matched flags of buyers and closed sellers
        change no future hook, and the guard reads only the tick."""
        return tuple(self.tentative.items())


class FreeDisposalGreedy(_RoleBased, _BestMarginBids):
    """Match each arriving buyer to its best-margin present seller, with free
    disposal: a displaced buyer never gets matched again."""

    name = "greedy"

    def on_arrival(self, v: int):
        neighbors = self._check_bipartite_arrival(v)
        if self.roles[v] == SELLER:
            self._add_seller(v)
        else:
            self._bid(v, neighbors.items())  # a buyer's neighbours are sellers
        return ()


class NaiveGreedy(_BestMarginBids):
    """Greedy whose roles come from one fair coin per arrival, so only
    seller-to-later-buyer edges count. It needs no declared roles, skips the
    bipartite arrival check, and keeps the roles its coins write until each
    vertex's critical event; its clone copies them."""

    name = "naive-greedy"

    def reset(self, view, rng):
        super().reset(view, rng)
        self.roles: dict[int, str] = {}

    def clone(self):
        other = super().clone()
        other.roles = dict(self.roles)
        return other

    def on_critical(self, v: int):
        del self.roles[v]  # no later arrival sees v as a neighbour
        return super().on_critical(v)

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

    Arriving vertex k's buyer copy bids once on the open seller copies,
    then k adds a zero-price seller copy. When k becomes critical its seller
    copy leaves the virtual market. With a tentative buyer, k's side decides
    what happens: a seller finalizes the pair and collects, a buyer yields,
    and either way the partner inherits the opposite side, so the decision
    propagates along the tentative 2-matching's paths. A coin is flipped
    only at the head of each path.

    A seller finalizes through `_finalize`, which drops a tentative partner
    that has departed or been matched, so pg runs under any departures.
    The open vertices are exactly the keys of `tentative`, in arrival order.
    """

    name = "pg"

    def reset(self, view, rng):
        super().reset(view, rng)
        self.status: dict[int, str] = {}

    def clone(self):
        """Copy the open vertices' prices, tentative buyers and sides, and
        those buyers' sides: all that a hook or the key reads, so no more
        late in a run than early (unlike the view). Its duals are not a run's."""
        prices, status = {}, {}
        for k, b in self.tentative.items():
            prices[k], status[k] = self.prices[k], self.status[k]
            if b is not None:
                status[b] = self.status[b]
        other = OnlinePolicy.clone(self)
        other.prices, other.tentative, other.status = prices, dict(self.tentative), status
        other._initial_margin = {}
        return other

    def state_key(self):
        """Each open vertex, in arrival order, with its tentative buyer, side
        and matched flag, and that buyer's side and whether the guard drops
        it: all a future hook reads. A bid reads the open seller copies'
        prices, each the weight to the copy's tentative buyer; a critical
        vertex reads the rest. A buyer bids once, so only the copy holding
        it or its own critical event can match it. Margins are history."""
        view, status, dropped = self.view, self.status, self._dropped
        return tuple((k, b, status[k], view.is_matched(k), status.get(b), dropped(b))
                     for k, b in self.tentative.items())

    def on_arrival(self, k: int):
        # an open seller copy with no live edge to k would offer 0, which never wins
        self._bid(k, [(s, w) for s, w in self.view.live_weights(k).items() if s in self.tentative])
        self._add_seller(k)
        self.status[k] = UNDETERMINED
        return ()

    def on_critical(self, k: int):
        partner = self.tentative[k]
        if partner is not None and self.status[k] == UNDETERMINED:
            # k is still open here, so a clone taken at the coin copies it
            self.status[k] = SELLER if self.rng.flip() else BUYER
            self.log.append(("coin", k, self.status[k]))
        del self.tentative[k]  # k closes
        if partner is None:
            return ()
        emitted = ()
        if self.status[k] == SELLER:
            emitted = self._finalize(k, partner)
            if emitted:
                self.log.append(("finalize", k, partner))
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
    market. A tentative pair closes at its first critical endpoint, under
    deadlines always the seller. A buyer's earlier close is valid too: the
    seller's critical event has not run, and the buyer bid across a live
    edge. Prices only rise, margins only fall, and the pre-existing dual
    mass is conserved per arrival. The market runs on the view's
    integer weights; the records below read as Fractions. The dual
    histories are kept as changes and expanded on read (`_history`).
    """

    name = "dda"
    initial_margin, final_price, final_margin = _OverScale(), _OverScale(), _OverScale()
    price_history, margin_history = _OverScale(), _OverScale()
    _price_history = property(lambda self: self._history(SELLER))
    _margin_history = property(lambda self: self._history(BUYER))

    def reset(self, view, rng):
        super().reset(view, rng)
        self.market = AuctionMarket()
        self._initial_margin: dict[int, int] = {}
        self._final_price: dict[int, int] = {}
        self._final_margin: dict[int, int] = {}
        self._events = 0  # events run so far
        self._changes: dict[int, list[tuple[int, int]]] = {}  # in arrival order
        self._left: dict[int, int] = {}  # the event each vertex left the market at

    def _history(self, role) -> dict[int, list[int]]:
        """Each `role` vertex's dual after every event from its entry until it
        left the market (or the last event run), from its (event, dual) changes:
        at its entry, at each insertion that moved it (`AuctionMarket.moved`)."""
        history, now = {}, self._events
        for v, series in self._changes.items():
            if self.roles[v] == role:
                ends = [e for e, _ in series[1:]] + [self._left.get(v, now)]
                history[v] = [x for (e, x), end in zip(series, ends) for _ in range(end - e)]
        return history

    def on_arrival(self, v: int):
        neighbors = self._check_bipartite_arrival(v)
        market = self.market
        if self.roles[v] == SELLER:
            market.add_seller(v)
        else:
            # every present seller is in the market: it leaves at its critical
            # event, after the arrivals of that tick
            self._initial_margin[v] = market.add_buyer(v, neighbors)
        for u in market.moved:
            dual = market.prices[u] if u in market.prices else market.margins[u]
            self._changes.setdefault(u, []).append((self._events, dual))
        self._events += 1
        return ()

    def on_critical(self, v: int):
        market = self.market
        # v leaves with its tentative partner, if any: record their duals first
        for u in (v, market.match_sb.get(v, market.match_bs.get(v))):
            if u in market.prices:
                self._final_price[u] = market.prices[u]
            elif u in market.margins:
                self._final_margin[u] = market.margins[u]
            else:
                continue
            self._left[u] = self._events
        pair = market.remove(v)
        self._events += 1
        return [pair] if pair else ()

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
        self._width, self._last = view.deadline + self.lookahead + 1, view.n  # read once per run

    def on_arrival(self, v: int):
        self.members.append(v)
        slot = self.view.slot_of(v)
        if slot % self._width and slot != self._last:
            return ()
        batch, self.members = self.members, []
        if len(batch) < 2:
            return ()
        batch, alive = sorted(batch), set(self.view.alive())
        # a member whose window has closed (departed early) is not matched
        live = [v for v in batch if v in alive]
        # the largest member's edges are read from their other ends
        members, read = set(live), self.view.live_weights
        ints = {(a, b): w for a in live[:-1] for b, w in read(a).items() if b > a and b in members}
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


# Spec-facing constructors: the classes, and pg under its stochastic name ---

greedy_free_disposal = FreeDisposalGreedy
naive_greedy = NaiveGreedy
postponed_greedy = PostponedGreedy
dda = DynamicDeferredAcceptance
batching = BatchingPolicy
patient_baseline = PatientBaseline


def pg_stochastic() -> PostponedGreedy:
    """pg under the name the stochastic-departure runs report."""
    policy = PostponedGreedy()
    policy.name = "pg-stochastic"
    return policy


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
    """Build a policy from its CLI name, e.g. 'pg' or 'batching:2' (ASCII digits)."""
    lookahead = spec.removeprefix("batching:")
    if lookahead != spec and lookahead.isascii() and lookahead.isdigit():
        return batching(int(lookahead))
    try:
        return POLICY_FACTORIES[spec]()
    except KeyError:
        raise ValueError(f"unknown policy {spec!r}") from None
