"""Deterministic event-driven simulator for online matching policies.

Arrivals and critical events are replayed in time order (arrivals first at
a tick, then criticals, lower vertex index first within a kind). A vertex
departs at the end of its critical period. Policies see the market only
through a MarketView, which reveals an edge weight exactly when the
presence-window rule (`graphs.PresenceWindows`) allows a match; randomness
comes from a stream of fair bits so that expectations can be enumerated
exactly.

`enumerate_branches` replays the run once per leaf of the coin tree: a
replay answers 0 past its scripted bits, and the 1-branches it passes are
replayed later. `exact_expectation` instead makes one forward pass over the
event schedule with a table of worlds, one per distinct policy state: each
world runs an event's callback in place, a callback that flips a coin forks
its world there and re-runs once per other outcome, and worlds whose
`OnlinePolicy.state_key()` agree after an event merge, since their futures
are the same. Merging is what keeps the table small, so the pass has no
coin cap: naive-greedy's 2^n coin tree collapses to its open sellers,
those whose critical event has not run, each with its tentative buyer,
and pg's to its open vertices with their tentative buyers' sides.
"""

from __future__ import annotations

import csv
import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .graphs import (ArrivalOrder, Matching, OnlineInstance, Pair, PresenceWindows,
                     build_online_graph,  # noqa: F401 (perfbench/tracer.py wraps it here)
                     format_rational, ordered_pair)
from .departures import sample_departures
from .offline import arrival_window_matching_value


def event_schedule(windows: PresenceWindows) -> list[tuple[int, str, int]]:
    """The run's events as sorted (time, "arrival" or "critical", vertex) tuples,
    so arrivals come first at a tick; `simulate`'s trace holds them as they are."""
    events = []
    for v, (slot, critical) in enumerate(zip(windows.slots, windows.critical), start=1):
        events.append((slot, "arrival", v))
        events.append((critical, "critical", v))
    return sorted(events)


class BitStream:
    """Fair random bits, deterministic per run seed: the bits of
    `random.Random(_derive_seed(seed, "policy-bits"))`. The generator is
    built at the first `flip()`, so a run whose policy flips no coin pays
    neither the seed's hash nor the seeding."""

    def __init__(self, seed: int):
        self._seed = seed
        self._rng = None
        self.used = 0

    def flip(self) -> int:
        if self._rng is None:
            self._rng = random.Random(_derive_seed(self._seed, "policy-bits"))
        self.used += 1
        return self._rng.getrandbits(1)


class OutOfBits(Exception):
    """A bit source or a forward-pass event ran past its limit (exact enumerators)."""


class ScriptedBits:
    """Bits read from `script`, then zeros, up to `limit` bits in all (by
    default the script's length, so no bit past it); the flip after that
    raises OutOfBits. The zeros sit at positions len(script)..used - 1, and
    their 1-branches are the scripts that enumerate the rest of a run's tree."""

    def __init__(self, script: tuple[int, ...], limit: int | None = None):
        self.script = script
        self.limit = len(script) if limit is None else limit
        self.used = 0

    def flip(self) -> int:
        used = self.used
        if used >= self.limit:
            raise OutOfBits(used)
        self.used = used + 1
        return self.script[used] if used < len(self.script) else 0

    def path(self) -> tuple[int, ...]:
        """Every bit answered so far."""
        return self.script[:self.used] + (0,) * (self.used - len(self.script))

    def branches(self) -> list[tuple[int, ...]]:
        """The script of each 1-branch the run passed, shallowest first."""
        path = self.path()
        return [path[:i] + (1,) for i in range(len(self.script), self.used)]


class _ForkBits(ScriptedBits):
    """The forward pass's source for a world's first run of an event: at the
    hook's first coin, before answering it, it clones the world it runs in.
    That clone is the base every 1-branch of the event re-runs from."""

    def __init__(self, world: "OnlinePolicy", limit: int):
        super().__init__((), limit)
        self.world = world
        self.base = None

    def flip(self) -> int:
        if self.world is not None:
            self.base, self.world = self.world.clone(), None
        return super().flip()


class MarketView:
    """What a policy may observe: presence, slots, and matchable weights.

    A weight is revealed only between vertices that have both arrived
    (information about the future does not exist), and it reads as zero when
    the presence-window rule under the realized departures and the policy's
    lookahead allowance keeps no edge between them. Weights are integers
    over `scale`, the graph's common denominator (`WeightedGraph.scaled`):
    sums and comparisons of them are exact, and a constant compared with
    them must be scaled too. A lookahead of l models
    knowing the next l arrivals, implemented as a time extension per the
    batching reduction. `live_weights` and `revealed_neighbors` read one
    vertex's own edges (`WeightedGraph.adj`), where `weight` reads a pair.
    """

    def __init__(self, instance: OnlineInstance, departures: tuple[int, ...],
                 lookahead: int):
        self._instance = instance
        self._windows = instance.windows(departures, lookahead)
        self._ints, self._scale = instance.graph.scaled
        self._arrived: set[int] = set()
        self._matched: set[int] = set()
        self._alive: set[int] = set()  # arrived; pruned lazily
        self._pruned = -1  # the tick `_alive` was last pruned at
        self.now = 0

    def clone(self) -> "MarketView":
        """An independent copy of the run's progress; the instance and the
        windows are shared, since no run changes them. The alive set is
        pruned before it is copied."""
        other = MarketView.__new__(MarketView)
        other._instance = self._instance
        other._windows = self._windows
        other._ints, other._scale = self._ints, self._scale
        other._arrived = set(self._arrived)
        other._matched = set(self._matched)
        other._alive = set(self._pruned_alive())
        other._pruned = self._pruned
        other.now = self.now
        return other

    # policy-facing API
    @property
    def n(self) -> int:
        return self._instance.n

    @property
    def deadline(self) -> int:
        return self._instance.deadline

    def roles(self) -> dict[int, str] | None:
        return self._instance.roles

    def slot_of(self, v: int) -> int:
        if v not in self._arrived:
            raise LookupError(f"vertex {v} has not arrived")
        return self._instance.order.slot_of(v)

    def has_arrived(self, v: int) -> bool:
        return v in self._arrived

    def departure_time(self, v: int) -> int:
        """Known only once the critical event has been reached."""
        t = self._windows.critical[v - 1]
        if v not in self._arrived or t > self.now:
            raise LookupError(f"vertex {v}'s departure is not yet known")
        return t

    def has_departed(self, v: int) -> bool:
        if v not in self._arrived:
            return False
        return self._windows.critical[v - 1] < self.now

    def is_matched(self, v: int) -> bool:
        return v in self._matched

    def _is_present(self, v: int) -> bool:
        """The presence rule, which `present()` and `revealed_neighbors` both
        read: v has arrived, is not past its own departure period and is not
        matched away."""
        return (v in self._arrived and self._windows.critical[v - 1] >= self.now
                and v not in self._matched)

    def present(self) -> list[int]:
        """The alive vertices that are present (`_is_present`), ascending."""
        return list(filter(self._is_present, self.alive()))

    def alive(self) -> list[int]:
        """Arrived vertices, matched or not, that some pair could still use
        at a tick >= now (critical time plus lookahead), in ascending order."""
        return sorted(self._pruned_alive())

    def _pruned_alive(self) -> set[int]:
        """The kept alive set, pruned at most once per tick: the floor moves
        only with `now`, and a vertex arriving at tick t is critical no
        earlier than t, so nothing added since the prune can be below it.
        Reveals leave it unpruned; `alive()` and `clone` prune it."""
        now = self.now
        if self._pruned != now:
            windows = self._windows
            critical, floor = windows.critical, now - windows.lookahead
            self._alive = {v for v in self._alive if critical[v - 1] >= floor}
            self._pruned = now
        return self._alive

    @property
    def scale(self) -> int:
        return self._scale

    def weight(self, u: int, v: int) -> int:
        if u not in self._arrived or v not in self._arrived:
            raise LookupError("weights to vertices that have not arrived are hidden")
        if not self._windows.live(u, v):
            return 0
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        return self._ints.get((u, v) if u < v else (v, u), 0)

    def live_weights(self, v: int) -> dict[int, int]:
        """`weight(u, v)` for each arrived u where it is positive, ascending,
        read from v's own edges (`WeightedGraph.adj`) in O(deg v)."""
        if v not in self._arrived:
            raise LookupError("weights to vertices that have not arrived are hidden")
        arrived, live, weights = self._arrived, self._windows.live, {}
        edges = iter(self._instance.graph.adj[v])
        for u in edges:  # a plain loop: at degree 1-3 a comprehension's set-up dominates
            w = next(edges)
            if u in arrived and live(u, v):
                weights[u] = w
        return weights

    def revealed_neighbors(self, v: int) -> dict[int, int]:
        """Positive matchable weights from v to currently present vertices,
        in ascending vertex order: `weight(u, v)` for each present u. It
        reads only v's own edges (`WeightedGraph.adj`), so it costs O(deg v).
        For a v that has not arrived it raises LookupError while any vertex
        is present."""
        if v not in self._arrived:
            if any(map(self._is_present, self._alive)):
                raise LookupError("weights to vertices that have not arrived are hidden")
            return {}
        present, live = self._is_present, self._windows.live
        edges = iter(self._instance.graph.adj[v])
        return {u: w for u, w in zip(edges, edges) if present(u) and live(u, v)}


class OnlinePolicy:
    """Base class: hooks return pairs to finalize at the current tick.

    A policy that flips coins can let `exact_expectation` merge its coin
    branches by defining `state_key()` and `clone()` together.
    `state_key()` returns a hashable value that is equal for two runs at the
    same point of the schedule only if every future hook call behaves the
    same in both: the same emitted pairs, coin use and errors. The pass
    keys a world right after each event, at that event's tick. `clone()`
    returns an independent copy, view included, of the state that hooks
    read; history that no hook reads (the log, initial margins) starts
    empty, but the view's copy grows with the run (see `clone`). The pass
    clones a world at a hook's first coin and re-runs the hook from that
    clone for each other outcome, so whatever a hook with a state key does
    before its first coin must be safe to do twice. The base `state_key()`
    returns None: no merging, one replay per leaf of the coin tree.
    """

    name = "policy"
    lookahead = 0

    def reset(self, view: MarketView, rng) -> None:
        self.view = view
        self.rng = rng
        self.log: list[tuple] = []

    def state_key(self):
        return None

    def clone(self) -> "OnlinePolicy":
        """Copy the base fields, with an empty log; a subclass that defines
        `state_key()` copies its own state fields on top; what no hook writes,
        such as the instance or declared roles, is shared. Fields are copied
        by name, never the whole instance dictionary, so hooks wrapped on
        this object stay with it. The view is copied whole, its arrived and
        matched sets included, which grow with the run."""
        other = type(self).__new__(type(self))
        other.name = self.name
        other.lookahead = self.lookahead
        other.view = self.view.clone()
        other.rng = self.rng
        other.log = []
        return other

    def on_arrival(self, v: int):
        return ()

    def on_critical(self, v: int):
        return ()


@dataclass(frozen=True)
class RunResult:
    pairs: frozenset[Pair]
    schedule: dict[Pair, int]
    collected: Fraction
    trace: tuple[tuple, ...]
    bits_used: int


_last_drawn = ((), ())  # the last (model, n, seed text) drawn and its offsets, replaced as one pair


def realized_departures(instance: OnlineInstance, seed: int) -> tuple[int, ...]:
    """Each vertex's departure offset in the run with this seed: the
    instance's `departures`, else its model's draw for the seed, else the
    deadline. The one place offsets come from.

    The last draw is kept with its key, (model, n, f"{seed}"), and only
    that one: a caller that asks for a run's offsets and then simulates it
    draws once. The key holds the seed's text, which is what `_derive_seed`
    hashes, so seeds that print differently (True, 1, 1.0) keep their
    different draws, equal models share one, and only a miss pays the hash."""
    global _last_drawn
    if instance.departures is not None:
        return instance.departures
    model = instance.departure_model
    if model is None:
        return tuple([instance.deadline] * instance.n)
    key = (model, instance.n, f"{seed}")
    last, offsets = _last_drawn
    if key != last:
        offsets = sample_departures(model, instance.n, _derive_seed(seed, "departures"))
        _last_drawn = key, offsets
    return offsets


@dataclass(frozen=True)
class MatchViolation:
    pair: Pair
    time: int | None
    reasons: tuple[str, ...]

    def __str__(self):
        at = f" at time {self.time}" if self.time is not None else ""
        return f"pair {self.pair}{at} invalid: {', '.join(self.reasons)}"


def validate_matching(instance: OnlineInstance, matching, schedule: dict[Pair, int],
                      lookahead: int = 0, seed: int = 0) -> MatchViolation | None:
    """Check a matched pair set with its match times against the online rules.

    Each pair must be disjoint from the others and satisfy the presence-window
    rule (`PresenceWindows`) under the offsets of the run with this seed (see
    `realized_departures`; `simulate` takes the same seed), with the given
    lookahead allowance. Returns None when everything checks out, otherwise
    the first violated pair (by match time) with every violated condition
    listed.
    """
    pairs = matching.pairs if isinstance(matching, Matching) else frozenset(
        ordered_pair(i, j) for i, j in matching)
    uses = Counter(v for pair in pairs for v in pair)
    overlap = {v for v, count in uses.items() if count > 1}
    windows = instance.windows(realized_departures(instance, seed), lookahead)
    for pair in sorted(pairs, key=lambda p: (schedule.get(p, -1), p)):
        if pair not in schedule:
            return MatchViolation(pair, None, ("no match time scheduled",))
        reasons = windows.violations(pair, schedule[pair], overlap)
        if reasons:
            return MatchViolation(pair, schedule[pair], reasons)
    return None


def simulate(instance: OnlineInstance, policy: OnlinePolicy, seed: int = 0,
             bits=None) -> RunResult:
    """Replay the instance against the policy; exact, reproducible per seed.

    Each emitted pair is checked on the spot: both endpoints unmatched and
    the presence-window rule kept at the current tick, under the realized
    departures and the policy's lookahead allowance. An invalid pair aborts
    the run with a ValueError. The trace holds the schedule's own event
    tuples (`event_schedule`), each followed by (time, "match", pair) per pair.
    """
    departures = realized_departures(instance, seed)
    rng = bits if bits is not None else BitStream(seed)
    view = MarketView(instance, departures, policy.lookahead)
    policy.reset(view, rng)
    pairs: dict[Pair, int] = {}
    ints, scale = instance.graph.scaled
    collected = 0  # over scale
    trace: list[tuple] = []
    for event in event_schedule(view._windows):
        time, kind, vertex = event
        accepted = _step(policy, time, kind, vertex)
        trace.append(event)
        for pair in accepted:
            pairs[pair] = time
            collected += ints.get(pair, 0)
            trace.append((time, "match", pair))
    return RunResult(frozenset(pairs), dict(pairs), Fraction(collected, scale),
                     tuple(trace), rng.used)


def _step(policy: OnlinePolicy, time: int, kind: str,
          vertex: int) -> list[Pair] | tuple[()]:
    """Run one event of the schedule on the policy and its view; return the
    pairs it matched, `()` when the hook emitted none. Each emitted pair is
    checked on the spot and marked matched: both endpoints unmatched and the
    presence-window rule kept at this tick. An invalid pair aborts the run
    with a ValueError."""
    view = policy.view
    view.now = time
    if kind == "arrival":
        view._arrived.add(vertex)
        view._alive.add(vertex)
        emitted = policy.on_arrival(vertex)
    else:
        emitted = policy.on_critical(vertex)
    if not emitted:
        return ()
    accepted = []
    for raw in emitted:
        pair = ordered_pair(*raw)
        reasons = view._windows.violations(pair, time, view._matched)
        if reasons:
            raise ValueError(f"policy {policy.name} emitted "
                             f"{MatchViolation(pair, time, reasons)}")
        view._matched.update(pair)
        accepted.append(pair)
    return accepted


class BranchingLimitExceeded(ValueError):
    pass


MAX_FLIPS = 20  # fair bits per branch that the leaf sum replays: 2**20 leaves
MAX_WORLDS = 2 ** 10  # worlds the forward pass holds at once (about 8 KB each at n = 13)


def _require_fixed_departures(instance: OnlineInstance):
    model = instance.departure_model
    if model is not None and model.kind != "deterministic":
        raise BranchingLimitExceeded("stochastic departure models are not exactly enumerable")


def enumerate_branches(instance: OnlineInstance, policy: OnlinePolicy):
    """Yield (bits, RunResult) over the policy's full fair-coin tree, in
    lexicographic order of the bits.

    Each replay reads its script and then answers 0, so it ends at a leaf,
    and the 1-branches it passed become the scripts of later replays: one
    `simulate` call per leaf. Refuses runs that consume more than MAX_FLIPS
    bits. The departures must be fixed: a model that samples them is not
    enumerable.
    """
    _require_fixed_departures(instance)
    scripts: list[tuple[int, ...]] = [()]
    while scripts:
        bits = ScriptedBits(scripts.pop(), MAX_FLIPS)
        try:
            result = simulate(instance, policy, bits=bits)
        except OutOfBits:
            raise BranchingLimitExceeded(f"policy consumed more than {MAX_FLIPS} fair bits")
        scripts.extend(bits.branches())  # the deepest 1-branch is replayed next
        yield bits.path(), result


def exact_expectation(instance: OnlineInstance, policy: OnlinePolicy) -> Fraction:
    """Exact expected collected value over the policy's fair coin flips.

    1. One `simulate` run with no bits: a policy that asks for no coin
       costs just that run.
    2. If the policy defines `state_key()` (see `OnlinePolicy`), one forward
       pass over the event schedule carries a table of worlds: policies,
       each with its own view and an integer mass over a common 2**depth.
       The caller's policy object runs as the first world, so afterwards it
       holds the state of one branch. At each event every world runs the
       hook in place, with bits that answer 0, so a hook that flips no coin
       costs no clone. At the hook's first coin the world is cloned once,
       as the base, and each 1-branch the run passed re-runs the hook on
       its own clone of the base, scripted up to that 1 and answering 0
       after it: a world with k outcomes at an event costs k clones. The
       depth grows by the event's deepest outcome. An outcome keeps its
       world's mass, halved once per bit it used, and its collected value
       counts with that mass. After the event, each outcome is keyed at
       the event's tick, and outcomes with equal keys merge and their
       masses add: runs whose states agree have the same future. An
       invalid pair raises at the event where it is emitted.
    3. Otherwise, or when the pass hands over, the leaf sum over
       `enumerate_branches`, with its flip cap. The pass hands over when
       the merged table outgrows MAX_WORLDS or one event has more than
       2 * MAX_WORLDS outcomes, so memory stays bounded where merging does
       not keep up.
    """
    _require_fixed_departures(instance)
    try:
        return simulate(instance, policy, bits=ScriptedBits(())).collected
    except OutOfBits:
        pass  # the policy flips coins
    if policy.state_key() is not None:
        merged = _merged_expectation(instance, policy)
        if merged is not None:
            return merged
    return sum((result.collected * Fraction(1, 2 ** len(bits))
                for bits, result in enumerate_branches(instance, policy)), Fraction(0))


def _merged_expectation(instance: OnlineInstance, policy: OnlinePolicy) -> Fraction | None:
    """The forward pass of `exact_expectation`, or None when it hands over."""
    view = MarketView(instance, realized_departures(instance, 0), policy.lookahead)
    policy.reset(view, ScriptedBits(()))
    events = event_schedule(view._windows)
    weights, scale = instance.graph.scaled
    worlds = [(1, policy)]  # (mass, world): probability mass / 2**depth
    depth = 0
    total = 0  # sum of mass * collected weight, over scale << depth
    for time, kind, vertex in events:
        try:
            outcomes, split = _event_outcomes(worlds, time, kind, vertex)
        except OutOfBits:
            return None  # one event splits too far: leave it to the replays
        depth += split
        total <<= split
        merged: dict = {}
        for mass, used, accepted, world in outcomes:
            mass <<= split - used
            for pair in accepted:
                total += mass * weights.get(pair, 0)
            # a lone world has nothing to merge with
            key = world.state_key() if len(outcomes) > 1 else None
            seen = merged.get(key)
            merged[key] = (mass, world) if seen is None else (seen[0] + mass, seen[1])
        worlds = list(merged.values())
        if len(worlds) > MAX_WORLDS:
            return None  # merging does not keep up: leave it to the replays
    return Fraction(total, scale << depth)


def _event_outcomes(worlds, time: int, kind: str, vertex: int):
    """Run one event on every (mass, world), forking each world at its hook's
    first coin. Returns the outcomes as (mass, bits used, pairs matched,
    world) with the most bits any outcome used. Past 2 * MAX_WORLDS
    outcomes it raises OutOfBits, as does a run that asks for more bits
    than that: each bit it answered 0 would be one more outcome."""
    cap = 2 * MAX_WORLDS
    outcomes = []
    split = 0
    for mass, world in worlds:
        first = world.rng = _ForkBits(world, cap)
        accepted = _step(world, time, kind, vertex)
        first.world = None  # no cycle between a world and its bits
        outcomes.append((mass, first.used, accepted, world))
        if len(outcomes) > cap:
            raise OutOfBits(len(outcomes))
        if not first.used:
            continue  # no coin, no clone
        base, first.base = first.base, None
        split = max(split, first.used)
        scripts = first.branches()
        while scripts:  # the deepest 1-branch first, as the replays order them
            child = base.clone()
            child.rng = bits = ScriptedBits(scripts.pop(), cap)
            accepted = _step(child, time, kind, vertex)
            outcomes.append((mass, bits.used, accepted, child))
            if len(outcomes) > cap:
                raise OutOfBits(len(outcomes))
            split = max(split, bits.used)
            scripts.extend(bits.branches())
    return outcomes, split


# ---------------------------------------------------------------------------
# Competitive reports

@dataclass(frozen=True)
class ReportRow:
    instance_id: str
    policy: str
    arrival_model: str
    n: int
    d: int
    samples_or_exact: str
    alg_value: Fraction
    off_value: Fraction

    @property
    def ratio(self) -> Fraction | None:
        if self.off_value == 0:
            return None
        return self.alg_value / self.off_value


REPORT_COLUMNS = ["instance_id", "policy", "arrival_model", "n", "d",
                  "samples_or_exact", "alg_value", "off_value", "ratio"]

EXHAUSTIVE_ORDER_CAP = 8


def competitive_report(instances, policies, arrival_model: str = "fixed",
                       seeds: int = 0, base_seed: int = 0) -> list[ReportRow]:
    """Expected policy value vs offline optimum per (instance, policy).

    arrival_model "fixed" keeps each instance's own order; "uniform"
    averages over arrival orders, exhaustively for n <= 8 when seeds == 0,
    else by Monte Carlo over `seeds` sampled orders. With seeds == 0 coin
    randomness is exact unless `exact_expectation` refuses, else averaged
    over max(seeds, 1) runs. Each order's offline optimum is read as the
    window DP's value (`arrival_window_matching_value`), with no matching.
    Both inputs are lists of pairs: (name, instance) and (name, factory).
    """
    if arrival_model not in ("fixed", "uniform"):
        raise ValueError("arrival_model is 'fixed' or 'uniform'")
    if seeds < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds}")
    rows = []
    for idx, (instance_id, instance) in enumerate(instances):
        orders, exhaustive = _order_family(instance, arrival_model, seeds,
                                           _derive_seed(base_seed, f"orders-{idx}"))
        off_total = Fraction(0)
        for order in orders:
            off_total += arrival_window_matching_value(instance.graph, order.slots,
                                                       instance.deadline)
        off_value = off_total / len(orders)
        for policy_name, factory in policies:
            alg_total = Fraction(0)
            exact = exhaustive
            samples = 0
            for k, order in enumerate(orders):
                variant = instance.with_order(order)
                if not seeds:
                    try:
                        alg_total += exact_expectation(variant, factory())
                        continue
                    except BranchingLimitExceeded:
                        pass  # too many coins to enumerate: sample one run
                exact = False
                runs = max(seeds, 1)
                for s in range(runs):
                    alg_total += simulate(
                        variant, factory(),
                        seed=_derive_seed(base_seed, f"run-{idx}-{k}-{s}")
                    ).collected / runs
                samples += runs
            alg_value = alg_total / len(orders)
            rows.append(ReportRow(
                instance_id, policy_name, arrival_model,
                instance.n, instance.deadline,
                "exact" if exact else str(samples),
                alg_value, off_value))
    return rows


def write_report_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            ratio = row.ratio
            writer.writerow([
                row.instance_id, row.policy, row.arrival_model, row.n, row.d,
                row.samples_or_exact, format_rational(row.alg_value),
                format_rational(row.off_value),
                format_rational(ratio) if ratio is not None else "",
            ])


def _order_family(instance, arrival_model, seeds, seed):
    if arrival_model == "fixed":
        return [instance.order], True
    n = instance.n
    if seeds == 0:
        if n > EXHAUSTIVE_ORDER_CAP:
            raise ValueError(
                f"exhaustive uniform orders need n <= {EXHAUSTIVE_ORDER_CAP}; "
                "pass seeds=N for Monte Carlo")
        return [ArrivalOrder(p) for p in permutations(range(1, n + 1))], True
    rng = random.Random(seed)
    orders = []
    for _ in range(seeds):
        slots = list(range(1, n + 1))
        rng.shuffle(slots)
        orders.append(ArrivalOrder(tuple(slots)))
    return orders, False


def _derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
