"""Deterministic event-driven simulator for online matching policies.

Arrivals and critical events are replayed in time order (arrivals first at
a tick, then criticals, lower vertex index first within a kind). A vertex
departs at the end of its critical period. Policies see the market only
through a MarketView, which reveals an edge weight exactly when the
presence-window rule (`graphs.PresenceWindows`) allows a match; randomness
comes from a stream of fair bits so that expectations can be enumerated
exactly.
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
from .offline import offline_optimum

ARRIVAL = "arrival"
CRITICAL = "critical"


@dataclass(frozen=True)
class Event:
    time: int
    kind: str
    vertex: int

    def sort_key(self):
        return (self.time, 0 if self.kind == ARRIVAL else 1, self.vertex)


def event_schedule(windows: PresenceWindows) -> list[Event]:
    events = []
    for v, (slot, critical) in enumerate(zip(windows.slots, windows.critical), start=1):
        events.append(Event(slot, ARRIVAL, v))
        events.append(Event(critical, CRITICAL, v))
    return sorted(events, key=Event.sort_key)


class BitStream:
    """Fair random bits, deterministic per seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.used = 0

    def flip(self) -> int:
        self.used += 1
        return self._rng.getrandbits(1)


class OutOfBits(Exception):
    """A scripted replay ran past its prefix (used by the exact enumerator)."""


class ScriptedBits:
    def __init__(self, script: tuple[int, ...]):
        self.script = script
        self.used = 0

    def flip(self) -> int:
        if self.used >= len(self.script):
            raise OutOfBits(self.used)
        bit = self.script[self.used]
        self.used += 1
        return bit


class MarketView:
    """What a policy may observe: presence, slots, and matchable weights.

    A weight is revealed only between vertices that have both arrived
    (information about the future does not exist), and it reads as zero when
    the presence-window rule under the realized departures and the policy's
    lookahead allowance keeps no edge between them. A lookahead of l models
    knowing the next l arrivals, implemented as a time extension per the
    batching reduction.
    """

    def __init__(self, instance: OnlineInstance, departures: tuple[int, ...],
                 lookahead: int):
        self._instance = instance
        self._windows = instance.windows(departures, lookahead)
        self._arrived: set[int] = set()
        self._matched: set[int] = set()
        self._present: set[int] = set()  # arrived and unmatched; pruned lazily
        self.now = 0

    # engine-side hooks
    def _advance(self, time: int):
        self.now = time

    def _mark_arrived(self, v: int):
        self._arrived.add(v)
        self._present.add(v)

    def _mark_matched(self, pair: Pair):
        self._matched.update(pair)
        self._present.difference_update(pair)

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

    def present(self) -> list[int]:
        """Arrived, not past their departure period, not matched away, in
        ascending order."""
        critical, now = self._windows.critical, self.now
        self._present = {v for v in self._present if critical[v - 1] >= now}
        return sorted(self._present)

    def weight(self, u: int, v: int) -> Fraction:
        if u not in self._arrived or v not in self._arrived:
            raise LookupError("weights to vertices that have not arrived are hidden")
        if not self._windows.live(u, v):
            return Fraction(0)
        return self._instance.graph.weight(u, v)

    def revealed_neighbors(self, v: int) -> dict[int, Fraction]:
        """Positive matchable weights from v to currently present vertices."""
        out = {}
        for u in self.present():
            if u == v:
                continue
            w = self.weight(u, v)
            if w > 0:
                out[u] = w
        return out


class OnlinePolicy:
    """Base class: hooks return pairs to finalize at the current tick."""

    name = "policy"
    lookahead = 0

    def reset(self, view: MarketView, rng) -> None:
        self.view = view
        self.rng = rng
        self.log: list[tuple] = []

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


def realized_departures(instance: OnlineInstance, seed: int) -> tuple[int, ...]:
    """Each vertex's departure offset in the run with this seed: the
    instance's `departures`, else its model's draw for the seed, else the
    deadline. The one place offsets come from."""
    if instance.departures is not None:
        return instance.departures
    if instance.departure_model is not None:
        return sample_departures(instance.departure_model, instance.n,
                                 _derive_seed(seed, "departures"))
    return tuple([instance.deadline] * instance.n)


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
    the run with a ValueError.
    """
    departures = realized_departures(instance, seed)
    rng = bits if bits is not None else BitStream(_derive_seed(seed, "policy-bits"))
    view = MarketView(instance, departures, policy.lookahead)
    policy.reset(view, rng)
    pairs: dict[Pair, int] = {}
    collected = Fraction(0)
    trace: list[tuple] = []
    for event in event_schedule(view._windows):
        view._advance(event.time)
        if event.kind == ARRIVAL:
            view._mark_arrived(event.vertex)
            emitted = policy.on_arrival(event.vertex)
        else:
            emitted = policy.on_critical(event.vertex)
        trace.append((event.time, event.kind, event.vertex))
        for raw in emitted or ():
            pair = ordered_pair(*raw)
            reasons = view._windows.violations(pair, event.time, view._matched)
            if reasons:
                raise ValueError(f"policy {policy.name} emitted "
                                 f"{MatchViolation(pair, event.time, reasons)}")
            view._mark_matched(pair)
            pairs[pair] = event.time
            collected += instance.graph.weight(*pair)
            trace.append((event.time, "match", pair))
    return RunResult(frozenset(pairs), dict(pairs), collected, tuple(trace), rng.used)


class BranchingLimitExceeded(ValueError):
    pass


MAX_FLIPS = 20  # fair bits per run that exact enumeration accepts: 2**20 leaves


def enumerate_branches(instance: OnlineInstance, policy: OnlinePolicy):
    """Yield (bits, RunResult) over the policy's full fair-coin tree.

    Refuses runs that consume more than MAX_FLIPS bits. The departures must
    be fixed: a model that samples them is not enumerable.
    """
    model = instance.departure_model
    if model is not None and model.kind != "deterministic":
        raise BranchingLimitExceeded("stochastic departure models are not exactly enumerable")
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        try:
            result = simulate(instance, policy, bits=ScriptedBits(prefix))
        except OutOfBits:
            if len(prefix) >= MAX_FLIPS:
                raise BranchingLimitExceeded(f"policy consumed more than {MAX_FLIPS} fair bits")
            stack.append(prefix + (1,))
            stack.append(prefix + (0,))
            continue
        assert result.bits_used == len(prefix)
        yield prefix, result


def exact_expectation(instance: OnlineInstance, policy: OnlinePolicy) -> Fraction:
    """Exact expected collected value over the policy's fair coin flips."""
    total = Fraction(0)
    for bits, result in enumerate_branches(instance, policy):
        total += result.collected * Fraction(1, 2 ** len(bits))
    return total


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
    else by Monte Carlo over `seeds` sampled orders. Coin randomness is
    enumerated exactly when it fits the flip cap, else averaged over seeds.
    Both inputs are lists of pairs: (name, instance) and (name, factory).
    """
    if arrival_model not in ("fixed", "uniform"):
        raise ValueError("arrival_model is 'fixed' or 'uniform'")
    rows = []
    for idx, (instance_id, instance) in enumerate(instances):
        orders, exhaustive = _order_family(instance, arrival_model, seeds,
                                           _derive_seed(base_seed, f"orders-{idx}"))
        off_total = Fraction(0)
        for order in orders:
            off_total += offline_optimum(instance.with_order(order)).weight
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
