"""Property tests for the presence-window rule, stated once in `graphs.py`.

Each property writes the rule out by hand and checks one of its users
against it: the weights a policy sees through `MarketView`, the edge sets of
`build_online_graph` and `realized_online_graph`, the on-the-spot pair
check in `simulate`, which must agree with `validate_matching` under every
source of departure offsets, the present and alive sets that `MarketView`
keeps as the run goes, in the view and in copies of it, and the neighbours
it reveals from a vertex's own edges, which must be the present vertices'
positive weights, in runs and in the forward pass's worlds.
"""

import dataclasses
import random
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, MarketView, OnlineInstance,
                               OnlinePolicy, WeightedGraph, build_online_graph,
                               deterministic, exact_expectation, geometric,
                               make_policy, realized_online_graph,
                               sample_departures, simulate, tabulated,
                               validate_matching)
from deadline_matching.engine import realized_departures
from deadline_matching.policies import NaiveGreedy, PostponedGreedy

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """n <= 9, d in 0..4, a random order and explicit departure offsets
    that may fall short of or exceed the deadline."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = {(i, j): F(rng.randint(1, 8), rng.choice([1, 2, 4]))
               for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if rng.random() < 0.7}
    slots = tuple(draw(st.permutations(range(1, n + 1))))
    departures = tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    return OnlineInstance(WeightedGraph(n, weights), ArrivalOrder(slots), d,
                          departures=departures)


@st.composite
def modelled_instances(draw):
    """An instance from `instances()` whose offsets come from any source
    `realized_departures` knows: the deadline, the instance's `departures`,
    or a deterministic(k) (k may differ from d), tabulated or geometric
    model."""
    instance = draw(instances())
    source = draw(st.sampled_from(
        ("deadline", "departures", "deterministic", "tabulated", "geometric")))
    if source == "departures":
        return instance
    model = None
    if source == "deterministic":
        model = deterministic(draw(st.integers(0, 6)))
    elif source == "tabulated":
        support = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
        masses = draw(st.lists(st.integers(1, 4), min_size=len(support),
                               max_size=len(support)))
        model = tabulated({t: F(m, sum(masses)) for t, m in zip(support, masses)})
    elif source == "geometric":
        model = geometric(draw(st.sampled_from((F(1, 2), F(1, 3), F(3, 4)))))
    return dataclasses.replace(instance, departures=None, departure_model=model)


def live_by_formula(instance, offsets, lookahead=0):
    """The edges whose earlier endpoint a reaches the later one b:
    slot(b) - slot(a) <= min(offset of a, d) + lookahead."""
    slot = instance.order.slot_of
    live = set()
    for (i, j) in instance.graph.weights:
        a, b = (i, j) if slot(i) < slot(j) else (j, i)
        if slot(b) - slot(a) <= min(offsets[a - 1], instance.deadline) + lookahead:
            live.add((i, j))
    return live


class WeightProbe(OnlinePolicy):
    """Reads every weight between the new arrival and the earlier ones."""

    def __init__(self, lookahead):
        self.lookahead = lookahead
        self.positive = set()

    def on_arrival(self, v):
        for u in range(1, self.view.n + 1):
            if u != v and self.view.has_arrived(u) and self.view.weight(u, v) > 0:
                self.positive.add((min(u, v), max(u, v)))
        return ()


@PROPERTY
@given(instances(), st.integers(0, 2))
def test_market_view_reveals_exactly_the_live_edges(instance, lookahead):
    probe = WeightProbe(lookahead)
    simulate(instance, probe)
    assert probe.positive == live_by_formula(instance, instance.departures, lookahead)


@PROPERTY
@given(instances())
def test_online_graphs_keep_exactly_the_live_edges(instance):
    deadline_offsets = [instance.deadline] * instance.n
    assert set(build_online_graph(instance).weights) == live_by_formula(
        instance, deadline_offsets)
    assert set(realized_online_graph(instance, instance.departures).weights) == \
        live_by_formula(instance, instance.departures)


@PROPERTY
@given(instances(), st.data())
def test_validate_matching_follows_the_written_out_rule(instance, data):
    n = instance.n
    assume(n >= 2)
    i, j = sorted(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    t = data.draw(st.integers(0, n + 8))
    lookahead = data.draw(st.integers(0, 2))
    slot, offsets = instance.order.slot_of, instance.departures
    a, b = (i, j) if slot(i) < slot(j) else (j, i)
    reaches = slot(b) - slot(a) <= min(offsets[a - 1], instance.deadline) + lookahead
    present = slot(b) <= t <= min(slot(i) + offsets[i - 1], slot(j) + offsets[j - 1]) + lookahead
    verdict = validate_matching(instance, {(i, j)}, {(i, j): t}, lookahead)
    assert (verdict is None) == (reaches and present)


class ScriptedEmitter(OnlinePolicy):
    """Emits the planned pairs at the planned event indices and records
    every emission with its tick."""

    def __init__(self, lookahead, plan):
        self.lookahead = lookahead
        self.plan = plan
        self.emitted = []
        self.events = 0

    def _emit(self):
        pairs = self.plan.get(self.events, [])
        self.events += 1
        self.emitted.extend((pair, self.view.now) for pair in pairs)
        return pairs

    def on_arrival(self, v):
        return self._emit()

    def on_critical(self, v):
        return self._emit()


@st.composite
def scripted_runs(draw):
    instance = draw(modelled_instances())
    n = instance.n
    plan = {}
    if n >= 2:
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(
            lambda p: (min(p), max(p)))
        plan = draw(st.dictionaries(st.integers(0, 2 * n - 1),
                                    st.lists(pair, min_size=1, max_size=2), max_size=4))
    return instance, draw(st.integers(0, 2)), plan


@PROPERTY
@given(scripted_runs())
def test_simulate_rejects_exactly_what_validate_matching_rejects(run):
    instance, lookahead, plan = run
    policy = ScriptedEmitter(lookahead, plan)
    try:
        simulate(instance, policy)
        rejected = False
    except ValueError:
        rejected = True
    schedule = {}
    verdicts = []
    for pair, t in policy.emitted:
        if pair in schedule:  # the same pair twice reuses both vertices
            verdicts.append(False)
            continue
        schedule[pair] = t
        verdicts.append(validate_matching(instance, set(schedule), schedule, lookahead) is None)
    assert rejected == (not all(verdicts))


def test_the_rule_caps_the_reach_at_the_deadline():
    # vertex 1 stays 5 periods but the deadline graph has no edge 3 slots out
    instance = OnlineInstance(WeightedGraph(4, {(1, 4): F(1)}), ArrivalOrder.identity(4), 2,
                              departures=(5, 0, 0, 0))
    violation = validate_matching(instance, {(1, 4)}, {(1, 4): 4})
    assert violation is not None
    assert violation.reasons == ("edge absent in the online graph "
                                 "(slot gap 3 exceeds the window 2)",)
    with pytest.raises(ValueError, match="window 2"):
        simulate(instance, ScriptedEmitter(0, {5: [(1, 4)]}))  # at 4's arrival


POLICY_SPECS = ("greedy", "naive-greedy", "pg", "pg-stochastic", "dda", "batching",
                "patient")


def present_by_formula(view, critical):
    """Arrived, critical time not yet passed, not matched; ascending."""
    return [v for v in range(1, view.n + 1)
            if view.has_arrived(v) and critical[v - 1] >= view.now
            and not view.is_matched(v)]


def alive_by_formula(view, critical, lookahead):
    """Arrived, critical time plus lookahead not yet passed; ascending."""
    return [v for v in range(1, view.n + 1)
            if view.has_arrived(v) and critical[v - 1] + lookahead >= view.now]


@st.composite
def market_runs(draw, base=instances()):
    """An instance from `base`, in half the cases cut down to a
    role-constrained market (edges only from an earlier seller to a later
    buyer) so that the role-based policies run too."""
    instance = draw(base)
    if draw(st.booleans()):
        sellers = draw(st.sets(st.integers(1, instance.n)))
        slot = instance.order.slot_of

        def seller_to_later_buyer(i, j):
            a, b = sorted((i, j), key=slot)
            return a in sellers and b not in sellers

        weights = {e: w for e, w in instance.graph.weights.items()
                   if seller_to_later_buyer(*e)}
        roles = {v: "seller" if v in sellers else "buyer" for v in instance.graph.vertices()}
        instance = dataclasses.replace(instance, graph=WeightedGraph(instance.n, weights),
                                       roles=roles)
    return instance


def run_outcome(instance, policy, seed):
    try:
        r = simulate(instance, policy, seed=seed)
    except ValueError as exc:  # a refused input or a pair after a departure
        return ("refused", str(exc))
    return (r.pairs, r.schedule, r.collected, r.trace, r.bits_used, policy.log)


@PROPERTY
@given(market_runs(), st.sampled_from(POLICY_SPECS), st.integers(0, 2), st.integers(0, 3))
def test_present_set_follows_the_written_out_definition(instance, spec, lookahead, seed):
    slot = instance.order.slot_of
    critical = [slot(v) + instance.departures[v - 1] for v in instance.graph.vertices()]

    policy = make_policy(spec)
    policy.lookahead = lookahead
    audited = []

    def agrees(view):
        return (view.present() == present_by_formula(view, critical)
                and view.alive() == alive_by_formula(view, critical, lookahead))

    def audit(hook):
        def run(v):
            # copies taken before and after the audit's own read, so a copy
            # is read both before and after the view has pruned at this tick
            before = policy.view.clone()
            assert agrees(policy.view)
            after = policy.view.clone()
            assert agrees(before) and agrees(after)
            audited.append(v)
            return hook(v)
        return run

    policy.on_arrival = audit(policy.on_arrival)
    policy.on_critical = audit(policy.on_critical)
    outcome = run_outcome(instance, policy, seed)
    if outcome[0] != "refused":
        assert len(audited) == 2 * instance.n
        assert policy.view.present() == present_by_formula(policy.view, critical)

    # the same run with the definition itself in place of the kept set
    reference = make_policy(spec)
    reference.lookahead = lookahead
    with patch.object(MarketView, "present",
                      lambda view: present_by_formula(view, critical)):
        assert run_outcome(instance, reference, seed) == outcome


@PROPERTY
@given(market_runs(modelled_instances()), st.integers(0, 3))
def test_validate_matching_accepts_every_completed_run(instance, seed):
    for spec in POLICY_SPECS + ("batching:1", "batching:2"):
        policy = make_policy(spec)
        try:
            r = simulate(instance, policy, seed=seed)
        except ValueError:  # a refused input or a pair after a departure
            continue
        verdict = validate_matching(instance, r.pairs, r.schedule, policy.lookahead, seed=seed)
        assert verdict is None, (spec, verdict)


def test_validate_matching_reads_the_departure_model():
    # deterministic(3) keeps vertex 1 past the deadline's critical time 2
    instance = OnlineInstance(WeightedGraph(2, {(1, 2): F(1)}), ArrivalOrder.identity(2), 1,
                              departure_model=deterministic(3))
    r = simulate(instance, make_policy("patient"))
    assert r.schedule == {(1, 2): 4}
    assert validate_matching(instance, r.pairs, r.schedule) is None
    assert instance.windows(realized_departures(instance, 0)).critical == [4, 5]


def reveals_by_formula(view, v):
    """`weight(u, v)` for each present u other than v where it is positive,
    ascending. For a v that has not arrived, `weight` raises while some
    vertex is present, and there is nothing to read while none is."""
    return {u: w for u in view.present() if u != v and (w := view.weight(u, v)) > 0}


def audit_reveals(view):
    """Every vertex's reveal against the written-out one, key order
    included. The reveals are read before `present()` prunes the view."""
    seen = {}
    for v in range(1, view.n + 1):
        try:
            seen[v] = view.revealed_neighbors(v)
        except LookupError:
            seen[v] = "hidden"
    for v, got in seen.items():
        try:
            want = reveals_by_formula(view, v)
        except LookupError:
            want = "hidden"
        assert got == want and list(got) == list(want), (view.now, v, got, want)


@PROPERTY
@given(market_runs(modelled_instances()), st.sampled_from(POLICY_SPECS), st.integers(0, 1),
       st.integers(0, 3))
def test_reveals_follow_the_written_out_rule(instance, spec, lookahead, seed):
    policy = make_policy(spec)
    policy.lookahead = lookahead
    audited = []

    def audit(hook):
        def run(v):
            copy = policy.view.clone()
            audit_reveals(policy.view)
            audit_reveals(copy)
            audited.append(v)
            return hook(v)
        return run

    policy.on_arrival = audit(policy.on_arrival)
    policy.on_critical = audit(policy.on_critical)
    outcome = run_outcome(instance, policy, seed)
    if outcome[0] != "refused":
        assert len(audited) == 2 * instance.n

    # the same run with the written-out reveal in place of the view's own
    reference = make_policy(spec)
    reference.lookahead = lookahead
    with patch.object(MarketView, "revealed_neighbors", reveals_by_formula):
        assert run_outcome(instance, reference, seed) == outcome


class AuditsReveals:
    """Audits the view's reveals before and after each hook, in every world
    of the forward pass: a clone keeps the class and is marked, and the
    pass clones a world at its hook's first coin, mid-tick, then re-runs
    the hook from that clone for each other outcome."""

    audits: list = []  # one entry per audit: whether the world was a clone

    def clone(self):
        other = super().clone()
        other.is_clone = True
        return other

    def _audit(self):
        audit_reveals(self.view)
        self.audits.append(getattr(self, "is_clone", False))

    def _audited(self, hook, v):
        self._audit()
        emitted = hook(v)
        self._audit()
        return emitted

    def on_arrival(self, v):
        return self._audited(super().on_arrival, v)

    def on_critical(self, v):
        return self._audited(super().on_critical, v)


class AuditedNaiveGreedy(AuditsReveals, NaiveGreedy):
    pass


class AuditedPostponedGreedy(AuditsReveals, PostponedGreedy):
    pass


@PROPERTY
@given(instances(), st.integers(0, 1), st.booleans(), st.integers(0, 2**32 - 1))
def test_reveals_follow_the_rule_in_forward_pass_clones(instance, lookahead, geometric_draw,
                                                        seed):
    if geometric_draw:
        instance = dataclasses.replace(
            instance, departures=sample_departures(geometric(F(1, 2)), instance.n, seed))
    for audited, plain in ((AuditedNaiveGreedy, NaiveGreedy),
                           (AuditedPostponedGreedy, PostponedGreedy)):
        AuditsReveals.audits = []
        outcomes = []
        for policy in (audited(), plain()):
            policy.lookahead = lookahead
            try:
                outcomes.append(exact_expectation(instance, policy))
            except ValueError as exc:  # a pair after a departure
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if plain is NaiveGreedy:  # a coin at every arrival: worlds fork at each one
            assert any(AuditsReveals.audits)
