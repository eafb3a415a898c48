"""Per-event reads against the pairwise and snapshot forms they replace.

pg's bid and batching's batch table read each vertex's own edges through
`MarketView.live_weights`; `oracles.PairwisePostponedGreedy` and
`oracles.PairwiseBatching` read one `weight` per pair, and every run must
agree with them, its results, log and pg's duals included. At every event
`live_weights` must equal the written-out read, which never touches a
vertex that has not arrived. dda keeps its dual histories as changes;
`oracles.SnapshotDDA` copies every dual after every event, and the two must
agree after every event of a run, so mid-run reads are checked as well as
final ones.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import engine
from deadline_matching.departures import geometric, tabulated
from deadline_matching.policies import (BatchingPolicy, DynamicDeferredAcceptance,
                                        PostponedGreedy)
from helpers import random_constrained_bipartite, random_instance
from oracles import PairwiseBatching, PairwisePostponedGreedy, SnapshotDDA

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def runs(draw, constrained=st.booleans(),
         sources=st.sampled_from(("deadline", "offsets", "geometric", "tabulated"))):
    """An instance with n <= 10 and d in 1..4, general or role-constrained,
    its departures fixed (the deadline or explicit offsets), geometric(1/2)
    or tabulated, and a run seed."""
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = random_constrained_bipartite if draw(constrained) else random_instance
    instance = make(rng, n, d)
    source = draw(sources)
    if source == "offsets":
        offsets = draw(st.lists(st.integers(0, d + 2), min_size=n, max_size=n))
        instance = replace(instance, departures=tuple(offsets))
    elif source == "geometric":
        instance = replace(instance, departure_model=geometric(F(1, 2)))
    elif source == "tabulated":
        support = draw(st.lists(st.integers(0, d + 2), min_size=1, max_size=3, unique=True))
        instance = replace(instance, departure_model=tabulated(
            {t: F(1, len(support)) for t in support}))
    return instance, draw(st.integers(0, 3))


def reads_by_formula(view, v):
    """`weight(u, v)` for each arrived u other than v where it is positive,
    ascending."""
    return {u: w for u in range(1, view.n + 1)
            if u != v and view.has_arrived(u) and (w := view.weight(u, v)) > 0}


def audit_live_weights(view):
    for v in range(1, view.n + 1):
        if not view.has_arrived(v):
            with pytest.raises(LookupError):
                view.live_weights(v)
            continue
        got, want = view.live_weights(v), reads_by_formula(view, v)
        assert got == want and list(got) == list(want), (view.now, v, got, want)


def outcome(instance, policy, seed, audit=False):
    """The run's result and log, with pg's duals, or the refusal's text;
    with `audit`, the view's reads are checked before every hook."""
    if audit:
        def audited(hook):
            def run(v):
                audit_live_weights(policy.view)
                return hook(v)
            return run

        policy.on_arrival = audited(policy.on_arrival)
        policy.on_critical = audited(policy.on_critical)
    try:
        result = engine.simulate(instance, policy, seed=seed)
    except ValueError as exc:
        return ("refused", str(exc))
    record = (result, policy.log)
    if isinstance(policy, PostponedGreedy):
        record += (policy.dual_vector(), policy.price_margin_sums())
    return record


@PROPERTY
@given(runs(), st.integers(0, 2))
def test_own_edge_reads_run_as_the_pairwise_weights(run, lookahead):
    # pg under a lookahead too: a live edge may then reach a closed seller copy
    instance, seed = run
    for library, pairwise in ((PostponedGreedy, PairwisePostponedGreedy),
                              (BatchingPolicy, PairwiseBatching)):
        outcomes = []
        for policy in (library(), pairwise()):
            policy.lookahead = lookahead
            outcomes.append(outcome(instance, policy, seed, audit=type(policy) is library))
        assert outcomes[0] == outcomes[1]


def histories(policy):
    """The dda records a caller reads, with the histories' key order."""
    return (policy.price_history, policy.margin_history, list(policy.price_history),
            list(policy.margin_history), policy.initial_margin, policy.final_price,
            policy.final_margin, policy.conservation_sums())


def step(policy, event):
    try:
        return engine._step(policy, *event)
    except ValueError as exc:
        return ("refused", str(exc))


@PROPERTY
@given(runs(constrained=st.just(True),
            sources=st.sampled_from(("deadline", "offsets", "geometric"))))
def test_dda_histories_expand_to_the_snapshots(run):
    # both policies step the same schedule, as `world_after` in test_engine
    # does, and are read after every event: a read before a vertex leaves
    # the market sees its open-ended series
    instance, seed = run
    offsets = engine.realized_departures(instance, seed)
    policies = (DynamicDeferredAcceptance(), SnapshotDDA())
    for policy in policies:
        policy.reset(engine.MarketView(instance, offsets, 0), engine.BitStream(seed))
    schedule = engine.event_schedule(policies[0].view._windows)
    for event in schedule:
        emitted = [step(policy, event) for policy in policies]
        assert emitted[0] == emitted[1]
        if emitted[0] and emitted[0][0] == "refused":
            break
        assert histories(policies[0]) == histories(policies[1]), event
        for series in policies[0].price_history.values():
            assert all(a <= b for a, b in zip(series, series[1:]))
    assert outcome(instance, DynamicDeferredAcceptance(), seed) == outcome(
        instance, SnapshotDDA(), seed)
