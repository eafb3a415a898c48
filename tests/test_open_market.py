"""The open market stated once: naive-greedy's bid against its role-map
reference, and the view's departed rule against the written-out one.

Naive-greedy keeps no roles: a buyer bids on its live edges and
`_BestMarginBids._bid` takes only the open sellers. `oracles.
RoleMapNaiveGreedy` keeps the role map its coins write and bids on its
reveals of present sellers; both must give the same runs, logs and exact
expectations under every source of departure offsets and lookahead. The
view keeps only its arrived and matched sets, so `has_departed` and
`alive()` are checked against the rule written out from slots and offsets
at every event of every spec, in the view and in a copy of it.
"""

import dataclasses
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (deterministic, exact_expectation, geometric, make_policy,
                               simulate, tabulated)
from deadline_matching.engine import realized_departures
from deadline_matching.policies import POLICY_FACTORIES, NaiveGreedy
from helpers import random_constrained_bipartite, random_instance
from oracles import RoleMapNaiveGreedy

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FIXED = ("deadline", "deterministic", "explicit")  # sources exact_expectation takes


@st.composite
def markets(draw):
    """(instance, source): n <= 9, d in 0..4, general or role-constrained,
    with offsets from the deadline, a deterministic(k) model, explicit
    offsets, geometric(1/2) or a tabulated model."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = random_constrained_bipartite if draw(st.booleans()) else random_instance
    instance = make(rng, n, d)
    source = draw(st.sampled_from((*FIXED, "geometric", "tabulated")))
    if source == "deterministic":
        instance = dataclasses.replace(
            instance, departure_model=deterministic(draw(st.integers(0, 6))))
    elif source == "explicit":
        instance = dataclasses.replace(instance, departures=tuple(
            draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))))
    elif source == "geometric":
        instance = dataclasses.replace(instance, departure_model=geometric(F(1, 2)))
    elif source == "tabulated":
        support = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
        masses = draw(st.lists(st.integers(1, 4), min_size=len(support),
                               max_size=len(support)))
        instance = dataclasses.replace(instance, departure_model=tabulated(
            {t: F(m, sum(masses)) for t, m in zip(support, masses)}))
    return instance, source


def outcome(fn, *args):
    """What a call gives: its value, or its error's type and text."""
    try:
        return fn(*args)
    except Exception as exc:  # every refusal is part of the behaviour
        return f"{type(exc).__name__}: {exc}"


def with_lookahead(policy, lookahead):
    policy.lookahead = lookahead
    return policy


@PROPERTY
@given(markets(), st.integers(0, 2), st.integers(0, 3))
def test_naive_greedy_bids_as_its_role_map_reference(market, lookahead, seed):
    instance, source = market
    runs = []
    for factory in (NaiveGreedy, RoleMapNaiveGreedy):
        policy = with_lookahead(factory(), lookahead)
        runs.append((outcome(simulate, instance, policy, seed), policy.log))
    assert runs[0] == runs[1]
    if source in FIXED:
        assert (outcome(exact_expectation, instance, with_lookahead(NaiveGreedy(), lookahead))
                == outcome(exact_expectation, instance,
                           with_lookahead(RoleMapNaiveGreedy(), lookahead)))


def departed_by_formula(view, v, critical, lookahead):
    """Arrived, and critical time plus lookahead below now: no pair can use
    v at any tick >= now."""
    return view.has_arrived(v) and critical[v - 1] + lookahead < view.now


@PROPERTY
@given(markets(), st.sampled_from((*POLICY_FACTORIES, "batching:1")), st.integers(0, 2),
       st.integers(0, 3))
def test_departed_and_alive_follow_the_written_out_rule(market, spec, lookahead, seed):
    instance, _ = market
    slot, offsets = instance.order.slot_of, realized_departures(instance, seed)
    critical = [slot(v) + offsets[v - 1] for v in instance.graph.vertices()]
    policy = make_policy(spec)
    if spec != "batching:1":
        policy.lookahead = lookahead
    lookahead, audited = policy.lookahead, []

    def agrees(view):
        departed = [v for v in instance.graph.vertices()
                    if departed_by_formula(view, v, critical, lookahead)]
        assert [v for v in instance.graph.vertices() if view.has_departed(v)] == departed
        assert view.alive() == [v for v in instance.graph.vertices()
                                if view.has_arrived(v) and v not in departed]

    def audit(hook):
        def run(v):
            agrees(policy.view)
            agrees(policy.view.clone())
            audited.append(v)
            return hook(v)
        return run

    policy.on_arrival = audit(policy.on_arrival)
    policy.on_critical = audit(policy.on_critical)
    try:
        simulate(instance, policy, seed=seed)
    except ValueError:  # a refused input: the events audited so far still count
        return
    assert len(audited) == 2 * instance.n
