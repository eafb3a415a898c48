"""One presence rule and one schedule per (instance, offsets, lookahead).

`OnlineInstance.windows` keeps the last rule it built and `event_schedule`
the last schedule, one entry each, and hand the same objects to every
caller that asks for that key in turn. These tests check that a kept rule
is the one a fresh build gives, that runs, exact expectations, leaf
enumerations and dual checks on an instance whose rule is kept equal the
same calls on fresh copies, that the memo holds at most one instance, that
the shared rule refuses a lookahead below 0 or a bool, and that it checks
offsets as an instance's own when it is built, never letting a kept rule
stand for offsets that a build refuses. The dual check
itself is compared with `oracles.verify_offline_dual`, which coerces every
dual to a Fraction and walks every edge.
"""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, OnlineInstance, WeightedGraph, engine,
                               enumerate_branches, exact_expectation, geometric, graphs,
                               make_policy, sample_departures, simulate,
                               validate_matching, verify_offline_dual)
from deadline_matching.graphs import PresenceWindows
from deadline_matching.policies import BatchingPolicy
from helpers import random_constrained_bipartite, random_instance, random_order
import oracles

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SPECS = ("greedy", "naive-greedy", "pg", "dda", "batching", "batching:1", "batching:2", "patient")


def outcome(fn, *args):
    """What a call gives: its value, or its error's type and text."""
    try:
        return fn(*args)
    except Exception as exc:  # every refusal is part of the behaviour
        return f"{type(exc).__name__}: {exc}"


def fresh(instance):
    """An equal instance that is another object, so the memo misses it."""
    return dataclasses.replace(instance)


def schedule_by_formula(rule):
    """Each vertex's arrival at its slot and critical event at slot +
    offset, sorted: arrivals first at a tick, lower vertex first."""
    events = [(s, "arrival", v) for v, s in enumerate(rule.slots, start=1)]
    events += [(s + t, "critical", v)
               for v, (s, t) in enumerate(zip(rule.slots, rule.offsets), start=1)]
    return tuple(sorted(events))


@st.composite
def pools(draw):
    """Instances that share a graph: one, an equal but distinct copy, a
    `with_order` copy on the same order and one on another order."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_instance(rng, n, d)
    twin = OnlineInstance(WeightedGraph(n, dict(base.graph.weights)),
                          ArrivalOrder(base.order.slots), d)
    return [base, twin, base.with_order(base.order), base.with_order(random_order(rng, n))]


def offsets_of(instance, source, seed):
    """Offsets given as None, as the deadline tuple, as a geometric(1/2)
    draw, or as that draw in a list."""
    if source == "none":
        return None
    if source == "deadline":
        return (instance.deadline,) * instance.n
    draw = sample_departures(geometric(F(1, 2)), instance.n, seed)
    return draw if source == "draw" else list(draw)


@PROPERTY
@given(pools(), st.lists(st.tuples(st.integers(0, 3),
                                   st.sampled_from(("none", "deadline", "draw", "list")),
                                   st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=12))
def test_each_kept_rule_is_a_fresh_build(pool, calls):
    for k, source, lookahead, seed in calls:
        instance = pool[k]
        offsets = offsets_of(instance, source, seed)
        rule = instance.windows(offsets, lookahead)
        built = PresenceWindows(instance.order.slots, instance.deadline, offsets, lookahead)
        assert (rule.slots, rule.offsets, rule.lookahead, rule.reach, rule.critical) == \
            (built.slots, built.offsets, built.lookahead, built.reach, built.critical)
        assert instance.windows(offsets, lookahead) is rule  # asked again in turn: shared
        schedule = engine.event_schedule(rule)
        assert schedule == schedule_by_formula(built)
        assert engine.event_schedule(rule) is schedule


@st.composite
def sourced_instances(draw):
    """2 <= n <= 7, d in 0..3, general or role-constrained, with offsets from
    the deadline, explicit offsets or geometric(1/2)."""
    n, d = draw(st.integers(2, 7)), draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = random_constrained_bipartite if draw(st.booleans()) else random_instance
    instance = make(rng, n, d)
    source = draw(st.sampled_from(("deadline", "explicit", "geometric")))
    if source == "explicit":
        instance = dataclasses.replace(instance, departures=tuple(
            draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))))
    elif source == "geometric":
        instance = dataclasses.replace(instance, departure_model=geometric(F(1, 2)))
    return instance


@PROPERTY
@given(sourced_instances(), st.lists(st.tuples(st.sampled_from(SPECS), st.integers(0, 3)),
                                     min_size=1, max_size=6))
def test_calls_on_a_kept_rule_equal_calls_on_fresh_copies(instance, calls):
    for spec, seed in calls:
        for call in (lambda i: simulate(i, make_policy(spec), seed),
                     lambda i: exact_expectation(i, make_policy(spec)),
                     lambda i: list(enumerate_branches(i, make_policy(spec)))):
            kept = outcome(call, instance)
            assert outcome(call, instance) == kept  # the rule is kept by now
            assert outcome(call, fresh(instance)) == kept
    if instance.departure_model is not None:
        return  # no leaf enumeration, so no duals to check
    opt = sum(instance.graph.weights.values(), F(0)) / 2
    policy = make_policy("pg")
    for _, _ in enumerate_branches(instance, policy):
        duals = policy.dual_vector()
        report = verify_offline_dual(instance, duals, opt)
        assert verify_offline_dual(instance, duals, opt) == report
        assert verify_offline_dual(fresh(instance), duals, opt) == report


def test_the_memo_keeps_at_most_one_instance_and_one_rule():
    instances, rules = [], []
    for k in range(6):
        instance = random_instance(random.Random(k), 5, 2)
        instances.append(weakref.ref(instance))
        rules.append(weakref.ref(instance.windows()))
        simulate(instance, make_policy("pg"))
        exact_expectation(instance, make_policy("naive-greedy"))
        verify_offline_dual(instance, {})
        rules.append(weakref.ref(instance.windows((1,) * 5, 1)))
        engine.event_schedule(instance.windows((1,) * 5, 1))
        del instance
    gc.collect()
    assert sum(ref() is not None for ref in instances) <= 1
    assert sum(ref() is not None for ref in rules) <= 1


def test_a_lookahead_below_zero_or_a_bool_is_refused():
    # vertex 1 is critical at 2, so tick 2 is valid under lookahead 0
    instance = OnlineInstance(WeightedGraph(2, {(1, 2): F(1)}), ArrivalOrder.identity(2), 1)
    assert validate_matching(instance, {(1, 2)}, {(1, 2): 2}) is None
    for bad in (-1, -3, True, False):
        with pytest.raises(ValueError, match=r"^lookahead must be >= 0$"):
            validate_matching(instance, {(1, 2)}, {(1, 2): 2}, lookahead=bad)
        with pytest.raises(ValueError, match=r"^lookahead must be >= 0$"):
            PresenceWindows((1, 2), 1, None, bad)
    for good, bad in ((1, True), (0, False)):
        instance.windows(None, good)  # a kept rule of an equal value lets no bool through
        with pytest.raises(ValueError, match=r"^lookahead must be >= 0$"):
            instance.windows(None, bad)
    with pytest.raises(ValueError, match=r"^lookahead must be >= 0$"):
        simulate(instance, BatchingPolicy(True))


def test_batching_refuses_a_bool_lookahead_as_it_is_built():
    for bad in (-1, True, False):
        with pytest.raises(ValueError, match=r"^lookahead must be >= 0$"):
            BatchingPolicy(bad)
    assert BatchingPolicy().name == "batching" and BatchingPolicy(2).name == "batching:2"


def test_offsets_are_refused_where_the_rule_is_built():
    """Every caller that passes offsets meets an instance's own refusal."""
    graph = WeightedGraph(3, {(1, 2): F(5), (2, 3): F(4)})
    instance = OnlineInstance(graph, ArrivalOrder.identity(3), 2)
    for offsets in ((1,), (1, 1, 1, 1), (-2, 5, 1), (0.5, 1, 1), (True, 1, 1)):
        with pytest.raises((TypeError, ValueError)) as refused:
            OnlineInstance(graph, ArrivalOrder.identity(3), 2, departures=offsets)
        for build in (instance.windows, lambda o: engine.MarketView(instance, o, 0)):
            with pytest.raises(refused.type) as raised:
                build(offsets)
            assert str(raised.value) == str(refused.value)
    assert instance.windows(("1", 0, 2)).critical == [2, 2, 5]


def test_only_the_kept_key_or_the_deadline_tuple_skips_the_check(monkeypatch):
    """A run on the deadline and the kept key itself pay no check; any
    other offsets are checked, so an equal tuple that holds a bool, a float
    or a Fraction is refused although it equals the kept key."""
    instances = [OnlineInstance(WeightedGraph(3, {}), ArrivalOrder.identity(3), d)
                 for d in (1, 2)]
    checked = []
    check = graphs.checked_offsets
    monkeypatch.setattr(graphs, "checked_offsets",
                        lambda offsets, n: checked.append(offsets) or check(offsets, n))
    for instance in instances:
        d = instance.deadline
        rule = instance.windows()
        assert instance.windows(engine.realized_departures(instance, 0)) is rule
        assert rule.offsets == (d,) * 3 and checked == []
        assert instance.windows([d] * 3) is rule and len(checked) == 1  # equal: checked, kept
        given = (1, 0, 1)
        kept = instance.windows(given)
        assert kept.offsets is given and instance.windows(given) is kept
        assert instance.windows(list(given)) is kept and len(checked) == 3
        for equal in ((True, 0, 1), (1, False, 1), (1.0, 0, 1), (F(1), 0, 1),
                      (d, float(d), d), (F(d), d, d), (True,) * 3 if d == 1 else (d, 2.0, d)):
            with pytest.raises(TypeError, match="^cannot interpret"):
                instance.windows(equal)
        checked.clear()
    key = instances[0].windows((1, 0, 1)).offsets  # the kept key itself, for n = 3
    other = OnlineInstance(WeightedGraph(4, {}), ArrivalOrder.identity(4), 1)
    with pytest.raises(ValueError, match="^departures must list one offset per vertex$"):
        other.windows(key)


def test_runs_on_the_deadline_hand_the_rule_one_tuple():
    instance = random_instance(random.Random(5), 6, 2)
    offsets = engine.realized_departures(instance, 0)
    assert offsets == (2,) * 6 and engine.realized_departures(instance, 1) is offsets
    rule = instance.windows()
    assert rule.offsets is offsets and instance.windows(offsets) is rule


@st.composite
def dual_cases(draw):
    """(instance, duals, claimed primal): each dual is an int, a Fraction, a
    "num/den" string, zero or absent, near half the vertex's largest
    weight, and the claimed primal falls above, at or below their sum, as
    an int or a Fraction, or is not given."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = random_constrained_bipartite if draw(st.booleans()) else random_instance
    instance = make(rng, n, d)
    edges = list(instance.graph.weights.items())
    rng.shuffle(edges)  # the weight table's own order is not the edges' order
    instance = dataclasses.replace(instance, graph=WeightedGraph(n, dict(edges)))
    duals, total = {}, F(0)
    for v in instance.graph.vertices():
        heaviest = max((w for e, w in instance.graph.weights.items() if v in e), default=F(0))
        value = heaviest / 2 + F(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 3, 8))))
        value = max(value, F(0))
        kind = draw(st.sampled_from(("int", "fraction", "string", "zero", "absent")))
        if kind == "int":
            value = F(int(value))
            duals[v] = int(value)
        elif kind == "fraction":
            duals[v] = value
        elif kind == "string":
            duals[v] = f"{value.numerator}/{value.denominator}"
        elif kind == "zero":
            value = F(0)
            duals[v] = draw(st.sampled_from((0, F(0), "0/1", "0")))
        else:
            value = F(0)
        total += value
    claimed = draw(st.sampled_from(("none", "above", "at", "below")))
    if claimed == "none":
        return instance, duals, None
    primal = total + {"above": F(1, 7), "at": F(0), "below": F(-1, 3)}[claimed]
    if draw(st.booleans()) and primal.denominator == 1:
        primal = int(primal)
    return instance, duals, primal


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dual_cases())
def test_dual_check_equals_the_fraction_oracle(case):
    instance, duals, claimed = case
    report = verify_offline_dual(instance, duals, claimed)
    assert report == oracles.verify_offline_dual(instance, duals, claimed)
    assert str(report) == str(oracles.verify_offline_dual(instance, duals, claimed))
    assert type(report.total) is F
    assert all(type(short) is F for _, short in report.violations)


@pytest.mark.parametrize("bad", [-1, F(-1, 2), "-3/4", True, False, "abc", "1/0", 0.5,
                                 None, "1e99999"])
def test_dual_check_refuses_as_the_fraction_oracle(bad):
    instance = random_instance(random.Random(5), 4, 2)
    duals = {1: F(1, 2), 3: bad}
    got = outcome(verify_offline_dual, instance, duals)
    assert isinstance(got, str)
    assert got == outcome(oracles.verify_offline_dual, instance, duals)
