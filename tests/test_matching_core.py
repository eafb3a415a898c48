"""Property tests for the bandwidth DP, the package's one matching DP.

The subset DP in `tests/oracles.py` (`max_weight_matching_exact` /
`max_weight_matching_value` there) is the reference: on every input the
bandwidth DP, whether on a deadline band, a batch or a general graph as a
full band, must return the same value and the same tie-broken pairs.
networkx's blossom algorithm gives a second, independent check of the value
beyond the subset DP's size cap.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, OnlineInstance, WeightedGraph,
                               arrival_window_matching_value,
                               batched_matching_value, build_online_graph,
                               geometric, offline, offline_optimum,
                               realized_offline_optimum, realized_online_graph,
                               sample_departures)
from oracles import (max_weight_matching_exact, max_weight_matching_value,
                     multiply, path_power)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

any_weight = st.builds(F, st.integers(1, 16), st.sampled_from([1, 2, 3, 4, 8]))


@st.composite
def instances(draw, weight=any_weight):
    """A random instance with n <= 14, d in 0..4, a random order and a
    realized geometric(1/2) departure draw."""
    n = draw(st.integers(0, 14))
    d = draw(st.integers(0, 4))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = {(i, j): draw(weight)
               for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if rng.random() < density}
    slots = tuple(draw(st.permutations(range(1, n + 1))))
    instance = OnlineInstance(WeightedGraph(n, weights), ArrivalOrder(slots), d)
    departures = sample_departures(geometric(F(1, 2)), n, rng.getrandbits(32))
    return instance, departures


def assert_same_matching(fast, reference):
    assert fast.weight == reference.weight
    assert fast.sorted_pairs() == reference.sorted_pairs()


def check_against_subset_dp(instance, departures):
    assert_same_matching(offline_optimum(instance),
                         max_weight_matching_exact(build_online_graph(instance)))
    assert_same_matching(
        realized_offline_optimum(instance, departures),
        max_weight_matching_exact(realized_online_graph(instance, departures)))
    slots, n, d = instance.order.slots, instance.n, instance.deadline
    masked = multiply(instance.graph, path_power(slots, n, d))
    assert (arrival_window_matching_value(instance.graph, slots, d)
            == max_weight_matching_value(masked))


@PROPERTY
@given(instances())
def test_bandwidth_dp_equals_subset_dp(case):
    check_against_subset_dp(*case)


@PROPERTY
@given(instances(weight=st.just(F(1))))
def test_bandwidth_dp_equals_subset_dp_when_all_weights_tie(case):
    check_against_subset_dp(*case)


@PROPERTY
@given(instances())
def test_full_band_equals_subset_dp_on_general_graphs(case):
    graph = case[0].graph
    assert_same_matching(offline.max_weight_matching_exact(graph),
                         max_weight_matching_exact(graph))


@PROPERTY
@given(instances(weight=st.just(F(1))))
def test_full_band_equals_subset_dp_on_general_graphs_when_all_weights_tie(case):
    graph = case[0].graph
    assert_same_matching(offline.max_weight_matching_exact(graph),
                         max_weight_matching_exact(graph))


@st.composite
def foreign_denominator_instances(draw):
    """n >= d + 2 with weight denominators 1, 3, 5, 7, 8, plus one edge of
    denominator 11 between the first and the last arrival: outside the
    window and the batches, so the graph-wide scale is 11 times the LCM of
    every window's or batch's own weights."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(d + 2, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    slots = tuple(draw(st.permutations(range(1, n + 1))))
    first, last = slots.index(1) + 1, slots.index(n) + 1
    weights = {(i, j): F(rng.randint(1, 30), rng.choice([1, 3, 5, 7, 8]))
               for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if rng.random() < 0.7 and {i, j} != {first, last}}
    weights[min(first, last), max(first, last)] = F(rng.choice([1, 2, 3, 12, 29]), 11)
    return OnlineInstance(WeightedGraph(n, weights), ArrivalOrder(slots), d)


def induced(graph, vertices):
    """A new graph holding only the edges of `graph` inside `vertices`."""
    return WeightedGraph(graph.n, {e: w for e, w in graph.weights.items()
                                   if e[0] in vertices and e[1] in vertices})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(foreign_denominator_instances())
def test_graph_wide_scale_keeps_values_and_tie_breaks(instance):
    graph, slots, n, d = instance.graph, instance.order.slots, instance.n, instance.deadline
    ints, scale = graph.scaled
    assert scale == lcm(*(w.denominator for w in graph.weights.values()))
    assert scale % 11 == 0
    assert all(F(ints[e], scale) == w for e, w in graph.weights.items())

    masked = multiply(graph, path_power(slots, n, d))
    assert masked.scaled[1] % 11 != 0
    assert arrival_window_matching_value(graph, slots, d) == max_weight_matching_value(masked)

    order = sorted(range(1, n + 1), key=lambda v: slots[v - 1])
    batches = [order[k:k + d + 1] for k in range(0, n, d + 1)]
    assert (batched_matching_value(graph, slots, d)
            == sum((max_weight_matching_value(induced(graph, b)) for b in batches), F(0)))

    assert_same_matching(offline_optimum(instance),
                         max_weight_matching_exact(build_online_graph(instance)))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(foreign_denominator_instances())
def test_derived_graphs_build_their_own_table(instance):
    graph = instance.graph
    table, scale = graph.scaled
    assert graph.scaled is graph.scaled  # cached on the graph
    live = instance.windows().subgraph(graph)
    assert live.scaled is not graph.scaled
    assert live.scaled[1] % 11 != 0
    assert live.scaled[0] == {e: table[e] * live.scaled[1] // scale for e in live.weights}
    halved = replace(graph, weights={e: w / 2 for e, w in graph.weights.items()})
    ints, half_scale = halved.scaled
    assert half_scale == lcm(*(w.denominator for w in halved.weights.values()))
    assert all(F(ints[e], half_scale) == w / 2 for e, w in graph.weights.items())
    same = replace(graph)
    assert same.scaled == graph.scaled and same.scaled[0] is not table


def test_repeated_vertices_count_once():
    graph = WeightedGraph(3, {(1, 2): F(1, 3), (2, 3): F(1)})
    assert max_weight_matching_value(graph, [3, 1, 2, 3, 1, 2]) == 1


def test_value_matches_networkx_beyond_the_subset_cap():
    nx = pytest.importorskip("networkx")
    rng = random.Random(21)
    for _ in range(30):
        n, d = rng.randint(2, 60), rng.randint(0, 4)
        scale = 24  # common denominator of the weights drawn below
        weights = {(i, j): F(rng.randint(1, 16), rng.choice([1, 2, 3, 4, 8]))
                   for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   if rng.random() < 0.5}
        slots = list(range(1, n + 1))
        rng.shuffle(slots)
        instance = OnlineInstance(WeightedGraph(n, weights), ArrivalOrder(tuple(slots)), d)
        live = build_online_graph(instance)
        g = nx.Graph()
        for i, j, w in live.edges():
            g.add_edge(i, j, weight=int(w * scale))
        blossom = sum(g[i][j]["weight"] for i, j in nx.max_weight_matching(g))
        assert offline_optimum(instance).weight * scale == blossom
