"""Property tests for the bandwidth DP behind the offline optima.

The subset DP (`max_weight_matching_exact` / `max_weight_matching_value`) is
the reference: on every input the bandwidth DP must return the same value
and the same tie-broken pairs. networkx's blossom algorithm gives a second,
independent check of the value beyond the subset DP's size cap.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, OnlineInstance, WeightedGraph,
                               arrival_window_matching_value,
                               build_online_graph, geometric,
                               max_weight_matching_exact,
                               max_weight_matching_value, multiply,
                               offline_optimum, path_power,
                               realized_offline_optimum, realized_online_graph,
                               sample_departures)

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
