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
from helpers import rows_of
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
    rows, scale = graph.rows, graph.scale
    assert scale == lcm(*(w.denominator for w in graph.weights.values()))
    assert scale % 11 == 0
    assert all(F(rows[i][j], scale) == w for (i, j), w in graph.weights.items())

    masked = multiply(graph, path_power(slots, n, d))
    assert masked.scale % 11 != 0
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
    rows, scale = graph.rows, graph.scale
    assert graph.rows is rows and vars(graph)["scale"] == scale  # both kept with the graph
    live = instance.windows().subgraph(graph)
    assert live.rows is not rows
    assert live.scale % 11 != 0
    assert ({(u, v): w for u, row in enumerate(live.rows) for v, w in row.items() if u < v}
            == {(u, v): rows[u][v] * live.scale // scale for u, v in live.weights})
    halved = replace(graph, weights={e: w / 2 for e, w in graph.weights.items()})
    half_rows, half_scale = halved.rows, halved.scale
    assert half_scale == lcm(*(w.denominator for w in halved.weights.values()))
    assert all(F(half_rows[i][j], half_scale) == w / 2 for (i, j), w in graph.weights.items())
    same = replace(graph)
    assert same.rows == rows and same.rows is not rows and same.scale == scale


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


def with_deadline_one(case):
    instance, departures = case
    return replace(instance, deadline=1), departures


@PROPERTY
@given(instances().map(with_deadline_one))
def test_band_one_recurrence_equals_subset_dp(case):
    check_against_subset_dp(*case)


@PROPERTY
@given(instances(weight=st.just(F(1))).map(with_deadline_one))
def test_band_one_recurrence_equals_subset_dp_when_all_weights_tie(case):
    check_against_subset_dp(*case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(u=st.integers(1, 6), v=st.integers(1, 6), d=st.integers(2, 30),
       weight=st.one_of(st.none(), st.integers(1, 50)), reach=st.integers(0, 3))
def test_two_vertices_give_the_pair_or_nothing(u, v, d, weight, reach):
    if u == v:
        v = u % 6 + 1
    pair = (min(u, v), max(u, v))
    rows = rows_of(6, {} if weight is None else {pair: weight})
    reaches = [reach] * 6
    expected = (weight, [pair]) if weight is not None and reach >= 1 else (0, [])
    assert offline.band_matching(rows, [u, v], d, reaches) == expected
    assert offline.band_matching(rows, [u, v], d) == ((weight, [pair]) if weight else (0, []))


@PROPERTY
@given(instances())
def test_batched_value_equals_the_per_batch_subset_dp(case):
    # n in 0..14 and d in 0..4: most draws end in a short last batch
    instance = case[0]
    graph, slots, n, d = instance.graph, instance.order.slots, instance.n, instance.deadline
    by_slot = sorted(range(1, n + 1), key=lambda v: slots[v - 1])
    batches = [by_slot[k:k + d + 1] for k in range(0, n, d + 1)]
    assert (batched_matching_value(graph, slots, d)
            == sum((max_weight_matching_value(graph, b) for b in batches), F(0)))


class ReadsRow(dict):
    """One vertex's row that records, in a set it shares with the other
    rows, how `_band_dp` reads it: listing its items (the set-up that walks
    the participants' rows) or probing one entry (the set-up that walks the
    band's position pairs)."""

    def __init__(self, row, reads):
        super().__init__(row)
        self.reads = reads

    def items(self):
        self.reads.add("items")
        return super().items()

    def get(self, *args):
        self.reads.add("get")
        return super().get(*args)


def recording_rows(n, table):
    """`rows_of(n, table)` as `ReadsRow`s, with the set they record into."""
    reads = set()
    return [ReadsRow(row, reads) for row in rows_of(n, table)], reads


def live_by_position(ints, order, d, reach):
    """The edges of `ints` that the band DP counts over `order`, written
    out: both endpoints in `order`, at most d positions apart and, when
    `reach` is given, the earlier one u reaching the later: gap <= reach[u - 1]."""
    at = {v: s for s, v in enumerate(order)}
    live = {}
    for (u, v), w in ints.items():
        if u in at and v in at:
            gap, first = abs(at[u] - at[v]), min(u, v, key=at.get)
            if gap <= d and (reach is None or gap <= reach[first - 1]):
                live[u, v] = w
    return live


def participant_degrees(n, table, order):
    """How many row entries the participants in `order` hold: each edge of
    `table` counts once per endpoint in `order`."""
    members = set(order)
    return sum((u in members) + (v in members) for u, v in table)


@st.composite
def band_tables(draw):
    """Integer weights on 1..n and an order of k >= 3 of the vertices, all
    of them or the first run of an arrival order, as a batch over a larger
    graph, with a band of at least 2 and maybe reaches. The table is banded
    along the order, dense over all n vertices, or as large as the
    participants' rows can be while they hold exactly the band's position
    pairs or one entry short of that."""
    n = draw(st.integers(3, 12))
    k = draw(st.integers(3, n))
    order = tuple(draw(st.permutations(range(1, n + 1)))[:k])
    d = draw(st.integers(2, 5))
    band = min(d, k - 1)
    position_pairs = band * k - band * (band + 1) // 2
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    every_pair = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    shape = draw(st.sampled_from(("banded", "dense", "exact", "one short")))
    if shape == "banded":
        edges = [tuple(sorted((order[s], order[t]))) for s in range(k)
                 for t in range(s + 1, min(k, s + band + 1)) if rng.random() < 0.6]
    elif shape == "dense":
        edges = [e for e in every_pair if rng.random() < 0.8]
    else:
        target, edges = position_pairs - (shape == "one short"), []
        for e in rng.sample(every_pair, len(every_pair)):
            if participant_degrees(n, [*edges, e], order) <= target:
                edges.append(e)
    ties = draw(st.booleans())
    ints = {e: 1 if ties else rng.randint(1, 6) for e in edges}
    reach = [rng.randint(0, d) for _ in range(n)] if draw(st.booleans()) else None
    return n, ints, order, d, reach


@PROPERTY
@given(band_tables())
def test_band_dp_set_up_equals_subset_dp_on_both_sides_of_the_switch(case):
    n, ints, order, d, reach = case
    live = live_by_position(ints, order, d, reach)
    reference = max_weight_matching_exact(WeightedGraph(n, {e: F(w) for e, w in live.items()}))
    band = min(d, len(order) - 1)
    by_rows = participant_degrees(n, ints, order) < band * len(order) - band * (band + 1) // 2
    (value_only, value_reads), (tie_broken, tie_reads) = (recording_rows(n, ints),
                                                          recording_rows(n, ints))
    assert offline._band_dp(value_only, order, d, reach) == reference.weight
    assert (offline.band_matching(tie_broken, order, d, reach)
            == (reference.weight, list(reference.sorted_pairs())))
    assert value_reads == tie_reads == ({"items"} if by_rows else {"get"})


def test_a_few_members_of_a_large_graph_walk_their_rows():
    """The switch reads the participants' rows, not the graph's size: four
    members with five row entries, against six position pairs at band 3,
    walk their rows inside a graph of over 200 edges, one of them leaving
    the batch."""
    n = 220
    table = {(i, i + 1): 1 + i % 5 for i in range(10, n)}
    table.update({(1, 3): 5, (2, 4): 7, (4, 100): 3})
    order = (3, 1, 4, 2)
    live = live_by_position(table, order, 3, None)
    assert live == {(1, 3): 5, (2, 4): 7}
    rows, reads = recording_rows(n, table)
    assert offline._band_dp(rows, order, 3) == 12
    assert offline.band_matching(rows, order, 3) == (12, [(1, 3), (2, 4)])
    assert reads == {"items"}
