import dataclasses
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, InstanceFormatError, Matching,
                               OnlineInstance, OnlinePolicy, WeightedGraph,
                               build_online_graph, instance_from_json,
                               instance_to_json, load_instance,
                               matching_weight, save_instance, simulate,
                               validate_matching)
from deadline_matching.departures import deterministic, geometric, tabulated
from deadline_matching.graphs import MAX_JSON_DEPTH, read_json
from helpers import random_instance
from oracles import integer_weights


def fig1_instance(y=F(2)):
    graph = WeightedGraph(3, {(1, 2): F(1), (2, 3): y})
    return OnlineInstance(graph, ArrivalOrder.identity(3), 1)


class TestWeightedGraph:
    def test_symmetry_and_default_zero(self):
        g = WeightedGraph(4, {(3, 1): F(5, 2)})
        assert g.weight(1, 3) == F(5, 2)
        assert g.weight(3, 1) == F(5, 2)
        assert g.weight(1, 2) == 0

    def test_rejects_self_loops_and_negative(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, {(2, 2): F(1)})
        with pytest.raises(ValueError):
            WeightedGraph(3, {(1, 2): F(-1)})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, {(1, 4): F(1)})


def adjacency_from_weights(graph):
    """Each vertex's (neighbour, weight) pairs, ascending, over the oracles'
    own integer weights (`integer_weights`)."""
    ints, _ = integer_weights(graph)
    return [sorted((b if a == v else a, w) for (a, b), w in ints.items() if v in (a, b))
            for v in range(graph.n + 1)]


class TestRows:
    def test_built_once_from_the_table_symmetric_and_ascending(self):
        rng = random.Random(32)
        for _ in range(40):
            drawn = random_instance(rng, rng.randint(0, 9), 2).graph
            edges = list(drawn.weights.items())
            rng.shuffle(edges)  # the table's order is not the rows'
            graph = WeightedGraph(drawn.n, dict(edges))
            assert "rows" not in vars(graph)  # built on first read
            rows = graph.rows
            assert graph.rows is rows  # cached on the graph
            assert graph.scale == integer_weights(graph)[1]
            assert len(rows) == graph.n + 1 and rows[0] == {}
            assert all(rows[v][u] == w for u, row in enumerate(rows) for v, w in row.items())
            assert [list(row.items()) for row in rows] == adjacency_from_weights(graph)

    def test_derived_graphs_build_their_own(self):
        graph = WeightedGraph(4, {(1, 2): F(1, 2), (1, 4): F(3), (2, 3): F(2, 3)})
        rows = graph.rows
        assert graph.scale == 6
        assert rows == ({}, {2: 3, 4: 18}, {1: 3, 3: 4}, {2: 4}, {1: 18})
        halved = dataclasses.replace(graph, weights={e: w / 2 for e, w in graph.weights.items()})
        assert halved.rows is not rows and halved.scale == 12
        assert [list(row.items()) for row in halved.rows] == adjacency_from_weights(halved)
        same = dataclasses.replace(graph)
        assert same.rows == rows and same.rows is not rows
        instance = OnlineInstance(graph, ArrivalOrder.identity(4), 1)
        live = instance.windows().subgraph(graph)  # (1, 4) is three slots apart
        assert live.rows == ({}, {2: 3}, {1: 3, 3: 4}, {2: 4}, {})

    def test_an_edgeless_graph_reveals_nothing(self):
        class Reveals(OnlinePolicy):
            def reset(self, view, rng):
                super().reset(view, rng)
                self.seen = []

            def on_arrival(self, v):
                self.seen.append(self.view.revealed_neighbors(v))
                return ()

            on_critical = on_arrival

        policy = Reveals()
        instance = OnlineInstance(WeightedGraph(3, {}), ArrivalOrder((2, 3, 1)), 2)
        simulate(instance, policy)
        assert policy.seen == [{}] * 6
        assert instance.graph.rows == ({}, {}, {}, {}) and instance.graph.scale == 1


class TestArrivalOrder:
    def test_roundtrip(self):
        order = ArrivalOrder((2, 3, 1))
        assert order.slot_of(1) == 2
        assert order.vertex_at(1) == 3
        assert order.vertex_at(2) == 1

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ArrivalOrder((1, 1, 3))


class TestInMemoryIntegers:
    """The constructors refuse floats and booleans, as instance files do,
    instead of truncating them."""

    def test_floats_and_booleans_refused(self):
        graph = WeightedGraph(2, {(1, 2): 1})
        with pytest.raises(TypeError, match="1.9"):
            OnlineInstance(graph, ArrivalOrder((1.9, 2.2)), 1.5, departures=(0.5, True))
        with pytest.raises(TypeError, match="1.5"):
            OnlineInstance(graph, ArrivalOrder((1, 2)), 1.5)
        with pytest.raises(TypeError, match="True"):
            OnlineInstance(graph, ArrivalOrder((1, 2)), True)
        for departures in ((0.5, 1), (0, True)):
            with pytest.raises(TypeError):
                OnlineInstance(graph, ArrivalOrder((1, 2)), 1, departures=departures)

    def test_integers_kept(self):
        inst = OnlineInstance(WeightedGraph(2, {(1, 2): 1}), ArrivalOrder((2, 1)), 1,
                              departures=(0, 3))
        assert inst.order.slots == (2, 1) and inst.deadline == 1
        assert inst.departures == (0, 3)


class TestBuildOnlineGraph:
    def test_two_edge_path_loses_long_edge(self):
        # d = 1 with identity order: no edge between the first and third arrival
        graph = WeightedGraph(3, {(1, 2): F(1), (2, 3): F(7), (1, 3): F(9)})
        inst = OnlineInstance(graph, ArrivalOrder.identity(3), 1)
        masked = build_online_graph(inst)
        assert masked.weight(1, 2) == 1
        assert masked.weight(2, 3) == 7
        assert masked.weight(1, 3) == 0

    def test_loose_deadline_is_identity(self):
        rng = random.Random(0)
        inst = random_instance(rng, 7, 6)
        assert build_online_graph(inst) == inst.graph

    def test_matches_pairwise_filter(self):
        rng = random.Random(1)
        inst = random_instance(rng, 7, 2)
        masked = build_online_graph(inst)
        slot = inst.order.slot_of
        for i in range(1, 8):
            for j in range(i + 1, 8):
                expected = inst.graph.weight(i, j) if abs(slot(i) - slot(j)) <= 2 else F(0)
                assert masked.weight(i, j) == expected

    def test_idempotent(self):
        rng = random.Random(2)
        inst = random_instance(rng, 6, 2)
        once = build_online_graph(inst)
        twice = build_online_graph(OnlineInstance(once, inst.order, inst.deadline))
        assert once == twice


class TestMatchingWeight:
    def test_empty_matching(self):
        assert matching_weight(WeightedGraph(3, {}), frozenset()) == 0

    def test_single_pair(self):
        inst = fig1_instance()
        assert matching_weight(inst.graph, {(1, 2)}) == 1

    def test_equals_term_by_term_sum(self):
        rng = random.Random(3)
        weights = {(i, j): F(rng.randint(1, 20), rng.choice([1, 2, 4]))
                   for i in range(1, 7) for j in range(i + 1, 7)}
        g = WeightedGraph(6, weights)
        pairs = {(1, 4), (2, 6), (3, 5)}
        assert matching_weight(g, pairs) == sum(weights[p] for p in pairs)

    def test_overlap_rejected(self):
        g = WeightedGraph(4, {(1, 2): F(1), (1, 3): F(1)})
        with pytest.raises(ValueError, match="overlap"):
            matching_weight(g, {(1, 2), (1, 3)})

    def test_matching_invariants(self):
        g = WeightedGraph(4, {(1, 2): F(3)})
        m = Matching.from_pairs(g, [(2, 1)])
        assert m.pairs == frozenset({(1, 2)})
        assert m.weight == 3
        with pytest.raises(ValueError):
            Matching(frozenset({(1, 2), (2, 3)}), F(0))

    def test_matching_refuses_overlaps_in_matching_weight_words(self):
        with pytest.raises(ValueError, match="^pairs overlap at vertex 2$"):
            Matching(frozenset({(1, 2), (2, 3)}), F(0))
        # one edge named twice uses its vertices twice
        with pytest.raises(ValueError, match="^pairs overlap at vertex 1$"):
            Matching.from_pairs(WeightedGraph(2, {(1, 2): F(1)}), [(1, 2), (2, 1)])

    def test_weight_of_a_matching_is_read_from_the_graph(self):
        g = WeightedGraph(4, {(1, 2): F(3), (3, 4): F(1, 2)})
        stale = Matching(frozenset({(1, 2), (3, 4)}), F(99))
        assert matching_weight(g, stale) == F(7, 2)


class TestValidateMatching:
    def test_ok_pair(self):
        inst = fig1_instance()
        assert validate_matching(inst, {(1, 2)}, {(1, 2): 2}) is None

    def test_absent_edge_reported(self):
        inst = fig1_instance()
        for t in (1, 2, 3, 4):
            violation = validate_matching(inst, {(1, 3)}, {(1, 3): t})
            assert violation is not None
            assert any("edge absent" in r for r in violation.reasons)

    def test_departure_reported(self):
        graph = WeightedGraph(4, {(1, 4): F(1)})
        inst = OnlineInstance(graph, ArrivalOrder.identity(4), 2)
        violation = validate_matching(inst, {(1, 4)}, {(1, 4): 4})
        assert violation is not None
        assert any("departed at time 3" in r for r in violation.reasons)

    def test_before_arrival_reported(self):
        inst = fig1_instance()
        violation = validate_matching(inst, {(2, 3)}, {(2, 3): 2})
        assert violation is not None
        assert any("before both arrived" in r for r in violation.reasons)


class TestInstanceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        graph = WeightedGraph(4, {(1, 2): F(355, 113), (3, 4): F(10**12, 7)})
        inst = OnlineInstance(graph, ArrivalOrder((2, 1, 4, 3)), 2,
                              departures=(1, 0, 2, 2))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.graph.weight(1, 2) == F(355, 113)
        assert loaded.graph.weight(3, 4) == F(10**12, 7)
        assert loaded.order == inst.order
        assert loaded.departures == inst.departures

    @pytest.mark.parametrize("kind", ["deterministic", "geometric", "tabulated"])
    def test_departure_models_round_trip_bit_exact(self, tmp_path, kind):
        rng = random.Random(kind)
        for index in range(20):
            if kind == "deterministic":
                model = deterministic(rng.randint(0, 5))
            elif kind == "geometric":
                model = geometric(F(rng.randint(1, 15), 16))
            else:
                masses = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
                masses[-1] += 1
                model = tabulated({rng.randint(0, 9) * 4 + t: F(m, sum(masses))
                                   for t, m in enumerate(masses)})
            inst = dataclasses.replace(random_instance(rng, rng.randint(0, 8), rng.randint(0, 3)),
                                       departure_model=model)
            first, second = tmp_path / f"{index}.json", tmp_path / f"{index}-again.json"
            save_instance(inst, first)
            loaded = load_instance(first)
            save_instance(loaded, second)
            assert second.read_bytes() == first.read_bytes()
            assert loaded == inst

    def test_unknown_fields_rejected(self):
        data = {"n": 2, "d": 1, "edges": [], "color": "blue"}
        with pytest.raises(InstanceFormatError, match="unknown"):
            instance_from_json(data)

    def test_integer_and_string_weights(self):
        data = {"n": 2, "d": 1, "edges": [[1, 2, "3/7"]]}
        inst = instance_from_json(data)
        assert inst.graph.weight(1, 2) == F(3, 7)
        data["edges"] = [[1, 2, 4]]
        assert instance_from_json(data).graph.weight(1, 2) == 4

    def test_defaults(self):
        inst = instance_from_json({"n": 3, "d": 1, "edges": []})
        assert inst.order == ArrivalOrder.identity(3)
        assert inst.departures is None

    def test_departure_model_field(self):
        data = {"n": 2, "d": 1, "edges": [],
                "departure_model": {"kind": "geometric", "delta": "1/2"}}
        inst = instance_from_json(data)
        assert inst.departure_model.kind == "geometric"
        assert inst.departure_model.delta == F(1, 2)
        again = instance_from_json(instance_to_json(inst))
        assert again.departure_model == inst.departure_model

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(doc=st.recursive(st.text("[]{}\"\\ a", max_size=6) | st.integers(),
                            lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text("[]{}\"\\ a", max_size=4), inner,
                                              max_size=3)),
           wrap=st.sampled_from([0, MAX_JSON_DEPTH - 4, MAX_JSON_DEPTH - 1, MAX_JSON_DEPTH + 1]))
    def test_nesting_cap_counts_brackets_outside_strings(self, tmp_path_factory, doc, wrap):
        def depth(node):
            if isinstance(node, dict):
                node = list(node.values())
            return 1 + max(map(depth, node), default=0) if isinstance(node, list) else 0

        for _ in range(wrap):
            doc = [doc]
        path = tmp_path_factory.mktemp("json") / "doc.json"
        path.write_text(json.dumps(doc))
        if depth(doc) <= MAX_JSON_DEPTH:
            assert read_json(path, InstanceFormatError) == doc
        else:
            with pytest.raises(InstanceFormatError, match="^not valid JSON: nested too deeply"):
                read_json(path, InstanceFormatError)

    def test_json_is_plain_text(self):
        inst = fig1_instance(F(1, 3))
        text = json.dumps(instance_to_json(inst))
        assert "1/3" in text
