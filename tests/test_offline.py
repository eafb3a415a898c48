import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, AuctionMarket, OnlineInstance,
                               SizeLimitError, WeightedGraph,
                               arrival_window_matching_value,
                               batched_matching_value, batching_from_order,
                               build_online_graph,
                               hungarian_bipartite, make_instance,
                               matching_weight, max_weight_matching_exact,
                               offline_optimum, realized_offline_optimum,
                               realized_online_graph, validate_matching,
                               verify_offline_dual)
from deadline_matching.graphs import invert_permutation, over_scale
from helpers import random_complete_graph, random_instance, random_weight
from oracles import (batched_graph, max_weight_matching_value, multiply,
                     path_power)
from oracles import max_weight_matching_exact as subset_matching_exact


def all_matchings(vertices):
    """Every matching (as a frozenset of pairs) on the vertex list."""
    vertices = list(vertices)
    if not vertices:
        yield frozenset()
        return
    v, rest = vertices[0], vertices[1:]
    for m in all_matchings(rest):
        yield m
    for i, u in enumerate(rest):
        others = rest[:i] + rest[i + 1:]
        for m in all_matchings(others):
            yield m | {(v, u) if v < u else (u, v)}


def brute_force_optimum(g: WeightedGraph) -> F:
    return max(matching_weight(g, m) for m in all_matchings(list(g.vertices())))


# The four entry points that read an arrival order, each as (graph, slots, d).
# The two sweep evaluators are called as they are; the other two check the
# length against graph.n apart, with a message that says the sizes disagree.

def arrival_order(graph: WeightedGraph, slots, d: int) -> OnlineInstance:
    return OnlineInstance(graph, ArrivalOrder(slots), d)


def batching(graph: WeightedGraph, slots, d: int):
    return batching_from_order(slots, graph.n, d)


ORDER_READERS = [arrival_window_matching_value, batched_matching_value, arrival_order,
                 batching]


class TestMaxWeightMatching:
    def test_dominant_edge_triangle(self):
        eps = F(1, 100)
        g = WeightedGraph(3, {(1, 2): eps, (2, 3): eps, (1, 3): F(1)})
        m = max_weight_matching_exact(g)
        assert m.sorted_pairs() == ((1, 3),)
        assert m.weight == 1

    def test_tightness_instance_optimum(self):
        named = make_instance("pg-tightness", eps=F(1, 10))
        m = offline_optimum(named.instance)
        assert m.weight == F(2) - F(1, 10)
        assert m.pairs == frozenset({(1, 3), (2, 4)})

    def test_matches_brute_force_on_random_k8(self):
        rng = random.Random(11)
        for _ in range(8):
            g = random_complete_graph(rng, 8)
            assert max_weight_matching_exact(g).weight == brute_force_optimum(g)

    def test_lexicographic_tie_break(self):
        g = WeightedGraph(4, {(1, 2): F(1), (3, 4): F(1), (1, 3): F(1), (2, 4): F(1)})
        assert max_weight_matching_exact(g).sorted_pairs() == ((1, 2), (3, 4))

    def test_size_cap_refusal(self):
        g = WeightedGraph(25, {(1, 2): F(1)})
        with pytest.raises(SizeLimitError):
            max_weight_matching_exact(g)

    def test_never_below_any_valid_matching(self):
        rng = random.Random(12)
        g = random_complete_graph(rng, 7)
        best = max_weight_matching_exact(g).weight
        for m in itertools.islice(all_matchings(list(range(1, 8))), 200):
            assert best >= matching_weight(g, m)


class TestOfflineOptimum:
    def test_two_edge_path_takes_max(self):
        named = make_instance("basic-tradeoff", y=F(2))
        m = offline_optimum(named.instance)
        assert m.weight == 2
        assert m.pairs == frozenset({(2, 3)})

    def test_deadline_zero_collects_nothing(self):
        rng = random.Random(13)
        inst = random_instance(rng, 5, 0)
        assert offline_optimum(inst).weight == 0

    def test_loose_deadline_equals_unconstrained(self):
        rng = random.Random(14)
        g = random_complete_graph(rng, 6)
        inst = OnlineInstance(g, ArrivalOrder.identity(6), 5)
        assert offline_optimum(inst).weight == subset_matching_exact(g).weight

    def test_banded_instance_far_beyond_the_subset_cap(self):
        rng = random.Random(20)
        n, d = 1000, 4
        weights = {(i, j): random_weight(rng)
                   for i in range(1, n + 1) for j in range(i + 1, min(n, i + d) + 1)}
        inst = OnlineInstance(WeightedGraph(n, weights), ArrivalOrder.identity(n), d)
        m = offline_optimum(inst)
        assert m.weight == arrival_window_matching_value(inst.graph, inst.order.slots, d)
        schedule = {(i, j): max(i, j) for i, j in m.pairs}
        assert validate_matching(inst, m, schedule) is None

    def test_band_wider_than_the_cap_is_refused(self):
        inst = OnlineInstance(WeightedGraph(25, {(1, 2): F(1)}), ArrivalOrder.identity(25), 24)
        with pytest.raises(SizeLimitError):
            offline_optimum(inst)


class TestWindowEvaluators:
    """The sweep evaluators must agree with the subset DP on masked graphs."""

    def test_arrival_window_dp_cross_check(self):
        rng = random.Random(15)
        for _ in range(25):
            n, d = rng.randint(2, 7), rng.choice([1, 2, 3])
            g = random_complete_graph(rng, n)
            slots = list(range(1, n + 1))
            rng.shuffle(slots)
            masked = multiply(g, path_power(slots, n, d))
            assert (arrival_window_matching_value(g, tuple(slots), d)
                    == max_weight_matching_value(masked))

    def test_batched_value_cross_check(self):
        rng = random.Random(16)
        for _ in range(25):
            n, d = rng.randint(2, 8), rng.choice([1, 2, 3])
            g = random_complete_graph(rng, n)
            slots = list(range(1, n + 1))
            rng.shuffle(slots)
            masked = multiply(g, batched_graph(slots, n, d))
            assert (batched_matching_value(g, tuple(slots), d)
                    == max_weight_matching_value(masked))

    PATH = WeightedGraph(4, {(1, 2): F(1), (2, 3): F(5), (3, 4): F(2)})

    @pytest.mark.parametrize("evaluator", ORDER_READERS)
    @pytest.mark.parametrize("slots", [(1, 1, 2, 3), (0, 1, 2, 3), (1, 2, 3),
                                       (1, 2, 3, 4, 5), (2, 3, 4, 5), (-1, 1, 2, 3)])
    def test_slots_that_are_not_a_permutation_are_refused(self, evaluator, slots):
        message = (r"must be a permutation of 1\.\.n"
                   if len(slots) == 4 or evaluator not in (arrival_order, batching)
                   else "disagree")
        with pytest.raises(ValueError, match=message):
            evaluator(self.PATH, slots, 1)

    def test_float_slots_are_refused_as_arrival_order_refuses_them(self):
        slots = (1.5, 2.9, 3.2, 4.7)
        with pytest.raises(TypeError) as refused:
            ArrivalOrder(slots)
        with pytest.raises(TypeError, match="cannot interpret 1.5 as an integer") as batched:
            batching_from_order(slots, 4, 1)
        assert str(batched.value) == str(refused.value)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_reader_takes_or_refuses_an_order_alike(self, data):
        """Permutations, repeats, zeros, negatives, values past n and wrong
        lengths: the four readers agree, and on a permutation `vertex_at`
        gives the sequence that the evaluators batch and band."""
        n = data.draw(st.integers(1, 7), label="n")
        d = data.draw(st.integers(0, 3), label="d")
        slots = tuple(data.draw(st.one_of(st.permutations(range(1, n + 1)),
                                          st.lists(st.integers(-2, n + 2), max_size=n + 2)),
                                label="slots"))
        graph = random_complete_graph(random.Random(data.draw(st.integers(0, 99))), n)
        results = {}
        for reader in ORDER_READERS:
            try:
                results[reader] = reader(graph, slots, d)
            except ValueError:
                pass
        is_permutation = sorted(slots) == list(range(1, n + 1))
        assert set(results) == (set(ORDER_READERS) if is_permutation else set())
        if not is_permutation:
            return
        order = results[arrival_order].order
        sequence = [order.vertex_at(s) for s in range(1, n + 1)]
        runs = [sequence[i:i + d + 1] for i in range(0, n, d + 1)]
        assert results[batching].batches == tuple(sorted(tuple(sorted(run)) for run in runs))
        assert results[batched_matching_value] == sum(
            max_weight_matching_value(graph, run) for run in runs)
        band = WeightedGraph(n, {(u, v): graph.weight(u, v) for i, u in enumerate(sequence)
                                 for v in sequence[i + 1:i + d + 1]})
        assert results[arrival_window_matching_value] == max_weight_matching_value(band)

    @pytest.mark.parametrize("evaluator", [arrival_window_matching_value,
                                           batched_matching_value])
    def test_negative_d_is_refused(self, evaluator):
        with pytest.raises(ValueError, match="d must be >= 0"):
            evaluator(self.PATH, (1, 2, 3, 4), -1)

    def test_booleans_are_refused_by_every_reader(self):
        # True == 1, so (True, 2) equals an order just accepted; it is
        # another tuple, checked again and refused
        graph = WeightedGraph(2, {(1, 2): F(1)})
        for reader in ORDER_READERS:
            arrival_window_matching_value(graph, (1, 2), 1)
            reader(graph, (1, 2), 1)
            with pytest.raises((TypeError, ValueError)):
                reader(graph, (True, 2), 1)


class TestCheckOnce:
    """`invert_permutation` keeps the last tuple it accepted: that very
    object with the same n is not checked again. Anything else is."""

    def test_the_same_tuple_is_checked_once(self):
        slots = (2, 4, 1, 3)
        assert invert_permutation(slots, 4) == (3, 1, 4, 2)
        assert invert_permutation(slots, 4) is invert_permutation(slots, 4)

    def test_a_list_and_an_equal_tuple_are_checked_again(self):
        slots = [2, 4, 1, 3]
        first = invert_permutation(slots, 4)
        assert invert_permutation(slots, 4) is not first
        slots[0] = 4
        for reader in ORDER_READERS:
            with pytest.raises(ValueError):
                reader(TestWindowEvaluators.PATH, slots, 1)
        accepted = (2, 4, 1, 3)
        inverse = invert_permutation(accepted, 4)
        equal = tuple([2, 4, 1, 3])
        assert equal == accepted and equal is not accepted
        assert invert_permutation(equal, 4) == inverse
        assert invert_permutation(equal, 4) is not inverse

    def test_another_n_misses(self):
        slots = (2, 1, 3)
        invert_permutation(slots, 3)
        for n in (2, 4):
            with pytest.raises(ValueError, match=r"permutation of 1\.\.n"):
                invert_permutation(slots, n)
        graph = WeightedGraph(4, {(1, 2): F(1)})
        for evaluator in (arrival_window_matching_value, batched_matching_value):
            with pytest.raises(ValueError, match=r"permutation of 1\.\.n"):
                evaluator(graph, slots, 1)

    def test_evaluators_match_the_oracles_after_a_refusal(self):
        rng = random.Random(62)
        for _ in range(40):
            n, d = rng.randint(2, 8), rng.choice([1, 2, 3])
            g = random_complete_graph(rng, n)
            slots = list(range(1, n + 1))
            rng.shuffle(slots)
            slots = tuple(slots)
            invert_permutation(slots, n)  # kept, and still kept after the refusals
            bad = slots[:-1] + (slots[0],)
            for evaluator in (arrival_window_matching_value, batched_matching_value):
                with pytest.raises(ValueError):
                    evaluator(g, bad, d)
            for order in (slots, slots[::-1]):
                assert (arrival_window_matching_value(g, order, d)
                        == max_weight_matching_value(multiply(g, path_power(order, n, d))))
                assert (batched_matching_value(g, order, d)
                        == max_weight_matching_value(multiply(g, batched_graph(order, n, d))))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**30, 10**30), st.integers(1, 10**12))
    def test_scaled_results_equal_a_new_fraction(self, total, scale):
        assert over_scale(total, scale) == F(total, scale)
        assert type(over_scale(total, scale)) is F
        assert over_scale(total, scale) is over_scale(total, scale)


class TestRealizedOptimum:
    def test_short_departures_prune_edges(self):
        g = WeightedGraph(3, {(1, 2): F(5), (2, 3): F(4)})
        inst = OnlineInstance(g, ArrivalOrder.identity(3), 2)
        assert realized_offline_optimum(inst, (0, 0, 0)).weight == 0
        assert realized_offline_optimum(inst, (1, 0, 0)).weight == 5
        assert realized_offline_optimum(inst, (2, 2, 2)).weight == 5

    def test_readers_refuse_the_offsets_an_instance_refuses(self):
        g = WeightedGraph(3, {(1, 2): F(5), (2, 3): F(4)})
        inst = OnlineInstance(g, ArrivalOrder.identity(3), 2)
        for offsets in ((1,), (1, 1, 1, 1), (-1, 0, 0), (0.5, 1, 1), (True, 1, 1)):
            with pytest.raises((TypeError, ValueError)) as refused:
                OnlineInstance(g, ArrivalOrder.identity(3), 2, departures=offsets)
            for reader in (realized_offline_optimum, realized_online_graph):
                with pytest.raises(refused.type) as raised:
                    reader(inst, offsets)
                assert str(raised.value) == str(refused.value)
        # an integer string reads as it does in an instance
        for reader in (realized_offline_optimum, realized_online_graph):
            assert reader(inst, ("1", 1, 1)) == reader(inst, (1, 1, 1))


class TestOfflineDual:
    def test_two_edge_path_dual(self):
        named = make_instance("basic-tradeoff", y=F(0))
        report = verify_offline_dual(named.instance, {1: F(0), 2: F(1), 3: F(0)},
                                     claimed_primal=F(1))
        assert report.feasible
        assert report.total == 1
        assert report.weak_duality_ok

    def test_zero_weights(self):
        inst = OnlineInstance(WeightedGraph(3, {}), ArrivalOrder.identity(3), 1)
        report = verify_offline_dual(inst, {})
        assert report.feasible and report.total == 0

    def test_violations_listed_with_slack(self):
        named = make_instance("basic-tradeoff", y=F(3))
        report = verify_offline_dual(named.instance, {1: F(0), 2: F(1), 3: F(0)})
        assert not report.feasible
        assert report.violations == (((2, 3), F(2)),)

    def test_violations_match_the_masked_graph(self):
        # every edge of the deadline graph is checked, in sorted order, and
        # no edge outside it
        rng = random.Random(61)
        for _ in range(100):
            inst = random_instance(rng, rng.randint(1, 9), rng.randint(0, 3))
            lam = {v: F(rng.randint(0, 8), rng.choice((1, 2, 4)))
                   for v in inst.graph.vertices()}
            slacks = [((i, j), lam[i] + lam[j] - w)
                      for i, j, w in build_online_graph(inst).edges()]
            expected = tuple((edge, -slack) for edge, slack in slacks if slack < 0)
            assert verify_offline_dual(inst, lam).violations == expected

    def test_report_reads_as_one_line(self):
        named = make_instance("basic-tradeoff", y=F(3))
        duals = {1: F(0), 2: F(1), 3: F(0)}
        assert str(verify_offline_dual(named.instance, duals)) == \
            "infeasible on 1 edge(s): (2, 3): short by 2"
        duals[3] = F(2)
        assert str(verify_offline_dual(named.instance, duals)) == "feasible, sum = 3"

    def test_negative_duals_rejected(self):
        named = make_instance("basic-tradeoff")
        with pytest.raises(ValueError):
            verify_offline_dual(named.instance, {1: F(-1)})


class TestHungarian:
    def brute(self, sellers, buyers, w):
        best = F(0)
        for r in range(min(len(sellers), len(buyers)) + 1):
            for bs in itertools.combinations(buyers, r):
                for ss in itertools.permutations(sellers, r):
                    best = max(best, sum((w[(s, b)] for s, b in zip(ss, bs)), F(0)))
        return best

    def test_single_edge_complementary_slackness(self):
        m, p, q = hungarian_bipartite([1], [2], {(1, 2): F(5)})
        assert m.weight == 5
        assert p[1] + q[2] == 5
        assert p[1] >= 0 and q[2] >= 0

    def test_two_sellers_one_buyer(self):
        w = {(1, 3): F(3, 5), (2, 3): F(1)}
        m, p, q = hungarian_bipartite([1, 2], [3], w)
        assert m.weight == 1
        assert m.pairs == frozenset({(2, 3)})
        assert p[1] == 0  # unmatched seller keeps price zero
        assert p[2] + q[3] == 1
        assert p[1] + q[3] >= F(3, 5)  # dual feasibility on the losing edge

    def test_random_5x5_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(20):
            sellers, buyers = [1, 2, 3, 4, 5], [6, 7, 8, 9, 10]
            w = {(s, b): F(rng.randint(0, 12), rng.choice([1, 2, 3]))
                 for s in sellers for b in buyers}
            m, p, q = hungarian_bipartite(sellers, buyers, w)
            best = self.brute(sellers, buyers, w)
            assert m.weight == best
            # strong duality, exactly
            assert sum(p.values(), F(0)) + sum(q.values(), F(0)) == best

    def test_insertion_conserves_preexisting_dual_mass(self):
        rng = random.Random(19)
        for _ in range(20):
            ns, nb = rng.randint(1, 5), rng.randint(1, 6)
            market = AuctionMarket()
            for s in range(1, ns + 1):
                market.add_seller(s)
            for b in range(1, nb + 1):
                buyer = ns + b
                edges = {s: F(rng.randint(0, 10), rng.choice([1, 2]))
                         for s in range(1, ns + 1)}
                before = market.dual_total()
                market.add_buyer(buyer, edges)
                after = market.dual_total() - market.margins[buyer]
                assert before == after
                market.check_optimal()

    def test_foreign_edges_are_dropped_and_buyer_order_is_kept(self):
        # Edges to seller 4 or 9 and to buyer 8 lie outside the market, and
        # buyers list their sellers unsorted. Two optima tie at 29/6 (1-5,
        # 3-6, 2-7 against 3-5, 2-6, 1-7); the pins fix which one is returned.
        w = {(3, 5): F(2), (1, 5): F(2), (9, 5): F(7), (2, 6): F(3, 2), (3, 6): F(5, 2),
             (1, 6): F(3, 2), (1, 8): F(6), (2, 7): F(1, 3), (1, 7): F(4, 3),
             (3, 7): F(1, 2), (4, 7): F(9)}
        m, p, q = hungarian_bipartite([3, 1, 2], [6, 5, 7], w)
        assert m.sorted_pairs() == ((1, 5), (2, 7), (3, 6))
        assert m.weight == F(29, 6)
        assert list(p.items()) == [(3, F(1)), (1, F(1)), (2, F(0))]
        assert list(q.items()) == [(6, F(3, 2)), (5, F(1)), (7, F(1, 3))]


class TestExactInputs:
    """Floats and booleans are refused where weights and duals come in."""

    @pytest.mark.parametrize("bad", [0.1, True])
    def test_hungarian_refuses_inexact_weights(self, bad):
        with pytest.raises(TypeError):
            hungarian_bipartite([1], [2], {(1, 2): bad})

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_offline_dual_refuses_inexact_lambdas(self, bad):
        named = make_instance("basic-tradeoff", y=F(0))
        with pytest.raises(TypeError):
            verify_offline_dual(named.instance, {1: F(0), 2: bad, 3: F(0)})

    @pytest.mark.parametrize("bad", [0.5, True, "1/2"])
    def test_auction_refuses_what_is_not_an_int_or_a_fraction(self, bad):
        market = AuctionMarket()
        market.add_seller(1)
        with pytest.raises(TypeError):
            market.add_buyer(2, {1: bad})

    def test_auction_keeps_int_weights_as_ints(self):
        market = AuctionMarket()
        market.add_seller(1)
        assert type(market.add_buyer(2, {1: 3})) is int
        assert type(market.add_buyer(3, {1: 5})) is int
        market.check_optimal()
        assert market.match_sb == {1: 3}
        assert all(type(x) is int for x in [*market.prices.values(), *market.margins.values()])

    def test_hungarian_returns_fractions_for_int_weights(self):
        m, p, q = hungarian_bipartite([1, 2], [3], {(1, 3): 2, (2, 3): 1})
        assert m.pairs == frozenset({(1, 3)}) and m.weight == 2
        assert all(type(x) is F for x in [*p.values(), *q.values()])
        assert p == {1: 0, 2: 0} and q == {3: 2}
