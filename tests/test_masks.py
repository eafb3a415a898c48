import random
from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest

from deadline_matching import (ArrivalOrder, OnlineInstance, PeriodicBatching,
                               WeightedGraph, batching_from_order,
                               build_online_graph, combine, cycle_power,
                               enumerate_periodic_batchings)
from deadline_matching.masks import rotate, translates
from helpers import random_complete_graph, random_order
from oracles import (batched_graph, contract_cycle_mask,
                     enumerate_periodic_permutations, is_cover,
                     max_weight_matching_value, multiply, path_power,
                     periodic_extension, realizing_permutation)


class TestCyclePower:
    def test_square_cycle(self):
        g = cycle_power(4, 1)
        assert set(g.weights) == {(1, 2), (2, 3), (3, 4), (1, 4)}

    def test_degrees(self):
        g = cycle_power(12, 3)
        degree = {v: 0 for v in g.vertices()}
        for i, j, _ in g.edges():
            degree[i] += 1
            degree[j] += 1
        assert set(degree.values()) == {6}

    def test_edge_count(self):
        for n, d in ((8, 1), (12, 2), (20, 4)):
            assert len(cycle_power(n, d).weights) == n * d

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            cycle_power(4, 2)


class TestPathPower:
    def test_identity_path(self):
        g = path_power(list(range(1, 5)), 4, 1)
        assert set(g.weights) == {(1, 2), (2, 3), (3, 4)}

    def test_subgraph_of_cycle_power(self):
        for sigma in permutations(range(1, 6)):
            assert is_cover(cycle_power(5, 2), path_power(sigma, 5, 2))

    def test_matches_pairwise_filter(self):
        rng = random.Random(51)
        order = random_order(rng, 7)
        g = path_power(order, 7, 2)
        for i in range(1, 8):
            for j in range(i + 1, 8):
                expected = 1 if abs(order.slot_of(i) - order.slot_of(j)) <= 2 else 0
                assert g.weight(i, j) == expected


class TestBatchedGraph:
    def test_identity_pairs(self):
        g = batched_graph(list(range(1, 9)), 8, 1)
        assert set(g.weights) == {(1, 2), (3, 4), (5, 6), (7, 8)}

    def test_two_triangles(self):
        g = batched_graph(list(range(1, 7)), 6, 2)
        assert set(g.weights) == {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)}

    def test_components_are_cliques(self):
        rng = random.Random(52)
        for _ in range(20):
            n, d = rng.randint(2, 9), rng.choice([1, 2, 3])
            order = random_order(rng, n)
            g = batched_graph(order, n, d)
            batches = {}
            for v in range(1, n + 1):
                b = (order.slot_of(v) + d) // (d + 1)
                batches.setdefault(b, set()).add(v)
            last_block = max(batches)
            for b, members in batches.items():
                if b != last_block:
                    assert len(members) == d + 1
            for batch in batches.values():
                for i in batch:
                    for j in batch:
                        if i < j:
                            assert g.weight(i, j) == 1


class TestAlgebra:
    def test_cycle_covers_every_path_power_after_relabeling(self):
        # expressed in arrival-rank coordinates, every path power sits inside
        # the cycle power; this is the form the covering argument consumes
        for n, d in ((5, 1), (5, 2), (6, 2)):
            cyc = cycle_power(n, d)
            for sigma in permutations(range(1, n + 1)):
                path = path_power(sigma, n, d)
                relabeled = WeightedGraph(
                    n, {(sigma[i - 1], sigma[j - 1]): w
                        for (i, j), w in path.weights.items()})
                assert is_cover(cyc, relabeled)

    def test_mask_product_is_online_graph(self):
        rng = random.Random(53)
        for _ in range(20):
            n, d = rng.randint(3, 8), rng.choice([1, 2, 3])
            g = random_complete_graph(rng, n)
            order = random_order(rng, n)
            inst = OnlineInstance(g, order, d)
            assert multiply(path_power(order, n, d), g) == build_online_graph(inst)

    def test_add_identity(self):
        rng = random.Random(54)
        h = random_complete_graph(rng, 5)
        h2 = random_complete_graph(rng, 5)
        assert combine(1, h, 0, h2) == h

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(cycle_power(6, 1), cycle_power(8, 1))
        with pytest.raises(ValueError):
            is_cover(cycle_power(6, 1), cycle_power(8, 1))

    def test_matching_value_subadditive(self):
        rng = random.Random(55)
        for _ in range(15):
            h = random_complete_graph(rng, 6)
            h2 = random_complete_graph(rng, 6)
            a, b = F(rng.randint(0, 3)), F(rng.randint(0, 3))
            lhs = max_weight_matching_value(combine(a, h, b, h2))
            rhs = a * max_weight_matching_value(h) + b * max_weight_matching_value(h2)
            assert lhs <= rhs

    def test_cover_implies_larger_matching(self):
        rng = random.Random(56)
        for _ in range(15):
            g = random_complete_graph(rng, 6)
            small = batched_graph(random_order(rng, 6), 6, 1)
            big = combine(1, small, 1, cycle_power(6, 2))
            assert is_cover(big, small)
            assert (max_weight_matching_value(multiply(big, g))
                    >= max_weight_matching_value(multiply(small, g)))


class TestContraction:
    def test_contract_cycle_power(self):
        assert contract_cycle_mask(12, 3, 2) == cycle_power(6, 2)
        assert contract_cycle_mask(16, 3, 2) == cycle_power(8, 2)


class TestPeriodicBatchings:
    def test_enumeration_matches_permutation_brute_force(self):
        cols = enumerate_periodic_batchings(8, 4, 1)
        assert len(cols) == 12
        brute = {batching_from_order(sigma, 8, 1, period=4).canonical_key()
                 for sigma in enumerate_periodic_permutations(8, 4)}
        assert brute == {c.canonical_key() for c in cols}

    def test_enumeration_matches_brute_force_d2(self):
        cols = enumerate_periodic_batchings(12, 6, 2)
        assert len(cols) == 160
        brute = {batching_from_order(sigma, 12, 2, period=6).canonical_key()
                 for sigma in enumerate_periodic_permutations(12, 6)}
        assert brute == {c.canonical_key() for c in cols}

    def test_invariants_hold(self):
        for pb in enumerate_periodic_batchings(8, 4, 1):
            assert all(len(b) == 2 for b in pb.batches)
            shifted = pb.shifted(4)
            assert shifted.canonical_key() == pb.canonical_key()

    def test_d3_count_and_structure(self):
        cols = enumerate_periodic_batchings(16, 8, 3)
        assert len(cols) == comb(7, 3) * 8 * 8  # anchor choices times pairings
        sample = cols[:50] + cols[-50:]
        for pb in sample:
            assert all(len(b) == 4 for b in pb.batches)
            assert pb.shifted(8).canonical_key() == pb.canonical_key()

    def test_divisibility_validation(self):
        with pytest.raises(ValueError):
            enumerate_periodic_batchings(8, 3, 1)
        with pytest.raises(ValueError):
            enumerate_periodic_batchings(10, 4, 1)

    def test_periodic_batching_constructor_validation(self):
        with pytest.raises(ValueError):  # not a partition
            PeriodicBatching(4, 2, 4, ((1, 2), (2, 3)))
        with pytest.raises(ValueError):  # claims period 4 but is not periodic
            PeriodicBatching(8, 2, 4, ((1, 2), (3, 5), (4, 6), (7, 8)))
        # the same partition is fine with the trivial period
        PeriodicBatching(8, 2, 8, ((1, 2), (3, 5), (4, 6), (7, 8)))

    def test_a_period_below_one_is_refused(self):
        for make in (lambda: batching_from_order((), 0, 1),
                     lambda: batching_from_order((1, 2, 3, 4), 4, 1, period=0),
                     lambda: PeriodicBatching(4, 2, -2, ((1, 2), (3, 4)))):
            with pytest.raises(ValueError, match="period must be positive, got"):
                make()


class TestCyclicGeometry:
    """The shared rotation, shift orbit and periodic extension, over every
    enumerated column and every member of its rotation orbit."""

    @pytest.fixture(params=[(8, 4, 1), (12, 6, 1), (12, 6, 2)], ids=str)
    def members(self, request):
        n, p, d = request.param
        return n, p, [m for col in enumerate_periodic_batchings(n, p, d)
                      for m in col.rotation_orbit()]

    def test_rotating_back_restores_every_batch(self, members):
        n, _, pbs = members
        for pb in pbs:
            for batch in pb.batches:
                for r in range(n):
                    assert rotate(rotate(batch, r, n), n - r, n) == batch

    def test_generators_rebuild_the_partition(self, members):
        n, p, pbs = members
        for pb in pbs:
            rebuilt = PeriodicBatching.from_generators(n, pb.batch_size, p,
                                                       pb.generator_batches())
            assert rebuilt == pb

    def test_orbit_sizes_divide_n(self, members):
        n, p, pbs = members
        for pb in pbs:
            orbit = pb.rotation_orbit()
            assert n % len(orbit) == 0
            assert orbit[0] == pb
            assert {m.batches for m in orbit} == {pb.shifted(r).batches for r in range(n)}
            for batch in pb.batches:
                assert set(translates([batch], p, n)) <= set(pb.batches)

    def test_every_rotation_is_realizable(self, members):
        n, p, pbs = members
        for pb in pbs:
            order = realizing_permutation(pb)  # asserts that it induces pb
            head = order[:p]
            assert order == periodic_extension(head, p, n)
