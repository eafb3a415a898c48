import dataclasses
import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, NonBipartiteError, OnlineInstance,
                               WeightedGraph, batched_matching_value, batching,
                               dda, exact_expectation, greedy_free_disposal,
                               infer_roles, make_instance, make_policy,
                               naive_greedy, offline_optimum, patient_baseline,
                               postponed_greedy, realized_offline_optimum,
                               simulate, validate_matching, verify_offline_dual)
from deadline_matching.departures import geometric
from deadline_matching.engine import realized_departures
from deadline_matching.policies import POLICY_FACTORIES
from helpers import random_constrained_bipartite, random_instance
from oracles import max_weight_matching_exact


def single_edge(w=F(6), d=1):
    return OnlineInstance(WeightedGraph(2, {(1, 2): w}), ArrivalOrder.identity(2), d,
                          roles={1: "seller", 2: "buyer"})


class TestGreedy:
    def test_tightness_instance_displacement(self):
        inst = make_instance("pg-tightness", eps=F(1, 10)).instance
        policy = greedy_free_disposal()
        result = simulate(inst, policy)
        # buyer 3 outbids the (1,3) margin at seller 2; buyer 4 sees margin 0
        assert result.collected == 1
        assert result.pairs == frozenset({(2, 3)})

    def test_single_pair(self):
        result = simulate(single_edge(F(7)), greedy_free_disposal())
        assert result.collected == 7

    def test_half_guarantee_on_random_bipartite(self):
        rng = random.Random(31)
        for _ in range(100):
            inst = random_constrained_bipartite(rng, rng.randint(2, 10),
                                                rng.choice([1, 2, 3]))
            collected = simulate(inst, greedy_free_disposal()).collected
            assert 2 * collected >= offline_optimum(inst).weight

    def test_rejects_non_bipartite(self):
        # a triangle cannot be constrained bipartite
        inst = OnlineInstance(
            WeightedGraph(3, {(1, 2): F(1), (2, 3): F(1), (1, 3): F(1)}),
            ArrivalOrder.identity(3), 2,
            roles={1: "seller", 2: "seller", 3: "buyer"})
        with pytest.raises(NonBipartiteError):
            simulate(inst, greedy_free_disposal())
        with pytest.raises(NonBipartiteError):
            infer_roles(inst)

    def test_requires_roles(self):
        inst = OnlineInstance(WeightedGraph(2, {(1, 2): F(1)}),
                              ArrivalOrder.identity(2), 1)
        with pytest.raises(NonBipartiteError, match="roles"):
            simulate(inst, greedy_free_disposal())
        assert infer_roles(inst) == {1: "seller", 2: "buyer"}


class TestNaiveGreedy:
    def test_single_edge_quarter(self):
        inst = single_edge(F(8))
        assert exact_expectation(inst, naive_greedy()) == 2

    def test_single_vertex(self):
        inst = OnlineInstance(WeightedGraph(1, {}), ArrivalOrder.identity(1), 1)
        assert exact_expectation(inst, naive_greedy()) == 0

    def test_eighth_guarantee_small_sweep(self):
        rng = random.Random(32)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(2, 7), rng.choice([1, 2]))
            value = exact_expectation(inst, naive_greedy())
            assert 8 * value >= offline_optimum(inst).weight


class TestPostponedGreedy:
    def test_tightness_ratio(self):
        for eps in (F(1, 10), F(1, 100), F(1, 3)):
            inst = make_instance("pg-tightness", eps=eps).instance
            value = exact_expectation(inst, postponed_greedy())
            assert value == F(1, 2)
            opt = offline_optimum(inst).weight
            assert opt == 2 - eps
            assert value / opt == 1 / (4 - 2 * eps)

    def test_single_edge_half(self):
        inst = single_edge(F(8))
        assert exact_expectation(inst, postponed_greedy()) == 4

    def test_quarter_guarantee_and_dual_feasibility(self):
        from deadline_matching import enumerate_branches
        rng = random.Random(33)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(2, 10), rng.choice([1, 2, 3]))
            opt = offline_optimum(inst).weight
            policy = postponed_greedy()
            total = F(0)
            for bits, result in enumerate_branches(inst, policy):
                report = verify_offline_dual(inst, policy.dual_vector(),
                                             claimed_primal=opt)
                assert report.feasible and report.weak_duality_ok
                p_sum, q_sum = policy.price_margin_sums()
                assert p_sum == q_sum  # every price rise is some buyer's margin
                total += result.collected * F(1, 2 ** len(bits))
            assert 4 * total >= opt

    def test_statuses_never_flip(self):
        rng = random.Random(34)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 8), rng.choice([1, 2]))
            policy = postponed_greedy()
            simulate(inst, policy, seed=7)
            decided = {}
            for entry in policy.log:
                if entry[0] in ("coin", "propagate"):
                    v, status = entry[1], entry[2]
                    assert decided.setdefault(v, status) == status


class TestDDA:
    def test_two_buyer_displacement(self):
        graph = WeightedGraph(3, {(1, 2): F(1), (1, 3): F(2)})
        inst = OnlineInstance(graph, ArrivalOrder.identity(3), 2,
                              roles={1: "seller", 2: "buyer", 3: "buyer"})
        policy = dda()
        result = simulate(inst, policy)
        assert result.collected == 2
        assert result.pairs == frozenset({(1, 3)})

    def test_conservation_identity(self):
        rng = random.Random(35)
        for _ in range(60):
            inst = random_constrained_bipartite(rng, rng.randint(2, 10),
                                                rng.choice([1, 2, 3]))
            policy = dda()
            simulate(inst, policy)
            p_f, q_f, q_i = policy.conservation_sums()
            assert p_f + q_f == q_i

    def test_monotone_trajectories(self):
        rng = random.Random(36)
        for _ in range(40):
            inst = random_constrained_bipartite(rng, rng.randint(2, 10),
                                                rng.choice([1, 2, 3]))
            policy = dda()
            simulate(inst, policy)
            for series in policy.price_history.values():
                assert all(a <= b for a, b in zip(series, series[1:]))
            for series in policy.margin_history.values():
                assert all(a >= b for a, b in zip(series, series[1:]))

    def test_half_guarantee(self):
        rng = random.Random(37)
        for _ in range(100):
            inst = random_constrained_bipartite(rng, rng.randint(2, 10),
                                                rng.choice([1, 2, 3]))
            collected = simulate(inst, dda()).collected
            assert 2 * collected >= offline_optimum(inst).weight

    def test_rejects_non_bipartite(self):
        inst = OnlineInstance(
            WeightedGraph(3, {(1, 2): F(1), (2, 3): F(1), (1, 3): F(1)}),
            ArrivalOrder.identity(3), 2,
            roles={1: "seller", 2: "seller", 3: "buyer"})
        with pytest.raises(NonBipartiteError):
            simulate(inst, dda())

    @staticmethod
    def _banded(rng, n, d):
        """Role-constrained, identity order, edges only inside the band."""
        roles = {v: rng.choice(["seller", "buyer"]) for v in range(1, n + 1)}
        weights = {(i, j): F(rng.randint(1, 16), rng.choice([1, 2, 4, 8]))
                   for i in range(1, n + 1) for j in range(i + 1, min(n, i + d) + 1)
                   if roles[i] == "seller" and roles[j] == "buyer" and rng.random() < 0.7}
        return OnlineInstance(WeightedGraph(n, weights), ArrivalOrder.identity(n), d,
                              roles=roles)

    def test_outputs_keep_their_pinned_digest(self):
        # Pairs, schedule, price and margin histories and conservation sums
        # of dda on fixed seeded inputs; any change to the auction's
        # tie-breaks or arithmetic moves the digest.
        rng = random.Random(1986)
        instances = [random_constrained_bipartite(rng, rng.randint(2, 12), rng.randint(1, 4))
                     for _ in range(150)]
        instances += [self._banded(rng, 600, 4) for _ in range(2)]
        digest = hashlib.sha256()
        for inst in instances:
            policy = dda()
            result = simulate(inst, policy)
            digest.update(repr((sorted(result.schedule.items()), result.collected,
                                policy.price_history, policy.margin_history,
                                policy.initial_margin, policy.conservation_sums())).encode())
        assert digest.hexdigest() == (
            "0c792e6eae035bdb4bc578e1f653f52a6abb65af5d6ddc26f0229dd0a6f41c73")


class TestBatching:
    def test_two_edge_path(self):
        inst = make_instance("basic-tradeoff", y=F(9)).instance
        assert simulate(inst, batching()).collected == 1

    def test_consecutive_pairs(self):
        graph = WeightedGraph(4, {(1, 2): F(3), (3, 4): F(5), (2, 3): F(100)})
        inst = OnlineInstance(graph, ArrivalOrder.identity(4), 1)
        result = simulate(inst, batching())
        assert result.collected == 8
        assert result.pairs == frozenset({(1, 2), (3, 4)})

    def test_lookahead_equals_wider_deadline(self):
        rng = random.Random(38)
        for _ in range(25):
            n, d = rng.randint(2, 9), rng.choice([1, 2])
            inst = random_instance(rng, n, d)
            wider = OnlineInstance(inst.graph, inst.order, 2 * d)
            a = simulate(inst, batching(lookahead=d))
            b = simulate(wider, batching())
            assert a.pairs == b.pairs and a.collected == b.collected
            assert a.schedule == b.schedule

    def test_no_cross_batch_pairs(self):
        rng = random.Random(39)
        for _ in range(30):
            n, d = rng.randint(2, 10), rng.choice([1, 2, 3])
            l = rng.choice([0, 1, 2])
            inst = random_instance(rng, n, d)
            result = simulate(inst, batching(lookahead=l))
            width = d + l + 1
            for i, j in result.pairs:
                bi = (inst.order.slot_of(i) + width - 1) // width
                bj = (inst.order.slot_of(j) + width - 1) // width
                assert bi == bj

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 12), d=st.integers(0, 3), l=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_collects_the_certified_batched_value(self, n, d, l, seed):
        # The covering certificates bound batched_matching_value; the policy
        # must collect exactly that, as the union of each batch's optimum.
        inst = random_instance(random.Random(seed), n, d)
        result = simulate(inst, batching(l))
        slots = inst.order.slots
        assert result.collected == batched_matching_value(inst.graph, slots, d + l)
        by_slot = sorted(inst.graph.vertices(), key=lambda v: slots[v - 1])
        expected = set()
        for start in range(0, n, d + l + 1):
            batch = sorted(by_slot[start:start + d + l + 1])
            local = WeightedGraph(len(batch), {
                (i + 1, j + 1): inst.graph.weight(u, v)
                for i, u in enumerate(batch) for j, v in enumerate(batch) if u < v})
            expected |= {(batch[i - 1], batch[j - 1])
                         for i, j in max_weight_matching_exact(local).pairs}
        assert result.pairs == expected

    def test_partial_final_batch_not_stranded(self):
        # d=2: windows {1,2,3} and the partial {4,5}, closed at the last arrival
        graph = WeightedGraph(5, {(4, 5): F(3)})
        inst = OnlineInstance(graph, ArrivalOrder.identity(5), 2)
        result = simulate(inst, batching())
        assert result.collected == 3
        assert result.schedule == {(4, 5): 5}

    def test_member_departed_before_the_close_is_not_matched(self):
        # d=2, vertex 1 stays one period: it meets vertex 2 but leaves at
        # tick 2, before the batch closes at slot 3; only (2, 3) is left.
        graph = WeightedGraph(3, {(1, 2): F(5), (2, 3): F(1)})
        inst = OnlineInstance(graph, ArrivalOrder.identity(3), 2, departures=(1, 2, 2))
        policy = batching()
        result = simulate(inst, policy)
        assert result.schedule == {(2, 3): 3}
        assert policy.log == [("batch", (1, 2, 3))]

    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    def test_completes_under_geometric_departures(self, lookahead):
        rng = random.Random(11)
        for _ in range(60):
            inst = dataclasses.replace(random_instance(rng, rng.randint(2, 10), rng.randint(0, 3)),
                                       departure_model=geometric(F(1, 2)))
            run_seed = rng.getrandbits(16)
            result = simulate(inst, batching(lookahead), seed=run_seed)
            assert validate_matching(inst, result.pairs, result.schedule, lookahead,
                                     run_seed) is None


class TestPatient:
    def test_two_edge_path(self):
        inst = make_instance("basic-tradeoff", y=F(2)).instance
        result = simulate(inst, patient_baseline())
        assert result.collected == 1
        assert result.schedule == {(1, 2): 2}

    def test_zero_weights(self):
        inst = OnlineInstance(WeightedGraph(4, {}), ArrivalOrder.identity(4), 1)
        assert simulate(inst, patient_baseline()).collected == 0

    def test_single_edge(self):
        assert simulate(single_edge(F(5)), patient_baseline()).collected == 5

    def test_tie_break_lowest_index(self):
        graph = WeightedGraph(3, {(1, 2): F(4), (1, 3): F(4)})
        inst = OnlineInstance(graph, ArrivalOrder.identity(3), 2)
        result = simulate(inst, patient_baseline())
        assert result.pairs == frozenset({(1, 2)})


class TestMakePolicy:
    def test_names(self):
        assert make_policy("pg").name == "pg"
        assert make_policy("batching:2").lookahead == 2
        with pytest.raises(ValueError):
            make_policy("mystery")


ROLE_SPECS = ("greedy", "dda")  # need declared roles: run on role-constrained inputs
ALL_SPECS = [*POLICY_FACTORIES, "batching:1"]


def _scaled_records(policy, result):
    """Every number a caller reads after the run, by name."""
    records = {"collected": result.collected,
               "bids": [entry[3] for entry in policy.log if entry[0] == "bid"]}
    for name in ("dual_vector", "price_margin_sums", "conservation_sums"):
        if hasattr(policy, name):
            records[name] = getattr(policy, name)()
    for name in ("initial_margin", "final_price", "final_margin", "price_history",
                 "margin_history"):
        if hasattr(policy, name):
            records[name] = getattr(policy, name)
    return records


def _assert_seven_times(big, small, where):
    """big == 7 * small exactly, with every number on both sides a Fraction."""
    if isinstance(big, dict):
        assert big.keys() == small.keys(), where
        for key in big:
            _assert_seven_times(big[key], small[key], f"{where}[{key}]")
    elif isinstance(big, (list, tuple)):
        assert len(big) == len(small), where
        for i, (a, b) in enumerate(zip(big, small)):
            _assert_seven_times(a, b, f"{where}[{i}]")
    else:
        assert type(big) is F and type(small) is F, where
        assert big == 7 * small, where


class TestScaleCovariance:
    """Policies run on integer weights over the graph's common denominator.
    Dividing every weight by 7 multiplies that denominator by 7: the runs
    must be the same, and every reported number exactly 7 times smaller."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 10), d=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           run_seed=st.integers(0, 3))
    def test_runs_agree_and_values_scale(self, n, d, seed, run_seed):
        rng = random.Random(seed)
        inputs = [(random_constrained_bipartite(rng, n, d), ALL_SPECS),
                  (random_instance(rng, n, d), [s for s in ALL_SPECS if s not in ROLE_SPECS])]
        for inst, specs in inputs:
            seventh = dataclasses.replace(inst, graph=WeightedGraph(
                n, {e: w / 7 for e, w in inst.graph.weights.items()}))
            if any(w.numerator % 7 for w in inst.graph.weights.values()):
                assert seventh.graph.scaled[1] == 7 * inst.graph.scaled[1]
            for spec in specs:
                big_policy, small_policy = make_policy(spec), make_policy(spec)
                big = simulate(inst, big_policy, seed=run_seed)
                small = simulate(seventh, small_policy, seed=run_seed)
                assert (big.pairs, big.schedule, big.trace, big.bits_used) == (
                    small.pairs, small.schedule, small.trace, small.bits_used), spec
                assert ([e if e[0] != "bid" else e[:3] for e in big_policy.log]
                        == [e if e[0] != "bid" else e[:3] for e in small_policy.log]), spec
                _assert_seven_times(_scaled_records(big_policy, big),
                                    _scaled_records(small_policy, small), spec)


class TestValueAtMostOptimum:
    """No policy collects more than the offline optimum of its own run."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 9), d=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_exact_expectation_at_most_opt_with_fixed_departures(self, n, d, seed):
        # every vertex stays d periods, so OPT is the deadline graph's optimum
        rng = random.Random(seed)
        inputs = [(random_constrained_bipartite(rng, n, d), list(POLICY_FACTORIES)),
                  (random_instance(rng, n, d), [s for s in POLICY_FACTORIES if s not in ROLE_SPECS])]
        for inst, specs in inputs:
            opt = offline_optimum(inst).weight
            for spec in specs:
                assert exact_expectation(inst, make_policy(spec)) <= opt, spec

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 12), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           run_seed=st.integers(0, 2**32 - 1))
    def test_stochastic_runs_at_most_realized_opt(self, n, d, seed, run_seed):
        inst = dataclasses.replace(random_instance(random.Random(seed), n, d),
                                   departure_model=geometric(F(1, 2)))
        opt = realized_offline_optimum(inst, realized_departures(inst, run_seed)).weight
        for spec in ("pg-stochastic", "patient"):
            assert simulate(inst, make_policy(spec), seed=run_seed).collected <= opt, spec
