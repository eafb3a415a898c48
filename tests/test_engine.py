import dataclasses
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (ArrivalOrder, BranchingLimitExceeded,
                               FreeDisposalGreedy, MarketView, NaiveGreedy,
                               OnlineInstance, OnlinePolicy,
                               WeightedGraph, batching, competitive_report,
                               enumerate_branches, exact_expectation,
                               geometric, make_instance, make_policy,
                               naive_greedy, offline_optimum,
                               patient_baseline, pg_stochastic,
                               postponed_greedy, realized_offline_optimum,
                               simulate, tabulated,
                               write_report_csv)
from deadline_matching import engine
from deadline_matching.engine import ScriptedBits
from deadline_matching.policies import POLICY_FACTORIES, PostponedGreedy
from helpers import random_constrained_bipartite, random_instance, unit_pairs
from oracles import AliveKeyedNaiveGreedy, AliveKeyedPostponedGreedy, replay_branches


def zero_instance(n=5, d=2):
    return OnlineInstance(WeightedGraph(n, {}), ArrivalOrder.identity(n), d)


class TestSimulate:
    def test_zero_weights_collect_nothing(self):
        for policy in (batching(), patient_baseline(), postponed_greedy()):
            assert simulate(zero_instance(), policy).collected == 0

    def test_batching_on_two_edge_path(self):
        inst = make_instance("basic-tradeoff", y=F(100)).instance
        result = simulate(inst, batching())
        assert result.collected == 1
        assert result.schedule == {(1, 2): 2}

    def test_pg_tightness_branches(self):
        inst = make_instance("pg-tightness", eps=F(1, 10)).instance
        outcomes = {simulate(inst, postponed_greedy(), bits=ScriptedBits((b,))).collected
                    for b in (0, 1)}
        assert outcomes == {F(0), F(1)}  # buyer branch departs unmatched

    def test_determinism_per_seed(self):
        rng = random.Random(21)
        inst = random_instance(rng, 7, 2)
        a = simulate(inst, naive_greedy(), seed=5)
        b = simulate(inst, naive_greedy(), seed=5)
        assert a.trace == b.trace and a.pairs == b.pairs
        c = simulate(inst, naive_greedy(), seed=6)
        assert (a.pairs, a.collected) != (c.pairs, c.collected) or a.trace != c.trace

    def test_finalized_before_earlier_critical(self):
        rng = random.Random(22)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(2, 8), rng.choice([1, 2]))
            for policy in (patient_baseline(), postponed_greedy(), batching()):
                result = simulate(inst, policy, seed=1)
                critical = inst.windows().critical
                for (i, j), t in result.schedule.items():
                    assert t <= min(critical[i - 1], critical[j - 1])

    def test_collected_equals_replayed_matching_weight(self):
        from deadline_matching import matching_weight, validate_matching
        rng = random.Random(28)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(2, 8), rng.choice([1, 2]))
            for policy in (patient_baseline(), batching(), postponed_greedy()):
                result = simulate(inst, policy, seed=2)
                assert validate_matching(inst, result.pairs, result.schedule) is None
                assert result.collected == matching_weight(inst.graph, result.pairs)

    def test_invalid_emission_aborts(self):
        class Cheater(OnlinePolicy):
            def on_arrival(self, v):
                return [(1, 3)] if v == 3 else ()

        inst = make_instance("basic-tradeoff").instance  # (1,3) has no edge
        with pytest.raises(ValueError, match="no edge|window"):
            simulate(inst, Cheater())


class TestInformationHygiene:
    def test_probe_never_sees_the_future(self):
        class Probe(OnlinePolicy):
            def reset(self, view, rng):
                super().reset(view, rng)
                self.seen = set()

            def on_arrival(self, v):
                self.seen.add(v)
                for u in range(1, self.view.n + 1):
                    if u in self.seen:
                        continue
                    with pytest.raises(LookupError):
                        self.view.slot_of(u)
                    with pytest.raises(LookupError):
                        self.view.weight(v, u)
                assert set(self.view.present()) <= self.seen
                return ()

        rng = random.Random(23)
        for _ in range(5):
            simulate(random_instance(rng, 6, 2), Probe())

    def test_departure_time_hidden_until_critical(self):
        inst = OnlineInstance(WeightedGraph(3, {(1, 2): F(1)}),
                              ArrivalOrder.identity(3), 2, departures=(0, 1, 2))
        seen = {}

        class Probe(OnlinePolicy):
            def on_arrival(self, v):
                try:
                    self.view.departure_time(1)
                    seen[("arrival", v)] = True
                except LookupError:
                    seen[("arrival", v)] = False
                return ()

        simulate(inst, Probe())
        assert seen[("arrival", 1)] is True   # arrives and is critical at t=1
        assert seen[("arrival", 2)] is True   # t=2 > 1: departure already public
        assert seen[("arrival", 3)] is True

        inst2 = OnlineInstance(WeightedGraph(3, {(1, 2): F(1)}),
                               ArrivalOrder.identity(3), 2, departures=(2, 2, 2))
        simulate(inst2, Probe())
        assert seen[("arrival", 2)] is False  # t=2 < 3: still unknown


    def test_neighbors_of_a_vertex_that_has_not_arrived(self):
        # hidden while some vertex is present, empty while none is; vertex
        # 3 arrives at tick 3, and (1, 2) is matched at tick 2
        inst = OnlineInstance(WeightedGraph(3, {(1, 2): F(1), (2, 3): F(1)}),
                              ArrivalOrder.identity(3), 2, departures=(1, 0, 2))
        seen = []

        class Probe(OnlinePolicy):
            def on_arrival(self, v):
                self.record()
                return [(1, 2)] if v == 2 else ()

            def on_critical(self, v):
                self.record()
                return ()

            def record(self):
                try:
                    neighbors = self.view.revealed_neighbors(3)
                except LookupError:
                    neighbors = "hidden"
                seen.append((self.view.now, self.view.present(), neighbors))

        assert MarketView(inst, inst.departures, 0).revealed_neighbors(3) == {}
        simulate(inst, Probe())
        assert seen == [(1, [1], "hidden"), (2, [1, 2], "hidden"), (2, [], {}),
                        (2, [], {}), (3, [3], {}), (5, [3], {})]


class TestExactExpectation:
    def test_deterministic_policy_equals_simulate(self):
        rng = random.Random(24)
        inst = random_instance(rng, 6, 2)
        value = exact_expectation(inst, patient_baseline())
        assert value == simulate(inst, patient_baseline(), seed=9).collected

    def test_pg_tightness_half(self):
        inst = make_instance("pg-tightness", eps=F(1, 3)).instance
        assert exact_expectation(inst, postponed_greedy()) == F(1, 2)

    def test_naive_greedy_single_edge_quarter(self):
        inst = OnlineInstance(WeightedGraph(2, {(1, 2): F(12)}),
                              ArrivalOrder.identity(2), 1)
        assert exact_expectation(inst, naive_greedy()) == 3  # w/4

    def test_branch_weights_sum_to_one(self):
        rng = random.Random(25)
        inst = random_instance(rng, 6, 2)
        total = sum(F(1, 2 ** len(bits))
                    for bits, _ in enumerate_branches(inst, postponed_greedy()))
        assert total == 1

    def test_flip_cap_refusal(self):
        class CoinEater(OnlinePolicy):
            def on_arrival(self, v):
                for _ in range(25):
                    self.rng.flip()
                return ()

        inst = zero_instance(2, 1)
        with pytest.raises(BranchingLimitExceeded):
            exact_expectation(inst, CoinEater())

    def test_values_over_the_flip_cap(self):
        # 44 coins for naive-greedy and 22 for pg; a pair's coins stop
        # mattering once its window closes, so the worlds merge
        inst = unit_pairs()
        assert exact_expectation(inst, naive_greedy()) == F(11, 2)  # w/4 per pair
        assert exact_expectation(inst, postponed_greedy()) == 11  # w/2 per pair

    def test_fixed_departures_are_enumerable(self):
        # fixed offsets, so only the coins branch
        graph = WeightedGraph(3, {(1, 2): F(12), (1, 3): F(4), (2, 3): F(6)})
        given = OnlineInstance(graph, ArrivalOrder.identity(3), 2, departures=(1, 1, 0))
        assert exact_expectation(given, pg_stochastic()) == 9
        assert exact_expectation(given, patient_baseline()) == 12

    def test_sampled_departure_models_are_refused(self):
        graph = WeightedGraph(2, {(1, 2): F(1)})
        for model in (geometric(F(1, 2)), tabulated({0: F(1, 2), 3: F(1, 2)})):
            inst = OnlineInstance(graph, ArrivalOrder.identity(2), 2, departure_model=model)
            with pytest.raises(BranchingLimitExceeded, match="not exactly enumerable"):
                exact_expectation(inst, patient_baseline())


def leaf_sum(instance, policy):
    """The per-branch oracle: sum of collected * 2^-len(bits) over every leaf."""
    return sum((result.collected * F(1, 2 ** len(bits))
                for bits, result in enumerate_branches(instance, policy)), F(0))


def outcome(compute):
    """The value, or the type and message of the ValueError raised."""
    try:
        return compute()
    except ValueError as exc:
        return type(exc), str(exc)


class FlipHungry(NaiveGreedy):
    """Naive-greedy that throws 20 coins away when vertex 7 arrives: that
    event splits every world 2^20 ways, so the pass hands over to the leaf
    sum, which meets the flip cap."""

    def on_arrival(self, v):
        for _ in range(20 if v == 7 else 0):
            self.rng.flip()
        return super().on_arrival(v)


class SellerHungry(NaiveGreedy):
    """Naive-greedy that throws 20 coins away when vertex 7 arrives as a
    seller, so only the worlds where vertex 7 is a seller split that far."""

    def on_arrival(self, v):
        emitted = super().on_arrival(v)
        for _ in range(20 if v == 7 and v in self.tentative else 0):
            self.rng.flip()
        return emitted


class UnguardedNaiveGreedy(NaiveGreedy):
    """Naive-greedy whose sellers close without the guard, so a seller can
    emit a pair whose buyer has departed: an invalid pair."""

    def _finalize(self, seller, buyer):
        return [(seller, buyer)]


MERGE_FACTORIES = [(spec, lambda spec=spec: make_policy(spec))
                   for spec in (*POLICY_FACTORIES, "batching:1")] + [
    ("flip-hungry", FlipHungry), ("seller-hungry", SellerHungry)]


@st.composite
def coin_instances(draw, max_n=9, max_d=4):
    """n <= max_n, d in 0..max_d, general or role-constrained, with or
    without explicit departure offsets."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(0, max_d))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from((random_instance, random_constrained_bipartite)))
    instance = make(rng, n, d)
    if draw(st.booleans()):
        offsets = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        instance = dataclasses.replace(instance, departures=tuple(offsets))
    return instance


class TestMergedExpectation:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(coin_instances())
    def test_equals_the_leaf_sum(self, instance):
        # where the leaf sum raises, the pass raises too, though its error
        # may name a pair at an earlier event than the replays reach first
        for spec, factory in MERGE_FACTORIES:
            merged = outcome(lambda: exact_expectation(instance, factory()))
            leaves = outcome(lambda: leaf_sum(instance, factory()))
            if isinstance(leaves, F):
                assert merged == leaves, spec
            else:
                assert isinstance(merged, tuple) and issubclass(merged[0], ValueError), spec

    def test_both_paths_raise_alike(self):
        departing = OnlineInstance(
            WeightedGraph(4, {(1, 2): F(2), (2, 4): F(1), (3, 4): F(3)}),
            ArrivalOrder((2, 1, 4, 3)), 2, departures=(0, 3, 1, 2))
        hungry = random_instance(random.Random(29), 7, 2)
        for instance, factory, error in ((departing, UnguardedNaiveGreedy, ValueError),
                                         (hungry, FlipHungry, BranchingLimitExceeded),
                                         (hungry, SellerHungry, BranchingLimitExceeded)):
            with pytest.raises(error) as merged:
                exact_expectation(instance, factory())
            with pytest.raises(error) as leaves:
                leaf_sum(instance, factory())
            assert (merged.type, str(merged.value)) == (leaves.type, str(leaves.value))

    def test_a_full_table_hands_over_to_the_leaf_sum(self, monkeypatch):
        # with room for one world, every split outgrows the table
        monkeypatch.setattr(engine, "MAX_WORLDS", 1)
        rng = random.Random(31)
        for n in range(1, 8):
            instance = random_instance(rng, n, 2)
            for factory in (naive_greedy, postponed_greedy):
                assert exact_expectation(instance, factory()) == leaf_sum(instance, factory())

    def test_naive_greedy_at_twelve_vertices(self):
        # the replay needs 4,096 leaves; the pass merges them as it goes
        instance = random_instance(random.Random(12), 12, 2)
        value = exact_expectation(instance, naive_greedy())
        assert value == leaf_sum(instance, naive_greedy()) == F(579, 64)


def world_after(policy, instance, bits, events):
    """`policy` after the first `events` events of the schedule with its
    coins scripted (for naive-greedy the arrivals' roles, 1 a seller), its
    view at the last event's tick, where the forward pass keys it."""
    view = engine.MarketView(instance, engine.realized_departures(instance, 0), 0)
    policy.reset(view, ScriptedBits(bits))
    for time, kind, vertex in engine.event_schedule(view._windows)[:events]:
        engine._step(policy, time, kind, vertex)
    return policy


class TestGreedyClones:
    def test_a_clone_taken_mid_run_runs_on_as_its_original(self):
        # greedy's clone shares the declared roles, which no hook writes;
        # naive-greedy keeps no roles: its open sellers are its tentative map
        rng = random.Random(15)
        for _ in range(30):
            n = rng.randint(3, 9)
            instance = random_constrained_bipartite(rng, n, rng.randint(1, 3))
            view = engine.MarketView(instance, engine.realized_departures(instance, 0), 0)
            schedule = engine.event_schedule(view._windows)
            cut = rng.randint(1, len(schedule) - 1)
            bits = tuple(rng.getrandbits(1) for _ in range(n))
            for factory in (FreeDisposalGreedy, NaiveGreedy):
                policy = world_after(factory(), instance, bits, cut)
                clone = policy.clone()
                if factory is FreeDisposalGreedy:
                    assert clone.roles is policy.roles
                runs, tail = [], bits[policy.rng.used:]  # naive-greedy: one coin per arrival
                for world in (clone, policy):
                    world.rng = ScriptedBits(tail)
                    runs.append([engine._step(world, *event) for event in schedule[cut:]])
                assert runs[0] == runs[1]

    def test_a_late_clone_holds_only_the_open_state(self):
        # a closing seller drops its price and leaves the tentative map at its
        # critical event, so a late clone is no larger than an early one
        n, d = 1000, 4
        rng = random.Random(8)
        roles = {v: rng.choice(["seller", "buyer"]) for v in range(1, n + 1)}
        weights = {(i, j): F(rng.randint(1, 16), rng.choice([1, 2, 4, 8]))
                   for i in range(1, n + 1) for j in range(i + 1, min(n, i + d) + 1)
                   if roles[i] == "seller" and roles[j] == "buyer" and rng.random() < 0.7}
        instance = OnlineInstance(WeightedGraph(n, weights), ArrivalOrder.identity(n), d,
                                  roles=roles)
        bits = tuple(rng.getrandbits(1) for _ in range(n))
        greedy = world_after(FreeDisposalGreedy(), instance, bits, 1980).clone()
        assert greedy.prices.keys() == greedy.tentative.keys() != set()
        naive = world_after(NaiveGreedy(), instance, bits, 1980).clone()
        assert naive.prices.keys() == naive.tentative.keys() != set()
        assert len(naive.tentative) <= d + 1


class TestOpenSellerKey:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(coin_instances(max_n=7, max_d=3))
    def test_equals_the_leaf_sum(self, instance):
        # on departing instances the pass raises at the earliest bad event,
        # the leaf sum at the first bad leaf, so only the type must agree
        merged = outcome(lambda: exact_expectation(instance, naive_greedy()))
        leaves = outcome(lambda: leaf_sum(instance, naive_greedy()))
        if isinstance(leaves, F):
            assert merged == leaves
        else:
            assert isinstance(merged, tuple) and issubclass(merged[0], ValueError)

    def keys(self, instance, roles_a, roles_b, events):
        return [tuple(world_after(factory(), instance, roles, events).state_key()
                      for roles in (roles_a, roles_b))
                for factory in (NaiveGreedy, AliveKeyedNaiveGreedy)]

    def test_a_displaced_buyer_keeps_no_world_apart(self):
        # vertex 2 is a buyer that 3 outbids on seller 1 in one world and a
        # seller that closes unbid in the other; in both, 1 finalizes (1, 3)
        # at tick 3, and 2 is still alive at that tick
        instance = OnlineInstance(WeightedGraph(3, {(1, 2): F(1), (1, 3): F(2)}),
                                  ArrivalOrder.identity(3), 2, departures=(2, 1, 0))
        (new_a, new_b), (old_a, old_b) = self.keys(instance, (1, 0, 0), (1, 1, 0), 5)
        assert new_a == new_b == ()
        assert old_a != old_b

    def test_a_finalized_pair_keeps_no_world_apart(self):
        # seller 1 finalizes (1, 2) at its critical event in one world; in
        # the other both are buyers. Buyer 2 stays alive, matched or not
        instance = OnlineInstance(WeightedGraph(2, {(1, 2): F(1)}),
                                  ArrivalOrder.identity(2), 2)
        (new_a, new_b), (old_a, old_b) = self.keys(instance, (1, 0), (0, 0), 3)
        assert new_a == new_b == ()
        assert old_a != old_b

    def test_fewer_hook_runs_than_the_alive_key(self):
        instance = random_instance(random.Random(12), 12, 2)
        runs = []
        for factory in (naive_greedy, AliveKeyedNaiveGreedy):
            with mock.patch.object(engine, "_step", wraps=engine._step) as step:
                assert exact_expectation(instance, factory()) == F(579, 64)
            runs.append(step.call_count)
        new, old = runs
        assert new < old


class TickRecorder(NaiveGreedy):
    """Naive-greedy that notes, each time it is keyed, the view's clock and
    the tick of the last event it ran, in a list its clones share."""

    def reset(self, view, rng):
        super().reset(view, rng)
        self.keyed, self.last = [], None

    def clone(self):
        other = super().clone()
        other.keyed, other.last = self.keyed, self.last
        return other

    def on_arrival(self, v):
        self.last = self.view.now
        return super().on_arrival(v)

    def on_critical(self, v):
        self.last = self.view.now
        return super().on_critical(v)

    def state_key(self):
        self.keyed.append((self.view.now, self.last))
        return super().state_key()


class TestOpenVertexKey:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(coin_instances())
    def test_equals_the_alive_key_and_the_leaf_sum(self, instance):
        for factory in (postponed_greedy, pg_stochastic):
            def oracle():
                policy = AliveKeyedPostponedGreedy()
                policy.name = factory().name
                return policy

            merged, runs = [], []
            for make in (factory, oracle):
                with mock.patch.object(engine, "_step", wraps=engine._step) as step:
                    merged.append(outcome(lambda: exact_expectation(instance, make())))
                runs.append(step.call_count)
            leaves = outcome(lambda: leaf_sum(instance, factory()))
            if isinstance(leaves, F):
                assert merged == [leaves, leaves]
            else:
                assert [type(m) for m in merged] == [tuple, tuple]
                assert merged[0][0] is merged[1][0] is leaves[0]
            if instance.departures is None:
                assert runs[0] <= runs[1]

    def test_a_closed_vertex_keeps_no_world_apart(self):
        # vertex 1 stays open with no bid on it; 3 bids on 2, and at tick 3
        # 2's coin finalizes (2, 3) in one world and yields in the other,
        # then both close: they are alive at that tick but no open vertex's
        # partner, so only the alive key tells the worlds apart
        instance = OnlineInstance(WeightedGraph(3, {(2, 3): F(1)}),
                                  ArrivalOrder.identity(3), 3, departures=(3, 1, 0))
        keys = [tuple(world_after(factory(), instance, coins, 5).state_key()
                      for coins in ((1,), (0,)))
                for factory in (PostponedGreedy, AliveKeyedPostponedGreedy)]
        (new_a, new_b), (old_a, old_b) = keys
        assert new_a == new_b == ((1, None, "undetermined", False, None, False),)
        assert old_a != old_b

    def test_each_world_is_keyed_at_its_event_tick(self):
        policy = TickRecorder()
        instance = random_instance(random.Random(40), 7, 1)
        assert exact_expectation(instance, policy) == leaf_sum(instance, TickRecorder())
        assert policy.keyed and all(now == last for now, last in policy.keyed)
        assert len({now for now, _ in policy.keyed}) > 1


class CoinCounter(OnlinePolicy):
    """A keyed policy whose arrival hook flips two coins and, after each,
    advances a counter mod 3 by 1 + the bit: it writes state between its
    coins on every path, so a re-run from a world past its first coin
    would count twice. A critical vertex takes its best present neighbour
    while the counter reads 0."""

    name = "coin-counter"

    def reset(self, view, rng):
        super().reset(view, rng)
        self.count = 0

    def clone(self):
        other = super().clone()
        other.count = self.count
        return other

    def state_key(self):
        return tuple(self.view.present()), self.count

    def on_arrival(self, v):
        for _ in range(2):
            self.count = (self.count + 1 + self.rng.flip()) % 3
        return ()

    def on_critical(self, v):
        if self.count or self.view.is_matched(v):
            return ()
        neighbors = self.view.revealed_neighbors(v)
        return [(v, max(neighbors, key=neighbors.get))] if neighbors else ()


def branch_outcomes(branches):
    """Each leaf's (bits, collected, schedule), then the type and message of
    the ValueError that ended the walk, if one did."""
    outcomes = []
    try:
        for bits, result in branches:
            outcomes.append((bits, result.collected, result.schedule))
    except ValueError as exc:
        outcomes.append((type(exc), str(exc)))
    return outcomes


class TestForkAtTheCoin:
    def test_state_written_between_coins(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 5)
            instance = random_instance(rng, n, rng.randint(0, 3))
            if rng.random() < 0.5:
                offsets = tuple(rng.randint(0, 4) for _ in range(n))
                instance = dataclasses.replace(instance, departures=offsets)
            assert exact_expectation(instance, CoinCounter()) == leaf_sum(instance, CoinCounter())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(coin_instances())
    def test_one_replay_per_leaf_in_the_reference_order(self, instance):
        for spec, factory in MERGE_FACTORIES:
            want = branch_outcomes(replay_branches(instance, factory()))
            with mock.patch.object(engine, "simulate", wraps=engine.simulate) as runs:
                got = branch_outcomes(enumerate_branches(instance, factory()))
            assert got == want, spec
            assert runs.call_count == len(got), spec  # a refusal is one run too

    def test_a_coin_free_world_is_never_cloned(self):
        # exact_expectation stops at its coin-free run, so call the pass itself
        class Unclonable(FreeDisposalGreedy):
            def clone(self):
                raise AssertionError("the pass cloned a world that flips no coin")

        rng = random.Random(38)
        for _ in range(20):
            instance = random_constrained_bipartite(rng, rng.randint(1, 9), rng.randint(0, 3))
            expected = simulate(instance, FreeDisposalGreedy()).collected
            assert engine._merged_expectation(instance, Unclonable()) == expected


class TestCompetitiveReport:
    def three_cycle(self, v12, v23, v31):
        return make_instance("random-order-3cycle", v12=v12, v23=v23, v31=v31).instance

    def test_batching_uniform_three_cycle(self):
        v12, v23, v31 = F(1, 7), F(2, 7), F(5)
        rows = competitive_report(
            [("c3", self.three_cycle(v12, v23, v31))],
            [("batching", batching)], arrival_model="uniform")
        row = rows[0]
        assert row.samples_or_exact == "exact"
        assert row.alg_value == (v12 + v23 + v31) / 3
        assert row.off_value == (max(v12, v23) + max(v23, v31) + max(v31, v12)) / 3

    def test_ratio_approaches_half_in_the_limit(self):
        v = F(1, 1000)
        rows = competitive_report([("c3", self.three_cycle(v, v, F(1)))],
                                  [("batching", batching)],
                                  arrival_model="uniform")
        ratio = rows[0].ratio
        assert F(499, 1000) < ratio < F(501, 1000)

    def test_csv_deterministic(self, tmp_path):
        rng = random.Random(26)
        inst = random_instance(rng, 5, 1)
        rows = competitive_report([("r", inst)],
                                  [("naive-greedy", naive_greedy)],
                                  arrival_model="uniform", seeds=8, base_seed=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(rows, p1)
        rows2 = competitive_report([("r", inst)],
                                   [("naive-greedy", naive_greedy)],
                                   arrival_model="uniform", seeds=8, base_seed=3)
        write_report_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ("instance_id,policy,arrival_model,n,d,"
                          "samples_or_exact,alg_value,off_value,ratio")

    def test_exhaustive_cap(self):
        rng = random.Random(27)
        inst = random_instance(rng, 9, 2)
        with pytest.raises(ValueError, match="n <= 8"):
            competitive_report([("big", inst)], [("patient", patient_baseline)],
                               arrival_model="uniform")

    def test_flip_cap_falls_back_to_one_sampled_run(self):
        # with d >= n no window closes, so naive-greedy's worlds never merge:
        # the table outgrows MAX_WORLDS and the leaf sum meets the flip cap
        path = OnlineInstance(WeightedGraph(21, {(i, i + 1): F(1) for i in range(1, 21)}),
                              ArrivalOrder.identity(21), 21)
        rows = competitive_report([("path", path)],
                                  [("naive-greedy", naive_greedy),
                                   ("patient", patient_baseline)])
        assert [(row.samples_or_exact, row.alg_value, row.off_value) for row in rows] == [
            ("1", 6, 10), ("exact", 10, 10)]

    def test_rows_over_the_flip_cap_are_exact(self):
        rows = competitive_report([("units", unit_pairs())],
                                  [("naive-greedy", naive_greedy),
                                   ("pg", postponed_greedy)])
        assert [(row.samples_or_exact, row.alg_value, row.off_value) for row in rows] == [
            ("exact", F(11, 2), 22), ("exact", 11, 22)]

    def test_refuses_an_unknown_arrival_model(self):
        with pytest.raises(ValueError, match="'fixed' or 'uniform'"):
            competitive_report([("r", unit_pairs(2))], [("patient", patient_baseline)],
                               arrival_model="adversarial")

    @pytest.mark.parametrize("arrival_model", ["fixed", "uniform"])
    def test_refuses_negative_seeds(self, arrival_model):
        with pytest.raises(ValueError) as refused:
            competitive_report([("r", unit_pairs(2))], [("patient", patient_baseline)],
                               arrival_model=arrival_model, seeds=-1)
        assert str(refused.value) == "seeds must be >= 0, got -1"

    def test_zero_optimum_leaves_the_ratio_empty(self, tmp_path):
        rows = competitive_report([("zero", zero_instance(3, 1))],
                                  [("patient", patient_baseline)])
        assert rows[0].ratio is None
        path = tmp_path / "zero.csv"
        write_report_csv(rows, path)
        assert path.read_text().splitlines()[1] == "zero,patient,fixed,3,1,exact,0/1,0/1,"


def modelled(model, n):
    """A run's set-up reads only the model and n: no edges are needed."""
    return OnlineInstance(WeightedGraph(n, {}), ArrivalOrder.identity(n), 2,
                          departure_model=model)


class TestOneDrawPerRun:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from((3, 5)),
                              st.sampled_from((True, 1, 1.0, 0, 7))),
                    min_size=1, max_size=12))
    def test_every_draw_is_the_models_draw_for_the_seed(self, calls):
        # equal models spelled two ways, repeats, one seed at two n, and
        # seeds that are equal as numbers but print differently
        models = (geometric(F(1, 2)), geometric("2/4"), geometric(F(1, 3)),
                  tabulated({0: F(1, 4), 3: F(3, 4)}))
        for index, n, seed in calls:
            model = models[index]
            assert engine.realized_departures(modelled(model, n), seed) == \
                engine.sample_departures(model, n, engine._derive_seed(seed, "departures"))

    def test_criterion_8s_run_draws_once(self):
        # realized_departures, simulate, realized OPT: one draw per run,
        # whatever was drawn before
        rng = random.Random(8)
        base = random_instance(rng, 8, 2)
        inst = dataclasses.replace(base, departure_model=geometric(F(1, 2)))
        with mock.patch.object(engine, "_last_drawn", ((), ())), \
                mock.patch.object(engine, "sample_departures",
                                  wraps=engine.sample_departures) as draw:
            for seed in range(5):
                deps = engine.realized_departures(inst, seed)
                result = simulate(inst, pg_stochastic(), seed=seed)
                assert result.collected <= realized_offline_optimum(inst, deps).weight
                assert draw.call_count == seed + 1
            # the benchmark's shape: two runs of one seed after the draw
            deps = engine.realized_departures(inst, 5)
            for policy in (pg_stochastic(), patient_baseline()):
                simulate(inst, policy, seed=5)
            assert draw.call_count == 6
        assert deps == engine.sample_departures(inst.departure_model, inst.n,
                                                engine._derive_seed(5, "departures"))

    def test_a_hit_derives_no_seed(self):
        inst = modelled(geometric(F(1, 2)), 6)
        with mock.patch.object(engine, "_last_drawn", ((), ())):
            drawn = engine.realized_departures(inst, 3)
            with mock.patch.object(engine, "_derive_seed", wraps=engine._derive_seed) as derive:
                assert engine.realized_departures(inst, 3) == drawn
                assert derive.call_count == 0
                engine.realized_departures(inst, True)  # a miss derives its seed once
                assert derive.call_args_list == [mock.call(True, "departures")]


class EagerBits:
    """The bit stream as it was seeded before the generator became lazy."""

    def __init__(self, seed):
        self._rng = random.Random(engine._derive_seed(seed, "policy-bits"))
        self.used = 0

    def flip(self):
        self.used += 1
        return self._rng.getrandbits(1)


class TestLazyCoins:
    def test_same_bits_as_an_eagerly_seeded_stream(self):
        for seed in (0, 1, True, 2 ** 40):
            lazy, eager = engine.BitStream(seed), EagerBits(seed)
            assert [lazy.flip() for _ in range(64)] == [eager.flip() for _ in range(64)]
            assert lazy.used == eager.used == 64

    def test_pg_stochastic_runs_are_unchanged(self):
        rng = random.Random(5)
        flipped = 0
        for index in range(20):
            base = random_instance(rng, rng.randint(2, 9), rng.choice([1, 2, 3]))
            inst = dataclasses.replace(base, departure_model=geometric(F(1, 2)))
            lazy, eager = pg_stochastic(), pg_stochastic()
            a = simulate(inst, lazy, seed=index)
            b = simulate(inst, eager, seed=index, bits=EagerBits(index))
            assert a == b and lazy.log == eager.log
            flipped += a.bits_used
        assert flipped > 0

    def test_a_coin_free_run_never_seeds_the_coins(self):
        rng = random.Random(6)
        inst = random_constrained_bipartite(rng, 8, 2)
        with mock.patch.object(engine, "_derive_seed", wraps=engine._derive_seed) as derive:
            for name in ("patient", "batching", "dda", "greedy"):
                assert simulate(inst, make_policy(name), seed=3).bits_used == 0, name
        assert all(call.args[1] != "policy-bits" for call in derive.call_args_list)
