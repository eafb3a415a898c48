import random
from fractions import Fraction as F

import pytest

from deadline_matching import (ArrivalOrder, DepartureModel, OnlineInstance,
                               WeightedGraph, deterministic, geometric,
                               hazard_alpha, instance_from_json,
                               instance_to_json, pg_stochastic,
                               postponed_greedy, realized_offline_optimum,
                               sample_departures, simulate, tabulated)
from deadline_matching.departures import as_rational
from helpers import random_instance


class TestExactNumbers:
    def test_an_exponent_up_to_the_integer_string_limit_reads(self):
        assert as_rational("1e3") == 1000
        assert as_rational("1e4300") == 10 ** 4300
        assert as_rational("1e-4300") == F(1, 10 ** 4300)

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "2.5E+999999999"])
    def test_a_larger_exponent_is_refused_before_it_is_computed(self, text):
        with pytest.raises(ValueError) as refused:
            as_rational(text)
        assert str(refused.value) == f"{text!r} has a decimal exponent beyond ±4300"


class TestSampling:
    def test_deterministic(self):
        assert sample_departures(deterministic(3), 5, 0) == (3, 3, 3, 3, 3)

    def test_geometric_mean(self):
        draws = sample_departures(geometric(F(1, 2)), 100_000, 42)
        mean = sum(draws) / len(draws)
        assert abs(mean - 1.0) < 0.02  # (1-delta)/delta with delta = 1/2

    def test_explicit_round_trips_through_files(self):
        inst = OnlineInstance(WeightedGraph(2, {(1, 2): F(1)}),
                              ArrivalOrder.identity(2), 1, departures=(0, 4))
        again = instance_from_json(instance_to_json(inst))
        assert again.departures == (0, 4)
        from deadline_matching.engine import realized_departures
        assert realized_departures(again, 99) == (0, 4)

    def test_reproducible_by_seed(self):
        a = sample_departures(geometric(F(1, 3)), 50, 7)
        b = sample_departures(geometric(F(1, 3)), 50, 7)
        assert a == b

    def test_model_validation(self):
        with pytest.raises(ValueError):
            geometric(F(3, 2))
        with pytest.raises(ValueError):
            tabulated({0: F(1, 2)})  # does not sum to 1

    def test_models_take_exact_numbers_only(self):
        # as file input does: integers and rationals, given as such or as
        # strings; floats and booleans are refused, built directly or not
        for make in (lambda: deterministic(2.5), lambda: deterministic(True),
                     lambda: geometric(0.5), lambda: geometric(True),
                     lambda: tabulated({1.5: 1}), lambda: tabulated({True: 1}),
                     lambda: tabulated({0: 0.5, 1: 0.5}), lambda: tabulated({1: True}),
                     lambda: DepartureModel("deterministic", d=2.5),
                     lambda: DepartureModel("geometric", delta=0.3),
                     lambda: DepartureModel("tabulated", pmf=((0, 0.5), (1, 0.5)))):
            with pytest.raises(TypeError, match="cannot interpret|booleans"):
                make()
        assert DepartureModel("deterministic", d="3") == deterministic(3)
        assert deterministic("3") == deterministic(3)
        assert geometric("1/2") == geometric(F(1, 2))
        assert tabulated({"1": "1/2", 0: 1 - F(1, 2)}) == tabulated({0: F(1, 2), 1: F(1, 2)})


class TestHazardAlpha:
    def test_deterministic_is_one(self):
        assert hazard_alpha(deterministic(4), 10) == 1

    def test_geometric_closed_form(self):
        for delta in (F(1, 2), F(1, 3), F(9, 10)):
            assert hazard_alpha(geometric(delta), 12) == 1 / (2 - delta)
        assert hazard_alpha(geometric(F(1, 2)), 12) >= F(1, 2)

    def test_two_point_matches_brute_force(self):
        pmf = {0: F(1, 3), 2: F(2, 3)}

        def brute(pmf, horizon):
            best = None
            for g in range(1, horizon):
                den = sum(p for t, p in pmf.items() if t >= g)
                if den == 0:
                    continue
                num = sum(p * sum(p2 for t2, p2 in pmf.items() if t2 >= t - g)
                          for t, p in pmf.items() if t >= g)
                value = num / den
                if best is None or value < best:
                    best = value
            return best

        for horizon in (3, 5, 8):
            assert hazard_alpha(tabulated(pmf), horizon) == brute(pmf, horizon)

    def test_degenerate_gaps_skipped(self):
        # support {0}: the conditioning event i + d_i >= j is impossible
        with pytest.raises(ValueError):
            hazard_alpha(tabulated({0: F(1)}), 5)


class TestPGStochastic:
    def test_trace_identical_on_deterministic_deadlines(self):
        # pg's trace is the guard-free one exactly when its guard never fires:
        # with deterministic deadlines no tentative partner departs first
        rng = random.Random(41)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 8), rng.choice([1, 2, 3]))
            for seed in (0, 1):
                policy = postponed_greedy()
                simulate(inst, policy, seed=seed)
                assert [entry for entry in policy.log if entry[0] == "guard"] == []

    def test_guard_fires_when_partner_departs(self):
        # 2 bids on 1 at its arrival, then departs immediately; at 1's
        # critical the tentative partner is gone and nothing is collected.
        inst = OnlineInstance(WeightedGraph(3, {(1, 2): F(5)}),
                              ArrivalOrder.identity(3), 2, departures=(2, 0, 0))
        for seed in range(6):
            policy = pg_stochastic()
            result = simulate(inst, policy, seed=seed)
            assert result.collected == 0
        assert any(entry[0] in ("guard", "yield") for entry in policy.log)

    def test_alpha_quarter_bound_random_sweep(self):
        # with memoryless lifetimes the guarantee is hazard_alpha / 4 of the
        # realized offline value; 2/3 / 4 = 1/6 for delta = 1/2
        from deadline_matching.engine import realized_departures
        rng = random.Random(43)
        alpha = hazard_alpha(geometric(F(1, 2)), 12)
        assert alpha == F(2, 3)
        for _ in range(4):
            base = random_instance(rng, rng.randint(3, 9), rng.choice([1, 2]))
            inst = OnlineInstance(base.graph, base.order, base.deadline,
                                  departure_model=geometric(F(1, 2)))
            runs = 2500
            diffs = []
            for seed in range(runs):
                deps = realized_departures(inst, seed)
                alg = simulate(inst, pg_stochastic(), seed=seed).collected
                off = realized_offline_optimum(inst, deps).weight
                diffs.append(float(alg - alpha / 4 * off))
            mean = sum(diffs) / runs
            var = sum((x - mean) ** 2 for x in diffs) / (runs - 1)
            stderr = (var / runs) ** 0.5
            assert mean >= -3 * stderr

    def test_single_edge_memoryless_bound(self):
        w = F(8)
        inst = OnlineInstance(WeightedGraph(2, {(1, 2): w}),
                              ArrivalOrder.identity(2), 1,
                              departure_model=geometric(F(1, 2)))
        runs = 4000
        values = []
        offs = []
        for seed in range(runs):
            from deadline_matching.engine import realized_departures
            deps = realized_departures(inst, seed)
            values.append(simulate(inst, pg_stochastic(), seed=seed).collected)
            offs.append(realized_offline_optimum(inst, deps).weight)
        mean = sum(values) / runs
        target = sum(offs) / runs / 8
        diffs = [float(v - o / 8) for v, o in zip(values, offs)]
        avg = sum(diffs) / runs
        var = sum((x - avg) ** 2 for x in diffs) / (runs - 1)
        stderr = (var / runs) ** 0.5
        assert float(mean - target) >= -3 * stderr
        # exact expectation here is w/6 (partner still present 2/3 of the
        # time the coin says seller and an edge exists); sanity window
        assert abs(float(mean) - float(w) / 6) < 0.15
