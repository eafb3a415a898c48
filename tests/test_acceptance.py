"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. All numeric checks are exact unless a tolerance is part
of the criterion itself.
"""

import random
import time
from fractions import Fraction as F
from itertools import permutations

from deadline_matching import (RootFive, arrival_window_matching_value,
                               batched_matching_value, batching,
                               competitive_report, cycle_power, dda,
                               enumerate_branches, exact_expectation,
                               extend_cover, golden_ratio_fixed_point,
                               greedy_free_disposal, lookahead_cover, make_instance,
                               offline_optimum, optimal_online_bounds,
                               pg_stochastic, postponed_greedy,
                               realized_offline_optimum, simulate,
                               solve_cover_lp, verify_certificate,
                               verify_offline_dual)
from deadline_matching.engine import realized_departures
from deadline_matching.graphs import OnlineInstance
from deadline_matching.departures import geometric

from helpers import (random_complete_graph, random_constrained_bipartite,
                     random_instance)


def check(lines, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    lines.append((label, ok))
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    return ok


def finish(lines):
    failed = [label for label, ok in lines if not ok]
    assert not failed, f"criteria failed: {failed}"


def test_criterion_1_covering_lp_values():
    """Exact covering-LP optima against the pinned table ranges."""
    t0 = time.time()
    lines = []
    expectations = [
        ("lp", 1, "alpha_1", F(2), F(2)),
        ("lp", 2, "alpha_2", F(2325, 1000), F(2335, 1000)),
        ("lp", 3, "alpha_3", F(5, 2), F(5, 2)),
        ("lp", 4, "alpha_4", F(2635, 1000), F(2645, 1000)),
        ("lp-prime", 4, "alpha'_4", F(3165, 1000), F(3175, 1000)),
    ]
    for variant, parameter, label, low, high in expectations:
        result = solve_cover_lp(variant, parameter)
        target = cycle_power(result.n, result.target_power)
        verified = verify_certificate(result.certificate, target).ok
        in_range = low <= result.alpha <= high
        detail = (f"exact optimum {result.alpha} = {float(result.alpha):.4f}, "
                  f"target range [{float(low)}, {float(high)}], "
                  f"certificate {'verifies' if verified else 'BROKEN'}")
        if not in_range and verified and result.alpha < low:
            detail += "; the exact LP optimum certifies a strictly better cover"
        check(lines, f"1 {label}", in_range and verified, detail)
    print(f"criterion 1 took {time.time() - t0:.1f}s")
    finish(lines)


def test_criterion_2_cover_inequality_pipeline():
    """alpha_1 certificate, extended, bounds the 8!-order sweep exactly."""
    t0 = time.time()
    lines = []
    base = solve_cover_lp("lp", 1).certificate
    cert = extend_cover(base, 8)
    check(lines, "2 extension", cert.alpha == 2
          and verify_certificate(cert, cycle_power(8, 1)).ok,
          f"alpha = {cert.alpha}")
    rng = random.Random(20240817)
    perms = list(permutations(range(1, 9)))
    worst_gap = None
    ok = True
    for _ in range(20):
        g = random_complete_graph(rng, 8, max_num=8)
        lhs = F(0)
        rhs = F(0)
        for sigma in perms:
            lhs += arrival_window_matching_value(g, sigma, 1)
            rhs += batched_matching_value(g, sigma, 1)
        ok = ok and lhs <= cert.alpha * rhs
        gap = cert.alpha * rhs - lhs
        worst_gap = gap if worst_gap is None else min(worst_gap, gap)
    check(lines, "2 inequality", ok,
          f"20 graphs x 40320 orders, exact; smallest slack {worst_gap}")
    print(f"criterion 2 took {time.time() - t0:.1f}s")
    finish(lines)


def test_criterion_3_pg_guarantee_sweep():
    """PG quarter guarantee and dual feasibility on every branch, 500 runs."""
    t0 = time.time()
    lines = []
    rng = random.Random(31415)
    guarantee_ok = True
    duals_ok = True
    worst = None
    for _ in range(500):
        inst = random_instance(rng, rng.randint(2, 8), rng.choice([1, 2, 3]))
        opt = offline_optimum(inst).weight
        policy = postponed_greedy()
        value = F(0)
        for bits, result in enumerate_branches(inst, policy):
            report = verify_offline_dual(inst, policy.dual_vector(),
                                         claimed_primal=opt)
            duals_ok = duals_ok and report.feasible and report.weak_duality_ok
            value += result.collected * F(1, 2 ** len(bits))
        guarantee_ok = guarantee_ok and 4 * value >= opt
        if opt:
            ratio = value / opt
            worst = ratio if worst is None else min(worst, ratio)
    check(lines, "3 quarter guarantee", guarantee_ok,
          f"500 instances, worst exact ratio {worst} = {float(worst):.4f}")
    check(lines, "3 dual feasibility", duals_ok, "every branch, exact")
    print(f"criterion 3 took {time.time() - t0:.1f}s")
    finish(lines)


def test_criterion_4_pg_tightness():
    lines = []
    for eps in (F(1, 10), F(1, 100)):
        inst = make_instance("pg-tightness", eps=eps).instance
        value = exact_expectation(inst, postponed_greedy())
        opt = offline_optimum(inst).weight
        ok = value == F(1, 2) and value / opt == 1 / (4 - 2 * eps)
        check(lines, f"4 eps={eps}", ok,
              f"E = {value}, ratio = {value / opt} = 1/(4-2*{eps})")
    finish(lines)


def test_criterion_5_bipartite_guarantees():
    """Greedy and DDA half guarantees plus DDA's exact dual bookkeeping."""
    t0 = time.time()
    lines = []
    rng = random.Random(27182)
    greedy_ok = dda_ok = conservation_ok = monotone_ok = True
    for _ in range(500):
        inst = random_constrained_bipartite(rng, rng.randint(2, 10),
                                            rng.choice([1, 2, 3]))
        opt = offline_optimum(inst).weight
        greedy_ok = greedy_ok and 2 * simulate(inst, greedy_free_disposal()).collected >= opt
        policy = dda()
        dda_ok = dda_ok and 2 * simulate(inst, policy).collected >= opt
        p_f, q_f, q_i = policy.conservation_sums()
        conservation_ok = conservation_ok and p_f + q_f == q_i
        monotone_ok = monotone_ok and all(
            a <= b for s in policy.price_history.values()
            for a, b in zip(s, s[1:])) and all(
            a >= b for s in policy.margin_history.values()
            for a, b in zip(s, s[1:]))
    check(lines, "5 greedy half guarantee", greedy_ok, "500 instances, exact")
    check(lines, "5 dda half guarantee", dda_ok, "500 instances, exact")
    check(lines, "5 dda conservation", conservation_ok,
          "sum p^f + sum q^f == sum q^i on every run")
    check(lines, "5 dda monotone duals", monotone_ok,
          "prices never fall, margins never rise")
    print(f"criterion 5 took {time.time() - t0:.1f}s")
    finish(lines)


def test_criterion_6_lower_bounds():
    lines = []
    randomized = optimal_online_bounds("constrained-randomized-lb", "randomized")
    check(lines, "6 randomized bound", randomized == F(4, 5),
          f"max-min over the 2x2 game = {randomized}")
    wstar, bound = golden_ratio_fixed_point()
    golden_ok = bound == wstar and wstar == RootFive(F(-1, 2), F(1, 2))
    check(lines, "6 deterministic bound", golden_ok,
          f"fixed point at w* = {wstar}")
    v = F(1, 1000)
    named = make_instance("random-order-3cycle", v12=v, v23=v, v31=F(1))
    rows = competitive_report([(named.name, named.instance)],
                              [("batching", batching)], arrival_model="uniform")
    row = rows[0]
    ratio_ok = (row.alg_value == (2 * v + 1) / 3
                and row.off_value == (v + 2) / 3
                and F(499, 1000) <= row.ratio <= F(501, 1000))
    check(lines, "6 random-order limit", ratio_ok,
          f"E[ALG] = {row.alg_value}, E[OFF] = {row.off_value}, "
          f"ratio = {float(row.ratio):.6f}")
    finish(lines)


def test_criterion_7_lookahead():
    lines = []
    cert = lookahead_cover(8, 2, 1)
    check(lines, "7 lookahead cover", cert.alpha == 2
          and verify_certificate(cert, cycle_power(8, 2)).ok,
          f"alpha = {cert.alpha} on C_8^2")
    rng = random.Random(1618)
    purity_ok = True
    for _ in range(60):
        n, d = rng.randint(2, 10), rng.choice([1, 2])
        l = rng.choice([0, 1, 2])
        inst = random_instance(rng, n, d)
        result = simulate(inst, batching(lookahead=l))
        width = d + l + 1
        for i, j in result.pairs:
            bi = (inst.order.slot_of(i) + width - 1) // width
            bj = (inst.order.slot_of(j) + width - 1) // width
            purity_ok = purity_ok and bi == bj
    check(lines, "7 no cross-batch pairs", purity_ok, "60 random runs")
    trace_ok = True
    for _ in range(40):
        n, d = rng.randint(2, 9), rng.choice([1, 2])
        inst = random_instance(rng, n, d)
        wider = OnlineInstance(inst.graph, inst.order, 2 * d)
        a = simulate(inst, batching(lookahead=d))
        b = simulate(wider, batching())
        trace_ok = trace_ok and (a.pairs, a.schedule, a.collected) == (
            b.pairs, b.schedule, b.collected)
    check(lines, "7 l=d equals deadline 2d", trace_ok,
          "pairs, times, and value coincide")
    finish(lines)


def test_criterion_8_stochastic_departures():
    """Memoryless departures: Monte-Carlo eighth bound and the trace identity.

    The benchmark is the realized offline optimum (best matching among pairs
    whose presence windows overlapped); 100k simulation runs spread over 20
    instances at 5000 runs each.
    """
    t0 = time.time()
    lines = []
    rng = random.Random(577215)
    runs_per_instance = 5000
    bound_ok = True
    margins = []
    for index in range(20):
        base = random_instance(rng, rng.randint(2, 10), rng.choice([1, 2, 3]))
        inst = OnlineInstance(base.graph, base.order, base.deadline,
                              departure_model=geometric(F(1, 2)))
        diffs = []
        for r in range(runs_per_instance):
            seed = index * runs_per_instance + r
            deps = realized_departures(inst, seed)
            alg = simulate(inst, pg_stochastic(), seed=seed).collected
            off = realized_offline_optimum(inst, deps).weight
            diffs.append(float(alg - off / 8))
        mean = sum(diffs) / len(diffs)
        var = sum((x - mean) ** 2 for x in diffs) / (len(diffs) - 1)
        stderr = (var / len(diffs)) ** 0.5
        margins.append(mean / stderr if stderr else float("inf"))
        bound_ok = bound_ok and mean >= -3 * stderr
    check(lines, "8 eighth bound", bound_ok,
          f"20 instances x {runs_per_instance} runs, "
          f"smallest margin {min(margins):.1f} standard errors")
    # pg-stochastic's trace is the guard-free one exactly when its guard
    # never fires: with deterministic deadlines no tentative partner departs
    trace_ok = True
    for _ in range(50):
        inst = random_instance(rng, rng.randint(2, 9), rng.choice([1, 2, 3]))
        for seed in (0, 1):
            policy = pg_stochastic()
            simulate(inst, policy, seed=seed)
            trace_ok = trace_ok and not any(entry[0] == "guard" for entry in policy.log)
    check(lines, "8 deterministic trace identity", trace_ok,
          "no guard entry in pg-stochastic's log, 50 instances x 2 seeds")
    print(f"criterion 8 took {time.time() - t0:.1f}s")
    finish(lines)
