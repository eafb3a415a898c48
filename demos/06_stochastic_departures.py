"""Stochastic departures: memoryless lifetimes and the guarded finalizer.

When departures are drawn i.i.d. rather than fixed at d, a tentative partner
may vanish before the seller's critical moment. Postponed greedy's guard
then collects nothing (pg-stochastic names the same policy); under a memoryless lifetime the loss
is at most half, giving an eighth of the realized offline value overall.
"""

import random
from fractions import Fraction as F

from deadline_matching import (deterministic, geometric, hazard_alpha,
                               pg_stochastic, postponed_greedy,
                               realized_offline_optimum, simulate, tabulated)
from deadline_matching import ArrivalOrder, OnlineInstance, WeightedGraph
from deadline_matching.engine import realized_departures

# --- the hazard quantity ------------------------------------------------------
# For arrival gap g, how likely is the earlier vertex to become matchable
# again before the later one departs? The minimum over gaps is the alpha in
# the alpha/4 guarantee.
print("worst-case freeing probability (exact):")
print("  deterministic deadline:", hazard_alpha(deterministic(3), 10))
for delta in (F(1, 2), F(1, 4)):
    print(f"  geometric(delta={delta}): {hazard_alpha(geometric(delta), 12)} "
          f"(= 1/(2-delta), independent of the gap)")
print("  two-point table {0: 1/3, 2: 2/3}:",
      hazard_alpha(tabulated({0: F(1, 3), 2: F(2, 3)}), 8))

# --- the guard in action --------------------------------------------------------
inst = OnlineInstance(WeightedGraph(3, {(1, 2): F(5)}),
                      ArrivalOrder.identity(3), 2, departures=(2, 0, 0))
policy = pg_stochastic()
run = simulate(inst, policy)
print()
print("vertex 2 bids on 1 and then departs immediately:")
print("  guarded run collects", run.collected, "| log:", policy.log)

# --- Monte-Carlo check of the eighth bound ---------------------------------------
rng = random.Random(9)
n, d = 8, 2
weights = {}
for i in range(1, n + 1):
    for j in range(i + 1, n + 1):
        if rng.random() < 0.7:
            weights[(i, j)] = F(rng.randint(1, 16), rng.choice([1, 2, 4]))
inst = OnlineInstance(WeightedGraph(n, weights), ArrivalOrder.identity(n), d,
                      departure_model=geometric(F(1, 2)))
runs = 3000
alg_total, off_total = F(0), F(0)
for seed in range(runs):
    deps = realized_departures(inst, seed)
    alg_total += simulate(inst, pg_stochastic(), seed=seed).collected
    off_total += realized_offline_optimum(inst, deps).weight
print()
print(f"geometric(1/2) lifetimes, {runs} runs on a random n={n} instance:")
print(f"  mean collected {float(alg_total / runs):.4f} "
      f"vs realized offline / 8 = {float(off_total / runs / 8):.4f}")

# with deterministic deadlines the guard never fires
base = OnlineInstance(WeightedGraph(n, weights), ArrivalOrder.identity(n), d)
policy = postponed_greedy()
simulate(base, policy, seed=3)
print()
print("deterministic deadlines: the guard never fires:",
      all(entry[0] != "guard" for entry in policy.log))
