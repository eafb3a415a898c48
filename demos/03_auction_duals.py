"""Deferred acceptance with exact auction duals.

The policy keeps a maximum-weight tentative matching at all times: each
arriving buyer triggers an incremental rebalance along tight edges, prices
only rise, margins only fall, and the dual mass over pre-existing vertices
is conserved per arrival. collected = sum p^f + sum q^f = sum q^i, exactly.
"""

import random
from fractions import Fraction as F

from deadline_matching import (ArrivalOrder, AuctionMarket, OnlineInstance,
                               WeightedGraph, dda, hungarian_bipartite,
                               offline_optimum, simulate)

# --- one seller, two buyers: displacement without regret -------------------
graph = WeightedGraph(3, {(1, 2): F(1), (1, 3): F(2)})
inst = OnlineInstance(graph, ArrivalOrder.identity(3), 2,
                      roles={1: "seller", 2: "buyer", 3: "buyer"})
policy = dda()
result = simulate(inst, policy)
print("seller 1, buyers 2 then 3 bidding 1 then 2:")
print("  final pair:", sorted(result.pairs), "value", result.collected)
p_f, q_f, q_i = policy.conservation_sums()
print(f"  sum p^f = {p_f}, sum q^f = {q_f}, sum q^i = {q_i}  "
      f"(p^f + q^f == q^i: {p_f + q_f == q_i})")

# --- inserting buyers one at a time solves the market exactly --------------
sellers, buyers = [1, 2], [3, 4]
weights = {(1, 3): F(3, 5), (2, 3): F(1), (1, 4): F(2), (2, 4): F(1, 2)}
matching, prices, margins = hungarian_bipartite(sellers, buyers, weights)
print()
print("hungarian on a 2x2 market:", matching.sorted_pairs(), "value", matching.weight)
print("  prices:", prices, " margins:", margins)
total = sum(prices.values(), F(0)) + sum(margins.values(), F(0))
print("  strong duality: price+margin mass =", total, "== value:", total == matching.weight)

# --- dual trajectories are monotone -----------------------------------------
rng = random.Random(1)
n = 10
order_slots = list(range(1, n + 1))
rng.shuffle(order_slots)
roles = {v: ("seller" if rng.random() < 0.5 else "buyer") for v in range(1, n + 1)}
order = ArrivalOrder(tuple(order_slots))
w = {}
for i in range(1, n + 1):
    for j in range(i + 1, n + 1):
        s, b = (i, j) if order.slot_of(i) < order.slot_of(j) else (j, i)
        if roles[s] == "seller" and roles[b] == "buyer" and rng.random() < 0.8:
            w[(i, j)] = F(rng.randint(1, 16), rng.choice([1, 2, 4]))
inst = OnlineInstance(WeightedGraph(n, w), order, 3, roles=roles)
policy = dda()
run = simulate(inst, policy)
print()
print(f"random constrained bipartite market (n={n}):")
print("  collected", run.collected, "vs offline", offline_optimum(inst).weight,
      "(at least half, exactly)")
for s, series in sorted(policy.price_history.items()):
    if len(set(series)) > 1:
        print(f"  price path of seller {s}:", " -> ".join(str(x) for x in dict.fromkeys(series)))
        break
