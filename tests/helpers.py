"""Shared instance generators for the test suite.

Weights use small power-of-two denominators so exact arithmetic stays fast
across large sweeps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from deadline_matching import ArrivalOrder, OnlineInstance, WeightedGraph

DENOMINATORS = (1, 2, 4, 8)


def random_weight(rng: random.Random, max_num: int = 16) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.choice(DENOMINATORS))


def random_order(rng: random.Random, n: int) -> ArrivalOrder:
    slots = list(range(1, n + 1))
    rng.shuffle(slots)
    return ArrivalOrder(tuple(slots))


def random_instance(rng: random.Random, n: int, d: int, density: float = 0.7,
                    max_num: int = 16, identity_order: bool = False) -> OnlineInstance:
    weights = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < density:
                w = random_weight(rng, max_num)
                if w:
                    weights[(i, j)] = w
    order = ArrivalOrder.identity(n) if identity_order else random_order(rng, n)
    return OnlineInstance(WeightedGraph(n, weights), order, d)


def random_complete_graph(rng: random.Random, n: int, max_num: int = 16) -> WeightedGraph:
    weights = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            weights[(i, j)] = random_weight(rng, max_num)
    return WeightedGraph(n, weights)


def random_constrained_bipartite(rng: random.Random, n: int, d: int,
                                 density: float = 0.7,
                                 max_num: int = 16) -> OnlineInstance:
    """Random roles; edges only from sellers to later-arriving buyers."""
    order = random_order(rng, n)
    roles = {v: rng.choice(["seller", "buyer"]) for v in range(1, n + 1)}
    weights = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s, b = (i, j) if order.slot_of(i) < order.slot_of(j) else (j, i)
            if roles[s] == "seller" and roles[b] == "buyer" and rng.random() < density:
                w = random_weight(rng, max_num)
                if w:
                    weights[(i, j)] = w
    return OnlineInstance(WeightedGraph(n, weights), order, d, roles=roles)


def unit_pairs(pairs: int = 22) -> OnlineInstance:
    """Disjoint unit edges (1, 2), (3, 4), ... in arrival order, d = 1:
    naive-greedy flips one coin per arrival, pg one per pair."""
    n = 2 * pairs
    return OnlineInstance(WeightedGraph(n, {(2 * i - 1, 2 * i): Fraction(1)
                                            for i in range(1, pairs + 1)}),
                          ArrivalOrder.identity(n), 1)


def rows_of(n: int, table) -> list[dict[int, int]]:
    """A hand-written {(u, v): w} table with u < v as per-vertex rows 0..n,
    the form `offline._band_dp` and `band_matching` read: each pair entered
    at both ends, every row ascending."""
    rows: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for (u, v), w in sorted(table.items()):
        rows[u][v] = rows[v][u] = w
    return rows
