"""The four benchmark workloads: inputs from a seed, timed items, exact checks.

Every workload is a prelude of seed-independent items followed by cycles of
items. A cycle has the same composition in every run and on every seed (the
seed only draws weights, orders, roles and departures), and a run always
measures whole cycles, so the item mix never depends on where the clock
stopped. Item inputs are built before their cycle starts, outside the timed
region.

Library functions are always looked up on their module at call time
(``engine.simulate``, never a local alias), so the traced run can replace
the name each caller resolves.

An item returns ``(failures, outputs)``. ``failures`` lists every exactness
check that did not hold, compared as Fractions with no tolerance; ``outputs``
is the exact result in a canonical text form, hashed into the pinned digest.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import permutations

from deadline_matching import coverlp, engine, masks, offline
from deadline_matching.departures import geometric
from deadline_matching.graphs import ArrivalOrder, OnlineInstance, WeightedGraph

DENOMINATORS = (1, 2, 4, 8)


def _weight(rng: random.Random, max_num: int = 16) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.choice(DENOMINATORS))


def _order(rng: random.Random, n: int) -> ArrivalOrder:
    slots = list(range(1, n + 1))
    rng.shuffle(slots)
    return ArrivalOrder(tuple(slots))


def general_instance(rng: random.Random, n: int, d: int, **extra) -> OnlineInstance:
    weights = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.7:
                w = _weight(rng)
                if w:
                    weights[(i, j)] = w
    return OnlineInstance(WeightedGraph(n, weights), _order(rng, n), d, **extra)


def bipartite_instance(rng: random.Random, n: int, d: int) -> OnlineInstance:
    """Random roles; edges only from a seller to a later-arriving buyer."""
    order = _order(rng, n)
    roles = {v: rng.choice(("seller", "buyer")) for v in range(1, n + 1)}
    weights = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s, b = (i, j) if order.slot_of(i) < order.slot_of(j) else (j, i)
            if roles[s] == "seller" and roles[b] == "buyer" and rng.random() < 0.7:
                w = _weight(rng)
                if w:
                    weights[(i, j)] = w
    return OnlineInstance(WeightedGraph(n, weights), order, d, roles=roles)


def banded_instance(rng: random.Random, n: int, d: int) -> OnlineInstance:
    """Role-constrained instance in identity order with edges only inside the
    deadline band, so its size grows linearly in n."""
    roles = {v: rng.choice(("seller", "buyer")) for v in range(1, n + 1)}
    weights = {}
    for i in range(1, n + 1):
        for j in range(i + 1, min(n, i + d) + 1):
            if roles[i] == "seller" and roles[j] == "buyer" and rng.random() < 0.7:
                w = _weight(rng)
                if w:
                    weights[(i, j)] = w
    return OnlineInstance(WeightedGraph(n, weights), ArrivalOrder.identity(n), d,
                          roles=roles)


def complete_graph(rng: random.Random, n: int) -> WeightedGraph:
    return WeightedGraph(n, {(i, j): _weight(rng, 8)
                             for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def _text(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _run_text(result) -> str:
    """A run's exact value, pairs and match times in canonical form."""
    schedule = ",".join(f"{i}-{j}@{t}" for (i, j), t in sorted(result.schedule.items()))
    return f"{_text(result.collected)};{schedule}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Item:
    """One timed unit of work: a label and a closure over its inputs."""

    __slots__ = ("label", "run")

    def __init__(self, label: str, run):
        self.label = label
        self.run = run


class Workload:
    """Subclasses define the prelude and the cycles; ``tail_pct`` is fixed per
    workload so that the tail metric names the same percentile on every run."""

    name = ""
    tail_pct = 90.0

    def __init__(self, pins: dict, make_policy):
        self.pins = pins
        self.make_policy = make_policy

    def attempted(self, key: str) -> list[str]:
        """The policies run on this input class, from the applicability
        table in pins.json."""
        return list(self.pins["applicability"][key]["attempt"])

    def prelude(self) -> list[Item]:
        return []

    def cycle(self, seed: int, index: int) -> list[Item]:
        raise NotImplementedError

    def _rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{index}")


# ---------------------------------------------------------------------------

class ExactSweep(Workload):
    """Coin-exact expectations: OPT, then every applicable policy's exact
    expectation over its fair coins, with pg's offline dual on every branch."""

    name = "exact-sweep"
    tail_pct = 90.0
    sizes = range(4, 11)
    deadlines = (1, 2, 3)

    def cycle(self, seed, index):
        rng = self._rng(seed, index)
        items = []
        for n in self.sizes:
            for d in self.deadlines:
                for kind in ("general", "role-constrained"):
                    make = general_instance if kind == "general" else bipartite_instance
                    inst = make(rng, n, d)
                    names = self.attempted(f"exact-sweep/{kind}")
                    items.append(Item(f"{kind} n={n} d={d}", self._item(inst, names)))
        return items

    def _item(self, inst, names):
        def run():
            failures = []
            opt = offline.offline_optimum(inst).weight
            values = {}
            for name in names:
                policy = self.make_policy(name)
                if name == "pg":
                    value = Fraction(0)
                    for bits, result in engine.enumerate_branches(inst, policy):
                        report = offline.verify_offline_dual(
                            inst, policy.dual_vector(), claimed_primal=opt)
                        if not (report.feasible and report.weak_duality_ok):
                            failures.append(f"pg dual fails on branch {bits}: {report}")
                        value += result.collected * Fraction(1, 2 ** len(bits))
                else:
                    value = engine.exact_expectation(inst, policy)
                values[name] = value
                if value > opt:
                    failures.append(f"{name}: E = {value} > OPT = {opt}")
            if "pg" in values and 4 * values["pg"] < opt:
                failures.append(f"pg: 4E = {4 * values['pg']} < OPT = {opt}")
            for name in ("greedy", "dda"):
                if name in values and 2 * values[name] < opt:
                    failures.append(f"{name}: 2E = {2 * values[name]} < OPT = {opt}")
            outputs = f"OPT={_text(opt)};" + ";".join(
                f"{name}={_text(v)}" for name, v in values.items())
            return failures, outputs
        return run


class StochasticMC(Workload):
    """One seeded run under geometric(1/2) departures against the realized
    offline optimum, as in criterion 8."""

    name = "stochastic-mc"
    tail_pct = 99.0
    sizes = range(6, 13)
    deadlines = (1, 2, 3)

    def cycle(self, seed, index):
        rng = self._rng(seed, index)
        names = self.attempted("stochastic-mc")
        items = []
        for n in self.sizes:
            for d in self.deadlines:
                inst = general_instance(rng, n, d, departure_model=geometric(Fraction(1, 2)))
                run_seed = rng.getrandbits(32)
                items.append(Item(f"n={n} d={d} seed={run_seed}",
                                  self._item(inst, run_seed, names)))
        return items

    def _item(self, inst, run_seed, names):
        def run():
            failures = []
            deps = engine.realized_departures(inst, run_seed)
            results = {name: engine.simulate(inst, self.make_policy(name), seed=run_seed)
                       for name in names}
            off = offline.realized_offline_optimum(inst, deps).weight
            for name, result in results.items():
                if result.collected > off:
                    failures.append(
                        f"{name}: value {result.collected} > realized OPT {off}")
            outputs = (f"deps={deps};OPT={_text(off)};"
                       + ";".join(f"{name}={_run_text(r)}" for name, r in results.items()))
            return failures, outputs
        return run


class LongHorizon(Workload):
    """One simulate run of one policy on a role-constrained banded instance
    with d = 4 and n = 1000; one cycle runs each applicable policy once, each
    on its own instance. Policy costs differ by up to 30x, so the latencies
    form one group per policy; with an odd number of policies the median
    lies inside a group instead of between two."""

    name = "long-horizon"
    tail_pct = 75.0
    n = 1000
    d = 4

    def cycle(self, seed, index):
        rng = self._rng(seed, index)
        items = []
        for name in self.attempted("long-horizon"):
            inst = banded_instance(rng, self.n, self.d)
            run_seed = rng.getrandbits(32)
            items.append(Item(f"{name} n={self.n} d={self.d}",
                              self._item(inst, name, run_seed)))
        return items

    def _item(self, inst, name, run_seed):
        def run():
            result = engine.simulate(inst, self.make_policy(name), seed=run_seed)
            opt = offline.arrival_window_matching_value(inst.graph, inst.order.slots,
                                                        inst.deadline)
            failures = []
            if result.collected > opt:
                failures.append(f"{name}: value {result.collected} > window OPT {opt}")
            return failures, f"OPT={_text(opt)};{name}={_run_text(result)}"
        return run


class CoverCertify(Workload):
    """Covering LPs with their certificates, then criterion-2 sweeps.

    The prelude solves each covering LP once (its inputs take no seed, so a
    run never repeats one). A cycle is one criterion-2 sweep on a fresh
    random complete graph on 8 vertices: all 8! arrival orders, the window
    DP against the batched value at d = 1, then the bound from the alpha_1
    certificate extended to n = 8. The 8! orders are timed as eight items
    of 7! orders each (one per slot of vertex 1), so that a run has enough
    items for a latency tail; the inequality is checked on the eighth.
    """

    name = "cover-certify"
    tail_pct = 75.0
    lps = (("lp", 1), ("lp", 2), ("lp", 3), ("lp-prime", 2), ("lp-prime", 3),
           ("lp-prime", 4))
    graph_n = 8
    chunks = 8

    def __init__(self, pins, make_policy):
        super().__init__(pins, make_policy)
        self.orders = list(permutations(range(1, self.graph_n + 1)))
        self.base_certificate = None

    def prelude(self):
        return [Item(f"{variant} {parameter}", self._lp_item(variant, parameter))
                for variant, parameter in self.lps]

    def _lp_item(self, variant, parameter):
        def run():
            result = coverlp.solve_cover_lp(variant, parameter)
            report = coverlp.verify_certificate(
                result.certificate, masks.cycle_power(result.n, result.target_power))
            failures = []
            if not report.ok:
                failures.append(f"{variant} {parameter}: certificate fails: {report}")
            expected = Fraction(self.pins["alpha"][f"{variant} {parameter}"])
            if result.alpha != expected:
                failures.append(f"{variant} {parameter}: alpha {result.alpha} != {expected}")
            if (variant, parameter) == ("lp", 1):
                self.base_certificate = result.certificate
            cert = coverlp.certificate_to_json(result.certificate)
            outputs = (f"alpha={_text(result.alpha)};columns={result.column_count};"
                       f"orbits={result.orbit_count};certificate={cert}")
            return failures, outputs
        return run

    def cycle(self, seed, index):
        graph = complete_graph(self._rng(seed, index), self.graph_n)
        sums = [Fraction(0), Fraction(0)]
        size = len(self.orders) // self.chunks
        return [Item(f"sweep {k + 1}/{self.chunks}",
                     self._sweep_item(graph, self.orders[k * size:(k + 1) * size],
                                      sums, last=k == self.chunks - 1))
                for k in range(self.chunks)]

    def _sweep_item(self, graph, orders, sums, last):
        def run():
            lhs = rhs = Fraction(0)
            for sigma in orders:
                lhs += offline.arrival_window_matching_value(graph, sigma, 1)
                rhs += offline.batched_matching_value(graph, sigma, 1)
            sums[0] += lhs
            sums[1] += rhs
            outputs = f"window={_text(lhs)};batched={_text(rhs)}"
            if not last:
                return [], outputs
            if self.base_certificate is None:
                return ["no alpha_1 certificate from the prelude"], outputs
            cert = coverlp.extend_cover(self.base_certificate, self.graph_n)
            report = coverlp.verify_certificate(cert, masks.cycle_power(self.graph_n, 1))
            failures = []
            if not report.ok:
                failures.append(f"extended certificate fails: {report}")
            if cert.alpha != Fraction(self.pins["alpha"]["lp 1"]):
                failures.append(f"extended alpha {cert.alpha} != alpha_1")
            if sums[0] > cert.alpha * sums[1]:
                failures.append(f"sweep: {sums[0]} > {cert.alpha} * {sums[1]}")
            outputs += f";alpha={_text(cert.alpha)};total={_text(sums[0])}/{_text(sums[1])}"
            return failures, outputs
        return run


WORKLOADS = {w.name: w for w in (ExactSweep, StochasticMC, LongHorizon, CoverCertify)}
