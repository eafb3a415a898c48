"""One pinned behaviour corpus: a sha256 per policy spec and per evaluator.

A fixed seeded corpus of small instances (n 2..8, d 1..3; a third general,
a third role-constrained, a third under geometric(1/2) departures) runs
through every policy spec and every exact evaluator, and the five gallery
instances at default parameters run through every spec. Each output, or the
text of the error it raises, is hashed into one digest per name, so a
refactor that changes any value, pair, trace, log entry, tie-break or error
text moves a named digest. Certificate loads hash the loaded JSON or the
error line over hand-written generator files, valid and malformed.

A change that moves a digest on purpose re-pins only that digest and says
why in CHANGES.md; the corpus generator and its seed stay fixed.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F
from functools import cache

import pytest

from deadline_matching import (competitive_report, exact_expectation, make_instance,
                               make_policy, simulate, solve_cover_lp)
from deadline_matching.cli import _with_roles
from deadline_matching.coverlp import certificate_from_json, certificate_to_json
from deadline_matching.departures import geometric
from deadline_matching.engine import realized_departures
from deadline_matching.offline import (arrival_window_matching_value, batched_matching_value,
                                       offline_optimum, realized_offline_optimum)
from deadline_matching.policies import POLICY_FACTORIES, PostponedGreedy
from helpers import random_constrained_bipartite, random_instance

SPECS = (*POLICY_FACTORIES, "batching:1")
SEEDS = (0, 1)
GALLERY = ("basic-tradeoff", "constrained-deterministic-lb", "constrained-randomized-lb",
           "pg-tightness", "random-order-3cycle")

# sha256 of each name's outputs over the corpus, as the library gave them
# when these pins were taken
PINNED_BEHAVIOUR_DIGESTS = {
    "greedy": "60b7a1ae615d676294fe393f158dca3181edd1b08b27f0e3b4096f377c41e41e",
    "naive-greedy": "a14771289d9590b6ff83a9f46f117c57015aaef36e069e8996ec4f70d7b0b467",
    "pg": "638e377d0a7ac898ff12ff3240a7caa55dfc597d70f2fb097abb04fe06e276ff",
    "pg-stochastic": "5feb802fb977034a2b7351582e1a574b7586cf3381f82b5956d10afce189ad6a",
    "dda": "4ab34b479f706741aad978ba1428d8fb7ca96ab46098a698021a19df2000d75f",
    "batching": "17a0c09c265537332a79c7806a3ba20c06f41fb93dd7aa7a2aaee685fa900728",
    "patient": "c4ae0653b5f9c52bda0a4148c123b679a084ed3894bf07ae12744610fdb3ae1b",
    "batching:1": "2e5dea31231a19b75f13c0376796f74c19ab75e5b3c6131a27a7a340d312f489",
    "window and batched values": "631b03cbd8e04a586fdca9995d40727c797bab07b1f14c75617934da7024e014",
    "offline and realized optima": "8c89029d837cf71e1afcec83f878172bfaf2cc15c32e58813fa687f0384b038f",
    "exact expectations": "c348f03668ed146798b24efe50a8b65eb7e28a114eccb8dbe23b5571b3eb19c7",
    "competitive report rows": "3233d37d7c3bc3e4c0f964107fd66dac296692aa978126a67c118bdaf60ce574",
    "certificate loads": "da251dc6a378885a3c4876adf1c5ece9245dc652b4cfc0f8cf2e983ed2b3d3b4",
    "gallery": "42d086507b7a17630068cd6a43a8a936b2b00bc677e97561ec09c5592c0e43cb",
}


@cache
def corpus():
    rng = random.Random(2028)
    instances = []
    for k in range(60):
        n, d = rng.randint(2, 8), rng.randint(1, 3)
        if k % 3 == 0:
            inst = random_instance(rng, n, d)
        elif k % 3 == 1:
            inst = random_constrained_bipartite(rng, n, d)
        else:
            inst = replace(random_instance(rng, n, d), departure_model=geometric(F(1, 2)))
        instances.append(inst)
    return tuple(instances)


def outcome(fn, *args):
    """What a call gives: its value, or its error's type and text."""
    try:
        return fn(*args)
    except Exception as exc:  # every refusal is part of the behaviour
        return f"{type(exc).__name__}: {exc}"


def run_record(inst, spec, seed):
    policy = make_policy(spec)
    result = simulate(inst, policy, seed=seed)
    record = (policy.name, sorted(result.pairs), sorted(result.schedule.items()), result.collected,
              result.trace, result.bits_used, policy.log)
    if isinstance(policy, PostponedGreedy):
        record += (sorted(policy.dual_vector().items()), policy.price_margin_sums())
    elif spec == "dda":
        record += (policy.conservation_sums(),)
    return record


def optima(inst, seed):
    """The deadline optimum, and the realized ones under the run's offsets
    and under offsets cycling through 0..d+1."""
    cycling = tuple((3 * v + seed) % (inst.deadline + 2) for v in inst.graph.vertices())
    return [(m.weight, m.sorted_pairs()) for m in (
        offline_optimum(inst), realized_offline_optimum(inst, realized_departures(inst, seed)),
        realized_offline_optimum(inst, cycling))]


def report_rows(inst, spec, arrival, seeds):
    return competitive_report([("i", inst)], [(spec, lambda: make_policy(spec))],
                              arrival, seeds=seeds, base_seed=7)


def certificate_files():
    """Generator files, each valid or with one defect, keyed by a name."""
    lp1 = certificate_to_json(solve_cover_lp("lp", 1).certificate)  # n 8, d 1, period 4
    lp2 = certificate_to_json(solve_cover_lp("lp", 2).certificate)  # n 12, d 2, period 6
    one = {"n": 8, "d": 1, "period": 4, "alpha": "1"}

    def column(*batches):
        return dict(one, columns=[{"lambda": "1", "batches": [list(b) for b in batches]}])

    return {
        "lp 1": lp1,
        "lp 2": lp2,
        "every batch listed": column((1, 2), (3, 8), (5, 6), (4, 7)),
        "a generator listed twice": column((1, 2), (3, 8), (1, 2)),
        "a translate listed as a generator": column((5, 6), (1, 2), (3, 8), (7, 4)),
        "a short orbit": column((1, 5), (2, 6), (3, 7), (4, 8)),
        "a vertex outside 1..n": column((0, 1), (2, 3)),
        "a vertex above n": column((1, 9), (2, 3)),
        "an empty generator": column((1, 2), ()),
        "overlapping orbits": column((1, 2), (2, 3)),
        "more orbits than the period": dict(one, period=2, columns=[
            {"lambda": "1", "batches": [[1, 2], [2, 3], [1, 3]]}]),
        "a generator of the wrong size": column((1, 2, 3), (4, 8)),
        "a period that does not divide n": dict(one, n=10, columns=[
            {"lambda": "1", "batches": [[1, 2], [3, 4], [9, 10]]}]),
        "a zero period": dict(one, period=0, columns=[{"lambda": "1", "batches": [[1, 2]]}]),
        "a fractional vertex": column((1, 2), (3, 8.5)),
        "alpha off the weight sum": dict(lp1, alpha="3"),
        "an n beyond the file limit": dict(one, n=10**6 + 2, columns=[]),
        "a negative weight": dict(one, columns=[{"lambda": "-1", "batches": [[1, 2], [3, 8]]}]),
    }


def reloaded(doc):
    return certificate_to_json(certificate_from_json(doc))


def _policy_digest(spec):
    return [outcome(run_record, inst, spec, seed) for inst in corpus() for seed in SEEDS]


def _evaluator(name):
    instances = corpus()
    fixed = [inst for inst in instances if inst.departure_model is None]
    if name == "window and batched values":
        return [(outcome(arrival_window_matching_value, inst.graph, inst.order.slots, d),
                 outcome(batched_matching_value, inst.graph, inst.order.slots, d))
                for inst in instances for d in range(4)]
    if name == "offline and realized optima":
        return [outcome(optima, inst, seed) for inst in instances for seed in SEEDS]
    if name == "exact expectations":
        return [outcome(exact_expectation, inst, make_policy(spec))
                for inst in fixed if inst.n <= 7 for spec in SPECS]
    if name == "competitive report rows":
        return [outcome(report_rows, inst, spec, arrival, seeds)
                for inst in instances if inst.n <= 5 for spec in SPECS
                for arrival in ("fixed", "uniform") for seeds in (0, 2)]
    if name == "certificate loads":
        return [(key, outcome(reloaded, doc)) for key, doc in certificate_files().items()]
    if name == "gallery":  # roles inferred as the CLI infers them
        gallery = [_with_roles(make_instance(g).instance) for g in GALLERY]
        return [(outcome(run_record, inst, spec, 0), outcome(run_record, inst, spec, 1),
                 outcome(exact_expectation, inst, make_policy(spec)))
                for inst in gallery for spec in SPECS]
    raise KeyError(name)


EVALUATORS = ("window and batched values", "offline and realized optima",
              "exact expectations", "competitive report rows", "certificate loads", "gallery")


def digest(name):
    outputs = _policy_digest(name) if name in SPECS else _evaluator(name)
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


@pytest.mark.parametrize("name", [*SPECS, *EVALUATORS])
def test_behaviour_keeps_its_pinned_digest(name):
    assert digest(name) == PINNED_BEHAVIOUR_DIGESTS[name], f"{name} moved"
