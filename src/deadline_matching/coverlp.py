"""Covering LPs over periodic batchings, certificates, and cover transforms.

A certificate is a rational-weighted family of periodic batch partitions
whose weighted clique masks dominate a target cycle power edgewise. It is
serializable and re-verifiable from scratch, so downstream consumers never
have to trust the solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .graphs import (MAX_FILE_N, WeightedGraph, as_integer, as_rational, brief,
                     checked_lookahead, format_rational, read_json)
from .masks import (PeriodicBatching, cover_deficits, cycle_power, cyclic_distance,
                    enumerate_periodic_batchings, rotation_keys, translates)
from .simplex import certify_min_geq, solve_min_geq


class CertificateFormatError(ValueError):
    pass


@dataclass(frozen=True)
class CoverCertificate:
    """Weighted periodic batchings covering a cycle power.

    ``d`` is the batch deadline: every column partitions 1..n into batches of
    d+1 vertices. ``alpha`` must equal the sum of the column weights.
    """

    n: int
    d: int
    period: int
    alpha: Fraction
    columns: tuple[tuple[PeriodicBatching, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        cols = tuple((pb, Fraction(lam)) for pb, lam in self.columns)
        for pb, lam in cols:
            if lam < 0:
                raise ValueError("column weights are nonnegative")
            if (pb.n, pb.batch_size, pb.period) != (self.n, self.d + 1, self.period):
                raise ValueError("column shape disagrees with the certificate header")
        total = sum((lam for _, lam in cols), Fraction(0))
        if total != self.alpha:
            raise ValueError(f"alpha {brief(format_rational(self.alpha))} != "
                             f"sum of weights {brief(format_rational(total))}")
        object.__setattr__(self, "columns", cols)

    def combined_mask(self) -> WeightedGraph:
        """Each pair's summed weight over the columns that batch it, in first-seen order."""
        sums: dict[tuple[int, int], Fraction] = {}
        for pb, lam in self.columns:
            if lam:
                for batch in pb.batches:
                    for pair in combinations(batch, 2):
                        sums[pair] = sums.get(pair, 0) + lam
        return WeightedGraph(self.n, sums)


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    uncovered: tuple

    def __str__(self):
        if self.ok:
            return "certificate verifies"
        return "; ".join(f"edge {edge} uncovered by {deficit}"
                         for edge, deficit in self.uncovered)


def verify_certificate(cert: CoverCertificate, target: WeightedGraph) -> CertificateReport:
    """Exact check that the weighted batchings dominate the target edgewise.
    The weight sum needs no check here: `CoverCertificate` refuses an alpha
    that differs from it."""
    if target.n != cert.n:
        raise ValueError("target size disagrees with the certificate")
    deficits = tuple(cover_deficits(cert.combined_mask(), target))
    return CertificateReport(not deficits, deficits)


# ---------------------------------------------------------------------------
# Solving the covering LPs

@dataclass(frozen=True)
class CoverLPResult:
    variant: str
    parameter: int
    n: int
    target_power: int
    alpha: Fraction
    certificate: CoverCertificate
    column_count: int
    orbit_count: int
    duals: tuple[Fraction, ...]


def _class_counts(batches, n: int, power: int) -> list[int]:
    counts = [0] * power
    for batch in batches:
        for a, b in combinations(batch, 2):
            c = cyclic_distance(a, b, n)
            if 1 <= c <= power:
                counts[c - 1] += 1
    return counts


def solve_cover_lp(variant: str, parameter: int) -> CoverLPResult:
    """Exact optimum of the periodic covering LP, with a verified certificate.

    variant "lp": batch deadline d = parameter, n = 4(d+1), period 2(d+1),
    target C_n^d. variant "lp-prime": batch size k = parameter covering the
    harder target C_{4k}^k with period 2k.

    Columns are deduplicated by induced batched graph and then collapsed into
    rotation orbits: the constraint system is rotation-invariant, so some
    optimal solution is constant on each orbit, and the collapsed LP has one
    constraint per cyclic distance class. An orbit enters that LP only
    through its class vector, its count of same-batch pairs at each cyclic
    distance 1..power, so only the first orbit representative of each
    distinct class vector becomes a column. A later duplicate would have the
    same reduced cost and a higher index, so Bland's rule would never enter
    it: the pivot path, the weights and the certificate stay those of the
    full orbit LP. The result is certified three ways:
    an exact dual witness, primal feasibility inside the simplex, and an
    independent verify_certificate pass on the assembled certificate.
    """
    if variant == "lp":
        d = parameter
        if d < 1:
            raise ValueError("lp variant needs d >= 1")
        n, p, power = 4 * (d + 1), 2 * (d + 1), d
    elif variant == "lp-prime":
        k = parameter
        if k < 2:
            raise ValueError("lp-prime variant needs k >= 2")
        n, p, power = 4 * k, 2 * k, k
        d = k - 1
    else:
        raise ValueError(f"unknown LP variant {variant!r}")

    columns = enumerate_periodic_batchings(n, p, d)
    unmet = {col.batches for col in columns}  # not yet in an orbit met earlier
    reps = []
    for col in columns:
        if col.batches in unmet:
            keys = rotation_keys(col.batches, p, n)
            unmet.difference_update(keys)
            reps.append(min(keys))
    reps.sort()
    firsts = {}  # class vector -> its first representative
    for rep in reps:
        firsts.setdefault(tuple(_class_counts(rep, n, power)), rep)

    rows = [[Fraction(c[k], n) for c in firsts] for k in range(power)]
    rhs = [Fraction(1)] * power
    costs = [Fraction(1)] * len(firsts)
    solution = solve_min_geq(costs, rows, rhs)
    certify_min_geq(solution, costs, rows, rhs)

    cert_columns = []
    for rep, weight in zip(firsts.values(), solution.x):
        if weight == 0:
            continue
        orbit = PeriodicBatching(n, d + 1, p, rep).rotation_orbit()
        lam = weight / len(orbit)
        cert_columns.extend((member, lam) for member in orbit)
    cert = CoverCertificate(n, d, p, solution.value, tuple(cert_columns))
    report = verify_certificate(cert, cycle_power(n, power))
    if not report.ok:
        raise AssertionError(f"solver produced a non-verifying certificate: {report}")
    return CoverLPResult(variant, parameter, n, power, solution.value, cert,
                         len(columns), len(reps), solution.duals)


# ---------------------------------------------------------------------------
# Columns as generator batches over one period: the transforms below build
# every column from its generators, translated round the new cycle.

def _lifted(pb: PeriodicBatching) -> list[tuple[int, ...]]:
    """The column's generator batches as integer sets whose translates by the
    period p partition the integers. Each batch is cut after its last largest
    cyclic gap, which leaves the integer set with the smallest span, and is
    shifted by a multiple of p to start in 1..p."""
    n, p = pb.n, pb.period
    lifted = []
    for batch in pb.generator_batches():
        k = len(batch)
        gaps = [(batch[(i + 1) % k] - batch[i] - 1) % n + 1 for i in range(k)]
        start = (max(range(k), key=lambda i: (gaps[i], i)) + 1) % k
        run = batch[start:] + tuple(x + n for x in batch[:start])
        lifted.append(tuple(x - (run[0] - 1) // p * p for x in run))
    if sorted(x % p for batch in lifted for x in batch) != list(range(p)):
        raise ValueError("a batch orbit is shorter than n/p; not realizable")
    return lifted


def covered_power(cert: CoverCertificate) -> int | None:
    """The largest power P <= d+1 of the n-cycle that `cert` covers at its
    own n, or None when it covers none."""
    mask = cert.combined_mask()
    return next((P for P in range(min(cert.d + 1, (cert.n - 1) // 2), 0, -1)
                 if not cover_deficits(mask, cycle_power(cert.n, P))), None)


def extend_cover(cert: CoverCertificate, n: int) -> CoverCertificate:
    """Extend a periodic cover of C_{n1}^P to a verified cover of C_n^P.

    P is the input's `covered_power`. Each column is read as its lifted
    generator batches (`_lifted`; a column with a batch orbit shorter than
    n1/p has none and raises). When the period p divides n, the column is
    their translates by p mod n, at the same weight. Otherwise, with
    u, v = divmod(n, p), it is rebuilt u times from its translates mod p*u:
    for each cut p*x, every vertex above the cut moves up by v and the v new
    vertices after the cut form batches of d+1 in order. Each copy weighs
    lambda/(u-2), which multiplies alpha by u/(u-2) and needs u >= 3. A
    result that does not cover C_n^P raises a ValueError naming its first
    uncovered edge.
    """
    n1, p, d = cert.n, cert.period, cert.d
    if n < n1:
        raise ValueError("can only extend to larger n")
    if p % (d + 1) or n1 % p:
        raise ValueError("certificate is not periodic with batch-aligned period")
    if n1 < 2 * p:
        raise ValueError("extension needs the base size to span two periods")
    if n % (d + 1):
        raise ValueError("target n must be a multiple of the batch size d+1")
    if n == n1:
        return cert
    lifted = [(_lifted(pb), lam) for pb, lam in cert.columns]
    u, v = divmod(n, p)
    if v and u < 3:
        raise ValueError(f"n={n} gives u={u} < 3 full periods; too small to extend")
    power = covered_power(cert)  # read off the input, before any n-sized column is built
    if power is None:
        raise ValueError(f"the certificate covers no power of the {n1}-cycle")
    if not v:
        extended = CoverCertificate(n, d, p, cert.alpha, tuple(
            (PeriodicBatching(n, d + 1, p, translates(gens, p, n)), lam) for gens, lam in lifted))
    else:
        new_cols = []
        scale = Fraction(1, u - 2)
        for gens, lam in lifted:
            tilde = translates(gens, p, p * u)
            for cut in range(p, p * u + 1, p):
                batches = [tuple(i + v if i > cut else i for i in b) for b in tilde]
                batches += [tuple(range(i, i + d + 1)) for i in range(cut + 1, cut + v + 1, d + 1)]
                new_cols.append((PeriodicBatching(n, d + 1, n, tuple(batches)), lam * scale))
        extended = CoverCertificate(n, d, n, cert.alpha * u * scale, tuple(new_cols))
    report = verify_certificate(extended, cycle_power(n, power))
    if not report.ok:
        edge, deficit = report.uncovered[0]
        raise ValueError(f"the extension to n={n} does not cover C_{n}^{power}: "
                         f"edge {edge} uncovered by {deficit}")
    return extended


# ---------------------------------------------------------------------------
# Contraction lifts: turn a batch-size-k cover of C_{rk}^k into a cover for
# deadline d with k | d+1 (exact) or general k (randomized subset family).

def quadratic_inflation(d: int, k: int) -> Fraction:
    """The simple squared loss factor ((d+1)/(d+1-v))^2 with v = (d+1) mod k."""
    v = (d + 1) % k
    return Fraction(d + 1, d + 1 - v) ** 2


def certified_inflation(d: int, k: int) -> Fraction:
    """The loss factor under which the lifted subset-family certificate
    actually verifies: (d+1)d / ((d+1-v)(d-v)).

    Covering a distinct-residue edge requires both residues selected, which
    happens for C(d-1, d-1-v) of the C(d+1, d+1-v) subsets; the ratio of the
    two binomials is this factor. It exceeds the squared factor whenever
    v > 0.
    """
    v = (d + 1) % k
    if v == 0:
        return Fraction(1)
    return Fraction((d + 1) * d, (d + 1 - v) * (d - v))


def contract_expand(cert: CoverCertificate, d: int) -> CoverCertificate:
    """Lift a (alpha, k-1)-cover of C_{rk}^k to a verified cover of C_{r(d+1)}^d.

    Vertex t of the input lies in block (t-1)//k of the output, whose
    d+1 vertices carry the residues 1..d+1. Case k | d+1: each contracted
    vertex expands into its chunk of u = (d+1)/k consecutive residues; alpha
    is unchanged. Otherwise every subset of d+1-v residues is split into k
    chunks in turn, and the weights are scaled by
    certified_inflation(d, k) / C(d+1, d+1-v). Each column is expanded on its
    generator batches over the input period P, generator j also taking the v
    leftover residues of block j, and then translated by (P/k)(d+1). When k
    does not divide P or an orbit is short, the whole column serves as the
    generators, batch j taking block j. The output's period is 2(d+1) if
    every column has it, else n.
    """
    k = cert.d + 1
    if cert.n % k:
        raise ValueError("input certificate is not a batch-size-k cover")
    r = cert.n // k
    if d + 1 <= k:
        raise ValueError("target deadline must satisfy d + 1 > k")
    n = r * (d + 1)
    v = (d + 1) % k
    u = (d + 1) // k
    period = 2 * (d + 1)
    # when k | d + 1 the one residue set is 1..d+1, at inflation 1
    residue_sets = list(combinations(range(1, d + 2), d + 1 - v))
    per_set_scale = certified_inflation(d, k) / len(residue_sets)
    lifted = []
    for pb, lam in cert.columns:
        gens, step = pb.generator_batches(), pb.period // k * (d + 1)
        if pb.period % k or len(gens) * k != pb.period:
            gens, step = pb.batches, n
        for residues in residue_sets:
            chunks = [residues[m * u:(m + 1) * u] for m in range(k)]
            leftover = [phi for phi in range(1, d + 2) if phi not in residues]
            grown = [[(d + 1) * ((t - 1) // k) + phi for t in gen for phi in chunks[(t - 1) % k]]
                     + [(d + 1) * j + phi for phi in leftover] for j, gen in enumerate(gens)]
            lifted.append((translates(grown, step, n), lam * per_set_scale))

    def columns(p: int):
        return tuple((PeriodicBatching(n, d + 1, p, batches), lam) for batches, lam in lifted)

    try:
        new_cols = columns(period)
    except ValueError:  # one column refuses the period, so every column takes n
        period, new_cols = n, columns(n)
    alpha = sum((lam for _, lam in new_cols), Fraction(0))
    return CoverCertificate(n, d, period, alpha, new_cols)


def contraction_bound(d: int, alphas: dict[int, Fraction]):
    """Best covering-factor bound for deadline d obtainable by lifting the
    given exact batch-size-k factors, under both inflation formulas.

    Returns (certified_bound, squared_formula_bound, k_used). The certified
    number is what the lifted certificate actually verifies at; the squared
    formula is reported alongside because published tables quote it.
    """
    best = None
    for k, alpha in alphas.items():
        if d + 1 <= k:
            continue
        cert_bound = alpha * certified_inflation(d, k)
        quad_bound = alpha * quadratic_inflation(d, k)
        if best is None or cert_bound < best[0]:
            best = (cert_bound, quad_bound, k)
    if best is None:
        raise ValueError(f"no usable k below d+1 = {d + 1}")
    return best


def lookahead_cover(n: int, d: int, l: int) -> CoverCertificate:
    """The shift family: d+l+1 rotations at weight 1/(l+1) each, batch size
    d+l+1, covering C_n^d with alpha = (d+l+1)/(l+1)."""
    if d < 0:
        raise ValueError("deadline must be >= 0")
    l = checked_lookahead(l)
    width = d + l + 1
    if n % width:
        raise ValueError(f"n must be a multiple of d+l+1 = {width}")
    lam = Fraction(1, l + 1)
    # column s has the one generator 1-s..width-s (mod n)
    cols = [(PeriodicBatching(n, width, width, translates([range(1 - s, width + 1 - s)], width, n)),
             lam) for s in range(width)]
    alpha = Fraction(width, l + 1)
    return CoverCertificate(n, d + l, width, alpha, tuple(cols))


# ---------------------------------------------------------------------------
# Certificate files: columns are stored as generator batches over one period
# and expanded on load.

def certificate_to_json(cert: CoverCertificate) -> dict:
    return {
        "n": cert.n,
        "d": cert.d,
        "period": cert.period,
        "alpha": format_rational(cert.alpha),
        "columns": [
            {"lambda": format_rational(lam),
             "batches": [list(b) for b in pb.generator_batches()]}
            for pb, lam in cert.columns
        ],
    }


def check_file_n(n: int) -> None:
    """Refuse a size that no certificate file may hold."""
    if n > MAX_FILE_N:
        raise ValueError(f"n = {n} exceeds the limit of {MAX_FILE_N}")


def certificate_from_json(data: dict) -> CoverCertificate:
    try:
        n = as_integer(data["n"])
        d = as_integer(data["d"])
        period = as_integer(data["period"])
        check_file_n(n)  # before the generators are expanded over n // period shifts
        alpha = as_rational(data["alpha"])
        columns = []
        for entry in data["columns"]:
            lam = as_rational(entry["lambda"])
            pb = PeriodicBatching.from_generators(n, d + 1, period, entry["batches"])
            columns.append((pb, lam))
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad certificate: {exc}") from exc
    try:
        return CoverCertificate(n, d, period, alpha, tuple(columns))
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from exc


def save_certificate(cert: CoverCertificate, path) -> None:
    Path(path).write_text(json.dumps(certificate_to_json(cert), indent=2) + "\n",
                          encoding="utf-8")


def load_certificate(path) -> CoverCertificate:
    return certificate_from_json(read_json(path, CertificateFormatError))
