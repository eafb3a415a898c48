import hashlib
import json
import random
from fractions import Fraction as F
from functools import cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (CoverCertificate, arrival_window_matching_value,
                               batched_matching_value, batching_from_order,
                               certified_inflation, contract_expand,
                               cycle_power, enumerate_periodic_batchings,
                               extend_cover, format_rational, load_certificate,
                               lookahead_cover, quadratic_inflation,
                               save_certificate, solve_cover_lp,
                               verify_certificate)
from deadline_matching.coverlp import (certificate_from_json, certificate_to_json,
                                      contraction_bound, realizing_permutation)
from helpers import random_complete_graph
from oracles import solve_cover_lp_direct


def _sha256(blob) -> str:
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def _lp_digest(result) -> str:
    return _sha256({"certificate": certificate_to_json(result.certificate),
                    "alpha": format_rational(result.alpha),
                    "column_count": result.column_count,
                    "orbit_count": result.orbit_count,
                    "duals": [format_rational(y) for y in result.duals]})


# sha256 of each covering output as the solver and the transforms gave it
# when these pins were taken; certificate column order is part of the bytes
PINNED_COVER_DIGESTS = {
    "lp 1": "340f6421685c0b93400cbec0487c82b6eb92f0188fa57261c34d1033cf56ff81",
    "lp 2": "bdd34f90d200afc0e43632e2c038195441b196e0f50678672015762ac4db2b25",
    "lp 3": "1abbe339da1f93bf1899da5e1fa5eb08d8b02420b228422db4cbd433f4d50bef",
    "lp-prime 2": "821bfed99eef1e765a689dd1d31da21fb31d8a83913ced7840ae87aea831a873",
    "lp-prime 3": "afacd63d310428496f72d3ecd1640f20a29b3c57c40b1216873cfb9abcf76b43",
    "lp-prime 4": "3038ea7c4d1118e7ece10ca1192c7a31bcea82dec2c5ae5fab835b8171f7ad6a",
    "extend_cover(lp 1, 24)":
        "f8452f312a244eac88ae1069f4232a965c1c9d305a533828af72b9b13c4a3952",
    "contract_expand(lp-prime 4, 7)":
        "9d9bfab2bb56ff8ec9e3084dc694ce8b375a700b9507676952496097ed4e6c3a",
    "contract_expand(lp-prime 3, 4)":
        "37f468cf73d1f8849471cd13df95bc5059eabaa3211d9d862b22847c9c41325f",
    "contract_expand(extend_cover(lp 1, 14), 2)":
        "730f4fa7e5ceab0854eb39cfc1cf9ad6a3079e7064cfcf099a32886ade624088",
    "lookahead_cover(8, 2, 1)":
        "089df95af13518f2891877aea9099daeb941ca929e648767ba4e89f0549d0316",
}


def test_covering_outputs_keep_their_pinned_bytes():
    digests, results = {}, {}
    for variant, parameter in (("lp", 1), ("lp", 2), ("lp", 3), ("lp-prime", 2),
                               ("lp-prime", 3), ("lp-prime", 4)):
        name = f"{variant} {parameter}"
        results[name] = solve_cover_lp(variant, parameter)
        digests[name] = _lp_digest(results[name])
    for name, cert in (
            ("extend_cover(lp 1, 24)", extend_cover(results["lp 1"].certificate, 24)),
            ("contract_expand(lp-prime 4, 7)",
             contract_expand(results["lp-prime 4"].certificate, 7)),
            # v = 2 pads every batch; the lift keeps the period 10
            ("contract_expand(lp-prime 3, 4)",
             contract_expand(results["lp-prime 3"].certificate, 4)),
            # r = 7 blocks: the period 6 does not divide n = 21, so it falls back to n
            ("contract_expand(extend_cover(lp 1, 14), 2)",
             contract_expand(extend_cover(results["lp 1"].certificate, 14), 2)),
            ("lookahead_cover(8, 2, 1)", lookahead_cover(8, 2, 1))):
        digests[name] = _sha256(certificate_to_json(cert))
    assert digests == PINNED_COVER_DIGESTS


class TestSolveCoverLP:
    def test_d1_optimum_is_two(self):
        result = solve_cover_lp("lp", 1)
        assert result.alpha == 2
        assert verify_certificate(result.certificate, cycle_power(8, 1)).ok

    def test_dedup_soundness_d1(self):
        # identical value per column, per deduplicated column, and collapsed
        assert solve_cover_lp_direct(8, 4, 1, 1, deduplicate=False) == 2
        assert solve_cover_lp_direct(8, 4, 1, 1, deduplicate=True) == 2

    def test_collapsed_equals_direct_d2(self):
        direct = solve_cover_lp_direct(12, 6, 2, 2, deduplicate=True)
        assert solve_cover_lp("lp", 2).alpha == direct

    def test_prime_variant_k2(self):
        result = solve_cover_lp("lp-prime", 2)
        assert result.alpha == 4
        assert verify_certificate(result.certificate, cycle_power(8, 2)).ok

    def test_prime_variant_k5_certifies_deadlines_9_and_10(self):
        result = solve_cover_lp("lp-prime", 5)
        assert (result.alpha, result.column_count, result.orbit_count) == (F(145, 51), 32256, 3252)
        assert verify_certificate(result.certificate, cycle_power(20, 5)).ok
        # random-order batching is 0.279-competitive at deadline d if alpha_d <= 1000/279
        alphas = {2: F(4), 3: F(3), 4: F(44, 15), 5: result.alpha}
        certified = {d: contraction_bound(d, alphas)[0] for d in (6, 9, 10, 13, 22)}
        assert certified == {6: F(21, 5), 9: F(145, 51), 10: F(1595, 459),
                             13: F(4), 22: F(253, 70)}
        assert [d for d, alpha in certified.items() if alpha > F(1000, 279)] == [6, 13, 22]

    def test_certificates_always_verify(self):
        for variant, parameter in (("lp", 2), ("lp-prime", 3)):
            result = solve_cover_lp(variant, parameter)
            target = cycle_power(result.n, result.target_power)
            assert verify_certificate(result.certificate, target).ok

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            solve_cover_lp("lp", 0)
        with pytest.raises(ValueError):
            solve_cover_lp("lp-prime", 1)
        with pytest.raises(ValueError):
            solve_cover_lp("unknown", 3)


class TestVerifyCertificate:
    def shift_cover(self, n, d):
        cols = []
        for s in range(d + 1):
            sigma = tuple((i + s - 1) % n + 1 for i in range(1, n + 1))
            cols.append((batching_from_order(sigma, n, d, period=d + 1), F(1)))
        return CoverCertificate(n, d, d + 1, F(d + 1), tuple(cols))

    def test_shift_family_covers(self):
        for n, d in ((8, 1), (9, 2), (12, 3)):
            cert = self.shift_cover(n, d)
            assert verify_certificate(cert, cycle_power(n, d)).ok

    def test_corrupted_weight_reports_deficits(self):
        cert = self.shift_cover(8, 1)
        broken = CoverCertificate(
            8, 1, 2, cert.alpha - 1,
            tuple((pb, F(0) if k == 0 else lam)
                  for k, (pb, lam) in enumerate(cert.columns)))
        report = verify_certificate(broken, cycle_power(8, 1))
        assert not report.ok
        assert report.uncovered  # the zeroed shift's edges are missing

    def test_alpha_mismatch_rejected(self):
        cert = self.shift_cover(8, 1)
        with pytest.raises(ValueError, match="alpha"):
            CoverCertificate(8, 1, 2, cert.alpha + 1, cert.columns)

    def test_a_column_at_another_period_is_rejected(self, tmp_path):
        # the file would store this column's generators at period 8 and
        # expand them at the header's period 4, so it would not load back
        column = batching_from_order((1, 2, 3, 5, 4, 6, 7, 8), 8, 1)
        assert column.period == 8
        with pytest.raises(ValueError, match="column shape disagrees"):
            CoverCertificate(8, 1, 4, 1, ((column, 1),))
        cert = CoverCertificate(8, 1, 8, 1, ((column, 1),))
        save_certificate(cert, tmp_path / "cert.json")
        assert load_certificate(tmp_path / "cert.json") == cert


class TestExtendCover:
    def test_multiple_keeps_alpha(self):
        base = solve_cover_lp("lp", 1).certificate
        ext = extend_cover(base, 16)
        assert ext.alpha == 2
        assert verify_certificate(ext, cycle_power(16, 1)).ok
        again = extend_cover(base, 24)
        assert again.alpha == 2
        assert verify_certificate(again, cycle_power(24, 1)).ok

    def test_identity(self):
        base = solve_cover_lp("lp", 1).certificate
        assert extend_cover(base, 8) == base

    def test_non_multiple_scales_alpha(self):
        base = solve_cover_lp("lp", 1).certificate
        ext = extend_cover(base, 18)  # u = 4, v = 2: alpha doubles
        assert ext.alpha == 4
        assert verify_certificate(ext, cycle_power(18, 1)).ok

    def test_non_multiple_d2(self):
        base = solve_cover_lp("lp", 2).certificate  # n1 = 12, p = 6
        ext = extend_cover(base, 21)  # u = 3, v = 3: alpha scales by 3
        assert ext.alpha == base.alpha * 3
        assert verify_certificate(ext, cycle_power(21, 2)).ok

    def test_pinned_certificates_at_two_and_three_times_n(self):
        for variant, parameter in (("lp", 1), ("lp", 2), ("lp-prime", 2),
                                   ("lp-prime", 3), ("lp-prime", 4)):
            base = solve_cover_lp(variant, parameter)
            for n in (2 * base.n, 3 * base.n):
                ext = extend_cover(base.certificate, n)
                assert ext.alpha == base.alpha
                assert verify_certificate(ext, cycle_power(n, base.target_power)).ok
        # lp 3's columns cover C_16^3 but not the larger cycles
        base = solve_cover_lp("lp", 3).certificate
        with pytest.raises(ValueError, match=r"n=32 does not cover C_32\^3: "
                                             r"edge \(2, 31\) uncovered by 1/12"):
            extend_cover(base, 32)
        with pytest.raises(ValueError, match=r"n=48 does not cover C_48\^3: edge"):
            extend_cover(base, 48)

    def test_too_small_u_rejected(self):
        base = solve_cover_lp("lp", 1).certificate
        with pytest.raises(ValueError, match="u"):
            extend_cover(base, 10)  # u = 2
        with pytest.raises(ValueError):
            extend_cover(base, 15)  # not a multiple of d+1


class TestContractExpand:
    def test_case_i_same_alpha(self):
        base = solve_cover_lp("lp-prime", 2)  # batch size 2 covering C_8^2
        lifted = contract_expand(base.certificate, 3)  # u = 2
        assert lifted.alpha == base.alpha
        assert lifted.n == 16
        assert verify_certificate(lifted, cycle_power(16, 3)).ok

    def test_case_ii_verified_inflation(self):
        base = solve_cover_lp("lp-prime", 2)
        lifted = contract_expand(base.certificate, 2)  # v = 1
        assert lifted.alpha == base.alpha * certified_inflation(2, 2)
        assert verify_certificate(lifted, cycle_power(12, 2)).ok

    def test_inflation_formulas(self):
        assert quadratic_inflation(17, 4) == F(81, 64)
        assert certified_inflation(17, 4) == F(51, 40)
        assert quadratic_inflation(7, 4) == 1
        assert certified_inflation(7, 4) == 1
        # the certified factor never undercuts the squared-loss formula
        for k in (2, 3, 4, 5):
            for d in range(k, 20):
                assert certified_inflation(d, k) >= quadratic_inflation(d, k)

    def test_parameter_validation(self):
        base = solve_cover_lp("lp-prime", 2).certificate
        with pytest.raises(ValueError):
            contract_expand(base, 1)  # d + 1 must exceed k


class TestTransformComposition:
    def test_contract_then_extend(self):
        k4 = solve_cover_lp("lp-prime", 4)
        d7 = contract_expand(k4.certificate, 7)  # exact lift, n = 32
        ext = extend_cover(d7, 48)
        assert ext.alpha == k4.alpha
        assert verify_certificate(ext, cycle_power(48, 7)).ok
        odd = extend_cover(d7, 56)  # u = 3 full periods plus a remainder
        assert odd.alpha == 3 * k4.alpha
        assert verify_certificate(odd, cycle_power(56, 7)).ok

    def test_case_ii_from_k3(self):
        k3 = solve_cover_lp("lp-prime", 3)
        lifted = contract_expand(k3.certificate, 4)  # v = 2
        assert lifted.alpha == k3.alpha * certified_inflation(4, 3)
        assert verify_certificate(lifted, cycle_power(20, 4)).ok

    def test_extend_then_lift_off_the_period(self):
        # n = 14 is no multiple of the period 4, so the extended cover has
        # period n and the +6 shift of the lift leaves its batches
        extended = extend_cover(solve_cover_lp("lp-prime", 2).certificate, 14)
        lifted = contract_expand(extended, 2)
        assert (lifted.n, lifted.alpha) == (21, 36)
        assert verify_certificate(lifted, cycle_power(21, 2)).ok


class TestLookaheadCover:
    def test_reference_values(self):
        cert = lookahead_cover(8, 2, 1)
        assert cert.alpha == 2
        assert verify_certificate(cert, cycle_power(8, 2)).ok

        cert = lookahead_cover(10, 1, 3)
        assert cert.alpha == F(5, 4)
        assert verify_certificate(cert, cycle_power(10, 1)).ok

    def test_zero_lookahead_is_all_shifts(self):
        cert = lookahead_cover(8, 1, 0)
        assert cert.alpha == 2
        assert len(cert.columns) == 2
        assert verify_certificate(cert, cycle_power(8, 1)).ok

    def test_divisibility(self):
        with pytest.raises(ValueError):
            lookahead_cover(9, 2, 1)


class TestCertificateFiles:
    def test_round_trip(self, tmp_path):
        for variant, parameter in (("lp", 1), ("lp", 2), ("lp-prime", 2)):
            result = solve_cover_lp(variant, parameter)
            path = tmp_path / f"{variant}-{parameter}.json"
            save_certificate(result.certificate, path)
            loaded = load_certificate(path)
            assert loaded.alpha == result.alpha
            assert ({pb.canonical_key() for pb, _ in loaded.columns}
                    == {pb.canonical_key() for pb, _ in result.certificate.columns})
            target = cycle_power(result.n, result.target_power)
            assert verify_certificate(loaded, target).ok

    def test_compressed_storage(self):
        result = solve_cover_lp("lp", 1)
        data = certificate_to_json(result.certificate)
        for entry in data["columns"]:
            # one generator batch per period-shift orbit, not the full partition
            assert len(entry["batches"]) == 2
        assert certificate_from_json(data).alpha == 2

    def test_bad_files_rejected(self):
        from deadline_matching.coverlp import CertificateFormatError
        with pytest.raises(CertificateFormatError):
            certificate_from_json({"n": 8})


@cache
def lp_prime_certificate(k):
    return solve_cover_lp("lp-prime", k).certificate


def assert_verifies_and_round_trips(cert, power):
    """The certificate covers C_n^power, and its JSON text reloads to an
    equal certificate that writes the same text."""
    assert verify_certificate(cert, cycle_power(cert.n, power)).ok
    text = json.dumps(certificate_to_json(cert))
    reloaded = certificate_from_json(json.loads(text))
    assert reloaded == cert
    assert json.dumps(certificate_to_json(reloaded)) == text


class TestGeneratedCertificates:
    """Every certificate a library transform builds verifies and survives
    the JSON round-trip bit-exactly."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(1, 3), l=st.integers(0, 3), periods=st.integers(2, 4))
    def test_lookahead_cover(self, d, l, periods):
        assert_verifies_and_round_trips(lookahead_cover(periods * (d + l + 1), d, l), d)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(k=st.sampled_from([2, 3]), extra=st.integers(0, 3))
    def test_contract_expand_of_lp_prime(self, k, extra):
        d = k + extra
        lifted = contract_expand(lp_prime_certificate(k), d)
        assert lifted.n == lp_prime_certificate(k).n // k * (d + 1)
        assert_verifies_and_round_trips(lifted, d)


class TestColumnSoundness:
    """The LP columns are exactly the batchings periodic orders induce.

    For d <= 2 the test suite checks set equality against exhaustive
    permutation enumeration; at d = 3 that set has ten million permutations,
    so this checks both inclusions constructively instead.
    """

    def test_d3_columns_are_realizable(self):
        from deadline_matching.coverlp import realizing_permutation
        from deadline_matching import enumerate_periodic_batchings
        cols = enumerate_periodic_batchings(16, 8, 3)
        for pb in cols:
            order = realizing_permutation(pb)  # asserts it induces pb
            for i in range(8):
                assert order[i + 8] == (order[i] + 8 - 1) % 16 + 1

    def test_d3_random_periodic_orders_are_enumerated(self):
        from deadline_matching import (batching_from_order,
                                       enumerate_periodic_batchings)
        keys = {c.canonical_key() for c in enumerate_periodic_batchings(16, 8, 3)}
        rng = random.Random(62)
        for _ in range(2000):
            # random 8-periodic permutation of 1..16: one slot per residue pair
            residues = list(range(8))
            rng.shuffle(residues)
            head = [1 + r + 8 * rng.randint(0, 1) for r in residues]
            order = head + [(v + 8 - 1) % 16 + 1 for v in head]
            pb = batching_from_order(tuple(order), 16, 3, period=8)
            assert pb.canonical_key() in keys


class TestContractionBound:
    def test_reports_both_formulas(self):
        from deadline_matching.coverlp import contraction_bound
        alphas = {2: F(4), 3: F(3)}
        certified, squared, k = contraction_bound(17, alphas)
        assert k in alphas
        assert certified >= squared  # the verifying factor is never smaller


class TestCoverInequality:
    """A verified cover bounds the permutation-summed offline value by alpha
    times the batched value, for any weights."""

    def test_end_to_end_small(self):
        cert = lookahead_cover(6, 1, 0)  # a (2, 1)-cover of C_6^1
        assert verify_certificate(cert, cycle_power(6, 1)).ok
        rng = random.Random(61)
        for _ in range(3):
            g = random_complete_graph(rng, 6, max_num=8)
            lhs = F(0)
            rhs = F(0)
            for sigma in permutations(range(1, 7)):
                lhs += arrival_window_matching_value(g, sigma, 1)
                rhs += batched_matching_value(g, sigma, 1)
            assert lhs <= cert.alpha * rhs
