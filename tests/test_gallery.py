import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching import (RootFive, dda, exact_expectation, game_value,
                               golden_ratio_fixed_point, greedy_free_disposal,
                               make_instance, offline_optimum,
                               optimal_online_bounds, patient_baseline,
                               postponed_greedy)


class TestMakeInstance:
    def test_pg_tightness_opt(self):
        for eps in (F(1, 10), F(1, 100), F(2, 5)):
            named = make_instance("pg-tightness", eps=eps)
            assert offline_optimum(named.instance).weight == 2 - eps

    def test_basic_tradeoff_opt(self):
        assert offline_optimum(make_instance("basic-tradeoff", y=F(0)).instance).weight == 1
        assert offline_optimum(make_instance("basic-tradeoff", y=F(7)).instance).weight == 7

    def test_lb_families_opt(self):
        for x in (F(0), F(1)):
            det = make_instance("constrained-deterministic-lb", w=F(3, 5), x=x)
            assert offline_optimum(det.instance).weight == max(F(3, 5) + x, F(1))
            rand = make_instance("constrained-randomized-lb", x=x)
            assert offline_optimum(rand.instance).weight == max(F(1, 2) + x, F(1))

    def test_three_cycle_uniform_offline(self):
        from deadline_matching import competitive_report, batching
        named = make_instance("random-order-3cycle", v12=F(0), v23=F(0), v31=F(1))
        rows = competitive_report([(named.name, named.instance)],
                                  [("batching", batching)],
                                  arrival_model="uniform")
        assert rows[0].off_value == F(2, 3)
        assert rows[0].alg_value == F(1, 3)

    def test_unknown_name_and_bad_params(self):
        with pytest.raises(ValueError):
            make_instance("mystery")
        with pytest.raises(ValueError):
            make_instance("pg-tightness", eps=F(2))
        with pytest.raises(ValueError):
            make_instance("constrained-randomized-lb", x=F(1, 2))


class TestOptimalOnlineBounds:
    def test_randomized_four_fifths(self):
        assert optimal_online_bounds("constrained-randomized-lb",
                                     "randomized") == F(4, 5)

    def test_randomized_optimizer_probability(self):
        # the optimum mixes: match the first seller with probability 2/5
        vals = {p: min(game_value(F(1, 2), p, x) for x in (0, 1))
                for p in (F(0), F(2, 5), F(1))}
        assert vals[F(2, 5)] == F(4, 5)
        assert vals[F(0)] < F(4, 5) and vals[F(1)] < F(4, 5)

    def test_deterministic_formula(self):
        for w in (F(1, 3), F(3, 5), F(2, 3)):
            expected = max(w, 1 / (1 + w))
            assert optimal_online_bounds("constrained-deterministic-lb",
                                         "deterministic", w=w) == expected

    def test_golden_ratio_fixed_point(self):
        wstar, bound = golden_ratio_fixed_point()
        assert bound == wstar
        assert wstar == RootFive(F(-1, 2), F(1, 2))

    def test_degenerate_adversary(self):
        assert optimal_online_bounds("constrained-randomized-lb", "randomized",
                                     x_values=(1,)) == 1

    def test_policies_stay_below_the_ceiling(self):
        bound = optimal_online_bounds("constrained-randomized-lb", "randomized")
        for factory in (greedy_free_disposal, dda, postponed_greedy, patient_baseline):
            worst = None
            for x in (F(0), F(1)):
                inst = make_instance("constrained-randomized-lb", x=x).instance
                value = exact_expectation(inst, factory())
                ratio = value / offline_optimum(inst).weight
                worst = ratio if worst is None else min(worst, ratio)
            assert worst <= bound


small = st.fractions(min_value=-8, max_value=8, max_denominator=6)
roots = st.builds(RootFive, small, small)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def decimal_value(x):
    """a + b*sqrt(5) to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(x.a.numerator) / x.a.denominator
                + Decimal(x.b.numerator) / x.b.denominator * Decimal(5).sqrt())


class TestRootFive:
    @PROPERTY
    @given(roots, roots, roots)
    def test_field_identities(self, x, y, z):
        assert x + y - y == x
        assert x * (y + z) == x * y + x * z
        assert 1 - x == -1 * (x - 1)
        if y != 0:
            assert (x * y) / y == x
            assert (x / y) * y == x

    @PROPERTY
    @given(roots, roots)
    def test_equal_exactly_when_the_coefficients_are(self, x, y):
        assert (x == y) == ((x.a, x.b) == (y.a, y.b))
        assert (x == x.a) == (x.b == 0)

    @PROPERTY
    @given(roots, roots, st.integers(-3, 3))
    def test_order_agrees_with_sixty_digits(self, x, y, k):
        if x != y:
            assert (x < y) == (decimal_value(x) < decimal_value(y))
            assert (x > y) == (decimal_value(x) > decimal_value(y))
        assert (x < k) == (decimal_value(x) < k)
        assert (k < x) == (k < decimal_value(x))


def test_package_imports_only_the_standard_library():
    """With site-packages off, the package and its CLI import, and the golden
    ratio is solved, using nothing outside the standard library."""
    code = ("import sys, deadline_matching, deadline_matching.cli\n"
            "deadline_matching.golden_ratio_fixed_point()\n"
            "tops = {name.split('.')[0] for name in sys.modules}\n"
            "print(sorted(tops - set(sys.stdlib_module_names)"
            " - {'__main__', 'deadline_matching'}))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
