from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline_matching.simplex import (InfeasibleLP, LPSolution, UnboundedLP,
                                       certify_min_geq, solve_min_geq)


def check(c, rows, rhs, expected_value):
    solution = solve_min_geq(c, rows, rhs)
    certify_min_geq(solution, c, rows, rhs)
    assert solution.value == expected_value
    return solution


class TestSolver:
    def test_single_constraint(self):
        # min x + y st 2x + y >= 3
        sol = check([F(1), F(1)], [[F(2), F(1)]], [F(3)], F(3, 2))
        assert sol.x == (F(3, 2), F(0))

    def test_two_constraints_fractional_vertex(self):
        # min x + y st x + 2y >= 2, 2x + y >= 2 -> x = y = 2/3
        sol = check([F(1), F(1)], [[F(1), F(2)], [F(2), F(1)]],
                    [F(2), F(2)], F(4, 3))
        assert sol.x == (F(2, 3), F(2, 3))
        assert sol.duals == (F(1, 3), F(1, 3))

    def test_redundant_constraint(self):
        sol = check([F(1)], [[F(1)], [F(1)]], [F(1), F(1, 2)], F(1))
        assert sol.x == (F(1),)

    def test_cheap_column_wins(self):
        # min x + 10y st x + y >= 5
        sol = check([F(1), F(10)], [[F(1), F(1)]], [F(5)], F(5))
        assert sol.x == (F(5), F(0))

    def test_exactness_with_awkward_fractions(self):
        c = [F(7, 3), F(11, 5)]
        rows = [[F(1, 7), F(2, 9)], [F(3, 4), F(1, 13)]]
        rhs = [F(5, 6), F(2, 3)]
        sol = solve_min_geq(c, rows, rhs)
        certify_min_geq(sol, c, rows, rhs)
        # dual witness equals primal value exactly, no floats anywhere
        assert isinstance(sol.value, F)

    def test_infeasible(self):
        # x >= 1 with coefficient 0 is impossible
        with pytest.raises(InfeasibleLP):
            solve_min_geq([F(1)], [[F(0)]], [F(1)])

    def test_negative_rhs_row(self):
        # min -x subject to -x >= -2: the flipped row must bind at x = 2
        sol = solve_min_geq([F(-1)], [[F(-1)]], [F(-2)])
        certify_min_geq(sol, [F(-1)], [[F(-1)]], [F(-2)])
        assert sol.value == F(-2)
        assert sol.x == (F(2),)

    def test_degenerate_does_not_cycle(self):
        # several constraints tight at the optimum simultaneously
        c = [F(1), F(1), F(1)]
        rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)],
                [F(1), F(0), F(1)], [F(1), F(1), F(1)]]
        rhs = [F(1), F(1), F(1), F(3, 2)]
        sol = solve_min_geq(c, rows, rhs)
        certify_min_geq(sol, c, rows, rhs)
        assert sol.value == F(3, 2)

    def test_unbounded(self):
        # min -x subject to x >= 1 falls without bound
        with pytest.raises(UnboundedLP):
            solve_min_geq([F(-1)], [[F(1)]], [F(1)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_min_geq([F(1)], [[F(1), F(2)]], [F(1)])


def solve_square(matrix, rhs):
    """The unique solution of a square system by Gaussian elimination over
    Fractions, or None when the matrix is singular."""
    size = len(matrix)
    aug = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] / aug[r][r] for r in range(size)]


def vertex_minimum(c, rows, rhs):
    """min c.x over A x >= b, x >= 0 by brute force: every point where n of
    the m + n constraints are tight and independent, kept if feasible. None
    when there is no feasible vertex. With x >= 0 the region has vertices
    whenever it is nonempty, and c >= 0 bounds it below, so the minimum is
    attained at one."""
    n = len(c)
    constraints = list(zip(rows, rhs))
    constraints += [([int(k == j) for k in range(n)], 0) for j in range(n)]
    best = None
    for tight in combinations(constraints, n):
        x = solve_square([row for row, _ in tight], [b for _, b in tight])
        if x is None or any(sum(a * v for a, v in zip(row, x)) < b for row, b in constraints):
            continue
        value = sum(ci * v for ci, v in zip(c, x))
        if best is None or value < best:
            best = value
    return best


@st.composite
def small_lps(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    c = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return c, rows, rhs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_lps())
def test_solver_agrees_with_vertex_enumeration(lp):
    c, rows, rhs = lp
    best = vertex_minimum(c, rows, rhs)
    if best is None:
        with pytest.raises(InfeasibleLP):
            solve_min_geq(c, rows, rhs)
        return
    solution = solve_min_geq(c, rows, rhs)
    assert solution.value == best
    certify_min_geq(solution, c, rows, rhs)
