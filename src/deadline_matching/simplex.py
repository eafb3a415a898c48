"""Exact-arithmetic two-phase simplex with Bland's anti-cycling rule.

Solves  min c.x  subject to  A x >= b,  x >= 0  over Fractions. Small and
dense; meant for covering programs with a handful of rows. Returns a dual
vector alongside the optimum so callers can certify optimality independently
(y >= 0, yA <= c, y.b == c.x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class LPError(ValueError):
    pass


class InfeasibleLP(LPError):
    pass


class UnboundedLP(LPError):
    pass


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    x: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]


def solve_min_geq(c, rows, rhs) -> LPSolution:
    """min c.x s.t. rows[i].x >= rhs[i] for all i, x >= 0."""
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in rows]
    rhs = [Fraction(v) for v in rhs]
    m, n = len(rows), len(c)
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise LPError("inconsistent LP dimensions")
    # Standard form: A x - I s + I a = b with b >= 0.
    zero, one = Fraction(0), Fraction(1)
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = list(rows[i])
        sign = one
        b = rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
            sign = -one
        surplus = [zero] * m
        surplus[i] = -sign
        art = [zero] * m
        art[i] = one
        tableau.append(row + surplus + art + [b])
    total_cols = n + 2 * m
    art_start = n + m
    basis = [art_start + i for i in range(m)]  # artificials
    # Below the constraints sit the objective rows of phase 2 and phase 1:
    # each holds every column's reduced cost, then minus the objective
    # value, and every pivot keeps them current. Phase 2 charges the
    # artificials nothing, so its row starts as c. Phase 1 charges each
    # artificial 1, so its row starts with every basis row subtracted.
    phase1 = [zero] * art_start + [one] * m + [zero]
    for row in tableau:
        phase1 = [v - w for v, w in zip(phase1, row)]
    tableau.append(c + [zero] * (2 * m + 1))
    tableau.append(phase1)

    def pivot(r, col):
        piv = tableau[r][col]
        tableau[r] = [v / piv for v in tableau[r]]
        for k in range(len(tableau)):
            if k != r and tableau[k][col] != 0:
                f = tableau[k][col]
                tableau[k] = [v - f * w for v, w in zip(tableau[k], tableau[r])]
        basis[r] = col

    def run_phase(eligible):
        """Pivot until the last row prices no column below `eligible` negative."""
        while True:
            red = tableau[-1]
            entering = next((j for j in range(eligible) if red[j] < 0), None)  # Bland
            if entering is None:
                return
            leaving, best, best_var = None, None, None
            for r in range(m):
                a = tableau[r][entering]
                if a > 0:
                    ratio = tableau[r][total_cols] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < best_var):
                        leaving, best, best_var = r, ratio, basis[r]
            if leaving is None:
                raise UnboundedLP("objective unbounded below")
            pivot(leaving, entering)

    # Phase 1: drive the artificials to zero.
    run_phase(total_cols)
    if tableau.pop()[total_cols] != 0:
        raise InfeasibleLP("no feasible point")
    # Remove artificials from the basis where possible; fully zero rows are
    # redundant constraints and can stay parked on their artificial.
    for r in range(m):
        if basis[r] >= art_start:
            for j in range(art_start):
                if tableau[r][j] != 0:
                    pivot(r, j)
                    break

    # Phase 2, with the artificials barred from entering.
    run_phase(art_start)
    red = tableau[m]

    x = [zero] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[r][total_cols]
    # Duals read off the artificial columns: their tableau columns hold the
    # basis inverse (after undoing the sign flip applied to negative rhs rows).
    duals = []
    for i in range(m):
        y_i = -red[art_start + i]
        if rhs[i] < 0:
            y_i = -y_i
        duals.append(y_i)
    value = sum((ci * xi for ci, xi in zip(c, x)), zero)
    assert value == -red[total_cols]
    return LPSolution(value, tuple(x), tuple(duals))


def certify_min_geq(solution: LPSolution, c, rows, rhs) -> None:
    """Independent optimality check: primal/dual feasibility + equal objectives."""
    c = [Fraction(v) for v in c]
    rhs = [Fraction(v) for v in rhs]
    x, y = solution.x, solution.duals
    if any(v < 0 for v in x):
        raise AssertionError("primal point has a negative coordinate")
    for row, b in zip(rows, rhs):
        lhs = sum((Fraction(a) * v for a, v in zip(row, x)), Fraction(0))
        if lhs < b:
            raise AssertionError("primal point violates a covering constraint")
    if any(v < 0 for v in y):
        raise AssertionError("dual point has a negative coordinate")
    for j in range(len(c)):
        col = sum((Fraction(rows[i][j]) * y[i] for i in range(len(rhs))), Fraction(0))
        if col > c[j]:
            raise AssertionError(f"dual point violates column {j}")
    dual_value = sum((b * v for b, v in zip(rhs, y)), Fraction(0))
    if dual_value != solution.value:
        raise AssertionError("duality gap is nonzero")
