"""Named hard instances and the exact two-knob lower-bound games.

Each constructor builds the exact small instance used to separate online
from offline performance; the game evaluator reproduces the optimal online
values for the deterministic and randomized adversary families.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .graphs import ArrivalOrder, OnlineInstance, WeightedGraph, as_rational

GOLDEN_STANDIN = Fraction(3, 5)  # default rational stand-in for (sqrt(5)-1)/2


@dataclass(frozen=True)
class NamedInstance:
    name: str
    params: dict
    instance: OnlineInstance


def _check_range(name, value, low, high):
    if not low < value < high:
        raise ValueError(f"{name}={value} outside ({low}, {high})")


def make_instance(name: str, **params) -> NamedInstance:
    """Build a named instance; parameters are exact rationals or 0/1 knobs.

    Known names: basic-tradeoff(y), constrained-deterministic-lb(w, x),
    constrained-randomized-lb(x), pg-tightness(eps), random-order-3cycle(
    v12, v23, v31).
    """
    builders = {
        "basic-tradeoff": _basic_tradeoff,
        "constrained-deterministic-lb": _constrained_deterministic_lb,
        "constrained-randomized-lb": _constrained_randomized_lb,
        "pg-tightness": _pg_tightness,
        "random-order-3cycle": _random_order_3cycle,
    }
    if name not in builders:
        raise ValueError(f"unknown instance name {name!r}")
    signature = inspect.signature(builders[name])
    unknown = sorted(set(params) - set(signature.parameters))
    if unknown:
        raise ValueError(f"{name} has no parameter {', '.join(map(repr, unknown))}; "
                         f"it takes {', '.join(signature.parameters)}")
    bound = signature.bind(**{k: as_rational(v) for k, v in params.items()})
    bound.apply_defaults()
    return NamedInstance(name, dict(bound.arguments), builders[name](**bound.arguments))


def _basic_tradeoff(y=Fraction(2)) -> OnlineInstance:
    # Two-edge path with d = 1: by period 2 the planner must take v12 = 1 or
    # gamble on the unseen y.
    if y < 0:
        raise ValueError("y must be >= 0")
    graph = WeightedGraph(3, {(1, 2): Fraction(1), (2, 3): y})
    return OnlineInstance(graph, ArrivalOrder.identity(3), 1)


def _lb_shape(w13: Fraction, x: Fraction) -> OnlineInstance:
    # Sellers {1, 2}, buyers {3, 4}, d = 2: seller 1 is critical before the
    # adversary's edge (2, 4) = x is revealed.
    if x not in (Fraction(0), Fraction(1)):
        raise ValueError("x is the adversary knob: 0 or 1")
    weights = {(2, 3): Fraction(1), (1, 3): w13}
    if x:
        weights[(2, 4)] = x
    graph = WeightedGraph(4, weights)
    roles = {1: "seller", 2: "seller", 3: "buyer", 4: "buyer"}
    return OnlineInstance(graph, ArrivalOrder.identity(4), 2, roles=roles)


def _constrained_deterministic_lb(w=GOLDEN_STANDIN, x=Fraction(1)) -> OnlineInstance:
    _check_range("w", w, Fraction(0), Fraction(1))
    return _lb_shape(w, x)


def _constrained_randomized_lb(x=Fraction(1)) -> OnlineInstance:
    return _lb_shape(Fraction(1, 2), x)


def _pg_tightness(eps=Fraction(1, 10)) -> OnlineInstance:
    _check_range("eps", eps, Fraction(0), Fraction(1))
    return _lb_shape(1 - eps, Fraction(1))


def _random_order_3cycle(v12=Fraction(0), v23=Fraction(0), v31=Fraction(1)) -> OnlineInstance:
    if min(v12, v23, v31) < 0:
        raise ValueError("weights must be >= 0")
    graph = WeightedGraph(3, {(1, 2): v12, (2, 3): v23, (1, 3): v31})
    return OnlineInstance(graph, ArrivalOrder.identity(3), 1)


# ---------------------------------------------------------------------------
# The two-knob adversary games. When seller 1 turns critical the algorithm
# matches it to buyer 3 with probability p (knowing only w); the adversary
# then reveals x. Works over Fractions and over RootFive alike.

def _lifted(op):
    """A binary operator of RootFive; an int or Fraction operand is lifted."""
    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = RootFive(other)
        return op(self, other) if isinstance(other, RootFive) else NotImplemented
    return method


@total_ordering
@dataclass(frozen=True, eq=False)
class RootFive:
    """The exact number a + b·√5 with rational a and b, an element of Q(√5).

    The golden-ratio weight (√5 − 1)/2 lives here. The order is exact: the
    sign of a + b√5 is the sign of a when a² > 5b², else the sign of b.
    """

    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @_lifted
    def __add__(self, o):
        return RootFive(self.a + o.a, self.b + o.b)

    @_lifted
    def __sub__(self, o):
        return RootFive(self.a - o.a, self.b - o.b)

    @_lifted
    def __mul__(self, o):
        return RootFive(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    @_lifted
    def __truediv__(self, o):
        norm = o.a * o.a - 5 * o.b * o.b  # zero only when o is zero
        return self * RootFive(o.a / norm, -o.b / norm)

    __radd__, __rmul__ = __add__, __mul__
    __rsub__ = _lifted(lambda self, o: o - self)

    @_lifted
    def __eq__(self, o):
        return (self.a, self.b) == (o.a, o.b)

    @_lifted
    def __lt__(self, o):
        a, b = self.a - o.a, self.b - o.b
        return (a if a * a > 5 * b * b else b) < 0


def game_value(w, p, x):
    """Algorithm-to-offline ratio for match probability p and adversary x."""
    online = p * (w + x) + (1 - p) * 1
    offline = max(w + x, 1)
    return online / offline


def optimal_online_bounds(family: str, mode: str, w=None, x_values=(0, 1)):
    """Best achievable ratio for the two-knob families, solved exactly.

    mode "deterministic" restricts the match decision to p in {0, 1};
    "randomized" optimizes p in [0, 1] as an exact 2x2 game. The family
    fixes w: 1/2 for 'constrained-randomized-lb', the provided stand-in for
    'constrained-deterministic-lb'. Restricting x_values to one point removes
    the adversary's power.
    """
    if family == "constrained-randomized-lb":
        w = Fraction(1, 2) if w is None else w
    elif family == "constrained-deterministic-lb":
        w = GOLDEN_STANDIN if w is None else w
    else:
        raise ValueError(f"unknown lower-bound family {family!r}")
    xs = list(x_values)
    if mode == "deterministic":
        candidates = [0, 1]
    elif mode == "randomized":
        candidates = [0, 1] + _crossings(w, xs)
    else:
        raise ValueError("mode is 'deterministic' or 'randomized'")
    return max(min(game_value(w, p, x) for x in xs) for p in candidates)


def _crossings(w, xs):
    """p where the adversary is indifferent between two x choices."""
    out = []
    for i, a in enumerate(xs):
        for b in xs[i + 1:]:
            # game_value is affine in p for fixed x; intersect the two lines
            fa0, fa1 = game_value(w, 0, a), game_value(w, 1, a)
            fb0, fb1 = game_value(w, 0, b), game_value(w, 1, b)
            denom = (fa1 - fa0) - (fb1 - fb0)
            if denom != 0:
                p = (fb0 - fa0) / denom
                if 0 <= p <= 1:
                    out.append(p)
    return out


def golden_ratio_fixed_point():
    """The deterministic family's optimum at its hardest weight, exactly.

    At w* = (sqrt(5)-1)/2 the two pure policies tie: max(w, 1/(1+w)) = w*.
    Returns (w*, bound(w*)) as exact RootFive values.
    """
    w = RootFive(Fraction(-1, 2), Fraction(1, 2))
    return w, optimal_online_bounds("constrained-deterministic-lb",
                                    "deterministic", w=w)
