"""Departure-time models: deterministic deadlines, memoryless lifetimes, tables.

The exact-number coercions that models and input files share live here too,
since `graphs` imports this module."""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction


def brief(value) -> str:
    """repr(value) as an error message quotes it: cut to 60 characters and
    "…" when longer, so a message about a malformed input stays one short
    line whatever the input holds."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "…"


def as_rational(value) -> Fraction:
    """Coerce ints, 'num/den' strings, and Fractions to an exact Fraction. A
    decimal exponent above CPython's limit on integer strings (4300 digits) is
    refused before `Fraction` builds 10**exponent."""
    if isinstance(value, bool):
        raise TypeError("booleans are not weights")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.int_info.default_max_str_digits
        try:  # an exponent int() cannot read is one Fraction refuses too
            if abs(int(value.lower().partition("e")[2] or 0)) > limit:
                raise OverflowError
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{brief(value)} has a zero denominator") from None
        except OverflowError:
            raise ValueError(f"{brief(value)} has a decimal exponent beyond ±{limit}") from None
        except ValueError:
            raise ValueError(f"cannot interpret {brief(value)} as an exact rational") from None
    raise TypeError(f"cannot interpret {brief(value)} as an exact rational")


def as_integer(value) -> int:
    """Coerce ints and integer strings to int; floats and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"cannot interpret {brief(value)} as an integer")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"cannot interpret {brief(value)} as an integer") from None


@dataclass(frozen=True)
class DepartureModel:
    """How long a vertex stays matchable after arriving.

    kind is one of:
      * ``deterministic`` -- every vertex departs exactly ``d`` periods after
        arrival (the base model),
      * ``geometric`` -- i.i.d. offsets with P[X = t] = delta * (1-delta)**t
        for t = 0, 1, 2, ...; memoryless in discrete time and equal to the
        deterministic model in distribution only when delta -> 1,
      * ``tabulated`` -- i.i.d. offsets drawn from a finite pmf table.

    Fixed per-vertex offsets are not a model: they are an instance's
    ``departures``. The fields are read as an instance file's are: ``d``
    and the table's offsets through `as_integer`, ``delta`` and the
    table's masses through `as_rational`, so floats, booleans and a
    missing field raise TypeError; the table may be given as a mapping and
    is kept sorted.
    """

    kind: str
    d: int | None = None
    delta: Fraction | None = None
    pmf: tuple[tuple[int, Fraction], ...] | None = None

    def __post_init__(self):
        if self.kind == "deterministic":
            object.__setattr__(self, "d", as_integer(self.d))
            if self.d < 0:
                raise ValueError("deterministic model needs d >= 0")
        elif self.kind == "geometric":
            object.__setattr__(self, "delta", as_rational(self.delta))
            if not 0 < self.delta < 1:
                raise ValueError("geometric model needs delta in (0, 1)")
        elif self.kind == "tabulated":
            object.__setattr__(self, "pmf", tuple(sorted(
                {as_integer(t): as_rational(p) for t, p in dict(self.pmf).items()}.items())))
            if not self.pmf:
                raise ValueError("tabulated model needs a pmf table")
            if sum(p for _, p in self.pmf) != 1 or any(p < 0 or t < 0 for t, p in self.pmf):
                raise ValueError("tabulated pmf must be nonnegative on offsets >= 0 and sum to 1")
        else:
            raise ValueError(f"unknown departure model kind {self.kind!r}")


def deterministic(d) -> DepartureModel:
    return DepartureModel("deterministic", d=d)


def geometric(delta) -> DepartureModel:
    return DepartureModel("geometric", delta=delta)


def tabulated(pmf) -> DepartureModel:
    return DepartureModel("tabulated", pmf=pmf)


def sample_departures(model: DepartureModel, n: int, seed: int) -> tuple[int, ...]:
    """Draw per-vertex departure offsets, reproducibly from the seed.

    Offsets count whole periods beyond the arrival period; a vertex arriving
    at slot s with offset t becomes critical at period s + t and departs at
    the end of that period.
    """
    if model.kind == "deterministic":
        return tuple([model.d] * n)
    rng = random.Random(seed)
    if model.kind == "geometric":
        # inverse CDF of the failures-before-success convention
        log_q = math.log(1 - float(model.delta))
        draws = []
        for _ in range(n):
            u = rng.random()
            draws.append(int(math.log(1 - u) / log_q) if u > 0 else 0)
        return tuple(draws)
    # tabulated
    support = [t for t, _ in model.pmf]
    weights = [float(p) for _, p in model.pmf]
    return tuple(rng.choices(support, weights=weights, k=n))


def hazard_alpha(model: DepartureModel, horizon: int) -> Fraction:
    """Exact worst-case probability that an earlier vertex frees up in time.

    For arrival slots i < j within the horizon, with i.i.d. offsets X (for i)
    and Y (for j), computes min over gaps g = j - i of
        P[i + X <= j + Y | i + X >= j] = P[X <= Y + g | X >= g],
    skipping gaps whose conditioning event has probability zero.
    """
    if horizon < 2:
        raise ValueError("horizon must cover at least two arrival slots")
    if model.kind == "deterministic":
        return Fraction(1)  # i + d <= j + d whenever i <= j
    if model.kind == "geometric":
        # By memorylessness X - g | X >= g is again geometric, so the value is
        # sum_t delta(1-delta)^t * P[Y >= t] = 1 / (2 - delta) for every gap.
        return Fraction(1, 1) / (2 - model.delta)
    pmf = dict(model.pmf)
    tail = _tail_table(pmf)
    best: Fraction | None = None
    for g in range(1, horizon):
        denom = tail.get(g, Fraction(0))
        if denom == 0:
            continue  # degenerate conditioning event
        num = Fraction(0)
        for t, p in pmf.items():
            if t >= g:
                num += p * tail.get(t - g, Fraction(0))
        value = num / denom
        if best is None or value < best:
            best = value
    if best is None:
        raise ValueError("conditioning event has probability zero at every gap")
    return best


def _tail_table(pmf: dict[int, Fraction]) -> dict[int, Fraction]:
    top = max(pmf)
    tails: dict[int, Fraction] = {}
    acc = Fraction(0)
    for t in range(top, -1, -1):
        acc += pmf.get(t, Fraction(0))
        tails[t] = acc
    return tails

