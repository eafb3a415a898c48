"""Weighted graphs, arrival orders, matchings, and the online deadline model.

Everything numeric is an exact `fractions.Fraction`, end to end, so that
conservation identities and dual-feasibility checks can use equality instead
of tolerances. Vertices and arrival slots are 1-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, count
from math import lcm
from operator import sub
from pathlib import Path

from .departures import (DepartureModel, as_integer, as_rational, brief, deterministic,
                         geometric, tabulated)

Pair = tuple[int, int]

ZERO = Fraction(0)  # the weight of every absent edge

NOT_A_PERMUTATION = "arrival order must be a permutation of 1..n"


class InstanceFormatError(ValueError):
    """Raised for malformed instance files."""


_last_inverted = ((), ())  # the last tuple accepted and its inverse, replaced as one pair


def invert_permutation(perm, n: int) -> tuple[int, ...]:
    """The inverse of a permutation of 1..n given as its values at 1..n: the
    vertices in arrival order from their slots, or back. Anything else
    raises `ValueError(NOT_A_PERMUTATION)`. One pass stores v at position
    perm[v] - 1, refusing a value past n or not an int; n values that fill
    every position are 1..n unless some wrapped round from below 1, and
    then they sum short of n(n + 1)/2. Booleans are not slots.

    The last tuple accepted is kept with its inverse, and only that one:
    called again with that very object and the same n, the function
    returns the kept inverse without a second check, so the sweep's two
    evaluators check each order once. Lists and equal but distinct tuples
    are checked every time."""
    global _last_inverted
    last, inverse = _last_inverted
    if perm is last and n == len(inverse):
        return inverse
    inverse = [0] * n
    try:
        for v, s in enumerate(perm, start=1):
            inverse[s - 1] = v
    except (IndexError, TypeError):
        inverse = None
    if (inverse is None or len(perm) != n or 0 in inverse or bool in map(type, perm)
            or 2 * sum(perm) != n * (n + 1)):
        raise ValueError(NOT_A_PERMUTATION)
    inverse = tuple(inverse)
    if type(perm) is tuple:
        _last_inverted = perm, inverse
    return inverse


@lru_cache(maxsize=1024)
def over_scale(total: int, scale: int) -> Fraction:
    """The integer `total` over a graph's `scale` as a Fraction; the sweep
    evaluators return through here, so a value that recurs is built once."""
    return Fraction(total, scale)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def ordered_pair(i: int, j: int) -> Pair:
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative edge weights on vertices 1..n; absent edge = 0.

    `rows` and `scale` are the one integer form of the weights, read-only,
    built on first use and kept with the graph; a graph made from this one
    (`dataclasses.replace`, `PresenceWindows.subgraph`) builds its own."""

    n: int
    weights: dict[Pair, Fraction]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized: dict[Pair, Fraction] = {}
        for (i, j), w in self.weights.items():
            pair = ordered_pair(i, j)
            if not (1 <= pair[0] and pair[1] <= self.n):
                raise ValueError(f"edge {pair} outside 1..{self.n}")
            w = as_rational(w)
            if w < 0:
                raise ValueError(f"negative weight on {pair}")
            if pair in normalized and normalized[pair] != w:
                raise ValueError(f"conflicting weights for {pair}")
            if w != 0:
                normalized[pair] = w
        object.__setattr__(self, "weights", normalized)

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights.get(ordered_pair(i, j), ZERO)

    @cached_property
    def scale(self) -> int:
        """The LCM of all the weights' denominators."""
        return lcm(*(w.denominator for w in self.weights.values()))

    @cached_property
    def rows(self) -> tuple[dict[int, int], ...]:
        """Indexed by vertex 0..n (entry 0 empty): the vertex's neighbours,
        ascending, each mapped to its weight as an integer over `scale`, so
        a pair reads as ``rows[u].get(v)`` and a vertex's own edges as
        ``rows[v].items()``."""
        scale = self.scale
        rows: list[dict[int, int]] = [{} for _ in range(self.n + 1)]
        for (i, j), w in sorted(self.weights.items()):  # so every row comes out ascending
            rows[i][j] = rows[j][i] = w.numerator * (scale // w.denominator)
        return tuple(rows)

    def edges(self):
        """Positive-weight edges as (i, j, weight) with i < j."""
        for (i, j), w in sorted(self.weights.items()):
            yield i, j, w

    def vertices(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class ArrivalOrder:
    """A bijection vertex -> arrival slot, both in 1..n. ``sequence`` holds
    the vertices in arrival order, the inverse."""

    slots: tuple[int, ...]

    def __post_init__(self):
        slots = tuple(as_integer(s) for s in self.slots)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "sequence", invert_permutation(slots, len(slots)))

    @classmethod
    def identity(cls, n: int) -> "ArrivalOrder":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.slots)

    def slot_of(self, v: int) -> int:
        return self.slots[v - 1]

    def vertex_at(self, slot: int) -> int:
        return self.sequence[slot - 1]


def checked_offsets(offsets, n: int) -> tuple[int, ...]:
    """Departure offsets as integers, one per vertex and none negative. A
    tuple of plain ints comes back as itself; anything else goes through
    `as_integer`, which refuses True, 1.0 and Fraction(1) alike."""
    deps = tuple(offsets)
    if not {*map(type, deps)} <= {int}:
        deps = tuple(map(as_integer, deps))
    if len(deps) != n:
        raise ValueError("departures must list one offset per vertex")
    if deps and min(deps) < 0:
        raise ValueError("departure offsets must be >= 0")
    return deps


@lru_cache(maxsize=1)
def deadline_offsets(deadline: int, n: int) -> tuple[int, ...]:
    """The deadline as every vertex's offset. The last tuple built is kept,
    so the runs of an instance on its deadline and its deadline rule hand
    `OnlineInstance.windows` one object, which its memo knows by identity."""
    return (deadline,) * n


def checked_lookahead(lookahead: int) -> int:
    """A lookahead allowance: an int of at least 0, and not a bool."""
    if isinstance(lookahead, bool) or lookahead < 0:
        raise ValueError("lookahead must be >= 0")
    return lookahead


# the last (instance, offsets, lookahead) asked for and its rule, replaced as one
_last_windows: tuple = (None, (), 0, None)


@dataclass(frozen=True)
class OnlineInstance:
    """A weighted graph arriving over time, with a deadline model.

    ``deadline`` is the deterministic number of periods a vertex stays after
    arrival. Either ``departures`` fixes a realized offset per vertex or
    ``departure_model`` draws the offsets per run, never both;
    `engine.realized_departures` resolves a run's offsets. ``roles``
    optionally declares a seller/buyer side per vertex for constrained
    bipartite inputs; it is in-memory metadata only.
    """

    graph: WeightedGraph
    order: ArrivalOrder
    deadline: int
    departures: tuple[int, ...] | None = None
    departure_model: DepartureModel | None = None
    roles: dict[int, str] | None = None

    def __post_init__(self):
        deadline = as_integer(self.deadline)
        if deadline < 0:
            raise ValueError("deadline must be >= 0")
        object.__setattr__(self, "deadline", deadline)
        if self.order.n != self.graph.n:
            raise ValueError("arrival order and graph disagree on n")
        if self.departures is not None:
            if self.departure_model is not None:
                raise ValueError("give either departures or departure_model, not both")
            object.__setattr__(self, "departures", checked_offsets(self.departures, self.graph.n))
        if self.roles is not None:
            if set(self.roles) != set(self.graph.vertices()):
                raise ValueError("roles must cover every vertex")
            if any(r not in ("seller", "buyer") for r in self.roles.values()):
                raise ValueError("roles are 'seller' or 'buyer'")

    @property
    def n(self) -> int:
        return self.graph.n

    def with_order(self, order: ArrivalOrder) -> "OnlineInstance":
        return replace(self, order=order)

    def windows(self, offsets=None, lookahead: int = 0) -> "PresenceWindows":
        """The presence-window rule on this arrival order. Offsets default to
        the deadline for every vertex, whatever `departures` holds; a run's
        offsets come from `engine.realized_departures`.

        The last rule built is kept with its key, (this instance, the
        offsets as a tuple, lookahead), and only that one: asked again for
        the same key, the instance returns the kept rule, so a run, its
        schedule (`engine.event_schedule`) and a dual check on the deadline
        rule build it once. Offsets of None key as the deadline for every
        vertex. The instance keys by identity, so equal but distinct
        instances and `with_order` copies build their own. Callers share
        the rule and must not change it.

        Offsets are checked as an instance's own (`checked_offsets`) unless
        they are the kept key itself, of length n, or the deadline tuple
        (`deadline_offsets`) that every run on the deadline hands in. An
        equal tuple is checked, since True, 1.0 and Fraction(1) equal 1 but
        are refused; one of plain ints is kept as given, so it is known by
        identity when it comes again."""
        global _last_windows
        instance, last_offsets, last_lookahead, rule = _last_windows
        if offsets is None:
            offsets = deadline_offsets(self.deadline, self.n)
        elif not (offsets is last_offsets and len(offsets) == self.n
                  or offsets is deadline_offsets(self.deadline, self.n)):
            offsets = checked_offsets(offsets, self.n)
        if (instance is self and type(lookahead) is int and lookahead == last_lookahead
                and offsets == last_offsets):
            return rule
        rule = PresenceWindows(self.order.slots, self.deadline, offsets, lookahead)
        _last_windows = self, offsets, lookahead, rule
        return rule


class PresenceWindows:
    """The online model's one rule: a vertex can be matched only while present.

    A vertex stays ``offsets[v - 1]`` periods after arriving: the deadline d,
    or a realized departure offset. Its reach, min(offset, d) + lookahead,
    says how many slots later an arrival can still meet it, so an earlier
    vertex a and a later arrival b share an edge of the online graph iff
    slot(b) - slot(a) <= reach(a). The deadline caps the reach because it
    defines which edges exist; a realized departure only shortens a window.
    ``critical`` holds each vertex's critical time, slot + offset: the last
    period at which it can be matched; it departs at its end. A pair may be
    matched at tick t iff max slot <= t <= min critical time + lookahead. The
    lookahead allowance models a policy that knows the next arrivals; it is 0
    in the base model, and one below 0 or a bool is refused. Offsets default
    to d for every vertex: the deadline graph.

    `OnlineInstance.windows` builds one rule per (instance, offsets,
    lookahead) and hands the same object to every caller that asks for
    that key in turn, so a rule is read-only once built: ``reach`` and
    ``critical`` are lists, but no caller may change them.
    """

    def __init__(self, slots, deadline: int, offsets=None, lookahead: int = 0):
        self.lookahead = checked_lookahead(lookahead)
        self.slots = tuple(slots)
        self.offsets = tuple(offsets) if offsets is not None else (deadline,) * len(self.slots)
        self.reach = [min(t, deadline) + lookahead for t in self.offsets]
        self.critical = [s + t for s, t in zip(self.slots, self.offsets)]

    def live(self, u: int, v: int) -> bool:
        gap = self.slots[v - 1] - self.slots[u - 1]
        return gap <= self.reach[u - 1] if gap > 0 else -gap <= self.reach[v - 1]

    def subgraph(self, graph: WeightedGraph) -> WeightedGraph:
        """The edges of `graph` that the rule keeps."""
        return WeightedGraph(graph.n, {e: w for e, w in graph.weights.items() if self.live(*e)})

    def violations(self, pair: Pair, t: int, taken=()) -> tuple[str, ...]:
        """Every reason why matching `pair` at tick t breaks the rule;
        `taken` holds the vertices that another pair already uses."""
        i, j = pair
        si, sj = self.slots[i - 1], self.slots[j - 1]
        reasons = []
        if i in taken or j in taken:
            reasons.append("overlaps another pair")
        if not self.live(i, j):
            reasons.append(f"edge absent in the online graph (slot gap {abs(si - sj)} "
                           f"exceeds the window {self.reach[(i if si < sj else j) - 1]})")
        if t < max(si, sj):
            reasons.append("matched before both arrived")
        ci, cj = self.critical[i - 1], self.critical[j - 1]
        if t > min(ci, cj) + self.lookahead:
            late = i if ci <= cj else j
            reasons.append(f"matched after vertex {late} departed at time {min(ci, cj)}")
        return tuple(reasons)


def build_online_graph(instance: OnlineInstance) -> WeightedGraph:
    """Keep edge (i, j) iff |slot(i) - slot(j)| <= deadline; others become 0."""
    return instance.windows().subgraph(instance.graph)


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint unordered pairs with their exact total weight."""

    pairs: frozenset[Pair]
    weight: Fraction

    def __post_init__(self):
        pairs: list[Pair] = []
        seen: set[int] = set()
        for i, j in self.pairs:
            i, j = ordered_pair(i, j)
            if i in seen or j in seen:
                raise ValueError(f"pairs overlap at vertex {i if i in seen else j}")
            seen.update((i, j))
            pairs.append((i, j))
        object.__setattr__(self, "pairs", frozenset(pairs))
        object.__setattr__(self, "weight", Fraction(self.weight))

    @classmethod
    def from_pairs(cls, graph: WeightedGraph, pairs) -> "Matching":
        """The pairs as a matching, weighed in `graph`; absent edges weigh 0."""
        matching = cls(pairs, ZERO)
        object.__setattr__(matching, "weight",
                           sum((graph.weight(i, j) for i, j in matching.pairs), ZERO))
        return matching

    def sorted_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self.pairs))


def matching_weight(graph: WeightedGraph, matching) -> Fraction:
    """Exact sum of edge weights of a pair set; absent edges contribute 0.

    Raises on overlapping pairs (disjointness violation).
    """
    pairs = matching.pairs if isinstance(matching, Matching) else matching
    return Matching.from_pairs(graph, pairs).weight


# ---------------------------------------------------------------------------
# Instance files

_INSTANCE_FIELDS = {"n", "d", "edges", "sigma", "departures", "departure_model"}

# the largest n an instance or certificate file may declare, checked before
# anything of size n is built
MAX_FILE_N = 10**6

# the deepest nesting of arrays and objects a file may have, checked before
# parsing, so the parser never meets the interpreter's recursion limit
MAX_JSON_DEPTH = 100
_OPEN_AS_TWO = bytes.maketrans(b"[]{}", b"\2\0\2\0")
_NOT_BRACKET = bytes(set(range(256)) - set(b"[]{}"))

_MODEL_FIELD = {"deterministic": "d", "geometric": "delta", "tabulated": "pmf"}


def parse_departure_model(data: dict) -> DepartureModel:
    """Parse the instance-file form, e.g. {"kind": "geometric", "delta": "1/2"}."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("departure_model must be an object with a 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _MODEL_FIELD:
        raise ValueError(f"unknown departure_model kind {brief(kind)}")
    field = _MODEL_FIELD[kind]
    if set(data) != {"kind", field}:
        raise ValueError(f"{kind} departure_model takes exactly {field!r}")
    value = data[field]
    if kind == "deterministic":
        return deterministic(value)
    if kind == "geometric":
        return geometric(value)
    if not isinstance(value, dict):
        raise ValueError("tabulated departure_model needs 'pmf' as an object")
    return tabulated(value)


def departure_model_to_json(model: DepartureModel) -> dict:
    if model.kind == "deterministic":
        return {"kind": "deterministic", "d": model.d}
    if model.kind == "geometric":
        return {"kind": "geometric", "delta": format_rational(model.delta)}
    return {"kind": "tabulated", "pmf": {str(t): format_rational(p) for t, p in model.pmf}}


def instance_to_json(instance: OnlineInstance) -> dict:
    data: dict = {
        "n": instance.n,
        "d": instance.deadline,
        "edges": [[i, j, format_rational(w)] for i, j, w in instance.graph.edges()],
    }
    if instance.order.slots != ArrivalOrder.identity(instance.n).slots:
        data["sigma"] = list(instance.order.slots)
    if instance.departures is not None:
        data["departures"] = list(instance.departures)
    if instance.departure_model is not None:
        data["departure_model"] = departure_model_to_json(instance.departure_model)
    return data


def instance_from_json(data: dict) -> OnlineInstance:
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    unknown = set(data) - _INSTANCE_FIELDS
    if unknown:
        raise InstanceFormatError(f"unknown instance fields: {brief(sorted(unknown))}")
    try:
        n = as_integer(data["n"])
        d = as_integer(data["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError("instance needs integer 'n' and 'd'") from exc
    if n > MAX_FILE_N:
        raise InstanceFormatError(f"n = {n} exceeds the limit of {MAX_FILE_N}")
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise InstanceFormatError("'edges' must be a list")
    weights: dict[Pair, Fraction] = {}
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise InstanceFormatError(f"edge entry {brief(entry)} is not [i, j, weight]")
        i, j, w = entry
        try:
            weights[ordered_pair(as_integer(i), as_integer(j))] = as_rational(w)
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"bad edge entry {brief(entry)}: {exc}") from exc
    try:
        model = (parse_departure_model(data["departure_model"])
                 if "departure_model" in data else None)
        sigma = _integer_list(data, "sigma")
        order = ArrivalOrder(sigma) if sigma is not None else ArrivalOrder.identity(n)
        return OnlineInstance(WeightedGraph(n, weights), order, d,
                              departures=_integer_list(data, "departures"),
                              departure_model=model)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def _integer_list(data: dict, field: str) -> tuple[int, ...] | None:
    """The integers listed under `field`, or None when the field is absent."""
    values = data.get(field)
    if values is None:
        return None
    if not isinstance(values, list):
        raise TypeError(f"'{field}' must be a list of integers")
    try:
        return tuple(as_integer(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'{field}': {exc}") from None


def save_instance(instance: OnlineInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance), indent=2) + "\n",
                          encoding="utf-8")


def read_json(path, error: type[ValueError]):
    """The JSON document in the file at `path`. A file that nests arrays and
    objects deeper than MAX_JSON_DEPTH, or does not parse, raises `error`."""
    text = Path(path).read_text(encoding="utf-8")
    # the brackets outside string literals, once escaped backslashes and
    # quotes are gone; an opening one as 2 and a closing one as 0, so the
    # first i of them nest (their sum - i) deep
    data = text.encode().replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = b"".join(data.split(b'"')[::2]).translate(_OPEN_AS_TWO, _NOT_BRACKET)
    if max(map(sub, accumulate(brackets), count(1)), default=0) > MAX_JSON_DEPTH:
        raise error("not valid JSON: nested too deeply to parse")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc}") from exc


def load_instance(path) -> OnlineInstance:
    return instance_from_json(read_json(path, InstanceFormatError))
