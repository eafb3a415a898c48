"""Spans and counters for the traced run, installed from outside the library.

The tracer replaces, for the duration of the traced phase, the name each
caller resolves: a module global such as ``engine.simulate`` (which
``enumerate_branches`` looks up on every replay), a class attribute such as
``AuctionMarket.add_buyer``, or the hook methods of a policy object the
benchmark constructed. ``src/`` is never edited.

Each call through a wrapper is a span with a name, start, end, parent span
and item id. Spans are kept in compact arrays in memory and written out at
the end; a span's self time is its duration minus the time its child spans
cover. Counts marked computed are derived from argument or result sizes.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

from deadline_matching import coverlp, engine, offline, policies

POLICIES = ("greedy", "naive-greedy", "pg", "pg-stochastic", "dda", "batching", "patient")
ENUMERATE = "engine.enumerate_branches"
SIMULATE = "engine.simulate"
ITEM = "bench.item"


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.recording = True
        self.item_labels: list[str] = []
        self.stack: list[list] = []  # [name, start, child time, span index]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def item(self, label: str, run):
        """The root span of one item. Spans are recorded for whole items
        until the cap is passed."""
        self.item_labels.append(label)
        self.recording = len(self.span_name) < self.span_cap
        return self.wrap(ITEM, run)

    def _enter(self, name: str) -> list:
        start = self.clock()
        index = -1
        if self.recording:
            name_id = self._name_id.get(name)
            if name_id is None:
                name_id = self._name_id[name] = len(self.names)
                self.names.append(name)
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_start.append(start - self.t0)
            self.span_end.append(0.0)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_item.append(len(self.item_labels) - 1)
        frame = [name, start, 0.0, index]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        self.stack.pop()
        name, start, children, index = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - children
        if index >= 0:
            self.span_end[index] = end - self.t0
        return duration

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn, after=None):
        """``after(args, kwargs, result, duration)`` runs once the span has
        closed, with ``result`` None if the call raised."""
        def traced(*args, **kwargs):
            frame = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = self._exit(frame)
                if after is not None:
                    after(args, kwargs, result, duration)
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """One span per step of the generator, so the consumer's work between
        steps is not charged to it; every yielded value is a leaf."""
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                frame = self._enter(name)
                try:
                    value = next(steps)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                self.counts[name + ".leaves"] += 1
                yield value
        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers ---------------------------------------------------
    def patch(self, owner, attr: str, name: str, after=None, generator=False):
        original = getattr(owner, attr)
        wrapper = (self.wrap_generator(name, original) if generator
                   else self.wrap(name, original, after))
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self):
        counts = self.counts

        def dp_states(args, kwargs, result, duration):
            counts["offline.max_weight_matching_exact.dp_states"] += 2 ** args[0].n

        def per_policy(args, kwargs, result, duration):
            policy = args[1] if len(args) > 1 else kwargs["policy"]
            counts[f"{SIMULATE}.{family(policy)}.busy_s"] += duration
            if self.parent_name() == ENUMERATE:
                counts[ENUMERATE + ".replays"] += 1

        def columns(args, kwargs, result, duration):
            if result is not None:
                counts["masks.enumerate_periodic_batchings.columns"] += len(result)

        def lp_sizes(args, kwargs, result, duration):
            if result is not None:
                counts["coverlp.solve_cover_lp.columns"] += result.column_count
                counts["coverlp.solve_cover_lp.orbits"] += result.orbit_count

        def tableau(args, kwargs, result, duration):
            m, n = len(args[1]), len(args[0])
            counts["simplex.solve_min_geq.tableau_cells"] += m * (n + 2 * m + 1)

        for module in (offline, policies):
            self.patch(module, "max_weight_matching_exact",
                       "offline.max_weight_matching_exact", dp_states)
        for fn in ("arrival_window_matching_value", "batched_matching_value",
                   "verify_offline_dual"):
            self.patch(offline, fn, f"offline.{fn}")
        self.patch(offline.AuctionMarket, "add_buyer", "offline.AuctionMarket.add_buyer")
        self.patch(engine, "enumerate_branches", ENUMERATE, generator=True)
        self.patch(engine, "simulate", SIMULATE, per_policy)
        self.patch(engine.MarketView, "present", "engine.MarketView.present")
        self.patch(engine, "validate_matching", "graphs.validate_matching")
        for module in (offline, policies, engine):
            self.patch(module, "build_online_graph", "graphs.build_online_graph")
        self.patch(engine, "sample_departures", "departures.sample_departures")
        self.patch(coverlp, "enumerate_periodic_batchings",
                   "masks.enumerate_periodic_batchings", columns)
        self.patch(coverlp, "solve_cover_lp", "coverlp.solve_cover_lp", lp_sizes)
        self.patch(coverlp, "verify_certificate", "coverlp.verify_certificate")
        self.patch(coverlp, "extend_cover", "coverlp.extend_cover")
        self.patch(coverlp, "solve_min_geq", "simplex.solve_min_geq", tableau)
        self.patch(coverlp, "certify_min_geq", "simplex.certify_min_geq")

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def wrap_policy(self, policy):
        """Trace the hooks of one policy object; each hook call the engine
        makes from inside ``simulate`` is one event."""
        counts = self.counts
        name = family(policy)

        def event(args, kwargs, result, duration):
            if self.parent_name() == SIMULATE:
                counts[SIMULATE + ".events"] += 1
                counts[f"{SIMULATE}.{name}.events"] += 1

        for hook in ("on_arrival", "on_critical"):
            setattr(policy, hook,
                    self.wrap(f"policies.{name}.{hook}", getattr(policy, hook), event))
        return policy

    # -- reporting -------------------------------------------------------------
    def layer_table(self) -> list[dict]:
        """Calls, busy and self time per span name, largest self time first."""
        rows = [{"name": name, "calls": self.calls[name], "busy_s": self.busy[name],
                 "self_s": self.self_time[name]} for name in self.calls]
        return sorted(rows, key=lambda row: -row["self_s"])

    def per_layer_metrics(self) -> dict[str, float]:
        calls, busy, counts = self.calls, self.busy, self.counts
        m: dict[str, float] = {}
        for fn in ("offline.max_weight_matching_exact", "offline.arrival_window_matching_value",
                   "offline.batched_matching_value", "offline.AuctionMarket.add_buyer",
                   SIMULATE, "engine.MarketView.present", "graphs.validate_matching",
                   "departures.sample_departures", "simplex.solve_min_geq"):
            m[fn + ".calls"] = calls.get(fn, 0)
            m[fn + ".busy_s"] = busy.get(fn, 0.0)
        for fn in ("offline.verify_offline_dual", "graphs.build_online_graph",
                   "masks.enumerate_periodic_batchings", "coverlp.solve_cover_lp",
                   "coverlp.verify_certificate", "coverlp.extend_cover",
                   "simplex.certify_min_geq", ENUMERATE):
            m[fn + ".busy_s"] = busy.get(fn, 0.0)
        for name in ("offline.max_weight_matching_exact.dp_states",
                     "masks.enumerate_periodic_batchings.columns",
                     "coverlp.solve_cover_lp.columns", "coverlp.solve_cover_lp.orbits",
                     "simplex.solve_min_geq.tableau_cells",
                     ENUMERATE + ".leaves", ENUMERATE + ".replays", SIMULATE + ".events"):
            m[name] = counts.get(name, 0)
        m[SIMULATE + ".self_s"] = self.self_time.get(SIMULATE, 0.0)
        m["coverlp.solve_cover_lp.self_s"] = self.self_time.get("coverlp.solve_cover_lp", 0.0)
        m[ENUMERATE + ".us_per_leaf"] = _ratio(1e6 * m[ENUMERATE + ".busy_s"],
                                               m[ENUMERATE + ".leaves"])
        m[ENUMERATE + ".leaf_yield"] = _ratio(m[ENUMERATE + ".leaves"],
                                              m[ENUMERATE + ".replays"])
        m[SIMULATE + ".us_per_event"] = _ratio(1e6 * m[SIMULATE + ".busy_s"],
                                               m[SIMULATE + ".events"])
        for policy in POLICIES:
            m[f"{SIMULATE}.{policy}.us_per_event"] = _ratio(
                1e6 * counts.get(f"{SIMULATE}.{policy}.busy_s", 0.0),
                counts.get(f"{SIMULATE}.{policy}.events", 0))
            m[f"policies.{policy}.callback_s"] = sum(
                self.self_time.get(f"policies.{policy}.{hook}", 0.0)
                for hook in ("on_arrival", "on_critical"))
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\titem\titem_label\n")
            names = self.names
            for i in range(len(self.span_name)):
                item = self.span_item[i]
                label = self.item_labels[item] if item >= 0 else ""
                out.write(f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{item}\t{label}\n")


def family(policy) -> str:
    """The policy's name without its lookahead suffix ("batching:1" is
    reported with "batching")."""
    return policy.name.split(":")[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
