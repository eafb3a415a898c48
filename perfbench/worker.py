"""Run one workload in this fresh, single-threaded interpreter.

Started by run.py from the root of a checkout. The first line printed is
``{"setup_s": <CPU seconds since the interpreter started>, "calibration_s":
<the calibration units taken meanwhile>}``, once ``deadline_matching`` is
imported and the inputs of the prelude and the first cycle are built; with
``--setup-only`` the process exits there. Otherwise it runs the items as a
closed loop with one caller until ``--seconds`` of CPU time have passed
(whole cycles only), checks the pinned digests on an untimed pass over the
canonical seed, and prints its result as one JSON object on the last line.

Item times are CPU seconds of the process's only thread
(``time.thread_time``); on a shared machine the wall clock also counts the
time the process waited for a processor, which varies with other tenants'
load and not with the code. The wall time is recorded next to it. Samples of
a calibration unit, taken throughout the run, let run.py scale the CPU times
to a reference speed (see perfbench/README.md).

With ``--trace 1`` the timed items are run a second time with the tracer
installed; the per-layer numbers come from that second pass and
``trace_overhead_frac`` compares the two passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from array import array
from fractions import Fraction

CALIBRATION_EVERY_S = 0.015


def _import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import deadline_matching
    location = os.path.dirname(os.path.abspath(deadline_matching.__file__))
    if location != os.path.join(src, "deadline_matching"):
        raise SystemExit(f"deadline_matching imported from {location}, not from {src}")


def calibration_unit() -> float:
    """CPU seconds of a fixed loop of Fraction and dict work that uses no
    code of the library, so that its cost tracks only the machine's speed."""
    start = time.thread_time()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 80):
        acc += Fraction(i % 17, 1 + i % 8)
        seen[i % 64] = acc
    return time.thread_time() - start


class Calibration:
    """Samples the machine's speed throughout a pass, items included.

    A CPU-time interval timer (SIGPROF) runs one calibration unit every
    CALIBRATION_EVERY_S of CPU time, wherever the interpreter is. The
    samples are (CPU clock when taken, the unit's CPU seconds); ``spent`` is
    the total, which the caller subtracts from the item it interrupted.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        taken = time.thread_time()
        spent = calibration_unit()
        self.samples.append((taken, spent))
        self.spent += spent

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


class Records:
    """Per-item timings in flat arrays, so that what the benchmark keeps
    grows by a few bytes per item and peak memory stays the program's."""

    def __init__(self):
        self.cpu_s = array("d")
        self.wall_s = array("d")
        self.start_s = array("d")
        self.failed = array("i")
        self.messages: list[str] = []

    def to_json(self) -> dict:
        return {"cpu_s": list(self.cpu_s), "wall_s": list(self.wall_s),
                "start_s": list(self.start_s), "failed": list(self.failed)}


def run_items(items, records, outputs, tracer=None, calibration=None):
    """Time each item; an item fails if it raises or a check is false. The
    calibration units that interrupted an item are not counted in it."""
    for item in items:
        run = item.run if tracer is None else tracer.item(item.label, item.run)
        spent = calibration.spent if calibration is not None else 0.0
        wall = time.perf_counter()
        start = time.thread_time()
        try:
            failures, text = run()
        except Exception as exc:  # one failed item must not end the run
            failures, text = [f"{type(exc).__name__}: {exc}"], None
        cpu = time.thread_time() - start
        if calibration is not None:
            cpu -= calibration.spent - spent
        records.cpu_s.append(cpu)
        records.wall_s.append(time.perf_counter() - wall)
        records.start_s.append(start)
        records.failed.append(bool(failures))
        records.messages += [f"{item.label}: {msg}" for msg in failures]
        outputs.append(f"{item.label}|{text}")


def measure(workload, seed, first_cycle, seconds=None, cycles=None, tracer=None,
            calibration=None):
    """Prelude, then whole cycles until the time box or the cycle count is
    reached. Returns (records, prelude outputs, cycle count)."""
    records = Records()
    prelude_out: list[str] = []
    start = time.thread_time()
    run_items(workload.prelude(), records, prelude_out, tracer, calibration)
    done = 0
    cycle = first_cycle
    while True:
        run_items(cycle, records, [], tracer, calibration)
        done += 1
        if cycles is not None and done >= cycles:
            break
        if cycles is None and time.thread_time() - start >= seconds:
            break
        cycle = workload.cycle(seed, done)
    return records, prelude_out, done


def check_pins(workload, pins, prelude_out):
    """The pin check is one item: the prelude digest of this run and the
    digest of cycle 0 of the canonical seed, with its own exactness checks."""
    from workloads import digest
    records = Records()
    cycle_out: list[str] = []
    run_items(workload.cycle(pins["canonical_seed"], 0), records, cycle_out)
    got = {"prelude": digest(prelude_out), "cycle0": digest(cycle_out)}
    want = pins["digests"][workload.name]
    failures = [f"pin {part}: digest {got[part]} != pinned {want.get(part)}"
                for part in ("prelude", "cycle0") if got[part] != want.get(part)]
    failures += [f"canonical {msg}" for msg in records.messages]
    return got, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    tracer = None
    # Set-up is sampled like the items: the timer is armed before the import.
    with Calibration() as calibration:
        _import_library(root)
        import workloads
        from deadline_matching import policies

        with open(args.pins, encoding="utf-8") as handle:
            pins = json.load(handle)

        def make_policy(name):
            policy = policies.make_policy(name)
            return tracer.wrap_policy(policy) if tracer is not None else policy

        workload = workloads.WORKLOADS[args.workload](pins, make_policy)
        first_cycle = workload.cycle(args.seed, 0)
        print(json.dumps({"setup_s": time.thread_time() - calibration.spent,
                          "calibration_s": [s for _, s in calibration.samples]}), flush=True)
        if args.setup_only:
            return 0
        records, prelude_out, cycles = measure(workload, args.seed, first_cycle,
                                               seconds=args.seconds, calibration=calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"cycles": cycles, "peak_rss_mb": peak_rss_mb, "tail_pct": workload.tail_pct,
              "calibration_s": calibration.samples}
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with Calibration() as traced_calibration:
                traced, _, _ = measure(workload, args.seed, workload.cycle(args.seed, 0),
                                       cycles=cycles, tracer=tracer,
                                       calibration=traced_calibration)
        finally:
            tracer.restore()
        spans_file = os.path.join(".perfbench", f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(os.path.join(root, spans_file))
        result.update(per_layer=tracer.per_layer_metrics(), layer_table=tracer.layer_table(),
                      traced_items=traced.to_json(),
                      traced_calibration_s=traced_calibration.samples,
                      spans_file=spans_file, spans_recorded=len(tracer.span_name))
        records.messages += traced.messages
        tracer = None  # the pin check below constructs its policies untraced
    digests, pin_failures = check_pins(workload, pins, prelude_out)
    result.update(items=records.to_json(),
                  failures=records.messages[:50] + pin_failures[:50],
                  pin_failed=bool(pin_failures), digests=digests)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
