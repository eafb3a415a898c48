"""Benchmark for deadline_matching: one workload per call, checked exactly.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Workloads: exact-sweep, stochastic-mc, long-horizon, cover-certify, or
``all`` to run the four in turn. Each workload runs in its own fresh
single-threaded interpreter (perfbench/worker.py) as a closed loop with one
caller. Item times are CPU seconds of that process, scaled to a reference
speed by a calibration unit sampled throughout the run (see
perfbench/README.md); the report gives the CPU/wall share too. Set-up
time is measured on several fresh interpreters and reported as their
median. ``--trace 1`` adds a traced pass and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every item and the pinned digests check out. Reports and span files
go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("exact-sweep", "stochastic-mc", "long-horizon", "cover-certify")
SETUP_ONLY_RUNS = 5     # plus the measuring process: setup_s is a median of 6
IMPORT_RUNS = 3
DEADLINE_S = 170        # the whole call must end well inside 180 s
CALIBRATION_REFERENCE_S = 0.0004  # the calibration unit's CPU time at the reference speed
CALIBRATION_MARGIN_S = 0.1


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run a worker; return (its set-up CPU seconds at the reference speed,
    its stdout lines)."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, env=_child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker passed the time limit and was stopped")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    ready = json.loads(lines[0])
    speed = statistics.fmean(ready["calibration_s"])
    return ready["setup_s"] * CALIBRATION_REFERENCE_S / speed, lines


def _cold_import_s(deadline: float) -> float:
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.process_time(); "
            "import deadline_matching.cli; print(time.process_time() - t)")
    samples = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_child_env(), timeout=max(1.0, deadline - time.monotonic()),
                             check=True)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def environment(loadavg_start: tuple) -> dict:
    """Where the numbers came from. No CPU pinning or frequency control is
    used: machine settings are left as they are."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "cpu_pinning": "none; no CPU pinning or frequency control was used",
    }


def _fmt(loadavg: tuple) -> str:
    return "/".join(f"{x:.2f}" for x in loadavg)


def run_workload(name: str, seed: int, seconds: int, trace: bool, pins_path: str,
                 deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(int(trace)), "--pins", pins_path]
    setups = [_spawn(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_ONLY_RUNS)]
    setup_s, lines = _spawn(common, deadline)
    setups.append(setup_s)
    result = json.loads(lines[-1])
    result["setup_samples_s"] = setups
    if trace:
        result["per_layer"]["cli.import_s"] = _cold_import_s(deadline)
    return result


def normalized_latencies(items: dict, samples: list) -> list[float]:
    """Scale each item's CPU time to the reference speed by the mean
    calibration unit taken from CALIBRATION_MARGIN_S before the item to
    CALIBRATION_MARGIN_S after it (the run's mean if none is that close).

    The tuning machine switched between a fast and a slow state every few
    seconds, 1.7x apart. A mean over the samples around an item follows that
    state; a median over a whole run only picks the state that held longest.
    """
    times = [taken for taken, _ in samples]
    overall = statistics.fmean(spent for _, spent in samples)
    out = []
    for latency, start in zip(items["cpu_s"], items["start_s"]):
        lo = bisect.bisect_left(times, start - CALIBRATION_MARGIN_S)
        hi = bisect.bisect_right(times, start + latency + CALIBRATION_MARGIN_S)
        near = [spent for _, spent in samples[lo:hi]]
        speed = statistics.fmean(near) if near else overall
        out.append(latency * CALIBRATION_REFERENCE_S / speed)
    return out


def summarize(name: str, result: dict, trace: bool) -> dict:
    items = result["items"]
    latencies = sorted(normalized_latencies(items, result["calibration_s"]))
    passes = [items, result["traced_items"]] if trace else [items]
    failed_items = sum(sum(p["failed"]) for p in passes) + int(result["pin_failed"])
    attempted = sum(len(p["failed"]) for p in passes) + 1  # timed items plus the pin check
    # Each workload fixes its tail percentile: the highest with at least 10
    # items beyond it at the run length in BENCHMARK.json, so that every run
    # reports the same percentile. The count beyond it is reported with it.
    tail = result["tail_pct"]
    summary = {
        "workload": name,
        "attempted": attempted,
        "failed": failed_items,
        "items": len(latencies),
        "cycles": result["cycles"],
        "tail_percentile": tail,
        "items_beyond_tail": sum(1 for v in latencies if v > percentile(latencies, tail)),
        "cpu_share": sum(items["cpu_s"]) / sum(items["wall_s"]),
        "calibration_mean_s": statistics.fmean(v for _, v in result["calibration_s"]),
        "calibration_samples": len(result["calibration_s"]),
        "end_to_end": {
            "items_per_s": len(latencies) / sum(latencies),
            "item_p50_ms": 1e3 * percentile(latencies, 50.0),
            "item_tail_ms": 1e3 * percentile(latencies, tail),
            "setup_s": statistics.median(result["setup_samples_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "failed_frac": failed_items / attempted,
        },
    }
    if trace:
        # the same items, untraced then traced, each at the reference speed
        traced = normalized_latencies(result["traced_items"], result["traced_calibration_s"])
        summary["per_layer"] = dict(result["per_layer"],
                                    trace_overhead_frac=sum(traced) / sum(latencies) - 1)
    return summary


def print_report(summary: dict, result: dict, spec: dict, trace: bool):
    e2e = summary["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = "ratio"
    print(f"== {summary['workload']}: {summary['items']} timed items in "
          f"{summary['cycles']} whole cycles; closed loop, one caller, "
          "one single-threaded process")
    for metric, value in e2e.items():
        note = ""
        if metric == "item_tail_ms":
            note = (f"  (p{summary['tail_percentile']:g} of {summary['items']} items, "
                    f"{summary['items_beyond_tail']} beyond it)")
            if summary["items_beyond_tail"] < 10:
                note += "  [fewer than 10 items beyond: run longer]"
        elif metric == "items_per_s":
            note = (f"  (CPU time at reference speed; calibration mean "
                    f"{1e3 * summary['calibration_mean_s']:.4f} ms of "
                    f"{summary['calibration_samples']} units; CPU/wall share "
                    f"{summary['cpu_share']:.3f})")
        elif metric == "setup_s":
            note = f"  (median of {len(result['setup_samples_s'])} fresh interpreters)"
        elif metric == "failed_frac":
            note = (f"  ({summary['failed']} of {summary['attempted']} attempted, "
                    "pin check included)")
        print(f"   {metric:<14} {value:12.6g} {units[metric]}{note}")
    if trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("   per-layer table (traced pass; calls, busy and self time per span name)")
        print(f"   {'span':<46} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
        for row in result["layer_table"]:
            print(f"   {row['name']:<46} {row['calls']:>9} {row['busy_s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
        print("   per-layer metrics (computed = derived from argument or result sizes)")
        computed = ("dp_states", "tableau_cells", ".columns", ".orbits")
        for metric, value in summary["per_layer"].items():
            label = "  computed" if any(key in metric for key in computed) else ""
            print(f"   {metric:<46} {value:14.6g} {layer_units.get(metric, '')}{label}")
        print(f"   spans: {result['spans_recorded']} recorded in {result['spans_file']}")
    for message in result["failures"][:10]:
        print(f"   FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="deadline_matching benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned alphas and digests (default: perfbench/pins.json)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    loadavg_start = os.getloadavg()
    if not os.path.isfile(os.path.join("src", "deadline_matching", "__init__.py")):
        print("perfbench: run from the root of a deadline-matching checkout "
              "(src/deadline_matching not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(".perfbench", exist_ok=True)
    trace = bool(args.trace)
    summaries = []
    deadline = started + DEADLINE_S * len(names)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  os.path.abspath(args.pins), deadline)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        summary = summarize(name, result, trace)
        summary["environment"] = environment(loadavg_start)
        summary["failures"] = result["failures"]
        summary["digests"] = result["digests"]
        print_report(summary, result, spec, trace)
        report_path = os.path.join(".perfbench",
                                   f"{name}-seed{args.seed}-trace{int(trace)}.json")
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump({**summary, "layer_table": result.get("layer_table"),
                       "setup_samples_s": result["setup_samples_s"],
                       "calibration_s": result["calibration_s"]}, handle, indent=1)
        summaries.append(summary)
    env = summaries[-1]["environment"]
    print(f"env: commit={env['commit']} src_sha256={env['src_sha256'][:16]} "
          f"python={env['python']} nproc={env['nproc']} "
          f"loadavg start={_fmt(env['loadavg_start'])} end={_fmt(env['loadavg_end'])}; "
          f"{env['cpu_pinning']}")
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    metrics = {}
    for summary in summaries:
        values = summary[key]
        missing = set(declared) - set(values)
        if missing:
            print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
            return 2
        prefix = "" if len(summaries) == 1 else summary["workload"] + "/"
        for metric, unit in declared.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
