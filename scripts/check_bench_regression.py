#!/usr/bin/env python3
"""Perf-regression check against the committed baselines.

Compares a fresh scripts/bench_record.sh recording with the committed
BENCH_micro_sim.json / BENCH_full_report.json / BENCH_resilience_sweep
.json and prints a WARN line for every benchmark that slowed down by
more than the threshold (default 10%). Speed is machine- and load-
dependent, so per-benchmark warnings are a tripwire for humans reading
the tier-1 log, never a gate, and a missing or unparsable file is
skipped (a fresh clone has no baseline to compare against).

--fail-on-regress PCT adds the one hard gate tier-1 enforces: when the
*median* slowdown across all comparisons exceeds PCT percent the script
exits nonzero. A single noisy benchmark cannot trip the median — only
the whole suite drifting slower does, which is what a real perf
regression looks like on a quiet machine.

Stdlib-only. Usage:

  check_bench_regression.py --baseline DIR --fresh DIR
      [--threshold PCT] [--fail-on-regress PCT]

where each DIR holds the BENCH_*.json recordings.
"""
import argparse
import json
import os
import statistics
import sys

MICRO = "BENCH_micro_sim.json"
FULL = "BENCH_full_report.json"
RESIL = "BENCH_resilience_sweep.json"


def load(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_regression: skipping {path}: {e}")
        return None


def micro_times(doc):
    """benchmark name -> real_time in ns, aggregates excluded."""
    times = {}
    for b in (doc or {}).get("benchmarks", []):
        name = b.get("name")
        t = b.get("real_time")
        if isinstance(name, str) and isinstance(t, (int, float)) \
                and "aggregate_name" not in b:
            times[name] = float(t)
    return times


def compare(label, base, fresh, threshold, deltas):
    """Records the delta; returns the number of WARN lines printed."""
    if base is None or fresh is None or base <= 0:
        return 0
    delta = (fresh - base) / base
    deltas.append(delta)
    if delta > threshold:
        print(f"check_bench_regression: WARN {label}: "
              f"{base:.4g} -> {fresh:.4g} (+{delta * 100:.1f}%)")
        return 1
    return 0


def compare_wall(name, key, baseline_dir, fresh_dir, threshold, deltas):
    """One timed end-to-end recording (jobs must match to compare)."""
    base = load(os.path.join(baseline_dir, name))
    fresh = load(os.path.join(fresh_dir, name))
    if base is None or fresh is None:
        return 0
    if base.get("jobs") != fresh.get("jobs"):
        print(f"check_bench_regression: skipping {name} wall time: "
              f"baseline ran --jobs {base.get('jobs')}, fresh ran "
              f"--jobs {fresh.get('jobs')} (not comparable)")
        return 0
    return compare(f"{name.removeprefix('BENCH_').removesuffix('.json')} "
                   f"{key}", base.get(key), fresh.get(key), threshold, deltas)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="directory with the committed BENCH_*.json")
    ap.add_argument("--fresh", required=True,
                    help="directory with the just-recorded BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="per-benchmark WARN threshold in percent "
                         "(default 10)")
    ap.add_argument("--fail-on-regress", type=float, default=None,
                    metavar="PCT",
                    help="exit nonzero when the median slowdown across all "
                         "comparisons exceeds PCT percent")
    args = ap.parse_args()
    threshold = args.threshold / 100.0
    warns = 0
    deltas = []

    base_micro = load(os.path.join(args.baseline, MICRO))
    fresh_micro = load(os.path.join(args.fresh, MICRO))
    if base_micro is not None and fresh_micro is not None:
        base_times = micro_times(base_micro)
        fresh_times = micro_times(fresh_micro)
        for name in sorted(base_times):
            if name not in fresh_times:
                print(f"check_bench_regression: WARN {name}: "
                      "present in baseline, missing from fresh recording")
                warns += 1
                continue
            warns += compare(f"micro_sim {name} (ns)", base_times[name],
                             fresh_times[name], threshold, deltas)

    warns += compare_wall(FULL, "wall_seconds_reported", args.baseline,
                          args.fresh, threshold, deltas)
    warns += compare_wall(RESIL, "wall_seconds_measured", args.baseline,
                          args.fresh, threshold, deltas)

    gate = ""
    median = statistics.median(deltas) if deltas else 0.0
    if args.fail_on_regress is not None and deltas:
        gate = (f", median {median * 100:+.1f}% vs the "
                f"{args.fail_on_regress:g}% gate")
    print(f"check_bench_regression: {len(deltas)} comparisons, {warns} over "
          f"the +{args.threshold:g}% warn threshold{gate}")
    if args.fail_on_regress is not None and deltas \
            and median * 100.0 > args.fail_on_regress:
        print(f"check_bench_regression: FAIL: median slowdown "
              f"{median * 100:.1f}% exceeds {args.fail_on_regress:g}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
