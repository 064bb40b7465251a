#!/usr/bin/env python3
"""Validate the recorded perf baselines written by scripts/bench_record.sh.

Stdlib-only, used by the tier-1 perf stage. Three file kinds:

  BENCH_micro_sim.json    google-benchmark JSON output: a context object
                          and a non-empty benchmark list, with the
                          simulator hot-path benchmarks present.
  BENCH_full_report.json  schema pasim-bench-full-report/1: one timed
                          end-to-end run of bench/full_report.
  BENCH_resilience_sweep.json
                          schema pasim-bench-resilience-sweep/1: one
                          timed run of bench/resilience_sweep (the
                          fault-ensemble axis has no fast path, so its
                          wall time tracks raw simulation throughput).

Record-only companion: this checks shape, not speed — a slow run still
validates. Exits nonzero with a message on the first violation.

Usage: check_bench_schema.py BENCH_micro_sim.json BENCH_full_report.json
           [BENCH_resilience_sweep.json]
"""
import json
import math
import sys

FULL_REPORT_SCHEMA = "pasim-bench-full-report/1"
RESILIENCE_SCHEMA = "pasim-bench-resilience-sweep/1"

# The hot paths this PR pinned down must stay covered by the recording.
REQUIRED_BENCHMARKS = (
    "BM_FftPlanRoundtrip",
    "BM_FftPlanBatchRoundtrip",
    "BM_MailboxMatchDepth",
    "BM_MailboxContention",
    "BM_AlltoallPayloads",
    "BM_BatchReprice",
)


def fail(msg):
    sys.exit(f"check_bench_schema: FAIL: {msg}")


def want(cond, msg):
    if not cond:
        fail(msg)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def load(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot parse {path}: {e}")


def check_micro(path):
    doc = load(path)
    want(isinstance(doc, dict), f"{path}: top level must be an object")
    ctx = doc.get("context")
    want(isinstance(ctx, dict), f"{path}: missing context object")
    for key in ("date", "num_cpus", "library_build_type"):
        want(key in ctx, f"{path}: context missing {key!r}")
    benches = doc.get("benchmarks")
    want(isinstance(benches, list) and benches,
         f"{path}: benchmarks must be a non-empty list")
    names = set()
    for i, b in enumerate(benches):
        want(isinstance(b, dict), f"{path}: benchmarks[{i}] must be an object")
        want(isinstance(b.get("name"), str) and b["name"],
             f"{path}: benchmarks[{i}].name must be a non-empty string")
        for key in ("real_time", "cpu_time"):
            want(is_num(b.get(key)) and b[key] >= 0,
                 f"{path}: benchmarks[{i}].{key} must be a finite number >= 0")
        want(isinstance(b.get("time_unit"), str),
             f"{path}: benchmarks[{i}].time_unit must be a string")
        names.add(b["name"].split("/")[0])
    for required in REQUIRED_BENCHMARKS:
        want(required in names,
             f"{path}: hot-path benchmark {required} missing from recording")
    print(f"check_bench_schema: OK: {path} ({len(benches)} benchmarks)")


def check_full_report(path):
    doc = load(path)
    want(isinstance(doc, dict), f"{path}: top level must be an object")
    want(doc.get("schema") == FULL_REPORT_SCHEMA,
         f"{path}: schema must be {FULL_REPORT_SCHEMA!r}, "
         f"got {doc.get('schema')!r}")
    want(isinstance(doc.get("command"), str) and doc["command"],
         f"{path}: command must be a non-empty string")
    want(isinstance(doc.get("jobs"), int) and not
         isinstance(doc.get("jobs"), bool) and doc["jobs"] >= 1,
         f"{path}: jobs must be an int >= 1")
    for key in ("wall_seconds_reported", "wall_seconds_measured"):
        want(is_num(doc.get(key)) and doc[key] > 0,
             f"{path}: {key} must be a finite number > 0")
    want(doc["wall_seconds_measured"] + 1e-9 >= doc["wall_seconds_reported"],
         f"{path}: outside measurement smaller than self-reported wall time")
    want(isinstance(doc.get("recorded_at"), str) and
         "T" in doc.get("recorded_at", ""),
         f"{path}: recorded_at must be an ISO-8601 UTC string")
    print(f"check_bench_schema: OK: {path} "
          f"(--jobs {doc['jobs']}, wall {doc['wall_seconds_reported']}s)")


def check_resilience(path):
    doc = load(path)
    want(isinstance(doc, dict), f"{path}: top level must be an object")
    want(doc.get("schema") == RESILIENCE_SCHEMA,
         f"{path}: schema must be {RESILIENCE_SCHEMA!r}, "
         f"got {doc.get('schema')!r}")
    want(isinstance(doc.get("command"), str) and doc["command"],
         f"{path}: command must be a non-empty string")
    want(isinstance(doc.get("jobs"), int) and not
         isinstance(doc.get("jobs"), bool) and doc["jobs"] >= 1,
         f"{path}: jobs must be an int >= 1")
    want(is_num(doc.get("wall_seconds_measured")) and
         doc["wall_seconds_measured"] > 0,
         f"{path}: wall_seconds_measured must be a finite number > 0")
    want(isinstance(doc.get("recorded_at"), str) and
         "T" in doc.get("recorded_at", ""),
         f"{path}: recorded_at must be an ISO-8601 UTC string")
    print(f"check_bench_schema: OK: {path} "
          f"(--jobs {doc['jobs']}, wall {doc['wall_seconds_measured']}s)")


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__.strip())
    check_micro(argv[1])
    check_full_report(argv[2])
    if len(argv) == 4:
        check_resilience(argv[3])


if __name__ == "__main__":
    main(sys.argv)
