#!/usr/bin/env bash
# Records the simulator's own performance baseline: the google-benchmark
# microbenchmarks (bench/micro_sim) and one timed end-to-end run each of
# bench/full_report and bench/resilience_sweep (the fault-ensemble axis,
# which bypasses every analytic fast path). Writes BENCH_micro_sim.json,
# BENCH_full_report.json and BENCH_resilience_sweep.json into out_dir.
# The default is the repo root, which re-baselines the committed files
# on purpose; tier-1 records into a temp dir and compares against them.
# Record-only: nothing here fails on a slow result —
# scripts/check_bench_schema.py validates the shape,
# scripts/check_bench_regression.py compares the numbers.
#
# Usage: scripts/bench_record.sh [build_dir [out_dir]]
#   build_dir   tree with micro_sim and full_report built (default: build)
#   out_dir     where the BENCH_*.json files go (default: the repo root)
#   PASIM_BENCH_JOBS  --jobs for the full_report run (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
DEST="${2:-.}"
JOBS="${PASIM_BENCH_JOBS:-$(nproc 2>/dev/null || echo 1)}"

for bin in "$BUILD/bench/micro_sim" "$BUILD/bench/full_report" \
           "$BUILD/bench/resilience_sweep"; do
  [ -x "$bin" ] || { echo "bench_record: missing $bin (build it first)"; exit 1; }
done
mkdir -p "$DEST"

echo "== bench_record: micro_sim =="
"$BUILD/bench/micro_sim" \
  --benchmark_format=json \
  --benchmark_out="$DEST/BENCH_micro_sim.json" \
  --benchmark_out_format=json >/dev/null
echo "wrote $DEST/BENCH_micro_sim.json"

echo "== bench_record: full_report (--jobs $JOBS) =="
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
START_NS="$(date +%s%N)"
"$BUILD/bench/full_report" --out "$OUT_DIR/report" --jobs "$JOBS" \
  --no-cache >"$OUT_DIR/log" 2>&1
END_NS="$(date +%s%N)"
WALL_MEASURED="$(awk "BEGIN { printf \"%.3f\", ($END_NS - $START_NS) / 1e9 }")"
# The binary prints its own wall clock ("wall time 12.34s, ..."): record
# both the self-reported and the outside measurement.
WALL_REPORTED="$(sed -n 's/^wall time \([0-9.]*\)s.*/\1/p' "$OUT_DIR/log" | tail -1)"
WALL_REPORTED="${WALL_REPORTED:-0}"

cat > "$DEST/BENCH_full_report.json" <<EOF
{
  "schema": "pasim-bench-full-report/1",
  "command": "bench/full_report --out <tmp> --jobs $JOBS --no-cache",
  "jobs": $JOBS,
  "wall_seconds_reported": $WALL_REPORTED,
  "wall_seconds_measured": $WALL_MEASURED,
  "recorded_at": "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
}
EOF
echo "wrote $DEST/BENCH_full_report.json (wall ${WALL_REPORTED}s at --jobs $JOBS)"

echo "== bench_record: resilience_sweep (--jobs $JOBS) =="
# The fault-ensemble axis: no repricing, no sampling
# apply (fault injection bypasses every fast path), so this wall time
# tracks the raw simulation throughput the resilience sweeps depend on.
START_NS="$(date +%s%N)"
"$BUILD/bench/resilience_sweep" --jobs "$JOBS" --no-cache \
  >"$OUT_DIR/resilience_log" 2>&1
END_NS="$(date +%s%N)"
WALL_RESIL="$(awk "BEGIN { printf \"%.3f\", ($END_NS - $START_NS) / 1e9 }")"

cat > "$DEST/BENCH_resilience_sweep.json" <<EOF
{
  "schema": "pasim-bench-resilience-sweep/1",
  "command": "bench/resilience_sweep --jobs $JOBS --no-cache",
  "jobs": $JOBS,
  "wall_seconds_measured": $WALL_RESIL,
  "recorded_at": "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
}
EOF
echo "wrote $DEST/BENCH_resilience_sweep.json (wall ${WALL_RESIL}s at --jobs $JOBS)"
