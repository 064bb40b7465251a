#!/usr/bin/env bash
# Tier-1 verification: the full build + test suite, then the
# concurrency tests again under ThreadSanitizer (PASIM_SANITIZE=thread,
# separate build-tsan/ tree) and the fault/error-path tests under
# AddressSanitizer + UndefinedBehaviorSanitizer (PASIM_SANITIZE=address,
# build-asan/). Sanitizer stages are skipped gracefully on toolchains
# without the respective -fsanitize support.
#
# Usage: scripts/tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

have_sanitizer() {
  printf 'int main(){return 0;}' |
    c++ -x c++ "-fsanitize=$1" -o /dev/null - 2>/dev/null
}

echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tier 1: observability artifacts =="
ROOT="$PWD"
OBS_DIR="$(mktemp -d)"
REPLAY_DIR="$(mktemp -d)"
PERF_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$REPLAY_DIR" "$PERF_DIR"' EXIT
# One small faulty sweep with everything on: all five artifacts must
# appear, and run_report.json must satisfy the published schema.
(cd "$OBS_DIR" && "$ROOT/build/bench/resilience_sweep" --small \
  --faults 0.05 --no-cache --jobs 2 \
  --trace obs --metrics obs >/dev/null)
for f in run_report.json trace.json power_timeline.csv metrics.csv \
         metrics_volatile.csv; do
  [ -s "$OBS_DIR/obs/$f" ] || { echo "missing obs artifact: $f"; exit 1; }
done
if command -v python3 >/dev/null; then
  python3 scripts/check_report_schema.py "$OBS_DIR/obs/run_report.json"
else
  echo "skipped schema check: python3 not available"
fi
# The disabled configuration is the default everywhere: it must leave
# no artifacts behind (the no-op path really is a no-op).
(mkdir -p "$OBS_DIR/off" && cd "$OBS_DIR/off" && \
  "$ROOT/build/bench/resilience_sweep" --small --faults 0.05 \
  --no-cache --jobs 2 >/dev/null)
if [ -n "$(ls "$OBS_DIR/off")" ]; then
  echo "disabled run left artifacts behind:"; ls "$OBS_DIR/off"; exit 1
fi
echo "observability artifacts OK"

echo "== tier 1: concurrency tests under TSan =="
if have_sanitizer thread; then
  cmake -B build-tsan -S . -DPASIM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target util_test mpi_test analysis_test fault_test obs_test npb_test
  ./build-tsan/tests/util_test --gtest_filter='ThreadPool.*'
  # EP's slice cache hands one chunk to every column that asks for it
  # at the same moment (Ep.ConcurrentColumnsShareChunks).
  ./build-tsan/tests/npb_test --gtest_filter='Ep.*'
  # Mailbox.* includes the many-senders/interleaved-tags stress test of
  # the bucketed queues and their targeted wakeups.
  ./build-tsan/tests/mpi_test --gtest_filter='Runtime.*:Mailbox.*'
  # The metrics registry is updated lock-free from every worker.
  ./build-tsan/tests/obs_test --gtest_filter='MetricsRegistry.*'
  ./build-tsan/tests/analysis_test \
    --gtest_filter='SweepExecutor.*:MatrixResult.*:RunMatrix.*'
  # A server's connection threads and its scheduler share one journal
  # handle's read cursor and index while a worker's handle appends.
  ./build-tsan/tests/analysis_test --gtest_filter='SweepJournalConcurrency.*'
  # Sampled sweeps fan out estimator-backed points whose boundary
  # probes every rank thread writes: race-prone by construction.
  ./build-tsan/tests/analysis_test \
    --gtest_filter='SampledEstimator.*:SweepSampling.*'
  # The watchdog (monitor + mailbox wakeups) and the fail-soft sweep
  # are the raciest code in the tree: run every fault test under TSan.
  ./build-tsan/tests/fault_test
else
  echo "skipped: this toolchain does not support -fsanitize=thread"
fi

echo "== tier 1: frequency-collapse replay =="
# The replay suites (DESIGN.md §10–11), pinned to full simulation —
# under TSan when available, since column tasks re-price concurrently.
# A filter that matches nothing passes silently, so each suite must
# list at least one test.
REPLAY_TESTS=./build/tests/analysis_test
have_sanitizer thread && REPLAY_TESTS=./build-tsan/tests/analysis_test
for suite in BatchRepricer BatchedSweep ReplayFastPath LedgerCache; do
  listed="$("$REPLAY_TESTS" --gtest_list_tests --gtest_filter="$suite.*" |
            grep -c '^  ' || true)"
  [ "$listed" -gt 0 ] || { echo "no $suite tests to run"; exit 1; }
done
"$REPLAY_TESTS" \
  --gtest_filter='BatchRepricer.*:BatchedSweep.*:ReplayFastPath.*:LedgerCache.*'
# Two processes running the same cache suites at once keep apart: each
# test process has its own scratch directory (tests/test_scratch.hpp).
TWIN_FILTER='LedgerCache.*:ReplayFastPath.*'
"$REPLAY_TESTS" --gtest_filter="$TWIN_FILTER" > "$REPLAY_DIR/twin1.log" 2>&1 &
TWIN_PID=$!
"$REPLAY_TESTS" --gtest_filter="$TWIN_FILTER" > "$REPLAY_DIR/twin2.log" 2>&1 || {
  echo "concurrent replay suites: second run failed"
  cat "$REPLAY_DIR/twin2.log"; wait "$TWIN_PID" || true; exit 1; }
wait "$TWIN_PID" || {
  echo "concurrent replay suites: first run failed"
  cat "$REPLAY_DIR/twin1.log"; exit 1; }
# Cold vs warm ledger: the first run records one ledger per column;
# deleting the .run records forces the second run to re-price every
# point from the persisted ledgers (verified against full simulation
# by --verify-replay). Both outputs must be byte-identical.
./build/bench/fig2_ft_surface --small --jobs 2 \
  --cache "$REPLAY_DIR/cache" --csv "$REPLAY_DIR/cold.csv" \
  > "$REPLAY_DIR/cold.out"
rm -f "$REPLAY_DIR/cache/"*.run
./build/bench/fig2_ft_surface --small --jobs 2 --verify-replay \
  --cache "$REPLAY_DIR/cache" --csv "$REPLAY_DIR/warm.csv" \
  > "$REPLAY_DIR/warm.out"
cmp "$REPLAY_DIR/cold.out" "$REPLAY_DIR/warm.out"
cmp "$REPLAY_DIR/cold.csv" "$REPLAY_DIR/warm.csv"
# A cold --jobs 8 sweep re-simulates every batched lane under
# --verify-replay; fig2's output does not depend on --jobs, so it must
# match the cold run byte for byte.
./build/bench/fig2_ft_surface --small --jobs 8 --verify-replay \
  --cache "$REPLAY_DIR/cache8" --csv "$REPLAY_DIR/jobs8.csv" \
  > "$REPLAY_DIR/jobs8.out"
cmp "$REPLAY_DIR/cold.out" "$REPLAY_DIR/jobs8.out"
cmp "$REPLAY_DIR/cold.csv" "$REPLAY_DIR/jobs8.csv"
# The same three legs with faults armed: fault-armed columns take the
# fast path too (each replayed lane re-draws its own fault streams), so
# the cold run records one ledger per column.
FAULTS=(--faults 0.05 --fault-seed 3)
./build/bench/fig2_ft_surface --small --jobs 2 "${FAULTS[@]}" \
  --cache "$REPLAY_DIR/fcache" --csv "$REPLAY_DIR/fcold.csv" \
  > "$REPLAY_DIR/fcold.out"
ledgers="$(find "$REPLAY_DIR/fcache" -name '*.ledger' | wc -l)"
[ "$ledgers" -eq 3 ] || {
  echo "fault-armed cold run left $ledgers ledgers, expected 3"; exit 1; }
rm -f "$REPLAY_DIR/fcache/"*.run
./build/bench/fig2_ft_surface --small --jobs 2 "${FAULTS[@]}" \
  --verify-replay --cache "$REPLAY_DIR/fcache" \
  --csv "$REPLAY_DIR/fwarm.csv" > "$REPLAY_DIR/fwarm.out"
cmp "$REPLAY_DIR/fcold.out" "$REPLAY_DIR/fwarm.out"
cmp "$REPLAY_DIR/fcold.csv" "$REPLAY_DIR/fwarm.csv"
./build/bench/fig2_ft_surface --small --jobs 8 "${FAULTS[@]}" \
  --verify-replay --cache "$REPLAY_DIR/fcache8" \
  --csv "$REPLAY_DIR/fjobs8.csv" > "$REPLAY_DIR/fjobs8.out"
cmp "$REPLAY_DIR/fcold.out" "$REPLAY_DIR/fjobs8.out"
cmp "$REPLAY_DIR/fcold.csv" "$REPLAY_DIR/fjobs8.csv"
# The ledger key ignores faults: the fault-armed cold run over the
# clean run's cache prices every column from the clean ledgers, adds no
# .ledger, and prints what the fresh-cache fault-armed run printed.
ledgers="$(find "$REPLAY_DIR/cache" -name '*.ledger' | wc -l)"
./build/bench/fig2_ft_surface --small --jobs 2 "${FAULTS[@]}" \
  --cache "$REPLAY_DIR/cache" --csv "$REPLAY_DIR/fshared.csv" \
  > "$REPLAY_DIR/fshared.out"
shared="$(find "$REPLAY_DIR/cache" -name '*.ledger' | wc -l)"
[ "$shared" -eq "$ledgers" ] || {
  echo "fault-armed run on the clean cache added $((shared - ledgers))" \
    "ledgers, expected 0"; exit 1; }
cmp "$REPLAY_DIR/fcold.out" "$REPLAY_DIR/fshared.out"
cmp "$REPLAY_DIR/fcold.csv" "$REPLAY_DIR/fshared.csv"
# resilience_sweep batches each kernel's clean and fault-armed grids on
# one executor, so fault-armed heads are priced by replay. Seed 5 hands
# lanes back to full simulation. Its table must not depend on --jobs,
# and --verify-replay re-simulates every priced lane.
RES=(--small --faults 0.05 --fault-seed 5)
table() { grep -E '^(Resilience sweep:|\+|\|)' "$1"; }
for j in 1 4; do
  ./build/bench/resilience_sweep "${RES[@]}" --no-cache --jobs "$j" \
    > "$REPLAY_DIR/res$j.out"
done
./build/bench/resilience_sweep "${RES[@]}" --jobs 2 --verify-replay \
  --cache "$REPLAY_DIR/res_cache" > "$REPLAY_DIR/res_verify.out"
table "$REPLAY_DIR/res1.out" > "$REPLAY_DIR/res1.table"
[ -s "$REPLAY_DIR/res1.table" ] || { echo "resilience_sweep printed no table"; exit 1; }
for r in res4 res_verify; do
  table "$REPLAY_DIR/$r.out" | cmp "$REPLAY_DIR/res1.table" -
done
# A fault block that splits columns: the fast 1400 MHz heads survive,
# and tail lanes whose node dies before they finish fall back to full
# simulation (with retries). A --jobs 8 --verify-replay run must match
# the uncached --jobs 1 run, and fewer points than the 6 column-tail
# lanes may count as repriced.
SPLIT=specs/ft_fault_split_small.json
./build/bench/fig2_ft_surface --spec "$SPLIT" --jobs 1 --no-cache \
  --csv "$REPLAY_DIR/split1.csv" > "$REPLAY_DIR/split1.out"
./build/bench/fig2_ft_surface --spec "$SPLIT" --jobs 8 --verify-replay \
  --cache "$REPLAY_DIR/split_cache" --csv "$REPLAY_DIR/split8.csv" \
  --metrics "$REPLAY_DIR/split_obs" > "$REPLAY_DIR/split8.out"
cmp "$REPLAY_DIR/split1.csv" "$REPLAY_DIR/split8.csv"
awk -F, '$1 == "sweep.points_repriced" { seen = 1; v = $4 }
  END { exit !(seen && v + 0 < 6) }' "$REPLAY_DIR/split_obs/metrics.csv" || {
  echo "the fault-split spec repriced every tail lane: no fallback ran"
  exit 1; }
echo "frequency-collapse replay OK (cold/warm/--jobs 8 byte-identical," \
  "clean and fault-armed; fault-armed columns share clean ledgers;" \
  "aborting lanes fall back)"

echo "== tier 1: sampled estimation =="
# DESIGN.md §14, on the axis replay cannot collapse (node count
# at one frequency). Two gates:
#   1. CI coverage — a sampled sweep with --verify-sampling 1
#      re-simulates every point exactly and aborts if any exact
#      makespan falls outside the reported 95% interval, so the run
#      completing IS the assertion.
#   2. Speed — sampling must cut wall clock by >= 3x on a
#      deep-iteration grid vs the exact cold run.
SAMPLING_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$REPLAY_DIR" "$PERF_DIR" "$SAMPLING_DIR"' EXIT
./build/bench/fig2_ft_surface --small --iterations 96 --nodes 1,2,4 \
  --freqs 1000 --jobs 1 --no-cache --sampling --sample-period 8 \
  --warmup-iters 2 --verify-sampling 1 \
  --csv "$SAMPLING_DIR/sampled.csv" > "$SAMPLING_DIR/sampled.out"
echo "sampling CI coverage OK (every exact point inside its interval)"
T0="$(date +%s%N)"
./build/bench/fig2_ft_surface --small --iterations 384 --nodes 1,2,4 \
  --freqs 1000 --jobs 1 --no-cache \
  --csv "$SAMPLING_DIR/deep_exact.csv" >/dev/null
T1="$(date +%s%N)"
./build/bench/fig2_ft_surface --small --iterations 384 --nodes 1,2,4 \
  --freqs 1000 --jobs 1 --sampling --sample-period 8 --warmup-iters 2 \
  --no-cache --csv "$SAMPLING_DIR/deep_sampled.csv" >/dev/null
T2="$(date +%s%N)"
RATIO="$(awk "BEGIN { printf \"%.1f\", ($T1 - $T0) / ($T2 - $T1) }")"
echo "sampled sweep: ${RATIO}x faster than exact"
awk "BEGIN { exit !(($T1 - $T0) >= 3 * ($T2 - $T1)) }" || {
  echo "sampling speedup below the 3x floor"; exit 1; }

echo "== tier 1: fault + error paths under ASan + UBSan =="
if have_sanitizer address,undefined; then
  cmake -B build-asan -S . -DPASIM_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target fault_test mpi_test robustness_test serve_test analysis_test
  ./build-asan/tests/fault_test
  # Ledger serialization walks every byte of a recorded op arena and
  # the quarantine path handles truncated files — leak/overflow bait.
  ./build-asan/tests/analysis_test \
    --gtest_filter='SampledEstimator.*:SweepSampling.*:LedgerCache.*'
  # Exception-heavy error paths (invalid requests, collective
  # mismatches) where leaks from unwound ranks would hide.
  ./build-asan/tests/mpi_test \
    --gtest_filter='Collectives.*:Nonblocking.*:Runtime.*'
  # The crash-safety torture tests (DESIGN.md §12) and the serve stack
  # (§13) fork and SIGKILL themselves on purpose — ASan, never TSan
  # (fork and TSan don't mix).
  ./build-asan/tests/robustness_test
  ./build-asan/tests/serve_test
else
  echo "skipped: this toolchain does not support -fsanitize=address,undefined"
fi

echo "== tier 1: crash-safety torture (SIGKILL / corrupt / resume) =="
# Shell-level proof of the ISSUE 7 acceptance criteria: a --jobs 8
# sweep SIGKILLed mid-flight (at several journal depths), its cache
# entries corrupted, then resumed — the stable artifacts (REPORT.md +
# CSVs) must be byte-identical to an uninterrupted --jobs 1 run.
ROBUST_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$REPLAY_DIR" "$PERF_DIR" "$SAMPLING_DIR" "$ROBUST_DIR"' EXIT
REF="$ROBUST_DIR/ref"
"$ROOT/build/bench/full_report" --small --jobs 1 --no-cache \
  --out "$REF" >/dev/null
CRASH_OUT="$ROBUST_DIR/crashed"
JOURNAL="$ROBUST_DIR/sweep.journal"
CACHE="$ROBUST_DIR/cache"
for k in 5 11 23; do
  if PASIM_CRASH_AFTER_APPENDS=$k "$ROOT/build/bench/full_report" --small \
      --jobs 8 --cache "$CACHE" --journal "$JOURNAL" --resume \
      --out "$CRASH_OUT" >/dev/null 2>&1; then
    echo "crash injection failed: run survived PASIM_CRASH_AFTER_APPENDS=$k"
    exit 1
  fi
  # Every partial journal must still satisfy the published schema.
  if command -v python3 >/dev/null; then
    python3 scripts/check_journal_schema.py "$JOURNAL"
  fi
done
"$ROOT/build/bench/full_report" --small --jobs 8 --cache "$CACHE" \
  --journal "$JOURNAL" --resume --out "$CRASH_OUT" >/dev/null 2>&1
for f in "$REF"/*; do
  cmp "$f" "$CRASH_OUT/$(basename "$f")"
done
echo "crash/resume OK (artifacts byte-identical to clean run)"
# --isolate leg: every column runs in a forked worker under the column
# supervisor and reports through the journal; the artifacts must match
# the in-process run byte for byte.
mkdir -p "$ROBUST_DIR/iso"
"$ROOT/build/bench/full_report" --small --jobs 4 --no-cache --isolate \
  --journal "$ROBUST_DIR/iso/sweep.journal" --out "$ROBUST_DIR/iso_out" \
  >/dev/null 2>&1
for f in "$REF"/*; do
  cmp "$f" "$ROBUST_DIR/iso_out/$(basename "$f")"
done
echo "isolated sweep OK (artifacts byte-identical to in-process run)"
# Corrupt what the crashes left behind: flip a byte inside one record
# entry, cut one ledger short. A journal-less re-run (so every point
# actually reads the cache instead of being served from the journal)
# must quarantine the flipped entry (.bad), not crash, and still
# reconverge.
run_entry="$(ls "$CACHE"/*.run 2>/dev/null | head -1 || true)"
ledger_entry="$(ls "$CACHE"/*.ledger 2>/dev/null | head -1 || true)"
if [ -n "$run_entry" ]; then
  # Overwrite a byte near the END of the entry: that is checksummed
  # payload (bytes near the start are the key line, where a flip reads
  # as a filename collision, a different — legitimate — miss path).
  size=$(stat -c %s "$run_entry")
  printf 'X' | dd of="$run_entry" bs=1 seek=$((size - 10)) \
    conv=notrunc status=none
fi
[ -n "$ledger_entry" ] && truncate -s 40 "$ledger_entry"
"$ROOT/build/bench/full_report" --small --jobs 8 --cache "$CACHE" \
  --out "$ROBUST_DIR/corrupt_out" >/dev/null 2>&1
for f in "$REF"/*; do
  cmp "$f" "$ROBUST_DIR/corrupt_out/$(basename "$f")"
done
if [ -n "$run_entry" ] && [ ! -f "$run_entry.bad" ]; then
  echo "corrupted cache entry was not quarantined: $run_entry"; exit 1
fi
echo "corrupt-cache quarantine OK (artifacts byte-identical to clean run)"
# Tracing leg: under --trace, resumed points re-simulate (so trace.json
# stays byte-identical); compare against an uninterrupted traced run.
TRACE_JOURNAL="$ROBUST_DIR/trace.journal"
"$ROOT/build/bench/full_report" --small --jobs 1 --no-cache \
  --trace "$ROBUST_DIR/tref" --out "$ROBUST_DIR/tref_out" >/dev/null
if PASIM_CRASH_AFTER_APPENDS=7 "$ROOT/build/bench/full_report" --small \
    --jobs 8 --no-cache --journal "$TRACE_JOURNAL" --resume \
    --trace "$ROBUST_DIR/tres" --out "$ROBUST_DIR/tres_out" \
    >/dev/null 2>&1; then
  echo "crash injection failed on the tracing leg"; exit 1
fi
"$ROOT/build/bench/full_report" --small --jobs 8 --no-cache \
  --journal "$TRACE_JOURNAL" --resume --trace "$ROBUST_DIR/tres" \
  --out "$ROBUST_DIR/tres_out" >/dev/null
cmp "$ROBUST_DIR/tref/trace.json" "$ROBUST_DIR/tres/trace.json"
cmp "$ROBUST_DIR/tref_out/REPORT.md" "$ROBUST_DIR/tres_out/REPORT.md"
echo "traced crash/resume OK (trace.json byte-identical)"
# resilience_sweep journals every sweep of the run into one journal:
# 3 kernels x (clean + one rate) x 9 small points = 54 frames, and a
# --resume re-run serves all 54 from it and prints the same table.
RES_JOURNAL="$ROBUST_DIR/resilience.journal"
(cd "$ROBUST_DIR" && "$ROOT/build/bench/resilience_sweep" --small --no-cache \
  --jobs 1 --faults 0.05 --journal "$RES_JOURNAL" > res_first.out)
if command -v python3 >/dev/null; then
  python3 scripts/check_journal_schema.py "$RES_JOURNAL" |
    grep -q ' 54 frame(s)' || {
    echo "resilience_sweep journal does not hold all 54 points:"
    python3 scripts/check_journal_schema.py "$RES_JOURNAL"; exit 1; }
fi
(cd "$ROBUST_DIR" && "$ROOT/build/bench/resilience_sweep" --small --no-cache \
  --jobs 1 --faults 0.05 --journal "$RES_JOURNAL" --resume \
  --metrics res_obs > res_resumed.out)
awk -F, '$1 == "sweep.points_resumed" { seen = 1; v = $4 }
  END { exit !(seen && v + 0 == 54) }' "$ROBUST_DIR/res_obs/metrics.csv" || {
  echo "resilience_sweep --resume did not resume all 54 points"; exit 1; }
cmp <(grep -E '^(Resilience sweep:|\+|\|)' "$ROBUST_DIR/res_first.out") \
  <(grep -E '^(Resilience sweep:|\+|\|)' "$ROBUST_DIR/res_resumed.out")
echo "resilience_sweep journal/resume OK (54 frames, all resumed)"
# Two concurrent processes sharing one cache directory must both
# finish cleanly and agree byte-for-byte.
SHARED="$ROBUST_DIR/shared_cache"
"$ROOT/build/bench/fig2_ft_surface" --small --jobs 2 --cache "$SHARED" \
  --csv "$ROBUST_DIR/p1.csv" >/dev/null & P1=$!
"$ROOT/build/bench/fig2_ft_surface" --small --jobs 2 --cache "$SHARED" \
  --csv "$ROBUST_DIR/p2.csv" >/dev/null & P2=$!
wait $P1
wait $P2
cmp "$ROBUST_DIR/p1.csv" "$ROBUST_DIR/p2.csv"
if ls "$SHARED"/*.bad >/dev/null 2>&1; then
  echo "concurrent cache sharing quarantined entries:"; ls "$SHARED"; exit 1
fi
echo "concurrent shared-cache OK"
# Simulated disk-full: the run must fail soft (clean nonzero exit and
# an errno on stderr), never die on a signal or corrupt state.
set +e
PASIM_INJECT_WRITE_FAULT_AFTER=3 "$ROOT/build/bench/full_report" --small \
  --jobs 2 --cache "$ROBUST_DIR/enospc_cache" \
  --out "$ROBUST_DIR/enospc_out" >/dev/null 2>"$ROBUST_DIR/enospc.err"
ENOSPC_RC=$?
set -e
if [ "$ENOSPC_RC" -eq 0 ] || [ "$ENOSPC_RC" -ge 128 ]; then
  echo "injected ENOSPC: expected a clean nonzero exit, got rc=$ENOSPC_RC"
  cat "$ROBUST_DIR/enospc.err"
  exit 1
fi
echo "injected-ENOSPC degradation OK (rc=$ENOSPC_RC)"

echo "== tier 1: sweep-spec schema + --spec equivalence =="
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$REPLAY_DIR" "$PERF_DIR" "$SAMPLING_DIR" "$ROBUST_DIR" "$SERVE_DIR"' EXIT
# The committed sample specs and a freshly printed document must both
# satisfy the published schema, checked from first principles.
"$ROOT/build/tools/pasim_client" --print-spec --small --kernel FT \
  --faults 0.1 > "$SERVE_DIR/printed_spec.json"
if command -v python3 >/dev/null; then
  python3 scripts/check_spec_schema.py specs/*.json \
    "$SERVE_DIR/printed_spec.json"
else
  echo "skipped spec schema check: python3 not available"
fi
# The same sweep described by flags and by a --spec file must produce
# byte-identical output.
./build/bench/fig2_ft_surface --small --jobs 2 --no-cache \
  --csv "$SERVE_DIR/flags.csv" > "$SERVE_DIR/flags.out"
./build/bench/fig2_ft_surface --spec specs/ft_small.json --jobs 2 \
  --no-cache --csv "$SERVE_DIR/spec.csv" > "$SERVE_DIR/spec.out"
cmp "$SERVE_DIR/flags.out" "$SERVE_DIR/spec.out"
cmp "$SERVE_DIR/flags.csv" "$SERVE_DIR/spec.csv"
# A spec or flag value the sweep rejects is a usage error: the binary's
# name and the reason on stderr, exit status 2 — not an abort.
usage_error() {
  local bin="$1"; shift
  local path="$ROOT/build/bench/$bin"
  [ -x "$path" ] || path="$ROOT/build/examples/$bin"
  [ -x "$path" ] || path="$ROOT/build/tools/$bin"
  set +e
  "$path" "$@" >/dev/null 2>"$SERVE_DIR/usage.err"
  local rc=$?
  set -e
  if [ "$rc" -ne 2 ] || ! grep -q "^$path: " "$SERVE_DIR/usage.err"; then
    echo "$bin $*: expected a usage error (exit 2), got rc=$rc:"
    cat "$SERVE_DIR/usage.err"; exit 1
  fi
}
usage_error fig1_ep_surface --small --iterations 48
usage_error full_report --small --iterations 48 --out "$SERVE_DIR/usage_out"
usage_error fig2_ft_surface --small --nodes ,
grep -q 'item 1 of "," is empty' "$SERVE_DIR/usage.err" || {
  echo "--nodes , must name the empty item:"; cat "$SERVE_DIR/usage.err"
  exit 1; }
usage_error fig2_ft_surface --small --retries -1
# Eq 1 divides by T_1: every binary that prints speedups rejects a grid
# without N=1 before it runs (exit 2, so no abort on a signal), and
# pasim_client does when --out asks for the speedup CSV.
no_base_node() {
  usage_error "$@" --small --nodes 2,4
  grep -q 'has no N=1' "$SERVE_DIR/usage.err" || {
    echo "$1: the usage error must name the missing N=1:"
    cat "$SERVE_DIR/usage.err"; exit 1; }
}
for bin in ablation_assumptions dvfs_explorer fig1_ep_surface \
    fig2_ft_surface table1_amdahl_errors table3_ft_sp_errors \
    table7_lu_fp_sp_errors workload_fit_surface; do
  no_base_node "$bin"
done
no_base_node full_report --out "$SERVE_DIR/usage_out"
no_base_node pasim_client --out "$SERVE_DIR/usage_out"
# A grid with N=1 can still lack what an analysis reads off it (a node
# count above 1, two of them, two frequencies). Every grid-taking bench
# and example answers such a grid: exit 0, or exit 2 with a usage error
# naming what the grid lacks, never a signal. The sweep binaries run
# with --no-cache; the others take no cache flags.
grid_answers() {
  local bin="$1"; shift
  local path="$ROOT/build/bench/$bin"
  [ -x "$path" ] || path="$ROOT/build/examples/$bin"
  set +e
  (cd "$SERVE_DIR/grids" && "$path" --small "$@" \
    >/dev/null 2>"$SERVE_DIR/grid.err")
  local rc=$?
  set -e
  if [ "$rc" -ne 0 ] &&
      { [ "$rc" -ne 2 ] || ! grep -q "^$path: " "$SERVE_DIR/grid.err"; }; then
    echo "$bin --small $*: expected exit 0 or a usage error, got rc=$rc:"
    cat "$SERVE_DIR/grid.err"; exit 1
  fi
}
mkdir -p "$SERVE_DIR/grids"
for grid in "--nodes 1,4" "--nodes 1,2 --freqs 600" \
    "--nodes 1 --freqs 600,1400" "--nodes 1 --freqs 600"; do
  for bin in ablation_assumptions dvfs_comm_savings table5_lu_workload \
      table6_workload_time capacity_planner quickstart trace_timeline; do
    grid_answers "$bin" $grid
  done
  for bin in dvfs_explorer energy_delay_sweetspot fig1_ep_surface \
      fig2_ft_surface full_report resilience_sweep table1_amdahl_errors \
      table3_ft_sp_errors table7_lu_fp_sp_errors workload_fit_surface; do
    grid_answers "$bin" --no-cache $grid
  done
done
# Shape checks read the axes' extremes, not their ends: a descending
# frequency axis prints the ascending run's shape verdicts.
./build/bench/fig2_ft_surface --small --no-cache --freqs 600,1000,1400 |
  grep '^shape:' > "$SERVE_DIR/shape_up.txt"
./build/bench/fig2_ft_surface --small --no-cache --freqs 1400,1000,600 |
  grep '^shape:' > "$SERVE_DIR/shape_down.txt"
[ -s "$SERVE_DIR/shape_up.txt" ] || { echo "fig2 printed no shape lines"; exit 1; }
cmp "$SERVE_DIR/shape_up.txt" "$SERVE_DIR/shape_down.txt"
# Every example runs at the small scale (a 4-node cluster).
mkdir -p "$SERVE_DIR/examples"
for ex in capacity_planner dvfs_explorer quickstart trace_timeline; do
  (cd "$SERVE_DIR/examples" && "$ROOT/build/examples/$ex" --small \
    > "$ex.out" 2>&1) || {
    echo "examples/$ex --small failed:"; cat "$SERVE_DIR/examples/$ex.out"
    exit 1; }
done
echo "spec schema + --spec equivalence + usage errors + grids + shapes +" \
  "examples OK"

echo "== tier 1: serve (cold / warm / concurrent vs offline) =="
# A pasim_serve broker answering pasim_client submissions must return
# records whose artifacts are byte-identical to an offline run of the
# same spec — cold (workers simulate), warm (pure cache hits) and under
# concurrent duplicate submissions (in-flight dedup).
SOCK="$SERVE_DIR/serve.sock"
"$ROOT/build/tools/pasim_serve" --socket "$SOCK" \
  --cache "$SERVE_DIR/serve_cache" --workers 2 \
  --metrics-csv "$SERVE_DIR/serve_metrics.csv" \
  > "$SERVE_DIR/serve.log" 2>&1 & SERVE_PID=$!
CLIENT="$ROOT/build/tools/pasim_client"
"$CLIENT" --socket "$SOCK" --wait 15 --ping >/dev/null
"$CLIENT" --socket "$SOCK" --spec specs/ft_small.json \
  --out "$SERVE_DIR/cold" > "$SERVE_DIR/cold.txt"
"$CLIENT" --socket "$SOCK" --spec specs/ft_small.json \
  --out "$SERVE_DIR/warm1" > "$SERVE_DIR/warm1.txt" & C1=$!
"$CLIENT" --socket "$SOCK" --spec specs/ft_small.json \
  --out "$SERVE_DIR/warm2" > "$SERVE_DIR/warm2.txt" & C2=$!
wait $C1
wait $C2
# Offline oracle: the same spec through full_report.
"$ROOT/build/bench/full_report" --spec specs/ft_small.json --jobs 1 \
  --no-cache --out "$SERVE_DIR/offline" >/dev/null
for d in cold warm1 warm2; do
  cmp "$SERVE_DIR/$d/FT_time.csv" "$SERVE_DIR/offline/FT_time.csv"
  cmp "$SERVE_DIR/$d/FT_speedup.csv" "$SERVE_DIR/offline/FT_speedup.csv"
done
# The warm passes must be answered from the shared cache.
grep -q "cache_hits=0," "$SERVE_DIR/cold.txt"
for w in warm1 warm2; do
  if grep -q "cache_hits=0," "$SERVE_DIR/$w.txt"; then
    echo "warm submission $w had zero cache hits:"; cat "$SERVE_DIR/$w.txt"
    exit 1
  fi
done
# A schema-v2 document's own fields (here a deeper iteration count)
# must reach the offline oracle too: full_report --spec builds the
# document's kernel from the document.
"$CLIENT" --socket "$SOCK" --spec specs/ft_deep_small.json \
  --out "$SERVE_DIR/deep" >/dev/null
"$ROOT/build/bench/full_report" --spec specs/ft_deep_small.json --jobs 1 \
  --no-cache --out "$SERVE_DIR/deep_offline" >/dev/null
cmp "$SERVE_DIR/deep/FT_time.csv" "$SERVE_DIR/deep_offline/FT_time.csv"
"$CLIENT" --socket "$SOCK" --stats | grep -q '"journal_entries"'
"$CLIENT" --socket "$SOCK" --shutdown >/dev/null
wait $SERVE_PID
# The server's parting metrics snapshot must include serving counters.
grep -q "serve.sweeps" "$SERVE_DIR/serve_metrics.csv"
grep -q "serve.request_seconds" "$SERVE_DIR/serve_metrics.csv"
# A healthy run is silent: no warning in the log and no failure
# counter above zero.
if grep -q '\[warn\]' "$SERVE_DIR/serve.log"; then
  echo "healthy serve run logged warnings:"; cat "$SERVE_DIR/serve.log"; exit 1
fi
for m in serve.worker_crashes serve.worker_timeouts serve.worker_restarts \
         serve.protocol_errors; do
  awk -F, -v n="$m" '$1 == n { seen = 1; v = $4 }
    END { exit !(seen && v + 0 == 0) }' "$SERVE_DIR/serve_metrics.csv" || {
    echo "expected $m = 0 in serve_metrics.csv:"
    cat "$SERVE_DIR/serve_metrics.csv"; exit 1; }
done
echo "serve OK (cold/warm/concurrent byte-identical to offline, silent)"
# Kill and restart: SIGKILL the server while a cold paper-scale EP
# sweep is in flight (one of its forked workers is alive), restart it
# on the same cache and resubmit. The answer must match the offline
# oracle byte for byte, whatever the dead server had journaled.
KILL_SOCK="$SERVE_DIR/kill.sock"
start_kill_server() {
  "$ROOT/build/tools/pasim_serve" --socket "$KILL_SOCK" \
    --cache "$SERVE_DIR/kill_cache" --workers 2 \
    >> "$SERVE_DIR/kill.log" 2>&1 & KILL_PID=$!
  "$CLIENT" --socket "$KILL_SOCK" --wait 15 --ping >/dev/null
}
"$ROOT/build/bench/full_report" --spec specs/ep_paper.json --jobs 1 \
  --no-cache --out "$SERVE_DIR/ep_offline" >/dev/null
start_kill_server
"$CLIENT" --socket "$KILL_SOCK" --spec specs/ep_paper.json \
  --out "$SERVE_DIR/ep_killed" >/dev/null 2>&1 & KILLED_CLIENT=$!
for _ in $(seq 1 500); do
  pgrep -P "$KILL_PID" >/dev/null && break
  sleep 0.01
done
WORKERS="$(pgrep -P "$KILL_PID" || true)"
[ -n "$WORKERS" ] || { echo "no worker was ever forked"; exit 1; }
kill -9 "$KILL_PID"
wait "$KILL_PID" 2>/dev/null || true
# Workers die with their server: 0.2 s after it is reaped, each is gone
# or a zombie awaiting its new parent's reap (state Z). A worker the
# server's death did not reach is still simulating its column then.
sleep 0.2
for w in $WORKERS; do
  state="$( (sed 's/^.*) //' "/proc/$w/stat" || true) 2>/dev/null |
            cut -d' ' -f1)"
  if [ -n "$state" ] && [ "$state" != Z ]; then
    echo "worker $w outlived its SIGKILLed server (state $state)"; exit 1
  fi
done
if wait "$KILLED_CLIENT"; then
  echo "the sweep finished before the server was killed"; exit 1
fi
start_kill_server
"$CLIENT" --socket "$KILL_SOCK" --spec specs/ep_paper.json \
  --out "$SERVE_DIR/ep_restarted" >/dev/null
cmp "$SERVE_DIR/ep_restarted/EP_time.csv" "$SERVE_DIR/ep_offline/EP_time.csv"
cmp "$SERVE_DIR/ep_restarted/EP_speedup.csv" \
  "$SERVE_DIR/ep_offline/EP_speedup.csv"
"$CLIENT" --socket "$KILL_SOCK" --shutdown >/dev/null
wait $KILL_PID
echo "kill/restart OK (restarted server answered byte-identically)"

echo "== tier 1: perf baseline =="
# Optimized tree, fresh recording of BENCH_micro_sim.json,
# BENCH_full_report.json and BENCH_resilience_sweep.json into a temp
# dir (the committed files stay untouched), then a schema check of all
# three. Per-benchmark slowdowns are warn-only (machines differ), but a
# *median* slowdown above 25% across the whole suite against the
# committed baselines is a hard failure — individual noise cannot trip
# it, a genuine perf regression will.
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perf -j "$JOBS" \
  --target micro_sim full_report resilience_sweep
scripts/bench_record.sh build-perf "$PERF_DIR"
if command -v python3 >/dev/null; then
  python3 scripts/check_bench_schema.py "$PERF_DIR/BENCH_micro_sim.json" \
    "$PERF_DIR/BENCH_full_report.json" "$PERF_DIR/BENCH_resilience_sweep.json"
  python3 scripts/check_bench_regression.py \
    --baseline . --fresh "$PERF_DIR" --fail-on-regress 25
else
  echo "skipped bench schema + regression checks: python3 not available"
fi

echo "tier 1 OK"
