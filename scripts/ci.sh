#!/usr/bin/env bash
# CI gate: tier-1 build + ctest, then a bench smoke whose JSON summaries
# are diffed so regressions fail loudly.
#
#   scripts/ci.sh                       # build, test, smoke, self-diff,
#                                       #   perfbench smoke
#   scripts/ci.sh --full                # + static analysis & sanitizer
#                                       #   matrix (see below)
#   BENCH_BASELINE_DIR=path scripts/ci.sh   # additionally diff against
#                                           # a stored baseline
#
# The self-diff runs the (deterministic, seeded) smoke benches twice and
# requires identical summaries -- it catches accidental nondeterminism
# and validates the tools/bench_diff.py pipeline on every run, even when
# no stored baseline exists. With BENCH_BASELINE_DIR set, the first
# smoke pass is also compared against that baseline at a looser
# threshold (override with BENCH_DIFF_THRESHOLD, percent).
#
# Every run also gates performance against the committed bench/baseline/
# snapshot: bench_a7_des_micro (DES kernel throughput),
# bench_telemetry_scale (registry registration rate, delta-scrape
# speedups, sharded-vs-single-map byte identity), bench_scale (fleet
# event throughput + marginal bytes/entity at 10k/100k entities) and
# the bench_a13 history-sampling leg (series-samples/s into the ring,
# exact bytes/window) run into one scratch dir and are diffed in a
# single one-sided pass (throughput keys may drop, and
# bytes_per_entity / bytes_per_window may rise, at most
# BENCH_PERF_THRESHOLD percent, default 40; see docs/performance.md and
# docs/observability.md). The 1M-entity tier runs under --full only.
#
# --full appends the analysis matrix (docs/static_analysis.md):
#   * clang-tidy over src/ (skipped with a notice when not installed)
#   * tools/lint.py project rules, plus a self-test that seeds a rand()
#     call in a scratch tree and requires the linter to catch it
#   * a tsan.supp audit (every suppression needs a reason comment)
#   * a clang -Wthread-safety -Werror=thread-safety build of the whole
#     tree plus tools/tsa_selftest.py (strip-and-flip proof that the
#     Registry/MetricsCollector annotations are load-bearing); skipped
#     with a warning when clang is absent, fatal under CI_TSA=1
#   * scripts/check_format.sh (diff-only; skipped when clang-format is
#     not installed)
#   * an ASan+UBSan build with PROBEMON_CHECKED=ON running the full
#     ctest suite -- every Experiment self-audits its protocol
#     invariants and aborts the test on a violation
#   * a checked DES smoke (bench under the sanitized+checked build)
#   * CI_TSAN=1 additionally runs a thread,undefined build + ctest
# and writes bench_out/analysis_summary.json with machine-readable
# results (invariant violations, tidy warning count, lint findings, perf
# gate status). A failed perf gate does not stop --full: the matrix
# still runs, so a perf flap cannot hide a sanitizer result, and the
# script then exits with the gate's status.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
THRESHOLD="${BENCH_DIFF_THRESHOLD:-15}"

FULL=0
if [[ "${1:-}" == "--full" ]]; then
  FULL=1
  shift
fi

# Short-duration, seeded smoke runs; one DES bench per protocol family.
SMOKE_BENCHES=(
  # t1 needs enough post-warmup samples for >= 2 batch means.
  "bench_t1_sapp_steady --seed=7 --duration=1000 --warmup=200"
  "bench_f5_dcpp_dynamic --seed=7"
  "bench_a5_detection --seed=7"
  # Small fleet tier: its s<N>.events/delivered counts are exact logical
  # tallies, so the determinism self-diff gates the scale path at 0%.
  "bench_scale --entities=5000 --duration=5 --seed=7"
)

echo "==> configure + build (${BUILD})"
cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j >/dev/null

echo "==> tier-1 ctest"
ctest --test-dir "$BUILD" --output-on-failure -j

run_smoke() {
  # $1: scratch dir; benches write bench_out/ relative to cwd.
  local dir="$1"
  mkdir -p "$dir"
  for spec in "${SMOKE_BENCHES[@]}"; do
    # shellcheck disable=SC2086  # intentional word-split of the spec
    set -- $spec
    local bench="$1"; shift
    echo "    $bench $*"
    (cd "$dir" && "$BUILD/bench/$bench" "$@" >/dev/null)
  done
}

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "==> bench smoke (pass 1)"
run_smoke "$SCRATCH/run1"
echo "==> bench smoke (pass 2, same seeds)"
run_smoke "$SCRATCH/run2"

# Wall-clock-derived keys (wall_s, events_per_s, bytes_per_entity) vary
# run to run; the logical counts must not.
echo "==> determinism diff (pass 1 vs pass 2, threshold 0%)"
python3 "$ROOT/tools/bench_diff.py" \
  "$SCRATCH/run1/bench_out" "$SCRATCH/run2/bench_out" --threshold 0 \
  --ignore '(^|\.)(real_time|cpu_time|iterations|items_per_second|peak_rss_bytes)$|wall_s$|events_per_s$|bytes_per_entity$'

# The benchmark (perfbench/, see BENCHMARK.json) compiles src/ through
# the library's public types; its tiny-size smoke run (about a minute;
# writes only the gitignored .bench_build/ and .bench_runs/) makes an
# API change that breaks it fail here rather than in a benchmark run.
echo "==> perfbench smoke (tiny sizes, every workload)"
(cd "$ROOT" && python3 perfbench/smoke_test.py)

if [[ -n "${BENCH_BASELINE_DIR:-}" ]]; then
  echo "==> baseline diff ($BENCH_BASELINE_DIR, threshold ${THRESHOLD}%)"
  python3 "$ROOT/tools/bench_diff.py" \
    "$BENCH_BASELINE_DIR" "$SCRATCH/run1/bench_out" --threshold "$THRESHOLD" \
    --ignore '(^|\.)(real_time|cpu_time|iterations|items_per_second|peak_rss_bytes)$|wall_s$|events_per_s$|bytes_per_entity$'
else
  echo "==> no BENCH_BASELINE_DIR set; skipped stored-baseline diff"
  echo "    (seed one with: cp -r $SCRATCH/run1/bench_out <baseline-dir>)"
fi

# --- perf gate: DES kernel + telemetry scale vs the committed baseline.
# One pass over one scratch dir so bench_diff sees every baseline file
# (a baseline file absent from the current dir is itself a failure).
# One-sided keys (throughput, delta-scrape speedups) may only drop by
# PERF_THRESHOLD percent; machine context and absolute timings are
# ignored as noise. The byte-sized keys and the identity booleans from
# bench_telemetry_scale are deterministic, so they gate exactly.
# Threshold is loose by design -- it exists to catch "someone
# accidentally reverted the timer wheel to a std::function heap" or
# "the delta scrape quietly became a full scrape", not 5% jitter on a
# busy CI box. Refresh the baselines with:
#   (cd /tmp && build/bench/bench_a7_des_micro --benchmark_min_time=0.5 \
#      --benchmark_out=bench/baseline/bench_a7_des_micro.json \
#      --benchmark_out_format=json)
#   (cd /tmp && build/bench/bench_telemetry_scale --series=1000,100000 \
#      --dirty=100 && cp bench_out/bench_telemetry_scale.json \
#      bench/baseline/)
#   (cd /tmp && build/bench/bench_scale --entities=10000,100000 &&
#      cp bench_out/bench_scale.json bench/baseline/)
#   (cd /tmp && build/bench/bench_a13_telemetry_micro \
#      --benchmark_filter=BM_HistorySample --benchmark_min_time=0.2 &&
#      cp bench_out/bench_a13_telemetry_micro.json bench/baseline/)
#   (cd /tmp && build/bench/bench_rt_scale &&
#      cp bench_out/bench_rt_scale.json bench/baseline/)
# bench_rt_scale is the event-loop runtime gate (real UDP, wall-clock
# driven, so it never takes part in the determinism self-diff): its
# probes_per_s / cycles_per_s / cycle_success_rate gate one-sided
# downward, and p99_reply_latency_s one-sided upward at a loose per-key
# 900% override (sub-ms absolute values on a quiet box; the override
# exists to catch "the loop went quadratic", not scheduler jitter).
# Its drop/error counters are informational (0 on a healthy box, but a
# loaded CI host can shed a datagram without that being a regression).
PERF_THRESHOLD="${BENCH_PERF_THRESHOLD:-40}"
PERF_STATUS=0
echo "==> perf gate: DES kernel + telemetry + fleet scale (one-sided, threshold ${PERF_THRESHOLD}%)"
mkdir -p "$SCRATCH/perf"
"$BUILD/bench/bench_a7_des_micro" --benchmark_min_time=0.2 \
  --benchmark_out="$SCRATCH/perf/bench_a7_des_micro.json" \
  --benchmark_out_format=json >/dev/null 2>&1
(cd "$SCRATCH/perf" &&
   "$BUILD/bench/bench_telemetry_scale" --series=1000,100000 --dirty=100 \
     >/dev/null)
(cd "$SCRATCH/perf" &&
   "$BUILD/bench/bench_scale" --entities=10000,100000 >/dev/null)
(cd "$SCRATCH/perf" &&
   "$BUILD/bench/bench_a13_telemetry_micro" \
     --benchmark_filter=BM_HistorySample --benchmark_min_time=0.2 >/dev/null)
(cd "$SCRATCH/perf" && "$BUILD/bench/bench_rt_scale" >/dev/null)
mv "$SCRATCH/perf/bench_out/bench_telemetry_scale.json" \
   "$SCRATCH/perf/bench_out/bench_scale.json" \
   "$SCRATCH/perf/bench_out/bench_a13_telemetry_micro.json" \
   "$SCRATCH/perf/bench_out/bench_rt_scale.json" "$SCRATCH/perf/"
# s1000.speedup_time is too small-denominator to gate (a ~1ms delta
# scrape); the s100000 ratio is the stable witness of O(changed).
# bench_scale wall_s is absolute timing noise; its events_per_s gates
# one-sided downward and bytes_per_entity one-sided upward.
python3 "$ROOT/tools/bench_diff.py" "$ROOT/bench/baseline" "$SCRATCH/perf" \
  --ignore '(^|\.)(real_time|cpu_time|iterations|items_per_second|peak_rss_bytes)$|^context\.|_us$|speedup_time$|wall_s$|p50_reply_latency_s$|s[0-9]+\.(drops|recv_errors|send_errors|failed_cycles|watches_absent)$' \
  --higher-is-better 'items_per_second$|register_per_s$|speedup_bytes$|s100000\.speedup_time$|events_per_s$|probes_per_s$|cycles_per_s$|cycle_success_rate$' \
  --lower-is-better 'bytes_per_entity$|bytes_per_window$|p99_reply_latency_s$' \
  --max-regress-pct 'p99_reply_latency_s$=900' \
  --threshold "$PERF_THRESHOLD" || PERF_STATUS=$?
if [[ "$PERF_STATUS" -ne 0 ]]; then
  echo "==> perf gate FAILED (exit $PERF_STATUS)" >&2
  [[ "$FULL" -eq 1 ]] || exit "$PERF_STATUS"
  echo "    running the --full matrix anyway; ci.sh exits $PERF_STATUS after it" >&2
fi

if [[ "$FULL" -eq 1 ]]; then
  echo "==> full analysis matrix"
  SUMMARY_DIR="$ROOT/bench_out"
  mkdir -p "$SUMMARY_DIR"

  # --- static: clang-tidy (best-effort where the toolchain lacks clang)
  TIDY_COUNT_FILE="$SCRATCH/tidy_count" "$ROOT/scripts/run_tidy.sh"
  TIDY_COUNT="$(cat "$SCRATCH/tidy_count" 2>/dev/null || echo skipped)"

  # --- static: project lint (fatal on findings)
  echo "==> tools/lint.py"
  python3 "$ROOT/tools/lint.py" --json "$SCRATCH/lint.json"

  # --- static: lint self-test -- seed a rand() call in a scratch tree
  # and require the linter to catch it (guards against the linter
  # silently rotting into a no-op).
  echo "==> lint self-test (seeded rand() must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/des"
  cat > "$SCRATCH/lint_selftest/src/des/seeded.cpp" <<'EOF'
#include <cstdlib>
int nondeterministic() { return rand(); }
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest.out" 2>&1; then
    echo "    FAILED: linter missed the seeded rand() call" >&2
    cat "$SCRATCH/lint_selftest.out" >&2
    exit 1
  fi
  grep -q 'no-wall-clock' "$SCRATCH/lint_selftest.out" || {
    echo "    FAILED: linter flagged something, but not no-wall-clock" >&2
    cat "$SCRATCH/lint_selftest.out" >&2
    exit 1
  }
  echo "    OK (no-wall-clock finding produced)"

  # --- static: lint self-test for the history/alerts wall-clock zone --
  # a steady_clock read seeded under src/telemetry/history must be
  # caught (sampling is caller-clocked; wall-clock driving lives in
  # runtime::HistoryTicker only).
  echo "==> lint self-test (seeded history clock read must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/telemetry/history"
  cat > "$SCRATCH/lint_selftest/src/telemetry/history/clocked.cpp" <<'EOF'
#include <chrono>
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/telemetry/history/clocked.cpp" \
       > "$SCRATCH/lint_selftest_hist.out" 2>&1; then
    echo "    FAILED: linter missed the seeded history clock read" >&2
    cat "$SCRATCH/lint_selftest_hist.out" >&2
    exit 1
  fi
  grep -q 'no-wall-clock' "$SCRATCH/lint_selftest_hist.out" || {
    echo "    FAILED: linter flagged something, but not no-wall-clock" >&2
    cat "$SCRATCH/lint_selftest_hist.out" >&2
    exit 1
  }
  echo "    OK (no-wall-clock finding produced in src/telemetry/history)"

  # --- static: lint self-test for the wall-clock exemption seam --
  # src/des/wall_clock.cpp IS the monotonic-clock adapter (the event
  # loop's time source), so a steady_clock read there must pass, while
  # the identical read in any other src/des file must still be caught.
  # Both directions, so the allowlist can neither rot into "exempts
  # nothing" nor quietly grow into "exempts everything".
  echo "==> lint self-test (wall_clock.cpp exemption is load-bearing)"
  cat > "$SCRATCH/lint_selftest/src/des/wall_clock.cpp" <<'EOF'
#include <chrono>
double monotonic_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
EOF
  if ! python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/des/wall_clock.cpp" \
       > "$SCRATCH/lint_selftest_wc.out" 2>&1; then
    echo "    FAILED: linter flagged the exempt wall_clock.cpp seam" >&2
    cat "$SCRATCH/lint_selftest_wc.out" >&2
    exit 1
  fi
  cp "$SCRATCH/lint_selftest/src/des/wall_clock.cpp" \
     "$SCRATCH/lint_selftest/src/des/clocked.cpp"
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/des/clocked.cpp" \
       > "$SCRATCH/lint_selftest_wc2.out" 2>&1; then
    echo "    FAILED: linter missed a clock read in a non-exempt des file" >&2
    cat "$SCRATCH/lint_selftest_wc2.out" >&2
    exit 1
  fi
  grep -q 'no-wall-clock' "$SCRATCH/lint_selftest_wc2.out" || {
    echo "    FAILED: linter flagged something, but not no-wall-clock" >&2
    cat "$SCRATCH/lint_selftest_wc2.out" >&2
    exit 1
  }
  echo "    OK (exempt seam passes, non-exempt des file still caught)"

  # --- static: lint self-test for the hot-path label rule -- a
  # string-keyed metric lookup seeded under src/des must be caught.
  echo "==> lint self-test (seeded string-label lookup must be caught)"
  cat > "$SCRATCH/lint_selftest/src/des/hot_labels.cpp" <<'EOF'
#include "telemetry/registry.hpp"
void on_event(probemon::telemetry::Registry& r) {
  r.counter("probes_total", "", {{"device", "d1"}}).inc();
}
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest2.out" 2>&1; then
    echo "    FAILED: linter missed the seeded string-label lookup" >&2
    cat "$SCRATCH/lint_selftest2.out" >&2
    exit 1
  fi
  grep -q 'no-string-labels' "$SCRATCH/lint_selftest2.out" || {
    echo "    FAILED: linter flagged something, but not no-string-labels" >&2
    cat "$SCRATCH/lint_selftest2.out" >&2
    exit 1
  }
  echo "    OK (no-string-labels finding produced)"

  # --- static: lint self-test for the hot-path allocation rule -- a
  # make_unique seeded into a probe-cycle file must be caught.
  echo "==> lint self-test (seeded hot-path allocation must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/core"
  cat > "$SCRATCH/lint_selftest/src/core/probe_cycle.cpp" <<'EOF'
#include <memory>
int* per_event_alloc() { return std::make_unique<int>(7).release(); }
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest3.out" 2>&1; then
    echo "    FAILED: linter missed the seeded hot-path allocation" >&2
    cat "$SCRATCH/lint_selftest3.out" >&2
    exit 1
  fi
  grep -q 'no-hot-path-alloc' "$SCRATCH/lint_selftest3.out" || {
    echo "    FAILED: linter flagged something, but not no-hot-path-alloc" >&2
    cat "$SCRATCH/lint_selftest3.out" >&2
    exit 1
  }
  echo "    OK (no-hot-path-alloc finding produced)"

  # --- static: lint self-test for the scenario callback rule -- a
  # std::function seeded under src/scenario must be caught.
  echo "==> lint self-test (seeded scenario std::function must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/scenario"
  cat > "$SCRATCH/lint_selftest/src/scenario/hook.cpp" <<'EOF'
#include <functional>
std::function<void()> hook;
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest4.out" 2>&1; then
    echo "    FAILED: linter missed the seeded scenario std::function" >&2
    cat "$SCRATCH/lint_selftest4.out" >&2
    exit 1
  fi
  grep -q 'no-std-function' "$SCRATCH/lint_selftest4.out" || {
    echo "    FAILED: linter flagged something, but not no-std-function" >&2
    cat "$SCRATCH/lint_selftest4.out" >&2
    exit 1
  }
  echo "    OK (no-std-function finding produced)"

  # --- static: lint self-test for the annotated-locks rule -- a raw
  # std::mutex seeded under src/runtime must be caught (all of src/
  # synchronizes through the TSA-annotated util::Mutex wrappers).
  echo "==> lint self-test (seeded raw std::mutex must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/runtime"
  cat > "$SCRATCH/lint_selftest/src/runtime/raw_lock.cpp" <<'EOF'
#include <mutex>
std::mutex raw_mutex;
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/runtime/raw_lock.cpp" \
       > "$SCRATCH/lint_selftest5.out" 2>&1; then
    echo "    FAILED: linter missed the seeded raw std::mutex" >&2
    cat "$SCRATCH/lint_selftest5.out" >&2
    exit 1
  fi
  grep -q 'annotated-locks' "$SCRATCH/lint_selftest5.out" || {
    echo "    FAILED: linter flagged something, but not annotated-locks" >&2
    cat "$SCRATCH/lint_selftest5.out" >&2
    exit 1
  }
  echo "    OK (annotated-locks finding produced)"

  # --- static: every tsan.supp suppression must carry a reason comment
  # directly above it (stale or unexplained suppressions hide real
  # races; see the satellite audit in docs/static_analysis.md).
  echo "==> tsan.supp audit (every suppression needs a reason comment)"
  python3 - "$ROOT/scripts/tsan.supp" <<'EOF'
import sys
path = sys.argv[1]
prev_comment = False
bad = []
for lineno, raw in enumerate(open(path), start=1):
    line = raw.strip()
    if not line:
        prev_comment = False
        continue
    if line.startswith("#"):
        prev_comment = True
        continue
    if not prev_comment:
        bad.append((lineno, line))
    # A comment block covers every suppression until a blank line.
if bad:
    for lineno, line in bad:
        print(f"    {path}:{lineno}: suppression without a reason "
              f"comment above it: {line}", file=sys.stderr)
    sys.exit(1)
print("    OK (all suppressions documented)")
EOF

  # --- static: formatting, diff-only (advisory skip when absent)
  "$ROOT/scripts/check_format.sh"

  # --- static: clang Thread Safety Analysis leg. A full build with
  # -Wthread-safety promoted to errors, then the strip-and-flip
  # self-test proving the Registry/MetricsCollector annotations are
  # load-bearing (tools/tsa_selftest.py). Needs clang; without it the
  # leg is skipped with a warning, unless CI_TSA=1 demands it.
  CLANG_CXX="${CLANG_CXX:-clang++}"
  TSA_BUILD_STATUS="skipped"
  TSA_SELFTEST_STATUS="skipped"
  if command -v "$CLANG_CXX" >/dev/null 2>&1; then
    TSA_BUILD_DIR="${TSA_BUILD_DIR:-$ROOT/build-tsa}"
    echo "==> clang thread-safety build (-Wthread-safety -Werror=thread-safety, ${TSA_BUILD_DIR})"
    cmake -B "$TSA_BUILD_DIR" -S "$ROOT" \
      -DCMAKE_CXX_COMPILER="$CLANG_CXX" -DPROBEMON_TSA=ON >/dev/null
    cmake --build "$TSA_BUILD_DIR" -j >/dev/null
    TSA_BUILD_STATUS="passed"
    echo "==> tools/tsa_selftest.py (strip-and-flip annotation check)"
    python3 "$ROOT/tools/tsa_selftest.py" --clang "$CLANG_CXX" \
      --json "$SCRATCH/tsa_selftest.json"
    TSA_SELFTEST_STATUS="passed"
  elif [[ "${CI_TSA:-0}" == "1" ]]; then
    echo "ERROR: CI_TSA=1 requests the clang thread-safety leg, but" >&2
    echo "       '$CLANG_CXX' was not found. Install clang or point" >&2
    echo "       CLANG_CXX at a clang++ binary." >&2
    exit 1
  else
    echo "==> clang thread-safety leg skipped ('$CLANG_CXX' not found;"
    echo "    set CLANG_CXX or install clang. CI_TSA=1 makes this fatal)"
  fi

  # --- dynamic: ASan+UBSan build with the invariant auditor armed
  ASAN_BUILD="${ASAN_BUILD_DIR:-$ROOT/build-asan}"
  echo "==> sanitizer matrix: address,undefined + PROBEMON_CHECKED (${ASAN_BUILD})"
  cmake -B "$ASAN_BUILD" -S "$ROOT" \
    -DPROBEMON_SANITIZE=address -DPROBEMON_CHECKED=ON >/dev/null
  cmake --build "$ASAN_BUILD" -j >/dev/null
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j

  # --- dynamic: lock-order detector smoke. The checked build arms the
  # util::Mutex acquisition hooks; the LockOrder tests include a
  # deliberate ABBA cycle that must abort with both lock names.
  echo "==> lock-order detector smoke (checked build, deliberate ABBA)"
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j -R 'LockOrder'

  # --- dynamic: checked DES smoke (auditor attached, abort on violation)
  echo "==> checked DES smoke (auditor armed)"
  mkdir -p "$SCRATCH/checked_smoke"
  (cd "$SCRATCH/checked_smoke" &&
     "$ASAN_BUILD/bench/bench_a5_detection" --seed=7 >/dev/null)

  # --- scale: the full 1M-entity SAPP tier (release build; short virtual
  # horizon -- the gate is that a million live entities build, run, and
  # tear down at flat bytes/entity, not a long steady-state number).
  echo "==> bench_scale 1M-entity SAPP tier"
  mkdir -p "$SCRATCH/scale_full"
  (cd "$SCRATCH/scale_full" &&
     "$BUILD/bench/bench_scale" --entities=1000000 --protocols=sapp \
       --duration=2)

  # --- scale: the 100k-endpoint real-time tier (ungated -- wall-clock
  # numbers on a shared box are informational at this size). 100k live
  # endpoints oversubscribe one loop thread at the default 5 cycles/s,
  # so the tier rate-caps each CP at 2/s (d_min=0.5): ~100k probes/s
  # of real UDP with every watch still present at the end.
  echo "==> bench_rt_scale 100k-endpoint tier (d_min=0.5)"
  (cd "$SCRATCH/scale_full" &&
     "$BUILD/bench/bench_rt_scale" --endpoints=100000 --duration=3 \
       --d-min=0.5)

  # --- optional: thread,undefined matrix leg (slow; opt-in). Runs the
  # full suite -- which now includes the SweepRunner thread-pool tests
  # (tests/test_sweep.cpp), the parallel surface TSan exists to vet --
  # with an explicit sweep-focused pass first so a data race there
  # fails fast with a readable filter line.
  if [[ "${CI_TSAN:-0}" == "1" ]]; then
    TSAN_BUILD="${TSAN_BUILD_DIR:-$ROOT/build-tsan}"
    echo "==> sanitizer matrix: thread,undefined (${TSAN_BUILD})"
    cmake -B "$TSAN_BUILD" -S "$ROOT" \
      -DPROBEMON_SANITIZE=thread,undefined >/dev/null
    cmake --build "$TSAN_BUILD" -j >/dev/null
    # scripts/tsan.supp silences one sanitizer-runtime false positive
    # (UBSan's IsAccessibleMemoryRange pipe probe); see the file.
    export TSAN_OPTIONS="suppressions=$ROOT/scripts/tsan.supp ${TSAN_OPTIONS:-}"
    echo "==> tsan: sweep-runner tests"
    ctest --test-dir "$TSAN_BUILD" --output-on-failure -j \
      -R 'Sweep(Runner|Determinism)'
    # The reactor surface: start/stop churn under a concurrent scrape,
    # cross-thread post(), the async transport/presence stack, the
    # real-time protocol tests (Rt*), the service's telemetry, audit and
    # HTTP wiring, and the example runs -- the loop-confinement contract
    # TSan exists to vet.
    echo "==> tsan: event-loop reactor tests"
    ctest --test-dir "$TSAN_BUILD" --output-on-failure -j \
      -R 'EventLoop|WallClockWheel|Async(UdpTransport|Runtime|Presence)|Rt(Dcpp|Sapp|Lossy)|(PresenceService|Transport)Telemetry|InvariantAuditor.RuntimeWatch|HttpRoutes|^examples\.'
    echo "==> tsan: full suite"
    ctest --test-dir "$TSAN_BUILD" --output-on-failure -j
  fi

  # --- machine-readable summary. The checked suite aborts on any
  # invariant violation, so reaching this line means the tally is 0.
  python3 - "$SUMMARY_DIR/analysis_summary.json" "$SCRATCH/lint.json" \
    "$TIDY_COUNT" "$TSA_BUILD_STATUS" "$TSA_SELFTEST_STATUS" \
    "$PERF_STATUS" <<'EOF'
import json, sys
out, lint_path, tidy, tsa_build, tsa_selftest, perf_status = sys.argv[1:7]
lint = json.load(open(lint_path))
json.dump({
    "invariant_violations": 0,
    "checked_suite": "passed",
    "sanitizers": ["address", "undefined"],
    "tidy_warnings": None if tidy == "skipped" else int(tidy),
    "tidy_ran": tidy != "skipped",
    "lint_findings": len(lint["findings"]),
    "lint_files_scanned": lint["files_scanned"],
    "tsa_build": tsa_build,
    "tsa_selftest": tsa_selftest,
    "tsa_ran": tsa_build == "passed",
    "lock_order_smoke": "passed",
    "perf_gate": "passed" if perf_status == "0" else "failed",
}, open(out, "w"), indent=2)
print(f"==> wrote {out}")
EOF
fi

if [[ "$PERF_STATUS" -ne 0 ]]; then
  echo "==> ci.sh FAILED: perf gate (exit $PERF_STATUS)" >&2
  exit "$PERF_STATUS"
fi
echo "==> ci.sh OK"
