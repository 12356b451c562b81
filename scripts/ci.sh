#!/usr/bin/env bash
# Tier-1 verify plus sanitizer matrix.
#
#   scripts/ci.sh            # tier-1 + ASan/UBSan + TSan(unit)
#   scripts/ci.sh tier1      # just the tier-1 verify
#   scripts/ci.sh asan       # just the ASan/UBSan configuration
#   scripts/ci.sh tsan       # just the TSan configuration (unit label)
#   scripts/ci.sh bench      # just the bench_smoke label (one reduced row
#                            # per bench/abl_* and bench/fig* binary)
#   scripts/ci.sh soak       # reduced-duration bounded-memory soak (label
#                            # `soak`) + the same smoke under ASan/LSan
#   scripts/ci.sh repeat     # structure_sweep_test + trace_checker_test,
#                            # repeated until the first failure, 30 runs
#
# The tier-1 full ctest already includes the bench_smoke label, so every
# bench binary is built AND executed on every CI run — benches cannot rot
# between figure regenerations. Sanitizer configurations skip the
# bench/example targets (they only need the library + tests) and build into
# their own trees, so the default ./build stays pristine for local work.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

run_ctest() {
  ctest --test-dir "$1" --output-on-failure -j "$JOBS" "${@:2}"
}

tier1() {
  echo "=== tier-1: default build + full ctest ==="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  run_ctest build
}

asan() {
  echo "=== ASan/UBSan: full ctest ==="
  cmake -B build-asan -S . \
    -DTLSTM_SANITIZE="address;undefined" \
    -DTLSTM_BUILD_BENCH=OFF -DTLSTM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$JOBS"
  run_ctest build-asan
}

bench() {
  echo "=== bench_smoke: one reduced row per bench binary ==="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  run_ctest build -L bench_smoke
}

soak() {
  echo "=== soak: reduced-duration bounded-memory smoke + ASan leak pass ==="
  # The smoke enforces elastic resizes, journal pruning, write-log recycling
  # and a green checker on every dump (the RSS-slope gate needs the
  # multi-minute collect_bench.sh run). The ASan configuration repeats it
  # with leak detection: recycled chunks and trimmed pool pages must all be
  # accounted for when the process exits.
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target abl_soak
  run_ctest build -L soak
  cmake -B build-asan-soak -S . \
    -DTLSTM_SANITIZE="address;undefined" -DTLSTM_BUILD_EXAMPLES=OFF
  cmake --build build-asan-soak -j "$JOBS" --target abl_soak
  run_ctest build-asan-soak -L soak
}

repeat() {
  echo "=== repeat: ordering-sensitive suites, 30 runs each ==="
  # structure_sweep_test catches a write-free transaction serialized before
  # its own thread's previous write, which failed only intermittently while
  # read-only commits skipped validation unconditionally, so one green run
  # proves little. The multi-thread sweep_test cases and the abl_contention
  # / abl_waits bench_smoke hangs are not covered by this stage.
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target structure_sweep_test trace_checker_test
  run_ctest build --repeat until-fail:30 -R 'structure_sweep_test|trace_checker_test'
}

tsan() {
  echo "=== TSan: unit + sched/session labels ==="
  # TSan multiplies the cost of the spin-heavy runtime paths; the short
  # unit suites give it full API coverage at tolerable cost. The sched
  # label adds the parked-waiting substrate and the session front-end
  # (including the 64-client linearizability test) to the race-checked set.
  cmake -B build-tsan -S . \
    -DTLSTM_SANITIZE=thread \
    -DTLSTM_BUILD_BENCH=OFF -DTLSTM_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$JOBS"
  run_ctest build-tsan -L 'unit|sched'
}

case "$STAGE" in
  tier1) tier1 ;;
  asan) asan ;;
  tsan) tsan ;;
  bench) bench ;;
  soak) soak ;;
  repeat) repeat ;;
  all)
    tier1  # includes the bench_smoke and soak labels
    asan
    tsan
    soak   # the tier-1 ctest already ran the default-build smoke; this
           # stage adds the ASan/LSan pass
    repeat
    echo "=== ci.sh: all stages green ==="
    ;;
  *)
    echo "unknown stage: $STAGE (expected tier1|asan|tsan|bench|soak|repeat|all)" >&2
    exit 2
    ;;
esac
