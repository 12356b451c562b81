#!/usr/bin/env bash
# Regenerates the checked-in machine-readable perf trajectory files
# (BENCH_*.json at the repo root) from the benches that support --json.
#
#   scripts/collect_bench.sh          # rebuild + run every trajectory bench
#
# Each bench runs its full configuration matrix (median-of-3 per row), so
# this takes a few minutes on a small host; the checked-in files let later
# sessions diff wait-subsystem performance without rerunning anything.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target abl_waits abl_elastic abl_readpath abl_soak openloop_latency check_journal >/dev/null

echo "=== abl_waits -> BENCH_waits.json ==="
./build/bench/abl_waits --json BENCH_waits.json

# Every row replays its commit journal through the epoch-aware offline
# checker in-process and cross-checks the memory delta (zero drops, zero
# duplicates); a failed row exits nonzero before the file is worth keeping.
echo "=== abl_elastic -> BENCH_elastic.json ==="
./build/bench/abl_elastic --json BENCH_elastic.json

# Self-checking rows: every block snapshot is verified all-words-equal
# inline, so a torn read zeroes checker_ok and the nonzero exit below
# keeps an unverified BENCH_readpath.json from being checked in.
echo "=== abl_readpath -> BENCH_readpath.json ==="
./build/bench/abl_readpath --json BENCH_readpath.json

# Bounded-memory soak (DESIGN.md §12): the full multi-minute run with
# elastic resizes, periodic truncated journal dumps (all checker-verified
# in-process) and the post-warmup RSS-slope acceptance gate (<= 1%/min,
# recorded as acceptance/rss_slope_ratio). Nonzero exit keeps a failed
# acceptance out of the checked-in trajectory.
echo "=== abl_soak -> BENCH_soak.json ==="
./build/bench/abl_soak --json BENCH_soak.json

# The open-loop harness validates every rate step's commit journal inline
# (nonzero exit on a checker failure) AND dumps the trace/journal pairs so
# the standalone check_journal tool re-validates every step from the files
# alone — a BENCH_latency.json only gets checked in off a verified history.
echo "=== openloop_latency -> BENCH_latency.json ==="
OL_DUMP="$(mktemp -d)"
trap 'rm -rf "$OL_DUMP"' EXIT
./build/bench/openloop_latency --json BENCH_latency.json \
  --trace "$OL_DUMP/ol" --journal "$OL_DUMP/ol"
for t in "$OL_DUMP"/ol.*.trace; do
  ./build/bench/check_journal "$t" "${t%.trace}.journal"
done
