#!/usr/bin/env bash
# Perf smoke test for the engine hot path: run the micro benchmarks on a
# short budget, convert the google-benchmark JSON into the repo schema with
# bench_to_json, validate it with wdmlat_json_check, and compare against the
# committed baseline at bench/baselines/BENCH_micro.json.
#
# The comparison uses a deliberately generous --max-ratio (3x): shared CI
# boxes are noisy and the short --benchmark_min_time keeps this test fast,
# so only order-of-magnitude regressions — an allocation re-introduced on
# the schedule path, an accidental O(n) scan per event — should trip it.
# After an intentional perf change, re-generate the baseline (see
# EXPERIMENTS.md, "Microbenchmark baselines").
#
# Registered as the `perf_smoke` ctest; also runnable standalone:
#
#   ci/perf_smoke.sh                  # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/perf_smoke.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
BENCH="${BUILD_DIR}/bench/micro_kernel_ops"
TO_JSON="${BUILD_DIR}/bench/bench_to_json"
CHECK="${BUILD_DIR}/cli/wdmlat_json_check"
BASELINE="bench/baselines/BENCH_micro.json"
MAX_RATIO="${MAX_RATIO:-3.0}"

for bin in "${BENCH}" "${TO_JSON}" "${CHECK}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "perf_smoke: missing ${bin}; build the tree first" >&2
    exit 1
  fi
done
if [[ ! -f "${BASELINE}" ]]; then
  echo "perf_smoke: missing ${BASELINE}; see EXPERIMENTS.md to regenerate" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_perf_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# Engine/histogram micro loops, the dispatcher's lane round trip, the
# ready-queue decision, the fleet record codec and the cohort sketch fold
# (a few ms per iteration at most), and the thread-wake and SMP round trips (those advance at
# most 100 virtual µs per iteration, so they fit the budget); the remaining
# full-system benchmarks simulate a virtual second per iteration and would
# dominate the smoke budget. Note the numeric --benchmark_min_time form (the
# bundled benchmark library predates the "0.2s" suffix syntax).
"${BENCH}" --benchmark_filter='BM_Engine|BM_DispatcherLaneRearm|BM_ReadyQueueDecision|BM_FleetRecord|BM_SketchMerge|BM_Histogram|BM_ThreadWakeRoundTrip|BM_SmpDispatch|BM_SpinlockHandoff' \
  --benchmark_min_time=0.2 \
  --benchmark_format=json > "${OUT}/raw.json"

"${TO_JSON}" --convert "${OUT}/raw.json" --source micro_kernel_ops \
  --out "${OUT}/BENCH_micro.json"
"${CHECK}" "${OUT}/BENCH_micro.json" --require-key=schema --require-key=source \
  --require-key=benchmarks
"${TO_JSON}" --compare "${BASELINE}" "${OUT}/BENCH_micro.json" --max-ratio "${MAX_RATIO}"

echo "perf_smoke: OK"
