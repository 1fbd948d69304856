#!/usr/bin/env bash
# Smoke test for the SMP kernel simulation (wdmlat_run --cores / nt_smp*):
#
#   * a 2-core migrating-DPC cell runs end to end with the trace and metrics
#     sinks attached; the Chrome trace is well-formed (flows paired) and
#     carries per-core track metadata (cpu1 thread/dpc/lockout rows exist
#     only when a second core is simulated)
#   * metrics.json reports cross-core traffic: smp.ipis_delivered and the
#     spinlock counters are present, and IPI conservation held (the
#     run finishes; the auditor, armed every virtual second, would have
#     failed the cell otherwise)
#   * the same cell re-run gives byte-identical trace + metrics artifacts
#     (SMP determinism at the artifact level)
#   * an audited NT-UP vs NT-SMP matrix (--matrix --cores 2, auditor
#     armed every virtual second) completes; a violation would exit 3
#   * the CLI contract holds: --cores on a non-NT cell, --dpc-affinity
#     without an SMP cell, and out-of-range --cores are usage errors
#     (exit 2), never runs
#
# Registered as the `smp_smoke` ctest; also runnable standalone from the
# repo root:
#
#   ci/smp_smoke.sh                   # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/smp_smoke.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
RUN="${BUILD_DIR}/cli/wdmlat_run"
CHECK="${BUILD_DIR}/cli/wdmlat_json_check"

if [[ ! -x "${RUN}" || ! -x "${CHECK}" ]]; then
  echo "smp_smoke: missing ${RUN} or ${CHECK}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_smp_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# One 2-core cell, migrating DPCs (the policy with the most cross-core
# traffic), every sink attached.
"${RUN}" --os nt4 --cores 2 --dpc-affinity migrating --workload games \
  --minutes 0.1 --seed 1999 --audit-every-s 1 \
  --trace-out "${OUT}/trace.json" \
  --metrics-out "${OUT}/metrics.json" > "${OUT}/run.log"

"${CHECK}" "${OUT}/trace.json" --require-key=traceEvents --require-key=displayTimeUnit \
  --check-flows
"${CHECK}" "${OUT}/metrics.json" --require-key=counters

# Per-core tracks: the second core's rows must be named in the trace.
for track in "cpu1: thread" "cpu1: dpc" "cpu1: dispatch lockout"; do
  grep -q "${track}" "${OUT}/trace.json" \
    || { echo "smp_smoke: trace is missing the \"${track}\" track" >&2; exit 1; }
done

# Cross-core traffic surfaced in the metrics registry.
for counter in smp.ipis_delivered smp.cross_core_wakes smp.spinlock_contentions; do
  grep -q "${counter}" "${OUT}/metrics.json" \
    || { echo "smp_smoke: metrics missing ${counter}" >&2; exit 1; }
done

# Artifact-level determinism: the identical cell again, byte-identical sinks.
"${RUN}" --os nt4 --cores 2 --dpc-affinity migrating --workload games \
  --minutes 0.1 --seed 1999 --audit-every-s 1 \
  --trace-out "${OUT}/trace2.json" \
  --metrics-out "${OUT}/metrics2.json" > "${OUT}/run2.log"
cmp -s "${OUT}/trace.json" "${OUT}/trace2.json" \
  || { echo "smp_smoke: trace bytes differ across identical runs" >&2; exit 1; }
cmp -s "${OUT}/metrics.json" "${OUT}/metrics2.json" \
  || { echo "smp_smoke: metrics bytes differ across identical runs" >&2; exit 1; }

# NT-UP vs NT-SMP grid: --matrix --cores 2 appends the SMP column; the
# armed auditor (--audit-every-s) runs the per-core IRQL + spinlock +
# runqueue + IPI-conservation checks inside every cell.
"${RUN}" --matrix --cores 2 --jobs 4 --trials 1 --minutes 0.05 --seed 1999 \
  --audit-every-s 1 > "${OUT}/matrix.log"
grep -q "SMP2" "${OUT}/matrix.log" \
  || { echo "smp_smoke: matrix ran without the NT-SMP column" >&2; exit 1; }

# CLI contract: SMP flags are strictly validated — config errors exit 2
# before any cell runs.
expect_usage_error() {
  local label="$1"; shift
  if "$@" > "${OUT}/err.out" 2> "${OUT}/err.log"; then
    echo "smp_smoke: ${label} should fail" >&2; exit 1
  else
    [[ $? -eq 2 ]] || { echo "smp_smoke: ${label} should exit 2" >&2; exit 1; }
  fi
  [[ ! -s "${OUT}/err.out" ]] \
    || { echo "smp_smoke: ${label} diagnostic leaked to stdout" >&2; exit 1; }
}
expect_usage_error "--cores on win98" "${RUN}" --os win98 --cores 2
expect_usage_error "--dpc-affinity without SMP" "${RUN}" --os nt4 --dpc-affinity migrating
expect_usage_error "--cores out of range" "${RUN}" --os nt4 --cores 64
expect_usage_error "--cores on an nt_smp alias" "${RUN}" --os nt_smp2 --cores 2

echo "smp_smoke: OK"
