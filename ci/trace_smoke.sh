#!/usr/bin/env bash
# Smoke test for the observability exporters: run a short experiment matrix
# with every sink attached, then validate the outputs.
#
#   * trace.json must be well-formed JSON with a traceEvents array
#     (Chrome trace-event format, viewable in Perfetto / chrome://tracing),
#     and every flow arrow ('s') must pair with exactly one finish ('f')
#   * metrics.json must be well-formed JSON with counters/gauges/histograms
#   * metrics.csv must have the kind,name,field,value header
#   * --anatomy-out must emit parseable episode JSON plus the rendered
#     anatomy report; --sketch must print the exact-tail quantile line
#   * --help must print the complete flag table to stdout and exit 0, and an
#     unknown flag must be rejected on stderr with exit 2 (strict parse)
#
# Validation uses wdmlat_json_check (the repo's own RFC 8259 linter) so the
# script needs no python or third-party JSON tooling. Registered as the
# `trace_smoke` ctest; also runnable standalone from the repo root:
#
#   ci/trace_smoke.sh                 # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/trace_smoke.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
RUN="${BUILD_DIR}/cli/wdmlat_run"
CHECK="${BUILD_DIR}/cli/wdmlat_json_check"

if [[ ! -x "${RUN}" || ! -x "${CHECK}" ]]; then
  echo "trace_smoke: missing ${RUN} or ${CHECK}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_trace_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# Short virtual matrix with every observability sink attached. --jobs 4 and
# the space-separated flag form deliberately mirror the documented usage.
"${RUN}" --matrix --jobs 4 --trials 1 --minutes 0.1 --seed 1999 \
  --trace-out "${OUT}/trace.json" \
  --metrics-out "${OUT}/metrics.json" \
  --metrics-csv "${OUT}/metrics.csv" \
  --episode-threshold-us 4000 > "${OUT}/run.log"

"${CHECK}" "${OUT}/trace.json" --require-key=traceEvents --require-key=displayTimeUnit \
  --check-flows
"${CHECK}" "${OUT}/metrics.json" --require-key=counters --require-key=gauges \
  --require-key=histograms

head -1 "${OUT}/metrics.csv" | grep -q '^kind,name,field,value$' \
  || { echo "trace_smoke: bad metrics CSV header" >&2; exit 1; }

# The single-cell path must also produce a parseable trace (flows paired),
# print the attribution-accuracy report, and — with the anatomy sink and the
# quantile sketch armed — emit the causal decomposition and the exact-tail
# quantile line.
"${RUN}" --os win98 --workload office --sounds --minutes 0.1 --seed 42 \
  --episode-threshold-us 4000 --trace-out "${OUT}/cell.json" \
  --anatomy-out "${OUT}/anatomy.json" --sketch > "${OUT}/cell.log"
"${CHECK}" "${OUT}/cell.json" --require-key=traceEvents --check-flows
"${CHECK}" "${OUT}/anatomy.json" --require-key=episodes --require-key=stage_totals_ms
grep -q "Attribution accuracy" "${OUT}/cell.log" \
  || { echo "trace_smoke: missing attribution report" >&2; exit 1; }
grep -q "Latency anatomy" "${OUT}/cell.log" \
  || { echo "trace_smoke: missing anatomy report" >&2; exit 1; }
grep -q "Quantile sketch" "${OUT}/cell.log" \
  || { echo "trace_smoke: missing sketch quantiles" >&2; exit 1; }

# --anatomy-out without the episode threshold is a config error, not a run.
if "${RUN}" --anatomy-out "${OUT}/never.json" 2> "${OUT}/anat_err.log"; then
  echo "trace_smoke: --anatomy-out without threshold should fail" >&2; exit 1
fi
grep -q "requires --episode-threshold-us" "${OUT}/anat_err.log" \
  || { echo "trace_smoke: missing anatomy flag diagnostic" >&2; exit 1; }

# CLI contract: --help prints the complete flag table to stdout, exit 0.
"${RUN}" --help > "${OUT}/help.txt"
for flag in --os --workload --priority --minutes --seed --scanner --sounds \
            --cores --dpc-affinity \
            --plot --csv-dir --worst-cases \
            --trace-out --metrics-out --metrics-csv --queue-sample-ms \
            --episode-threshold-us --anatomy-out --sketch \
            --faults --differential --diff-out --diff-csv \
            --audit-every-s --matrix --jobs --trials \
            --fleet --shards --shard --fleet-out --cell-timeout-ms \
            --help; do
  grep -q -- "${flag}" "${OUT}/help.txt" \
    || { echo "trace_smoke: --help is missing ${flag}" >&2; exit 1; }
done

# Strict parse: an unknown flag must never start a run (exit 2, stderr).
if "${RUN}" --no-such-flag > "${OUT}/unknown.out" 2> "${OUT}/unknown.err"; then
  echo "trace_smoke: unknown flag was accepted" >&2; exit 1
else
  [[ $? -eq 2 ]] || { echo "trace_smoke: unknown flag should exit 2" >&2; exit 1; }
fi
grep -q "unrecognized argument '--no-such-flag'" "${OUT}/unknown.err" \
  || { echo "trace_smoke: missing unknown-flag diagnostic" >&2; exit 1; }
[[ ! -s "${OUT}/unknown.out" ]] \
  || { echo "trace_smoke: unknown-flag diagnostic leaked to stdout" >&2; exit 1; }

echo "trace_smoke: OK"
