#!/usr/bin/env bash
# bench_to_json reads its inputs through the repo's strict JSON grammar: a
# --compare input with a duplicate key must be rejected (nonzero exit) with
# the key's line and column, never half-read, while the committed baseline
# compares clean against itself.
#
# Registered as the `bench_to_json_strict` ctest; also runnable standalone
# from the repo root:
#
#   ci/bench_to_json_strict.sh        # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/bench_to_json_strict.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
TO_JSON="${BUILD_DIR}/bench/bench_to_json"
BASELINE="bench/baselines/BENCH_micro.json"

if [[ ! -x "${TO_JSON}" ]]; then
  echo "bench_to_json_strict: missing ${TO_JSON}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_bench_to_json_strict.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

"${TO_JSON}" --compare "${BASELINE}" "${BASELINE}" > "${OUT}/self.log" \
  || { echo "bench_to_json_strict: the baseline does not compare clean to itself" >&2
       exit 1; }

# The only row repeats its "cpu_ns" key, on line 4.
cat > "${OUT}/dup.json" <<'JSON'
{
  "schema": "wdmlat-bench-v1",
  "source": "dup",
  "benchmarks": [{"name": "BM_X", "real_ns": 1.0, "cpu_ns": 1.0, "cpu_ns": 9.0}]
}
JSON
status=0
"${TO_JSON}" --compare "${OUT}/dup.json" "${BASELINE}" > /dev/null 2> "${OUT}/dup.err" \
  || status=$?
[[ "${status}" -ne 0 ]] \
  || { echo "bench_to_json_strict: a duplicate key was accepted" >&2; exit 1; }
grep -q "dup.json:4:[0-9]*: not valid JSON: .*duplicate" "${OUT}/dup.err" \
  || { echo "bench_to_json_strict: no positioned duplicate-key error:" >&2
       cat "${OUT}/dup.err" >&2; exit 1; }

echo "bench_to_json_strict: OK"
