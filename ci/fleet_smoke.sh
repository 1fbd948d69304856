#!/usr/bin/env bash
# Smoke test for the fleet population runner (wdmlat_run --fleet):
#
#   * a ~200-cell, 2-cohort population spec shards 3 ways across worker
#     processes, merges in grid order, and writes <out>/fleet.json
#   * the merged report and every shard record line pass wdmlat_json_check
#   * re-running the same command restores every cell from the shard
#     record files (0 executed) and re-merges to a byte-identical report —
#     the merge is a pure fold over the artifacts
#   * re-running an edited spec (same seeds, longer cells) into the same
#     directory restores nothing: every record carries the old spec's
#     fingerprint, so every cell re-runs and fleet.json matches a fresh run
#   * the paper-grid spec (examples/paper_grid.json) runs audited at
#     screening length and merges its 16 os x workload x priority cohorts
#   * the CLI contract holds: --shard without --fleet is a usage error
#
# Registered as the `fleet_smoke` ctest; also runnable standalone from the
# repo root:
#
#   ci/fleet_smoke.sh                 # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/fleet_smoke.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
RUN="${BUILD_DIR}/cli/wdmlat_run"
CHECK="${BUILD_DIR}/cli/wdmlat_json_check"

if [[ ! -x "${RUN}" || ! -x "${CHECK}" ]]; then
  echo "fleet_smoke: missing ${RUN} or ${CHECK}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_fleet_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# ~200 cells, 2 cohorts: an NT 4.0 office/web mix over a 133-450 MHz speed
# range, and a Windows 98 games cohort with a 30% IRQ-storm fault prior and
# streaming sketches on. Cells are screening-length at an 8 kHz PIT — long
# enough to keep real samples past the driver's 16-sample reprogram
# discard, short enough that the point stays the sharding and merge
# machinery, not per-cell depth.
cat > "${OUT}/population.json" <<'EOF'
{
  "name": "smoke-population",
  "master_seed": 1999,
  "cohorts": [
    {
      "name": "nt-office",
      "os": "nt4",
      "workloads": ["office", "web"],
      "workload_weights": [3, 1],
      "count": 104,
      "stress_minutes": 0.0002,
      "warmup_seconds": 0.005,
      "pit_hz": 8000,
      "speed_mhz": [133, 450]
    },
    {
      "name": "98-games",
      "os": "win98",
      "workloads": ["games"],
      "count": 96,
      "stress_minutes": 0.0002,
      "warmup_seconds": 0.005,
      "pit_hz": 8000,
      "speed_mhz": [200, 400],
      "fault_plan": "irq_storm",
      "fault_prob": 0.3,
      "sketch": true
    }
  ]
}
EOF

FLEET=(--fleet "${OUT}/population.json" --shards 3 --jobs 2
       --fleet-out "${OUT}/run")

# First run: 3 worker processes, grid-order merge, fleet.json on disk.
"${RUN}" "${FLEET[@]}" > "${OUT}/first.log"
[[ -s "${OUT}/run/fleet.json" ]] \
  || { echo "fleet_smoke: first run left no fleet.json" >&2; exit 1; }
for k in 0 1 2; do
  [[ -s "${OUT}/run/shard_${k}_of_3.jsonl" ]] \
    || { echo "fleet_smoke: missing shard ${k} record file" >&2; exit 1; }
done
[[ "$(grep -c '^  \(nt-office\|98-games\)' "${OUT}/first.log")" -eq 2 ]] \
  || { echo "fleet_smoke: merged table should list both cohorts" >&2; exit 1; }
# Both cohorts pooled real samples — a regime shorter than the driver's
# 16-sample PIT-reprogram discard would merge vacuous histograms and prove
# nothing.
grep '^  \(nt-office\|98-games\)' "${OUT}/first.log" | awk '$5 <= 0 {exit 1}' \
  || { echo "fleet_smoke: a cohort pooled zero samples" >&2; exit 1; }

# The merged report is a valid JSON document with the fleet schema keys.
"${CHECK}" "${OUT}/run/fleet.json" \
  --require-key=format --require-key=fingerprint --require-key=cohorts \
  || { echo "fleet_smoke: fleet.json failed wdmlat_json_check" >&2; exit 1; }

# Every shard record line is itself a valid JSON document.
lines=0
for k in 0 1 2; do
  while IFS= read -r line; do
    lines=$((lines + 1))
    printf '%s\n' "${line}" > "${OUT}/record.json"
    "${CHECK}" "${OUT}/record.json" --require-key=cell --require-key=checksum \
      > /dev/null \
      || { echo "fleet_smoke: shard ${k} record ${lines} failed json check" >&2
           exit 1; }
  done < "${OUT}/run/shard_${k}_of_3.jsonl"
done
[[ "${lines}" -eq 200 ]] \
  || { echo "fleet_smoke: expected 200 shard records, saw ${lines}" >&2; exit 1; }

# Second run over the same artifacts: every cell restores from its shard
# record (nothing executes), and the re-merged report is byte-identical —
# the merge is a deterministic fold over the record files alone.
first_sum="$(cksum < "${OUT}/run/fleet.json")"
"${RUN}" "${FLEET[@]}" > "${OUT}/second.log"
[[ "$(grep -c 'restored, 0 executed' "${OUT}/second.log")" -eq 3 ]] \
  || { echo "fleet_smoke: second run should restore all 3 shards" >&2; exit 1; }
second_sum="$(cksum < "${OUT}/run/fleet.json")"
[[ "${first_sum}" == "${second_sum}" ]] \
  || { echo "fleet_smoke: re-merged fleet.json differs from the first run" >&2
       exit 1; }

# Stale-spec resume: the same population with longer cells keeps every cell
# seed but not the spec fingerprint, so every record in the directory is
# stale. Re-run into the same directory, each shard must restore nothing and
# re-execute all its cells, and fleet.json must match a fresh run of the
# edited spec byte for byte.
sed 's/"stress_minutes": 0.0002/"stress_minutes": 0.0006/' "${OUT}/population.json" \
  > "${OUT}/longer.json"
LONGER=(--fleet "${OUT}/longer.json" --shards 3 --jobs 2)
"${RUN}" "${LONGER[@]}" --fleet-out "${OUT}/run" > "${OUT}/stale.log" 2> "${OUT}/stale.err"
[[ "$(grep -c '(0 restored, [0-9]* executed)' "${OUT}/stale.log")" -eq 3 ]] \
  || { echo "fleet_smoke: stale records were restored under an edited spec" >&2; exit 1; }
grep -q 'record written under another spec' "${OUT}/stale.err" \
  || { echo "fleet_smoke: no stale-record warning under an edited spec" >&2; exit 1; }
"${RUN}" "${LONGER[@]}" --fleet-out "${OUT}/fresh" > "${OUT}/fresh.log"
cmp -s "${OUT}/run/fleet.json" "${OUT}/fresh/fleet.json" \
  || { echo "fleet_smoke: stale-spec re-run differs from a fresh run" >&2; exit 1; }
[[ "$(cksum < "${OUT}/run/fleet.json")" != "${first_sum}" ]] \
  || { echo "fleet_smoke: edited spec reproduced the old fleet.json" >&2; exit 1; }

# The durable paper-grid recipe (examples/paper_grid.json; EXPERIMENTS.md
# "Supervised runs"), cut to screening-length cells: one cohort per
# os x workload x priority, 16 in all, with the invariant auditor forwarded
# to every worker.
sed 's/"stress_minutes": 10.0, "warmup_seconds": 5.0/"stress_minutes": 0.0005, "warmup_seconds": 0.05/' \
  examples/paper_grid.json > "${OUT}/grid.json"
"${RUN}" --fleet "${OUT}/grid.json" --shards 4 --jobs 2 --audit-every-s 0.01 \
  --fleet-out "${OUT}/grid" > "${OUT}/grid.log"
[[ "$(grep -c '^  \(nt4\|98\)-[a-z]*-\(28\|24\) ' "${OUT}/grid.log")" -eq 16 ]] \
  || { echo "fleet_smoke: the paper-grid spec should merge 16 cohorts" >&2; exit 1; }

# CLI contract: --shard is a worker flag and demands --fleet (usage error 2).
status=0
"${RUN}" --shard 0/3 2> /dev/null || status=$?
[[ "${status}" -eq 2 ]] \
  || { echo "fleet_smoke: --shard without --fleet exited ${status}, want 2" >&2
       exit 1; }

echo "fleet_smoke: OK (200 cells, 2 cohorts, 3 shards, byte-stable re-merge)"
