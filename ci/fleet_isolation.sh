#!/usr/bin/env bash
# Parallel-isolation check for the fleet supervisor tests: the four tests
# that compare a supervised run against a direct run's shard bytes each
# write shard files under the test temp dir. Run them as concurrent
# processes (what `ctest -j` does) three times over; any failure means two
# processes shared a directory.
#
# Registered as the `fleet_isolation` ctest; also runnable standalone from
# the repo root:
#
#   ci/fleet_isolation.sh             # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/fleet_isolation.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
TEST_BIN="${BUILD_DIR}/tests/fleet_supervisor_test"
TESTS=(
  CleanRunMatchesDirectShardBytes
  ChaosSelfHealsToIdenticalBytesForThreeSeeds
  HeartbeatKillsAndRetriesAStalledWorker
  SpeculationStitchesTheWinningSuffix
)

if [[ ! -x "${TEST_BIN}" ]]; then
  echo "fleet_isolation: missing ${TEST_BIN}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_fleet_isolation.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

failed=0
for round in 1 2 3; do
  pids=()
  for name in "${TESTS[@]}"; do
    "${TEST_BIN}" --gtest_filter="FleetSupervisor.${name}" \
      > "${OUT}/${round}_${name}.log" 2>&1 &
    pids+=("$!")
  done
  for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
      echo "fleet_isolation: round ${round}: FleetSupervisor.${TESTS[$i]} failed" >&2
      tail -n 20 "${OUT}/${round}_${TESTS[$i]}.log" >&2
      failed=1
    fi
  done
done

if [[ "${failed}" -ne 0 ]]; then
  exit 1
fi
echo "fleet_isolation: OK (${#TESTS[@]} concurrent tests x 3 rounds)"
