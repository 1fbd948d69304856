#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer + LeakSanitizer job.
#
# Builds the whole tree with -fsanitize=address,undefined (LeakSanitizer
# rides along with ASan on Linux) into a separate build directory and runs
# the full ctest suite there, except the tests labelled `perf`: perf_smoke
# compares wall-clock micro benchmarks against the committed baseline, and
# under instrumentation every loop runs several times slower, so it fails
# by construction, not because of a defect. Everything else must pass:
# any heap misuse, undefined behaviour or leak fails its test.
#
#   ci/asan.sh              # from the repo root
#   BUILD_DIR=... JOBS=... ci/asan.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"
JOBS="${JOBS:-4}"
SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$BUILD_DIR" -j "$JOBS"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --label-exclude perf
