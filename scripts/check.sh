#!/usr/bin/env bash
# Builds the tree under sanitizers in a dedicated build directory and runs
# the test suite under them.
#
# Default mode is the memory- and UB-safety gate (address+undefined over the
# full suite): run it before merging engine or observer changes.
#
# --tsan switches to the data-race gate: a ThreadSanitizer build running the
# tests that start threads (the service registry's quantum workers, the wire
# server's acceptor, per-connection threads and subscription fan-out, and
# the trial fan-out).  Single runs are serial.  TSan and ASan cannot share a
# process, hence the separate mode and build directory; the filter keeps
# the ~10x TSan slowdown off the purely sequential rest of the suite.
#
# Usage: scripts/check.sh [--tsan] [build-dir] [ctest args...]
#   build-dir  defaults to <repo>/build-check (or <repo>/build-check-tsan in
#              --tsan mode), kept separate from the plain ./build tree so
#              the configurations never mix
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

SANITIZERS="address,undefined"
DEFAULT_BUILD_DIR="$ROOT/build-check"
CTEST_FILTER=()
LABEL="asan+ubsan"
if [[ "${1:-}" == "--tsan" ]]; then
    shift
    SANITIZERS="thread"
    DEFAULT_BUILD_DIR="$ROOT/build-check-tsan"
    # The concurrency surface: registry workers, wire server threads, and
    # multi-threaded trial fan-out tests.
    CTEST_FILTER=(-R 'RunRegistryTest|WireServerTest|Trials')
    LABEL="tsan"
fi

BUILD_DIR="${1:-$DEFAULT_BUILD_DIR}"
shift || true

cmake -B "$BUILD_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPOPPROTO_SANITIZE="$SANITIZERS"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes sanitizer findings fail the run instead of just
# logging (TSan already defaults to failing on a report).
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" \
    ${CTEST_FILTER[@]+"${CTEST_FILTER[@]}"} "$@")

echo "check.sh: $LABEL test suite passed"
