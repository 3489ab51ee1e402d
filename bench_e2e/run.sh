#!/usr/bin/env bash
# Builds bench_e2e from the sources of the checkout it sits in, then runs it
# with the given arguments, for example
#   bash bench_e2e/run.sh --workload ingest_sparse_32k --seed 1 --seconds 10 --trace 0
#   bash bench_e2e/run.sh --ledger out.json --runs 10
# The build lives in ${CARGO_TARGET_DIR:-.bench_build}/bench_e2e (relative to
# the working directory) and logs to stderr, so the last line on stdout is
# the program's result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/bench_e2e"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export TMPDIR="$build/tmp"  # compiler scratch stays inside the checkout

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --parallel 4 >&2

INCSR_COMMIT="$(git -C "$here" describe --always --dirty 2>/dev/null || echo unknown)"
export INCSR_COMMIT
exec "$build/bench_e2e" "$@"
