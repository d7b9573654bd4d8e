#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh [--seed N] [--quick] [--no-trace]
#       the whole benchmark: every workload in its own child process, every
#       metric printed by name, results in benchmark/results/latest.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload (the form BENCHMARK.json's `command` is invoked in);
#       the last stdout line is the JSON result
#   benchmark/run.sh compare A.json B.json [--identical]
#   benchmark/run.sh manifest
#
# Runs from any directory; touches nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's progress goes to stderr so that stdout stays the benchmark's own.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/benchmark"

case "${1:-}" in
  run | suite | compare | manifest)
    exec "$bin" "$@"
    ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" run "$@"
  fi
done
exec "$bin" suite --results-dir "$here/results" "$@"
