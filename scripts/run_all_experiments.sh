#!/usr/bin/env bash
# Regenerate every table and figure. Outputs land in results/*.csv and
# results/*.txt. Full run takes tens of minutes on one core; set DCS_QUICK=1
# for a minutes-long smoke pass.
#
# Each experiment fans its independent simulations across host threads.
# Pass --jobs N (or set DCS_JOBS) to pin the thread count; the default is
# the host's available cores. Output is byte-identical for any value.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS_ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
        --jobs|-j)
            JOBS_ARGS=(--jobs "$2")
            shift 2
            ;;
        --jobs=*)
            JOBS_ARGS=(--jobs "${1#--jobs=}")
            shift
            ;;
        *)
            echo "usage: $0 [--jobs N]" >&2
            exit 2
            ;;
    esac
done

cargo build --release -p dcs-bench

mkdir -p results
# Each experiment writes results/<name>.txt (its stdout) and its CSVs.
for name in $(./target/release/experiments --list); do
    echo "=== running $name ==="
    start=$(date +%s)
    ./target/release/experiments "$name" "${JOBS_ARGS[@]}"
    echo "($(( $(date +%s) - start )) s host time for $name)"
done

# Host-side self-benchmark: worker-scaling sweep (1k/10k/100k, the engine
# O(active) headline) + engine throughput + sweep-harness speedup. Appends
# one record to the BENCH_simperf.json trajectory at the repo root; pass it
# a --label when the record is one to commit.
echo "=== running selfbench ==="
start=$(date +%s)
./target/release/selfbench "${JOBS_ARGS[@]}" 2>&1 | tee "results/selfbench.txt"
echo "($(( $(date +%s) - start )) s host time for selfbench)"
echo "All experiments complete; see results/."
