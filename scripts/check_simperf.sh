#!/usr/bin/env bash
# Ratio gate on the selfbench trajectory (BENCH_simperf.json).
#
#   scripts/check_simperf.sh [FILE]
#       compares the last record of FILE (default: BENCH_simperf.json) with
#       the record before it and fails when the 10k-worker steps/s of either
#       scaling workload fell below 0.5x, or when a bag-of-tasks cell takes
#       more than 2x the engine steps per tree node. Run `selfbench` first:
#       it appends the fresh record after the last committed one. The 10k
#       and the bag-of-tasks cells are the same in quick and full mode, so a
#       quick CI run gates against a committed full-mode record; the loose
#       ratio absorbs host differences, and steps per node is an exact count
#       (what an idle worker that polls instead of parking inflates).
#   scripts/check_simperf.sh --self-test [FILE]
#       proves the gate bites: the last record of FILE gated against itself
#       must pass, and against a copy at 0.49x its steps/s, or at 2.01x the
#       steps of its bag-of-tasks cells, must fail.
#
# The trajectory is one record per line, so grep and shell arithmetic do.
set -euo pipefail
default="$(dirname "$0")/../BENCH_simperf.json"

records() { grep -E '^ *\{"label"' "$1" | sed -e 's/^ *//' -e 's/,$//'; }

# steps/s of the 10k-worker cell of workload $2 in record $1.
sps_10k() {
    grep -o "{\"workload\": \"$2\", \"workers\": 10000,[^}]*}" <<<"$1" |
        grep -o '"steps_per_sec": [0-9]*' | grep -o '[0-9]*$' || true
}

# "nodes steps" of the bag-of-tasks cell of runtime $2 in record $1.
bot_cell() {
    grep -o "{\"bot\": \"$2\",[^}]*}" <<<"$1" |
        sed -E 's/.*"nodes": ([0-9]+), "steps": ([0-9]+).*/\1 \2/' || true
}

label() { grep -o '^{"label": "[^"]*"' <<<"$1" | cut -d'"' -f4; }

# gate BASE NEW: non-zero when NEW is below half of BASE on any 10k cell,
# or above twice BASE's steps per node on any bag-of-tasks cell.
gate() {
    local wl rt base new bn bs nn ns status=0
    for wl in uts recpfor; do
        base=$(sps_10k "$1" "$wl")
        new=$(sps_10k "$2" "$wl")
        if [ -z "$base" ] || [ -z "$new" ]; then
            echo "check_simperf: no 10k-worker $wl cell in one of the records" >&2
            return 2
        fi
        if [ $((2 * new)) -lt "$base" ]; then
            echo "FAIL $wl @10k: $new steps/s < 0.5 x $base"
            status=1
        else
            echo "ok   $wl @10k: $new steps/s vs $base ($((100 * new / base)) %)"
        fi
    done
    for rt in onesided lifeline random; do
        read -r bn bs <<<"$(bot_cell "$1" "$rt")"
        read -r nn ns <<<"$(bot_cell "$2" "$rt")"
        if [ -z "${ns:-}" ]; then
            echo "check_simperf: no bag-of-tasks $rt cell in the new record" >&2
            return 2
        elif [ -z "${bs:-}" ]; then
            echo "skip bot $rt: the base record predates the bag-of-tasks cells"
        elif [ $((ns * bn)) -gt $((2 * bs * nn)) ]; then
            echo "FAIL bot $rt: $ns steps / $nn nodes > 2 x $bs / $bn"
            status=1
        else
            echo "ok   bot $rt: $ns steps / $nn nodes vs $bs / $bn"
        fi
    done
    return $status
}

if [ "${1:-}" = "--self-test" ]; then
    last=$(records "${2:-$default}" | tail -1)
    slow=$(perl -pe 's/("steps_per_sec": )(\d+)/$1 . int($2 * 0.49)/ge' <<<"$last")
    gate "$last" "$last" >/dev/null || { echo "self-test: equal records must pass" >&2; exit 1; }
    if gate "$last" "$slow" >/dev/null; then
        echo "self-test: a record at 0.49x must fail the gate" >&2
        exit 1
    fi
    polls=$(perl -pe 's/("bot": [^}]*"steps": )(\d+)/$1 . int($2 * 2.01)/ge' <<<"$last")
    if gate "$last" "$polls" >/dev/null; then
        echo "self-test: bag-of-tasks cells at 2.01x the steps must fail the gate" >&2
        exit 1
    fi
    echo "check_simperf self-test: gate passes 1.00x, fails 0.49x steps/s and 2.01x bot steps"
    exit 0
fi

file="${1:-$default}"
if [ "$(records "$file" | wc -l)" -lt 2 ]; then
    echo "check_simperf: $file needs a committed record and a fresh one" >&2
    exit 2
fi
base=$(records "$file" | tail -2 | head -1)
new=$(records "$file" | tail -1)
echo "check_simperf: \"$(label "$new")\" against \"$(label "$base")\""
gate "$base" "$new"
