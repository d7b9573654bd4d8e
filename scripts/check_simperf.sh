#!/usr/bin/env bash
# Ratio gate on the selfbench trajectory (BENCH_simperf.json).
#
#   scripts/check_simperf.sh [FILE]
#       compares the last record of FILE (default: BENCH_simperf.json) with
#       the record before it and fails when the 10k-worker steps/s of either
#       scaling workload fell below 0.5x, when the 10k-worker UTS cell's
#       segments take more than 2x the host bytes, when a bag-of-tasks cell
#       takes more than 2x the engine steps per tree node, when the
#       C = 256 LCS leaf kernel takes more than 2x the host ns, or when the
#       faulted cell's lineage log peaks above 2x the live records. Run
#       `selfbench` first: it appends the fresh record after the last
#       committed one. The 10k, the bag-of-tasks, the kernel and the faulted
#       cells are the same in quick and full mode, so a quick CI run gates against a
#       committed full-mode record; the loose ratio absorbs host differences
#       (a leaf that went back to a scalar DP would be 60x), and backing
#       bytes, steps per node and peak live records are exact counts (what a
#       host page per idle worker, an idle worker that polls instead of
#       parking, and a lineage log that keeps completed records inflate —
#       the first by 130x where steps/s moves 0.5-0.77x, inside its own
#       gate; the last by 320x).
#   scripts/check_simperf.sh --self-test [FILE]
#       proves the gate bites: the last record of FILE gated against itself
#       must pass, and against a copy at 0.49x its steps/s, at 2.01x its
#       backing bytes, at 2.01x the steps of its bag-of-tasks cells, at
#       2.01x its leaf-kernel ns, or at 2.01x its peak live lineage records,
#       must fail.
#
# The trajectory is one record per line, so grep and shell arithmetic do.
set -euo pipefail
default="$(dirname "$0")/../BENCH_simperf.json"

records() { grep -E '^ *\{"label"' "$1" | sed -e 's/^ *//' -e 's/,$//'; }

# integer field $3 (steps_per_sec; backing_bytes, the host bytes behind the
# segments) of the 10k-worker cell of workload $2 in record $1.
cell_10k() {
    grep -o "{\"workload\": \"$2\", \"workers\": 10000,[^}]*}" <<<"$1" |
        grep -o "\"$3\": [0-9]*" | grep -o '[0-9]*$' || true
}

# "nodes steps" of the bag-of-tasks cell of runtime $2 in record $1.
bot_cell() {
    grep -o "{\"bot\": \"$2\",[^}]*}" <<<"$1" |
        sed -E 's/.*"nodes": ([0-9]+), "steps": ([0-9]+).*/\1 \2/' || true
}

# host ns of the C = 256 LCS leaf kernel in record $1.
leaf_ns() { grep -o '"lcs_leaf_256_ns": [0-9.]*' <<<"$1" | grep -o '[0-9.]*$' || true; }

# "recorded peak_live" lineage records of the faulted cell in record $1.
faulted_cell() {
    grep -o '"faulted": {[^}]*}' <<<"$1" |
        sed -E 's/.*"recorded": ([0-9]+), "peak_live": ([0-9]+).*/\1 \2/' || true
}

label() { grep -o '^{"label": "[^"]*"' <<<"$1" | cut -d'"' -f4; }

# gate BASE NEW: non-zero when NEW is below half of BASE on any 10k cell,
# above twice BASE's backing bytes on the 10k UTS cell, above twice BASE's
# steps per node on any bag-of-tasks cell, above twice BASE's ns on the
# LCS leaf kernel, or above twice BASE's peak live lineage records.
gate() {
    local wl rt base new bn bs nn ns br bp nr np status=0
    for wl in uts recpfor; do
        base=$(cell_10k "$1" "$wl" steps_per_sec)
        new=$(cell_10k "$2" "$wl" steps_per_sec)
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
    base=$(cell_10k "$1" uts backing_bytes)
    new=$(cell_10k "$2" uts backing_bytes)
    if [ -z "$new" ]; then
        echo "check_simperf: no backing_bytes in the new record's 10k-worker uts cell" >&2
        return 2
    elif [ -z "$base" ]; then
        echo "skip backing bytes: the base record predates the count"
    elif [ "$new" -gt $((2 * base)) ]; then
        echo "FAIL uts @10k: $new backing bytes > 2 x $base"
        status=1
    else
        echo "ok   uts @10k: $new backing bytes vs $base"
    fi
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
    base=$(leaf_ns "$1")
    new=$(leaf_ns "$2")
    if [ -z "$new" ]; then
        echo "check_simperf: no kernels cell in the new record" >&2
        return 2
    elif [ -z "$base" ]; then
        echo "skip lcs leaf: the base record predates the kernels cell"
    elif perl -e 'exit($ARGV[1] > 2 * $ARGV[0] ? 0 : 1)' "$base" "$new"; then
        echo "FAIL lcs leaf C=256: $new ns > 2 x $base"
        status=1
    else
        echo "ok   lcs leaf C=256: $new ns vs $base"
    fi
    read -r br bp <<<"$(faulted_cell "$1")"
    read -r nr np <<<"$(faulted_cell "$2")"
    if [ -z "${np:-}" ]; then
        echo "check_simperf: no faulted cell in the new record" >&2
        return 2
    elif [ -z "${bp:-}" ]; then
        echo "skip faulted lineage: the base record predates the faulted cell"
    elif [ "$np" -gt $((2 * bp)) ]; then
        echo "FAIL faulted lineage: $np peak live records > 2 x $bp ($nr recorded)"
        status=1
    else
        echo "ok   faulted lineage: $np peak live records vs $bp ($nr recorded)"
    fi
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
    paged=$(perl -pe 's/("backing_bytes": )(\d+)/$1 . int($2 * 2.01)/ge' <<<"$last")
    if gate "$last" "$paged" >/dev/null; then
        echo "self-test: segments at 2.01x the backing bytes must fail the gate" >&2
        exit 1
    fi
    polls=$(perl -pe 's/("bot": [^}]*"steps": )(\d+)/$1 . int($2 * 2.01)/ge' <<<"$last")
    if gate "$last" "$polls" >/dev/null; then
        echo "self-test: bag-of-tasks cells at 2.01x the steps must fail the gate" >&2
        exit 1
    fi
    slow_leaf=$(perl -pe 's/("lcs_leaf_256_ns": )([0-9.]+)/sprintf("%s%.1f", $1, $2 * 2.01)/e' <<<"$last")
    if gate "$last" "$slow_leaf" >/dev/null; then
        echo "self-test: a leaf kernel at 2.01x the ns must fail the gate" >&2
        exit 1
    fi
    leaky=$(perl -pe 's/("peak_live": )(\d+)/$1 . int($2 * 2.01)/ge' <<<"$last")
    if gate "$last" "$leaky" >/dev/null; then
        echo "self-test: a lineage log at 2.01x the peak live records must fail the gate" >&2
        exit 1
    fi
    echo "check_simperf self-test: gate passes 1.00x, fails 0.49x steps/s, 2.01x backing bytes, 2.01x bot steps, 2.01x leaf ns and 2.01x peak live lineage"
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
