#!/usr/bin/env bash
# Regenerate every results/*.csv and results/*.txt in a temp directory and
# compare each byte for byte with the committed one, in the mode it was
# committed in: DCS_QUICK=1 for every experiment except those listed in
# FULL, whose outputs are committed as full-mode outputs. The experiment
# list comes from `experiments --list`. results/selfbench.txt holds host
# timings and is not compared. Exits non-zero on any difference.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

FULL=(ablate_overlap fig6_protocols)

cargo build --release --offline -q -p dcs-bench
bin="${CARGO_TARGET_DIR:-$root/target}/release/experiments"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

QUICK=()
for name in $("$bin" --list); do
    [[ " ${FULL[*]} " == *" $name "* ]] || QUICK+=("$name")
done

# The experiments write results/ relative to the working directory.
mkdir -p "$tmp/quick" "$tmp/full"
(cd "$tmp/quick" && DCS_QUICK=1 "$bin" "${QUICK[@]}" >/dev/null)
(cd "$tmp/full" && env -u DCS_QUICK "$bin" "${FULL[@]}" >/dev/null)

fail=0
csvs=0
txts=0
for got in "$tmp"/quick/results/* "$tmp"/full/results/*; do
    name="$(basename "$got")"
    if cmp -s "$got" "results/$name"; then
        case "$name" in
            *.csv) csvs=$((csvs + 1)) ;;
            *) txts=$((txts + 1)) ;;
        esac
    else
        echo "DIFFERS: results/$name" >&2
        diff "results/$name" "$got" | head -6 >&2 || true
        fail=1
    fi
done
for want in results/*.csv results/*.txt; do
    name="$(basename "$want")"
    [ "$name" = selfbench.txt ] && continue
    if [ ! -e "$tmp/quick/results/$name" ] && [ ! -e "$tmp/full/results/$name" ]; then
        echo "NOT REGENERATED: results/$name" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] && echo "check_results: $csvs CSVs and $txts .txt files byte-identical"
exit "$fail"
