#!/usr/bin/env bash
# Regenerate every results/*.csv in a temp directory and compare it byte for
# byte with the committed one, in the mode it was committed in: DCS_QUICK=1
# for all, except the three CSVs of the two bins listed in FULL, which are
# committed as full-mode outputs. Exits non-zero on any difference.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

BINS=(fig6 fig6_protocols table2 fig7 fig8 fig9 table3 fig12 ablate_free
      ablate_join ablate_uniaddr ablate_topology ablate_stealhalf ablate_faults
      ablate_recovery ablate_suspicion ablate_overlap)
FULL=(ablate_overlap fig6_protocols)

cargo build --release --offline -q -p dcs-bench
bindir="${CARGO_TARGET_DIR:-$root/target}/release"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The bins write results/ relative to the working directory.
mkdir -p "$tmp/quick" "$tmp/full"
for bin in "${BINS[@]}"; do
    (cd "$tmp/quick" && DCS_QUICK=1 "$bindir/$bin" >/dev/null)
done
for bin in "${FULL[@]}"; do
    (cd "$tmp/full" && env -u DCS_QUICK "$bindir/$bin" >/dev/null)
    rm -f "$tmp/quick/results/$bin"*.csv
done

fail=0
checked=0
for got in "$tmp"/quick/results/*.csv "$tmp"/full/results/*.csv; do
    name="$(basename "$got")"
    if cmp -s "$got" "results/$name"; then
        checked=$((checked + 1))
    else
        echo "DIFFERS: results/$name" >&2
        diff "results/$name" "$got" | head -6 >&2 || true
        fail=1
    fi
done
for want in results/*.csv; do
    name="$(basename "$want")"
    if [ ! -e "$tmp/quick/results/$name" ] && [ ! -e "$tmp/full/results/$name" ]; then
        echo "NOT REGENERATED: results/$name" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] && echo "check_results: $checked CSVs byte-identical"
exit "$fail"
