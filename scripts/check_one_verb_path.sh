#!/usr/bin/env bash
# Gate: the scheduler, the remote-free protocols and the BoT runtimes issue
# one verb sequence per protocol step and leave the issue depth to
# dcs-sim's Machine. Outside test modules and comments they may name
# `FabricMode` only to pass it through (`use` lists, `fabric: FabricMode,`
# parameters, the `FabricMode::Blocking)` default of the run_* wrappers) —
# never to branch on it. Exits non-zero listing every other mention.
# A second pattern (below) keeps the BoT termination ring single too, and
# a third keeps dcs-check's raw-deque scenarios on one kit.
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(for f in crates/core/src/sched/*.rs crates/core/src/remote_free.rs crates/bot/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E 'FabricMode|\.fabric\(\)' | grep -vE 'FabricMode,|FabricMode::Blocking\)' || true)

if [ -n "$hits" ]; then
    echo "one-verb-path gate: the fabric mode is consulted outside dcs-sim:" >&2
    echo "$hits" >&2
    exit 1
fi

# Second pattern, same idea one layer up: the BoT runtimes have one
# termination ring (termination.rs's `Ring`, crash-tolerant; fault-free is
# the empty dead set). Fails if an armed/unarmed token twin or the
# two-counter detector entry point reappears anywhere under crates/bot/src.
twins=$(grep -rnE 'token_duty_armed|on_token_armed|forward_token_armed|fn round_done\b' crates/bot/src || true)
if [ -n "$twins" ]; then
    echo "one-verb-path gate: a termination-ring twin is back in dcs-bot:" >&2
    echo "$twins" >&2
    exit 1
fi

# Third pattern: dcs-check has one raw world, one actor and one engine
# call site (scenarios.rs's `RawWorld` / `RawActor` / `raw_scenario`). A
# hand-built world for one scenario brings its own `impl Actor<…>` and its
# own `Engine::new(` with it, so counting those catches the fork.
kit=crates/check/src/scenarios.rs
actors=$(grep -cE '^impl Actor<' "$kit" || true)
engines=$(grep -cE 'Engine::new\(' "$kit" || true)
worlds=$(grep -nE '^(pub )?struct [A-Za-z]*World\b' "$kit" | grep -v 'struct RawWorld' || true)
if [ "$actors" -ne 1 ] || [ "$engines" -ne 1 ] || [ -n "$worlds" ]; then
    echo "one-verb-path gate: $kit has $actors 'impl Actor<' blocks and $engines 'Engine::new(' call sites (want 1 and 1):" >&2
    grep -nE '^impl Actor<|Engine::new\(' "$kit" >&2 || true
    [ -z "$worlds" ] || echo "$worlds" >&2
    echo "compose the scenario from RawSpec / Script / the oracle list instead of a second world" >&2
    exit 1
fi
echo "one-verb-path gate: ok"
