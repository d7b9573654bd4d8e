#!/usr/bin/env bash
# Gate: the scheduler, the remote-free protocols and the BoT runtimes issue
# one verb sequence per protocol step and leave the issue depth to
# dcs-sim's Machine. Outside test modules and comments they may name
# `FabricMode` only to pass it through (`use` lists, `fabric: FabricMode,`
# parameters, the `FabricMode::Blocking)` default of the run_* wrappers) —
# never to branch on it. Exits non-zero listing every other mention.
# A second pattern (below) keeps the BoT termination ring single too, a
# third keeps dcs-check's raw-deque scenarios on one kit, a fourth keeps
# one steal core, a fifth keeps one verb type: outside dcs-sim every
# one-sided verb is a `Verb` issued through `Machine::post` /
# `post_unsignaled` / `call` / `post_span`, and a sixth keeps one policy
# descriptor: the scheduler reads `PolicyDesc` fields and leaves stack homes
# to crates/core/src/stacks.rs.
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

# Fourth pattern: one steal core. The protocol is decided once, by
# `Desc::of` in crates/core/src/steal.rs; the scheduler reads the
# descriptor and never names a `Protocol::` variant outside its tests, and
# dcs-check's raw thief drives the same machine rather than calling the
# deque's thief primitives or keeping its own state enum.
core=$(for f in crates/core/src/sched/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E 'Protocol::' || true)
copy=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$kit" \
    | grep -E '\b(thief_(lock|take|read_bounds|advance_top|release_lock)[a-z_]*|(lf|ff)_thief_claim|ff_decide)\b|enum ThiefState' || true)
if [ -n "$core" ] || [ -n "$copy" ]; then
    echo "one-verb-path gate: a second steal path (drive crates/core/src/steal.rs through its Desc and Host instead):" >&2
    [ -z "$core" ] || echo "$core" >&2
    [ -z "$copy" ] || echo "$copy" >&2
    exit 1
fi
# Fifth pattern: one verb type. The per-verb methods `Machine` had before
# `Verb` (`post_get_u64`, `post_cas_u64`, …, and the blocking `get_u64`,
# `put_u64`, …) must not come back as calls anywhere in crates/*/src
# (dcs-sim's own excepted), src/, tests/ or examples/. `benchmark/` is
# not scanned: its ladder times `get_u64`, `post_get_u64` and `get_bulk`,
# which dcs-sim keeps for it alone.
legacy=$(grep -rnE --include='*.rs' \
    '\bpost_(get|put|fetch_add|cas)_[a-z0-9_]*(::<[^>]*>)?\(|\.(get_u64|put_u64|fetch_add_u64|cas_u64|get_bulk|put_bulk|get_u64_span)(::<[^>]*>)?\(' \
    crates/*/src src tests examples | grep -v '^crates/sim/src/' || true)
if [ -n "$legacy" ]; then
    echo "one-verb-path gate: a per-verb Machine method is called (issue a Verb through post / post_unsignaled / call / post_span):" >&2
    echo "$legacy" >&2
    exit 1
fi
# Sixth pattern: one policy descriptor. The policy and the address scheme
# are decided once, by `PolicyDesc::of` in crates/core/src/policy.rs. The
# scheduler branches on the descriptor's fields and never names a `Policy::`
# or `AddressScheme::` variant or asks `.is_cont()` outside its tests; no
# other non-test code in crates/core/src names an `AddressScheme::` variant
# either (stacks.rs works on the descriptor's `Stacks` kind).
nontest() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
    done
}
policy=$(nontest crates/core/src/sched/*.rs | grep -E '\bPolicy::|\bAddressScheme::|\.is_cont\(\)' || true)
scheme=$(nontest $(find crates/core/src -name '*.rs' ! -path crates/core/src/policy.rs | sort) \
    | grep -E '\bAddressScheme::' || true)
if [ -n "$policy" ] || [ -n "$scheme" ]; then
    echo "one-verb-path gate: the policy or address scheme is re-derived (read the PolicyDesc fields; stack homes live in crates/core/src/stacks.rs):" >&2
    [ -z "$policy" ] || echo "$policy" >&2
    [ -z "$scheme" ] || echo "$scheme" | grep -vxF -- "$policy" >&2 || true
    exit 1
fi
echo "one-verb-path gate: ok"
