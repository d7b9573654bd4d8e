#!/usr/bin/env bash
# Gate: the docs name only files that exist. Every backticked repo path
# (one starting crates/, examples/, scripts/, docs/, results/, tests/ or
# src/) and every `--example NAME` in the docs below must resolve from the
# repo root. Placeholders and globs (`<name>`, `*`, `{a,b}`, `…`) and a
# trailing `:LINE` or `#anchor` are skipped. Exits non-zero listing every
# dangling reference. ROADMAP.md is not checked: it names files that are
# still to be written.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md docs/PROTOCOLS.md .claude/skills/verify/SKILL.md)
set -f # words of a code span are split unquoted; never glob them
bad=()

for doc in "${docs[@]}"; do
    # Backticked paths: every word of every one-line code span.
    while IFS=: read -r line span; do
        for word in $span; do
            word=${word//\`/}
            word=${word#./}
            case $word in
                crates/* | examples/* | scripts/* | docs/* | results/* | tests/* | src/*) ;;
                *) continue ;;
            esac
            case $word in
                *'<'* | *'*'* | *'{'* | *'…'* | *'$'*) continue ;;
            esac
            path=$(sed -E 's/#.*$//; s/:[0-9].*$//; s/[),.;:]+$//' <<<"$word")
            [ -e "$path" ] || bad+=("$doc:$line: \`$path\` does not exist")
        done
    done < <(grep -noE '`[^`]+`' "$doc" || true)

    # `--example NAME`, in prose or in a fenced command.
    while IFS=: read -r line name; do
        name=${name#--example}
        name=${name//[ =]/}
        [ -e "examples/$name.rs" ] || bad+=("$doc:$line: --example $name has no examples/$name.rs")
    done < <(grep -noE -- '--example[ =]+[A-Za-z0-9_-]+' "$doc" || true)
done

if [ ${#bad[@]} -gt 0 ]; then
    echo "docs gate: ${#bad[@]} dangling reference(s):" >&2
    printf '  %s\n' "${bad[@]}" >&2
    exit 1
fi
echo "docs gate: ok (${#docs[@]} files)"
