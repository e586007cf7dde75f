#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src whose name occurs in no non-test
# code other than its own definition.
#
#   scripts/unused_pub.sh     one `file:line: name` per candidate
#
# The search covers every crate's src/ (crates/bench whole), the root src/,
# benchmark/src and examples/, minus blank lines, comments (doctests
# included) and `#[cfg(test)]` items (scripts/code_lines.awk). Matching is
# by name, so a name defined twice counts as used only when it occurs
# more often than it is defined, and a method that shares its name with a
# used function is not reported. Integration tests under tests/ never
# count as callers. The script reports; it gates nothing.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

mapfile -t sources < <(
    find crates/*/src crates/bench src benchmark/src examples -name '*.rs' 2>/dev/null | sort -u
)
code=$(mktemp)
trap 'rm -f "$code"' EXIT
awk -f scripts/code_lines.awk "${sources[@]}" > "$code"

# FILE:LINE:pub [const |unsafe |async ]fn NAME — definitions in library and
# bench sources only.
grep -E '^crates/[^/]+/src/[^:]*:[0-9]+:pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*' "$code" |
    sed -E 's/^([^:]+:[0-9]+):pub (const |unsafe |async )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\1 \3/' |
    while read -r loc name; do
        defs=$(grep -cE "^[^:]+:[0-9]+:pub (const |unsafe |async )*fn ${name}\b" "$code" || true)
        uses=$(grep -oE "\b${name}\b" "$code" | wc -l)
        if [ "$uses" -le "$defs" ]; then
            printf '%s: %s\n' "$loc" "$name"
        fi
    done
