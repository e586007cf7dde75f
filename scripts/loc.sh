#!/usr/bin/env bash
# Non-test code lines per crate and in total.
#
#   scripts/loc.sh            one line per crate, then the library total
#   scripts/loc.sh FILE...    one line per file, then their sum
#
# Counts crates/*/src/**/*.rs minus blank lines, `//` comment lines and
# `#[cfg(test)]` items. An item is skipped up to its matching closing brace
# (or its `;` when it has no body), so code after a test module still
# counts. `crates/bench` is reported apart from the library total. The
# script reports; it gates nothing.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

count() {
    awk '
        function braces(line,    i, c, n) {
            n = 0
            for (i = 1; i <= length(line); i++) {
                c = substr(line, i, 1)
                if (c == "{") { n++; opened = 1 }
                else if (c == "}") n--
            }
            return n
        }
        FNR == 1 { skipping = 0; pending = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (skipping) {
                depth += braces(line)
                if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) skipping = 0
                next
            }
            if (line ~ /^#\[cfg\(test\)\]/) {
                rest = line
                sub(/^#\[cfg\(test\)\][ \t]*/, "", rest)
                skipping = 1; depth = 0; opened = 0
                if (rest != "") {
                    depth += braces(rest)
                    if ((opened && depth <= 0) || (!opened && rest ~ /;[ \t]*$/)) skipping = 0
                }
                next
            }
            if (line == "" || line ~ /^\/\//) next
            total++
        }
        END { print total + 0 }
    ' "$@"
}

if [ "$#" -gt 0 ]; then
    sum=0
    for f in "$@"; do
        n=$(count "$f")
        printf '%7d  %s\n' "$n" "$f"
        sum=$((sum + n))
    done
    printf '%7d  total\n' "$sum"
    exit 0
fi

lib=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
    [ "${#files[@]}" -eq 0 ] && continue
    n=$(count "${files[@]}")
    printf '%7d  %s\n' "$n" "$crate"
    [ "$crate" = bench ] || lib=$((lib + n))
done
printf '%7d  library crates (bench excluded)\n' "$lib"
