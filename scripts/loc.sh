#!/usr/bin/env bash
# Non-test code lines per crate and in total.
#
#   scripts/loc.sh            one line per crate, then the library total
#   scripts/loc.sh FILE...    one line per file, then their sum
#
# Counts crates/*/src/**/*.rs minus blank lines, `//` comment lines and
# `#[cfg(test)]` items (scripts/code_lines.awk). `crates/bench` is reported
# apart from the library total. The script reports; it gates nothing.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

count() {
    awk -f scripts/code_lines.awk "$@" | wc -l
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
