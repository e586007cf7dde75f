# Prints the code lines of Rust sources as `FILE:LINE:text`: blank lines,
# `//` comment lines (doc comments and their doctests included) and
# `#[cfg(test)]` items are dropped. An item is skipped up to its matching
# closing brace (or its `;` when it has no body), so code after a test
# module still counts. A whole file is dropped when its module is declared
# `#[cfg(test)] mod name;` in its parent module's file (found on disk, so
# the parent need not be among the arguments), or when that parent file is
# itself test-only. Shared by scripts/loc.sh and scripts/unused_pub.sh.
function braces(line,    i, c, n) {
    n = 0
    for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") { n++; opened = 1 }
        else if (c == "}") n--
    }
    return n
}
# 1 when `file` declares `mod name;` under `#[cfg(test)]`, 0 when it
# declares it without, -1 when it does not declare it (or does not exist).
function declares(file, name,    l, pending, found) {
    found = -1; pending = 0
    while (found < 0 && (getline l < file) > 0) {
        sub(/^[ \t]+/, "", l)
        if (l ~ /^#\[cfg\(test\)\]/) {
            pending = 1
            sub(/^#\[cfg\(test\)\][ \t]*/, "", l)
        } else if (l ~ /^#\[/) {
            continue
        }
        if (l ~ ("^(pub(\\([^)]*\\))?[ \t]+)?mod[ \t]+" name "[ \t]*;")) found = pending
        else if (l != "") pending = 0
    }
    close(file)
    return found
}
# 1 when `path` is a module file only test builds compile.
function test_only(path,    n, parts, dir, name, i, cands, k, d) {
    n = split(path, parts, "/")
    if (n < 2 || parts[n] == "lib.rs" || parts[n] == "main.rs") return 0
    if (parts[n] == "mod.rs") { name = parts[n - 1]; n-- } else name = parts[n]
    sub(/\.rs$/, "", name)
    dir = parts[1]
    for (i = 2; i < n; i++) dir = dir "/" parts[i]
    cands[1] = dir "/lib.rs"; cands[2] = dir "/main.rs"
    cands[3] = dir "/mod.rs"; cands[4] = dir ".rs"
    for (k = 1; k <= 4; k++) {
        d = declares(cands[k], name)
        if (d == 1) return 1
        if (d == 0) return test_only(cands[k])
    }
    return 0
}
FNR == 1 { skipping = 0; whole = test_only(FILENAME) }
whole { next }
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
    print FILENAME ":" FNR ":" line
}
