# Prints the code lines of Rust sources as `FILE:LINE:text`: blank lines,
# `//` comment lines (doc comments and their doctests included) and
# `#[cfg(test)]` items are dropped. An item is skipped up to its matching
# closing brace (or its `;` when it has no body), so code after a test
# module still counts. Shared by scripts/loc.sh and scripts/unused_pub.sh.
function braces(line,    i, c, n) {
    n = 0
    for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") { n++; opened = 1 }
        else if (c == "}") n--
    }
    return n
}
FNR == 1 { skipping = 0 }
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
