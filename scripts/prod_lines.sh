#!/usr/bin/env bash
# Production line count: the size metric simplicity changes are judged
# by ("the same outputs from the least code").
#
# Counts the non-blank lines of every crates/*/src/**/*.rs file, stopping
# at the file's first line that starts with `#[cfg(test)]` (the unit-test
# module, which by convention closes the file). Prints one line per
# crate and a total.
#
# Usage: scripts/prod_lines.sh [ROOT]   (ROOT defaults to the repo root)
#
# Reports only; not a CI gate.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for crate in "$root"/crates/*/; do
    [[ -d "$crate/src" ]] || continue
    count=$(find "$crate/src" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { in_tests = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && NF > 0 { n++ }
            END { print n + 0 }' |
        awk '{ sum += $1 } END { print sum + 0 }')
    printf '%-10s %6d\n' "$(basename "$crate")" "$count"
    total=$((total + count))
done
printf '%-10s %6d\n' total "$total"
