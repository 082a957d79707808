#!/bin/sh
# Line counts behind the "Lines:" figures in ROADMAP.md and CHANGES.md.
#
# Library code is the non-blank lines of each crates/*/src/**/*.rs file up
# to its first `#[cfg(test)]` line (so in-file unit tests are not counted),
# plus every examples/*.rs file by the same rule. Test code is the
# non-blank lines of the crates' tests/ and benches/ trees. Report only:
# nothing fails on the numbers.
#
# Usage: scripts/loc.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

# Non-blank lines of each file named on stdin, stopping at the file's
# first `#[cfg(test)]` when the first argument is `lib`.
count() {
    xargs awk -v lib="$1" '
        FNR == 1 { stop = 0 }
        lib == "lib" && /^[ \t]*#\[cfg\(test\)\]/ { stop = 1 }
        !stop && NF { n++ }
        END { print n + 0 }
    '
}

total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(find "$dir" -name '*.rs' | sort | count lib)
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
n=$(find examples -name '*.rs' | sort | count lib)
printf '%-12s %6d\n' examples "$n"
total=$((total + n))
printf 'library (crates/*/src + examples): %d\n' "$total"
tests=$(find crates/*/tests crates/*/benches -name '*.rs' 2>/dev/null | sort | count all)
printf 'tests (crates/*/tests + crates/*/benches): %d\n' "$tests"
