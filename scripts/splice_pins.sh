#!/bin/sh
# Re-pins the named entries of BENCH_thermal.json from a fresh bench run and
# leaves every other pin as it is.
#
# scripts/bench_summary.sh rewrites the whole ledger from one run, so on a
# shared host re-pinning one entry with it moves every other pin with the
# host's drift. This script replaces only the one-line objects whose "name"
# is listed, copying each from FRESH (a JSON array written by
# `scripts/bench_summary.sh FRESH.json`). It prints each replaced entry's old
# and new headline value. A name the ledger does not hold yet (a new bench)
# is inserted before the entry that follows it in FRESH. If a name is
# missing from FRESH, or a new one has no following entry in the ledger to
# go before, it fails and changes nothing.
#
# Usage: scripts/splice_pins.sh FRESH.json NAME...
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 FRESH.json NAME..." >&2
    exit 2
fi
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
fresh=$1
shift
pinned="$repo_root/BENCH_thermal.json"
names=$(printf '%s\n' "$@")
tmp="$pinned.splice"

# With FS set to a double quote, $4 is an entry's name and $7 holds its
# headline value (the first field after "name", as bench_summary.sh reads).
# The ledger is read twice: first for the names it holds, then to rewrite.
if awk -F'"' -v names="$names" '
    BEGIN {
        n = split(names, list, "\n")
        for (i = 1; i <= n; i++) want[list[i]] = 1
    }
    function headline(line,    f, parts) {
        split(line, f, "\"")
        split(f[7], parts, /[ :,]+/)
        return parts[2]
    }
    FNR == 1 { file++ }
    # First file: the fresh object of every wanted name, and the name of
    # the entry that follows it.
    file == 1 {
        if (/"name"/ && match($0, /\{.*\}/)) {
            if (last != "") next_of[last] = $4
            last = ""
            if ($4 in want) {
                fresh[$4] = substr($0, RSTART, RLENGTH)
                last = $4
            }
        }
        next
    }
    file == 2 {
        if (/"name"/) pinned[$4] = 1
        next
    }
    /"name"/ && match($0, /\{.*\}/) {
        for (name in fresh) {
            if (!(name in pinned) && next_of[name] == $4) {
                printf "splice: %s (new) -> %s\n", name, headline(fresh[name]) >"/dev/stderr"
                print substr($0, 1, RSTART - 1) fresh[name] ","
                spliced[name] = 1
            }
        }
    }
    /"name"/ && ($4 in want) && ($4 in fresh) && match($0, /\{.*\}/) {
        name = $4
        printf "splice: %s %s -> %s\n", name, headline($0), headline(fresh[name]) >"/dev/stderr"
        $0 = substr($0, 1, RSTART - 1) fresh[name] substr($0, RSTART + RLENGTH)
        spliced[name] = 1
    }
    { print }
    END {
        for (name in want) {
            if (!(name in fresh)) {
                printf "splice: %s not found in the fresh run\n", name >"/dev/stderr"
                bad = 1
            } else if (!(name in spliced)) {
                printf "splice: new entry %s has no following entry in the pinned ledger\n", name >"/dev/stderr"
                bad = 1
            }
        }
        exit bad
    }
' "$fresh" "$pinned" "$pinned" >"$tmp"; then
    mv "$tmp" "$pinned"
else
    rm -f "$tmp"
    exit 1
fi
