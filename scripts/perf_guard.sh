#!/bin/sh
# CI perf guard: fails when a guarded benchmark entry in a fresh (smoke)
# run regresses more than MAX_RATIO versus the pinned reference JSON.
#
# Guarded entries are the headline hot-path numbers:
#
#   * sim_step_slots_per_sec/recorder_off       (single-scenario steady loop, median_ns)
#   * fleet_slots_per_sec/batched               (batched fleet engine, median_ns)
#   * learning_fleet_slots_per_sec/batched      (batched learning lanes, median_ns)
#   * serve/session_slot_ns                     (sessionful serving, slot_ns)
#   * fork_vs_rerun/fork                   (what-if fork cost, median_ns)
#   * fork_vs_rerun/rerun                  (rerun-from-0 baseline, median_ns)
#   * trace_year_generation                (one year of benign power, median_ns)
#   * trace_heads_8_sites_one_day          (8-site one-day batch traces, median_ns)
#
# Smoke runs on shared CI runners are noisy, hence the wide default
# guardband (2x): the guard catches structural regressions — lost
# vectorization, an accidental debug build, a quadratic slip — not
# percent-level drift. Pinned numbers come from a quiet machine via
# scripts/bench_summary.sh.
#
# Usage: scripts/perf_guard.sh <fresh.json> [pinned.json] [max_ratio]
set -eu

fresh=$1
pinned=${2:-BENCH_thermal.json}
max=${3:-2.0}

# Prints the value of field `key` ($3) in the entry named `name` ($2) of
# the bench JSON `file` ($1); empty if the entry or field is absent.
field_of() {
    awk -F'"' -v want="$2" -v key="$3" '
        /"name"/ && $4 == want {
            for (i = 5; i < NF; i++) {
                if ($i == key) {
                    split($(i + 1), parts, /[ :,]+/)
                    print parts[2] + 0
                    exit
                }
            }
        }
    ' "$1"
}

status=0

# guard <entry-name> <field-key>: compare fresh vs pinned, flag >max ratio.
guard() {
    name=$1
    key=$2
    ref=$(field_of "$pinned" "$name" "$key")
    new=$(field_of "$fresh" "$name" "$key")
    if [ -z "$ref" ] || [ -z "$new" ]; then
        echo "perf guard: '$name' field '$key' missing (pinned='${ref:-}', fresh='${new:-}')" >&2
        status=1
        return
    fi
    ratio=$(awk -v a="$new" -v b="$ref" 'BEGIN { printf "%.3f", a / b }')
    if awk -v r="$ratio" -v m="$max" 'BEGIN { exit !(r <= m) }'; then
        echo "perf guard: $name $key at ${ratio}x of pinned (limit ${max}x) - ok"
    else
        echo "perf guard: $name $key regressed to ${ratio}x of pinned (limit ${max}x)" >&2
        status=1
    fi
}

guard "sim_step_slots_per_sec/recorder_off" median_ns
guard "fleet_slots_per_sec/batched" median_ns
guard "learning_fleet_slots_per_sec/batched" median_ns
guard "serve/session_slot_ns" slot_ns
guard "fork_vs_rerun/fork" median_ns
guard "fork_vs_rerun/rerun" median_ns
guard "trace_year_generation" median_ns
guard "trace_heads_8_sites_one_day" median_ns

exit $status
