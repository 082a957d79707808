#!/bin/sh
# Runs the thermal hot-path benchmarks and exports the results as
# BENCH_thermal.json (a JSON array of flat objects; criterion entries are
# {name, median_ns, mean_ns, min_ns, samples}, serve latency entries add
# p99_ns, and single-value entries like serve/session_slot_ns and
# serve/throughput carry one honestly-named field right after name), then
# prints the headline comparisons:
#
#   * CFD substep (the flat-buffer kernel)
#   * heat-matrix model step
#   * year-long benign trace synthesis (trace_year_generation) and a
#     fleet lane's week (trace_week_generation)
#   * an 8-site one-day batch's lockstep trace heads
#     (trace_heads_8_sites_one_day) vs 8 full years one by one
#   * building a 1000-lane fleet on week traces
#     (fleet_lane_setup/1000_week_lanes) vs 1000 lone week traces
#
# A short traced fig9 run then contributes its kernel timing spans
# (entries named span/<name>, same shape), and a short hbm-serve-bench
# load run contributes its serving throughput/latency (entries named
# serve/<name>), so one file carries microbenchmarks, in-situ span
# timings, and end-to-end service numbers.
#
# Usage: scripts/bench_summary.sh [output.json]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
out=${1:-"$repo_root/BENCH_thermal.json"}
# The bench binary runs with the package dir as its CWD, so a relative
# output path must be absolutized here or BENCH_JSON lands in crates/bench.
case $out in /*) ;; *) out="$PWD/$out" ;; esac

cd "$repo_root"
BENCH_JSON="$out" cargo bench -p hbm-bench --bench bench_thermal

# Appends the objects of the JSON array in $1 to the array in $out.
fold_json() {
    body=$(tr -d '\n' <"$1" | sed -e 's/^\[//' -e 's/\]$//')
    [ -n "$body" ] || return 0
    tmp="$out.tmp"
    awk -v extra="$body" '
        /^\]$/ {
            n = split(extra, objs, /\},\{/)
            for (i = 1; i <= n; i++) {
                o = objs[i]
                if (i > 1) o = "{" o
                if (i < n) o = o "}"
                printf ",\n  %s", o
            }
            printf "\n]\n"
            next
        }
        { print }
    ' "$out" >"$tmp" && mv "$tmp" "$out"
}

# Fold in the kernel spans from a 1-day fig9 run (--timings-json emits the
# same {name, median_ns, ...} objects, prefixed span/).
spans_json="$repo_root/target/spans_fig9.json"
cargo build --release -q -p hbm-experiments
"$repo_root/target/release/experiments" fig9 --days 1 --warmup-days 0 --seed 1 \
    --out "$repo_root/target/bench_fig9_out" \
    --timings --timings-json "$spans_json" >/dev/null
fold_json "$spans_json"

# Fold in a short cache-warm load run against the in-process daemon
# (entries prefixed serve/; see crates/serve/src/bin/hbm-serve-bench.rs).
serve_json="$repo_root/target/serve_bench.json"
cargo build --release -q -p hbm-serve
"$repo_root/target/release/hbm-serve-bench" \
    --connections 4 --duration-secs 2 --days 1 --warmup-days 0 \
    --json "$serve_json" >/dev/null
fold_json "$serve_json"

# Fold in a short sessionful load run: live experiments stepped 120 slots
# per request with per-step checkpointing (entries serve/session_*).
session_json="$repo_root/target/serve_session_bench.json"
session_state="$repo_root/target/serve_session_state"
rm -rf "$session_state"
"$repo_root/target/release/hbm-serve-bench" \
    --connections 4 --duration-secs 2 --days 1 --warmup-days 0 \
    --session-slots 120 --state-dir "$session_state" \
    --json "$session_json" >/dev/null
rm -rf "$session_state"
fold_json "$session_json"

echo ""
echo "wrote $out"

# Headline ratios, straight from the JSON. Every entry's headline value
# is the first field after "name" (median_ns for latency entries,
# slot_ns/requests_per_sec for the single-value serve entries); latency
# entries additionally carry an honest p99_ns.
awk -F'"' '
    /"name"/ {
        # With FS set to a double quote: $4 = name, $7 = ": <value>, ".
        name = $4
        split($7, parts, /[ :,]+/)
        median[name] = parts[2] + 0
        for (i = 5; i < NF; i++) {
            if ($i == "p99_ns") {
                split($(i + 1), parts, /[ :,]+/)
                p99ns[name] = parts[2] + 0
            }
        }
    }
    END {
        flat = median["cfd_step_one_minute_40_servers"]
        if (flat > 0)
            printf "CFD substep: %.1f us per simulated minute\n", flat / 1000
        step = median["heat_matrix_model_step_40_servers"]
        gat = median["heat_matrix_model_step_40_servers_gather_baseline"]
        if (step > 0 && gat > 0)
            printf "heat-matrix model step: scatter %.2f us vs gather %.1f us  ->  %.1fx faster\n",
                step / 1000, gat / 1000, gat / step
        else if (step > 0)
            printf "heat-matrix model step: %.1f us\n", step / 1000
        off = median["sim_step_slots_per_sec/recorder_off"]
        if (off > 0)
            printf "sim steady-loop throughput: %.2fM slots/s\n", 1000 / off
        one = median["sim_step_slots_per_sec/one_lane_batch"]
        if (off > 0 && one > 0)
            printf "one-lane BatchSim: %.0f ns/slot vs scalar %.0f ns/slot  ->  %.2fx\n",
                one, off, one / off
        fb = median["fleet_slots_per_sec/batched"]
        fi = median["fleet_slots_per_sec/independent_baseline"]
        if (fb > 0 && fi > 0)
            printf "fleet aggregate throughput (1000 sites): batched %.2fM slots/s vs independent %.2fM  ->  %.1fx\n",
                1e6 / fb, 1e6 / fi, fi / fb
        lb = median["learning_fleet_slots_per_sec/batched"]
        li = median["learning_fleet_slots_per_sec/independent"]
        if (lb > 0 && li > 0)
            printf "learning-fleet aggregate throughput (1000 Q-learning sites): batched %.2fM slots/s vs independent %.2fM  ->  %.1fx\n",
                1e6 / lb, 1e6 / li, li / lb
        plain = median["cfd_step_one_minute_40_servers"]
        timed = median["cfd_step_one_minute_40_servers_timed"]
        if (plain > 0 && timed > 0)
            printf "timing-span overhead on CFD step: %.1f us -> %.1f us (%.1f%%)\n",
                plain / 1000, timed / 1000, 100 * (timed - plain) / plain
        sim = median["span/sim.step"]
        if (sim > 0)
            printf "in-situ sim.step span (fig9 run): %.2f us/slot\n", sim / 1000
        zone = median["span/zone.step"]
        if (zone > 0)
            printf "in-situ zone.step span (fig9 run): %.2f us/call\n", zone / 1000
        tput = median["serve/throughput"]
        if (tput > 0)
            printf "hbm-serve cache-warm throughput: %.0f req/s\n", tput
        lat = median["serve/simulate_latency"]
        if (lat > 0 && p99ns["serve/simulate_latency"] > 0)
            printf "hbm-serve request latency: p50 %.3f ms, p99 %.3f ms\n",
                lat / 1e6, p99ns["serve/simulate_latency"] / 1e6
        slat = median["serve/session_step_latency"]
        if (slat > 0 && p99ns["serve/session_step_latency"] > 0)
            printf "hbm-serve sessionful step (120 slots, checkpointed): p50 %.3f ms, p99 %.3f ms\n",
                slat / 1e6, p99ns["serve/session_step_latency"] / 1e6
        sns = median["serve/session_slot_ns"]
        if (sns > 0)
            printf "hbm-serve sessionful throughput: %.2fM slots/s aggregate (%.0f ns/slot)\n",
                1e3 / sns, sns
        year = median["trace_year_generation"]
        if (year > 0)
            printf "year-long trace synthesis (525600 slots): %.1f ms (%.0f ns/slot)\n",
                year / 1e6, year / 525600
        week = median["trace_week_generation"]
        if (week > 0)
            printf "fleet-lane week trace synthesis (10080 slots): %.2f ms (%.0f ns/slot)\n",
                week / 1e6, week / 10080
        heads = median["trace_heads_8_sites_one_day"]
        if (heads > 0 && year > 0)
            printf "8-site one-day batch traces: lockstep heads %.1f ms vs 8 full years %.1f ms  ->  %.1fx\n",
                heads / 1e6, 8 * year / 1e6, 8 * year / heads
        setup = median["fleet_lane_setup/1000_week_lanes"]
        if (setup > 0 && week > 0)
            printf "1000-lane week fleet set-up (traces built in BatchSim::new): %.1f ms vs 1000 lone week traces %.1f ms  ->  %.1fx\n",
                setup / 1e6, 1000 * week / 1e6, 1000 * week / setup
        fork = median["fork_vs_rerun/fork"]
        rerun = median["fork_vs_rerun/rerun"]
        if (fork > 0 && rerun > 0)
            printf "what-if fork (+60 slots) vs rerun-from-0 (7260 slots): %.3f ms vs %.1f ms  ->  %.0fx cheaper\n",
                fork / 1e6, rerun / 1e6, rerun / fork
    }
' "$out"
