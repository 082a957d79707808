#!/usr/bin/env python3
"""The repository benchmark: three workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N]          # every workload, tracing off
    python3 perfbench/run.py --repeat N --workload NAME [--seed N]

Run from the repository root. Each run builds the program from source
(`cargo build --release --offline`), runs one workload on inputs made from
`--seed`, checks that its outputs are correct, and prints as its last line
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` the run traces every workload and reports every per-layer
metric. Lines before the last one are informational: host metadata, the
per-class operation counts and each workload's own end-to-end figures.

Every run does a fixed amount of work; `--seconds` is recorded, not used
to cut the work short. `--repeat N` runs one workload N times at seeds
S, S+1, ... (S = `--seed`) and prints each metric's median, quartiles and
spread, (q3 - q1) / median, marking `WIDE` a spread that reaches a third
of the metric's bound in BENCHMARK.json. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("paper_regen", "fleet", "serve")

# `experiments all` flags of the paper_regen workload (seed appended).
REGEN_FLAGS = ["--days", "30", "--warmup-days", "15", "--jobs", "1"]
# Set-up repetitions of paper_regen (spawn + id listing); `setup_s` is the
# quickest.
REGEN_SETUP_REPS = 60
# Untraced passes per paper_regen run. Host interference on a shared VM
# comes in bursts of a few seconds, so `work_s` sums each experiment's
# median time over the passes.
REGEN_PASSES = 3

# Every experiment id and the CSVs it writes, with their header lines.
REGEN_CSVS = {
    "table1": {"table1.csv": "parameter,value"},
    "fig5b": {"fig5b.csv": "error_kw,probability"},
    "fig6b": {"fig6b.csv": "minute,benign_kw"},
    "fig7a": {"fig7a.csv": "minute,cfd_inlet_c,zone_inlet_c"},
    "fig7b": {"fig7b.csv": "minute,stored_wh,wall_w"},
    "fig8": {"fig8.csv": "minute,benign_kw,metered_kw,actual_kw,attack_kw,soc,est_kw,inlet_c,capping,outage"},
    "fig9": {
        f"fig9_{p}.csv": "minute,benign_kw,metered_kw,actual_kw,attack_kw,soc,est_kw,inlet_c,capping,outage"
        for p in ("random", "myopic", "foresighted")
    },
    "fig10": {f"fig10_w{w}.csv": "w,battery_soc,load_kw,action" for w in (9, 14)},
    "fig11a": {"fig11a.csv": "overload_kw,min_at_27c,min_at_28c,min_at_29c"},
    "fig11bc": {"fig11bc.csv": "policy,knob,attack_h_per_day,avg_dt_k,emergency_pct"},
    "fig11d": {"fig11d.csv": "policy,mean_degradation,emergency_pct"},
    "fig12a": {"fig12a.csv": "battery_kwh,myopic_emergency_pct,foresighted_emergency_pct"},
    "fig12b": {"fig12b.csv": "noise_kw,myopic_emergency_pct,foresighted_emergency_pct"},
    "fig12c": {"fig12c.csv": "attack_kw,myopic_emergency_pct,foresighted_emergency_pct"},
    "fig12d": {"fig12d.csv": "utilization,myopic_emergency_pct,foresighted_emergency_pct"},
    "fig12e": {"fig12e.csv": "extra_cooling_frac,battery_kwh_needed"},
    "fig13a": {"fig13a.csv": "minute,benign_kw"},
    "fig13b": {"fig13b.csv": "policy,mean_degradation,emergency_pct"},
    "fig14a": {"fig14a.csv": "minute,inlet_c"},
    "fig14b": {"fig14b.csv": "minute,power_frac,t95_ms"},
    "fig15": {"fig15.csv": "application,power_frac,t95_sla_low_load,t95_sla_high_load"},
    "cost": {"cost.csv": "item,usd_per_year"},
    "defense": {"defense.csv": "metric,value"},
    "ablation": {"ablation.csv": "fortnight,batch_emergency_pct,standard_emergency_pct"},
    "defense_roc": {"defense_roc.csv": "threshold_k,detection_pct,false_alarms_per_week,mean_latency_min"},
    "latency_validation": {
        "latency_validation.csv": "application,power_frac,load_frac,analytic_t95_ms,simulated_t95_ms,error_pct"
    },
    "placement": {"placement.csv": "position,mean_inlet_c"},
    "outlet_only": {"outlet_only.csv": "server,power_w,airflow_kg_s,outlet_c"},
    "setpoint": {"setpoint.csv": "supply_c,emergency_pct"},
}

# Spans the experiments CLI records (--timings-json), reported per run.
REGEN_SPANS = (
    "sim.step",
    "batch.step",
    "batch.scatter",
    "rl.batch_update",
    "rl.q_update",
    "heat_matrix.convolve",
    "heat_matrix.extract",
    "matrix.scatter",
    "cfd.substep",
    "zone.step",
)


class Fatal(Exception):
    """The benchmark cannot run at all (it prints no result)."""


class Result:
    """Metrics, per-class operation counts and failed checks of one run."""

    def __init__(self):
        self.metrics = {}  # name -> (value, unit, kind)
        self.classes = {}  # name -> [attempted, failed]
        self.errors = []

    def metric(self, kind, name, value, unit):
        self.metrics[name] = (value, unit, kind)

    def count(self, cls, attempted, failed=0):
        entry = self.classes.setdefault(cls, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def error(self, message):
        print(f"perfbench: check failed: {message}", file=sys.stderr)
        self.errors.append(message)

    def merge(self, workload, data):
        """Folds one `hbm-perfbench` JSON line in."""
        for cls, c in data["classes"].items():
            self.count(f"{workload}.{cls}", c["attempted"], c["failed"])
        for m in data["metrics"]:
            self.metric(m["kind"], m["name"], m["value"], m["unit"])
        for e in data["errors"]:
            self.errors.append(f"{workload}: {e}")


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    """Builds the CLI, the daemon and the in-process driver; returns paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise Fatal(f"no repository to build at {ROOT}")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "hbm-experiments", "-p", "hbm-serve", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Fatal(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return {name: release / name for name in ("experiments", "hbm-serve", "hbm-perfbench")}


def metadata(args):
    """Host and build facts recorded with every result."""
    def first_line(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else ""
    config = ROOT / ".cargo" / "config.toml"
    flags = os.environ.get("RUSTFLAGS", "") + (config.read_text() if config.is_file() else "")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": first_line(["rustc", "-V"]),
        "commit": commit,
        "target_cpu_native": "target-cpu=native" in flags,
    }


def spawn_rusage(cmd):
    """Runs `cmd`, timestamping each `=== title ===` line it prints (the
    experiments CLI flushes one such table per experiment as it finishes).
    Returns (exit code, wall seconds, peak RSS MiB, seconds per table)."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    marks = [started]
    for line in proc.stdout:
        if line.startswith(b"=== "):
            marks.append(time.perf_counter())
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    durations = [b - a for a, b in zip(marks, marks[1:])]
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, durations


def csv_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def check_csvs(res, ids, produced, reference=None, what="csv"):
    """Every id's CSVs present with their headers (and, given a reference,
    byte-identical to it); one operation per id."""
    for exp in ids:
        bad = []
        for name, header in REGEN_CSVS[exp].items():
            data = produced.get(name)
            if data is None:
                bad.append(f"{name} missing")
            elif data.split(b"\n", 1)[0].decode(errors="replace") != header:
                bad.append(f"{name} header")
            elif reference is not None and reference.get(name) != data:
                bad.append(f"{name} differs")
        res.count(f"paper_regen.{what}", 1, 1 if bad else 0)
        if bad:
            res.error(f"paper_regen {what} {exp}: {', '.join(bad)}")


def regen(res, exe, seed, trace):
    """The paper_regen workload: `experiments all` as a subprocess."""
    flags = REGEN_FLAGS + ["--seed", str(seed)]
    ids = list(REGEN_CSVS)

    setup = []
    for _ in range(REGEN_SETUP_REPS):
        started = time.perf_counter()
        listing = subprocess.run([str(exe)], cwd=ROOT, capture_output=True, text=True)
        setup.append(time.perf_counter() - started)
        listed = listing.stderr.split("available experiments:\n", 1)[-1].split()
        ok = listing.returncode == 2 and listed == ids
        res.count("paper_regen.setup", 1, 0 if ok else 1)
        if not ok:
            res.error(f"paper_regen: `experiments` listed {listed} (exit {listing.returncode})")

    # A traced run reports no end-to-end metrics, so one pass will do.
    walls, rss, per_exp, timed = [], 0.0, [], None
    for p in range(1 if trace else REGEN_PASSES):
        out = WORK / f"timed{p}"
        code, wall, peak, durations = spawn_rusage([str(exe), "all", *flags, "--out", str(out)])
        ok = code == 0 and len(durations) == len(ids)
        res.count("paper_regen.pass", 1, 0 if ok else 1)
        if not ok:
            res.error(f"paper_regen: pass {p} exited {code} after {len(durations)} of {len(ids)} tables")
        walls.append(wall)
        rss = max(rss, peak)
        per_exp.append(durations)
        if timed is None:
            timed = csv_bytes(out)
            check_csvs(res, ids, timed)
        else:
            check_csvs(res, ids, csv_bytes(out), reference=timed, what="repeat_csv")
    # The traced pass: with --jobs 1 in a traced run (its wall time is the
    # overhead's numerator); otherwise it is only a correctness pass and
    # runs at --jobs 2, which also checks that the CSVs do not depend on
    # the job count.
    timings = WORK / "timings.json"
    traced_dir = WORK / "traced"
    jobs = ["--jobs", "1" if trace else "2"]
    code_t, wall_t, _, _ = spawn_rusage(
        [str(exe), "all", *flags, *jobs, "--out", str(traced_dir), "--timings-json", str(timings)]
    )
    res.count("paper_regen.pass", 1, 0 if code_t == 0 else 1)
    if code_t != 0:
        res.error(f"paper_regen: traced pass exited {code_t}")
    check_csvs(res, ids, csv_bytes(traced_dir), reference=timed, what="traced_csv")

    if all(len(d) == len(ids) for d in per_exp):
        work = sum(statistics.median(times) for times in zip(*per_exp))
    else:
        work = statistics.median(walls)
    res.metric("end_to_end", "setup_s", min(setup), "s")
    res.metric("end_to_end", "peak_rss_mib", rss, "MiB")
    res.metric("end_to_end", "work_s", work, "s")
    res.metric("detail", "regen_s", min(walls), "s")
    res.metric("detail", "regen_median_pass_s", statistics.median(walls), "s")

    if trace:
        res.metric(
            "per_layer", "paper_regen.trace_overhead_frac", wall_t / statistics.median(walls) - 1.0, "ratio"
        )
        spans = {}
        try:
            for entry in json.loads(timings.read_text()):
                spans[entry["name"].removeprefix("span/")] = entry
        except (OSError, ValueError) as e:
            res.error(f"paper_regen: unreadable {timings.name}: {e}")
        for name in REGEN_SPANS:
            entry = spans.get(name, {"samples": 0, "mean_ns": 0})
            res.metric("per_layer", f"span.paper_regen.{name}.count", entry["samples"], "count")
            res.metric(
                "per_layer",
                f"span.paper_regen.{name}.total_ms",
                entry["samples"] * entry["mean_ns"] / 1e6,
                "ms",
            )
        for exp in ids:
            out = WORK / "ids" / exp
            code, wall_id, _, _ = spawn_rusage([str(exe), exp, *flags, "--out", str(out)])
            res.count("paper_regen.figure", 1, 0 if code == 0 else 1)
            if code != 0:
                res.error(f"paper_regen: `experiments {exp}` exited {code}")
            res.metric("per_layer", f"regen.{exp}_ms", wall_id * 1e3, "ms")
            check_csvs(res, [exp], csv_bytes(out), reference=timed, what="figure_csv")


def in_process(res, exes, workload, seed, trace):
    """The fleet and serve workloads, run by the `hbm-perfbench` driver."""
    cmd = [str(exes["hbm-perfbench"]), workload, "--seed", str(seed)]
    if workload == "serve":
        cmd += ["--serve-bin", str(exes["hbm-serve"])]
    if trace:
        cmd.append("--trace")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Fatal(f"{' '.join(cmd)} exited {done.returncode}")
    res.merge(workload, json.loads(lines[-1]))


def run_workload(res, exes, workload, seed, trace):
    if workload == "paper_regen":
        regen(res, exes["experiments"], seed, trace)
    else:
        in_process(res, exes, workload, seed, trace)


# The workload-specific end-to-end figures each workload prints beside the
# shared metrics; `*_tail_ms` are printed with their percentile and count.
DETAIL = {
    "paper_regen": ("regen_s", "peak_rss_mib"),
    "fleet": ("setup_s", "peak_rss_mib", "learning_lane_slots_per_s", "myopic_lane_slots_per_s"),
    "serve": (
        "setup_s", "peak_rss_mib", "step_p50_ms", "step_tail_ms", "state_p50_ms",
        "hit_p50_ms", "miss_p50_ms", "miss_tail_ms", "batch_p50_ms",
    ),
}


def print_summary(workload, res):
    print(f"# {workload}")
    for cls, (attempted, failed) in sorted(res.classes.items()):
        print(f"#   ops {cls:<32} attempted {attempted:>6}  failed {failed}")
    for name in DETAIL.get(workload, ()):
        if name not in res.metrics:
            continue
        value, unit, _ = res.metrics[name]
        line = f"#   {name:<26} {value:>14.6g} {unit}"
        if name.endswith("_tail_ms"):
            cls = name[: -len("_tail_ms")]
            pct = res.metrics[f"{cls}_tail_pct"][0]
            n = res.metrics[f"{cls}_samples"][0]
            line += f"  (p{pct:.1f} of {n:.0f} samples, 10 beyond)"
        print(line)


def result_line(res, names):
    attempted = sum(a for a, _ in res.classes.values())
    failed = sum(f for _, f in res.classes.values())
    missing = [n for n in names if n not in res.metrics]
    for name in missing:
        res.error(f"metric {name} was not measured")
    metrics = {n: {"value": res.metrics[n][0], "unit": res.metrics[n][1]} for n in names if n in res.metrics}
    return {
        "correct": not res.errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(args):
    spec = bench_spec()
    if args.workload not in WORKLOADS + ("all",):
        raise Fatal(f"unknown workload {args.workload!r} (expected one of {', '.join(WORKLOADS)}, all)")
    exes = build()
    print("# meta " + json.dumps(metadata(args), sort_keys=True))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.trace:
            # A traced run maps every layer, so it traces all workloads.
            res = Result()
            for workload in WORKLOADS:
                run_workload(res, exes, workload, args.seed, True)
            out = result_line(res, [m["name"] for m in spec["per_layer"]])
        elif args.workload == "all":
            # The one command: every workload, tracing off, every figure.
            res = Result()
            for workload in WORKLOADS:
                part = Result()
                run_workload(part, exes, workload, args.seed, False)
                print_summary(workload, part)
                for name, (value, unit, kind) in part.metrics.items():
                    if kind == "end_to_end":
                        res.metric(kind, f"{workload}.{name}", value, unit)
                for cls, (attempted, failed) in part.classes.items():
                    res.count(cls, attempted, failed)
                res.errors += part.errors
            out = result_line(res, sorted(res.metrics))
        else:
            res = Result()
            run_workload(res, exes, args.workload, args.seed, False)
            print_summary(args.workload, res)
            print("# detail " + json.dumps({n: v for n, (v, _, k) in res.metrics.items() if k == "detail"}))
            out = result_line(res, [m["name"] for m in spec["end_to_end"]])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(out))


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_repeat(args):
    """Runs one workload N times at consecutive seeds; prints quartiles."""
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, details = {}, {}
    for i in range(args.repeat):
        seed = args.seed + i
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise Fatal(f"repeat {i}: {' '.join(cmd)} exited {done.returncode}")
        out = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# detail "):
                for name, value in json.loads(line[len("# detail "):]).items():
                    details.setdefault(name, []).append(value)
        print(f"# run {i} seed {seed}: correct={out['correct']} failed={out['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()), flush=True)
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"# {args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"# {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for name, vals in list(values.items()) + list(details.items()):
        if len(vals) < 2:
            continue
        med, q1, q3, sp = spread(vals)
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if sp < bound / 3 else "WIDE")
        bound_text = f"{bound:>6}" if bound is not None else f"{'-':>6}"
        print(f"# {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.4f} {bound_text} {verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "values": vals}
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run the workload N times and summarise")
    args = parser.parse_args()
    try:
        if args.repeat:
            run_repeat(args)
        else:
            run_once(args)
    except Fatal as e:
        log(f"perfbench: {e}")
        sys.exit(1)
    except (OSError, ValueError, KeyError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
