//! Shared plumbing for the experiment harness: run-length options, CSV
//! output, table printing, and simulation helpers.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use hbm_core::{
    scenario, ColoConfig, Metrics, Perturbation, Policy, Scenario, Simulation, SlotRecord,
    TraceStore,
};
use hbm_telemetry::{JsonlRecorder, Sample};

/// Records one I/O failure (CSV, trace): counted in the sink for the
/// driver's exit code and echoed through it, so the message lands next to
/// the experiment that hit it.
pub fn io_error(out: &mut Sink, message: String) {
    out.io_errors += 1;
    out.line(format!("error: {message}"));
}

/// Global experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Measured horizon, days (the paper uses a year).
    pub days: u64,
    /// Learning warm-up horizon for Foresighted, days.
    pub warmup_days: u64,
    /// Base seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Worker threads for the experiment harness (1 = serial,
    /// 0 = one per available core).
    pub jobs: usize,
    /// Directory for per-step JSONL telemetry traces (`--trace DIR`;
    /// `None` disables recording entirely).
    pub trace: Option<PathBuf>,
    /// Whether to collect and print kernel timing spans (`--timings`).
    pub timings: bool,
    /// Optional file for the span timings as criterion-shaped JSON
    /// (`--timings-json FILE`; implies `--timings`).
    pub timings_json: Option<PathBuf>,
    /// The run's trace store (not a flag): every experiment builds its
    /// simulations through it, so each distinct tenant trace is synthesized
    /// once per run and shared.
    pub traces: Arc<TraceStore>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            days: 365,
            warmup_days: 180,
            seed: 1,
            out_dir: PathBuf::from("results"),
            jobs: 1,
            trace: None,
            timings: false,
            timings_json: None,
            traces: Arc::new(TraceStore::new()),
        }
    }
}

impl Options {
    /// Parses `--days N`, `--warmup-days N`, `--seed N`, `--out DIR`,
    /// `--jobs N`, `--trace DIR`, `--timings`, and `--timings-json FILE`
    /// from the raw argument list, returning the remaining positional
    /// arguments. A horizon whose slot count overflows `u64` is an error
    /// ([`scenario::horizon_slots`]).
    pub fn parse(args: &[String]) -> Result<(Options, Vec<String>), String> {
        let mut opts = Options::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--days" => {
                    opts.days = take("--days")?
                        .parse()
                        .map_err(|e| format!("--days: {e}"))?
                }
                "--warmup-days" => {
                    opts.warmup_days = take("--warmup-days")?
                        .parse()
                        .map_err(|e| format!("--warmup-days: {e}"))?
                }
                "--seed" => {
                    opts.seed = take("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--out" => opts.out_dir = PathBuf::from(take("--out")?),
                "--trace" => opts.trace = Some(PathBuf::from(take("--trace")?)),
                "--timings" => opts.timings = true,
                "--timings-json" => {
                    opts.timings_json = Some(PathBuf::from(take("--timings-json")?));
                    opts.timings = true;
                }
                "--jobs" => {
                    opts.jobs = take("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?;
                    if opts.jobs == 0 {
                        opts.jobs = std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1);
                    }
                }
                other => rest.push(other.to_string()),
            }
        }
        scenario::horizon_slots(opts.warmup_days, opts.days)?;
        Ok((opts, rest))
    }

    /// Measured slots.
    pub fn slots(&self) -> u64 {
        self.days * 24 * 60
    }

    /// Warm-up slots.
    pub fn warmup_slots(&self) -> u64 {
        self.warmup_days * 24 * 60
    }

    /// [`Simulation::new`] for `config` and `policy` at the run seed, over the
    /// run's shared trace (bit-identical to a fresh build).
    pub fn simulation(&self, config: ColoConfig, policy: impl Into<Policy>) -> Simulation {
        self.traces.simulation(config, policy, self.seed)
    }

    /// A scenario with no policy yet at this run's horizon and seed: the
    /// base that `simulate`, `whatif` and `client create` fill in.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new("");
        scenario.days = self.days;
        scenario.warmup_days = self.warmup_days;
        scenario.seed = self.seed;
        scenario
    }

    /// Canonical one-line description of the run configuration, hashed into
    /// the manifest's `config_hash`. Delegates to the shared
    /// [`hbm_core::scenario`] form so CLI and `hbm-serve` keys never drift.
    pub fn config_canonical(&self, ids: &[String]) -> String {
        scenario::config_canonical_base(&ids.join("+"), self.days, self.warmup_days, self.seed)
    }
}

/// The field of `p` that the scenario override `name` sets: `util`,
/// `attack-load-kw`, `battery-kwh`, `threshold-c` or `cap-w` (the command
/// flags without their `--`, and the `whatif --variant` keys).
pub(crate) fn override_field<'p>(
    p: &'p mut Perturbation,
    name: &str,
) -> Option<&'p mut Option<f64>> {
    Some(match name {
        "util" => &mut p.utilization,
        "attack-load-kw" => &mut p.attack_load_kw,
        "battery-kwh" => &mut p.battery_kwh,
        "threshold-c" => &mut p.threshold_c,
        "cap-w" => &mut p.cap_w,
        _ => return None,
    })
}

/// Reads one scenario-override flag (`--util F`, `--attack-load-kw F`,
/// `--battery-kwh F`, `--threshold-c F`, `--cap-w F`) into `p`, taking
/// its value from `values`. Returns `Ok(false)`, taking nothing, when
/// `arg` is not an override flag.
pub(crate) fn take_override<'a>(
    p: &mut Perturbation,
    arg: &str,
    values: &mut impl Iterator<Item = &'a String>,
) -> Result<bool, String> {
    let Some(field) = arg
        .strip_prefix("--")
        .and_then(|name| override_field(p, name))
    else {
        return Ok(false);
    };
    let value = values
        .next()
        .ok_or_else(|| format!("{arg} requires a value"))?;
    *field = Some(value.parse().map_err(|e| format!("{arg}: {e}"))?);
    Ok(true)
}

/// Reads the value of `--policy` from `values`. A missing value and a
/// following `--flag` are the same error, so `--policy --util 0.5` never
/// takes `--util` as the policy name.
pub(crate) fn take_policy<'a>(
    values: &mut impl Iterator<Item = &'a String>,
) -> Result<String, String> {
    match values.next() {
        Some(value) if !value.starts_with("--") => Ok(value.clone()),
        _ => Err("--policy requires a value".into()),
    }
}

/// Opens the JSONL trace `<trace>/<name>.jsonl`, or `None` when tracing is
/// off. A file that cannot be created is an [`io_error`]; the run goes on
/// untraced.
///
/// Each run owns its own file, so `--jobs N` workers never contend and the
/// traces are byte-identical whatever the thread count.
pub fn trace_recorder(opts: &Options, out: &mut Sink, name: &str) -> Option<JsonlRecorder> {
    let path = trace_path(opts, name)?;
    match JsonlRecorder::create(&path) {
        Ok(rec) => Some(rec),
        Err(e) => {
            io_error(out, format!("cannot create trace {}: {e}", path.display()));
            None
        }
    }
}

fn trace_path(opts: &Options, name: &str) -> Option<PathBuf> {
    Some(opts.trace.as_ref()?.join(format!("{name}.jsonl")))
}

/// Flushes a trace from [`trace_recorder`] once it is written. A sample
/// that could not be written is an [`io_error`] naming the file.
pub fn close_trace(opts: &Options, out: &mut Sink, name: &str, rec: Option<JsonlRecorder>) {
    let (Some(mut rec), Some(path)) = (rec, trace_path(opts, name)) else {
        return;
    };
    if let Err(e) = rec.flush() {
        io_error(out, format!("cannot write trace {}: {e}", path.display()));
    }
}

/// Writes a run's `records` as the JSONL trace `<trace>/<name>.jsonl`, one
/// line of [`SlotRecord::channels`] per slot, when tracing is on.
pub fn write_record_trace(opts: &Options, out: &mut Sink, name: &str, records: &[SlotRecord]) {
    let Some(mut rec) = trace_recorder(opts, out, name) else {
        return;
    };
    for r in records {
        rec.record(&Sample {
            step: r.slot,
            channels: &r.channels(),
        });
    }
    close_trace(opts, out, name, Some(rec));
}

/// Buffered console output of one experiment.
///
/// Runners write here instead of stdout so experiments running on worker
/// threads don't interleave their tables; the driver flushes each buffer
/// whole, in submission order. CSV files are still written immediately
/// (each experiment owns its own files, so parallel runs don't conflict).
#[derive(Debug, Default)]
pub struct Sink {
    lines: Vec<String>,
    /// Output files this experiment failed to write ([`io_error`]s).
    io_errors: usize,
}

impl Sink {
    /// An empty buffer.
    pub fn new() -> Self {
        Sink::default()
    }

    /// Appends one output line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// How many [`io_error`]s were reported through this sink. The driver
    /// exits nonzero when any write failed, so automation never mistakes a
    /// partially written results directory for a clean run.
    pub fn io_errors(&self) -> usize {
        self.io_errors
    }

    /// Writes the buffered lines to stdout and clears the buffer.
    pub fn flush_to_stdout(&mut self) {
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in self.lines.drain(..) {
            let _ = writeln!(out, "{line}");
        }
    }
}

/// `println!` into a [`Sink`]: `outln!(out, "fmt {}", x)` or `outln!(out)`.
#[macro_export]
macro_rules! outln {
    ($sink:expr) => { $sink.line(String::new()) };
    ($sink:expr, $($fmt:tt)*) => { $sink.line(format!($($fmt)*)) };
}

/// Writes rows as CSV into `<out>/<name>.csv` and echoes where it went.
/// A failed write is reported through [`io_error`], so the run still
/// completes its remaining experiments but exits nonzero.
pub fn write_csv(opts: &Options, out: &mut Sink, name: &str, header: &str, rows: &[String]) {
    if let Err(e) = fs::create_dir_all(&opts.out_dir) {
        io_error(
            out,
            format!("cannot create {}: {e}", opts.out_dir.display()),
        );
        return;
    }
    let path = opts.out_dir.join(format!("{name}.csv"));
    match write_rows(&path, header, rows) {
        Ok(()) => out.line(format!("  [csv] {}", path.display())),
        Err(e) => io_error(out, format!("cannot write {}: {e}", path.display())),
    }
}

fn write_rows(path: &std::path::Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.flush()
}

/// Prints a section heading.
pub fn heading(out: &mut Sink, title: &str) {
    out.line(String::new());
    out.line(format!("=== {title} ==="));
}

/// The canonical trio of repeated-attack policies at their default
/// settings (shared with `hbm-serve` via [`hbm_core::scenario`]).
pub fn default_policies(config: &ColoConfig, opts: &Options) -> Vec<(String, Policy, bool)> {
    scenario::default_policies(config, opts.seed)
}

/// One-line metrics summary.
pub fn summary_line(name: &str, m: &Metrics) -> String {
    format!(
        "{name:12}  attack {:5.2} h/day   emergencies {:6.3} % of time ({} events)   avg dT {:5.3} K   latency x{:4.2}   outages {}",
        m.attack_hours_per_day(),
        100.0 * m.emergency_fraction(),
        m.emergency_events,
        m.avg_delta_t().as_celsius(),
        m.mean_emergency_degradation(),
        m.outage_events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_core::{run_sims_batch, ForesightedPolicy, MyopicPolicy};
    use hbm_units::Power;

    fn parse(flags: &[&str]) -> Result<(Options, Vec<String>), String> {
        let args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        Options::parse(&args)
    }

    #[test]
    fn parse_rejects_horizons_that_overflow_the_slot_count() {
        // 1.3e16 days × 1440 slots overflows u64 on its own; two halves of
        // u64::MAX / 1440 overflow only when added.
        let half = (u64::MAX / 1440 / 2 + 1).to_string();
        for flags in [
            vec!["fig12a", "--days", "13000000000000000"],
            vec!["fig12a", "--warmup-days", "13000000000000000"],
            vec!["fig12a", "--days", &half, "--warmup-days", &half],
        ] {
            let err = parse(&flags).expect_err(&flags.join(" "));
            assert!(err.contains("overflows"), "{flags:?}: {err}");
        }
        let max = (u64::MAX / 1440).to_string();
        let (opts, ids) = parse(&["fig12a", "--days", &max, "--warmup-days", "0"]).unwrap();
        assert_eq!(ids, ["fig12a"]);
        assert_eq!(opts.slots(), u64::MAX / 1440 * 1440);
    }

    #[test]
    fn run_sims_batch_matches_scalar_runs_in_input_order() {
        let opts = Options {
            seed: 5,
            ..Options::default()
        };
        let low = ColoConfig::paper_default().with_mean_utilization(0.60);
        let high = ColoConfig::paper_default().with_mean_utilization(0.90);
        // Lanes interleaved over two traces, warm-up flags mixed within each.
        let build = || -> Vec<(Simulation, bool)> {
            let myopic = || MyopicPolicy::new(Power::from_kilowatts(7.4));
            let foresighted = || ForesightedPolicy::paper_default(14.0, opts.seed);
            vec![
                (opts.simulation(low.clone(), myopic()), false),
                (opts.simulation(high.clone(), foresighted()), true),
                (opts.simulation(low.clone(), foresighted()), true),
                (opts.simulation(high.clone(), myopic()), false),
                (opts.simulation(low.clone(), myopic()), true),
                (opts.simulation(high.clone(), foresighted()), false),
            ]
        };
        let (warmup_slots, slots) = (1440, 720);
        let lanes = build();
        assert!(std::ptr::eq(lanes[0].0.trace(), lanes[2].0.trace()));
        assert!(std::ptr::eq(lanes[1].0.trace(), lanes[3].0.trace()));
        assert!(!std::ptr::eq(lanes[0].0.trace(), lanes[1].0.trace()));
        let batched = run_sims_batch(lanes, warmup_slots, slots);
        assert_eq!(batched.len(), 6);
        for (i, ((mut sim, needs_warmup), report)) in build().into_iter().zip(batched).enumerate() {
            if needs_warmup {
                sim.warmup(warmup_slots);
            }
            let scalar = sim.run(slots);
            assert_eq!(format!("{report:?}"), format!("{scalar:?}"), "lane {i}");
        }
    }
}
