//! The `fleet` workload: two 1000-lane batches — foresighted (learning)
//! lanes, then myopic lanes — each advanced with `BatchSim::step_all` for
//! a fixed number of simulated days, in-process on a thread budget of one.

use std::hint::black_box;
use std::time::Instant;

use hbm_core::{BatchSim, ColoConfig, ForesightedPolicy, MyopicPolicy, Simulation};
use hbm_telemetry::timing;
use hbm_units::Power;

use crate::report::{Kind, Report};
use crate::seq::Rng;
use crate::stats::{median, tail};
use crate::{record_spans, rss};

const LANES: usize = 1000;
const DAY: u64 = 1440;
/// Each lane's benign trace covers a week (it wraps beyond that), which
/// keeps trace synthesis near 1 ms per lane.
const TRACE_DAYS: usize = 7;
const LEARNING_DAYS: u64 = 12;
const MYOPIC_DAYS: u64 = 20;
/// Set-ups per run; `setup_s` is the quickest lane construction plus the
/// quickest `BatchSim::new` among them.
const SETUP_REPS: usize = 9;
/// Lanes per batch re-simulated alone as a correctness check.
const SAMPLE_LANES: usize = 2;
/// Spans the batch engine and its learners record.
const SPANS: &[&str] = &["batch.step", "rl.batch_update", "rl.q_update"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Batch {
    Learning,
    Myopic,
}

impl Batch {
    fn name(self) -> &'static str {
        match self {
            Batch::Learning => "learning",
            Batch::Myopic => "myopic",
        }
    }

    fn days(self) -> u64 {
        match self {
            Batch::Learning => LEARNING_DAYS,
            Batch::Myopic => MYOPIC_DAYS,
        }
    }
}

fn lane_seed(seed: u64, batch: Batch, lane: usize) -> u64 {
    let salt = match batch {
        Batch::Learning => 0,
        Batch::Myopic => 1 << 40,
    };
    (seed % 1_000_000)
        .wrapping_mul(1 << 20)
        .wrapping_add(salt + 1 + lane as u64 * 1_299_721)
}

/// One lane, built as `learning_fleet_slots_per_sec` builds its lanes
/// (paper-default attacker, teacher disabled) or as a myopic fleet site.
fn lane(seed: u64, batch: Batch, lane: usize) -> Simulation {
    let config = ColoConfig::paper_default().with_trace_len(TRACE_DAYS * DAY as usize);
    let seed = lane_seed(seed, batch, lane);
    match batch {
        Batch::Learning => {
            let mut policy = ForesightedPolicy::paper_default(14.0, seed);
            policy.set_teacher(Power::from_kilowatts(7.56), 0);
            Simulation::new(config, Box::new(policy), seed)
        }
        Batch::Myopic => Simulation::new(
            config,
            Box::new(MyopicPolicy::new(Power::from_kilowatts(7.4))),
            seed,
        ),
    }
}

/// What stepping one batch measured.
struct Stepped {
    day_s: Vec<f64>,
    step_us: Vec<f64>,
    take_reports_ms: f64,
}

/// Builds a batch, returning it with (lane construction, `BatchSim::new`)
/// seconds.
fn build(seed: u64, batch: Batch) -> (BatchSim, f64, f64) {
    let t = Instant::now();
    let sims: Vec<Simulation> = (0..LANES).map(|i| lane(seed, batch, i)).collect();
    let lanes_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let built = BatchSim::new(sims);
    (built, lanes_s, t.elapsed().as_secs_f64())
}

/// Steps `sim` one simulated day, timing every `step_all` (two clock
/// reads against ~100 µs of work).
fn step_day(sim: &mut BatchSim, stepped: &mut Stepped) {
    let day = Instant::now();
    for _ in 0..DAY {
        let t = Instant::now();
        black_box(sim.step_all());
        stepped.step_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stepped.day_s.push(day.elapsed().as_secs_f64());
}

/// Takes the batch's reports and checks sampled lanes against the same
/// `Simulation` stepped alone.
fn check(sim: &mut BatchSim, seed: u64, batch: Batch, stepped: &mut Stepped, report: &mut Report) {
    let t = Instant::now();
    let reports = sim.take_reports();
    stepped.take_reports_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut rng = Rng::new(seed, 0xF1EE7 + batch as u64);
    let mut failed = 0;
    for i in rng.distinct(SAMPLE_LANES, LANES) {
        let want = lane(seed, batch, i).run(batch.days() * DAY);
        if format!("{:?}", reports[i]) != format!("{want:?}") {
            failed += 1;
            report.error(format!(
                "{} lane {i}: batch report differs from the lane stepped alone",
                batch.name()
            ));
        }
    }
    report.count(
        &format!("{}_lane_check", batch.name()),
        SAMPLE_LANES as u64,
        failed,
    );
    report.count(&format!("{}_day", batch.name()), batch.days(), 0);
}

/// Runs the workload; with `trace`, a second pass with spans on adds the
/// per-layer metrics and the tracing overhead.
pub fn run(seed: u64, trace: bool) -> Report {
    let mut report = Report::default();
    // A traced run reports no end-to-end metrics, so one set-up will do.
    let reps = if trace { 1 } else { SETUP_REPS };
    let (setup, stepped, _) = pass(seed, reps, &mut report);
    let per_day = |b: Batch| median_day_s(&stepped[b as usize]);
    let work_s = median_work_s(&stepped);
    let wall_s: f64 = stepped.iter().flat_map(|s| &s.day_s).sum();
    let quickest =
        |part: fn(&(f64, f64)) -> f64| setup.iter().map(part).fold(f64::INFINITY, f64::min);
    let setup_s = quickest(|s| s.0) + quickest(|s| s.1);
    let peak = rss::peak_rss_mib("self").unwrap_or(f64::NAN);

    report.metric(Kind::EndToEnd, "setup_s", setup_s, "s");
    report.metric(Kind::EndToEnd, "peak_rss_mib", peak, "MiB");
    report.metric(Kind::EndToEnd, "work_s", work_s, "s");
    let lane_slots = (LANES as u64 * DAY) as f64;
    for b in [Batch::Learning, Batch::Myopic] {
        let name = match b {
            Batch::Learning => "learning_lane_slots_per_s",
            Batch::Myopic => "myopic_lane_slots_per_s",
        };
        report.metric(Kind::Detail, name, lane_slots / per_day(b), "1/s");
    }
    report.metric(Kind::Detail, "step_wall_s", wall_s, "s");

    if trace {
        timing::reset_timings();
        timing::set_timings_enabled(true);
        let (_, traced, build_s) = pass(seed, 1, &mut report);
        timing::set_timings_enabled(false);
        report.metric(
            Kind::Layer,
            "fleet.trace_overhead_frac",
            median_work_s(&traced) / work_s - 1.0,
            "ratio",
        );
        let [(lanes_l, new_l), (lanes_m, new_m)] = build_s;
        report.metric(
            Kind::Layer,
            "core.batch_new_ms",
            (new_l + new_m) * 1e3,
            "ms",
        );
        report.metric(
            Kind::Layer,
            "fleet.lane_build_ms",
            (lanes_l + lanes_m) * 1e3,
            "ms",
        );
        for b in [Batch::Learning, Batch::Myopic] {
            let s = &traced[b as usize];
            let p50 = median(&s.step_us).expect("steps were timed");
            let t = tail(&s.step_us).expect("a day has more than ten steps");
            let prefix = format!("core.{}_step_us", b.name());
            report.metric(Kind::Layer, format!("{prefix}_p50"), p50, "us");
            report.metric(Kind::Layer, format!("{prefix}_tail"), t.value, "us");
            report.metric(Kind::Layer, format!("{prefix}_tail_pct"), t.percentile, "%");
        }
        report.metric(
            Kind::Layer,
            "core.take_reports_ms",
            traced.iter().map(|s| s.take_reports_ms).sum(),
            "ms",
        );
        record_spans(&mut report, "fleet", SPANS);
    }
    report
}

/// A batch's typical simulated day: Σ over the slots of a day of that
/// slot's median `step_all` across the days, in seconds. Every day does
/// the same work slot for slot, so the median drops host interference
/// that slows fewer than half of the days but moves with any cost that
/// most of them pay.
fn median_day_s(s: &Stepped) -> f64 {
    let day = DAY as usize;
    let days = s.step_us.len() / day;
    (0..day)
        .map(|k| {
            let at_slot: Vec<f64> = (0..days).map(|d| s.step_us[d * day + k]).collect();
            median(&at_slot).expect("at least one day was stepped")
        })
        .sum::<f64>()
        / 1e6
}

/// The stepping work's cost with every day at its batch's typical day.
fn median_work_s(stepped: &[Stepped]) -> f64 {
    [Batch::Learning, Batch::Myopic]
        .into_iter()
        .map(|b| b.days() as f64 * median_day_s(&stepped[b as usize]))
        .sum()
}

/// One pass: `reps` set-ups of both batches, stepping the batches of the
/// last one. Their days interleave (each next day goes to the batch
/// furthest behind), so a slow stretch of the host falls on days of both
/// batches rather than on all days of one. Returns per-rep set-up seconds
/// (lane construction, `BatchSim::new`) of both batches together, the
/// stepped measurements (learning, myopic), and the last rep's build
/// split.
#[allow(clippy::type_complexity)]
fn pass(
    seed: u64,
    reps: usize,
    report: &mut Report,
) -> (Vec<(f64, f64)>, Vec<Stepped>, [(f64, f64); 2]) {
    let mut setup = Vec::new();
    for _ in 1..reps {
        let (_, lanes_l, new_l) = build(seed, Batch::Learning);
        let (_, lanes_m, new_m) = build(seed, Batch::Myopic);
        setup.push((lanes_l + lanes_m, new_l + new_m));
    }
    let (mut learning, lanes_l, new_l) = build(seed, Batch::Learning);
    let (mut myopic, lanes_m, new_m) = build(seed, Batch::Myopic);
    setup.push((lanes_l + lanes_m, new_l + new_m));
    report.check(learning.learning_devirtualized(), || {
        "the learning batch fell back to virtual dispatch".into()
    });

    let mut stepped: Vec<Stepped> = (0..2)
        .map(|_| Stepped {
            day_s: Vec::new(),
            step_us: Vec::new(),
            take_reports_ms: 0.0,
        })
        .collect();
    loop {
        let l = stepped[0].day_s.len() as f64 / LEARNING_DAYS as f64;
        let m = stepped[1].day_s.len() as f64 / MYOPIC_DAYS as f64;
        if l >= 1.0 && m >= 1.0 {
            break;
        }
        if l < 1.0 && (m >= 1.0 || l <= m) {
            step_day(&mut learning, &mut stepped[0]);
        } else {
            step_day(&mut myopic, &mut stepped[1]);
        }
    }
    check(
        &mut learning,
        seed,
        Batch::Learning,
        &mut stepped[0],
        report,
    );
    check(&mut myopic, seed, Batch::Myopic, &mut stepped[1], report);
    (setup, stepped, [(lanes_l, new_l), (lanes_m, new_m)])
}
