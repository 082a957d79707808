//! "Shape" tests: the qualitative findings of the paper's evaluation that
//! this reproduction must preserve (who wins, what saturates, what
//! collapses), checked end-to-end on shortened horizons.

use hbm_core::{ColoConfig, ForesightedPolicy, MyopicPolicy, RandomPolicy, SimReport, Simulation};
use hbm_thermal::ZoneModel;
use hbm_units::{Power, Temperature};

const MEASURE_DAYS: u64 = 45;
const WARMUP_DAYS: u64 = 120;

fn run_myopic(threshold_kw: f64) -> SimReport {
    let config = ColoConfig::paper_default();
    let policy = MyopicPolicy::new(Power::from_kilowatts(threshold_kw));
    let mut sim = Simulation::new(config, policy, 1);
    sim.run(MEASURE_DAYS * 1440)
}

fn run_random(p: f64) -> SimReport {
    let config = ColoConfig::paper_default();
    let policy = RandomPolicy::new(p, config.attack_load, config.slot, 1);
    let mut sim = Simulation::new(config, policy, 1);
    sim.run(MEASURE_DAYS * 1440)
}

fn run_foresighted(w: f64) -> SimReport {
    let config = ColoConfig::paper_default();
    let policy = ForesightedPolicy::paper_default(w, 1);
    let mut sim = Simulation::new(config, policy, 1);
    sim.warmup(WARMUP_DAYS * 1440);
    sim.run(MEASURE_DAYS * 1440)
}

/// Fig. 9 / Fig. 11c: Random fails to create thermal emergencies even while
/// attacking a lot.
#[test]
fn random_attacks_create_no_emergencies() {
    let report = run_random(0.08);
    assert!(report.metrics.attack_hours_per_day() > 1.0);
    assert_eq!(report.metrics.emergency_events, 0);
}

/// Fig. 11b: more random attacks still raise the average temperature.
#[test]
fn random_delta_t_grows_with_attack_probability() {
    let low = run_random(0.03);
    let high = run_random(0.15);
    assert!(high.metrics.avg_delta_t() > low.metrics.avg_delta_t());
}

/// Fig. 11c: Myopic peaks at a sweet-spot threshold and *collapses* when it
/// attacks more aggressively (premature attacks deplete the battery).
#[test]
fn myopic_collapses_past_its_sweet_spot() {
    let sweet = run_myopic(7.4);
    let premature = run_myopic(7.0);
    assert!(
        premature.metrics.attack_hours_per_day() > sweet.metrics.attack_hours_per_day(),
        "lower threshold must attack more"
    );
    assert!(
        premature.metrics.emergency_fraction() < sweet.metrics.emergency_fraction() * 0.5,
        "premature attacks must produce far fewer emergencies: {} vs {}",
        premature.metrics.emergency_fraction(),
        sweet.metrics.emergency_fraction()
    );
}

/// Fig. 11c: Foresighted sustains its impact with increasing attack budget
/// (w), instead of collapsing like Myopic.
#[test]
fn foresighted_saturates_instead_of_collapsing() {
    let moderate = run_foresighted(9.0);
    let aggressive = run_foresighted(30.0);
    assert!(moderate.metrics.emergency_events > 0);
    assert!(
        aggressive.metrics.emergency_fraction() >= moderate.metrics.emergency_fraction() * 0.6,
        "more aggressive Foresighted must not collapse: {} vs {}",
        aggressive.metrics.emergency_fraction(),
        moderate.metrics.emergency_fraction()
    );
}

/// Fig. 11c at matched (high) attack budgets: Foresighted beats Myopic.
#[test]
fn foresighted_beats_myopic_at_high_attack_budget() {
    let foresighted = run_foresighted(14.0);
    let myopic = run_myopic(7.0); // similar or higher attack time
    assert!(
        foresighted.metrics.emergency_slots > myopic.metrics.emergency_slots,
        "foresighted {} vs myopic {} emergency slots",
        foresighted.metrics.emergency_slots,
        myopic.metrics.emergency_slots
    );
}

/// Fig. 11d: power capping during emergencies degrades tail latency by
/// roughly the paper's factor (≈2–4×).
#[test]
fn emergency_latency_degradation_in_paper_band() {
    let report = run_myopic(7.4);
    assert!(report.metrics.emergency_events > 0);
    let d = report.metrics.mean_emergency_degradation();
    assert!((1.8..=5.0).contains(&d), "degradation {d} outside band");
}

/// Fig. 11a: the 1 kW-overload crossing time is under four minutes, and
/// hotter supply air reaches the limit faster.
#[test]
fn overload_crossing_times_match_figure_11a() {
    let zone = ZoneModel::paper_default();
    let t32 = Temperature::from_celsius(32.0);
    let one_kw = zone.time_to_reach(t32, Power::from_kilowatts(1.0));
    assert!(one_kw.as_minutes() < 4.0);
    let from_29 = zone.time_to_reach_from(
        Temperature::from_celsius(29.0),
        t32,
        Power::from_kilowatts(1.0),
    );
    assert!(from_29 < one_kw);
}

/// Fig. 12a: a bigger battery lets the attacker do more damage.
#[test]
fn bigger_battery_more_emergencies() {
    use hbm_units::Energy;
    let run = |kwh: f64| {
        let config =
            ColoConfig::paper_default().with_battery_capacity(Energy::from_kilowatt_hours(kwh));
        let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
        let mut sim = Simulation::new(config, policy, 1);
        sim.run(MEASURE_DAYS * 1440)
    };
    let small = run(0.1);
    let large = run(0.4);
    assert!(
        large.metrics.emergency_slots > small.metrics.emergency_slots,
        "battery 0.4 kWh ({}) must beat 0.1 kWh ({})",
        large.metrics.emergency_slots,
        small.metrics.emergency_slots
    );
}

/// Fig. 12b: degrading the side channel (jamming) reduces the attack's
/// effectiveness.
#[test]
fn side_channel_noise_blunts_the_attack() {
    let run = |noise_kw: f64| {
        let config =
            ColoConfig::paper_default().with_side_channel_noise(Power::from_kilowatts(noise_kw));
        let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
        let mut sim = Simulation::new(config, policy, 1);
        sim.run(MEASURE_DAYS * 1440)
    };
    let clean = run(0.0);
    let jammed = run(0.8);
    assert!(
        jammed.metrics.emergency_slots < clean.metrics.emergency_slots,
        "jammed {} must underperform clean {}",
        jammed.metrics.emergency_slots,
        clean.metrics.emergency_slots
    );
}

/// Fig. 12d: higher average utilization means more attack opportunities.
#[test]
fn higher_utilization_more_emergencies() {
    let run = |u: f64| {
        let config = ColoConfig::paper_default().with_mean_utilization(u);
        let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
        let mut sim = Simulation::new(config, policy, 1);
        sim.run(MEASURE_DAYS * 1440)
    };
    let low = run(0.62);
    let high = run(0.85);
    assert!(
        high.metrics.emergency_slots > low.metrics.emergency_slots,
        "85 % utilization ({}) must beat 62 % ({})",
        high.metrics.emergency_slots,
        low.metrics.emergency_slots
    );
}

/// Fig. 12e direction: extra cooling headroom suppresses the default-sized
/// attack.
#[test]
fn extra_cooling_capacity_suppresses_the_attack() {
    let run = |extra: f64| {
        let config = ColoConfig::paper_default().with_extra_cooling(extra);
        let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
        let mut sim = Simulation::new(config, policy, 1);
        sim.run(MEASURE_DAYS * 1440)
    };
    let none = run(0.0);
    let ten_pct = run(0.10);
    assert!(
        ten_pct.metrics.emergency_slots < none.metrics.emergency_slots / 4,
        "10 % headroom ({}) must largely suppress the 1 kW attack ({})",
        ten_pct.metrics.emergency_slots,
        none.metrics.emergency_slots
    );
}

/// Fig. 13: the findings carry over to the alternate (google-like) trace.
#[test]
fn alternate_trace_preserves_the_ordering() {
    use hbm_workload::TraceShape;
    let mut config = ColoConfig::paper_default();
    config.trace.shape = TraceShape::Google;

    let mut myopic = Simulation::new(
        config.clone(),
        MyopicPolicy::new(Power::from_kilowatts(7.4)),
        1,
    );
    let m = myopic.run(MEASURE_DAYS * 1440);

    let mut random = Simulation::new(
        config.clone(),
        RandomPolicy::new(0.08, config.attack_load, config.slot, 1),
        1,
    );
    let r = random.run(MEASURE_DAYS * 1440);

    assert!(m.metrics.emergency_slots > r.metrics.emergency_slots);
    if m.metrics.emergency_events > 0 {
        assert!(m.metrics.mean_emergency_degradation() > 1.5);
    }
}
