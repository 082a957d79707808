//! Extensions beyond the paper's figures: the learning-rule ablation and
//! the defense operating-characteristic sweep.

use hbm_core::{ColoConfig, ForesightedPolicy, MyopicPolicy};
use hbm_defense::ThermalResidualDetector;
use hbm_thermal::ZoneModel;
use hbm_thermal::{CfdConfig, CfdModel};
use hbm_units::{Duration, Temperature};
use hbm_units::{Power, TemperatureDelta};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use hbm_workload::latency::LatencyModel;
use hbm_workload::queue::simulate as queue_simulate;

use crate::common::{heading, write_csv, Options, Sink};
use crate::outln;

/// Ablation: the paper's batch Q-learning vs classic Q-learning, same
/// state space, same schedules, same execution machinery. The paper's
/// motivation for the batch variant is faster convergence (Section IV-B);
/// measure emergency production per fortnight of online learning.
pub fn ablation(opts: &Options, out: &mut Sink) {
    heading(out, "Ablation — batch vs standard Q-learning convergence");
    let config = ColoConfig::paper_default();
    let fortnight = 14 * 1440u64;
    let fortnights = 10usize;
    let mut rows = Vec::new();
    // Both arms step on the batch engine a fortnight at a time (one shard
    // each when the thread budget allows); each fortnight's reports hold
    // exactly that window's metrics, since taking them resets the lanes'.
    let mut sims: Vec<_> = [false, true]
        .into_iter()
        .map(|standard| {
            let mut policy = ForesightedPolicy::paper_default(14.0, opts.seed);
            if standard {
                policy = policy.with_standard_q();
            }
            opts.simulation(config.clone(), policy)
        })
        .collect();
    let mut curves = [Vec::new(), Vec::new()];
    for _ in 0..fortnights {
        let run = hbm_core::run_sharded(sims, fortnight);
        sims = run.sims;
        for (curve, report) in curves.iter_mut().zip(&run.reports) {
            curve.push(100.0 * report.metrics.emergency_slots as f64 / fortnight as f64);
        }
    }
    outln!(out, "  fortnight   batch emerg%   standard emerg%");
    let [batch, standard] = curves;
    for (i, (b, s)) in batch.into_iter().zip(standard).enumerate() {
        outln!(out, "  {:>9}   {b:12.3}   {s:15.3}", i + 1);
        rows.push(format!("{},{b:.4},{s:.4}", i + 1));
    }
    outln!(
        out,
        "  (both include the 60-day teacher phase; divergence appears after it)"
    );
    write_csv(
        opts,
        out,
        "ablation",
        "fortnight,batch_emergency_pct,standard_emergency_pct",
        &rows,
    );
}

/// One slot of a `defense_roc` run, as the residual detector replays it.
#[derive(Clone, Copy)]
struct RocSlot {
    metered_total: Power,
    inlet: Temperature,
    attacking: bool,
}

/// Defense operating characteristic: sweep the residual-detector threshold
/// and report detection of *sustained* attack runs (≥3 minutes — the only
/// ones that can outlast the emergency dwell) against the false-alarm rate
/// on a clean horizon. The operator's temperature sensors carry ±0.2 K of
/// noise, which is what makes the threshold choice a real trade-off.
pub fn defense_roc(opts: &Options, out: &mut Sink) {
    heading(out, "Defense ROC — residual-detector threshold sweep");
    let config = ColoConfig::paper_default();
    let horizon = opts.slots().min(90 * 1440);
    let sensor_noise_k = 0.2;

    // Attack-campaign and clean (no-attack, same trace) slots: two
    // independent simulations, shared by every threshold below. Each keeps
    // only what the detector replays, not the whole `SlotRecord`.
    let mut recorded = hbm_par::par_map(vec![7.4, 99.0], |trigger_kw| {
        let mut sim = opts.simulation(
            config.clone(),
            MyopicPolicy::new(Power::from_kilowatts(trigger_kw)),
        );
        (0..horizon)
            .map(|_| {
                let r = sim.step();
                RocSlot {
                    metered_total: r.metered_total,
                    inlet: r.inlet,
                    attacking: r.attack_load > Power::ZERO,
                }
            })
            .collect::<Vec<_>>()
    });
    let (clean_records, attack_records) = match (recorded.pop(), recorded.pop()) {
        (Some(clean), Some(attack)) => (clean, attack),
        _ => {
            out.line("error: defense_roc: recorded simulations went missing");
            return;
        }
    };

    outln!(
        out,
        "  threshold_K   detection %   false alarms/week   mean latency (min)"
    );
    // Each threshold replays the shared records with its own detector and
    // its own deterministically seeded sensor noise, so the sweep is
    // embarrassingly parallel.
    let thresholds = vec![0.2, 0.4, 0.6, 0.8, 1.2, 1.6, 2.4];
    let results = hbm_par::par_map(thresholds, |threshold_k| {
        let build = || {
            ThermalResidualDetector::new(
                ZoneModel::new(
                    config.cooling,
                    config.zone_heat_capacity_j_per_k,
                    config.zone_pulldown_w_per_k,
                ),
                TemperatureDelta::from_celsius(threshold_k),
                3,
            )
        };

        // Detection of sustained (≥3-minute) attack runs; short probes are
        // both harmless and physically indistinguishable from noise.
        let mut detector = build();
        let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_mul(7).wrapping_add(1));
        let mut runs = 0u64;
        let mut caught = 0u64;
        let mut latencies = Vec::new();
        let mut i = 0usize;
        while i < attack_records.len() {
            let r = &attack_records[i];
            if !r.attacking {
                let noisy =
                    r.inlet + TemperatureDelta::from_celsius(sensor_noise_k * normal(&mut rng));
                detector.observe(r.metered_total, noisy, config.slot);
                i += 1;
                continue;
            }
            // Measure the run length, then replay it through the detector.
            let len = attack_records[i..]
                .iter()
                .take_while(|r| r.attacking)
                .count();
            let mut run_caught = None;
            for (j, r) in attack_records[i..i + len].iter().enumerate() {
                let noisy =
                    r.inlet + TemperatureDelta::from_celsius(sensor_noise_k * normal(&mut rng));
                if detector.observe(r.metered_total, noisy, config.slot) && run_caught.is_none() {
                    run_caught = Some(j + 1);
                }
            }
            if len >= 3 {
                runs += 1;
                if let Some(latency) = run_caught {
                    caught += 1;
                    latencies.push(latency as f64);
                }
            }
            i += len;
        }

        // False alarms on the clean horizon with the same sensor noise.
        let mut detector = build();
        let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_mul(13).wrapping_add(5));
        let mut false_alarms = 0u64;
        for r in &clean_records {
            let noisy = r.inlet + TemperatureDelta::from_celsius(sensor_noise_k * normal(&mut rng));
            if detector.observe(r.metered_total, noisy, config.slot) {
                false_alarms += 1;
            }
        }

        let detection = if runs == 0 {
            0.0
        } else {
            100.0 * caught as f64 / runs as f64
        };
        let fa_per_week = false_alarms as f64 / (horizon as f64 / (7.0 * 1440.0));
        let latency = if latencies.is_empty() {
            f64::NAN
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        (threshold_k, detection, fa_per_week, latency)
    });
    let mut rows = Vec::new();
    for (threshold_k, detection, fa_per_week, latency) in results {
        outln!(
            out,
            "  {threshold_k:11.1}   {detection:11.1}   {fa_per_week:17.2}   {latency:18.1}"
        );
        rows.push(format!(
            "{threshold_k},{detection:.2},{fa_per_week:.3},{latency:.2}"
        ));
    }
    outln!(
        out,
        "  (detection counts sustained ≥3-minute runs; ±0.2 K sensor noise assumed)"
    );
    write_csv(
        opts,
        out,
        "defense_roc",
        "threshold_k,detection_pct,false_alarms_per_week,mean_latency_min",
        &rows,
    );
}

/// One standard-normal draw (Box–Muller).
fn normal<R: RngExt + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Validation of the analytic latency model against the request-level
/// queueing simulation, across the Fig. 15 grid.
pub fn latency_validation(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Latency-model validation — analytic vs request-level queue sim",
    );
    outln!(
        out,
        "  application   power%   load   analytic t95   simulated t95   error %"
    );
    // Flatten the application × power × load grid into one job list; each
    // cell is an independent 100k-request queueing simulation.
    let mut grid = Vec::new();
    for (name, model) in [
        ("web_service", LatencyModel::web_service()),
        ("web_search", LatencyModel::web_search()),
    ] {
        for power in [1.0, 0.8, 0.7, 0.6] {
            for load in [model.rated_load() * 0.75, model.rated_load()] {
                grid.push((name, model, power, load));
            }
        }
    }
    let results = hbm_par::par_map(grid, |(name, model, power, load)| {
        let analytic = model.t95_millis(power, load);
        let sim = queue_simulate(&model, power, load, 100_000, opts.seed);
        (name, power, load, analytic, sim.t95_ms)
    });
    let mut rows = Vec::new();
    for (name, power, load, analytic, sim_t95) in results {
        let err = 100.0 * (sim_t95 - analytic) / analytic;
        outln!(
            out,
            "  {name:12} {:6.0}   {load:4.2}   {analytic:12.1}   {sim_t95:13.1}   {err:7.2}",
            power * 100.0,
        );
        rows.push(format!(
            "{name},{power},{load:.3},{analytic:.2},{sim_t95:.2},{err:.3}"
        ));
    }
    outln!(
        out,
        "  (the analytic model used in year-long runs is the M/M/1 capacity-cut queue)"
    );
    write_csv(
        opts,
        out,
        "latency_validation",
        "application,power_frac,load_frac,analytic_t95_ms,simulated_t95_ms,error_pct",
        &rows,
    );
}

/// Validation of the paper's placement claim (Section V-A): "while we place
/// the attacker's servers at the bottom of the rack, their location within
/// the rack does not play any significant role in the attack since the
/// cooling load is determined by server power." Run the CFD model with the
/// 4 attack servers at the bottom, middle, and top of rack 0 and compare
/// the mean-inlet impact of the same 1 kW injection.
pub fn placement(opts: &Options, out: &mut Sink) {
    heading(out, "Placement check — attacker position within the rack");
    let config = CfdConfig::paper_default();
    let n = config.server_count();
    let base_w = 150.0;
    outln!(out, "  position   mean inlet after 5 min of +1 kW (°C)");
    // The three placements run the same CFD protocol independently.
    let positions = vec![
        ("bottom", [0usize, 1, 2, 3]),
        ("middle", [8, 9, 10, 11]),
        ("top", [16, 17, 18, 19]),
    ];
    let results = hbm_par::par_map(positions, |(name, slots)| {
        let mut cfd = CfdModel::new(config);
        let baseline = vec![hbm_units::Power::from_watts(base_w); n];
        cfd.run_to_steady_state(&baseline, 0.002, Duration::from_minutes(30.0));
        let mut attacked = baseline.clone();
        for &s in &slots {
            attacked[s] = hbm_units::Power::from_watts(base_w + 250.0); // +1 kW total
        }
        // Push the total past capacity so the injection matters: raise the
        // benign floor too (uniform 187.5 W ≈ 7.5 kW + 1 kW attack).
        for (i, p) in attacked.iter_mut().enumerate() {
            if !slots.contains(&i) {
                *p = hbm_units::Power::from_watts(187.5);
            } else {
                *p = hbm_units::Power::from_watts(187.5 + 250.0);
            }
        }
        cfd.run_to_steady_state(
            &attacked
                .iter()
                .map(|&p| p * (180.0 / 187.5))
                .collect::<Vec<_>>(),
            0.002,
            Duration::from_minutes(10.0),
        );
        cfd.step(&attacked, Duration::from_minutes(5.0));
        (name, cfd.mean_inlet().as_celsius())
    });
    let mut rows = Vec::new();
    let mut impacts = Vec::new();
    for (name, inlet) in results {
        outln!(out, "  {name:8}   {inlet:8.3}");
        impacts.push(inlet);
        rows.push(format!("{name},{inlet:.4}"));
    }
    let spread = impacts.iter().cloned().fold(f64::MIN, f64::max)
        - impacts.iter().cloned().fold(f64::MAX, f64::min);
    outln!(
        out,
        "  spread across positions: {spread:.3} K (paper: position plays no significant role)"
    );
    write_csv(opts, out, "placement", "position,mean_inlet_c", &rows);
}

/// Negative control for Section III-D: without airflow meters, inlet/outlet
/// temperature monitoring alone cannot tell the attacker from a busy benign
/// server — outlet temperature depends on the (unknown) fan speed.
pub fn outlet_only(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Outlet-temperature-only monitoring — why it fails (Section III-D)",
    );
    // Two servers, same 38 °C outlet reading:
    //  * benign at 200 W with a lazy fan (0.018 kg/s → ΔT 11 K)
    //  * attacker at 450 W with its fans at full tilt (0.0407 kg/s → ΔT 11 K)
    let cp = 1005.0;
    let inlet = 27.0;
    let benign_flow = 0.018;
    let benign_w = 200.0;
    let benign_outlet = inlet + benign_w / (benign_flow * cp);
    let attacker_w = 450.0;
    let attacker_flow = attacker_w / ((benign_outlet - inlet) * cp);
    let attacker_outlet = inlet + attacker_w / (attacker_flow * cp);
    outln!(
        out,
        "  benign:   200 W, flow {benign_flow:.4} kg/s → outlet {benign_outlet:.1} °C"
    );
    outln!(
        out,
        "  attacker: 450 W, flow {attacker_flow:.4} kg/s → outlet {attacker_outlet:.1} °C"
    );
    outln!(
        out,
        "  identical outlet readings; only the airflow (or the fan noise driving it)"
    );
    outln!(
        out,
        "  separates them — which is exactly the monitoring the paper recommends."
    );
    let rows = vec![
        format!("benign,{benign_w},{benign_flow:.5},{benign_outlet:.2}"),
        format!("attacker,{attacker_w},{attacker_flow:.5},{attacker_outlet:.2}"),
    ];
    write_csv(
        opts,
        out,
        "outlet_only",
        "server,power_w,airflow_kg_s,outlet_c",
        &rows,
    );
}

/// Prevention defense of Section VII-A: lowering the supply setpoint buys
/// thermal margin against attacks — at an energy cost the paper warns
/// about. Sweep the setpoint and measure the default Myopic campaign.
pub fn setpoint(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Prevention — lower supply setpoint vs attack effectiveness",
    );
    outln!(
        out,
        "  setpoint °C   emergencies %   (margin to the 32 °C threshold)"
    );
    // One independent 90-day campaign per setpoint, all on the batch engine.
    let setpoints = [27.0, 25.0, 23.0, 21.0];
    let sims = setpoints
        .iter()
        .map(|&supply_c| {
            let mut config = ColoConfig::paper_default();
            config.cooling = config
                .cooling
                .with_supply(Temperature::from_celsius(supply_c));
            opts.simulation(config, MyopicPolicy::new(Power::from_kilowatts(7.4)))
        })
        .collect();
    let reports = hbm_core::run_sharded(sims, opts.slots().min(90 * 1440)).reports;
    let mut rows = Vec::new();
    for (supply_c, report) in setpoints.into_iter().zip(reports) {
        let pct = 100.0 * report.metrics.emergency_fraction();
        outln!(
            out,
            "  {supply_c:11.0}   {pct:13.3}   ({:.0} K margin)",
            32.0 - supply_c
        );
        rows.push(format!("{supply_c},{pct:.4}"));
    }
    outln!(
        out,
        "  (each kelvin of margin costs cooling energy — the trade-off of Section VII-A)"
    );
    write_csv(opts, out, "setpoint", "supply_c,emergency_pct", &rows);
}
