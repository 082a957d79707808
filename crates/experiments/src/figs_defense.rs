//! Section VII defense evaluation.

use hbm_core::{ColoConfig, ForesightedPolicy};
use hbm_defense::{
    prevention::jamming_noise_for_accuracy, MoveInInspection, ServerCalorimeter, SlaMonitor,
    ThermalResidualDetector,
};
use hbm_telemetry::Sample;
use hbm_thermal::ZoneModel;
use hbm_units::{Power, TemperatureDelta};

use crate::common::{close_trace, heading, trace_recorder, write_csv, Options, Sink};
use crate::outln;

/// Evaluates the Section VII defenses against a Foresighted campaign.
pub fn defense(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Section VII — defense evaluation against a Foresighted campaign",
    );
    let config = ColoConfig::paper_default();
    let policy = ForesightedPolicy::paper_default(14.0, opts.seed);
    let sim = opts.simulation(config.clone(), policy);
    // One-lane batch: same sharded engine as the attack sweeps, and the
    // determinism contract keeps the records bit-identical to a scalar run.
    let sims = hbm_core::run_sharded(vec![sim], opts.warmup_slots()).sims;
    let mut run = hbm_core::run_sharded_recorded(sims, opts.slots().min(60 * 1440));
    let report = run.reports.remove(0);
    let records = run.records.remove(0);
    outln!(
        out,
        "  campaign under test: {:.3} % emergency time, {} emergencies",
        100.0 * report.metrics.emergency_fraction(),
        report.metrics.emergency_events
    );

    // --- Thermal-residual detector (power/temperature cross-check). ---
    let mut detector = ThermalResidualDetector::new(
        ZoneModel::new(
            config.cooling,
            config.zone_heat_capacity_j_per_k,
            config.zone_pulldown_w_per_k,
        ),
        TemperatureDelta::from_celsius(0.8),
        3,
    );
    let mut residual_trace = trace_recorder(opts, out, "defense_residual");
    let mut attack_runs = 0u64;
    let mut detected_runs = 0u64;
    let mut latencies = Vec::new();
    let mut in_run = false;
    let mut run_detected = false;
    let mut run_start = 0usize;
    for (i, r) in records.iter().enumerate() {
        let alarm = detector.observe(r.metered_total, r.inlet, config.slot);
        if let Some(rec) = &mut residual_trace {
            rec.record(&Sample {
                step: r.slot,
                channels: &[
                    ("residual_c", detector.last_residual().as_celsius().into()),
                    ("alarm", alarm.into()),
                    ("alarms_total", detector.alarm_count().into()),
                ],
            });
        }
        let attacking = r.attack_load > Power::ZERO;
        if attacking && !in_run {
            in_run = true;
            run_detected = false;
            run_start = i;
            attack_runs += 1;
        }
        if in_run && alarm && !run_detected {
            run_detected = true;
            detected_runs += 1;
            latencies.push((i - run_start + 1) as f64);
        }
        if !attacking && in_run {
            in_run = false;
        }
    }
    close_trace(opts, out, "defense_residual", residual_trace);
    let mean_latency = if latencies.is_empty() {
        f64::NAN
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    outln!(out,
        "  residual detector: {detected_runs}/{attack_runs} sustained attack runs flagged, mean latency {mean_latency:.1} min, total alarms {}",
        detector.alarm_count()
    );

    // --- Per-server calorimetry (pinpointing the attacker). ---
    let calorimeter = ServerCalorimeter::new(Power::from_watts(40.0));
    let attack_record = records
        .iter()
        .find(|r| r.attack_load > Power::from_watts(900.0));
    if let Some(r) = attack_record {
        // During an attack each of the 4 attack servers runs at 450 W on a
        // 200 W metered budget; a benign server at its trace share.
        let benign_share = r.benign_actual / config.benign_server_count() as f64;
        let airflow = 0.018; // kg/s per server, matching the CFD model
        let mut readings = Vec::new();
        for _ in 0..config.benign_server_count() {
            readings.push(hbm_defense::reading_for(
                benign_share,
                benign_share,
                r.inlet,
                airflow,
            ));
        }
        for _ in 0..config.attacker_servers {
            let actual =
                (config.attacker_capacity + r.attack_load) / config.attacker_servers as f64;
            let metered = config.attacker_capacity / config.attacker_servers as f64;
            readings.push(hbm_defense::reading_for(actual, metered, r.inlet, airflow));
        }
        let flagged = calorimeter.flag_servers(&readings);
        outln!(
            out,
            "  calorimetry: flagged servers {:?} (expected: the 4 attacker servers, indices 36–39)",
            flagged
        );
    }

    // --- SLA-statistics (CUSUM) monitor. ---
    let mut monitor = SlaMonitor::new(0.0005, 0.001, 12.0);
    let mut first_alarm = None;
    for (i, r) in records.iter().enumerate() {
        if monitor.observe(r.capping) && first_alarm.is_none() {
            first_alarm = Some(i);
        }
    }
    match first_alarm {
        Some(i) => outln!(
            out,
            "  SLA monitor: first alarm after {:.1} days (observed rate {:.3} %)",
            i as f64 / 1440.0,
            100.0 * monitor.observed_rate()
        ),
        None => outln!(
            out,
            "  SLA monitor: no alarm (campaign hides under the SLA)"
        ),
    }

    // --- Prevention. ---
    let inspection = MoveInInspection::new(0.8, 0.95);
    outln!(out,
        "  move-in inspection (80 % coverage, 95 % recognition): P(catch ≥1 of 4 batteries) = {:.1} %",
        100.0 * inspection.detection_probability(config.attacker_servers)
    );
    let jam = jamming_noise_for_accuracy(
        Power::from_kilowatts(0.6),
        config.side_channel.samples_per_estimate,
    );
    outln!(out,
        "  jamming: {:.1} kW-equivalent per-sample noise degrades the channel to ±0.6 kW (see Fig. 12b for the impact)",
        jam.as_kilowatts()
    );

    write_csv(
        opts,
        out,
        "defense",
        "metric,value",
        &[
            format!("attack_runs,{attack_runs}"),
            format!("runs_detected,{detected_runs}"),
            format!("mean_detection_latency_min,{mean_latency:.2}"),
            format!(
                "sla_first_alarm_days,{}",
                first_alarm
                    .map(|i| format!("{:.2}", i as f64 / 1440.0))
                    .unwrap_or_else(|| "none".into())
            ),
            format!(
                "inspection_catch_probability,{:.4}",
                inspection.detection_probability(config.attacker_servers)
            ),
        ],
    );
}
