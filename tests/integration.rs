//! Cross-crate integration tests: the full simulator pipeline, spanning
//! workload generation, the voltage side channel, battery dynamics, the
//! thermal models, the emergency protocol, attack policies, metrics, and
//! the defenses.

use hbm_battery::BatterySpec;
use hbm_core::{
    run_sharded, AttackAction, ColoConfig, CostModel, ForesightedPolicy, MyopicPolicy,
    OneShotPolicy, RandomPolicy, Simulation,
};
use hbm_defense::{reading_for, ServerCalorimeter, SlaMonitor, ThermalResidualDetector};
use hbm_thermal::ZoneModel;
use hbm_units::{Duration, Energy, Power, Temperature, TemperatureDelta};

fn week_config() -> ColoConfig {
    ColoConfig::paper_default().with_trace_len(14 * 1440)
}

#[test]
fn benign_colocation_never_sees_an_emergency() {
    // With subscriptions sized to capacity and no battery games, the
    // operator's 27 °C conditioning holds all year round.
    let policy = MyopicPolicy::new(Power::from_kilowatts(99.0)); // never fires
    let mut sim = Simulation::new(week_config(), policy, 5);
    let report = sim.run(14 * 1440);
    assert_eq!(report.metrics.emergency_events, 0);
    assert_eq!(report.metrics.outage_events, 0);
    assert!(report.metrics.avg_delta_t() < TemperatureDelta::from_celsius(0.05));
}

#[test]
fn full_pipeline_attack_to_emergency_to_recovery() {
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(week_config(), policy, 1);
    let (report, records) = sim.run_recorded(14 * 1440);

    // The attack produced emergencies…
    assert!(report.metrics.emergency_events > 0);
    // …the colocation always recovered (no outage from a 1 kW attack)…
    assert_eq!(report.metrics.outage_events, 0);
    // …and the inlet returned to the setpoint after every episode.
    let last = records.last().unwrap();
    assert!(last.inlet < Temperature::from_celsius(33.0));

    // Every capping slot capped the benign tenants to 36 × 120 W.
    for r in records.iter().filter(|r| r.capping) {
        assert!(r.benign_actual <= Power::from_kilowatts(4.32) + Power::from_watts(1e-6));
    }

    // Meter conservation: metered power never exceeds the 8 kW capacity.
    for r in &records {
        assert!(r.metered_total <= Power::from_kilowatts(8.0) + Power::from_watts(1e-6));
    }
}

#[test]
fn energy_accounting_is_consistent() {
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(week_config(), policy, 2);
    let (report, records) = sim.run_recorded(7 * 1440);
    let m = &report.metrics;

    // Behind-the-meter energy equals the battery-fed attack energy minus
    // the charging energy the meter *did* see; at minimum, attack energy is
    // fully accounted for in the attacker's actual energy.
    assert!(m.attack_energy > Energy::ZERO);
    assert!(m.attacker_actual_energy > Energy::ZERO);
    assert!(m.attacker_metered_energy > Energy::ZERO);

    // Per-slot: actual - metered == battery attack flow during attacks.
    for r in records.iter().filter(|r| r.action == AttackAction::Attack) {
        let gap = r.actual_total - r.metered_total;
        assert!(
            (gap - r.attack_load).abs() < Power::from_watts(1.0),
            "meter gap {gap} must equal the battery flow {}",
            r.attack_load
        );
    }
}

#[test]
fn one_shot_requires_the_big_battery() {
    // With only the repeated-attack battery (0.2 kWh @ 1 kW), a one-shot
    // attempt cannot push past 45 °C; with the 3 kW pack it can.
    let mut small = week_config();
    small.attack_load = Power::from_kilowatts(1.0);
    let mut sim = Simulation::new(small, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1);
    assert_eq!(sim.run(3 * 1440).metrics.outage_events, 0);

    let mut big = week_config();
    big.battery = BatterySpec::one_shot();
    big.attack_load = Power::from_kilowatts(3.0);
    let mut sim = Simulation::new(big, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1);
    assert!(sim.run(3 * 1440).metrics.outage_events >= 1);
}

#[test]
fn foresighted_learns_and_beats_random() {
    let config = week_config();
    let mut foresighted =
        Simulation::new(config.clone(), ForesightedPolicy::paper_default(14.0, 1), 1);
    foresighted.warmup(90 * 1440);
    let f = foresighted.run(14 * 1440);

    let mut random = Simulation::new(
        config.clone(),
        RandomPolicy::new(0.08, config.attack_load, config.slot, 1),
        1,
    );
    let r = random.run(14 * 1440);

    assert!(
        f.metrics.emergency_slots > r.metrics.emergency_slots,
        "learning must beat random timing: {} vs {}",
        f.metrics.emergency_slots,
        r.metrics.emergency_slots
    );
    assert!(f.metrics.emergency_events > 0);
}

#[test]
fn residual_detector_catches_the_simulated_attack() {
    let config = week_config();
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(config.clone(), policy, 1);
    let (_, records) = sim.run_recorded(14 * 1440);

    let mut detector = ThermalResidualDetector::new(
        ZoneModel::new(
            config.cooling,
            config.zone_heat_capacity_j_per_k,
            config.zone_pulldown_w_per_k,
        ),
        TemperatureDelta::from_celsius(0.8),
        3,
    );
    let mut alarms_during_attacks = 0;
    for r in &records {
        let alarm = detector.observe(r.metered_total, r.inlet, config.slot);
        if alarm && r.attack_load > Power::ZERO {
            alarms_during_attacks += 1;
        }
    }
    assert!(
        alarms_during_attacks > 0,
        "the cross-check defense must fire during battery-fed attacks"
    );
}

#[test]
fn sla_monitor_distinguishes_attack_from_quiet_weeks() {
    let config = week_config();

    let run = |policy: MyopicPolicy| {
        let mut sim = Simulation::new(config.clone(), policy, 1);
        let (_, records) = sim.run_recorded(14 * 1440);
        let mut monitor = SlaMonitor::new(0.0005, 0.001, 12.0);
        let mut alarmed = false;
        for r in &records {
            alarmed |= monitor.observe(r.capping);
        }
        alarmed
    };

    assert!(!run(MyopicPolicy::new(Power::from_kilowatts(99.0))));
    assert!(run(MyopicPolicy::new(Power::from_kilowatts(7.4))));
}

#[test]
fn calorimetry_pinpoints_exactly_the_attack_servers() {
    let config = week_config();
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(config.clone(), policy, 1);
    let (_, records) = sim.run_recorded(7 * 1440);
    let r = records
        .iter()
        .find(|r| r.attack_load > Power::from_watts(900.0))
        .expect("full-load attack slot exists");

    let calorimeter = ServerCalorimeter::new(Power::from_watts(40.0));
    let benign_share = r.benign_actual / config.benign_server_count() as f64;
    let mut readings: Vec<_> = (0..config.benign_server_count())
        .map(|_| reading_for(benign_share, benign_share, r.inlet, 0.018))
        .collect();
    for _ in 0..config.attacker_servers {
        let actual = (config.attacker_capacity + r.attack_load) / config.attacker_servers as f64;
        let metered = config.attacker_capacity / config.attacker_servers as f64;
        readings.push(reading_for(actual, metered, r.inlet, 0.018));
    }
    let flagged = calorimeter.flag_servers(&readings);
    let expected: Vec<usize> = (config.benign_server_count()
        ..config.benign_server_count() + config.attacker_servers)
        .collect();
    assert_eq!(flagged, expected);
}

#[test]
fn cost_report_is_internally_consistent() {
    let config = week_config();
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(config.clone(), policy, 1);
    let report = sim.run(14 * 1440);
    let costs = CostModel::paper_default().yearly_report(
        &report.metrics,
        config.attacker_capacity,
        config.attacker_servers,
        report.metrics.attacker_metered_energy,
    );
    assert!(costs.attacker_subscription > 0.0);
    assert!(costs.attacker_servers > 0.0);
    assert!(costs.attacker_total() > costs.attacker_subscription);
    // With emergencies present, victims must be losing money.
    if report.metrics.emergency_events > 0 {
        assert!(costs.victim_performance > 0.0);
    }
}

#[test]
fn simulation_runs_a_full_year_quickly_enough() {
    // Year-long evaluation is the paper's methodology; keep it tractable.
    let config = ColoConfig::paper_default();
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(config, policy, 1);
    let start = std::time::Instant::now();
    let report = sim.run(365 * 1440);
    assert_eq!(report.metrics.slots, 365 * 1440);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(60),
        "a simulated year should take seconds, not minutes"
    );
    assert!(report.metrics.emergency_events > 0);
}

#[test]
fn outage_downtime_is_respected() {
    let mut config = week_config();
    config.battery = BatterySpec::one_shot();
    config.attack_load = Power::from_kilowatts(3.0);
    config.outage_downtime = Duration::from_minutes(30.0);
    let mut sim = Simulation::new(config, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1);
    let (report, records) = sim.run_recorded(3 * 1440);
    assert!(report.metrics.outage_events >= 1);
    let first_outage = records.iter().position(|r| r.outage).unwrap();
    let outage_run = records[first_outage..]
        .iter()
        .take_while(|r| r.outage)
        .count();
    assert_eq!(outage_run, 30, "downtime must last exactly 30 slots");
}

#[test]
fn one_shot_attacks_across_sites_interrupt_the_metro() {
    // Section III-C: one-shot attackers in several edge colocations each
    // fire at their local peak; the sites share a metro-wide diurnal
    // pattern, so the outages cluster into a wide-area interruption.
    let sites = 4u64;
    let mut config = ColoConfig::paper_default();
    config.battery = BatterySpec::one_shot();
    config.attack_load = Power::from_kilowatts(3.0);
    let sims = (0..sites)
        .map(|i| {
            let policy = OneShotPolicy::new(Power::from_kilowatts(7.6));
            Simulation::new(config.clone(), policy, 1u64.wrapping_add(1 + i * 1299721))
        })
        .collect();
    let run = run_sharded(sims, 3 * 1440);
    assert!(
        run.reports.iter().all(|r| r.metrics.outage_events > 0),
        "every site should eventually fall"
    );
    // Longest run of slots with fewer than half the sites up.
    let (mut longest, mut current) = (0u64, 0u64);
    for &down in &run.down_per_slot {
        current = if 2 * (sites - u64::from(down)) < sites {
            current + 1
        } else {
            0
        };
        longest = longest.max(current);
    }
    assert!(
        config.slot * longest as f64 >= Duration::from_minutes(10.0),
        "shared diurnal peaks must cluster the outages (longest {longest} slots)"
    );
}
