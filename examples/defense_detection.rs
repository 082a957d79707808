//! The defender's view: run a thermal-attack campaign and show that the
//! Section VII defenses catch it — the power/temperature residual detector
//! flags attack runs within minutes, and per-server calorimetry pinpoints
//! the attacker's servers.
//!
//! ```sh
//! cargo run --release --example defense_detection
//! ```

use hbm_core::{ColoConfig, MyopicPolicy, Simulation};
use hbm_defense::{reading_for, ServerCalorimeter, ThermalResidualDetector};
use hbm_thermal::ZoneModel;
use hbm_units::{Power, TemperatureDelta};

fn main() {
    let config = ColoConfig::paper_default();
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(config.clone(), policy, 3);
    let (_, records) = sim.run_recorded(14 * 24 * 60);

    // The operator's digital twin: same thermal model, fed METERED power.
    let mut detector = ThermalResidualDetector::new(
        ZoneModel::new(
            config.cooling,
            config.zone_heat_capacity_j_per_k,
            config.zone_pulldown_w_per_k,
        ),
        TemperatureDelta::from_celsius(0.8),
        3,
    );

    // Count only sustained (≥3-minute) runs: one-minute battery dribbles
    // can neither outlast the emergency dwell nor the detector's
    // consecutive-slot requirement — they are noise on both sides.
    let mut attack_runs = 0;
    let mut flagged = 0;
    let mut i = 0;
    while i < records.len() {
        let r = &records[i];
        if r.attack_load == Power::ZERO {
            detector.observe(r.metered_total, r.inlet, config.slot);
            i += 1;
            continue;
        }
        let len = records[i..]
            .iter()
            .take_while(|r| r.attack_load > Power::ZERO)
            .count();
        let mut caught = false;
        for r in &records[i..i + len] {
            caught |= detector.observe(r.metered_total, r.inlet, config.slot);
        }
        if len >= 3 {
            attack_runs += 1;
            if caught {
                flagged += 1;
            }
        }
        i += len;
    }
    println!("residual detector: flagged {flagged}/{attack_runs} sustained (≥3 min) attack runs over two weeks");

    // Pinpointing: during an attack, the four attack servers each emit
    // 450 W of heat against 200 W of metered power.
    let calorimeter = ServerCalorimeter::new(Power::from_watts(40.0));
    let r = records
        .iter()
        .find(|r| r.attack_load > Power::from_watts(900.0))
        .expect("campaign contains full-load attacks");
    let benign_share = r.benign_actual / config.benign_server_count() as f64;
    let mut readings: Vec<_> = (0..config.benign_server_count())
        .map(|_| reading_for(benign_share, benign_share, r.inlet, 0.018))
        .collect();
    for _ in 0..config.attacker_servers {
        let actual = (config.attacker_capacity + r.attack_load) / config.attacker_servers as f64;
        let metered = config.attacker_capacity / config.attacker_servers as f64;
        readings.push(reading_for(actual, metered, r.inlet, 0.018));
    }
    let suspicious = calorimeter.flag_servers(&readings);
    println!("calorimetry: servers {suspicious:?} emit more heat than their meters account for");
    assert_eq!(suspicious.len(), config.attacker_servers);
    println!("→ with outlet airflow metering, the attacker is identified, not just detected.");
}
