//! Quickstart: simulate one week of a Myopic thermal-attack campaign
//! against the paper's default 8 kW edge colocation and print what the
//! operator would (and would not) see.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hbm_core::{ColoConfig, MyopicPolicy, Simulation};
use hbm_units::Power;

fn main() {
    // Table I defaults: 8 kW capacity, 4 tenants, 40 servers, a 0.8 kW
    // attacker with a 0.2 kWh built-in battery injecting 1 kW per attack.
    let config = ColoConfig::paper_default();

    // The greedy baseline: attack whenever the side-channel estimate of the
    // total load reaches 7.4 kW and the battery has energy.
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));

    let mut sim = Simulation::new(config, policy, 42);
    let (report, records) = sim.run_recorded(7 * 24 * 60); // one week

    let m = &report.metrics;
    println!("== one week of `{}` attacks ==", report.policy);
    println!(
        "attack time          {:>8.2} h/day",
        m.attack_hours_per_day()
    );
    println!(
        "thermal emergencies  {:>8} events, {:.3} % of the week",
        m.emergency_events,
        100.0 * m.emergency_fraction()
    );
    println!(
        "tenant impact        {:>8.2}x 95th-percentile latency during emergencies",
        m.mean_emergency_degradation()
    );
    println!(
        "behind the meter     {:>8.2} kWh of heat the operator never metered",
        m.behind_the_meter_energy().as_kilowatt_hours()
    );

    // The signature slot: actual heat above metered power.
    if let Some(r) = records.iter().find(|r| r.attack_load > Power::ZERO) {
        println!(
            "\nexample attack slot (minute {}): metered {:.2} kW, actual {:.2} kW, inlet {:.1} °C",
            r.slot,
            r.metered_total.as_kilowatts(),
            r.actual_total.as_kilowatts(),
            r.inlet.as_celsius()
        );
    }
}
