//! One-shot attack walk-through (the paper's Fig. 8 scenario): a 3 kW
//! battery-backed load launched at a high-load moment drives the server
//! inlet temperature past the 45 °C shutdown limit and takes the whole
//! colocation down — even though the attacker's *metered* draw never
//! exceeds its subscription.
//!
//! ```sh
//! cargo run --release --example one_shot_outage
//! ```

use hbm_battery::BatterySpec;
use hbm_core::{ColoConfig, OneShotPolicy, Simulation};
use hbm_units::Power;

fn main() {
    let mut config = ColoConfig::paper_default();
    // One-shot hardware: 950 W peak per server (multi-GPU), a bigger pack.
    config.battery = BatterySpec::one_shot();
    config.attack_load = Power::from_kilowatts(3.0);

    let policy = OneShotPolicy::new(Power::from_kilowatts(7.6));
    let mut sim = Simulation::new(config, policy, 7);
    let (report, records) = sim.run_recorded(3 * 24 * 60);

    let trigger = records
        .iter()
        .position(|r| r.attack_load > Power::ZERO)
        .expect("the attack should launch within three days");

    println!("minute  metered  actual  inlet    state");
    for (i, r) in records[trigger.saturating_sub(3)..]
        .iter()
        .take(14)
        .enumerate()
    {
        let state = if r.outage {
            "OUTAGE"
        } else if r.capping {
            "capping"
        } else if r.attack_load > Power::ZERO {
            "attacking"
        } else {
            ""
        };
        println!(
            "{:>5}   {:5.2}kW  {:5.2}kW  {:5.1}°C  {state}",
            i,
            r.metered_total.as_kilowatts(),
            r.actual_total.as_kilowatts(),
            r.inlet.as_celsius()
        );
    }

    assert!(report.metrics.outage_events >= 1);
    println!(
        "\nsystem outages: {}  (downtime {:.0} minutes each)",
        report.metrics.outage_events,
        report.metrics.outage_slots as f64 / report.metrics.outage_events as f64
    );
    println!("the metered load never exceeded the attacker's 0.8 kW subscription.");
}
