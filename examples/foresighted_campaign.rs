//! A full Foresighted (batch Q-learning) campaign: warm up the attacker's
//! tables, run a measured quarter, and inspect both the damage and the
//! learnt policy structure (the paper's Fig. 10).
//!
//! ```sh
//! cargo run --release --example foresighted_campaign
//! ```

use hbm_core::{AttackAction, ColoConfig, CostModel, ForesightedPolicy, Policy, Simulation};

fn main() {
    let config = ColoConfig::paper_default();
    let policy = ForesightedPolicy::paper_default(14.0, 1);

    let mut sim = Simulation::new(config.clone(), policy, 1);

    // Offline initialization + online convergence (the paper reports
    // convergence within 1–4 weeks after its offline warm start).
    println!("warming up the Q tables (120 simulated days)…");
    sim.warmup(120 * 24 * 60);

    println!("measuring one quarter…");
    let report = sim.run(90 * 24 * 60);
    let m = &report.metrics;
    println!(
        "attack {:.2} h/day, {} emergencies ({:.3} % of time), latency x{:.2} during them",
        m.attack_hours_per_day(),
        m.emergency_events,
        100.0 * m.emergency_fraction(),
        m.mean_emergency_degradation()
    );

    // Annualized cost of the campaign (Section VI-C).
    let costs = CostModel::paper_default().yearly_report(
        m,
        config.attacker_capacity,
        config.attacker_servers,
        m.attacker_metered_energy,
    );
    println!(
        "attacker spends ${:.0}/yr; victims lose ≈${:.0}/yr in degraded performance",
        costs.attacker_total(),
        costs.victim_performance
    );

    // The learnt policy: attack only when battery AND load are high.
    let Policy::Foresighted(policy) = sim.policy() else {
        unreachable!("the simulation runs a Foresighted policy")
    };
    println!("\nlearnt policy (rows: battery high→low; columns: load low→high):");
    for (b, row) in policy.policy_matrix().iter().enumerate().rev() {
        let line: String = row
            .iter()
            .map(|a| match a {
                AttackAction::Attack => 'A',
                AttackAction::Charge => 'C',
                AttackAction::Standby => '.',
            })
            .collect();
        println!(
            "  battery {:>3.0} %  {line}",
            100.0 * policy.battery_bin_centers()[b]
        );
    }
}
