//! Property-based tests of the end-to-end simulator invariants.
//!
//! These run short horizons with randomized policies and seeds and assert
//! the physical/accounting invariants that must hold for *any* attacker
//! behaviour.

use hbm_core::{ColoConfig, MyopicPolicy, RandomPolicy, Simulation};
use hbm_units::{Power, Temperature};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulator_invariants_hold_for_any_myopic_threshold(
        threshold in 6.0..9.0f64,
        seed in 0u64..50,
    ) {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        let policy = MyopicPolicy::new(Power::from_kilowatts(threshold));
        let mut sim = Simulation::new(config.clone(), policy, seed);
        let (report, records) = sim.run_recorded(2 * 1440);

        for r in &records {
            // Metered power respects the PDU capacity.
            prop_assert!(r.metered_total <= config.capacity + Power::from_watts(1e-6));
            // Battery state of charge stays physical.
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.battery_soc));
            // Temperatures stay physical.
            prop_assert!(r.inlet.is_finite());
            prop_assert!(r.inlet >= config.cooling.supply);
            // Behind-the-meter gap only ever comes from the battery.
            let gap = r.actual_total - r.metered_total;
            prop_assert!(gap <= config.attack_load + Power::from_watts(1.0));
        }
        // Metrics are internally consistent.
        let m = &report.metrics;
        prop_assert!(m.emergency_slots <= m.slots);
        prop_assert!(m.attack_slots <= m.slots);
        prop_assert_eq!(m.slots, 2 * 1440);
    }

    #[test]
    fn simulator_invariants_hold_for_any_random_probability(
        p in 0.0..=1.0f64,
        seed in 0u64..50,
    ) {
        let config = ColoConfig::paper_default().with_trace_len(1440);
        let policy = RandomPolicy::new(p, config.attack_load, config.slot, seed);
        let mut sim = Simulation::new(config.clone(), policy, seed);
        let (report, records) = sim.run_recorded(1440);
        // No random schedule of 1 kW attacks may cause an outage.
        prop_assert_eq!(report.metrics.outage_events, 0);
        for r in &records {
            prop_assert!(r.inlet < Temperature::from_celsius(45.0));
        }
        // Attack accounting matches the records.
        let recorded_attacks =
            records.iter().filter(|r| r.attack_load > Power::ZERO).count() as u64;
        prop_assert_eq!(report.metrics.attack_slots, recorded_attacks);
    }

    #[test]
    fn determinism_across_reconstruction(seed in 0u64..30) {
        let config = ColoConfig::paper_default().with_trace_len(1440);
        let run = || {
            let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
            let mut sim = Simulation::new(config.clone(), policy, seed);
            sim.run(1440).metrics
        };
        prop_assert_eq!(run(), run());
    }
}
