//! Property-based tests of the power-infrastructure substrate.

use hbm_power::{EmergencyProtocol, ProtocolState, ServerSpec};
use hbm_units::{Duration, Temperature};
use proptest::prelude::*;

fn temp_sequence() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(26.0..46.0f64, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn server_power_is_between_idle_and_peak(u in 0.0..=1.0f64) {
        let s = ServerSpec::paper_default();
        let p = s.power_at(u);
        prop_assert!(p >= s.idle && p <= s.peak);
        // Inverse is consistent.
        prop_assert!((s.utilization_for(p) - u).abs() < 1e-9);
    }

    #[test]
    fn protocol_never_caps_without_prior_dwell(temps in temp_sequence()) {
        let mut p = EmergencyProtocol::paper_default();
        let minute = Duration::from_minutes(1.0);
        let mut over_count = 0u32;
        for &t in &temps {
            let temp = Temperature::from_celsius(t);
            let before = p.state();
            let after = p.step(temp, minute);
            // Newly-declared emergencies require 2 consecutive over-threshold
            // minutes (this one included).
            if after.is_capping() && !before.is_capping() {
                prop_assert!(
                    over_count + 1 >= 2,
                    "emergency declared without dwell at {t} °C"
                );
            }
            if temp > p.threshold {
                over_count += 1;
            } else {
                over_count = 0;
            }
            if after.is_outage() {
                break;
            }
        }
    }

    #[test]
    fn protocol_outage_is_absorbing(temps in temp_sequence()) {
        let mut p = EmergencyProtocol::paper_default();
        let minute = Duration::from_minutes(1.0);
        let mut seen_outage = false;
        for &t in &temps {
            let state = p.step(Temperature::from_celsius(t), minute);
            if seen_outage {
                prop_assert!(state.is_outage(), "outage must persist until reset");
            }
            seen_outage |= state.is_outage();
        }
    }

    #[test]
    fn protocol_capping_episodes_are_bounded(temps in temp_sequence()) {
        let mut p = EmergencyProtocol::paper_default();
        let minute = Duration::from_minutes(1.0);
        let mut consecutive_capping = 0u32;
        for &t in &temps {
            let state = p.step(Temperature::from_celsius(t), minute);
            if state.is_capping() {
                consecutive_capping += 1;
                // One episode caps for 5 minutes; persistent heat can chain
                // episodes only through a fresh 2-minute dwell, so a single
                // uninterrupted capping stretch is at most 5 slots.
                prop_assert!(consecutive_capping <= 5);
            } else {
                consecutive_capping = 0;
            }
            if state.is_outage() {
                break;
            }
        }
    }

    #[test]
    fn cool_input_always_returns_to_normal(initial in 33.0..40.0f64) {
        let mut p = EmergencyProtocol::paper_default();
        let minute = Duration::from_minutes(1.0);
        // Heat up into an emergency.
        for _ in 0..3 {
            p.step(Temperature::from_celsius(initial), minute);
        }
        // Cool for 10 minutes: must end Normal (never stuck capping).
        let mut last = ProtocolState::Normal;
        for _ in 0..10 {
            last = p.step(Temperature::from_celsius(27.0), minute);
        }
        prop_assert_eq!(last, ProtocolState::Normal);
    }
}
