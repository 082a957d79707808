//! Property-based tests of the battery invariants.

use hbm_battery::{Battery, BatterySpec};
use hbm_units::{Duration, Energy, Power};
use proptest::prelude::*;

fn arbitrary_spec() -> impl Strategy<Value = BatterySpec> {
    (
        0.05..1.0f64, // capacity kWh
        0.05..0.5f64, // charge kW
        0.5..4.0f64,  // discharge kW
        0.5..1.0f64,  // charge eff
        0.5..1.0f64,  // discharge eff
    )
        .prop_map(|(cap, chg, dis, ec, ed)| BatterySpec {
            capacity: Energy::from_kilowatt_hours(cap),
            max_charge_rate: Power::from_kilowatts(chg),
            max_discharge_rate: Power::from_kilowatts(dis),
            charge_efficiency: ec,
            discharge_efficiency: ed,
        })
}

/// A sequence of charge (+) / discharge (−) power requests in kW.
fn request_sequence() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-3.0..3.0f64, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stored_energy_always_within_bounds(
        spec in arbitrary_spec(),
        start_frac in 0.0..1.0f64,
        requests in request_sequence(),
    ) {
        let mut battery = Battery::new(spec, spec.capacity * start_frac);
        let dt = Duration::from_minutes(1.0);
        for r in requests {
            if r >= 0.0 {
                battery.charge(Power::from_kilowatts(r), dt);
            } else {
                battery.discharge(Power::from_kilowatts(-r), dt);
            }
            prop_assert!(battery.stored() >= Energy::ZERO);
            prop_assert!(battery.stored() <= spec.capacity + Energy::from_kilowatt_hours(1e-12));
            let soc = battery.state_of_charge();
            prop_assert!((0.0..=1.0 + 1e-9).contains(&soc));
        }
    }

    #[test]
    fn delivered_power_never_exceeds_request_or_rate(
        spec in arbitrary_spec(),
        request in 0.0..5.0f64,
    ) {
        let mut battery = Battery::full(spec);
        let req = Power::from_kilowatts(request);
        let delivered = battery.discharge(req, Duration::from_minutes(1.0));
        prop_assert!(delivered <= req + Power::from_watts(1e-9));
        prop_assert!(delivered <= spec.max_discharge_rate + Power::from_watts(1e-9));
    }

    #[test]
    fn charging_never_draws_more_than_rate(
        spec in arbitrary_spec(),
        input in 0.0..5.0f64,
    ) {
        let mut battery = Battery::empty(spec);
        let drawn = battery.charge(Power::from_kilowatts(input), Duration::from_minutes(1.0));
        prop_assert!(drawn <= spec.max_charge_rate + Power::from_watts(1e-9));
        prop_assert!(drawn <= Power::from_kilowatts(input) + Power::from_watts(1e-9));
    }

    #[test]
    fn round_trip_never_creates_energy(
        spec in arbitrary_spec(),
        cycles in 1u32..20,
    ) {
        let mut battery = Battery::empty(spec);
        let dt = Duration::from_minutes(1.0);
        let mut drawn = Energy::ZERO;
        let mut delivered = Energy::ZERO;
        for _ in 0..cycles {
            for _ in 0..30 {
                drawn += battery.charge(spec.max_charge_rate, dt) * dt;
            }
            for _ in 0..30 {
                delivered += battery.discharge(spec.max_discharge_rate, dt) * dt;
            }
        }
        // delivered ≤ drawn · round-trip efficiency + ε (no free energy).
        let bound = drawn * (spec.charge_efficiency * spec.discharge_efficiency)
            + Energy::from_kilowatt_hours(1e-9);
        prop_assert!(
            delivered <= bound + battery.stored(),
            "delivered {delivered} vs drawn {drawn}"
        );
    }

    #[test]
    fn discharge_is_monotone_in_stored_energy(
        spec in arbitrary_spec(),
        lo_frac in 0.0..0.5f64,
        hi_extra in 0.0..0.5f64,
    ) {
        let dt = Duration::from_minutes(1.0);
        let hi_frac = lo_frac + hi_extra;
        let mut low = Battery::new(spec, spec.capacity * lo_frac);
        let mut high = Battery::new(spec, spec.capacity * hi_frac);
        let p_low = low.discharge(spec.max_discharge_rate, dt);
        let p_high = high.discharge(spec.max_discharge_rate, dt);
        prop_assert!(p_high >= p_low - Power::from_watts(1e-9));
    }
}
