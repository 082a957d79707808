//! Property-based tests of the end-to-end simulator invariants.
//!
//! These run short horizons with randomized policies and seeds and assert
//! the physical/accounting invariants that must hold for *any* attacker
//! behaviour.

use hbm_core::{AttackAction, ColoConfig, MyopicPolicy, RandomPolicy, Simulation};
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
            if r.outage {
                continue;
            }
            // The one metering model: each side's draw is held to its
            // subscription, or to its emergency cap while the operator caps.
            let (benign_limit, attacker_limit) = if r.capping {
                (config.benign_emergency_cap(), config.attacker_emergency_cap())
            } else {
                (config.benign_capacity(), config.attacker_capacity)
            };
            prop_assert!(r.benign_actual <= benign_limit);
            let attacker_metered = r.metered_total - r.benign_actual;
            prop_assert!(attacker_metered <= attacker_limit + Power::from_watts(1e-6));
            // What the meter misses is exactly the battery's output while
            // attacking, nothing on standby, and never positive on charge
            // (only conversion losses of the metered charge become heat).
            match r.action {
                AttackAction::Attack => {
                    prop_assert!((gap - r.attack_load).abs() <= Power::from_watts(1e-6));
                }
                AttackAction::Standby => prop_assert_eq!(gap, Power::ZERO),
                AttackAction::Charge => prop_assert!(gap <= Power::ZERO),
            }
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

/// Bytes that random inputs draw from, so most of them get past the
/// opening brace into the field reader.
const JSONISH: &[u8] = b"{}[]\":,-+.eE0123456789 truefalsnul\\policyseedcount";

fn jsonish(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| JSONISH[i % JSONISH.len()] as char)
        .collect()
}

/// `valid` (ASCII) with the byte at `pos` (mod its length) replaced.
fn mutate(valid: &str, pos: usize, byte: u8) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    let i = pos % bytes.len();
    bytes[i] = byte;
    String::from_utf8(bytes).expect("ASCII input, ASCII byte")
}

/// `valid` (a writer's output, flat) with its `n`-th key (mod the key
/// count) written a second time, value and all, at the front.
fn with_duplicate(valid: &str, n: usize) -> String {
    let fields = hbm_telemetry::json::parse_flat_object(valid).unwrap();
    let key = format!("\"{}\":", fields[n % fields.len()].0);
    let field = &valid[valid.find(&key).unwrap()..];
    let end = if field[key.len()..].starts_with('[') {
        field.find(']').unwrap() + 1
    } else {
        field.find([',', '}']).unwrap()
    };
    format!("{{{},{}", &field[..end], &valid[1..])
}

/// One valid input per flat-JSON reader in this crate, each with the
/// index (in [`read_all`]'s answer) of the reader it is valid for:
/// scenario, batch and perturbation bodies, and checkpoints of a stateless
/// and of a learning policy.
fn valid_inputs() -> &'static [(String, usize)] {
    static INPUTS: std::sync::OnceLock<Vec<(String, usize)>> = std::sync::OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut scenario = hbm_core::Scenario::new("foresighted");
        scenario.days = 2;
        scenario.warmup_days = 0;
        scenario.seed = 5;
        let p = hbm_core::Perturbation {
            utilization: Some(0.6),
            attack_load_kw: Some(2.5),
            battery_kwh: Some(0.8),
            threshold_c: Some(31.5),
            cap_w: Some(110.0),
        };
        let body = p.apply(&scenario).to_flat_json();
        let batch = format!("{},\"count\":3}}", &body[..body.len() - 1]);
        let mut inputs = vec![(body, 0), (batch, 1), (p.to_flat_json(), 2)];
        for policy in ["myopic", "foresighted"] {
            scenario.policy = policy.into();
            let (mut sim, _) = scenario.build_sim().unwrap();
            sim.run(300);
            inputs.push((sim.snapshot_json(), 3));
        }
        inputs
    })
}

/// Runs every reader on `text` and reports which accepted it; none may
/// panic. A parsed checkpoint is also restored into a simulation of its
/// policy.
fn read_all(text: &str) -> [bool; 4] {
    let checkpoint = hbm_core::Snapshot::from_json(text);
    if let Ok(snap) = &checkpoint {
        let mut scenario = hbm_core::Scenario::new(snap.policy());
        scenario.days = 2;
        scenario.warmup_days = 0;
        if let Ok((mut sim, _)) = scenario.build_sim() {
            let _ = sim.restore(snap);
        }
    }
    [
        hbm_core::Scenario::from_flat_json(text).is_ok(),
        hbm_core::scenario::BatchScenario::from_flat_json(text).is_ok(),
        hbm_core::Perturbation::from_flat_json(text).is_ok(),
        checkpoint.is_ok(),
    ]
}

#[test]
fn valid_inputs_are_read() {
    for (text, reader) in valid_inputs() {
        assert!(read_all(text)[*reader], "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn readers_answer_random_bytes(
        picks in prop::collection::vec(0usize..64, 0..96),
        raw in prop::collection::vec(0u8..255, 0..48),
    ) {
        read_all(&jsonish(&picks));
        read_all(&format!("{{{}", jsonish(&picks)));
        read_all(&String::from_utf8_lossy(&raw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn readers_answer_single_byte_mutations(pos in 0usize..1_000_000, byte in 0u8..128) {
        for (valid, _) in valid_inputs() {
            read_all(&mutate(valid, pos, byte));
        }
    }

    #[test]
    fn readers_reject_every_duplicated_key(n in 0usize..1_000) {
        for (valid, _) in valid_inputs() {
            let dup = with_duplicate(valid, n);
            prop_assert_eq!(read_all(&dup), [false; 4], "{}", dup);
        }
    }
}
