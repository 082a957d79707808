//! Checkpoint schema stability and bit-exact restore.
//!
//! The contract under test: `Simulation::snapshot_json` at slot `t`,
//! restored into a simulation freshly rebuilt from the same [`Scenario`],
//! continues **bit-identically** to the uninterrupted run — slot records,
//! metrics, histogram, everything — including across mid-run
//! perturbations and repeated snapshot/restore cycles. The serve layer's
//! kill-and-restore test extends the same contract across a daemon
//! restart; this file proves the core mechanism.

use hbm_core::{ColoConfig, OneShotPolicy, Perturbation, Scenario, Simulation, Snapshot};
use hbm_units::Power;
use proptest::prelude::*;

fn short(policy: &str, seed: u64) -> Scenario {
    let mut s = Scenario::new(policy);
    s.days = 2;
    s.warmup_days = 0;
    s.seed = seed;
    s
}

/// Steps both simulations `slots` times asserting record-for-record
/// equality, then asserts the accumulated metrics match exactly.
fn assert_lockstep(reference: &mut Simulation, restored: &mut Simulation, slots: u64) {
    for k in 0..slots {
        let a = reference.step();
        let b = restored.step();
        assert_eq!(a, b, "slot {k} diverged after restore");
    }
    assert_eq!(reference.metrics(), restored.metrics());
}

#[test]
fn restore_continues_bit_identically_for_every_policy() {
    for policy in ["random", "myopic", "foresighted"] {
        let scenario = short(policy, 9);
        let (mut reference, _) = scenario.build_sim().unwrap();
        reference.run(500);
        let snapshot = reference.snapshot_json();

        let (mut restored, _) = scenario.build_sim().unwrap();
        restored.restore_from_json(&snapshot).unwrap();
        assert_lockstep(&mut reference, &mut restored, 1000);
    }
}

#[test]
fn one_shot_policy_round_trips_through_the_trigger() {
    // One-shot is not a scenario policy; rebuild it by hand the way an
    // embedding would. Snapshot *after* the trigger latch flips to prove
    // the latch travels with the checkpoint.
    let build = || {
        let mut config = ColoConfig::paper_default().with_trace_len(3 * 1440);
        config.battery = hbm_battery::BatterySpec::one_shot();
        config.attack_load = Power::from_kilowatts(3.0);
        let policy = OneShotPolicy::new(Power::from_kilowatts(7.6));
        Simulation::new(config, policy, 1)
    };
    let mut reference = build();
    reference.run(1440);
    let snapshot = reference.snapshot_json();
    let mut restored = build();
    restored.restore_from_json(&snapshot).unwrap();
    assert_lockstep(&mut reference, &mut restored, 1440);
}

#[test]
fn perturbed_experiment_restores_bit_identically() {
    // The experiment platform's perturb path: snapshot, rebuild from the
    // *perturbed* scenario, restore, continue. A later crash-restore
    // repeats rebuild+restore from the same effective scenario and must
    // land on the same trajectory.
    let base = short("myopic", 4);
    let (mut sim, _) = base.build_sim().unwrap();
    sim.run(700);

    let perturb = Perturbation {
        threshold_c: Some(30.5),
        attack_load_kw: Some(1.4),
        ..Perturbation::default()
    };
    let effective = perturb.apply(&base);
    let snap = sim.snapshot_json();
    let (mut perturbed, _) = effective.build_sim().unwrap();
    perturbed.restore_from_json(&snap).unwrap();
    perturbed.run(300);

    // Crash after 300 perturbed slots: rebuild from the effective scenario.
    let snap2 = perturbed.snapshot_json();
    let (mut recovered, _) = effective.build_sim().unwrap();
    recovered.restore_from_json(&snap2).unwrap();
    assert_lockstep(&mut perturbed, &mut recovered, 800);
}

#[test]
fn shrinking_the_battery_clamps_stored_energy_deterministically() {
    let base = short("myopic", 11);
    let (mut sim, _) = base.build_sim().unwrap();
    sim.run(200);
    let perturb = Perturbation {
        battery_kwh: Some(0.05),
        ..Perturbation::default()
    };
    let effective = perturb.apply(&base);
    let snap = sim.snapshot_json();
    let (mut a, _) = effective.build_sim().unwrap();
    a.restore_from_json(&snap).unwrap();
    assert!(a.battery_soc() <= 1.0 + 1e-12);
    let (mut b, _) = effective.build_sim().unwrap();
    b.restore_from_json(&snap).unwrap();
    assert_lockstep(&mut a, &mut b, 400);
}

#[test]
fn golden_checkpoint_fixture_stays_stable() {
    // Schema freeze: the exact checkpoint line for a pinned scenario. If
    // this test fails, the checkpoint layout changed — bump
    // `hbm_core::SNAPSHOT_SCHEMA` and regenerate the fixture (see the
    // fixture header comment for the command).
    let scenario = short("myopic", 7);
    let (mut sim, _) = scenario.build_sim().unwrap();
    sim.run(120);
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        let header = "# Golden hbm-checkpoint-v1 line: myopic, days=2, warmup_days=0, seed=7, after 120 slots.\n# Regenerate with: REGEN_FIXTURES=1 cargo test -p hbm-core --test checkpoint golden\n";
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/checkpoint_v1.json"
        );
        std::fs::write(path, format!("{header}{}\n", sim.snapshot_json())).unwrap();
    }
    let fixture = include_str!("fixtures/checkpoint_v1.json");
    let expected = fixture
        .lines()
        .find(|l| !l.starts_with('#') && !l.trim().is_empty())
        .expect("fixture must hold one checkpoint line");
    assert_eq!(
        sim.snapshot_json(),
        expected,
        "checkpoint schema drifted from the pinned v1 fixture"
    );

    // And the pinned line still restores and steps.
    let (mut restored, _) = scenario.build_sim().unwrap();
    restored.restore_from_json(expected).unwrap();
    let mut reference = sim;
    assert_lockstep(&mut reference, &mut restored, 240);
}

/// Replaces the value of `key` in a checkpoint line.
fn with_field(line: &str, key: &str, value: &str) -> String {
    let at = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
    let end = at + line[at..].find(',').unwrap();
    format!("{}{value}{}", &line[..at], &line[end..])
}

#[test]
fn restore_rejects_mismatches_loudly() {
    let myopic = short("myopic", 1);
    let random = short("random", 1);
    let (mut a, _) = myopic.build_sim().unwrap();
    a.run(10);
    let snap = a.snapshot_json();

    // Wrong policy.
    let (mut b, _) = random.build_sim().unwrap();
    let err = b.restore_from_json(&snap).unwrap_err();
    assert!(err.contains("policy"), "got: {err}");

    // Wrong schema tag.
    let bad = snap.replace("hbm-checkpoint-v1", "hbm-checkpoint-v0");
    let (mut c, _) = myopic.build_sim().unwrap();
    assert!(c.restore_from_json(&bad).unwrap_err().contains("schema"));

    // Malformed JSON and missing fields.
    let (mut d, _) = myopic.build_sim().unwrap();
    assert!(d.restore_from_json("{not json").is_err());
    assert!(d
        .restore_from_json("{\"schema\":\"hbm-checkpoint-v1\",\"policy\":\"myopic\"}")
        .unwrap_err()
        .contains("missing"));

    // An inlet that parses to an infinity fails closed instead of panicking.
    for inlet in ["1e999", "-1e999"] {
        let bad = with_field(&snap, "inlet_c", inlet);
        let (mut e, _) = myopic.build_sim().unwrap();
        let err = e.restore_from_json(&bad).unwrap_err();
        assert!(err.contains("inlet_c"), "{inlet}: {err}");
    }

    // A duplicated key is refused, whichever copy a reader would have kept.
    let dup = snap.replacen("\"slot_index\":", "\"slot_index\":0,\"slot_index\":", 1);
    let (mut g, _) = myopic.build_sim().unwrap();
    let err = g.restore_from_json(&dup).unwrap_err();
    assert!(err.contains("duplicate field \"slot_index\""), "{err}");
}

/// A checkpoint must hold a state some run reaches: at every slot boundary
/// `prev_capping` equals the protocol's capping state and `outage_secs` is
/// set exactly while the protocol is in outage. Lines taken mid-run in each
/// protocol state parse, and each with one rule broken is refused.
#[test]
fn restore_refuses_states_no_run_reaches() {
    let mut config = ColoConfig::paper_default().with_trace_len(3 * 1440);
    config.battery = hbm_battery::BatterySpec::one_shot();
    config.attack_load = Power::from_kilowatts(3.0);
    let mut sim = Simulation::new(config, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1);
    sim.run(120);
    let normal = sim.snapshot_json();
    let mut line_in = |protocol: &str| loop {
        assert!(sim.metrics().slots < 3 * 1440, "never reached {protocol}");
        sim.step();
        let line = sim.snapshot_json();
        if line.contains(&format!("\"protocol\":\"{protocol}\"")) {
            break line;
        }
    };
    let emergency = line_in("emergency");
    let outage = line_in("outage");
    for line in [&normal, &emergency, &outage] {
        Snapshot::from_json(line).unwrap();
    }

    let broken = [
        (with_field(&normal, "prev_capping", "true"), "prev_capping"),
        (
            with_field(&emergency, "prev_capping", "false"),
            "prev_capping",
        ),
        (with_field(&normal, "outage_secs", "600.0"), "outage_secs"),
        (with_field(&outage, "outage_secs", "null"), "outage_secs"),
    ];
    for (line, field) in broken {
        let err = Snapshot::from_json(&line).unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
    }
}

#[test]
fn foresighted_q_tables_survive_the_round_trip() {
    // The learner state is the bulkiest part of the checkpoint; check the
    // tables transfer exactly (not merely that stepping agrees).
    let scenario = short("foresighted", 3);
    let (mut sim, _) = scenario.build_sim().unwrap();
    sim.run(2000);
    let snap = sim.snapshot_json();
    let (mut restored, _) = scenario.build_sim().unwrap();
    restored.restore_from_json(&snap).unwrap();
    assert_eq!(sim.snapshot_json(), restored.snapshot_json());
}

#[test]
fn foresighted_checkpoint_line_is_pinned() {
    // The learner's tables in their checkpoint order: Q and the visit
    // counts row-major (state × action), V by state. A round trip alone
    // cannot catch an export/import pair that permutes them the same way,
    // so pin the bytes of a line whose tables are all non-zero.
    let scenario = short("foresighted", 3);
    let (mut sim, _) = scenario.build_sim().unwrap();
    sim.run(2800);
    let line = sim.snapshot_json();
    for key in ["p_q_values", "p_q_visits", "p_post_values"] {
        let at = line.find(&format!("\"{key}\":[")).unwrap() + key.len() + 4;
        let table = &line[at..at + line[at..].find(']').unwrap()];
        assert!(
            table.split(',').any(|x| x.parse::<f64>().unwrap() != 0.0),
            "{key} is all zero"
        );
    }
    assert_eq!(
        hbm_telemetry::fnv1a64(line.as_bytes()),
        0xb3af_3a12_7713_fd9a,
        "foresighted checkpoint line drifted"
    );
}

#[test]
fn fork_continues_bit_identically_and_independently() {
    for policy in ["random", "myopic", "foresighted"] {
        let scenario = short(policy, 5);
        let (mut sim, _) = scenario.build_sim().unwrap();
        sim.run(400);
        let mut fork = sim.fork();
        assert_lockstep(&mut sim, &mut fork, 800);
        // Independence: advancing the fork must not disturb the original.
        let before = sim.snapshot_json();
        fork.run(100);
        assert_eq!(sim.snapshot_json(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Binary `snapshot()`/`restore()` is bit-identical to the
    /// `snapshot_json()`/`restore_from_json()` round trip: the snapshot
    /// serializes to the exact checkpoint line, the line parses back to
    /// the exact snapshot, and the two restore paths land on the same
    /// state and step identically — across policies, seeds, split points,
    /// and mid-run perturbations.
    #[test]
    fn binary_snapshot_matches_json_round_trip(
        policy_idx in 0usize..3,
        seed in 0u64..40,
        split in 50u64..1200,
        k in 50u64..400,
        perturb_kind in 0usize..4,
        threshold in 29.0..34.0f64,
        load_kw in 0.8..1.6f64,
    ) {
        let policy = ["random", "myopic", "foresighted"][policy_idx];
        let base = short(policy, seed);
        let (mut reference, _) = base.build_sim().unwrap();
        reference.run(split);

        let snap = reference.snapshot();
        let line = reference.snapshot_json();
        prop_assert_eq!(snap.to_json(), line.clone(), "binary→JSON drifted");
        let reparsed = Snapshot::from_json(&line).unwrap();
        prop_assert_eq!(&reparsed, &snap, "JSON→binary drifted");

        let perturbation = Perturbation {
            threshold_c: (perturb_kind & 1 != 0).then_some(threshold),
            attack_load_kw: (perturb_kind & 2 != 0).then_some(load_kw),
            ..Perturbation::default()
        };
        let effective = perturbation.apply(&base);

        let (mut via_binary, _) = effective.build_sim().unwrap();
        via_binary.restore(&snap).unwrap();
        let (mut via_json, _) = effective.build_sim().unwrap();
        via_json.restore_from_json(&line).unwrap();
        prop_assert_eq!(via_binary.snapshot_json(), via_json.snapshot_json());

        for slot in 0..k {
            let a = via_binary.step();
            let b = via_json.step();
            prop_assert_eq!(a, b, "slot {} diverged between restore paths", slot);
        }
        prop_assert_eq!(via_binary.metrics(), via_json.metrics());
        prop_assert_eq!(via_binary.snapshot_json(), via_json.snapshot_json());
    }

    /// serialize → restore → step K ≡ uninterrupted, over random policies,
    /// seeds, split points, and optional mid-run perturbations.
    #[test]
    fn snapshot_restore_equals_uninterrupted(
        policy_idx in 0usize..3,
        seed in 0u64..40,
        split in 50u64..1200,
        k in 50u64..600,
        perturb_kind in 0usize..4,
        threshold in 29.0..34.0f64,
        load_kw in 0.8..1.6f64,
    ) {
        let perturb_threshold = (perturb_kind & 1 != 0).then_some(threshold);
        let perturb_load = (perturb_kind & 2 != 0).then_some(load_kw);
        let policy = ["random", "myopic", "foresighted"][policy_idx];
        let base = short(policy, seed);
        let (mut reference, _) = base.build_sim().unwrap();
        reference.run(split);

        let perturbation = Perturbation {
            threshold_c: perturb_threshold,
            attack_load_kw: perturb_load,
            ..Perturbation::default()
        };
        let effective = perturbation.apply(&base);
        let snap = reference.snapshot_json();

        // Perturb path (also exercised when the perturbation is empty —
        // then effective == base and this is a plain restore).
        let (mut live, _) = effective.build_sim().unwrap();
        live.restore_from_json(&snap).unwrap();

        // Crash path: a second independent rebuild+restore.
        let (mut recovered, _) = effective.build_sim().unwrap();
        recovered.restore_from_json(&snap).unwrap();

        for slot in 0..k {
            let a = live.step();
            let b = recovered.step();
            prop_assert_eq!(a, b, "slot {} diverged between restores", slot);
        }
        prop_assert_eq!(live.metrics(), recovered.metrics());
        prop_assert_eq!(live.snapshot_json(), recovered.snapshot_json());
    }
}
