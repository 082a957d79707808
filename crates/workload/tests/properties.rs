//! Property-based tests of trace generation and the latency model.

use hbm_units::{Duration, Power};
use hbm_workload::{
    generate, generate_heads, latency::LatencyModel, PowerTrace, TraceConfig, TraceShape,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn any_shape() -> impl Strategy<Value = TraceShape> {
    prop_oneof![Just(TraceShape::FacebookBaidu), Just(TraceShape::Google)]
}

/// Reference oracle for [`generate`]: the straightforward per-slot loop
/// (diurnal profile evaluated at every slot, raw samples rescaled by
/// [`PowerTrace::rescale`]), with the shape parameters restated here so a
/// change to them fails the equivalence test too.
fn reference_generate(config: &TraceConfig) -> PowerTrace {
    struct Shape {
        base: f64,
        amplitude: f64,
        weekend_factor: f64,
        ar_coeff: f64,
        ar_sigma: f64,
        burst_rate_per_slot: f64,
        burst_height: f64,
        burst_decay: f64,
        harmonics: &'static [(f64, f64, f64)],
        plateau_gain: f64,
        salt: u64,
    }
    let shape = match config.shape {
        TraceShape::FacebookBaidu => Shape {
            base: 100.0,
            amplitude: 55.0,
            weekend_factor: 0.93,
            ar_coeff: 0.97,
            ar_sigma: 0.7,
            burst_rate_per_slot: 0.0006,
            burst_height: 4.0,
            burst_decay: 0.93,
            harmonics: &[(1.0, 1.0, -1.83), (2.0, 0.25, 0.4)],
            plateau_gain: 2.2,
            salt: 0x6662,
        },
        TraceShape::Google => Shape {
            base: 120.0,
            amplitude: 22.0,
            weekend_factor: 0.97,
            ar_coeff: 0.90,
            ar_sigma: 3.2,
            burst_rate_per_slot: 0.0035,
            burst_height: 22.0,
            burst_decay: 0.965,
            harmonics: &[(1.0, 1.0, 0.2), (3.0, 0.35, 1.3)],
            plateau_gain: 0.8,
            salt: 0x676f6f,
        },
    };
    let diurnal = |phase: f64| {
        let total_weight: f64 = shape.harmonics.iter().map(|h| h.1).sum();
        let raw = shape
            .harmonics
            .iter()
            .map(|&(harm, w, ph)| w * (std::f64::consts::TAU * harm * phase + ph).sin())
            .sum::<f64>()
            / total_weight;
        (shape.plateau_gain * raw).tanh() / shape.plateau_gain.tanh()
    };

    let mut rng = StdRng::seed_from_u64(config.seed ^ shape.salt);
    let slot_hours = config.slot.as_hours();
    let mut raw = Vec::with_capacity(config.len);
    let (mut ar, mut burst) = (0.0_f64, 0.0_f64);
    for k in 0..config.len {
        let hours = k as f64 * slot_hours;
        let day_phase = (hours / 24.0).fract();
        let weekday = ((hours / 24.0).floor() as u64) % 7;
        let weekly = if weekday >= 5 {
            shape.weekend_factor
        } else {
            1.0
        };
        ar = shape.ar_coeff * ar + shape.ar_sigma * rng.random::<f64>().mul_add(2.0, -1.0);
        if rng.random::<f64>() < shape.burst_rate_per_slot * slot_hours * 60.0 {
            burst += shape.burst_height * (0.5 + rng.random::<f64>());
        }
        burst *= shape.burst_decay;
        let v = (shape.base + shape.amplitude * diurnal(day_phase)) * weekly + ar + burst;
        raw.push(Power::from_watts(v.max(0.0)));
    }
    PowerTrace::new(config.slot, raw).rescale(config.mean, config.peak)
}

/// Fails at the first slot where `got` and `want` differ in length or in
/// bits.
fn same_bits(got: &[Power], want: &[Power], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            a.as_watts().to_bits(),
            b.as_watts().to_bits(),
            "{} slot {} differs: {} vs {}",
            what,
            k,
            a,
            b
        );
    }
    Ok(())
}

/// 64-bit FNV-1a over the little-endian bits of every sample.
fn fnv1a_samples(trace: &PowerTrace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for p in trace {
        for byte in p.as_watts().to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Pins the exact bits of the two paper-year traces every experiment is
/// driven by, so any drift in trace synthesis fails here first.
#[test]
fn paper_year_traces_are_pinned() {
    let default = generate(&TraceConfig::paper_default_year(1));
    let alternate = generate(&TraceConfig::paper_alternate_year(1));
    assert_eq!(default.len(), 365 * 24 * 60);
    assert_eq!(
        fnv1a_samples(&default),
        DEFAULT_YEAR_DIGEST,
        "default year drifted"
    );
    assert_eq!(
        fnv1a_samples(&alternate),
        ALTERNATE_YEAR_DIGEST,
        "alternate year drifted"
    );
}

const DEFAULT_YEAR_DIGEST: u64 = 0xdcb9_5a40_10e0_d822;
const ALTERNATE_YEAR_DIGEST: u64 = 0xefd2_0b88_061f_d517;

/// A 17-lane same-shape group (two full 8-lane chunks and a lone tail)
/// gives, lane for lane and bit for bit, what 17 one-config calls give:
/// the kernel at width 8 against itself at width 1.
#[test]
fn lockstep_group_matches_lone_lanes() {
    for shape in TraceShape::ALL {
        let configs: Vec<TraceConfig> = (0..17)
            .map(|i| TraceConfig {
                shape,
                seed: 1000 + i,
                slot: Duration::from_minutes(1.0),
                len: 3 * 1440 + 17,
                mean: Power::from_kilowatts(4.0 + 0.1 * i as f64),
                peak: Power::from_kilowatts(7.2),
            })
            .collect();
        let group = generate_heads(&configs, 2000);
        for (i, (config, head)) in configs.iter().zip(&group).enumerate() {
            let alone = generate_heads(std::slice::from_ref(config), 2000);
            let bits =
                |t: &PowerTrace| t.iter().map(|p| p.as_watts().to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(head), bits(&alone[0]), "{shape} lane {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `generate_heads` matches the reference loop lane for lane over each
    /// head (the first `min(keep, len)` samples), and `generate`, its
    /// one-lane call that keeps every sample, matches it in full. Lanes
    /// draw their own seeds, means and peaks. `mix` 0 gives every lane
    /// `shape`; 1 gives each its own shape; 2 also halves the odd lanes'
    /// length, so the lanes fall into several lockstep groups. Up to 20
    /// lanes span two full 8-lane chunks of the kernel plus a tail. 1 s slots
    /// put a day's positions past the diurnal memo's 2^15-entry cap (so the
    /// "evaluate directly" path runs), 7 s slots shift every day's phases
    /// against the stored ones, and 2-day slots start a new day every slot.
    #[test]
    fn generate_matches_reference_bit_for_bit(
        lanes in prop::collection::vec((any_shape(), 0u64..u64::MAX, 3.0..6.5f64, 0.2..2.0f64), 1..21),
        shape in any_shape(),
        mix in 0u8..3,
        len in prop_oneof![1usize..100, 100usize..50_000],
        slot_s in prop_oneof![Just(1.0), Just(7.0), Just(60.0), Just(300.0), Just(172_800.0)],
        keep_pick in 0usize..usize::MAX,
    ) {
        let keep = 1 + keep_pick % (len + 5);
        let configs: Vec<TraceConfig> = lanes
            .iter()
            .enumerate()
            .map(|(i, &(own_shape, seed, mean_kw, headroom_kw))| TraceConfig {
                shape: if mix == 0 { shape } else { own_shape },
                seed,
                slot: Duration::from_seconds(slot_s),
                len: if mix == 2 && i % 2 == 1 { len / 2 + 1 } else { len },
                mean: Power::from_kilowatts(mean_kw),
                peak: Power::from_kilowatts(mean_kw + headroom_kw),
            })
            .collect();
        let heads = generate_heads(&configs, keep);
        prop_assert_eq!(heads.len(), configs.len());
        for (i, (config, head)) in configs.iter().zip(&heads).enumerate() {
            let reference = reference_generate(config);
            let kept = keep.min(config.len);
            same_bits(head.samples(), &reference.samples()[..kept], &format!("lane {i}"))?;
            if i == 0 {
                same_bits(generate(config).samples(), reference.samples(), "generate")?;
            }
        }
    }

    #[test]
    fn generated_traces_hit_targets(
        shape in any_shape(),
        seed in 0u64..1000,
        mean_kw in 3.0..6.5f64,
    ) {
        let config = TraceConfig {
            shape,
            seed,
            slot: Duration::from_minutes(1.0),
            len: 3 * 1440,
            mean: Power::from_kilowatts(mean_kw),
            peak: Power::from_kilowatts(7.2),
        };
        let t = generate(&config);
        prop_assert_eq!(t.len(), 3 * 1440);
        prop_assert!((t.mean().as_kilowatts() - mean_kw).abs() < 0.25);
        prop_assert!((t.peak().as_kilowatts() - 7.2).abs() < 0.1);
        prop_assert!(t.iter().all(|&p| p >= Power::ZERO));
    }

    #[test]
    fn generation_is_deterministic(shape in any_shape(), seed in 0u64..1000) {
        let config = TraceConfig {
            shape,
            seed,
            slot: Duration::from_minutes(1.0),
            len: 500,
            mean: Power::from_kilowatts(5.0),
            peak: Power::from_kilowatts(7.0),
        };
        prop_assert_eq!(generate(&config), generate(&config));
    }

    #[test]
    fn rescale_preserves_ordering(
        samples in prop::collection::vec(0.5..8.0f64, 2..200),
        mean_kw in 2.0..5.0f64,
    ) {
        let trace = PowerTrace::new(
            Duration::from_minutes(1.0),
            samples.iter().map(|&k| Power::from_kilowatts(k)).collect(),
        );
        let scaled = trace.rescale(Power::from_kilowatts(mean_kw), Power::from_kilowatts(7.0));
        // Weak monotonicity: the affine map preserves ordering except where
        // the zero-clamp flattens values, so ≥ must survive as ≥.
        for i in 1..samples.len() {
            if trace.get(i) >= trace.get(i - 1) {
                prop_assert!(
                    scaled.get(i) >= scaled.get(i - 1),
                    "rescale must weakly preserve ordering"
                );
            }
        }
    }

    #[test]
    fn fraction_at_or_above_is_monotone(
        samples in prop::collection::vec(0.0..8.0f64, 1..100),
        t1 in 0.0..8.0f64,
        dt in 0.0..4.0f64,
    ) {
        let trace = PowerTrace::new(
            Duration::from_minutes(1.0),
            samples.iter().map(|&k| Power::from_kilowatts(k)).collect(),
        );
        let f1 = trace.fraction_at_or_above(Power::from_kilowatts(t1));
        let f2 = trace.fraction_at_or_above(Power::from_kilowatts(t1 + dt));
        prop_assert!(f2 <= f1);
        prop_assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn latency_monotone_in_power_and_load(
        p1 in 0.0..1.0f64,
        dp in 0.0..0.5f64,
        load in 0.05..0.6f64,
        dload in 0.0..0.3f64,
    ) {
        for model in [LatencyModel::web_service(), LatencyModel::web_search()] {
            let hi_power = (p1 + dp).min(1.0);
            prop_assert!(
                model.t95_millis(hi_power, load) <= model.t95_millis(p1, load) + 1e-9,
                "more power must not hurt latency"
            );
            prop_assert!(
                model.t95_millis(p1, load + dload) >= model.t95_millis(p1, load) - 1e-9,
                "more load must not help latency"
            );
        }
    }

    #[test]
    fn latency_is_bounded(p in 0.0..=1.0f64, load in 0.0..2.0f64) {
        for model in [LatencyModel::web_service(), LatencyModel::web_search()] {
            let t = model.t95_millis(p, load);
            prop_assert!(t.is_finite());
            prop_assert!(t > 0.0);
            prop_assert!(t <= 1500.0 + 1e-9);
            let d = model.degradation(p, load);
            prop_assert!(d >= 1.0 - 1e-9, "uncapped is the best case");
        }
    }
}
