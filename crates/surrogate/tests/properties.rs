//! Property tests of the surrogate artifact and the tier contract.

use hbm_surrogate::{
    ExtractionSettings, SurrogateDomain, SurrogateModel, SurrogateQuery, ThermalTier,
    TieredExtractor, FEATURES,
};
use hbm_thermal::CfdConfig;
use hbm_units::{Duration, Power};
use proptest::prelude::*;

/// Tiny 2-server extraction family used by every property below.
fn settings() -> ExtractionSettings {
    ExtractionSettings {
        config: CfdConfig {
            racks: 1,
            servers_per_rack: 2,
            ..CfdConfig::paper_default()
        },
        spike: Power::from_watts(120.0),
        window: Duration::from_minutes(5.0),
        lag_step: Duration::from_minutes(1.0),
    }
}

/// A synthetic fitted model over `domain` with arbitrary coefficients —
/// the artifact round-trip must hold for any coefficient values, not just
/// ones a real fit would produce.
fn synthetic_model(
    domain: SurrogateDomain,
    coeff_seed: &[f64],
    bounds: (f64, f64, f64, f64),
) -> SurrogateModel {
    let settings = settings();
    let servers = settings.config.server_count();
    let lags = 5;
    let outputs = servers * servers * lags + servers;
    let coeffs: Vec<f64> = (0..FEATURES * outputs)
        .map(|i| {
            let s = coeff_seed[i % coeff_seed.len()];
            // Spread the seed values over wildly different magnitudes so the
            // shortest-round-trip encoder sees subnormal-adjacent and large
            // exponents, not just friendly decimals.
            s * 10f64.powi((i % 37) as i32 - 18)
        })
        .collect();
    SurrogateModel::from_parts(
        settings,
        domain,
        coeffs,
        18,
        9,
        (bounds.0, bounds.1),
        (bounds.2, bounds.3),
        1e-8,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The `hbm-surrogate-v1` artifact round-trips bit-exactly: parsing a
    /// serialized model reproduces every `f64` (coefficients, domain,
    /// bounds) to the bit, and re-serialization is byte-identical.
    #[test]
    fn artifact_round_trip_is_bit_exact(
        lo0 in 80.0..140.0f64,
        hi0 in 150.0..220.0f64,
        seeds in prop::collection::vec(-1.0..1.0f64, 7),
        max_r in 0.0..1e-3f64,
        max_i in 0.0..2.0f64,
    ) {
        let domain = SurrogateDomain { lo: [lo0, 24.5, 0.02], hi: [hi0, 30.5, 0.12] };
        let model = synthetic_model(domain, &seeds, (max_r, max_r / 3.0, max_i, max_i / 3.0));
        let line = model.to_flat_json();
        let parsed = SurrogateModel::from_flat_json(&line).unwrap();
        prop_assert_eq!(&parsed, &model);
        prop_assert_eq!(parsed.to_flat_json(), line);
    }

    /// Any query outside the trained domain takes the fallback path — the
    /// surrogate is never consulted, however generous the tolerance.
    #[test]
    fn out_of_domain_queries_always_fall_back(
        axis in 0usize..3,
        side in 0usize..2,
        frac in 0.05..3.0f64,
        seeds in prop::collection::vec(-0.5..0.5f64, 5),
    ) {
        let domain = SurrogateDomain { lo: [130.0, 26.0, 0.05], hi: [170.0, 28.0, 0.08] };
        let model = synthetic_model(domain, &seeds, (1e-6, 1e-7, 1e-3, 1e-4));
        let tier = TieredExtractor::with_model(model, f64::INFINITY);

        // Start from the domain center, push one axis outside the box —
        // but keep the query physically valid so extraction can answer.
        let mut x = [150.0, 27.0, 0.065];
        let width = domain.hi[axis] - domain.lo[axis];
        x[axis] = if side == 0 {
            domain.lo[axis] - frac * width
        } else {
            domain.hi[axis] + frac * width
        };
        x[0] = x[0].clamp(10.0, 400.0);
        x[1] = x[1].clamp(18.0, 32.0);
        x[2] = x[2].clamp(0.0, 0.49);
        let q = SurrogateQuery { baseline_w: x[0], supply_c: x[1], leakage: x[2] };
        // The clamps can never pull the pushed axis back inside this box.
        prop_assert!(!tier.model().unwrap().domain().contains(&q));

        let before = tier.stats();
        let (_, kind) = tier.model_for(&q).unwrap();
        let after = tier.stats();
        prop_assert_eq!(kind, ThermalTier::Extracted);
        prop_assert_eq!(after.fallbacks, before.fallbacks + 1);
        prop_assert_eq!(after.hits, before.hits);
    }
}

/// Corrupted artifacts are rejected with a message, never a panic.
#[test]
fn malformed_artifacts_are_rejected() {
    let domain = SurrogateDomain {
        lo: [130.0, 26.0, 0.05],
        hi: [170.0, 28.0, 0.08],
    };
    let model = synthetic_model(domain, &[0.25, -0.5, 0.75], (1e-6, 1e-7, 1e-3, 1e-4));
    let line = model.to_flat_json();

    assert!(SurrogateModel::from_flat_json("{}").is_err());
    assert!(SurrogateModel::from_flat_json("not json").is_err());
    let wrong_schema = line.replacen("hbm-surrogate-v1", "hbm-surrogate-v0", 1);
    assert!(SurrogateModel::from_flat_json(&wrong_schema).is_err());
    let wrong_servers = line.replacen("\"servers\":2", "\"servers\":3", 1);
    assert!(SurrogateModel::from_flat_json(&wrong_servers).is_err());
    // Dimensions whose products overflow are refused, not wrapped.
    let huge = line
        .replacen("\"racks\":1", "\"racks\":4294967295", 1)
        .replacen(
            "\"servers_per_rack\":2",
            "\"servers_per_rack\":4294967295",
            1,
        );
    assert!(SurrogateModel::from_flat_json(&huge).is_err());
    let huge = line
        .replacen("\"racks\":1", "\"racks\":2147483648", 1)
        .replacen("\"servers_per_rack\":2", "\"servers_per_rack\":1", 1)
        .replacen("\"servers\":2", "\"servers\":2147483648", 1);
    assert!(SurrogateModel::from_flat_json(&huge).is_err());
}

/// A valid artifact line (ASCII) for the adversarial properties below.
fn valid_artifact() -> String {
    let domain = SurrogateDomain {
        lo: [130.0, 26.0, 0.05],
        hi: [170.0, 28.0, 0.08],
    };
    synthetic_model(domain, &[0.25, -0.5, 0.75], (1e-6, 1e-7, 1e-3, 1e-4)).to_flat_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes and single-byte corruptions of a valid artifact are
    /// answered with `Ok` or `Err`, never a panic.
    #[test]
    fn corrupted_artifacts_never_panic(
        raw in prop::collection::vec(0u8..255, 0..64),
        pos in 0usize..1_000_000,
        byte in 0u8..128,
    ) {
        let _ = SurrogateModel::from_flat_json(&String::from_utf8_lossy(&raw));
        let mut bytes = valid_artifact().into_bytes();
        let i = pos % bytes.len();
        bytes[i] = byte;
        let _ = SurrogateModel::from_flat_json(&String::from_utf8(bytes).unwrap());
    }

    /// An artifact with any one key written twice is refused.
    #[test]
    fn duplicated_keys_are_refused(n in 0usize..1_000) {
        let valid = valid_artifact();
        let fields = hbm_telemetry::json::parse_flat_object(&valid).unwrap();
        let key = format!("\"{}\":", fields[n % fields.len()].0);
        let field = &valid[valid.find(&key).unwrap()..];
        let end = if field[key.len()..].starts_with('[') {
            field.find(']').unwrap() + 1
        } else {
            field.find([',', '}']).unwrap()
        };
        let dup = format!("{{{},{}", &field[..end], &valid[1..]);
        let err = SurrogateModel::from_flat_json(&dup).unwrap_err();
        prop_assert!(err.contains("duplicate field"), "{}", err);
    }
}
