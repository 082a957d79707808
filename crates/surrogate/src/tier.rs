//! The tiered front end: answer from the surrogate inside the trust
//! region, fall back to full extraction outside it, and count every
//! decision.

use std::sync::atomic::{AtomicU64, Ordering};

use hbm_thermal::HeatMatrixModel;

use crate::model::{ExtractionSettings, SurrogateModel, SurrogateQuery};

/// Which tier produced a [`HeatMatrixModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalTier {
    /// Answered by the trained surrogate inside its trust region.
    Surrogate,
    /// Answered by full CFD-lite extraction (no model loaded, or fallback).
    Extracted,
}

impl ThermalTier {
    /// Stable lowercase name, used in response headers and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            ThermalTier::Surrogate => "surrogate",
            ThermalTier::Extracted => "extracted",
        }
    }
}

/// Snapshot of a [`TieredExtractor`]'s decision counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierStats {
    /// Queries answered by the surrogate.
    pub hits: u64,
    /// Queries extracted because no surrogate model is loaded.
    pub misses: u64,
    /// Queries extracted despite a loaded model (outside the trust region
    /// or bound above tolerance).
    pub fallbacks: u64,
    /// The loaded model's held-out max inlet error, °C (0 when no model).
    pub bound_c: f64,
}

/// Answers heat-matrix queries from the cheapest tier that can honor the
/// error tolerance.
///
/// The contract: a query inside the loaded model's trust region whose
/// carried error bound is within `tolerance_c` is answered by
/// [`SurrogateModel::predict`]; every other query takes the exact same
/// [`ExtractionSettings::extract`] path the rest of the stack uses, so
/// fallback output is byte-identical to never having a surrogate at all.
/// Counters are relaxed atomics, safe to read from any thread.
#[derive(Debug)]
pub struct TieredExtractor {
    settings: ExtractionSettings,
    model: Option<SurrogateModel>,
    tolerance_c: f64,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

impl TieredExtractor {
    /// A tier with no trained model: every query extracts (and counts as a
    /// miss). Useful as the neutral default and for byte-identity tests.
    pub fn without_model(settings: ExtractionSettings, tolerance_c: f64) -> Self {
        TieredExtractor {
            settings,
            model: None,
            tolerance_c,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// A tier answering from `model` whenever the query is inside its
    /// trust region and the model's inlet error bound is at most
    /// `tolerance_c`.
    pub fn with_model(model: SurrogateModel, tolerance_c: f64) -> Self {
        TieredExtractor {
            settings: model.settings().clone(),
            model: Some(model),
            tolerance_c,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The extraction family this tier serves.
    pub fn settings(&self) -> &ExtractionSettings {
        &self.settings
    }

    /// The loaded model, if any.
    pub fn model(&self) -> Option<&SurrogateModel> {
        self.model.as_ref()
    }

    /// The inlet-error tolerance a surrogate answer must stay within, °C.
    pub fn tolerance_c(&self) -> f64 {
        self.tolerance_c
    }

    /// The query matching this tier's own settings at a given per-server
    /// baseline power — supply and leakage come from the base config.
    pub fn query_for_baseline(&self, baseline_w: f64) -> SurrogateQuery {
        SurrogateQuery {
            baseline_w,
            supply_c: self.settings.config.cooling.supply.as_celsius(),
            leakage: self.settings.config.leakage_fraction,
        }
    }

    /// Decides which tier answers `q` and counts the decision, without
    /// building a model.
    ///
    /// # Errors
    ///
    /// Returns a message when the query maps to a physically invalid
    /// configuration (fallback and miss paths validate the extraction
    /// inputs; a fallback that then fails validation still counts as a
    /// fallback).
    pub fn tier_for(&self, q: &SurrogateQuery) -> Result<ThermalTier, String> {
        match &self.model {
            Some(m) if m.domain().contains(q) && m.max_abs_err_inlet_c() <= self.tolerance_c => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(ThermalTier::Surrogate);
            }
            Some(_) => self.fallbacks.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        self.settings.checked_inputs(q)?;
        Ok(ThermalTier::Extracted)
    }

    /// Answers `q` from the tier [`Self::tier_for`] picks.
    ///
    /// # Errors
    ///
    /// Returns the [`Self::tier_for`] message for an invalid query.
    pub fn model_for(&self, q: &SurrogateQuery) -> Result<(HeatMatrixModel, ThermalTier), String> {
        let tier = self.tier_for(q)?;
        let model = match (tier, &self.model) {
            (ThermalTier::Surrogate, Some(m)) => m.predict(q),
            _ => self.settings.extract(q)?,
        };
        Ok((model, tier))
    }

    /// Current decision counters plus the loaded model's bound.
    pub fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            bound_c: self.bound_c(),
        }
    }

    /// The loaded model's held-out max inlet error, °C (0 when no model).
    pub fn bound_c(&self) -> f64 {
        self.model.as_ref().map_or(0.0, |m| m.max_abs_err_inlet_c())
    }
}

#[cfg(test)]
mod tests {
    use hbm_thermal::{CfdConfig, HeatMatrixModel};
    use hbm_units::{Duration, Power};

    use super::*;
    use crate::model::{FitOptions, SurrogateDomain};

    fn small_settings() -> ExtractionSettings {
        ExtractionSettings {
            config: CfdConfig {
                racks: 1,
                servers_per_rack: 3,
                ..CfdConfig::paper_default()
            },
            spike: Power::from_watts(120.0),
            window: Duration::from_minutes(5.0),
            lag_step: Duration::from_minutes(1.0),
        }
    }

    fn small_domain() -> SurrogateDomain {
        SurrogateDomain {
            lo: [120.0, 25.0, 0.03],
            hi: [180.0, 29.0, 0.10],
        }
    }

    /// Bit patterns of everything a [`HeatMatrixModel`] predicts from.
    fn bits(model: &HeatMatrixModel) -> Vec<u64> {
        let matrix = model.matrix();
        let n = matrix.server_count();
        let lags = matrix.lag_count();
        let mut out = Vec::new();
        for s in 0..n {
            for r in 0..n {
                for l in 0..lags {
                    out.push(matrix.response(s, r, l).to_bits());
                }
            }
        }
        for p in model.baseline_powers() {
            out.push(p.as_watts().to_bits());
        }
        for &t in model.baseline_inlets_celsius() {
            out.push(t.to_bits());
        }
        out.push(model.supply_celsius().to_bits());
        out
    }

    /// The fallback contract: out-of-region queries through the tier are
    /// byte-identical to calling the extraction path directly.
    #[test]
    fn golden_fallback_is_byte_identical_to_direct_extraction() {
        let settings = small_settings();
        let model = SurrogateModel::fit(
            settings.clone(),
            small_domain(),
            FitOptions {
                grid_points: 2,
                holdout_every: 4,
                lambda: 1e-8,
            },
        )
        .unwrap();
        let tier = TieredExtractor::with_model(model, 10.0);
        // Outside the trust region on the baseline axis.
        let q = SurrogateQuery {
            baseline_w: 200.0,
            supply_c: 27.0,
            leakage: 0.06,
        };
        let (via_tier, kind) = tier.model_for(&q).unwrap();
        assert_eq!(kind, ThermalTier::Extracted);
        assert_eq!(tier.stats().fallbacks, 1);

        let (config, baseline) = settings.apply(&q);
        let direct = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            settings.spike,
            settings.window,
            settings.lag_step,
        );
        assert_eq!(bits(&via_tier), bits(&direct));
        assert_eq!(via_tier, direct);
    }

    /// Same contract for the no-model tier: misses are plain extractions.
    #[test]
    fn golden_miss_is_byte_identical_to_direct_extraction() {
        let settings = small_settings();
        let tier = TieredExtractor::without_model(settings.clone(), 0.5);
        let q = tier.query_for_baseline(150.0);
        let (via_tier, kind) = tier.model_for(&q).unwrap();
        assert_eq!(kind, ThermalTier::Extracted);
        assert_eq!(tier.stats().misses, 1);
        assert_eq!(tier.stats().hits, 0);

        let direct = settings.extract(&q).unwrap();
        assert_eq!(bits(&via_tier), bits(&direct));
    }

    /// In-region queries hit the surrogate, and a tolerance tighter than
    /// the measured bound forces fallback even inside the region.
    #[test]
    fn tolerance_gates_the_surrogate_tier() {
        let model = SurrogateModel::fit(
            small_settings(),
            small_domain(),
            FitOptions {
                grid_points: 3,
                holdout_every: 3,
                lambda: 1e-8,
            },
        )
        .unwrap();
        let inside = SurrogateQuery {
            baseline_w: 150.0,
            supply_c: 27.0,
            leakage: 0.06,
        };

        let generous = TieredExtractor::with_model(model.clone(), f64::INFINITY);
        let (_, kind) = generous.model_for(&inside).unwrap();
        assert_eq!(kind, ThermalTier::Surrogate);
        assert_eq!(generous.stats().hits, 1);
        assert_eq!(generous.bound_c(), model.max_abs_err_inlet_c());

        let strict = TieredExtractor::with_model(model, -1.0);
        let (_, kind) = strict.model_for(&inside).unwrap();
        assert_eq!(kind, ThermalTier::Extracted);
        assert_eq!(strict.stats().fallbacks, 1);
    }

    /// `tier_for` makes exactly the decision `model_for` acts on: the same
    /// tier, the same `Err` and the same counters for every query class.
    #[test]
    fn tier_for_agrees_with_model_for() {
        let model = SurrogateModel::fit(
            small_settings(),
            small_domain(),
            FitOptions {
                grid_points: 2,
                holdout_every: 4,
                lambda: 1e-8,
            },
        )
        .unwrap();
        let inside = SurrogateQuery {
            baseline_w: 150.0,
            supply_c: 27.0,
            leakage: 0.06,
        };
        let outside = SurrogateQuery {
            baseline_w: 200.0,
            ..inside
        };
        let invalid = SurrogateQuery {
            leakage: 0.7,
            ..inside
        };
        let tiers = || {
            [
                TieredExtractor::with_model(model.clone(), f64::INFINITY),
                TieredExtractor::with_model(model.clone(), -1.0),
                TieredExtractor::without_model(small_settings(), 0.5),
            ]
        };
        use ThermalTier::{Extracted, Surrogate};
        let expected = [
            [Some(Surrogate), Some(Extracted), None],
            [Some(Extracted), Some(Extracted), None],
            [Some(Extracted), Some(Extracted), None],
        ];
        for ((deciding, building), want) in tiers().iter().zip(&tiers()).zip(expected) {
            for (q, want) in [inside, outside, invalid].iter().zip(want) {
                let decided = deciding.tier_for(q);
                let built = building.model_for(q).map(|(_, tier)| tier);
                assert_eq!(decided.clone().ok(), want, "query {q:?}");
                assert_eq!(decided, built, "query {q:?}");
                assert_eq!(deciding.stats(), building.stats(), "query {q:?}");
            }
        }
    }
}
