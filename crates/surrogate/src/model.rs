//! The trained surrogate: fitting, prediction, and the serialized
//! `hbm-surrogate-v1` artifact.

use hbm_telemetry::json::{push_json_f64_array, Fields, JsonObject};
use hbm_telemetry::timing;
use hbm_thermal::{CfdConfig, CoolingSystem, HeatMatrix, HeatMatrixModel};
use hbm_units::{Duration, Power, Temperature};

use crate::ridge::{poly_features, NormalEquations, FEATURES, KNOBS};

/// Artifact schema identifier (bump on any incompatible layout change).
pub const SCHEMA: &str = "hbm-surrogate-v1";

/// One point in the continuous scenario-knob space the surrogate covers:
/// the operating point (uniform per-server baseline power), the cooling
/// setpoint, and the containment geometry (leakage fraction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateQuery {
    /// Uniform per-server baseline power, W.
    pub baseline_w: f64,
    /// Cooling supply-air setpoint, °C.
    pub supply_c: f64,
    /// Containment leakage fraction (recirculation bypass), in `[0, 0.5)`.
    pub leakage: f64,
}

impl SurrogateQuery {
    fn as_array(&self) -> [f64; KNOBS] {
        [self.baseline_w, self.supply_c, self.leakage]
    }
}

/// Axis-aligned trust region in knob space: the box the surrogate was
/// trained over. Queries outside it must not be answered from the fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateDomain {
    /// Lower corner `(baseline_w, supply_c, leakage)`.
    pub lo: [f64; KNOBS],
    /// Upper corner `(baseline_w, supply_c, leakage)`.
    pub hi: [f64; KNOBS],
}

impl SurrogateDomain {
    /// Whether `q` lies inside the closed box.
    pub fn contains(&self, q: &SurrogateQuery) -> bool {
        self.lo
            .iter()
            .zip(self.hi)
            .zip(q.as_array())
            .all(|((&lo, hi), x)| x >= lo && x <= hi)
    }

    /// Maps `q` to the `[-1, 1]` cube the polynomial basis is built on.
    fn normalize(&self, q: &SurrogateQuery) -> [f64; KNOBS] {
        let x = q.as_array();
        let mut out = [0.0; KNOBS];
        for i in 0..KNOBS {
            out[i] = 2.0 * (x[i] - self.lo[i]) / (self.hi[i] - self.lo[i]) - 1.0;
        }
        out
    }

    /// Checks the box is finite and non-degenerate.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated axis.
    pub fn validate(&self) -> Result<(), String> {
        for i in 0..KNOBS {
            if !(self.lo[i].is_finite() && self.hi[i].is_finite() && self.lo[i] < self.hi[i]) {
                return Err(format!(
                    "surrogate domain axis {i} must satisfy lo < hi (got [{}, {}])",
                    self.lo[i], self.hi[i]
                ));
            }
        }
        Ok(())
    }
}

/// Everything that fixes the extraction family a surrogate stands in for:
/// the base CFD configuration plus the probe settings of
/// [`hbm_thermal::extract_heat_matrix`]. A [`SurrogateQuery`] is applied
/// to the base by one deterministic mapping ([`ExtractionSettings::apply`]),
/// shared by fitting, prediction, and the fallback path — which is what
/// makes fallback output byte-identical to calling the extractor directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionSettings {
    /// Base CFD configuration; a query overrides `cooling.supply` and
    /// `leakage_fraction`.
    pub config: CfdConfig,
    /// Probe spike power.
    pub spike: Power,
    /// Response window.
    pub window: Duration,
    /// Lag step (slot length).
    pub lag_step: Duration,
}

impl ExtractionSettings {
    /// The deterministic query → extraction-input mapping: the base config
    /// with the query's supply setpoint and leakage fraction, and a uniform
    /// per-server baseline power vector.
    pub fn apply(&self, q: &SurrogateQuery) -> (CfdConfig, Vec<Power>) {
        let mut config = self.config;
        config.cooling.supply = Temperature::from_celsius(q.supply_c);
        config.leakage_fraction = q.leakage;
        let baseline = vec![Power::from_watts(q.baseline_w); config.server_count()];
        (config, baseline)
    }

    /// [`Self::apply`] plus the checks [`Self::extract`] makes before it
    /// runs the CFD model.
    ///
    /// # Errors
    ///
    /// Returns a message when the mapped configuration is physically
    /// invalid (so arbitrary out-of-domain queries error instead of
    /// panicking inside the CFD model).
    pub fn checked_inputs(&self, q: &SurrogateQuery) -> Result<(CfdConfig, Vec<Power>), String> {
        let (config, baseline) = self.apply(q);
        config.validate()?;
        if !(q.baseline_w.is_finite() && q.baseline_w > 0.0) {
            return Err(format!(
                "baseline power must be positive, got {} W",
                q.baseline_w
            ));
        }
        Ok((config, baseline))
    }

    /// Full extraction at `q` — the path the surrogate is fitted against
    /// and falls back to.
    ///
    /// # Errors
    ///
    /// Returns the [`Self::checked_inputs`] message for an invalid query.
    pub fn extract(&self, q: &SurrogateQuery) -> Result<HeatMatrixModel, String> {
        let (config, baseline) = self.checked_inputs(q)?;
        Ok(HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            self.spike,
            self.window,
            self.lag_step,
        ))
    }

    /// Number of lag steps the extraction window covers.
    fn lag_count(&self) -> usize {
        (self.window / self.lag_step).round() as usize
    }
}

/// Fitting parameters.
#[derive(Debug, Clone, Copy)]
pub struct FitOptions {
    /// Grid points per knob axis (≥ 2; the sample count is the cube).
    pub grid_points: usize,
    /// Every `holdout_every`-th grid point (≥ 2) is withheld from the fit
    /// and used to measure the error bound.
    pub holdout_every: usize,
    /// Ridge penalty λ (> 0).
    pub lambda: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            grid_points: 5,
            holdout_every: 3,
            lambda: 1e-8,
        }
    }
}

/// A fitted, error-bounded surrogate for heat-matrix extraction.
///
/// Predicts the full extraction output — every impulse-response column
/// *and* the steady-state baseline inlets — as degree-2 polynomials of the
/// normalized knobs. The model carries the max/mean absolute error
/// measured on its held-out validation split, separately for the response
/// entries (K/W) and the baseline inlets (°C), and serializes to a flat
/// JSON artifact with bit-exact `f64` round-trips (same substrate as the
/// `hbm-checkpoint-v1` schema).
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateModel {
    settings: ExtractionSettings,
    domain: SurrogateDomain,
    servers: usize,
    lags: usize,
    lambda: f64,
    /// `FEATURES × outputs` row-major; outputs are the
    /// `servers² × lags` response entries followed by `servers` inlets.
    coeffs: Vec<f64>,
    train_samples: usize,
    holdout_samples: usize,
    max_abs_err_response: f64,
    mean_abs_err_response: f64,
    max_abs_err_inlet_c: f64,
    mean_abs_err_inlet_c: f64,
}

impl SurrogateModel {
    /// Fits a surrogate on a `grid³` sample of `domain`, holding out every
    /// `holdout_every`-th point to measure the error bound against full
    /// extraction (itself pinned to the CFD model by 1e-12 golden tests).
    ///
    /// Records one `surrogate.fit` telemetry span covering the whole fit,
    /// with one unit per extracted sample.
    ///
    /// # Errors
    ///
    /// Returns a message for a degenerate domain, bad fit options, an
    /// invalid mapped configuration anywhere on the grid, or an empty
    /// validation split.
    pub fn fit(
        settings: ExtractionSettings,
        domain: SurrogateDomain,
        options: FitOptions,
    ) -> Result<SurrogateModel, String> {
        domain.validate()?;
        let g = options.grid_points;
        if g < 2 {
            return Err(format!("grid needs at least 2 points per axis, got {g}"));
        }
        if options.holdout_every < 2 {
            return Err(format!(
                "holdout-every must be at least 2 so training keeps most points, got {}",
                options.holdout_every
            ));
        }
        let span = timing::start();
        let servers = settings.config.server_count();
        let lags = settings.lag_count();
        let outputs = servers * servers * lags + servers;

        let axis = |i: usize, step: usize| -> f64 {
            domain.lo[i] + (domain.hi[i] - domain.lo[i]) * step as f64 / (g - 1) as f64
        };
        let mut ne = NormalEquations::new(outputs);
        let mut holdout: Vec<(SurrogateQuery, Vec<f64>)> = Vec::new();
        let mut features = [0.0; FEATURES];
        let mut targets = vec![0.0; outputs];
        let mut index = 0usize;
        for i in 0..g {
            for j in 0..g {
                for k in 0..g {
                    let q = SurrogateQuery {
                        baseline_w: axis(0, i),
                        supply_c: axis(1, j),
                        leakage: axis(2, k),
                    };
                    let model = settings.extract(&q)?;
                    extraction_outputs(&model, servers, lags, &mut targets);
                    if index % options.holdout_every == options.holdout_every - 1 {
                        holdout.push((q, targets.clone()));
                    } else {
                        poly_features(&domain.normalize(&q), &mut features);
                        ne.add(&features, &targets);
                    }
                    index += 1;
                }
            }
        }
        if holdout.is_empty() {
            return Err(format!(
                "validation split is empty ({index} grid points, holdout-every {})",
                options.holdout_every
            ));
        }
        let train_samples = ne.samples();
        let coeffs = ne.solve(options.lambda)?;

        let mut model = SurrogateModel {
            settings,
            domain,
            servers,
            lags,
            lambda: options.lambda,
            coeffs,
            train_samples,
            holdout_samples: holdout.len(),
            max_abs_err_response: 0.0,
            mean_abs_err_response: 0.0,
            max_abs_err_inlet_c: 0.0,
            mean_abs_err_inlet_c: 0.0,
        };
        let split = servers * servers * lags;
        let (mut sum_r, mut sum_i) = (0.0f64, 0.0f64);
        let mut predicted = vec![0.0; outputs];
        for (q, truth) in &holdout {
            model.predict_raw(q, &mut predicted);
            for (o, (&p, &t)) in predicted.iter().zip(truth).enumerate() {
                let err = (p - t).abs();
                if o < split {
                    model.max_abs_err_response = model.max_abs_err_response.max(err);
                    sum_r += err;
                } else {
                    model.max_abs_err_inlet_c = model.max_abs_err_inlet_c.max(err);
                    sum_i += err;
                }
            }
        }
        model.mean_abs_err_response = sum_r / (holdout.len() * split) as f64;
        model.mean_abs_err_inlet_c = sum_i / (holdout.len() * servers) as f64;
        timing::record_span_units("surrogate.fit", span, index as u64);
        Ok(model)
    }

    /// Evaluates the polynomial for every output into `out`.
    fn predict_raw(&self, q: &SurrogateQuery, out: &mut [f64]) {
        let mut features = [0.0; FEATURES];
        poly_features(&self.domain.normalize(q), &mut features);
        let m = out.len();
        out.fill(0.0);
        for (k, &f) in features.iter().enumerate() {
            let row = &self.coeffs[k * m..(k + 1) * m];
            for (o, &c) in out.iter_mut().zip(row) {
                *o += f * c;
            }
        }
    }

    /// Predicts the full extraction result at `q` and assembles it into a
    /// ready-to-step [`HeatMatrixModel`] — no CFD run, no extraction.
    ///
    /// The caller is responsible for checking [`SurrogateModel::domain`]
    /// first (the [`crate::TieredExtractor`] front end does); outside the
    /// trust region the polynomial extrapolates and the error bound does
    /// not apply. Records one `surrogate.predict` telemetry span.
    pub fn predict(&self, q: &SurrogateQuery) -> HeatMatrixModel {
        let span = timing::start();
        let split = self.servers * self.servers * self.lags;
        let mut out = vec![0.0; split + self.servers];
        self.predict_raw(q, &mut out);
        let inlets: Vec<Temperature> = out[split..]
            .iter()
            .map(|&c| Temperature::from_celsius(c))
            .collect();
        out.truncate(split);
        let matrix = HeatMatrix::from_raw(self.servers, self.lags, self.settings.lag_step, out);
        let model = HeatMatrixModel::new(
            matrix,
            vec![Power::from_watts(q.baseline_w); self.servers],
            inlets,
            Temperature::from_celsius(q.supply_c),
        );
        timing::record_span("surrogate.predict", span);
        model
    }

    /// The extraction family this surrogate stands in for.
    pub fn settings(&self) -> &ExtractionSettings {
        &self.settings
    }

    /// The trust region the fit covered.
    pub fn domain(&self) -> &SurrogateDomain {
        &self.domain
    }

    /// Servers in the modeled container.
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// Lag steps per response column.
    pub fn lag_count(&self) -> usize {
        self.lags
    }

    /// Training / held-out sample counts.
    pub fn sample_counts(&self) -> (usize, usize) {
        (self.train_samples, self.holdout_samples)
    }

    /// Held-out max absolute error of the response entries, K/W.
    pub fn max_abs_err_response(&self) -> f64 {
        self.max_abs_err_response
    }

    /// Held-out mean absolute error of the response entries, K/W.
    pub fn mean_abs_err_response(&self) -> f64 {
        self.mean_abs_err_response
    }

    /// Held-out max absolute error of the baseline inlets, °C — the
    /// headline bound the tier compares against its tolerance.
    pub fn max_abs_err_inlet_c(&self) -> f64 {
        self.max_abs_err_inlet_c
    }

    /// Held-out mean absolute error of the baseline inlets, °C.
    pub fn mean_abs_err_inlet_c(&self) -> f64 {
        self.mean_abs_err_inlet_c
    }

    /// Serializes the model as one `hbm-surrogate-v1` flat-JSON line.
    /// Floats use shortest-round-trip encoding, so
    /// [`SurrogateModel::from_flat_json`] reproduces every coefficient and
    /// bound bit-exactly.
    pub fn to_flat_json(&self) -> String {
        let c = &self.settings.config;
        let mut o = JsonObject::new();
        o.str("schema", SCHEMA)
            .u64("racks", c.racks as u64)
            .u64("servers_per_rack", c.servers_per_rack as u64)
            .f64("cooling_capacity_w", c.cooling.capacity.as_watts())
            .f64("cooling_supply_c", c.cooling.supply.as_celsius())
            .f64(
                "cooling_derate_onset_c",
                c.cooling.derate_onset.as_celsius(),
            )
            .f64("cooling_derate_per_kelvin", c.cooling.derate_per_kelvin)
            .f64(
                "cooling_min_capacity_fraction",
                c.cooling.min_capacity_fraction,
            )
            .f64("per_server_flow_kg_s", c.per_server_flow_kg_s)
            .f64("leakage_fraction", c.leakage_fraction)
            .f64("cell_mass_kg", c.cell_mass_kg)
            .f64("plenum_mass_kg", c.plenum_mass_kg)
            .f64("spike_w", self.settings.spike.as_watts())
            .f64("window_s", self.settings.window.as_seconds())
            .f64("lag_step_s", self.settings.lag_step.as_seconds())
            .u64("servers", self.servers as u64)
            .u64("lags", self.lags as u64)
            .f64("lambda", self.lambda)
            .u64("train_samples", self.train_samples as u64)
            .u64("holdout_samples", self.holdout_samples as u64)
            .f64("max_abs_err_response", self.max_abs_err_response)
            .f64("mean_abs_err_response", self.mean_abs_err_response)
            .f64("max_abs_err_inlet_c", self.max_abs_err_inlet_c)
            .f64("mean_abs_err_inlet_c", self.mean_abs_err_inlet_c);
        let mut arr = String::new();
        push_json_f64_array(&mut arr, &self.domain.lo);
        o.raw("domain_lo", &arr);
        arr.clear();
        push_json_f64_array(&mut arr, &self.domain.hi);
        o.raw("domain_hi", &arr);
        arr.clear();
        push_json_f64_array(&mut arr, &self.coeffs);
        o.raw("coeffs", &arr);
        o.finish()
    }

    /// Parses and validates an `hbm-surrogate-v1` artifact.
    ///
    /// # Errors
    ///
    /// Returns a message for a wrong schema, a missing or mistyped field,
    /// a coefficient count that disagrees with the declared dimensions, or
    /// a physically invalid embedded configuration.
    pub fn from_flat_json(line: &str) -> Result<SurrogateModel, String> {
        let mut fields = Fields::parse(line)?;
        let schema = fields.str("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let config = CfdConfig {
            racks: fields.u64("racks")? as usize,
            servers_per_rack: fields.u64("servers_per_rack")? as usize,
            cooling: CoolingSystem {
                capacity: Power::from_watts(fields.f64("cooling_capacity_w")?),
                supply: Temperature::from_celsius(fields.f64("cooling_supply_c")?),
                derate_onset: Temperature::from_celsius(fields.f64("cooling_derate_onset_c")?),
                derate_per_kelvin: fields.f64("cooling_derate_per_kelvin")?,
                min_capacity_fraction: fields.f64("cooling_min_capacity_fraction")?,
            },
            per_server_flow_kg_s: fields.f64("per_server_flow_kg_s")?,
            leakage_fraction: fields.f64("leakage_fraction")?,
            cell_mass_kg: fields.f64("cell_mass_kg")?,
            plenum_mass_kg: fields.f64("plenum_mass_kg")?,
        };
        config.validate()?;
        let settings = ExtractionSettings {
            config,
            spike: Power::from_watts(fields.f64("spike_w")?),
            window: Duration::from_seconds(fields.f64("window_s")?),
            lag_step: Duration::from_seconds(fields.f64("lag_step_s")?),
        };
        if settings.spike.as_watts() <= 0.0 {
            return Err("spike_w must be positive".into());
        }
        if !(settings.lag_step > Duration::ZERO && settings.window >= settings.lag_step) {
            return Err("window_s must cover at least one positive lag_step_s".into());
        }
        let servers = fields.u64("servers")? as usize;
        let lags = fields.u64("lags")? as usize;
        if Some(servers) != config.racks.checked_mul(config.servers_per_rack) {
            return Err(format!(
                "servers field ({servers}) disagrees with the configuration ({} x {})",
                config.racks, config.servers_per_rack
            ));
        }
        let domain = SurrogateDomain {
            lo: f64_triple(&mut fields, "domain_lo")?,
            hi: f64_triple(&mut fields, "domain_hi")?,
        };
        domain.validate()?;
        let coeffs = fields.f64_array("coeffs")?;
        let outputs = servers
            .checked_mul(servers)
            .and_then(|n| n.checked_mul(lags))
            .and_then(|n| n.checked_add(servers));
        if outputs.and_then(|n| n.checked_mul(FEATURES)) != Some(coeffs.len()) {
            return Err(format!(
                "coeffs length {} disagrees with {FEATURES} features x {servers}^2 x {lags} + {servers} outputs",
                coeffs.len()
            ));
        }
        let model = SurrogateModel {
            settings,
            domain,
            servers,
            lags,
            lambda: fields.f64("lambda")?,
            coeffs,
            train_samples: fields.u64("train_samples")? as usize,
            holdout_samples: fields.u64("holdout_samples")? as usize,
            max_abs_err_response: fields.f64("max_abs_err_response")?,
            mean_abs_err_response: fields.f64("mean_abs_err_response")?,
            max_abs_err_inlet_c: fields.f64("max_abs_err_inlet_c")?,
            mean_abs_err_inlet_c: fields.f64("mean_abs_err_inlet_c")?,
        };
        fields.finish()?;
        Ok(model)
    }

    /// Builds a model directly from its parts — the deserialization shape,
    /// exposed for tests that need synthetic models without a fit.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        settings: ExtractionSettings,
        domain: SurrogateDomain,
        coeffs: Vec<f64>,
        train_samples: usize,
        holdout_samples: usize,
        response_err: (f64, f64),
        inlet_err: (f64, f64),
        lambda: f64,
    ) -> Result<SurrogateModel, String> {
        domain.validate()?;
        let servers = settings.config.server_count();
        let lags = settings.lag_count();
        let outputs = servers * servers * lags + servers;
        if coeffs.len() != FEATURES * outputs {
            return Err(format!(
                "coeffs length {} disagrees with {FEATURES} features x {outputs} outputs",
                coeffs.len()
            ));
        }
        Ok(SurrogateModel {
            settings,
            domain,
            servers,
            lags,
            lambda,
            coeffs,
            train_samples,
            holdout_samples,
            max_abs_err_response: response_err.0,
            mean_abs_err_response: response_err.1,
            max_abs_err_inlet_c: inlet_err.0,
            mean_abs_err_inlet_c: inlet_err.1,
        })
    }
}

/// Flattens an extracted model into the surrogate's regression targets:
/// the raw response entries (`[source][receiver][lag]` order, K/W)
/// followed by the baseline inlets (°C).
fn extraction_outputs(model: &HeatMatrixModel, servers: usize, lags: usize, out: &mut [f64]) {
    let matrix = model.matrix();
    let mut idx = 0;
    for source in 0..servers {
        for receiver in 0..servers {
            for lag in 0..lags {
                out[idx] = matrix.response(source, receiver, lag);
                idx += 1;
            }
        }
    }
    for &t in model.baseline_inlets_celsius() {
        out[idx] = t;
        idx += 1;
    }
}

/// A required array of exactly [`KNOBS`] finite numbers.
fn f64_triple(fields: &mut Fields, key: &str) -> Result<[f64; KNOBS], String> {
    fields
        .f64_array(key)?
        .try_into()
        .map_err(|v: Vec<f64>| format!("{key} must hold {KNOBS} numbers, got {}", v.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn domain() -> SurrogateDomain {
        SurrogateDomain {
            lo: [120.0, 25.0, 0.03],
            hi: [180.0, 29.0, 0.10],
        }
    }

    /// The headline validation: fitting measures a held-out error bound
    /// against full extraction (pinned to the CFD model by the 1e-12
    /// golden tests in `hbm-thermal`), the bound is tight, and an
    /// arbitrary off-grid query honors it to within a small safety factor.
    #[test]
    fn fit_measures_a_tight_error_bound_on_held_out_extractions() {
        let settings = settings();
        let model = SurrogateModel::fit(
            settings.clone(),
            domain(),
            FitOptions {
                grid_points: 4,
                holdout_every: 3,
                lambda: 1e-8,
            },
        )
        .unwrap();
        let (train, holdout) = model.sample_counts();
        assert_eq!(train + holdout, 64);
        assert_eq!(holdout, 21);
        // The CFD response surface is nearly quadratic in these knobs, so
        // a degree-2 fit on a 4-point grid bounds inlet error in the
        // millikelvin range and response error near 1e-6 K/W.
        assert!(model.max_abs_err_inlet_c() > 0.0);
        assert!(
            model.max_abs_err_inlet_c() < 0.05,
            "{}",
            model.max_abs_err_inlet_c()
        );
        assert!(model.mean_abs_err_inlet_c() <= model.max_abs_err_inlet_c());
        assert!(
            model.max_abs_err_response() < 1e-4,
            "{}",
            model.max_abs_err_response()
        );
        assert!(model.mean_abs_err_response() <= model.max_abs_err_response());

        // Off-grid (not a training or holdout point): prediction error vs
        // fresh extraction stays within a 10x safety factor of the bound.
        let q = SurrogateQuery {
            baseline_w: 143.7,
            supply_c: 27.9,
            leakage: 0.071,
        };
        let predicted = model.predict(&q);
        let truth = settings.extract(&q).unwrap();
        let n = truth.matrix().server_count();
        for (p, t) in predicted
            .baseline_inlets_celsius()
            .iter()
            .zip(truth.baseline_inlets_celsius())
        {
            assert!(
                (p - t).abs() <= 10.0 * model.max_abs_err_inlet_c(),
                "{p} vs {t}"
            );
        }
        for s in 0..n {
            for r in 0..n {
                for l in 0..truth.matrix().lag_count() {
                    let p = predicted.matrix().response(s, r, l);
                    let t = truth.matrix().response(s, r, l);
                    assert!(
                        (p - t).abs() <= 10.0 * model.max_abs_err_response(),
                        "{p} vs {t}"
                    );
                }
            }
        }
        // The prediction carries the query's operating point verbatim.
        assert_eq!(predicted.supply_celsius(), q.supply_c);
        assert_eq!(predicted.baseline_powers(), truth.baseline_powers());
    }

    /// Degenerate fit inputs are rejected with messages, not panics.
    #[test]
    fn bad_fit_inputs_are_errors() {
        let bad_domain = SurrogateDomain {
            lo: [180.0, 25.0, 0.03],
            hi: [120.0, 29.0, 0.10],
        };
        assert!(SurrogateModel::fit(settings(), bad_domain, FitOptions::default()).is_err());
        let opts = FitOptions {
            grid_points: 1,
            ..FitOptions::default()
        };
        assert!(SurrogateModel::fit(settings(), domain(), opts).is_err());
        let opts = FitOptions {
            holdout_every: 1,
            ..FitOptions::default()
        };
        assert!(SurrogateModel::fit(settings(), domain(), opts).is_err());
        // Leakage above the physical ceiling: the mapped config fails
        // validation before any CFD work.
        let wide = SurrogateDomain {
            lo: [120.0, 25.0, 0.03],
            hi: [180.0, 29.0, 0.60],
        };
        assert!(SurrogateModel::fit(settings(), wide, FitOptions::default()).is_err());
    }
}
