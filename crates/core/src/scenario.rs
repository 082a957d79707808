//! Shared scenario construction — one code path for every front end.
//!
//! The `experiments` CLI and the `hbm-serve` daemon both turn a small
//! declarative description (attacker policy, horizon, seed, optional
//! tenant-mix and defense overrides) into a configured [`Simulation`] and
//! run it. This module is that single code path, so served results can
//! never drift from CLI results: both build policies with
//! [`build_policy`]/[`default_policies`], run them with [`run_policy`],
//! derive the cache/manifest key with [`Scenario::config_canonical`], and
//! serialize the outcome with [`metrics_json`].

use std::sync::{Arc, OnceLock, RwLock};

use hbm_surrogate::{ThermalTier, TieredExtractor};
use hbm_telemetry::fnv1a64;
use hbm_telemetry::json::{parse_flat_object, JsonObject, JsonValue};
use hbm_thermal::HeatMatrixModel;
use hbm_units::{Energy, Power, Temperature};

use crate::{
    AttackPolicy, ColoConfig, ForesightedPolicy, Metrics, MyopicPolicy, RandomPolicy, SimReport,
    Simulation,
};

/// The attack-policy names [`build_policy`] accepts, in canonical order.
pub const POLICY_NAMES: &[&str] = &["random", "myopic", "foresighted"];

/// Canonical one-line description of a run configuration. This exact
/// string is hashed into `manifest.json`'s `config_hash` by both front
/// ends and keys the `hbm-serve` scenario cache.
pub fn config_canonical_base(ids: &str, days: u64, warmup_days: u64, seed: u64) -> String {
    format!("ids={ids};days={days};warmup_days={warmup_days};seed={seed}")
}

/// Builds one attack policy by name at its paper-default settings,
/// returning the policy and whether it needs a learning warm-up.
///
/// # Errors
///
/// Returns a message naming the unknown policy and listing
/// [`POLICY_NAMES`].
#[allow(clippy::type_complexity)]
pub fn build_policy(
    name: &str,
    config: &ColoConfig,
    seed: u64,
) -> Result<(Box<dyn AttackPolicy>, bool), String> {
    match name {
        "random" => Ok((
            Box::new(RandomPolicy::new(
                0.08,
                config.attack_load,
                config.slot,
                seed,
            )),
            false,
        )),
        "myopic" => Ok((
            Box::new(MyopicPolicy::new(Power::from_kilowatts(7.4))),
            false,
        )),
        "foresighted" => Ok((Box::new(ForesightedPolicy::paper_default(14.0, seed)), true)),
        other => Err(format!(
            "unknown policy {other:?} (expected one of {})",
            POLICY_NAMES.join(", ")
        )),
    }
}

/// The canonical trio of repeated-attack policies at their default
/// settings, as `(name, policy, needs_warmup)` rows.
#[allow(clippy::type_complexity)]
pub fn default_policies(
    config: &ColoConfig,
    seed: u64,
) -> Vec<(String, Box<dyn AttackPolicy>, bool)> {
    POLICY_NAMES
        .iter()
        .map(|name| {
            let (policy, warmup) =
                build_policy(name, config, seed).expect("POLICY_NAMES entries always build");
            (name.to_string(), policy, warmup)
        })
        .collect()
}

/// Builds and runs a simulation, warming up learning policies first.
pub fn run_policy(
    config: &ColoConfig,
    policy: Box<dyn AttackPolicy>,
    seed: u64,
    warmup_slots: u64,
    slots: u64,
    needs_warmup: bool,
) -> SimReport {
    let mut sim = Simulation::new(config.clone(), policy, seed);
    if needs_warmup {
        sim.warmup(warmup_slots);
    }
    sim.run(slots)
}

/// Process-wide optional surrogate tier consulted by
/// [`Scenario::thermal_model`]. `None` — the default — means no front end
/// behaves any differently than before the tier existed.
static THERMAL_TIER: OnceLock<RwLock<Option<Arc<TieredExtractor>>>> = OnceLock::new();

fn thermal_tier_slot() -> &'static RwLock<Option<Arc<TieredExtractor>>> {
    THERMAL_TIER.get_or_init(|| RwLock::new(None))
}

/// Installs (or, with `None`, clears) the process-wide surrogate tier.
/// Front ends that opted in (e.g. `hbm-serve --surrogate`) call this once
/// at startup; everything else never notices it.
pub fn install_thermal_tier(tier: Option<Arc<TieredExtractor>>) {
    *thermal_tier_slot().write().unwrap() = tier;
}

/// The currently installed surrogate tier, if any — front ends read this
/// to report tier statistics (`/v1/metrics`) and per-response tier labels.
pub fn installed_thermal_tier() -> Option<Arc<TieredExtractor>> {
    thermal_tier_slot().read().unwrap().clone()
}

/// A declarative simulation request: the fields a front end (CLI flags or
/// an `hbm-serve` request body) may set, everything else at paper
/// defaults.
///
/// The optional overrides cover the knobs the paper sweeps: tenant mix
/// (mean utilization of the colocation), attack intensity (battery-fed
/// load and battery capacity), and the operator's defense configuration
/// (emergency threshold and per-server cap).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Attack policy name (one of [`POLICY_NAMES`]).
    pub policy: String,
    /// Measured horizon, days.
    pub days: u64,
    /// Learning warm-up horizon, days (used by policies that learn).
    pub warmup_days: u64,
    /// Base seed.
    pub seed: u64,
    /// Mean utilization of the colocation capacity in `[0, 1]`
    /// (tenant mix; `None` keeps the paper-default trace).
    pub utilization: Option<f64>,
    /// Battery-fed attack load, kW.
    pub attack_load_kw: Option<f64>,
    /// Attacker battery capacity, kWh.
    pub battery_kwh: Option<f64>,
    /// Defense: emergency-declaration inlet threshold, °C.
    pub threshold_c: Option<f64>,
    /// Defense: per-server emergency power cap, W.
    pub cap_w: Option<f64>,
}

impl Scenario {
    /// A scenario for `policy` at the CLI's default horizon
    /// (365 measured days, 180 warm-up days, seed 1).
    pub fn new(policy: impl Into<String>) -> Self {
        Scenario {
            policy: policy.into(),
            days: 365,
            warmup_days: 180,
            seed: 1,
            utilization: None,
            attack_load_kw: None,
            battery_kwh: None,
            threshold_c: None,
            cap_w: None,
        }
    }

    /// Measured slots (saturating; parsed scenarios never overflow, see
    /// [`Scenario::total_slots`]).
    pub fn slots(&self) -> u64 {
        self.days.saturating_mul(24 * 60)
    }

    /// Warm-up slots (saturating, like [`Scenario::slots`]).
    pub fn warmup_slots(&self) -> u64 {
        self.warmup_days.saturating_mul(24 * 60)
    }

    /// Warm-up plus measured slots, or `None` when the count overflows
    /// `u64` — such a horizon is rejected by [`Scenario::from_flat_json`].
    pub fn total_slots(&self) -> Option<u64> {
        let measured = self.days.checked_mul(24 * 60)?;
        self.warmup_days.checked_mul(24 * 60)?.checked_add(measured)
    }

    /// The scenario for site `i` of a batch: identical overrides and
    /// horizon, seed staggered by `i` — so site `i` of a batch request is
    /// *the same scenario* as a single request at `seed + i`, and the two
    /// share cache entries and manifests.
    pub fn site(&self, i: u64) -> Scenario {
        Scenario {
            seed: self.seed.wrapping_add(i),
            ..self.clone()
        }
    }

    /// The canonical one-line configuration string: the CLI's base form,
    /// with one `;key=value` suffix per override actually set (in the
    /// fixed order `util`, `attack_load_kw`, `battery_kwh`, `threshold_c`,
    /// `cap_w`). A scenario without overrides is byte-identical to the
    /// CLI's canonical string for the same policy id and horizon.
    pub fn config_canonical(&self) -> String {
        let mut s = config_canonical_base(&self.policy, self.days, self.warmup_days, self.seed);
        for (key, value) in [
            ("util", self.utilization),
            ("attack_load_kw", self.attack_load_kw),
            ("battery_kwh", self.battery_kwh),
            ("threshold_c", self.threshold_c),
            ("cap_w", self.cap_w),
        ] {
            if let Some(v) = value {
                s.push_str(&format!(";{key}={v}"));
            }
        }
        s
    }

    /// The FNV-1a hash of [`Scenario::config_canonical`], hex — the same
    /// value `manifest.json` records as `config_hash`.
    pub fn config_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.config_canonical().as_bytes()))
    }

    /// Builds the colocation configuration with all overrides applied.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn build_config(&self) -> Result<ColoConfig, String> {
        if self.days == 0 {
            return Err("days must be at least 1".into());
        }
        let mut config = ColoConfig::paper_default();
        if let Some(u) = self.utilization {
            if !(0.0..=1.0).contains(&u) {
                return Err(format!("utilization must be in [0, 1], got {u}"));
            }
            config = config.with_mean_utilization(u);
        }
        if let Some(kw) = self.attack_load_kw {
            if kw.is_nan() || kw <= 0.0 {
                return Err(format!("attack_load_kw must be positive, got {kw}"));
            }
            config = config.with_attack_load(Power::from_kilowatts(kw));
        }
        if let Some(kwh) = self.battery_kwh {
            if kwh.is_nan() || kwh <= 0.0 {
                return Err(format!("battery_kwh must be positive, got {kwh}"));
            }
            config = config.with_battery_capacity(Energy::from_kilowatt_hours(kwh));
        }
        if let Some(c) = self.threshold_c {
            if !c.is_finite() {
                return Err(format!("threshold_c must be finite, got {c}"));
            }
            config.protocol.threshold = Temperature::from_celsius(c);
        }
        if let Some(w) = self.cap_w {
            if w.is_nan() || w <= 0.0 {
                return Err(format!("cap_w must be positive, got {w}"));
            }
            config.protocol.cap_per_server = Power::from_watts(w);
        }
        config.validate()?;
        Ok(config)
    }

    /// Answers this scenario's heat-matrix model from the installed
    /// surrogate tier, if one is installed (`Ok(None)` otherwise).
    ///
    /// The scenario's thermal operating point is its mean per-server power
    /// — benign trace mean plus attacker standby, spread over the
    /// container — at the tier's own supply/leakage settings. Of the
    /// scenario overrides only `utilization` moves that point, so a
    /// trained trust region covering the swept utilization range answers
    /// every sweep point from the surrogate; anything outside falls back
    /// to full extraction byte-identically (and is counted).
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid scenario configuration or a query
    /// the fallback path cannot extract.
    pub fn thermal_model(&self) -> Result<Option<(HeatMatrixModel, ThermalTier)>, String> {
        let Some(tier) = installed_thermal_tier() else {
            return Ok(None);
        };
        let config = self.build_config()?;
        let per_server_w =
            (config.trace.mean + config.standby_power).as_watts() / config.server_count() as f64;
        let query = tier.query_for_baseline(per_server_w);
        tier.model_for(&query).map(Some)
    }

    /// Builds a fresh simulation for this scenario *without* running
    /// warm-up, returning it with the `needs_warmup` flag from
    /// [`build_policy`]. This is the construction path the experiment
    /// platform uses: create runs warm-up once, and checkpoint restore
    /// rebuilds through here before overwriting the dynamic state
    /// ([`crate::Simulation::restore_from_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown policy or invalid configuration.
    pub fn build_sim(&self) -> Result<(Simulation, bool), String> {
        let config = self.build_config()?;
        let (policy, needs_warmup) = build_policy(&self.policy, &config, self.seed)?;
        Ok((Simulation::new(config, policy, self.seed), needs_warmup))
    }

    /// Like [`Scenario::build_sim`], but reuses `donor`'s benign workload
    /// trace when this scenario would generate the identical one — same
    /// trace configuration and same seed as `donor_seed` (the seed `donor`
    /// was built with). Trace synthesis dominates simulator construction,
    /// so this turns a fork-and-perturb rebuild into a cheap state copy;
    /// scenarios that *do* change the workload (a `utilization` override,
    /// a different seed) fall back to generating, so the result is always
    /// bit-identical to [`Scenario::build_sim`].
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown policy or invalid configuration.
    pub fn build_sim_sharing_trace(
        &self,
        donor: &Simulation,
        donor_seed: u64,
    ) -> Result<(Simulation, bool), String> {
        let config = self.build_config()?;
        let (policy, needs_warmup) = build_policy(&self.policy, &config, self.seed)?;
        let sim = if self.seed == donor_seed && config.trace == donor.config().trace {
            Simulation::with_trace(config, policy, self.seed, donor.trace_arc())
        } else {
            Simulation::new(config, policy, self.seed)
        };
        Ok((sim, needs_warmup))
    }

    /// Builds the configuration and policy, runs the simulation (warming
    /// up learning policies), and returns the report.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown policy or invalid configuration;
    /// never panics on bad input.
    pub fn run(&self) -> Result<SimReport, String> {
        let config = self.build_config()?;
        let (policy, needs_warmup) = build_policy(&self.policy, &config, self.seed)?;
        Ok(run_policy(
            &config,
            policy,
            self.seed,
            self.warmup_slots(),
            self.slots(),
            needs_warmup,
        ))
    }

    /// Serializes the scenario as one flat JSON object — the inverse of
    /// [`Scenario::from_flat_json`] (field for field, overrides included
    /// only when set). The experiment store persists this in manifests so
    /// a restarted daemon can rebuild the exact scenario.
    pub fn to_flat_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("policy", &self.policy)
            .u64("days", self.days)
            .u64("warmup_days", self.warmup_days)
            .u64("seed", self.seed);
        for (key, value) in [
            ("utilization", self.utilization),
            ("attack_load_kw", self.attack_load_kw),
            ("battery_kwh", self.battery_kwh),
            ("threshold_c", self.threshold_c),
            ("cap_w", self.cap_w),
        ] {
            if let Some(v) = value {
                o.f64(key, v);
            }
        }
        o.finish()
    }

    /// Parses a scenario from one flat JSON object (an `hbm-serve`
    /// request body). `policy` is required; every other field defaults as
    /// in [`Scenario::new`]. Unknown keys are rejected so typos fail
    /// loudly instead of silently running the wrong scenario.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_flat_json(body: &str) -> Result<Scenario, String> {
        Scenario::from_fields(parse_flat_object(body)?)
    }

    /// Builds a scenario from already-parsed flat-JSON fields (shared with
    /// [`BatchScenario::from_flat_json`], which strips its own keys first).
    fn from_fields(fields: Vec<(String, JsonValue)>) -> Result<Scenario, String> {
        let mut scenario = Scenario::new("");
        for (key, value) in fields {
            match key.as_str() {
                "policy" => {
                    scenario.policy = value.as_str().ok_or("policy must be a string")?.to_string();
                }
                "days" => scenario.days = json_u64(&key, &value)?,
                "warmup_days" => scenario.warmup_days = json_u64(&key, &value)?,
                "seed" => scenario.seed = json_u64(&key, &value)?,
                "utilization" => scenario.utilization = Some(json_f64(&key, &value)?),
                "attack_load_kw" => scenario.attack_load_kw = Some(json_f64(&key, &value)?),
                "battery_kwh" => scenario.battery_kwh = Some(json_f64(&key, &value)?),
                "threshold_c" => scenario.threshold_c = Some(json_f64(&key, &value)?),
                "cap_w" => scenario.cap_w = Some(json_f64(&key, &value)?),
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        if scenario.policy.is_empty() {
            return Err("missing required field \"policy\"".into());
        }
        if scenario.total_slots().is_none() {
            return Err(format!(
                "horizon of {} warm-up + {} measured days overflows the slot count",
                scenario.warmup_days, scenario.days
            ));
        }
        Ok(scenario)
    }
}

/// Mid-run overrides a perturb request may apply to a live experiment:
/// the workload mix, the attack intensity, and the operator's defense
/// knobs — the same five fields [`Scenario`] accepts as overrides, so a
/// perturbed experiment is always equivalent to *some* scenario.
///
/// Applying a perturbation rebuilds the simulation from the perturbed
/// scenario and transplants the dynamic state
/// ([`crate::Simulation::restore_from_json`]); a utilization change
/// therefore regenerates the benign trace deterministically from the
/// scenario seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Perturbation {
    /// New mean utilization of the colocation capacity in `[0, 1]`.
    pub utilization: Option<f64>,
    /// New battery-fed attack load, kW.
    pub attack_load_kw: Option<f64>,
    /// New attacker battery capacity, kWh.
    pub battery_kwh: Option<f64>,
    /// New emergency-declaration inlet threshold, °C.
    pub threshold_c: Option<f64>,
    /// New per-server emergency power cap, W.
    pub cap_w: Option<f64>,
}

impl Perturbation {
    /// Parses a perturbation from one flat JSON object (an `hbm-serve`
    /// perturb request body). All fields optional; unknown keys rejected.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_flat_json(body: &str) -> Result<Perturbation, String> {
        let mut p = Perturbation::default();
        for (key, value) in parse_flat_object(body)? {
            match key.as_str() {
                "utilization" => p.utilization = Some(json_f64(&key, &value)?),
                "attack_load_kw" => p.attack_load_kw = Some(json_f64(&key, &value)?),
                "battery_kwh" => p.battery_kwh = Some(json_f64(&key, &value)?),
                "threshold_c" => p.threshold_c = Some(json_f64(&key, &value)?),
                "cap_w" => p.cap_w = Some(json_f64(&key, &value)?),
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        Ok(p)
    }

    /// Serializes the perturbation as one flat JSON object — the inverse
    /// of [`Perturbation::from_flat_json`], with only the set fields
    /// emitted. This is the body an `hbm-serve` perturb request sends.
    pub fn to_flat_json(&self) -> String {
        let mut o = JsonObject::new();
        for (key, value) in [
            ("utilization", self.utilization),
            ("attack_load_kw", self.attack_load_kw),
            ("battery_kwh", self.battery_kwh),
            ("threshold_c", self.threshold_c),
            ("cap_w", self.cap_w),
        ] {
            if let Some(v) = value {
                o.f64(key, v);
            }
        }
        o.finish()
    }

    /// Whether no field is set.
    pub fn is_empty(&self) -> bool {
        *self == Perturbation::default()
    }

    /// The scenario with this perturbation's overrides applied; unset
    /// fields keep the base value. The result's canonical string is the
    /// effective configuration the experiment runs from here on.
    pub fn apply(&self, base: &Scenario) -> Scenario {
        let mut s = base.clone();
        if self.utilization.is_some() {
            s.utilization = self.utilization;
        }
        if self.attack_load_kw.is_some() {
            s.attack_load_kw = self.attack_load_kw;
        }
        if self.battery_kwh.is_some() {
            s.battery_kwh = self.battery_kwh;
        }
        if self.threshold_c.is_some() {
            s.threshold_c = self.threshold_c;
        }
        if self.cap_w.is_some() {
            s.cap_w = self.cap_w;
        }
        s
    }
}

/// A batched simulation request: `count` seed-staggered replicas of one
/// [`Scenario`] template, advanced in lockstep by the batch engine
/// ([`crate::BatchSim`]) and sharded across the `hbm_par` thread budget.
///
/// Site `i` is exactly [`Scenario::site`]`(i)` — the same scenario a single
/// request at `seed + i` would run — and by the batch engine's determinism
/// contract its report is byte-identical to running that scenario alone.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchScenario {
    /// The per-site scenario template (its `seed` is the base seed).
    pub scenario: Scenario,
    /// Number of sites (≥ 1).
    pub count: u64,
}

impl BatchScenario {
    /// Parses a batch request from one flat JSON object: the [`Scenario`]
    /// fields plus `count`. `count` defaults to 1.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_flat_json(body: &str) -> Result<BatchScenario, String> {
        let mut fields = parse_flat_object(body)?;
        let mut count = 1u64;
        if let Some(pos) = fields.iter().position(|(key, _)| key == "count") {
            let (key, value) = fields.remove(pos);
            count = json_u64(&key, &value)?;
        }
        if count == 0 {
            return Err("count must be at least 1".into());
        }
        Ok(BatchScenario {
            scenario: Scenario::from_fields(fields)?,
            count,
        })
    }

    /// The per-site scenarios, in site order.
    pub fn sites(&self) -> Vec<Scenario> {
        (0..self.count).map(|i| self.scenario.site(i)).collect()
    }

    /// Runs the whole batch and returns per-site reports in site order.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown policy or invalid configuration.
    pub fn run(&self) -> Result<Vec<crate::SimReport>, String> {
        run_scenarios_batch(&self.sites())
    }
}

/// Runs a set of scenarios through the batch engine and returns their
/// reports in input order, byte-identical to [`Scenario::run`] on each.
///
/// The scenarios may differ in seed and overrides but must agree on the
/// horizon and on whether their policy learns, because the batch advances
/// all lanes in lockstep (warm-up included).
///
/// # Errors
///
/// Returns a message for an empty batch, mismatched horizons, an unknown
/// policy, or an invalid configuration.
pub fn run_scenarios_batch(sites: &[Scenario]) -> Result<Vec<crate::SimReport>, String> {
    let first = sites.first().ok_or("batch needs at least one scenario")?;
    let mut sims = Vec::with_capacity(sites.len());
    let mut needs_warmup = false;
    for (i, site) in sites.iter().enumerate() {
        if (site.days, site.warmup_days) != (first.days, first.warmup_days) {
            return Err(format!(
                "batch scenarios must share the horizon: site {i} has days={}/warmup_days={}, site 0 has days={}/warmup_days={}",
                site.days, site.warmup_days, first.days, first.warmup_days
            ));
        }
        let config = site.build_config()?;
        let (policy, warmup) = build_policy(&site.policy, &config, site.seed)?;
        if i == 0 {
            needs_warmup = warmup;
        } else if warmup != needs_warmup {
            return Err(format!(
                "batch scenarios must agree on learning warm-up: site {i} ({}) differs from site 0 ({})",
                site.policy, first.policy
            ));
        }
        sims.push(Simulation::new(config, policy, site.seed));
    }
    let sims = if needs_warmup && first.warmup_slots() > 0 {
        // run_sharded moves the warm-up metrics out with its reports, so
        // dropping them leaves each lane freshly metered — exactly
        // `Simulation::warmup` semantics.
        crate::run_sharded(sims, first.warmup_slots()).sims
    } else {
        sims
    };
    Ok(crate::run_sharded(sims, first.slots()).reports)
}

fn json_f64(key: &str, value: &JsonValue) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("{key} must be a number"))
}

fn json_u64(key: &str, value: &JsonValue) -> Result<u64, String> {
    let v = json_f64(key, value)?;
    if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
        return Err(format!("{key} must be a non-negative integer, got {v}"));
    }
    Ok(v as u64)
}

/// Serializes a run's aggregate metrics as one flat JSON line — the
/// `hbm-serve` response body and the CLI `simulate` output, byte-identical
/// between the two for the same canonical configuration.
pub fn metrics_json(canonical: &str, m: &Metrics) -> String {
    let mut o = JsonObject::new();
    o.str(
        "config_hash",
        &format!("{:016x}", fnv1a64(canonical.as_bytes())),
    )
    .u64("slots", m.slots)
    .u64("emergency_slots", m.emergency_slots)
    .u64("emergency_events", m.emergency_events)
    .u64("outage_events", m.outage_events)
    .u64("outage_slots", m.outage_slots)
    .u64("attack_slots", m.attack_slots)
    .f64("attack_kwh", m.attack_energy.as_kilowatt_hours())
    .f64("attack_hours_per_day", m.attack_hours_per_day())
    .f64("emergency_fraction", m.emergency_fraction())
    .f64("avg_delta_t_c", m.avg_delta_t().as_celsius())
    .f64("mean_emergency_degradation", m.mean_emergency_degradation())
    .f64(
        "attacker_metered_kwh",
        m.attacker_metered_energy.as_kilowatt_hours(),
    )
    .f64(
        "attacker_actual_kwh",
        m.attacker_actual_energy.as_kilowatt_hours(),
    );
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Scenario {
        let mut s = Scenario::new("myopic");
        s.days = 1;
        s.warmup_days = 0;
        s.seed = 7;
        s
    }

    #[test]
    fn canonical_matches_cli_base_form_without_overrides() {
        let s = golden();
        assert_eq!(
            s.config_canonical(),
            config_canonical_base("myopic", 1, 0, 7)
        );
        assert_eq!(
            s.config_canonical(),
            "ids=myopic;days=1;warmup_days=0;seed=7"
        );
    }

    #[test]
    fn canonical_appends_overrides_in_fixed_order() {
        let mut s = golden();
        s.cap_w = Some(100.0);
        s.utilization = Some(0.5);
        assert_eq!(
            s.config_canonical(),
            "ids=myopic;days=1;warmup_days=0;seed=7;util=0.5;cap_w=100"
        );
    }

    #[test]
    fn scenario_run_matches_default_policies_path() {
        // The CLI builds its trio through default_policies + run_policy;
        // the server builds one policy through Scenario::run. Same
        // canonical config must mean identical Metrics.
        let s = golden();
        let config = ColoConfig::paper_default();
        let (name, policy, warmup) = default_policies(&config, s.seed)
            .into_iter()
            .find(|(name, _, _)| name == "myopic")
            .unwrap();
        let cli = run_policy(&config, policy, s.seed, s.warmup_slots(), s.slots(), warmup);
        let served = s.run().unwrap();
        assert_eq!(name, s.policy);
        assert_eq!(cli.metrics, served.metrics);
        assert_eq!(
            metrics_json(&s.config_canonical(), &cli.metrics),
            metrics_json(&s.config_canonical(), &served.metrics)
        );
    }

    #[test]
    fn from_flat_json_parses_and_defaults() {
        let s = Scenario::from_flat_json(
            "{\"policy\":\"random\",\"days\":2,\"warmup_days\":0,\"seed\":9,\"utilization\":0.5}",
        )
        .unwrap();
        assert_eq!(s.policy, "random");
        assert_eq!(s.days, 2);
        assert_eq!(s.seed, 9);
        assert_eq!(s.utilization, Some(0.5));
        assert_eq!(s.attack_load_kw, None);

        let d = Scenario::from_flat_json("{\"policy\":\"myopic\"}").unwrap();
        assert_eq!(d.days, 365);
        assert_eq!(d.warmup_days, 180);
        assert_eq!(d.seed, 1);
    }

    #[test]
    fn from_flat_json_rejects_bad_input() {
        assert!(Scenario::from_flat_json("{}").is_err());
        assert!(Scenario::from_flat_json("{\"policy\":\"myopic\",\"dyas\":1}").is_err());
        assert!(Scenario::from_flat_json("{\"policy\":\"myopic\",\"days\":-1}").is_err());
        assert!(Scenario::from_flat_json("{\"policy\":\"myopic\",\"days\":1.5}").is_err());
        assert!(Scenario::from_flat_json("{\"policy\":3}").is_err());
        assert!(Scenario::from_flat_json("not json").is_err());
    }

    #[test]
    fn from_flat_json_rejects_overflowing_horizons() {
        // 1e17 days × 1440 slots overflows u64 on its own; two halves of
        // u64::MAX / 1440 overflow only when added.
        let half = u64::MAX / 1440 / 2 + 1;
        for body in [
            "{\"policy\":\"myopic\",\"days\":1e17}".to_string(),
            "{\"policy\":\"myopic\",\"warmup_days\":1e17}".to_string(),
            format!("{{\"policy\":\"myopic\",\"days\":{half},\"warmup_days\":{half}}}"),
        ] {
            let err = Scenario::from_flat_json(&body).expect_err(&body);
            assert!(err.contains("overflows"), "{body}: {err}");
        }
        let big = Scenario::from_flat_json("{\"policy\":\"myopic\",\"days\":1e12}").unwrap();
        assert_eq!(
            big.total_slots(),
            Some(1_000_000_000_000 * 1440 + 180 * 1440)
        );
    }

    #[test]
    fn build_config_applies_and_validates_overrides() {
        let mut s = golden();
        s.attack_load_kw = Some(2.0);
        s.battery_kwh = Some(0.4);
        s.threshold_c = Some(33.0);
        s.cap_w = Some(100.0);
        let config = s.build_config().unwrap();
        assert_eq!(config.attack_load, Power::from_kilowatts(2.0));
        assert_eq!(config.battery.capacity, Energy::from_kilowatt_hours(0.4));
        assert_eq!(config.protocol.threshold, Temperature::from_celsius(33.0));
        assert_eq!(config.protocol.cap_per_server, Power::from_watts(100.0));

        let mut bad = golden();
        bad.utilization = Some(1.5);
        assert!(bad.build_config().is_err());
        let mut bad = golden();
        bad.attack_load_kw = Some(-1.0);
        assert!(bad.build_config().is_err());
        let mut bad = golden();
        bad.days = 0;
        assert!(bad.build_config().is_err());
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_panic() {
        let mut s = golden();
        s.policy = "zergling".into();
        let err = s.run().unwrap_err();
        assert!(err.contains("zergling"));
    }

    #[test]
    fn metrics_json_is_deterministic_and_flat() {
        let s = golden();
        let report = s.run().unwrap();
        let a = metrics_json(&s.config_canonical(), &report.metrics);
        let b = metrics_json(&s.config_canonical(), &report.metrics);
        assert_eq!(a, b);
        let fields = parse_flat_object(&a).unwrap();
        assert_eq!(fields[0].0, "config_hash");
        assert!(fields.iter().any(|(k, _)| k == "attack_slots"));
    }
}
