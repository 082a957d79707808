//! Shared scenario construction — one code path for every front end.
//!
//! The `experiments` CLI and the `hbm-serve` daemon both turn a small
//! declarative description (attacker policy, horizon, seed, optional
//! tenant-mix and defense overrides) into a configured [`Simulation`] and
//! run it. This module is that single code path, so served results can
//! never drift from CLI results: both build policies with
//! [`build_policy`]/[`default_policies`], run them with [`Scenario::run`]
//! or [`run_scenarios_batch`], derive the cache/manifest key with
//! [`Scenario::config_canonical`], and serialize the outcome with
//! [`metrics_json`].

use std::sync::Arc;

use hbm_telemetry::fnv1a64;
use hbm_telemetry::json::{Fields, JsonObject};
use hbm_units::{Energy, Power, Temperature};
use hbm_workload::generate_heads;

use crate::traces::{effective_trace_config, TraceKey};
use crate::{
    ColoConfig, ForesightedPolicy, Metrics, MyopicPolicy, Policy, RandomPolicy, SimReport,
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

/// Builds one attack policy by name, sized to `config` (its attack load,
/// slot, capacity and battery), returning the policy and whether it needs
/// a learning warm-up. At [`ColoConfig::paper_default`] these are the
/// paper's Table I attackers.
///
/// # Errors
///
/// Returns a message naming the unknown policy and listing
/// [`POLICY_NAMES`].
pub fn build_policy(name: &str, config: &ColoConfig, seed: u64) -> Result<(Policy, bool), String> {
    match name {
        "random" => Ok((
            RandomPolicy::new(0.08, config.attack_load, config.slot, seed).into(),
            false,
        )),
        "myopic" => Ok((
            MyopicPolicy::with_attack(Power::from_kilowatts(7.4), config.attack_load, config.slot)
                .into(),
            false,
        )),
        "foresighted" => Ok((
            ForesightedPolicy::new(
                14.0,
                config.capacity,
                config.battery.capacity,
                config.battery.max_charge_rate,
                config.attack_load,
                config.slot,
                seed,
            )
            .into(),
            true,
        )),
        other => Err(format!(
            "unknown policy {other:?} (expected one of {})",
            POLICY_NAMES.join(", ")
        )),
    }
}

/// The canonical trio of repeated-attack policies at their default
/// settings, as `(name, policy, needs_warmup)` rows.
pub fn default_policies(config: &ColoConfig, seed: u64) -> Vec<(String, Policy, bool)> {
    POLICY_NAMES
        .iter()
        .map(|name| {
            let (policy, warmup) =
                build_policy(name, config, seed).expect("POLICY_NAMES entries always build");
            (name.to_string(), policy, warmup)
        })
        .collect()
}

/// Warm-up plus measured slots of a horizon given in days, or an error
/// naming the overflow when the count does not fit `u64`. The one horizon
/// rule of every front end: [`Scenario::from_flat_json`] and the
/// experiments CLI both reject what it rejects.
pub fn horizon_slots(warmup_days: u64, days: u64) -> Result<u64, String> {
    days.checked_mul(24 * 60)
        .and_then(|measured| warmup_days.checked_mul(24 * 60)?.checked_add(measured))
        .ok_or_else(|| {
            format!(
                "horizon of {warmup_days} warm-up + {days} measured days overflows the slot count"
            )
        })
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
        horizon_slots(self.warmup_days, self.days).ok()
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
    /// trace when this scenario would generate the identical one: the same
    /// effective trace configuration (the configured trace plus the seed)
    /// as `donor` built with `donor_seed`, the key a [`crate::TraceStore`]
    /// shares under. Trace synthesis dominates simulator construction, so
    /// this turns a fork-and-perturb rebuild into a cheap state copy;
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
        let sim = if TraceKey::new(&config.trace, self.seed)
            == TraceKey::new(&donor.config().trace, donor_seed)
        {
            Simulation::with_trace(config, policy, self.seed, Arc::clone(&donor.trace))
        } else {
            Simulation::new(config, policy, self.seed)
        };
        Ok((sim, needs_warmup))
    }

    /// Builds the configuration and policy, runs the simulation (warming
    /// up learning policies), and returns the report. The report is
    /// bit-identical to [`Scenario::build_sim`] plus warm-up and run, but
    /// the simulation synthesizes its trace through [`generate_heads`] and
    /// holds only the slots it reads, not the whole year.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown policy or invalid configuration;
    /// never panics on bad input.
    pub fn run(&self) -> Result<SimReport, String> {
        let (mut sim, needs_warmup) = bounded_sims(std::slice::from_ref(self))?
            .pop()
            .expect("one scenario builds one simulation");
        if needs_warmup {
            sim.warmup(self.warmup_slots());
        }
        Ok(sim.run(self.slots()))
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
        Scenario::from_fields(Fields::parse(body)?)
    }

    /// Reads a scenario from the fields of one flat JSON object and
    /// finishes the read (shared with [`BatchScenario::from_flat_json`],
    /// which takes its own keys first).
    fn from_fields(mut f: Fields) -> Result<Scenario, String> {
        let mut base = Scenario::new(f.str("policy")?);
        if base.policy.is_empty() {
            return Err("field \"policy\" must not be empty".into());
        }
        base.days = f.opt_u64("days")?.unwrap_or(base.days);
        base.warmup_days = f.opt_u64("warmup_days")?.unwrap_or(base.warmup_days);
        base.seed = f.opt_u64("seed")?.unwrap_or(base.seed);
        let scenario = Perturbation::read(&mut f)?.apply(&base);
        f.finish()?;
        horizon_slots(scenario.warmup_days, scenario.days)?;
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
        let mut f = Fields::parse(body)?;
        let p = Perturbation::read(&mut f)?;
        f.finish()?;
        Ok(p)
    }

    /// Takes the five override keys, all optional, from `f`, leaving any
    /// other key for the caller (a fork body's `label`, a scenario's
    /// horizon) and for [`Fields::finish`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed field.
    pub fn read(f: &mut Fields) -> Result<Perturbation, String> {
        Ok(Perturbation {
            utilization: f.opt_f64("utilization")?,
            attack_load_kw: f.opt_f64("attack_load_kw")?,
            battery_kwh: f.opt_f64("battery_kwh")?,
            threshold_c: f.opt_f64("threshold_c")?,
            cap_w: f.opt_f64("cap_w")?,
        })
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
        Scenario {
            utilization: self.utilization.or(base.utilization),
            attack_load_kw: self.attack_load_kw.or(base.attack_load_kw),
            battery_kwh: self.battery_kwh.or(base.battery_kwh),
            threshold_c: self.threshold_c.or(base.threshold_c),
            cap_w: self.cap_w.or(base.cap_w),
            ..base.clone()
        }
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
        let mut f = Fields::parse(body)?;
        let count = f.opt_u64("count")?.unwrap_or(1);
        if count == 0 {
            return Err("count must be at least 1".into());
        }
        Ok(BatchScenario {
            scenario: Scenario::from_fields(f)?,
            count,
        })
    }

    /// The per-site scenarios, in site order.
    pub fn sites(&self) -> Vec<Scenario> {
        (0..self.count).map(|i| self.scenario.site(i)).collect()
    }
}

/// Runs a set of scenarios and returns their reports in input order,
/// byte-identical to [`Scenario::run`] on each.
///
/// One scenario runs on the scalar engine ([`Scenario::run`]): a one-lane
/// batch steps slower than a lone simulation. Two or more run in lockstep
/// on the sharded batch engine ([`crate::run_sims_batch`]), so they may
/// differ in seed, overrides and policy but must share the horizon; the
/// lanes whose policy learns warm up together first. Their traces are
/// synthesized in one lockstep [`generate_heads`] pass, and each holds only
/// the horizon's slots.
///
/// # Errors
///
/// Returns a message for an empty batch, mismatched horizons, an unknown
/// policy, or an invalid configuration.
pub fn run_scenarios_batch(sites: &[Scenario]) -> Result<Vec<SimReport>, String> {
    match sites {
        [] => Err("batch needs at least one scenario".into()),
        [only] => Ok(vec![only.run()?]),
        [first, ..] => Ok(crate::run_sims_batch(
            bounded_sims(sites)?,
            first.warmup_slots(),
            first.slots(),
        )),
    }
}

/// The simulations of a bounded run of `sites`, with their `needs_warmup`
/// flags: each built as [`Scenario::build_sim`] builds it, but over a head
/// trace that holds only the slots the run reads (warm-up plus measured),
/// all synthesized in one [`generate_heads`] pass. A head trace wraps
/// early, so these simulations must step no further than the horizon and
/// never leave this module.
///
/// # Errors
///
/// Returns a message for mismatched horizons, an unknown policy, or an
/// invalid configuration, naming the first failing site.
fn bounded_sims(sites: &[Scenario]) -> Result<Vec<(Simulation, bool)>, String> {
    let first = &sites[0];
    let mut built = Vec::with_capacity(sites.len());
    let mut traces = Vec::with_capacity(sites.len());
    for (i, site) in sites.iter().enumerate() {
        if (site.days, site.warmup_days) != (first.days, first.warmup_days) {
            return Err(format!(
                "batch scenarios must share the horizon: site {i} has days={}/warmup_days={}, site 0 has days={}/warmup_days={}",
                site.days, site.warmup_days, first.days, first.warmup_days
            ));
        }
        let config = site.build_config()?;
        let (policy, needs_warmup) = build_policy(&site.policy, &config, site.seed)?;
        traces.push(effective_trace_config(&config.trace, site.seed));
        built.push((config, policy, site.seed, needs_warmup));
    }
    let keep = first.warmup_slots().saturating_add(first.slots());
    let heads = generate_heads(&traces, usize::try_from(keep).unwrap_or(usize::MAX));
    Ok(built
        .into_iter()
        .zip(heads)
        .map(|((config, policy, seed, needs_warmup), head)| {
            let sim = Simulation::with_trace(config, policy, seed, Arc::new(head));
            (sim, needs_warmup)
        })
        .collect())
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

    /// A rebuild shares the donor's trace exactly when its effective trace
    /// key matches, and either way runs on the trace `build_sim` makes.
    #[test]
    fn sharing_trace_follows_the_effective_trace_key() {
        let donor_scenario = golden();
        let (donor, _) = donor_scenario.build_sim().unwrap();
        let shares = |s: &Scenario| {
            let (sim, _) = s
                .build_sim_sharing_trace(&donor, donor_scenario.seed)
                .unwrap();
            let (fresh, _) = s.build_sim().unwrap();
            assert_eq!(sim.trace(), fresh.trace());
            std::ptr::eq(sim.trace(), donor.trace())
        };
        let mut other_policy = golden();
        other_policy.policy = "random".into();
        assert!(shares(&other_policy));
        let mut busier = golden();
        busier.utilization = Some(0.68);
        assert!(!shares(&busier));
        let mut reseeded = golden();
        reseeded.seed += 1;
        assert!(!shares(&reseeded));
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
    fn policies_are_sized_to_the_scenario_attack_load_and_battery() {
        // An `attack_load_kw` or `battery_kwh` override must reach the
        // attacker itself, as in the Fig. 12 sweeps, not only the plant:
        // a 0.5 kW myopic attacker that budgets 1 kW per slot quits with
        // charge left, and a foresighted one learns on the wrong grid.
        let mut s = golden();
        s.attack_load_kw = Some(0.5);
        s.battery_kwh = Some(0.4);
        let config = s.build_config().unwrap();
        let sized = |policy: Policy| format!("{policy:?}");
        let myopic =
            MyopicPolicy::with_attack(Power::from_kilowatts(7.4), config.attack_load, config.slot);
        let foresighted = ForesightedPolicy::new(
            14.0,
            config.capacity,
            config.battery.capacity,
            config.battery.max_charge_rate,
            config.attack_load,
            config.slot,
            s.seed,
        );
        for (name, expected) in [
            ("myopic", myopic.into()),
            ("foresighted", foresighted.into()),
        ] {
            let (policy, _) = build_policy(name, &config, s.seed).unwrap();
            assert_eq!(sized(policy), sized(expected), "{name}");
        }
        // At the paper default they are Table I's attackers.
        let config = ColoConfig::paper_default();
        let (myopic, _) = build_policy("myopic", &config, 3).unwrap();
        assert_eq!(
            sized(myopic),
            sized(MyopicPolicy::new(Power::from_kilowatts(7.4)).into())
        );
        let (foresighted, _) = build_policy("foresighted", &config, 3).unwrap();
        assert_eq!(
            sized(foresighted),
            sized(ForesightedPolicy::paper_default(14.0, 3).into())
        );
    }

    #[test]
    fn scenario_run_matches_default_policies_path() {
        // The CLI's sweeps build their trio through default_policies and
        // step a Simulation of each; the server and the CLI's `simulate`
        // build one policy through Scenario::run. Same canonical config
        // must mean identical Metrics.
        let s = golden();
        let config = ColoConfig::paper_default();
        let (name, policy, warmup) = default_policies(&config, s.seed)
            .into_iter()
            .find(|(name, _, _)| name == "myopic")
            .unwrap();
        let mut sim = Simulation::new(config, policy, s.seed);
        if warmup {
            sim.warmup(s.warmup_slots());
        }
        let cli = sim.run(s.slots());
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
        // A duplicate key, a non-finite number, and an integer JSON cannot
        // hold exactly used to parse (to the last value, `inf`, and the
        // nearest double).
        for (body, why) in [
            (
                "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":3,\"seed\":4}",
                "duplicate field \"seed\"",
            ),
            (
                "{\"policy\":\"myopic\",\"cap_w\":1e999}",
                "\"cap_w\" must be a finite",
            ),
            (
                "{\"policy\":\"myopic\",\"seed\":9007199254740993}",
                "\"seed\" overflows",
            ),
            ("{\"policy\":\"myopic\",\"cap_w\":[[90]]}", "nested"),
        ] {
            let err = Scenario::from_flat_json(body).expect_err(body);
            assert!(err.contains(why), "{body}: {err}");
        }
        let max = format!("{{\"policy\":\"myopic\",\"seed\":{}}}", (1u64 << 53) - 1);
        assert_eq!(Scenario::from_flat_json(&max).unwrap().seed, (1 << 53) - 1);
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
        let fields = hbm_telemetry::json::parse_flat_object(&a).unwrap();
        assert_eq!(fields[0].0, "config_hash");
        assert!(fields.iter().any(|(k, _)| k == "attack_slots"));
    }
}
