//! Synthetic tenant power-trace generation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use hbm_units::{Duration, Power};

/// Shape family of a synthetic power trace.
///
/// Both shapes are stand-ins for the paper's proprietary traces; what matters
/// for the attack study is the *statistical character* — how often and how
/// long the aggregate load dwells near the capacity, which is when thermal
/// attacks are worthwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceShape {
    /// Interactive web traffic (Facebook/Baidu-like): pronounced diurnal
    /// swing, mild weekend dip, moderate noise. Used for the default
    /// evaluation (Fig. 6b).
    FacebookBaidu,
    /// Batch-heavy cluster profile (Google-like): flatter baseline with
    /// irregular, bursty excursions. Used for the alternate-trace study
    /// (Fig. 13).
    Google,
}

impl TraceShape {
    /// All shape families, for sweeps.
    pub const ALL: [TraceShape; 2] = [TraceShape::FacebookBaidu, TraceShape::Google];
}

impl std::fmt::Display for TraceShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceShape::FacebookBaidu => f.write_str("facebook-baidu"),
            TraceShape::Google => f.write_str("google"),
        }
    }
}

/// Configuration of a synthetic power trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Shape family.
    pub shape: TraceShape,
    /// RNG seed; identical configs yield identical traces.
    pub seed: u64,
    /// Length of one slot.
    pub slot: Duration,
    /// Number of slots to generate.
    pub len: usize,
    /// Target mean power after scaling.
    pub mean: Power,
    /// Target peak power after scaling (the paper pins the peak at capacity).
    pub peak: Power,
}

impl TraceConfig {
    /// One year of 1-minute slots for the benign tenants of the paper's 8 kW
    /// colocation: three tenants × 2.4 kW subscribed, scaled so the *total*
    /// (with the attacker's 0.8 kW subscription near-fully used) averages
    /// 75 % of 8 kW.
    pub fn paper_default_year(seed: u64) -> Self {
        TraceConfig {
            shape: TraceShape::FacebookBaidu,
            seed,
            slot: Duration::from_minutes(1.0),
            len: 365 * 24 * 60,
            // Benign mean so that benign + attacker draw ≈ 6 kW (75 % of
            // the 8 kW capacity, the paper's average utilization).
            mean: Power::from_kilowatts(5.7),
            peak: Power::from_kilowatts(7.2),
        }
    }

    /// Same horizon and scaling, but the alternate Google-like shape
    /// (Section VI-F).
    pub fn paper_alternate_year(seed: u64) -> Self {
        TraceConfig {
            shape: TraceShape::Google,
            ..TraceConfig::paper_default_year(seed)
        }
    }

    /// Returns a copy with a different mean (utilization sweeps, Fig. 12d).
    pub fn with_mean(mut self, mean: Power) -> Self {
        self.mean = mean;
        self
    }

    /// Returns a copy with a different length.
    pub fn with_len(mut self, len: usize) -> Self {
        self.len = len;
        self
    }
}

/// A slotted power trace.
///
/// Stores one aggregate power sample per slot. Indexing past the end wraps
/// around, so shorter generated traces can drive longer simulations (and the
/// year-long experiments can be smoke-tested with day-long traces).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    slot: Duration,
    samples: Vec<Power>,
}

impl PowerTrace {
    /// Creates a trace from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `slot` is non-positive.
    pub fn new(slot: Duration, samples: Vec<Power>) -> Self {
        assert!(!samples.is_empty(), "power trace must not be empty");
        assert!(slot > Duration::ZERO, "slot duration must be positive");
        PowerTrace { slot, samples }
    }

    /// Length of one slot.
    pub fn slot(&self) -> Duration {
        self.slot
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace has no samples (never true for constructed traces).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Power during slot `k`, wrapping past the end.
    pub fn get(&self, k: usize) -> Power {
        self.samples[k % self.samples.len()]
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Power> {
        self.samples.iter()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[Power] {
        &self.samples
    }

    /// Mean power over the trace.
    pub fn mean(&self) -> Power {
        self.samples.iter().copied().sum::<Power>() / self.samples.len() as f64
    }

    /// Maximum power over the trace.
    pub fn peak(&self) -> Power {
        self.samples.iter().copied().fold(Power::ZERO, Power::max)
    }

    /// Minimum power over the trace.
    pub fn floor(&self) -> Power {
        self.samples
            .iter()
            .copied()
            .fold(Power::from_kilowatts(f64::INFINITY), Power::min)
    }

    /// Mean utilization relative to `capacity`.
    pub fn mean_utilization(&self, capacity: Power) -> f64 {
        self.mean() / capacity
    }

    /// Returns a copy scaled by a constant factor.
    pub fn scaled(&self, factor: f64) -> PowerTrace {
        PowerTrace {
            slot: self.slot,
            samples: self.samples.iter().map(|&p| p * factor).collect(),
        }
    }

    /// Rescales the trace affinely so its mean and peak match the targets,
    /// clamping at zero (the paper scales traces to 75 % mean utilization
    /// while "maintaining the peak power at 8 kW").
    pub fn rescale(&self, mean: Power, peak: Power) -> PowerTrace {
        let mut samples = self.samples.clone();
        rescale_in_place(&mut samples, self.mean(), self.peak(), mean, peak);
        PowerTrace {
            slot: self.slot,
            samples,
        }
    }

    /// Fraction of slots with power at or above `threshold`.
    pub fn fraction_at_or_above(&self, threshold: Power) -> f64 {
        let n = self.samples.iter().filter(|&&p| p >= threshold).count();
        n as f64 / self.samples.len() as f64
    }
}

impl<'a> IntoIterator for &'a PowerTrace {
    type Item = &'a Power;
    type IntoIter = std::slice::Iter<'a, Power>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// Maps `samples` affinely from their current `mean`/`peak` onto the
/// targets, clamping at zero; a degenerate flat trace is set to the mean
/// target.
fn rescale_in_place(
    samples: &mut [Power],
    current_mean: Power,
    current_peak: Power,
    mean: Power,
    peak: Power,
) {
    let m = current_mean.as_watts();
    let hi = current_peak.as_watts();
    if (hi - m).abs() < f64::EPSILON {
        samples.fill(mean);
    } else {
        let b = (peak.as_watts() - mean.as_watts()) / (hi - m);
        let a = mean.as_watts() - b * m;
        for p in samples {
            *p = Power::from_watts((a + b * p.as_watts()).max(0.0));
        }
    }
}

/// Generates a synthetic power trace for the given configuration.
///
/// The raw shape is built from (a) a diurnal profile, (b) a weekly factor,
/// (c) AR(1) noise, and (d) exponentially decaying bursts, then affinely
/// rescaled to the requested mean and peak.
///
/// The result is bit-identical to building the raw samples and calling
/// [`PowerTrace::rescale`]: the running sum and peak fold the samples in
/// the same order, from zero, as [`PowerTrace::mean`] and
/// [`PowerTrace::peak`] do, and the diurnal memo returns exactly what the
/// profile would compute for the same phase bits.
///
/// # Examples
///
/// ```
/// use hbm_workload::{generate, TraceConfig};
///
/// let cfg = TraceConfig::paper_default_year(1).with_len(1440);
/// let t1 = generate(&cfg);
/// let t2 = generate(&cfg);
/// assert_eq!(t1, t2); // fully reproducible
/// ```
///
/// # Panics
///
/// Panics if `config.len` is zero or `config.slot` is non-positive.
pub fn generate(config: &TraceConfig) -> PowerTrace {
    let mut traces = generate_heads(std::slice::from_ref(config), config.len);
    traces.pop().expect("one config gives one trace")
}

/// Synthesizes the traces of `configs` in one pass and returns, in input
/// order, the *head* of each: its first `min(keep, len)` samples, bit for
/// bit the first samples of [`generate`] on the same config.
///
/// Every slot is still synthesized, since the rescale needs the whole
/// trace's mean and peak, but only the head is stored. Configs that share
/// shape, slot and length step in lockstep: the seed-independent profile
/// (day, phase, diurnal value, weekly factor) is computed once per slot for
/// all of them, and each draws its own noise from its own generator.
///
/// A head trace wraps at its own length, not at `len`, so it drives a run
/// exactly like the full trace only while the run reads at most `keep`
/// slots.
///
/// # Examples
///
/// ```
/// use hbm_workload::{generate, generate_heads, TraceConfig};
///
/// let configs: Vec<_> = (1..=3)
///     .map(|seed| TraceConfig::paper_default_year(seed).with_len(2880))
///     .collect();
/// let heads = generate_heads(&configs, 1440);
/// assert_eq!(heads[2].samples(), &generate(&configs[2]).samples()[..1440]);
/// ```
///
/// # Panics
///
/// Panics if any `len` or `keep` is zero, or a `slot` is non-positive.
pub fn generate_heads(configs: &[TraceConfig], keep: usize) -> Vec<PowerTrace> {
    assert!(
        configs.iter().all(|c| c.len > 0),
        "trace length must be positive"
    );
    assert!(keep > 0, "a head trace must keep at least one sample");
    let profile_key = |c: &TraceConfig| (shape_salt(c.shape), c.slot.as_seconds().to_bits(), c.len);
    let mut order: Vec<usize> = (0..configs.len()).collect();
    order.sort_by_key(|&i| profile_key(&configs[i]));
    let mut traces = vec![None; configs.len()];
    let mut finish = |i: usize, lane: Lane| traces[i] = Some(lane.finish(&configs[i]));
    for group in order.chunk_by(|&a, &b| profile_key(&configs[a]) == profile_key(&configs[b])) {
        let first = &configs[group[0]];
        let kept = keep.min(first.len);
        let lane = |&i: &usize| Lane::new(&configs[i], kept);
        // A lone lane steps in a stack array, where its state can stay in
        // registers: from a `Vec`, one year took 3–8 % longer (medians of
        // 61, four runs), and the array matches the old one-trace loop.
        if let [only] = group {
            let [done] = lockstep(first, [lane(only)], kept);
            finish(*only, done);
        } else {
            let lanes = lockstep(first, group.iter().map(lane).collect::<Vec<_>>(), kept);
            for (&i, done) in group.iter().zip(lanes) {
                finish(i, done);
            }
        }
    }
    traces
        .into_iter()
        .map(|t| t.expect("every config is in one group"))
        .collect()
}

/// One trace of a lockstep pass: its generator, noise state, running
/// sum and peak, and the head stored so far.
struct Lane {
    rng: StdRng,
    ar: f64,
    burst: f64,
    sum: Power,
    peak: Power,
    head: Vec<Power>,
}

impl Lane {
    /// The lane of `config` before its first slot, with room for `kept`
    /// samples.
    fn new(config: &TraceConfig, kept: usize) -> Lane {
        Lane {
            rng: StdRng::seed_from_u64(config.seed ^ shape_salt(config.shape)),
            ar: 0.0,
            burst: 0.0,
            sum: Power::ZERO,
            peak: Power::ZERO,
            head: Vec::with_capacity(kept),
        }
    }

    /// The head, rescaled by the whole trace's mean and peak onto
    /// `config`'s targets.
    fn finish(mut self, config: &TraceConfig) -> PowerTrace {
        let mean = self.sum / config.len as f64;
        rescale_in_place(&mut self.head, mean, self.peak, config.mean, config.peak);
        PowerTrace::new(config.slot, self.head)
    }
}

/// Steps `lanes`, whose configs share `first`'s shape, slot and length,
/// through every slot, storing each lane's samples of slots before `kept`.
fn lockstep<L: AsMut<[Lane]>>(first: &TraceConfig, mut lanes: L, kept: usize) -> L {
    let params = ShapeParams::for_shape(first.shape);
    let slot_hours = first.slot.as_hours();
    let burst_chance = params.burst_rate_per_slot * slot_hours * 60.0;
    let mut memo = DiurnalMemo::default();
    // The current day, the slot's position within it, and its weekly factor.
    let mut day = u64::MAX;
    let mut at = 0;
    let mut weekly = 1.0;
    for k in 0..first.len {
        let days = k as f64 * slot_hours / 24.0;
        let day_phase = days.fract();
        let d = days.floor() as u64;
        if d != day {
            day = d;
            at = 0;
            weekly = if d % 7 >= 5 {
                params.weekend_factor
            } else {
                1.0
            };
        }
        let diurnal = memo.diurnal(&params, at, day_phase);
        at += 1;
        let profile = (params.base + params.amplitude * diurnal) * weekly;

        for lane in lanes.as_mut() {
            let rng = &mut lane.rng;
            lane.ar = params.ar_coeff * lane.ar
                + params.ar_sigma * rng.random::<f64>().mul_add(2.0, -1.0);
            if rng.random::<f64>() < burst_chance {
                lane.burst += params.burst_height * (0.5 + rng.random::<f64>());
            }
            lane.burst *= params.burst_decay;

            let p = Power::from_watts((profile + lane.ar + lane.burst).max(0.0));
            lane.sum += p;
            lane.peak = lane.peak.max(p);
            if k < kept {
                lane.head.push(p);
            }
        }
    }
    lanes
}

/// Per-call memo of [`ShapeParams::diurnal`], indexed by the slot's
/// position within its day and keyed by the exact bits of the day phase,
/// so a cached value is the very value the profile would compute. Days
/// that start on the same phase repeat their phases position for position
/// (a year of 1-minute slots has ~12.4 k distinct phases against 525.6 k
/// slots), and the table is read in order.
///
/// One entry per position; a phase that differs from the stored one
/// replaces it. Positions past [`DiurnalMemo::MAX_ENTRIES`] are evaluated
/// directly, so memory stays bounded for very short slots.
#[derive(Default)]
struct DiurnalMemo {
    entries: Vec<(u64, f64)>,
}

impl DiurnalMemo {
    const MAX_ENTRIES: usize = 1 << 15;

    /// The profile at `phase`, the day phase of the slot at position `at`
    /// of its day. Positions run 0, 1, 2, … within each day.
    fn diurnal(&mut self, params: &ShapeParams, at: usize, phase: f64) -> f64 {
        let key = phase.to_bits();
        match self.entries.get_mut(at) {
            Some((k, value)) => {
                if *k != key {
                    *k = key;
                    *value = params.diurnal(phase);
                }
                *value
            }
            None => {
                let value = params.diurnal(phase);
                if at < Self::MAX_ENTRIES {
                    debug_assert_eq!(at, self.entries.len());
                    self.entries.push((key, value));
                }
                value
            }
        }
    }
}

fn shape_salt(shape: TraceShape) -> u64 {
    match shape {
        TraceShape::FacebookBaidu => 0x6662,
        TraceShape::Google => 0x676f6f,
    }
}

/// Internal knobs for each shape family, in arbitrary pre-scaling units.
struct ShapeParams {
    base: f64,
    amplitude: f64,
    weekend_factor: f64,
    ar_coeff: f64,
    ar_sigma: f64,
    burst_rate_per_slot: f64,
    burst_height: f64,
    burst_decay: f64,
    /// Diurnal harmonics: (harmonic, weight, phase).
    harmonics: &'static [(f64, f64, f64)],
    /// Soft-saturation gain: larger values flatten the daily curve into the
    /// load plateaus characteristic of interactive production traffic
    /// (the paper's Fig. 6b hovers near capacity through the working day).
    plateau_gain: f64,
}

impl ShapeParams {
    fn for_shape(shape: TraceShape) -> Self {
        match shape {
            TraceShape::FacebookBaidu => ShapeParams {
                base: 100.0,
                amplitude: 55.0,
                weekend_factor: 0.93,
                ar_coeff: 0.97,
                ar_sigma: 0.7,
                burst_rate_per_slot: 0.0006,
                burst_height: 4.0,
                burst_decay: 0.93,
                // Single dominant daily cycle peaking early afternoon, with
                // a shoulder.
                harmonics: &[(1.0, 1.0, -1.83), (2.0, 0.25, 0.4)],
                plateau_gain: 2.2,
            },
            TraceShape::Google => ShapeParams {
                base: 120.0,
                amplitude: 22.0,
                weekend_factor: 0.97,
                ar_coeff: 0.90,
                ar_sigma: 3.2,
                burst_rate_per_slot: 0.0035,
                burst_height: 22.0,
                burst_decay: 0.965,
                // Weak daily cycle; load dominated by batch bursts.
                harmonics: &[(1.0, 1.0, 0.2), (3.0, 0.35, 1.3)],
                plateau_gain: 0.8,
            },
        }
    }

    /// Diurnal profile in [-1, 1] at `phase` ∈ [0, 1) of the day.
    fn diurnal(&self, phase: f64) -> f64 {
        let two_pi = std::f64::consts::TAU;
        let total_weight: f64 = self.harmonics.iter().map(|h| h.1).sum();
        let raw = self
            .harmonics
            .iter()
            .map(|&(harm, w, ph)| w * (two_pi * harm * phase + ph).sin())
            .sum::<f64>()
            / total_weight;
        // Soft saturation flattens the peaks into plateaus.
        (self.plateau_gain * raw).tanh() / self.plateau_gain.tanh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_config(shape: TraceShape, seed: u64) -> TraceConfig {
        TraceConfig {
            shape,
            seed,
            slot: Duration::from_minutes(1.0),
            len: 7 * 1440,
            mean: Power::from_kilowatts(5.2),
            peak: Power::from_kilowatts(7.2),
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = day_config(TraceShape::FacebookBaidu, 42);
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = TraceConfig { seed: 43, ..cfg };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn shapes_differ() {
        let a = generate(&day_config(TraceShape::FacebookBaidu, 42));
        let b = generate(&day_config(TraceShape::Google, 42));
        assert_ne!(a, b);
    }

    #[test]
    fn scaling_hits_mean_and_peak() {
        for shape in TraceShape::ALL {
            let cfg = day_config(shape, 11);
            let t = generate(&cfg);
            assert!(
                (t.mean().as_kilowatts() - 5.2).abs() < 0.15,
                "{shape}: mean {} off target",
                t.mean()
            );
            assert!(
                (t.peak().as_kilowatts() - 7.2).abs() < 0.05,
                "{shape}: peak {} off target",
                t.peak()
            );
        }
    }

    #[test]
    fn no_negative_power() {
        for shape in TraceShape::ALL {
            let t = generate(&day_config(shape, 3));
            assert!(t.iter().all(|&p| p >= Power::ZERO));
        }
    }

    #[test]
    fn facebook_shape_has_strong_diurnal_swing() {
        let t = generate(&day_config(TraceShape::FacebookBaidu, 5));
        // Average by hour-of-day over the week; peak-hour vs trough-hour
        // spread should be substantial for interactive traffic.
        let mut by_hour = [0.0_f64; 24];
        for (k, p) in t.iter().enumerate() {
            by_hour[(k / 60) % 24] += p.as_kilowatts();
        }
        let hi = by_hour.iter().cloned().fold(f64::MIN, f64::max);
        let lo = by_hour.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (hi - lo) / hi > 0.25,
            "diurnal swing too weak: hi={hi} lo={lo}"
        );
    }

    #[test]
    fn google_shape_is_flatter_than_facebook() {
        let fb = generate(&day_config(TraceShape::FacebookBaidu, 5));
        let gg = generate(&day_config(TraceShape::Google, 5));
        let swing = |t: &PowerTrace| {
            let mut by_hour = [0.0_f64; 24];
            for (k, p) in t.iter().enumerate() {
                by_hour[(k / 60) % 24] += p.as_kilowatts();
            }
            let hi = by_hour.iter().cloned().fold(f64::MIN, f64::max);
            let lo = by_hour.iter().cloned().fold(f64::MAX, f64::min);
            (hi - lo) / hi
        };
        assert!(
            swing(&gg) < swing(&fb),
            "google {} should be flatter than facebook {}",
            swing(&gg),
            swing(&fb)
        );
    }

    #[test]
    fn diurnal_memo_stops_at_the_cap() {
        // 1 s slots: 86 400 positions a day, past the 2^15-entry cap, so
        // the day's tail is evaluated directly and the table stops growing.
        let params = ShapeParams::for_shape(TraceShape::FacebookBaidu);
        let slot_hours = Duration::from_seconds(1.0).as_hours();
        let per_day = 86_400;
        let mut memo = DiurnalMemo::default();
        for k in 0..2 * per_day {
            let phase = (k as f64 * slot_hours / 24.0).fract();
            let got = memo.diurnal(&params, k % per_day, phase);
            assert_eq!(got.to_bits(), params.diurnal(phase).to_bits(), "slot {k}");
        }
        assert_eq!(memo.entries.len(), DiurnalMemo::MAX_ENTRIES);
    }

    #[test]
    fn wrapping_index() {
        let t = PowerTrace::new(
            Duration::from_minutes(1.0),
            vec![Power::from_watts(1.0), Power::from_watts(2.0)],
        );
        assert_eq!(t.get(0), t.get(2));
        assert_eq!(t.get(1), t.get(31));
    }

    #[test]
    fn fraction_at_or_above() {
        let t = PowerTrace::new(
            Duration::from_minutes(1.0),
            vec![
                Power::from_kilowatts(1.0),
                Power::from_kilowatts(2.0),
                Power::from_kilowatts(3.0),
                Power::from_kilowatts(4.0),
            ],
        );
        assert_eq!(t.fraction_at_or_above(Power::from_kilowatts(3.0)), 0.5);
        assert_eq!(t.fraction_at_or_above(Power::from_kilowatts(5.0)), 0.0);
        assert_eq!(t.fraction_at_or_above(Power::ZERO), 1.0);
    }

    #[test]
    fn rescale_flat_trace() {
        let t = PowerTrace::new(
            Duration::from_minutes(1.0),
            vec![Power::from_kilowatts(1.0); 10],
        );
        let r = t.rescale(Power::from_kilowatts(6.0), Power::from_kilowatts(8.0));
        assert_eq!(r.mean(), Power::from_kilowatts(6.0));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_rejected() {
        let _ = PowerTrace::new(Duration::from_minutes(1.0), Vec::new());
    }
}
