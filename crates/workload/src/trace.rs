//! Synthetic tenant power-trace generation.

use rand::rngs::{xoshiro256pp, StdRng};
use rand::SeedableRng;

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
/// shape, slot and length step in lockstep, up to eight side by side: the
/// seed-independent profile (day, phase, diurnal value, weekly factor) is
/// computed once per block of slots for all of them, and each draws its own
/// noise from its own generator.
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
    for group in order.chunk_by(|&a, &b| profile_key(&configs[a]) == profile_key(&configs[b])) {
        let kept = keep.min(configs[group[0]].len);
        for chunk in group.chunks(GROUP_WIDTH) {
            let lanes: Vec<&TraceConfig> = chunk.iter().map(|&i| &configs[i]).collect();
            let done = if let [_] = chunk {
                synthesize::<1>(&lanes, kept)
            } else {
                synthesize::<GROUP_WIDTH>(&lanes, kept)
            };
            for (&i, trace) in chunk.iter().zip(done) {
                traces[i] = Some(trace);
            }
        }
    }
    traces
        .into_iter()
        .map(|t| t.expect("every config is in one group"))
        .collect()
}

/// Lanes of the kernel for a lockstep group; a lone trace runs at width 1.
const GROUP_WIDTH: usize = 8;

/// Slots per block: the profile pass fills a block before the noise pass
/// steps every lane through it.
const BLOCK: usize = 64;

/// Synthesizes `configs`, at most `W` that share shape, slot and length,
/// side by side, and returns each one's first `kept` samples rescaled by
/// its whole trace's mean and peak onto its targets.
///
/// Lane `i` holds one trace's generator words and noise state in column
/// `i` of each array. Lanes past `configs.len()` replay the first config
/// and their output is dropped.
fn synthesize<const W: usize>(configs: &[&TraceConfig], kept: usize) -> Vec<PowerTrace> {
    debug_assert!((1..=W).contains(&configs.len()));
    let first = configs[0];
    let params = ShapeParams::for_shape(first.shape);
    let burst_chance = params.burst_rate_per_slot * first.slot.as_hours() * 60.0;
    let mut profile = Profile::new(&params, first.slot.as_hours());
    let mut rng = [[0u64; W]; 4];
    for i in 0..W {
        let config = configs.get(i).unwrap_or(&first);
        let state = StdRng::seed_from_u64(config.seed ^ shape_salt(config.shape)).state();
        for (words, word) in rng.iter_mut().zip(state) {
            words[i] = word;
        }
    }
    let (mut ar, mut burst) = ([0.0; W], [0.0; W]);
    let (mut sum, mut peak) = ([0.0; W], [0.0; W]);
    let mut heads: Vec<Vec<Power>> = configs.iter().map(|_| Vec::with_capacity(kept)).collect();
    let mut block = [0.0; BLOCK];
    // The block's samples, slot-major; stored into the heads after the
    // block, so the slot loop makes no call and its state stays in
    // registers.
    let mut samples = [[0.0; W]; BLOCK];
    for k0 in (0..first.len).step_by(BLOCK) {
        let block = &mut block[..BLOCK.min(first.len - k0)];
        profile.fill(k0, block);
        for (&base, p) in block.iter().zip(&mut samples) {
            let u = draw(&mut rng);
            for i in 0..W {
                ar[i] = params.ar_coeff * ar[i] + params.ar_sigma * u[i].mul_add(2.0, -1.0);
            }
            let u = draw(&mut rng);
            let bursting: [bool; W] = std::array::from_fn(|i| u[i] < burst_chance);
            if bursting.contains(&true) {
                // The third draw advances only the lanes that burst.
                let mut next = rng;
                let u = draw(&mut next);
                for i in (0..W).filter(|&i| bursting[i]) {
                    for (words, next) in rng.iter_mut().zip(&next) {
                        words[i] = next[i];
                    }
                    burst[i] += params.burst_height * (0.5 + u[i]);
                }
            }
            for i in 0..W {
                burst[i] *= params.burst_decay;
                p[i] = (base + ar[i] + burst[i]).max(0.0);
                sum[i] += p[i];
                peak[i] = f64::max(peak[i], p[i]);
            }
        }
        let stored = &samples[..kept.saturating_sub(k0).min(block.len())];
        for (i, head) in heads.iter_mut().enumerate() {
            head.extend(stored.iter().map(|p| Power::from_watts(p[i])));
        }
    }
    configs
        .iter()
        .zip(heads)
        .zip(sum.into_iter().zip(peak))
        .map(|((config, mut head), (sum, peak))| {
            let mean = Power::from_watts(sum) / config.len as f64;
            let peak = Power::from_watts(peak);
            rescale_in_place(&mut head, mean, peak, config.mean, config.peak);
            PowerTrace::new(config.slot, head)
        })
        .collect()
}

/// One xoshiro256++ step of every lane, as uniforms in `[0, 1)`: lane for
/// lane exactly what `random::<f64>()` draws from that lane's generator.
#[inline(always)]
fn draw<const W: usize>(rng: &mut [[u64; W]; 4]) -> [f64; W] {
    let mut u = [0.0; W];
    for i in 0..W {
        let mut s = [rng[0][i], rng[1][i], rng[2][i], rng[3][i]];
        u[i] = (xoshiro256pp(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        for (words, word) in rng.iter_mut().zip(s) {
            words[i] = word;
        }
    }
    u
}

/// The seed-independent part of every lane's samples, the diurnal profile
/// scaled by the weekly factor, computed one block of slots at a time.
///
/// The diurnal values are memoized per call, indexed by the slot's position
/// within its day and keyed by the exact bits of the day phase, so a cached
/// value is the very value the profile would compute. Days that start on
/// the same phase repeat their phases position for position (a year of
/// 1-minute slots has ~12.4 k distinct phases against 525.6 k slots).
///
/// One entry per position; a phase that differs from the stored one
/// replaces it. Positions past [`Profile::MAX_ENTRIES`] are evaluated
/// directly, so memory stays bounded for very short slots.
struct Profile<'a> {
    params: &'a ShapeParams,
    slot_hours: f64,
    /// Memo keys: the phase bits stored at each position of the day.
    keys: Vec<u64>,
    /// Memo values: the diurnal profile at each stored phase.
    values: Vec<f64>,
    /// The current day, the next slot's position within it, and its weekly
    /// factor.
    day: u64,
    at: usize,
    weekly: f64,
}

impl<'a> Profile<'a> {
    const MAX_ENTRIES: usize = 1 << 15;

    fn new(params: &'a ShapeParams, slot_hours: f64) -> Self {
        Profile {
            params,
            slot_hours,
            keys: Vec::new(),
            values: Vec::new(),
            day: u64::MAX,
            at: 0,
            weekly: 1.0,
        }
    }

    /// Fills `out` with the profile of slots `k0, k0 + 1, …`, which must
    /// follow the slots of the previous call.
    ///
    /// A block inside one day whose phases all match the stored keys reads
    /// its values in one comparison; any other block walks the memo slot by
    /// slot.
    fn fill(&mut self, k0: usize, out: &mut [f64]) {
        let n = out.len();
        // Floors stay `f64` here: a saturating `as u64` does not vectorize,
        // so it runs once per block, or per slot off the fast path.
        let mut phases = [0u64; BLOCK];
        let mut days = [0.0; BLOCK];
        for (k, (phase, day)) in (k0..).zip(phases.iter_mut().zip(&mut days)).take(n) {
            let d = k as f64 * self.slot_hours / 24.0;
            *phase = d.fract().to_bits();
            *day = d.floor();
        }
        let (phases, days) = (&phases[..n], &days[..n]);
        let (base, amplitude) = (self.params.base, self.params.amplitude);
        if days[0] == days[n - 1] {
            self.enter(days[0] as u64);
            let span = self.at..self.at + n;
            if self.keys.get(span.clone()) == Some(phases) {
                for (o, &diurnal) in out.iter_mut().zip(&self.values[span]) {
                    *o = (base + amplitude * diurnal) * self.weekly;
                }
                self.at += n;
                return;
            }
        }
        for ((o, &phase), &day) in out.iter_mut().zip(phases).zip(days) {
            self.enter(day as u64);
            let diurnal = self.diurnal(phase);
            *o = (base + amplitude * diurnal) * self.weekly;
        }
    }

    /// Moves to day `d`, restarting the position count when it is a new day.
    fn enter(&mut self, d: u64) {
        if d != self.day {
            self.day = d;
            self.at = 0;
            self.weekly = if d % 7 >= 5 {
                self.params.weekend_factor
            } else {
                1.0
            };
        }
    }

    /// The diurnal profile at the phase with bits `key`, the phase of the
    /// slot at the current position, through the memo; moves to the next
    /// position.
    fn diurnal(&mut self, key: u64) -> f64 {
        let at = self.at;
        self.at += 1;
        let phase = f64::from_bits(key);
        match self.keys.get_mut(at) {
            Some(k) => {
                if *k != key {
                    *k = key;
                    self.values[at] = self.params.daily.at(phase);
                }
                self.values[at]
            }
            None => {
                let value = self.params.daily.at(phase);
                if at < Self::MAX_ENTRIES {
                    debug_assert_eq!(at, self.keys.len());
                    self.keys.push(key);
                    self.values.push(value);
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
    daily: DailyCurve,
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
                daily: DailyCurve::new(&[(1.0, 1.0, -1.83), (2.0, 0.25, 0.4)], 2.2),
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
                daily: DailyCurve::new(&[(1.0, 1.0, 0.2), (3.0, 0.35, 1.3)], 0.8),
            },
        }
    }
}

/// A shape's diurnal profile: a sum of harmonics, soft-saturated.
struct DailyCurve {
    /// Diurnal harmonics: (harmonic, weight, phase).
    harmonics: &'static [(f64, f64, f64)],
    /// The harmonics' summed weight, which scales their sum into [-1, 1].
    total_weight: f64,
    /// Soft-saturation gain: larger values flatten the daily curve into the
    /// load plateaus characteristic of interactive production traffic
    /// (the paper's Fig. 6b hovers near capacity through the working day).
    plateau_gain: f64,
    /// `plateau_gain.tanh()`, which scales the saturated curve back onto
    /// [-1, 1].
    plateau_norm: f64,
}

impl DailyCurve {
    fn new(harmonics: &'static [(f64, f64, f64)], plateau_gain: f64) -> Self {
        DailyCurve {
            harmonics,
            total_weight: harmonics.iter().map(|h| h.1).sum(),
            plateau_gain,
            plateau_norm: plateau_gain.tanh(),
        }
    }

    /// The profile in [-1, 1] at `phase` ∈ [0, 1) of the day.
    fn at(&self, phase: f64) -> f64 {
        let two_pi = std::f64::consts::TAU;
        let raw = self
            .harmonics
            .iter()
            .map(|&(harm, w, ph)| w * (two_pi * harm * phase + ph).sin())
            .sum::<f64>()
            / self.total_weight;
        // Soft saturation flattens the peaks into plateaus.
        (self.plateau_gain * raw).tanh() / self.plateau_norm
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
        let mut profile = Profile::new(&params, slot_hours);
        let mut block = [0.0; BLOCK];
        for k0 in (0..2 * 86_400).step_by(BLOCK) {
            profile.fill(k0, &mut block);
            for (k, got) in (k0..).zip(block) {
                let phase = (k as f64 * slot_hours / 24.0).fract();
                let want = params.base + params.amplitude * params.daily.at(phase);
                assert_eq!(got.to_bits(), want.to_bits(), "slot {k}");
            }
        }
        assert_eq!(profile.keys.len(), Profile::MAX_ENTRIES);
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
