//! The attacker's end-to-end load estimator.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hbm_units::Power;

use crate::math::{draw_uniform_pair, std_normal};
use crate::{Adc, PduLine, PfcRipple};

/// Number of standard-normal draws consumed by one [`VoltageSideChannel::estimate`].
pub const NORMALS_PER_ESTIMATE: usize = 4;

/// Configuration of the attacker's voltage side channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideChannelConfig {
    /// Electrical model of the shared feed.
    pub line: PduLine,
    /// PFC ripple model.
    pub ripple: PfcRipple,
    /// ADC used on the DC (sag) path.
    pub dc_adc: Adc,
    /// ADC used on the filtered ripple path.
    pub ripple_adc: Adc,
    /// Standard deviation of slow grid-voltage wander, in volts. This is the
    /// dominant disturbance on the DC path.
    pub grid_wander_volts: f64,
    /// Relative calibration error of the attacker's gain estimates (e.g.
    /// 0.02 = gains known to within 2 %).
    pub calibration_error: f64,
    /// Number of raw samples averaged per estimate; averaging shrinks the
    /// per-sample noise by `1/√n`.
    pub samples_per_estimate: u32,
    /// Extra zero-mean Gaussian noise added to the final estimate. Zero by
    /// default; raised to model operator jamming (Section VII-A) and the
    /// Fig. 12(b) sensitivity sweep.
    pub extra_noise: Power,
}

impl SideChannelConfig {
    /// Default calibration matching the paper's "high accuracy" channel
    /// (estimation error within a few hundred watts on an 8 kW feed).
    pub fn paper_default() -> Self {
        SideChannelConfig {
            line: PduLine::paper_default(),
            ripple: PfcRipple::paper_default(),
            dc_adc: Adc::paper_default(),
            ripple_adc: Adc::ripple_default(),
            grid_wander_volts: 0.2,
            calibration_error: 0.015,
            samples_per_estimate: 64,
            extra_noise: Power::ZERO,
        }
    }

    /// Returns a copy with a different extra-noise level (Fig. 12b).
    pub fn with_extra_noise(mut self, noise: Power) -> Self {
        self.extra_noise = noise;
        self
    }
}

/// A stateful estimator of the aggregate PDU load.
///
/// Holds the attacker's RNG (for noise processes) and the slowly varying
/// grid-wander state, so consecutive estimates are realistically correlated.
///
/// # Examples
///
/// ```
/// use hbm_sidechannel::{SideChannelConfig, VoltageSideChannel};
/// use hbm_units::Power;
///
/// let mut sc = VoltageSideChannel::new(SideChannelConfig::paper_default(), 1);
/// let err = sc.estimate(Power::from_kilowatts(5.0)) - Power::from_kilowatts(5.0);
/// assert!(err.abs() < Power::from_kilowatts(0.5));
/// ```
#[derive(Debug, Clone)]
pub struct VoltageSideChannel {
    config: SideChannelConfig,
    rng: StdRng,
    /// Current grid-wander offset in volts (AR(1) process).
    wander: f64,
    /// Multiplicative calibration biases drawn once at setup.
    dc_gain_bias: f64,
    ripple_gain_bias: f64,
}

impl VoltageSideChannel {
    /// Creates a side channel with the given configuration and RNG seed.
    pub fn new(config: SideChannelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let spread = config.calibration_error;
        let dc_gain_bias = 1.0 + spread * std_normal(&mut rng);
        let ripple_gain_bias = 1.0 + spread * std_normal(&mut rng);
        VoltageSideChannel {
            config,
            rng,
            wander: 0.0,
            dc_gain_bias,
            ripple_gain_bias,
        }
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &SideChannelConfig {
        &self.config
    }

    /// Produces one estimate of the aggregate PDU power given the true value.
    ///
    /// Call once per simulation slot; the grid-wander state advances each
    /// call.
    pub fn estimate(&mut self, true_total: Power) -> Power {
        let mut u = [0.0; 2 * NORMALS_PER_ESTIMATE];
        self.draw_uniforms(&mut u);
        let mut z = [0.0; NORMALS_PER_ESTIMATE];
        crate::math::box_muller_slice(
            &u[..NORMALS_PER_ESTIMATE],
            &u[NORMALS_PER_ESTIMATE..],
            &mut z,
        );
        self.estimate_with_normals(true_total, &z)
    }

    /// Draws the `2 ×` [`NORMALS_PER_ESTIMATE`] uniform variates feeding one
    /// estimate into `out` (`u1` values first, then `u2` values).
    ///
    /// The noise processes are independent of the measured load, so the
    /// draws can be hoisted ahead of the measurement: `draw_uniforms` +
    /// Box–Muller + [`estimate_with_normals`](Self::estimate_with_normals)
    /// consumes the RNG identically to [`estimate`](Self::estimate) and
    /// produces bit-identical results. The batch engine uses this split to
    /// run the Box–Muller transform as one packed pass over all lanes.
    pub fn draw_uniforms(&mut self, out: &mut [f64; 2 * NORMALS_PER_ESTIMATE]) {
        for i in 0..NORMALS_PER_ESTIMATE {
            let (u1, u2) = draw_uniform_pair(&mut self.rng);
            out[i] = u1;
            out[NORMALS_PER_ESTIMATE + i] = u2;
        }
    }

    /// Applies the measurement model given pre-drawn standard normals
    /// (see [`draw_uniforms`](Self::draw_uniforms)). Advances the
    /// grid-wander state exactly as [`estimate`](Self::estimate) does.
    ///
    /// The math lives in `crate::lanes::estimate_kernel` — one op-for-op
    /// IEEE-754 sequence shared with the packed
    /// [`ChannelLanes`](crate::ChannelLanes) passes, so scalar and batched
    /// stepping produce bit-identical estimates.
    pub fn estimate_with_normals(
        &mut self,
        true_total: Power,
        z: &[f64; NORMALS_PER_ESTIMATE],
    ) -> Power {
        let p = crate::lanes::LaneParams::derive(
            &self.config,
            self.dc_gain_bias,
            self.ripple_gain_bias,
        );
        Power::from_watts(crate::lanes::estimate_kernel(
            &p,
            &mut self.wander,
            true_total.as_watts(),
            *z,
        ))
    }

    /// The raw RNG state words (for [`ChannelLanes`](crate::ChannelLanes)'s
    /// column-wise layout and checkpoint serialization).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Current grid-wander offset, in volts.
    pub fn wander_volts(&self) -> f64 {
        self.wander
    }

    /// The `(dc, ripple)` calibration biases drawn at setup.
    pub(crate) fn gain_biases(&self) -> (f64, f64) {
        (self.dc_gain_bias, self.ripple_gain_bias)
    }

    /// Overwrites the RNG and wander state (used by
    /// [`ChannelLanes::sync_back`](crate::ChannelLanes::sync_back), checkpoint
    /// restore, and the rejection tests); configuration and calibration
    /// biases are immutable — they re-derive deterministically from the seed
    /// at construction.
    pub fn restore_noise_state(&mut self, rng: [u64; 4], wander: f64) {
        self.rng = StdRng::from_state(rng);
        self.wander = wander;
    }

    /// Runs the channel over a whole series and returns `(estimate, error)`
    /// pairs, as used for the Fig. 5(b) distribution.
    pub fn estimate_series(&mut self, truth: &[Power]) -> Vec<(Power, Power)> {
        truth
            .iter()
            .map(|&p| {
                let est = self.estimate(p);
                (est, est - p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_track_truth() {
        let mut sc = VoltageSideChannel::new(SideChannelConfig::paper_default(), 7);
        for kw in [3.0, 5.0, 6.5, 7.5] {
            let p = Power::from_kilowatts(kw);
            let est = sc.estimate(p);
            assert!(
                (est - p).abs() < Power::from_kilowatts(0.5),
                "estimate {est} too far from {p}"
            );
        }
    }

    #[test]
    fn default_error_mostly_within_five_percent() {
        // The paper's Fig. 5(b) shows tightly concentrated errors; require
        // ≥90 % of estimates within ±5 % at a typical 6 kW operating point.
        let mut sc = VoltageSideChannel::new(SideChannelConfig::paper_default(), 11);
        let truth = vec![Power::from_kilowatts(6.0); 2000];
        let pairs = sc.estimate_series(&truth);
        let within = pairs
            .iter()
            .filter(|(_, e)| e.abs() <= Power::from_kilowatts(0.3))
            .count();
        assert!(
            within as f64 / pairs.len() as f64 > 0.9,
            "only {within}/2000 within ±5 %"
        );
    }

    #[test]
    fn extra_noise_degrades_accuracy() {
        let clean_cfg = SideChannelConfig::paper_default();
        let noisy_cfg = clean_cfg.with_extra_noise(Power::from_kilowatts(0.6));
        let truth = vec![Power::from_kilowatts(6.0); 3000];
        let rmse = |cfg: SideChannelConfig| {
            let mut sc = VoltageSideChannel::new(cfg, 5);
            let pairs = sc.estimate_series(&truth);
            (pairs
                .iter()
                .map(|(_, e)| e.as_kilowatts().powi(2))
                .sum::<f64>()
                / pairs.len() as f64)
                .sqrt()
        };
        let clean = rmse(clean_cfg);
        let noisy = rmse(noisy_cfg);
        assert!(
            noisy > clean * 2.0,
            "jamming should clearly degrade the channel: {clean} vs {noisy}"
        );
    }

    #[test]
    fn estimates_never_negative() {
        let cfg = SideChannelConfig::paper_default().with_extra_noise(Power::from_kilowatts(2.0));
        let mut sc = VoltageSideChannel::new(cfg, 3);
        for _ in 0..500 {
            assert!(sc.estimate(Power::from_kilowatts(0.2)) >= Power::ZERO);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SideChannelConfig::paper_default();
        let mut a = VoltageSideChannel::new(cfg, 9);
        let mut b = VoltageSideChannel::new(cfg, 9);
        for kw in [1.0, 4.0, 7.0] {
            let p = Power::from_kilowatts(kw);
            assert_eq!(a.estimate(p), b.estimate(p));
        }
    }

    #[test]
    fn split_estimate_matches_monolithic() {
        let cfg = SideChannelConfig::paper_default().with_extra_noise(Power::from_kilowatts(0.1));
        let mut whole = VoltageSideChannel::new(cfg, 21);
        let mut split = VoltageSideChannel::new(cfg, 21);
        for kw in [2.0, 4.5, 6.0, 7.8, 0.3] {
            let p = Power::from_kilowatts(kw);
            let mut u = [0.0; 2 * NORMALS_PER_ESTIMATE];
            split.draw_uniforms(&mut u);
            let mut z = [0.0; NORMALS_PER_ESTIMATE];
            crate::math::box_muller_slice(
                &u[..NORMALS_PER_ESTIMATE],
                &u[NORMALS_PER_ESTIMATE..],
                &mut z,
            );
            let a = whole.estimate(p);
            let b = split.estimate_with_normals(p, &z);
            assert_eq!(a.as_watts().to_bits(), b.as_watts().to_bits());
        }
    }
}
