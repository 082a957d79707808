//! Structure-of-arrays batch layout for many voltage side channels.
//!
//! [`ChannelLanes`] holds N independent [`VoltageSideChannel`]s column-wise:
//! the xoshiro256++ state words, the AR(1) grid-wander state, and the
//! measurement-model parameters (flattened to plain `f64` invariants) each
//! live in their own dense array. The per-slot work then runs as two packed
//! passes over the lane dimension — [`draw_all`](ChannelLanes::draw_all)
//! steps every lane's generator in lockstep and
//! [`estimate_all`](ChannelLanes::estimate_all) applies the measurement
//! model — which LLVM auto-vectorizes because every load is unit-stride and
//! every op is a plain lane-wise `u64`/`f64` expression (no libm, no
//! `mul_add`).
//!
//! # Determinism contract
//!
//! Lane `i` consumes its RNG and computes its estimates with exactly the
//! operation sequence of the scalar channel it was built from:
//!
//! * [`VoltageSideChannel::estimate_with_normals`] routes through the same
//!   [`estimate_kernel`] the packed pass inlines, so scalar and batched
//!   estimates are the same IEEE-754 op sequence;
//! * the packed RNG sweep applies the textbook xoshiro256++ update per lane
//!   (same ops as the scalar generator), and the one-in-2⁵³
//!   subnormal-rejection case is replayed per lane from the saved pre-sweep
//!   state, reproducing the scalar rejection loop exactly.
//!
//! Results are therefore bit-identical whether a lane is stepped here or on
//! the source channel, at any batch width.

use rand::rngs::{xoshiro256pp, StdRng};

use hbm_units::Power;

use crate::channel::{SideChannelConfig, VoltageSideChannel, NORMALS_PER_ESTIMATE};
use crate::math::draw_uniform_pair;

/// `2⁻⁵³`, the scale mapping a 53-bit integer to a uniform in `[0, 1)`
/// (matches the vendored generator's `f64` sampling).
const U53_SCALE: f64 = 1.0 / 9_007_199_254_740_992.0;

/// The measurement model of one channel, flattened to the plain `f64`
/// invariants the hot kernel needs.
///
/// Derived from [`SideChannelConfig`] by [`LaneParams::derive`] — the same
/// derivation (and therefore bit-identical values) no matter how often or
/// where it runs, so precomputing at batch build time is value-identical to
/// the scalar channel re-deriving per call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneParams {
    /// Grid-wander innovation scale, `grid_wander_volts · 0.1`.
    pub wander_step: f64,
    pub nominal_volts: f64,
    pub cable_ohms: f64,
    pub dc_min_v: f64,
    pub dc_max_v: f64,
    pub dc_lsb_v: f64,
    /// `levels − 1` of the DC ADC, exactly representable (≤ 2²⁴ − 1).
    pub dc_levels_m1: f64,
    /// DC sampling-noise scale, `dc_lsb_v / √samples_per_estimate`.
    pub dc_noise_v: f64,
    pub rip_baseline_mv: f64,
    pub rip_gain_mv_per_kw: f64,
    /// Ripple process-noise scale, `process_noise_mv / √samples_per_estimate`.
    pub rip_noise_mv: f64,
    pub rip_min_v: f64,
    pub rip_max_v: f64,
    pub rip_lsb_v: f64,
    pub rip_levels_m1: f64,
    pub extra_noise_w: f64,
    pub dc_gain_bias: f64,
    pub ripple_gain_bias: f64,
}

impl LaneParams {
    /// Flattens a channel configuration plus its calibration biases.
    pub(crate) fn derive(
        cfg: &SideChannelConfig,
        dc_gain_bias: f64,
        ripple_gain_bias: f64,
    ) -> Self {
        let n = cfg.samples_per_estimate.max(1) as f64;
        let avg_factor = n.sqrt();
        LaneParams {
            wander_step: cfg.grid_wander_volts * 0.1,
            nominal_volts: cfg.line.nominal_volts,
            cable_ohms: cfg.line.cable_ohms,
            dc_min_v: cfg.dc_adc.min_volts(),
            dc_max_v: cfg.dc_adc.max_volts(),
            dc_lsb_v: cfg.dc_adc.lsb_volts(),
            dc_levels_m1: (cfg.dc_adc.levels() - 1) as f64,
            dc_noise_v: cfg.dc_adc.lsb_volts() / avg_factor,
            rip_baseline_mv: cfg.ripple.baseline_mv,
            rip_gain_mv_per_kw: cfg.ripple.gain_mv_per_kw,
            rip_noise_mv: cfg.ripple.process_noise_mv / avg_factor,
            rip_min_v: cfg.ripple_adc.min_volts(),
            rip_max_v: cfg.ripple_adc.max_volts(),
            rip_lsb_v: cfg.ripple_adc.lsb_volts(),
            rip_levels_m1: (cfg.ripple_adc.levels() - 1) as f64,
            extra_noise_w: cfg.extra_noise.as_watts(),
            dc_gain_bias,
            ripple_gain_bias,
        }
    }
}

/// Mid-tread quantization — the pure-`f64` image of `Adc::quantize`.
///
/// Bit-identical to `to_volts(sample(v))` for finite inputs: the clamped
/// offset divided by the LSB lies in `[0, levels]`, so its floor is an
/// exactly representable integer (levels ≤ 2²⁴), and the float `min`
/// against `levels − 1` coincides with the integer `min` the ADC performs.
/// Staying in `f64` keeps the expression branch-free and vectorizable.
#[inline(always)]
fn quantize(v: f64, min_v: f64, max_v: f64, lsb_v: f64, levels_m1: f64) -> f64 {
    // max/min instead of `f64::clamp`: identical for the finite inputs the
    // model produces, and free of clamp's bounds assert, whose panic branch
    // would keep the packed pass from vectorizing.
    let clamped = v.max(min_v).min(max_v);
    let code = ((clamped - min_v) / lsb_v).floor().min(levels_m1);
    min_v + (code + 0.5) * lsb_v
}

/// Advances the slow grid wander: AR(1) with a long time constant.
#[inline(always)]
fn wander_update(wander: f64, wander_step: f64, z0: f64) -> f64 {
    0.995 * wander + wander_step * z0
}

/// The measurement model given an already-advanced wander state — a pure
/// `f64` expression (reads only, no state writes), which lets the packed
/// pass stream every input read-only and vectorize without alias checks.
#[inline(always)]
fn estimate_body(p: &LaneParams, wander: f64, true_total_w: f64, z1: f64, z2: f64, z3: f64) -> f64 {
    // --- DC sag path ---
    let true_v = p.nominal_volts - true_total_w / p.nominal_volts * p.cable_ohms + wander;
    let sensed_v =
        quantize(true_v, p.dc_min_v, p.dc_max_v, p.dc_lsb_v, p.dc_levels_m1) + p.dc_noise_v * z1;
    let p_dc_w = (p.nominal_volts - sensed_v) / p.cable_ohms * p.nominal_volts * p.dc_gain_bias;

    // --- PFC ripple path ---
    let amp_mv =
        p.rip_baseline_mv + p.rip_gain_mv_per_kw * (true_total_w / 1e3) + p.rip_noise_mv * z2;
    let sensed_mv = quantize(
        amp_mv / 1000.0,
        p.rip_min_v,
        p.rip_max_v,
        p.rip_lsb_v,
        p.rip_levels_m1,
    ) * 1000.0;
    let p_rip_w = ((sensed_mv - p.rip_baseline_mv) / p.rip_gain_mv_per_kw).max(0.0)
        * 1e3
        * p.ripple_gain_bias;

    // --- Fusion (ripple is the workhorse, DC the sanity anchor) ---
    let fused_w = p_rip_w * 0.9 + p_dc_w * 0.1;
    (fused_w + p.extra_noise_w * z3).max(0.0)
}

/// One application of the measurement model, in raw watts/volts.
///
/// The single source of truth for the estimator's IEEE-754 op sequence:
/// both the scalar [`VoltageSideChannel::estimate_with_normals`] and the
/// packed [`ChannelLanes::estimate_all`] compose the same
/// [`wander_update`] + [`estimate_body`] pair, which is what makes batched
/// and scalar trajectories bit-identical.
#[inline(always)]
pub(crate) fn estimate_kernel(
    p: &LaneParams,
    wander: &mut f64,
    true_total_w: f64,
    z: [f64; NORMALS_PER_ESTIMATE],
) -> f64 {
    *wander = wander_update(*wander, p.wander_step, z[0]);
    estimate_body(p, *wander, true_total_w, z[1], z[2], z[3])
}

/// N voltage side channels in structure-of-arrays form (see module docs).
///
/// Built from scalar channels with
/// [`from_channels`](ChannelLanes::from_channels); per slot the batch engine
/// calls [`draw_all`](ChannelLanes::draw_all) +
/// [`estimate_all`](ChannelLanes::estimate_all) (dense) or the `_lane`
/// variants (when some lanes sit out a slot); state flows back to the scalar
/// channels with [`sync_back`](ChannelLanes::sync_back).
#[derive(Debug)]
pub struct ChannelLanes {
    // xoshiro256++ state, one column per state word.
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
    // Back buffer for the double-buffered RNG sweep. Writing each sweep's
    // output here (then swapping) keeps the pre-sweep state intact for the
    // subnormal-rejection replay, with no per-slot allocation.
    t0: Vec<u64>,
    t1: Vec<u64>,
    t2: Vec<u64>,
    t3: Vec<u64>,
    /// Grid-wander state (AR(1)) per lane, in volts.
    wander: Vec<f64>,
    // LaneParams, one column per field (unit-stride loads in the packed
    // estimate pass; an array-of-structs here would defeat vectorization).
    wander_step: Vec<f64>,
    nominal_volts: Vec<f64>,
    cable_ohms: Vec<f64>,
    dc_min_v: Vec<f64>,
    dc_max_v: Vec<f64>,
    dc_lsb_v: Vec<f64>,
    dc_levels_m1: Vec<f64>,
    dc_noise_v: Vec<f64>,
    rip_baseline_mv: Vec<f64>,
    rip_gain_mv_per_kw: Vec<f64>,
    rip_noise_mv: Vec<f64>,
    rip_min_v: Vec<f64>,
    rip_max_v: Vec<f64>,
    rip_lsb_v: Vec<f64>,
    rip_levels_m1: Vec<f64>,
    extra_noise_w: Vec<f64>,
    dc_gain_bias: Vec<f64>,
    ripple_gain_bias: Vec<f64>,
}

impl ChannelLanes {
    /// Captures the state of `channels` column-wise. The source channels are
    /// left untouched (their RNG/wander become stale copies; sync fresh
    /// state back with [`sync_back`](ChannelLanes::sync_back)).
    pub fn from_channels<'a, I>(channels: I) -> Self
    where
        I: IntoIterator<Item = &'a VoltageSideChannel>,
        I::IntoIter: ExactSizeIterator,
    {
        let channels = channels.into_iter();
        let n = channels.len();
        let mut lanes = ChannelLanes {
            s0: Vec::with_capacity(n),
            s1: Vec::with_capacity(n),
            s2: Vec::with_capacity(n),
            s3: Vec::with_capacity(n),
            t0: vec![0; n],
            t1: vec![0; n],
            t2: vec![0; n],
            t3: vec![0; n],
            wander: Vec::with_capacity(n),
            wander_step: Vec::with_capacity(n),
            nominal_volts: Vec::with_capacity(n),
            cable_ohms: Vec::with_capacity(n),
            dc_min_v: Vec::with_capacity(n),
            dc_max_v: Vec::with_capacity(n),
            dc_lsb_v: Vec::with_capacity(n),
            dc_levels_m1: Vec::with_capacity(n),
            dc_noise_v: Vec::with_capacity(n),
            rip_baseline_mv: Vec::with_capacity(n),
            rip_gain_mv_per_kw: Vec::with_capacity(n),
            rip_noise_mv: Vec::with_capacity(n),
            rip_min_v: Vec::with_capacity(n),
            rip_max_v: Vec::with_capacity(n),
            rip_lsb_v: Vec::with_capacity(n),
            rip_levels_m1: Vec::with_capacity(n),
            extra_noise_w: Vec::with_capacity(n),
            dc_gain_bias: Vec::with_capacity(n),
            ripple_gain_bias: Vec::with_capacity(n),
        };
        for ch in channels {
            let s = ch.rng_state();
            lanes.s0.push(s[0]);
            lanes.s1.push(s[1]);
            lanes.s2.push(s[2]);
            lanes.s3.push(s[3]);
            lanes.wander.push(ch.wander_volts());
            let (dc_bias, rip_bias) = ch.gain_biases();
            let p = LaneParams::derive(ch.config(), dc_bias, rip_bias);
            lanes.wander_step.push(p.wander_step);
            lanes.nominal_volts.push(p.nominal_volts);
            lanes.cable_ohms.push(p.cable_ohms);
            lanes.dc_min_v.push(p.dc_min_v);
            lanes.dc_max_v.push(p.dc_max_v);
            lanes.dc_lsb_v.push(p.dc_lsb_v);
            lanes.dc_levels_m1.push(p.dc_levels_m1);
            lanes.dc_noise_v.push(p.dc_noise_v);
            lanes.rip_baseline_mv.push(p.rip_baseline_mv);
            lanes.rip_gain_mv_per_kw.push(p.rip_gain_mv_per_kw);
            lanes.rip_noise_mv.push(p.rip_noise_mv);
            lanes.rip_min_v.push(p.rip_min_v);
            lanes.rip_max_v.push(p.rip_max_v);
            lanes.rip_lsb_v.push(p.rip_lsb_v);
            lanes.rip_levels_m1.push(p.rip_levels_m1);
            lanes.extra_noise_w.push(p.extra_noise_w);
            lanes.dc_gain_bias.push(p.dc_gain_bias);
            lanes.ripple_gain_bias.push(p.ripple_gain_bias);
        }
        lanes
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.wander.len()
    }

    /// Whether the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.wander.is_empty()
    }

    /// Writes the live RNG and wander state back into the source channels
    /// (index-aligned with the `from_channels` input).
    ///
    /// # Panics
    ///
    /// Panics if `channels` and the batch disagree on length.
    pub fn sync_back<'a, I>(&self, channels: I)
    where
        I: IntoIterator<Item = &'a mut VoltageSideChannel>,
        I::IntoIter: ExactSizeIterator,
    {
        let channels = channels.into_iter();
        assert_eq!(channels.len(), self.len(), "lane count mismatch");
        for (i, ch) in channels.enumerate() {
            ch.restore_noise_state(
                [self.s0[i], self.s1[i], self.s2[i], self.s3[i]],
                self.wander[i],
            );
        }
    }

    /// Draws the `2 ×` [`NORMALS_PER_ESTIMATE`] uniforms feeding one
    /// estimate for **every** lane, in draw-major layout:
    /// `u1[k·len + i]` is lane `i`'s `k`-th pair's first uniform.
    ///
    /// Each lane consumes its generator in exactly the order of
    /// [`VoltageSideChannel::draw_uniforms`]; across lanes the sweep runs
    /// pair-major so the xoshiro update vectorizes over the lane dimension.
    ///
    /// # Panics
    ///
    /// Panics if `u1` or `u2` is not exactly `NORMALS_PER_ESTIMATE · len`
    /// long.
    pub fn draw_all(&mut self, u1: &mut [f64], u2: &mut [f64]) {
        let n = self.len();
        assert_eq!(u1.len(), NORMALS_PER_ESTIMATE * n, "u1 layout mismatch");
        assert_eq!(u2.len(), NORMALS_PER_ESTIMATE * n, "u2 layout mismatch");
        for k in 0..NORMALS_PER_ESTIMATE {
            let at = k * n;
            let mut any_rejected = false;
            {
                let u1k = &mut u1[at..at + n];
                let u2k = &mut u2[at..at + n];
                let s0 = &self.s0[..n];
                let s1 = &self.s1[..n];
                let s2 = &self.s2[..n];
                let s3 = &self.s3[..n];
                let t0 = &mut self.t0[..n];
                let t1 = &mut self.t1[..n];
                let t2 = &mut self.t2[..n];
                let t3 = &mut self.t3[..n];
                for i in 0..n {
                    // Two xoshiro256++ draws, exactly the scalar update.
                    let mut s = [s0[i], s1[i], s2[i], s3[i]];
                    let r1 = xoshiro256pp(&mut s);
                    let r2 = xoshiro256pp(&mut s);
                    t0[i] = s[0];
                    t1[i] = s[1];
                    t2[i] = s[2];
                    t3[i] = s[3];
                    let h1 = r1 >> 11;
                    u1k[i] = h1 as f64 * U53_SCALE;
                    u2k[i] = (r2 >> 11) as f64 * U53_SCALE;
                    any_rejected |= h1 == 0;
                }
            }
            if any_rejected {
                // Cold path (probability 2⁻⁵³ per lane-pair): replay the
                // offending lanes through the scalar rejection loop from the
                // still-intact pre-sweep state.
                for i in 0..n {
                    if u1[at + i] <= f64::MIN_POSITIVE {
                        let mut rng =
                            StdRng::from_state([self.s0[i], self.s1[i], self.s2[i], self.s3[i]]);
                        let (a, b) = draw_uniform_pair(&mut rng);
                        u1[at + i] = a;
                        u2[at + i] = b;
                        let s = rng.state();
                        self.t0[i] = s[0];
                        self.t1[i] = s[1];
                        self.t2[i] = s[2];
                        self.t3[i] = s[3];
                    }
                }
            }
            std::mem::swap(&mut self.s0, &mut self.t0);
            std::mem::swap(&mut self.s1, &mut self.t1);
            std::mem::swap(&mut self.s2, &mut self.t2);
            std::mem::swap(&mut self.s3, &mut self.t3);
        }
    }

    /// Applies the measurement model to every lane as one packed pass.
    ///
    /// `z` holds the standard normals in the draw-major layout produced by
    /// [`draw_all`](ChannelLanes::draw_all) + a packed Box–Muller pass;
    /// `true_totals_w`/`out_w` are watts, one per lane. Advances each lane's
    /// grid-wander state exactly as the scalar estimate does.
    ///
    /// # Panics
    ///
    /// Panics on any slice-length mismatch.
    pub fn estimate_all(&mut self, true_totals_w: &[f64], z: &[f64], out_w: &mut [f64]) {
        let n = self.len();
        assert_eq!(true_totals_w.len(), n, "input layout mismatch");
        assert_eq!(out_w.len(), n, "output layout mismatch");
        assert_eq!(z.len(), NORMALS_PER_ESTIMATE * n, "normals layout mismatch");
        // Re-slice every stream to a literal length of `n` so the index
        // loops below carry no per-iteration bounds checks.
        let (z0, rest) = z.split_at(n);
        let (z1, rest) = rest.split_at(n);
        let (z2, rest) = rest.split_at(n);
        let z3 = &rest[..n];
        let true_totals_w = &true_totals_w[..n];
        let out_w = &mut out_w[..n];
        // Pass 1: advance the wander states (the only state write, kept in
        // its own sweep so pass 2 is pure reads and vectorizes freely).
        {
            let wander = &mut self.wander[..n];
            let wander_step = &self.wander_step[..n];
            for i in 0..n {
                wander[i] = wander_update(wander[i], wander_step[i], z0[i]);
            }
        }
        // Pass 2: the measurement model proper. All lane state is read-only
        // here; the only store stream is the caller's `out_w`.
        let wander = &self.wander[..n];
        let wander_step = &self.wander_step[..n];
        let nominal_volts = &self.nominal_volts[..n];
        let cable_ohms = &self.cable_ohms[..n];
        let dc_min_v = &self.dc_min_v[..n];
        let dc_max_v = &self.dc_max_v[..n];
        let dc_lsb_v = &self.dc_lsb_v[..n];
        let dc_levels_m1 = &self.dc_levels_m1[..n];
        let dc_noise_v = &self.dc_noise_v[..n];
        let rip_baseline_mv = &self.rip_baseline_mv[..n];
        let rip_gain_mv_per_kw = &self.rip_gain_mv_per_kw[..n];
        let rip_noise_mv = &self.rip_noise_mv[..n];
        let rip_min_v = &self.rip_min_v[..n];
        let rip_max_v = &self.rip_max_v[..n];
        let rip_lsb_v = &self.rip_lsb_v[..n];
        let rip_levels_m1 = &self.rip_levels_m1[..n];
        let extra_noise_w = &self.extra_noise_w[..n];
        let dc_gain_bias = &self.dc_gain_bias[..n];
        let ripple_gain_bias = &self.ripple_gain_bias[..n];
        for i in 0..n {
            let p = LaneParams {
                wander_step: wander_step[i],
                nominal_volts: nominal_volts[i],
                cable_ohms: cable_ohms[i],
                dc_min_v: dc_min_v[i],
                dc_max_v: dc_max_v[i],
                dc_lsb_v: dc_lsb_v[i],
                dc_levels_m1: dc_levels_m1[i],
                dc_noise_v: dc_noise_v[i],
                rip_baseline_mv: rip_baseline_mv[i],
                rip_gain_mv_per_kw: rip_gain_mv_per_kw[i],
                rip_noise_mv: rip_noise_mv[i],
                rip_min_v: rip_min_v[i],
                rip_max_v: rip_max_v[i],
                rip_lsb_v: rip_lsb_v[i],
                rip_levels_m1: rip_levels_m1[i],
                extra_noise_w: extra_noise_w[i],
                dc_gain_bias: dc_gain_bias[i],
                ripple_gain_bias: ripple_gain_bias[i],
            };
            out_w[i] = estimate_body(&p, wander[i], true_totals_w[i], z1[i], z2[i], z3[i]);
        }
    }

    /// Draws one lane's uniforms through the scalar path (for slots where
    /// only a subset of lanes participates). Layout matches
    /// [`VoltageSideChannel::draw_uniforms`]: `u1` values first, then `u2`.
    pub fn draw_uniforms_lane(&mut self, lane: usize, out: &mut [f64; 2 * NORMALS_PER_ESTIMATE]) {
        let mut rng =
            StdRng::from_state([self.s0[lane], self.s1[lane], self.s2[lane], self.s3[lane]]);
        for k in 0..NORMALS_PER_ESTIMATE {
            let (a, b) = draw_uniform_pair(&mut rng);
            out[k] = a;
            out[NORMALS_PER_ESTIMATE + k] = b;
        }
        let s = rng.state();
        self.s0[lane] = s[0];
        self.s1[lane] = s[1];
        self.s2[lane] = s[2];
        self.s3[lane] = s[3];
    }

    /// Applies the measurement model to one lane (scalar counterpart of
    /// [`estimate_all`](ChannelLanes::estimate_all), same kernel).
    pub fn estimate_lane(
        &mut self,
        lane: usize,
        true_total: Power,
        z: &[f64; NORMALS_PER_ESTIMATE],
    ) -> Power {
        let p = LaneParams {
            wander_step: self.wander_step[lane],
            nominal_volts: self.nominal_volts[lane],
            cable_ohms: self.cable_ohms[lane],
            dc_min_v: self.dc_min_v[lane],
            dc_max_v: self.dc_max_v[lane],
            dc_lsb_v: self.dc_lsb_v[lane],
            dc_levels_m1: self.dc_levels_m1[lane],
            dc_noise_v: self.dc_noise_v[lane],
            rip_baseline_mv: self.rip_baseline_mv[lane],
            rip_gain_mv_per_kw: self.rip_gain_mv_per_kw[lane],
            rip_noise_mv: self.rip_noise_mv[lane],
            rip_min_v: self.rip_min_v[lane],
            rip_max_v: self.rip_max_v[lane],
            rip_lsb_v: self.rip_lsb_v[lane],
            rip_levels_m1: self.rip_levels_m1[lane],
            extra_noise_w: self.extra_noise_w[lane],
            dc_gain_bias: self.dc_gain_bias[lane],
            ripple_gain_bias: self.ripple_gain_bias[lane],
        };
        Power::from_watts(estimate_kernel(
            &p,
            &mut self.wander[lane],
            true_total.as_watts(),
            *z,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::box_muller_slice;

    fn mixed_fleet(n: usize) -> Vec<VoltageSideChannel> {
        (0..n)
            .map(|i| {
                let mut cfg = SideChannelConfig::paper_default();
                cfg.samples_per_estimate = 16 + (i as u32 % 5) * 24;
                if i % 3 == 0 {
                    cfg = cfg.with_extra_noise(Power::from_watts(50.0 * i as f64));
                }
                VoltageSideChannel::new(cfg, 1000 + i as u64)
            })
            .collect()
    }

    /// The packed draw + estimate passes must reproduce every scalar
    /// channel bit for bit, over many slots and heterogeneous configs.
    #[test]
    fn packed_passes_match_scalar_channels() {
        let n = 37; // odd width exercises the vector remainder lanes
        let mut scalar = mixed_fleet(n);
        let mut lanes = ChannelLanes::from_channels(&scalar);
        let mut u1 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut u2 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut z = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut out_w = vec![0.0; n];
        for slot in 0..200u64 {
            let totals: Vec<f64> = (0..n)
                .map(|i| 4000.0 + 37.0 * ((slot as f64) + i as f64).sin().abs() * 1000.0)
                .collect();
            lanes.draw_all(&mut u1, &mut u2);
            box_muller_slice(&u1, &u2, &mut z);
            lanes.estimate_all(&totals, &z, &mut out_w);
            for (i, ch) in scalar.iter_mut().enumerate() {
                let want = ch.estimate(Power::from_watts(totals[i]));
                assert_eq!(
                    out_w[i].to_bits(),
                    want.as_watts().to_bits(),
                    "lane {i} slot {slot} diverged"
                );
            }
        }
    }

    /// The per-lane scalar path (used when some lanes sit out a slot) stays
    /// on the same stream as the scalar channel, interleaved with packed
    /// slots.
    #[test]
    fn lane_path_matches_scalar_and_interleaves_with_packed() {
        let n = 8;
        let mut scalar = mixed_fleet(n);
        let mut lanes = ChannelLanes::from_channels(&scalar);
        let mut u1 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut u2 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut z = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut out_w = vec![0.0; n];
        for round in 0..50u64 {
            let total = Power::from_kilowatts(5.0 + (round % 7) as f64 * 0.3);
            if round % 2 == 0 {
                // Scalar per-lane slot.
                #[allow(clippy::needless_range_loop)]
                for i in 0..n {
                    let mut u = [0.0; 2 * NORMALS_PER_ESTIMATE];
                    lanes.draw_uniforms_lane(i, &mut u);
                    let mut zl = [0.0; NORMALS_PER_ESTIMATE];
                    box_muller_slice(
                        &u[..NORMALS_PER_ESTIMATE],
                        &u[NORMALS_PER_ESTIMATE..],
                        &mut zl,
                    );
                    let got = lanes.estimate_lane(i, total, &zl);
                    let want = scalar[i].estimate(total);
                    assert_eq!(got.as_watts().to_bits(), want.as_watts().to_bits());
                }
            } else {
                // Packed slot.
                lanes.draw_all(&mut u1, &mut u2);
                box_muller_slice(&u1, &u2, &mut z);
                let totals = vec![total.as_watts(); n];
                lanes.estimate_all(&totals, &z, &mut out_w);
                for (i, ch) in scalar.iter_mut().enumerate() {
                    let want = ch.estimate(total);
                    assert_eq!(out_w[i].to_bits(), want.as_watts().to_bits());
                }
            }
        }
    }

    /// After batched stepping, `sync_back` must leave the scalar channels
    /// exactly where per-channel stepping would have.
    #[test]
    fn sync_back_resumes_scalar_stepping() {
        let n = 5;
        let mut reference = mixed_fleet(n);
        let mut resumed = mixed_fleet(n);
        let mut lanes = ChannelLanes::from_channels(&resumed);
        let mut u1 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut u2 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut z = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut out_w = vec![0.0; n];
        let total = Power::from_kilowatts(6.0);
        for _ in 0..30 {
            lanes.draw_all(&mut u1, &mut u2);
            box_muller_slice(&u1, &u2, &mut z);
            lanes.estimate_all(&vec![total.as_watts(); n], &z, &mut out_w);
            for ch in reference.iter_mut() {
                ch.estimate(total);
            }
        }
        lanes.sync_back(&mut resumed);
        for (a, b) in reference.iter_mut().zip(resumed.iter_mut()) {
            for kw in [2.0, 5.5, 7.9] {
                let p = Power::from_kilowatts(kw);
                assert_eq!(
                    a.estimate(p).as_watts().to_bits(),
                    b.estimate(p).as_watts().to_bits()
                );
            }
        }
    }

    /// Forces the one-in-2⁵³ subnormal rejection by planting an RNG state
    /// whose first output word has 53 leading zero bits; the packed sweep
    /// must replay that lane through the scalar rejection loop.
    #[test]
    fn rejection_replay_matches_scalar() {
        let n = 3;
        let mut scalar = mixed_fleet(n);
        // s0 = s3 = 0 makes the next output rotl(0, 23) + 0 = 0 → u1 = 0.0,
        // which the scalar path rejects; s1/s2 keep the stream alive.
        let planted = [0u64, 0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF_CAFE_F00D, 0u64];
        scalar[1].restore_noise_state(planted, 0.0);
        let mut lanes = ChannelLanes::from_channels(&scalar);
        let mut u1 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        let mut u2 = vec![0.0; NORMALS_PER_ESTIMATE * n];
        lanes.draw_all(&mut u1, &mut u2);
        for (i, ch) in scalar.iter_mut().enumerate() {
            let mut want = [0.0; 2 * NORMALS_PER_ESTIMATE];
            ch.draw_uniforms(&mut want);
            for k in 0..NORMALS_PER_ESTIMATE {
                assert_eq!(u1[k * n + i].to_bits(), want[k].to_bits());
                assert_eq!(
                    u2[k * n + i].to_bits(),
                    want[NORMALS_PER_ESTIMATE + k].to_bits()
                );
            }
        }
    }
}
