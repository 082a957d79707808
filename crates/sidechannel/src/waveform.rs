//! Time-domain voltage waveform synthesis and ripple extraction.
//!
//! The higher-level [`crate::VoltageSideChannel`] works at the *feature*
//! level (DC sag + ripple amplitude). The original attack (Islam & Ren,
//! CCS'18) works on raw ADC samples: it band-passes the PFC switching band
//! out of the mains waveform and measures its amplitude. This module
//! provides that layer — a synthesizer for the voltage waveform an attacker
//! would sample, and a single-bin DFT (Goertzel) amplitude extractor — and
//! is used in tests to validate that the feature-level model matches what
//! full signal processing would recover.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use hbm_units::Power;

use crate::{PduLine, PfcRipple};

/// Parameters of the synthesized PDU voltage waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveformConfig {
    /// Mains frequency, Hz.
    pub mains_hz: f64,
    /// PFC switching frequency, Hz (tens of kHz on commodity PSUs).
    pub pfc_hz: f64,
    /// ADC sampling rate, Hz (must be well above twice `pfc_hz`).
    pub sample_rate_hz: f64,
    /// RMS of broadband sensor/line noise, volts.
    pub noise_volts: f64,
    /// Electrical model of the shared line (provides the DC/RMS level).
    pub line: PduLine,
    /// Ripple model (provides the amplitude–load relation).
    pub ripple: PfcRipple,
}

impl WaveformConfig {
    /// A 60 Hz feed with a 65 kHz PFC band sampled at 250 kS/s — the NI-DAQ
    /// class setup of the paper's prototype.
    pub fn paper_default() -> Self {
        WaveformConfig {
            mains_hz: 60.0,
            pfc_hz: 65_000.0,
            sample_rate_hz: 250_000.0,
            noise_volts: 0.05,
            line: PduLine::paper_default(),
            ripple: PfcRipple::paper_default(),
        }
    }

    /// Validates signal-processing feasibility.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint (Nyquist, positive
    /// frequencies, finite noise).
    pub fn validate(&self) -> Result<(), String> {
        if self.mains_hz <= 0.0 || self.pfc_hz <= 0.0 {
            return Err("frequencies must be positive".into());
        }
        if self.sample_rate_hz < 2.5 * self.pfc_hz {
            return Err("sample rate must comfortably exceed Nyquist for the PFC band".into());
        }
        if !self.noise_volts.is_finite() || self.noise_volts < 0.0 {
            return Err("noise must be non-negative".into());
        }
        Ok(())
    }
}

/// Synthesizes `samples` ADC samples of the PDU voltage while `total` power
/// flows: mains sine at the sagged RMS level, the load-correlated PFC
/// ripple, and broadband noise.
///
/// # Panics
///
/// Panics if the config is invalid or `samples` is zero.
pub fn synthesize(config: &WaveformConfig, total: Power, samples: usize, seed: u64) -> Vec<f64> {
    config.validate().expect("invalid waveform config");
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let rms = config.line.outlet_volts(total);
    let mains_peak = rms * std::f64::consts::SQRT_2;
    let ripple_peak = config.ripple.amplitude_mv(total) / 1000.0;
    let dt = 1.0 / config.sample_rate_hz;
    let w_mains = std::f64::consts::TAU * config.mains_hz;
    let w_pfc = std::f64::consts::TAU * config.pfc_hz;
    (0..samples)
        .map(|k| {
            let t = k as f64 * dt;
            let noise = config.noise_volts * (rng.random::<f64>() * 2.0 - 1.0) * 1.732;
            mains_peak * (w_mains * t).sin() + ripple_peak * (w_pfc * t).sin() + noise
        })
        .collect()
}

/// Amplitude of the `target_hz` component of `signal` via the Goertzel
/// single-bin DFT.
///
/// # Panics
///
/// Panics if `signal` is empty or frequencies are non-positive.
pub fn goertzel_amplitude(signal: &[f64], sample_rate_hz: f64, target_hz: f64) -> f64 {
    assert!(!signal.is_empty(), "empty signal");
    assert!(
        sample_rate_hz > 0.0 && target_hz > 0.0,
        "frequencies must be positive"
    );
    let n = signal.len() as f64;
    // Generalized Goertzel: use the exact target frequency rather than the
    // nearest DFT bin. The result is exact when the window holds an integer
    // number of cycles (callers should truncate accordingly — see
    // `power_from_waveform`).
    let w = std::f64::consts::TAU * target_hz / sample_rate_hz;
    let coeff = 2.0 * w.cos();
    let (mut s_prev, mut s_prev2) = (0.0, 0.0);
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev2 * s_prev2 + s_prev * s_prev - coeff * s_prev * s_prev2;
    2.0 * power.max(0.0).sqrt() / n
}

/// Recovers the aggregate PDU power from a raw waveform: high-pass the
/// mains component away (first difference — the ~300 V mains peak would
/// otherwise leak into the PFC bin), extract the PFC ripple amplitude with
/// [`goertzel_amplitude`], compensate the filter gain, and invert the
/// ripple model — the full signal-processing path of the original attack.
///
/// # Panics
///
/// Panics if `signal` has fewer than two samples.
pub fn power_from_waveform(config: &WaveformConfig, signal: &[f64]) -> Power {
    assert!(signal.len() >= 2, "need at least two samples");
    // First-difference high-pass: -60 dB at 60 Hz, ×1.45 at 65 kHz.
    let mut filtered: Vec<f64> = signal.windows(2).map(|w| w[1] - w[0]).collect();
    // Truncate to an integer number of PFC cycles so the rectangular window
    // is periodic in the target tone (no scalloping loss).
    let cycles_per_sample = config.pfc_hz / config.sample_rate_hz;
    let cycles = (filtered.len() as f64 * cycles_per_sample).floor();
    let usable = (cycles / cycles_per_sample).round() as usize;
    filtered.truncate(usable.max(2).min(filtered.len()));
    let gain = 2.0 * (std::f64::consts::PI * config.pfc_hz / config.sample_rate_hz).sin();
    let amplitude_v = goertzel_amplitude(&filtered, config.sample_rate_hz, config.pfc_hz) / gain;
    config.ripple.power_from_amplitude(amplitude_v * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goertzel_measures_a_pure_tone() {
        let fs = 250_000.0;
        let f = 65_000.0;
        let n = 2500;
        let signal: Vec<f64> = (0..n)
            .map(|k| 0.042 * (std::f64::consts::TAU * f * k as f64 / fs).sin())
            .collect();
        let a = goertzel_amplitude(&signal, fs, f);
        assert!((a - 0.042).abs() < 0.002, "amplitude {a}");
    }

    #[test]
    fn goertzel_rejects_off_band_energy() {
        let fs = 250_000.0;
        let n = 2500;
        // Strong 60 Hz mains, nothing at the PFC band.
        let signal: Vec<f64> = (0..n)
            .map(|k| 300.0 * (std::f64::consts::TAU * 60.0 * k as f64 / fs).sin())
            .collect();
        let a = goertzel_amplitude(&signal, fs, 65_000.0);
        assert!(a < 1.0, "mains leakage {a} too high");
    }

    #[test]
    fn waveform_pipeline_recovers_the_load() {
        let config = WaveformConfig::paper_default();
        for kw in [2.0, 5.0, 7.5] {
            let truth = Power::from_kilowatts(kw);
            // 10 ms of samples (one PFC-band analysis window).
            let signal = synthesize(&config, truth, 2500, 42);
            let recovered = power_from_waveform(&config, &signal);
            assert!(
                (recovered - truth).abs() < Power::from_kilowatts(0.5),
                "{kw} kW recovered as {recovered}"
            );
        }
    }

    #[test]
    fn waveform_matches_feature_level_model() {
        // The feature-level ripple amplitude and the one recovered from the
        // full waveform must agree — this validates using the cheap model
        // in year-long simulations.
        let config = WaveformConfig::paper_default();
        let truth = Power::from_kilowatts(6.0);
        let signal = synthesize(&config, truth, 5000, 7);
        let recovered = power_from_waveform(&config, &signal);
        let model = config
            .ripple
            .power_from_amplitude(config.ripple.amplitude_mv(truth));
        assert!(
            (recovered - model).abs() < model * 0.1,
            "waveform {recovered} vs model {model}"
        );
    }

    #[test]
    fn more_load_more_ripple_in_the_waveform() {
        let config = WaveformConfig::paper_default();
        let low = synthesize(&config, Power::from_kilowatts(2.0), 2500, 1);
        let high = synthesize(&config, Power::from_kilowatts(7.5), 2500, 1);
        let a_low = goertzel_amplitude(&low, config.sample_rate_hz, config.pfc_hz);
        let a_high = goertzel_amplitude(&high, config.sample_rate_hz, config.pfc_hz);
        assert!(a_high > a_low);
    }

    #[test]
    fn nyquist_violation_rejected() {
        let mut config = WaveformConfig::paper_default();
        config.sample_rate_hz = 100_000.0; // < 2.5 × 65 kHz
        assert!(config.validate().is_err());
    }
}
