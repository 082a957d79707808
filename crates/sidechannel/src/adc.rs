//! Analog-to-digital converter model for the attacker's voltage tap.

/// A simple ADC: uniform quantization over a full-scale range plus
/// input-referred Gaussian noise (applied by the caller; the ADC itself is
/// deterministic so it can be tested exactly).
///
/// The paper's prototype uses an NI DAQ as an ADC proxy; a production attack
/// would use a small ADC soldered onto the server's PSU input (demonstrated
/// feasible by the VoltKey work it cites).
///
/// # Examples
///
/// ```
/// use hbm_sidechannel::Adc;
///
/// let adc = Adc::new(12, 0.0, 250.0);
/// let code = adc.sample(208.3);
/// let back = adc.to_volts(code);
/// assert!((back - 208.3).abs() < adc.lsb_volts());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u8,
    min_volts: f64,
    max_volts: f64,
}

impl Adc {
    /// Creates an ADC with `bits` of resolution over `[min_volts, max_volts]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 24, or the range is empty.
    pub fn new(bits: u8, min_volts: f64, max_volts: f64) -> Self {
        assert!(
            (1..=24).contains(&bits),
            "ADC resolution must be 1..=24 bits"
        );
        assert!(max_volts > min_volts, "ADC range must be non-empty");
        Adc {
            bits,
            min_volts,
            max_volts,
        }
    }

    /// A 12-bit ADC spanning 0–250 V, adequate for the DC sag feature.
    pub fn paper_default() -> Self {
        Adc::new(12, 0.0, 250.0)
    }

    /// A 16-bit ADC spanning ±0.5 V, used for the ripple amplitude after
    /// high-pass filtering.
    pub fn ripple_default() -> Self {
        Adc::new(16, -0.5, 0.5)
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Lower end of the input range, in volts.
    pub fn min_volts(&self) -> f64 {
        self.min_volts
    }

    /// Upper end of the input range, in volts.
    pub fn max_volts(&self) -> f64 {
        self.max_volts
    }

    /// Size of one least-significant bit, in volts.
    pub fn lsb_volts(&self) -> f64 {
        (self.max_volts - self.min_volts) / self.levels() as f64
    }

    /// Quantizes an input voltage to a code, clamping to the range.
    pub fn sample(&self, volts: f64) -> u32 {
        let clamped = volts.clamp(self.min_volts, self.max_volts);
        let code = ((clamped - self.min_volts) / self.lsb_volts()).floor() as u32;
        code.min(self.levels() - 1)
    }

    /// Reconstructs the (mid-tread) voltage for a code.
    pub fn to_volts(&self, code: u32) -> f64 {
        self.min_volts + (code as f64 + 0.5) * self.lsb_volts()
    }

    /// Quantize-and-reconstruct in one step.
    pub fn quantize(&self, volts: f64) -> f64 {
        self.to_volts(self.sample(volts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_error_bounded_by_lsb() {
        let adc = Adc::paper_default();
        for i in 0..1000 {
            let v = 0.1 + i as f64 * 0.2497;
            let err = (adc.quantize(v) - v).abs();
            assert!(err <= adc.lsb_volts(), "error {err} above one LSB");
        }
    }

    #[test]
    fn clamps_out_of_range_inputs() {
        let adc = Adc::new(8, 0.0, 10.0);
        assert_eq!(adc.sample(-5.0), 0);
        assert_eq!(adc.sample(50.0), adc.levels() - 1);
    }

    #[test]
    fn lsb_matches_resolution() {
        let adc = Adc::new(12, 0.0, 250.0);
        assert_eq!(adc.levels(), 4096);
        assert!((adc.lsb_volts() - 250.0 / 4096.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_codes() {
        let adc = Adc::new(10, -1.0, 1.0);
        let mut prev = 0;
        for i in 0..=200 {
            let v = -1.0 + i as f64 * 0.01;
            let c = adc.sample(v);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn rejects_zero_bits() {
        let _ = Adc::new(0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn rejects_empty_range() {
        let _ = Adc::new(8, 1.0, 1.0);
    }
}
