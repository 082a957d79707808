//! Electrical models of the shared PDU feed and the PFC ripple.

use hbm_units::Power;

/// Electrical model of the shared PDU supply line.
///
/// All tenants' servers hang off one feed; the voltage any server sees is the
/// nominal supply minus the IR drop across the shared cable, so the *total*
/// current (∝ total power) is readable from any outlet — the physical root of
/// the side channel (Fig. 5a of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PduLine {
    /// Nominal RMS supply voltage at the PDU input, in volts.
    pub nominal_volts: f64,
    /// Effective resistance of the shared cable/busbar, in ohms.
    pub cable_ohms: f64,
}

impl PduLine {
    /// A 208 V feed with a realistic tens-of-milliohms shared cable.
    pub fn paper_default() -> Self {
        PduLine {
            nominal_volts: 208.0,
            cable_ohms: 0.06,
        }
    }

    /// Voltage observed at a server outlet when `total` power flows: the
    /// total RMS current times the cable resistance below nominal.
    pub fn outlet_volts(&self, total: Power) -> f64 {
        let amps = total.as_watts() / self.nominal_volts;
        self.nominal_volts - amps * self.cable_ohms
    }

    /// Inverts [`PduLine::outlet_volts`]: the aggregate power that would
    /// produce the observed outlet voltage.
    pub fn power_from_outlet_volts(&self, volts: f64) -> Power {
        let amps = (self.nominal_volts - volts) / self.cable_ohms;
        Power::from_watts(amps * self.nominal_volts)
    }
}

/// Load-correlated amplitude of the PFC switching ripple.
///
/// Every modern server PSU runs active power-factor correction whose
/// switching residue leaks onto the feed; its amplitude grows with the
/// aggregate load. The paper's estimator keys off this ripple because it is
/// easier to separate from slow grid-voltage wander than the DC sag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcRipple {
    /// Ripple amplitude at zero load, in millivolts.
    pub baseline_mv: f64,
    /// Amplitude gain, in millivolts per kilowatt of aggregate load.
    pub gain_mv_per_kw: f64,
    /// Standard deviation of amplitude process noise, in millivolts.
    pub process_noise_mv: f64,
}

impl PfcRipple {
    /// Calibration in the range reported for commodity PSUs.
    pub fn paper_default() -> Self {
        PfcRipple {
            baseline_mv: 18.0,
            gain_mv_per_kw: 42.0,
            process_noise_mv: 2.0,
        }
    }

    /// Mean ripple amplitude (mV) at a given aggregate power.
    pub fn amplitude_mv(&self, total: Power) -> f64 {
        self.baseline_mv + self.gain_mv_per_kw * total.as_kilowatts()
    }

    /// Inverts [`PfcRipple::amplitude_mv`] (clamping below the baseline).
    pub fn power_from_amplitude(&self, amplitude_mv: f64) -> Power {
        Power::from_kilowatts(((amplitude_mv - self.baseline_mv) / self.gain_mv_per_kw).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlet_voltage_sags_with_load() {
        let line = PduLine::paper_default();
        let v0 = line.outlet_volts(Power::ZERO);
        let v8 = line.outlet_volts(Power::from_kilowatts(8.0));
        assert_eq!(v0, 208.0);
        assert!(v8 < v0);
        // 8 kW at 208 V ≈ 38.5 A; over 60 mΩ that's ≈ 2.3 V of sag.
        assert!((v0 - v8 - 2.307).abs() < 0.01);
    }

    #[test]
    fn line_inversion_round_trips() {
        let line = PduLine::paper_default();
        for kw in [0.5, 2.0, 6.0, 8.0] {
            let p = Power::from_kilowatts(kw);
            let v = line.outlet_volts(p);
            let back = line.power_from_outlet_volts(v);
            assert!((back - p).abs() < Power::from_watts(1e-6));
        }
    }

    #[test]
    fn ripple_grows_linearly_with_load() {
        let r = PfcRipple::paper_default();
        let a0 = r.amplitude_mv(Power::ZERO);
        let a4 = r.amplitude_mv(Power::from_kilowatts(4.0));
        let a8 = r.amplitude_mv(Power::from_kilowatts(8.0));
        assert!((a8 - a4 - (a4 - a0)).abs() < 1e-9, "linearity");
        assert_eq!(a0, 18.0);
    }

    #[test]
    fn ripple_inversion_round_trips_and_clamps() {
        let r = PfcRipple::paper_default();
        let p = Power::from_kilowatts(6.0);
        let back = r.power_from_amplitude(r.amplitude_mv(p));
        assert!((back - p).abs() < Power::from_watts(1e-6));
        assert_eq!(r.power_from_amplitude(0.0), Power::ZERO);
    }
}
