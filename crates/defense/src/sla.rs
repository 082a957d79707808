//! SLA-statistics monitoring: catching the attacker hiding in the noise.

/// CUSUM monitor over thermal-emergency occurrences.
///
/// Open-air-flow colocations see occasional emergencies even without
/// attacks, and operators only promise a long-term temperature SLA (e.g.
/// inlet ≤ 27 °C for 99 % of the time), which an attacker can hide behind
/// for a while (Section VII-B). A one-sided CUSUM on the per-slot emergency
/// indicator detects a sustained rate increase long before the SLA headline
/// number moves.
///
/// With baseline rate `p₀` and slack `k`, the statistic is
/// `S ← max(0, S + (x − p₀ − k))` for each slot indicator `x ∈ {0, 1}`;
/// an alarm fires when `S ≥ h`.
///
/// # Examples
///
/// ```
/// use hbm_defense::SlaMonitor;
///
/// let mut monitor = SlaMonitor::new(0.001, 0.002, 12.0);
/// // A burst of emergencies (5 capped slots each) every hour.
/// let mut fired = false;
/// for slot in 0..5000u32 {
///     let in_emergency = slot % 60 < 5;
///     fired |= monitor.observe(in_emergency);
/// }
/// assert!(fired);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaMonitor {
    baseline_rate: f64,
    slack: f64,
    alarm_level: f64,
    statistic: f64,
    alarms: u64,
    slots: u64,
    emergencies: u64,
}

impl SlaMonitor {
    /// Creates a monitor.
    ///
    /// * `baseline_rate` — expected fraction of slots in emergency without
    ///   an attack;
    /// * `slack` — rate increase deemed tolerable (sets detection
    ///   sensitivity);
    /// * `alarm_level` — CUSUM level `h` at which the alarm fires.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or `baseline_rate ≥ 1`.
    pub fn new(baseline_rate: f64, slack: f64, alarm_level: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&baseline_rate),
            "baseline rate must be in [0, 1)"
        );
        assert!(slack >= 0.0, "slack must be non-negative");
        assert!(alarm_level > 0.0, "alarm level must be positive");
        SlaMonitor {
            baseline_rate,
            slack,
            alarm_level,
            statistic: 0.0,
            alarms: 0,
            slots: 0,
            emergencies: 0,
        }
    }

    /// Feeds one slot; `in_emergency` is whether capping was active.
    /// Returns whether the alarm fires on this slot (the statistic resets
    /// after an alarm).
    pub fn observe(&mut self, in_emergency: bool) -> bool {
        self.slots += 1;
        if in_emergency {
            self.emergencies += 1;
        }
        let x = if in_emergency { 1.0 } else { 0.0 };
        self.statistic = (self.statistic + x - self.baseline_rate - self.slack).max(0.0);
        if self.statistic >= self.alarm_level {
            self.statistic = 0.0;
            self.alarms += 1;
            true
        } else {
            false
        }
    }

    /// Current CUSUM statistic.
    pub fn statistic(&self) -> f64 {
        self.statistic
    }

    /// Alarms raised so far.
    pub fn alarm_count(&self) -> u64 {
        self.alarms
    }

    /// Observed emergency rate so far.
    pub fn observed_rate(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        self.emergencies as f64 / self.slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_colocation_never_alarms() {
        // Alarm level 12 > one benign 5-slot episode, and episodes a week
        // apart decay away completely in between.
        let mut m = SlaMonitor::new(0.001, 0.002, 12.0);
        for slot in 0..100_000u32 {
            // Benign background: one 5-slot emergency every ~10 000 slots
            // (0.05 %, well under the 0.1 % baseline).
            let x = slot % 10_000 < 5;
            assert!(!m.observe(x), "false alarm at slot {slot}");
        }
    }

    #[test]
    fn attack_rate_detected_within_weeks() {
        let mut m = SlaMonitor::new(0.001, 0.002, 12.0);
        let mut detected_at = None;
        for slot in 0..40_000u32 {
            // Attack era: two 5-slot emergencies per day (≈0.7 %), bursty.
            let in_day = slot % 1440;
            let x = in_day < 5 || (700..705).contains(&in_day);
            if m.observe(x) {
                detected_at = Some(slot);
                break;
            }
        }
        let at = detected_at.expect("sustained rate increase must alarm");
        assert!(
            at < 20_000,
            "detection should land within two weeks, got slot {at}"
        );
    }

    #[test]
    fn statistic_resets_after_alarm() {
        let mut m = SlaMonitor::new(0.0, 0.0, 1.5);
        assert!(!m.observe(true));
        assert!(m.observe(true)); // 2.0 ≥ 1.5 → alarm
        assert_eq!(m.statistic(), 0.0);
        assert_eq!(m.alarm_count(), 1);
    }

    #[test]
    fn observed_rate_tracks_inputs() {
        let mut m = SlaMonitor::new(0.001, 0.002, 10.0);
        for i in 0..100 {
            m.observe(i % 4 == 0);
        }
        assert!((m.observed_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "baseline rate")]
    fn rejects_bad_baseline() {
        let _ = SlaMonitor::new(1.0, 0.0, 1.0);
    }
}
