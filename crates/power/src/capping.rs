//! Thermal-emergency handling: the operator's power-capping protocol.

use hbm_units::{Duration, Power, Temperature};

/// Current state of the emergency protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolState {
    /// Inlet temperature within limits; no action.
    Normal,
    /// Inlet has exceeded the threshold but not yet for the full dwell time.
    Watch {
        /// How long the threshold has been continuously exceeded.
        over_threshold_for: Duration,
    },
    /// Thermal emergency declared: every server must cap its power.
    Emergency {
        /// Remaining capping time.
        remaining: Duration,
    },
    /// The inlet reached the shutdown limit: the shared PDU powered off.
    Outage,
}

impl ProtocolState {
    /// Whether servers must currently cap their power.
    pub fn is_capping(&self) -> bool {
        matches!(self, ProtocolState::Emergency { .. })
    }

    /// Whether the colocation is down.
    pub fn is_outage(&self) -> bool {
        matches!(self, ProtocolState::Outage)
    }
}

/// The operator's thermal-emergency protocol (Section V-A):
///
/// * inlet > 32 °C continuously for ≥ 2 minutes ⇒ **thermal emergency**:
///   every server (attacker included) must cap to 120 W (60 % of rating)
///   for 5 minutes;
/// * inlet reaches 45 °C ⇒ **automatic shutdown** of the shared PDU
///   (system outage).
///
/// Drive it with one [`EmergencyProtocol::step`] per slot; it returns the
/// state to apply *during the next slot*.
#[derive(Debug, Clone, PartialEq)]
pub struct EmergencyProtocol {
    /// Emergency temperature threshold (32 °C, ASHRAE allowable limit).
    pub threshold: Temperature,
    /// Continuous time above threshold before an emergency is declared.
    pub dwell: Duration,
    /// Per-server power cap during an emergency.
    pub cap_per_server: Power,
    /// Duration of each capping episode.
    pub cap_duration: Duration,
    /// Automatic-shutdown temperature (PDU powers off).
    pub shutdown: Temperature,
    state: ProtocolState,
}

impl EmergencyProtocol {
    /// Creates a protocol in the [`ProtocolState::Normal`] state.
    ///
    /// # Panics
    ///
    /// Panics if `shutdown <= threshold` or durations/cap are non-positive.
    pub fn new(
        threshold: Temperature,
        dwell: Duration,
        cap_per_server: Power,
        cap_duration: Duration,
        shutdown: Temperature,
    ) -> Self {
        assert!(shutdown > threshold, "shutdown limit must exceed threshold");
        assert!(dwell >= Duration::ZERO, "dwell must be non-negative");
        assert!(
            cap_duration > Duration::ZERO,
            "cap duration must be positive"
        );
        assert!(cap_per_server > Power::ZERO, "cap must be positive");
        EmergencyProtocol {
            threshold,
            dwell,
            cap_per_server,
            cap_duration,
            shutdown,
            state: ProtocolState::Normal,
        }
    }

    /// The paper's Table I protocol: 32 °C / 2 min dwell / 120 W cap for
    /// 5 min / 45 °C shutdown.
    pub fn paper_default() -> Self {
        EmergencyProtocol::new(
            Temperature::from_celsius(32.0),
            Duration::from_minutes(2.0),
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Temperature::from_celsius(45.0),
        )
    }

    /// Current state.
    pub fn state(&self) -> ProtocolState {
        self.state
    }

    /// Resets to [`ProtocolState::Normal`] (e.g. after an outage is
    /// serviced and the colocation restarts).
    pub fn reset(&mut self) {
        self.state = ProtocolState::Normal;
    }

    /// Overwrites the current state (checkpoint restore; the inverse of
    /// [`EmergencyProtocol::state`]).
    pub fn restore_state(&mut self, state: ProtocolState) {
        self.state = state;
    }

    /// Advances the protocol by one slot given the inlet temperature
    /// observed during that slot; returns the new state.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is non-positive.
    pub fn step(&mut self, inlet: Temperature, dt: Duration) -> ProtocolState {
        assert!(dt > Duration::ZERO, "step duration must be positive");
        // Shutdown dominates everything (except an existing outage).
        if !self.state.is_outage() && inlet >= self.shutdown {
            self.state = ProtocolState::Outage;
            return self.state;
        }
        self.state = match self.state {
            ProtocolState::Outage => ProtocolState::Outage,
            ProtocolState::Emergency { remaining } => {
                let left = remaining - dt;
                if left > Duration::ZERO {
                    ProtocolState::Emergency { remaining: left }
                } else if inlet > self.threshold {
                    // Still hot after the capping episode: start watching
                    // again immediately (and re-enter emergency after dwell).
                    ProtocolState::Watch {
                        over_threshold_for: dt,
                    }
                } else {
                    ProtocolState::Normal
                }
            }
            ProtocolState::Watch { over_threshold_for } => {
                if inlet > self.threshold {
                    let t = over_threshold_for + dt;
                    if t >= self.dwell {
                        ProtocolState::Emergency {
                            remaining: self.cap_duration,
                        }
                    } else {
                        ProtocolState::Watch {
                            over_threshold_for: t,
                        }
                    }
                } else {
                    ProtocolState::Normal
                }
            }
            ProtocolState::Normal => {
                if inlet > self.threshold {
                    ProtocolState::Watch {
                        over_threshold_for: dt,
                    }
                } else {
                    ProtocolState::Normal
                }
            }
        };
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> Duration {
        Duration::from_minutes(1.0)
    }

    fn hot() -> Temperature {
        Temperature::from_celsius(33.0)
    }

    fn cool() -> Temperature {
        Temperature::from_celsius(27.0)
    }

    #[test]
    fn stays_normal_when_cool() {
        let mut p = EmergencyProtocol::paper_default();
        for _ in 0..10 {
            assert_eq!(p.step(cool(), minute()), ProtocolState::Normal);
        }
    }

    #[test]
    fn declares_emergency_after_dwell() {
        let mut p = EmergencyProtocol::paper_default();
        assert!(matches!(
            p.step(hot(), minute()),
            ProtocolState::Watch { .. }
        ));
        let s = p.step(hot(), minute());
        assert!(
            s.is_capping(),
            "2 minutes over threshold must cap, got {s:?}"
        );
    }

    #[test]
    fn brief_excursion_does_not_trigger() {
        let mut p = EmergencyProtocol::paper_default();
        p.step(hot(), minute());
        let s = p.step(cool(), minute());
        assert_eq!(s, ProtocolState::Normal);
    }

    #[test]
    fn capping_lasts_five_minutes() {
        let mut p = EmergencyProtocol::paper_default();
        p.step(hot(), minute());
        p.step(hot(), minute()); // emergency declared, 5 min episode
        let mut capped = 0;
        for _ in 0..10 {
            if p.step(cool(), minute()).is_capping() {
                capped += 1;
            }
        }
        assert_eq!(
            capped, 4,
            "5-minute episode spans 5 slots incl. declaration"
        );
    }

    #[test]
    fn persistent_heat_retriggers_after_episode() {
        let mut p = EmergencyProtocol::paper_default();
        // Keep the room hot forever; capping episodes must repeat.
        let mut emergencies = 0;
        let mut prev_capping = false;
        for _ in 0..30 {
            let s = p.step(hot(), minute());
            if s.is_capping() && !prev_capping {
                emergencies += 1;
            }
            prev_capping = s.is_capping();
        }
        assert!(emergencies >= 2, "got {emergencies} emergencies");
    }

    #[test]
    fn shutdown_at_45_degrees() {
        let mut p = EmergencyProtocol::paper_default();
        let s = p.step(Temperature::from_celsius(45.0), minute());
        assert!(s.is_outage());
        // Outage is absorbing until reset.
        assert!(p.step(cool(), minute()).is_outage());
        p.reset();
        assert_eq!(p.state(), ProtocolState::Normal);
    }

    #[test]
    fn shutdown_preempts_emergency() {
        let mut p = EmergencyProtocol::paper_default();
        p.step(hot(), minute());
        p.step(hot(), minute());
        assert!(p.state().is_capping());
        assert!(p
            .step(Temperature::from_celsius(46.0), minute())
            .is_outage());
    }

    #[test]
    fn exactly_at_threshold_is_not_over() {
        let mut p = EmergencyProtocol::paper_default();
        for _ in 0..5 {
            let s = p.step(Temperature::from_celsius(32.0), minute());
            assert_eq!(s, ProtocolState::Normal);
        }
    }

    #[test]
    #[should_panic(expected = "shutdown limit")]
    fn rejects_inverted_limits() {
        let _ = EmergencyProtocol::new(
            Temperature::from_celsius(45.0),
            Duration::from_minutes(2.0),
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Temperature::from_celsius(32.0),
        );
    }
}
