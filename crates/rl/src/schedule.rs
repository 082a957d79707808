//! Learning-rate and exploration schedules.

/// A learning-rate schedule `δ(t)`.
///
/// The paper uses `δ(t) = 1/t^0.85`, re-evaluated once per *day* of
/// simulated time (`t` = days elapsed, starting at 1) — the exponent comes
/// from the Even-Dar & Mansour analysis of polynomial learning rates it
/// cites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearningRate {
    /// Constant rate.
    Constant(f64),
    /// Polynomial decay `1/t^exponent` in the period counter `t ≥ 1`.
    Polynomial {
        /// Decay exponent (0.85 in the paper).
        exponent: f64,
    },
}

impl LearningRate {
    /// The paper's `δ(t) = 1/t^0.85` schedule.
    pub fn paper_default() -> Self {
        LearningRate::Polynomial { exponent: 0.85 }
    }

    /// Rate at period `t` (1-based; 0 is treated as 1).
    ///
    /// Always returns a value in `(0, 1]`.
    pub fn at(&self, t: u64) -> f64 {
        match *self {
            LearningRate::Constant(c) => c.clamp(f64::MIN_POSITIVE, 1.0),
            LearningRate::Polynomial { exponent } => {
                let t = t.max(1) as f64;
                t.powf(-exponent).clamp(f64::MIN_POSITIVE, 1.0)
            }
        }
    }
}

/// An ε-greedy exploration schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    /// Exploration probability at period 1.
    pub initial: f64,
    /// Multiplicative decay applied each period.
    pub decay: f64,
    /// Lower bound.
    pub floor: f64,
}

impl EpsilonSchedule {
    /// A gentle default: start at 20 %, decay 2 %/period, floor at 1 %.
    pub fn paper_default() -> Self {
        EpsilonSchedule {
            initial: 0.2,
            decay: 0.98,
            floor: 0.01,
        }
    }

    /// No exploration at all (pure greedy).
    pub fn greedy() -> Self {
        EpsilonSchedule {
            initial: 0.0,
            decay: 1.0,
            floor: 0.0,
        }
    }

    /// Exploration probability at period `t` (1-based).
    pub fn at(&self, t: u64) -> f64 {
        let t = t.max(1);
        (self.initial * self.decay.powi((t - 1) as i32)).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_values() {
        let s = LearningRate::paper_default();
        assert_eq!(s.at(1), 1.0);
        assert!((s.at(2) - 2.0f64.powf(-0.85)).abs() < 1e-12);
        assert!(s.at(100) < s.at(10));
        assert!(s.at(10_000) > 0.0);
    }

    #[test]
    fn zero_period_is_period_one() {
        let s = LearningRate::paper_default();
        assert_eq!(s.at(0), s.at(1));
    }

    #[test]
    fn constant_clamps_to_unit_interval() {
        assert_eq!(LearningRate::Constant(2.0).at(5), 1.0);
        assert!(LearningRate::Constant(0.3).at(99) == 0.3);
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let e = EpsilonSchedule::paper_default();
        assert_eq!(e.at(1), 0.2);
        assert!(e.at(10) < 0.2);
        assert_eq!(e.at(100_000), 0.01);
        assert_eq!(EpsilonSchedule::greedy().at(1), 0.0);
    }
}
