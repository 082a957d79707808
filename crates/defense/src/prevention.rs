//! Prevention defenses: move-in inspection and side-channel degradation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use hbm_units::Power;

/// Move-in inspection model (Section VII-A, "rigorous move-in inspection").
///
/// Each piece of gear is inspected with some coverage probability; an
/// inspected battery-equipped PSU is recognized with some detection
/// probability (visual inspection plus on-site load tests). Without
/// built-in batteries the attacker has no extra power source and the
/// attack is dead.
///
/// # Examples
///
/// ```
/// use hbm_defense::MoveInInspection;
///
/// let inspection = MoveInInspection::new(0.8, 0.95);
/// // Four attack servers: the chance that at least one battery is found.
/// let p = inspection.detection_probability(4);
/// assert!(p > 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveInInspection {
    /// Probability that any given server is actually inspected.
    pub coverage: f64,
    /// Probability an inspected built-in battery is recognized.
    pub recognition: f64,
}

impl MoveInInspection {
    /// Creates an inspection policy.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(coverage: f64, recognition: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&recognition),
            "recognition must be in [0, 1]"
        );
        MoveInInspection {
            coverage,
            recognition,
        }
    }

    /// Per-server probability of catching a battery.
    pub fn per_server(&self) -> f64 {
        self.coverage * self.recognition
    }

    /// Probability at least one of `battery_servers` batteries is caught.
    pub fn detection_probability(&self, battery_servers: usize) -> f64 {
        1.0 - (1.0 - self.per_server()).powi(battery_servers as i32)
    }

    /// Samples whether a move-in with `battery_servers` batteried servers is
    /// caught.
    pub fn sample<R: RngExt + ?Sized>(&self, battery_servers: usize, rng: &mut R) -> bool {
        rng.random::<f64>() < self.detection_probability(battery_servers)
    }

    /// Monte-Carlo estimate of the detection probability (used to validate
    /// the closed form; also handy for more elaborate inspection policies).
    pub fn simulate(&self, battery_servers: usize, trials: u32, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut caught = 0u32;
        for _ in 0..trials {
            let mut hit = false;
            for _ in 0..battery_servers {
                if rng.random::<f64>() < self.per_server() {
                    hit = true;
                }
            }
            if hit {
                caught += 1;
            }
        }
        caught as f64 / trials as f64
    }
}

/// Sizes the jamming-noise amplitude needed to degrade the attacker's load
/// estimate to a target standard deviation (Section VII-A, "degrading
/// physical side channels").
///
/// The operator injects broadband noise into the power network; its effect
/// on the attacker is equivalent to the extra estimation noise of
/// `hbm_sidechannel::SideChannelConfig::with_extra_noise` (swept in
/// Fig. 12b). Because the attacker averages `n` samples per slot, the
/// injected per-sample noise must be `√n` larger.
pub fn jamming_noise_for_accuracy(target_estimate_std: Power, samples_per_estimate: u32) -> Power {
    target_estimate_std * (samples_per_estimate.max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_servers_are_hard_to_sneak_in() {
        let i = MoveInInspection::new(0.8, 0.95);
        assert!((i.per_server() - 0.76).abs() < 1e-12);
        let p4 = i.detection_probability(4);
        assert!(p4 > 0.996, "got {p4}");
    }

    #[test]
    fn zero_coverage_catches_nothing() {
        let i = MoveInInspection::new(0.0, 1.0);
        assert_eq!(i.detection_probability(10), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!i.sample(10, &mut rng));
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        let i = MoveInInspection::new(0.5, 0.8);
        let mc = i.simulate(4, 20_000, 7);
        let exact = i.detection_probability(4);
        assert!((mc - exact).abs() < 0.01, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn jamming_scales_with_averaging() {
        let per_sample = jamming_noise_for_accuracy(Power::from_kilowatts(0.4), 64);
        assert!((per_sample.as_kilowatts() - 3.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn rejects_bad_probability() {
        let _ = MoveInInspection::new(1.5, 0.5);
    }
}
