//! Criterion benchmark harness for the paper's tables and figures.
//!
//! Besides the (empty) crate root, this library carries one reference
//! implementation kept verbatim as a benchmark baseline and equivalence
//! oracle for an optimized kernel in `hbm-thermal`: [`gather`], the
//! pre-scatter heat-matrix convolution that re-summed
//! `receivers × lags × sources` every step.
#![forbid(unsafe_code)]

pub mod gather {
    //! The original gather-convolution heat-matrix kernel, kept verbatim
    //! (minus the API it doesn't need) as the benchmark baseline and
    //! equivalence oracle for `hbm_thermal::HeatMatrixModel`'s
    //! scatter-on-arrival rewrite. Do not optimize this copy.
    //!
    //! The two kernels evaluate the same convolution in different summation
    //! orders (gather: newest age first; scatter: arrival order), so
    //! equivalence is asserted at 1e-9, not bit-for-bit — the policy is
    //! documented in `docs/PERFORMANCE.md`.

    use hbm_thermal::{HeatMatrix, HeatMatrixModel};
    use hbm_units::Power;

    /// Linear-superposition model evaluated with the pre-rewrite per-step
    /// gather: every step re-sums all `filled` history ages for every
    /// receiver.
    #[derive(Debug, Clone)]
    pub struct GatherHeatMatrixModel {
        matrix: HeatMatrix,
        /// The matrix's responses transposed to `[receiver][lag][source]`,
        /// so the convolution's inner (source) loop walks contiguous memory.
        resp_by_receiver: Vec<f64>,
        baseline_powers: Vec<Power>,
        baseline_inlets: Vec<f64>,
        supply_celsius: f64,
        /// Ring buffer of power deviations, `lags × servers` watts; slot
        /// `head` holds the newest step, ages increase from there.
        history: Vec<f64>,
        /// Ring slot of the newest deviation.
        head: usize,
        /// Number of valid history steps (≤ lag count).
        filled: usize,
    }

    impl GatherHeatMatrixModel {
        /// Creates the reference model around an operating point.
        ///
        /// # Panics
        ///
        /// Panics if vector lengths mismatch the matrix.
        pub fn new(
            matrix: HeatMatrix,
            baseline_powers: Vec<Power>,
            baseline_inlets: Vec<f64>,
            supply_celsius: f64,
        ) -> Self {
            let n = matrix.server_count();
            let lags = matrix.lag_count();
            assert_eq!(baseline_powers.len(), n);
            assert_eq!(baseline_inlets.len(), n);
            let mut resp_by_receiver = vec![0.0; n * n * lags];
            for source in 0..n {
                for receiver in 0..n {
                    for lag in 0..lags {
                        resp_by_receiver[(receiver * lags + lag) * n + source] =
                            matrix.response(source, receiver, lag);
                    }
                }
            }
            GatherHeatMatrixModel {
                matrix,
                resp_by_receiver,
                baseline_powers,
                baseline_inlets,
                supply_celsius,
                history: vec![0.0; lags * n],
                head: 0,
                filled: 0,
            }
        }

        /// Builds the reference model at the same operating point as an
        /// optimized [`HeatMatrixModel`].
        pub fn from_model(model: &HeatMatrixModel) -> Self {
            Self::new(
                model.matrix().clone(),
                model.baseline_powers().to_vec(),
                model.baseline_inlets_celsius().to_vec(),
                model.supply_celsius(),
            )
        }

        /// The deviation vector recorded `age` steps ago (0 = newest).
        fn history_slice(&self, age: usize) -> &[f64] {
            let n = self.matrix.server_count();
            let slot = (self.head + age) % self.matrix.lag_count();
            &self.history[slot * n..(slot + 1) * n]
        }

        /// Advances one lag step and returns the predicted inlets, °C.
        ///
        /// # Panics
        ///
        /// Panics if `powers.len()` mismatches the server count.
        pub fn step(&mut self, powers: &[Power]) -> Vec<f64> {
            let n = self.matrix.server_count();
            assert_eq!(powers.len(), n, "one power per server required");
            let lags = self.matrix.lag_count();

            // Rotate the ring backward: yesterday's newest slot becomes
            // age 1.
            self.head = (self.head + lags - 1) % lags;
            let newest = &mut self.history[self.head * n..(self.head + 1) * n];
            for (slot, (&p, &b)) in newest
                .iter_mut()
                .zip(powers.iter().zip(&self.baseline_powers))
            {
                *slot = (p - b).as_watts();
            }
            self.filled = (self.filled + 1).min(lags);

            (0..n)
                .map(|receiver| {
                    let mut t = self.baseline_inlets[receiver];
                    for age in 0..self.filled {
                        let dev = self.history_slice(age);
                        let resp = &self.resp_by_receiver[(receiver * lags + age) * n..][..n];
                        for (source, &dw) in dev.iter().enumerate() {
                            if dw != 0.0 {
                                t += resp[source] * dw;
                            }
                        }
                    }
                    t.max(self.supply_celsius)
                })
                .collect()
        }

        /// Clears the convolution history (back to the operating point).
        pub fn reset(&mut self) {
            self.filled = 0;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use hbm_thermal::{CfdConfig, CoolingSystem};
        use hbm_units::{Duration, Temperature};

        fn small_config() -> CfdConfig {
            CfdConfig {
                racks: 1,
                servers_per_rack: 4,
                cooling: CoolingSystem {
                    capacity: Power::from_kilowatts(0.8),
                    supply: Temperature::from_celsius(27.0),
                    derate_onset: Temperature::from_celsius(33.0),
                    derate_per_kelvin: 0.05,
                    min_capacity_fraction: 0.65,
                },
                per_server_flow_kg_s: 0.018,
                leakage_fraction: 0.06,
                cell_mass_kg: 0.5,
                plenum_mass_kg: 1.0,
            }
        }

        #[test]
        fn reference_matches_the_scatter_rewrite() {
            let config = small_config();
            let baseline = vec![Power::from_watts(150.0); 4];
            let mut scatter = HeatMatrixModel::from_cfd(
                &config,
                &baseline,
                Power::from_watts(120.0),
                Duration::from_minutes(5.0),
                Duration::from_minutes(1.0),
            );
            let mut reference = GatherHeatMatrixModel::from_model(&scatter);
            let mut out = vec![0.0; 4];
            for step in 0..50 {
                let powers: Vec<Power> = (0..4)
                    .map(|s| {
                        Power::from_watts(150.0 + 50.0 * ((s * 7 + step * 13) % 16) as f64 / 16.0)
                    })
                    .collect();
                let want = reference.step(&powers);
                scatter.step_into(&powers, &mut out);
                for (s, (&a, &b)) in want.iter().zip(&out).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-9,
                        "step {step} server {s}: gather {a} vs scatter {b}"
                    );
                }
            }
        }

        #[test]
        fn reference_matches_the_scatter_rewrite_across_reset() {
            let config = small_config();
            let baseline = vec![Power::from_watts(150.0); 4];
            let mut scatter = HeatMatrixModel::from_cfd(
                &config,
                &baseline,
                Power::from_watts(120.0),
                Duration::from_minutes(5.0),
                Duration::from_minutes(1.0),
            );
            let mut reference = GatherHeatMatrixModel::from_model(&scatter);
            let mut hot = baseline.clone();
            hot[1] += Power::from_watts(333.0);
            let mut out = vec![0.0; 4];
            for step in 0..20 {
                if step == 7 {
                    scatter.reset();
                    reference.reset();
                }
                let powers = if step % 3 == 0 { &hot } else { &baseline };
                let want = reference.step(powers);
                scatter.step_into(powers, &mut out);
                for (s, (&a, &b)) in want.iter().zip(&out).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-9,
                        "step {step} server {s}: gather {a} vs scatter {b}"
                    );
                }
            }
        }
    }
}
