//! Heat-distribution matrix: extraction from the CFD model and the linear
//! superposition model built on it.
//!
//! Following the paper (Section V-A, "Thermal environment"): *"to extract the
//! heat distribution matrix, we test the data center with a heat spike from
//! each server and measure the resulting temperature impact for 10 minutes.
//! We repeat the process for all servers to completely build the matrix."*
//!
//! [`extract_heat_matrix`] does exactly that against [`CfdModel`];
//! [`HeatMatrixModel`] then predicts per-server inlet temperatures by
//! convolving per-server power deviations with the extracted impulse
//! responses. Like the paper's, this is a linearization around the chosen
//! operating point: it captures heat recirculation and advection (which
//! servers warm which inlets, and with what delay) and is validated against
//! the CFD model in that regime (Fig. 7a). Cooling-capacity *saturation* is
//! inherently nonlinear, so the overload dynamics of attacks are handled by
//! [`crate::ZoneModel`] — mirroring the paper, which likewise switches from
//! CFD-extracted responses to an aggregate emergency model once the plant is
//! overloaded.

use hbm_units::{Duration, Power, Temperature};

use crate::{CfdConfig, CfdModel};

/// Impulse responses of every server inlet to a heat spike at every server.
///
/// `response(source, receiver, lag)` is the inlet-temperature impact (kelvin
/// per watt of spike power) at `receiver`, `lag` steps after a one-step
/// spike at `source`.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatMatrix {
    servers: usize,
    lags: usize,
    lag_step: Duration,
    /// Flattened `[source][receiver][lag]`, K/W.
    data: Vec<f64>,
}

impl HeatMatrix {
    /// Number of servers (sources = receivers).
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// Number of lag steps in the response window.
    pub fn lag_count(&self) -> usize {
        self.lags
    }

    /// Duration of one lag step.
    pub fn lag_step(&self) -> Duration {
        self.lag_step
    }

    /// Impulse response entry, K/W.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn response(&self, source: usize, receiver: usize, lag: usize) -> f64 {
        assert!(source < self.servers, "source out of range");
        assert!(receiver < self.servers, "receiver out of range");
        assert!(lag < self.lags, "lag out of range");
        self.data[(source * self.servers + receiver) * self.lags + lag]
    }

    /// Builds a matrix from raw impulse-response data (flattened
    /// `[source][receiver][lag]`, K/W) — for synthetic matrices in tests and
    /// reference kernels outside this crate; extraction-produced matrices
    /// should come from [`extract_heat_matrix`].
    ///
    /// # Panics
    ///
    /// Panics if `servers` or `lags` is zero, `lag_step` is non-positive, or
    /// `data.len() != servers * servers * lags`.
    pub fn from_raw(servers: usize, lags: usize, lag_step: Duration, data: Vec<f64>) -> Self {
        assert!(servers > 0, "at least one server required");
        assert!(lags > 0, "at least one lag step required");
        assert!(lag_step > Duration::ZERO, "lag step must be positive");
        assert_eq!(
            data.len(),
            servers * servers * lags,
            "data must hold servers x servers x lags responses"
        );
        HeatMatrix {
            servers,
            lags,
            lag_step,
            data,
        }
    }
}

/// Extracts the heat-distribution matrix from the CFD model.
///
/// The model is driven to steady state at `baseline` powers; then, for each
/// server, a spike of `spike` extra watts is applied for one `lag_step` and
/// the per-server inlet deviation is recorded at every `lag_step` boundary
/// over `window`.
///
/// # Panics
///
/// Panics if `baseline` length mismatches the layout, `spike` is
/// non-positive, or `window` is shorter than `lag_step`.
///
/// # Examples
///
/// ```no_run
/// use hbm_thermal::{extract_heat_matrix, CfdConfig};
/// use hbm_units::{Duration, Power};
///
/// let config = CfdConfig::paper_default();
/// let baseline = vec![Power::from_watts(150.0); config.server_count()];
/// let matrix = extract_heat_matrix(
///     &config,
///     &baseline,
///     Power::from_watts(300.0),
///     Duration::from_minutes(10.0),
///     Duration::from_minutes(1.0),
/// );
/// assert_eq!(matrix.server_count(), 40);
/// ```
pub fn extract_heat_matrix(
    config: &CfdConfig,
    baseline: &[Power],
    spike: Power,
    window: Duration,
    lag_step: Duration,
) -> HeatMatrix {
    run_extraction(config, baseline, spike, window, lag_step).matrix
}

/// The full result of one extraction: the matrix plus the steady-state
/// inlets of the operating point it was linearized around.
struct Extraction {
    matrix: HeatMatrix,
    /// Steady-state inlet temperatures at `baseline`, °C, rack-major.
    base_inlets: Vec<f64>,
}

/// The actual spike-probing procedure.
fn run_extraction(
    config: &CfdConfig,
    baseline: &[Power],
    spike: Power,
    window: Duration,
    lag_step: Duration,
) -> Extraction {
    assert_eq!(
        baseline.len(),
        config.server_count(),
        "one baseline power per server required"
    );
    assert!(spike > Power::ZERO, "spike power must be positive");
    assert!(
        window >= lag_step,
        "window must cover at least one lag step"
    );
    let started = hbm_telemetry::timing::start();
    let servers = config.server_count();
    let lags = (window / lag_step).round() as usize;

    // Steady state at the operating point.
    let mut base_model = CfdModel::new(*config);
    base_model.run_to_steady_state(baseline, 0.002, Duration::from_minutes(60.0));
    let base_inlets: Vec<f64> = base_model.inlet_celsius().to_vec();

    // Each source's probe is an independent transient from the shared
    // steady state, so the sources parallelize with no effect on the
    // results (each writes a disjoint block, reassembled in order).
    let spike_watts = spike.as_watts();
    let blocks = hbm_par::par_map((0..servers).collect(), |source| {
        let mut model = base_model.clone();
        let mut spiked = baseline.to_vec();
        spiked[source] += spike;
        let mut block = vec![0.0; servers * lags];
        for lag in 0..lags {
            let powers: &[Power] = if lag == 0 { &spiked } else { baseline };
            model.step(powers, lag_step);
            for (receiver, t) in model.inlet_celsius().iter().enumerate() {
                let dt = t - base_inlets[receiver];
                block[receiver * lags + lag] = dt / spike_watts;
            }
        }
        block
    });
    let mut data = Vec::with_capacity(servers * servers * lags);
    for block in blocks {
        data.extend_from_slice(&block);
    }

    hbm_telemetry::timing::record_span_units("heat_matrix.extract", started, servers as u64);
    Extraction {
        matrix: HeatMatrix {
            servers,
            lags,
            lag_step,
            data,
        },
        base_inlets,
    }
}

/// Linear-superposition thermal model driven by a [`HeatMatrix`].
///
/// Predicts per-server inlet temperatures as the baseline inlets plus the
/// convolution of per-server power *deviations* with the impulse responses.
/// Temperatures are floored at the supply setpoint (the AC never cools below
/// it, so neither does the linearization).
///
/// The convolution is evaluated *scatter-on-arrival*: when a slot's power
/// vector arrives, each nonzero deviation's whole response column is
/// scattered once into a ring of pre-accumulated future inlet contributions,
/// and every step then reads its answer from the ring's current slot in
/// O(servers). The former gather kernel re-summed `servers × lags × sources`
/// every step; the scatter form does that work only once per *arrival*, which
/// in steady state (few sources deviating per slot) is a ~`lags`-fold
/// reduction. The reference gather kernel lives on in `hbm-bench` as
/// `GatherHeatMatrixModel`, with equivalence enforced at 1e-9 (the summation
/// order changes — contributions accumulate in arrival order instead of
/// newest-age-first — so the two kernels agree to rounding, not bit-for-bit;
/// see `docs/PERFORMANCE.md`).
#[derive(Debug, Clone)]
pub struct HeatMatrixModel {
    matrix: HeatMatrix,
    /// The matrix's responses transposed to `[source][lag][receiver]`, so a
    /// scatter of one source's response at one lag reads *and* writes
    /// contiguous memory.
    resp_scatter: Vec<f64>,
    baseline_powers: Vec<Power>,
    baseline_inlets: Vec<f64>,
    supply_celsius: f64,
    /// Ring of pre-accumulated future inlet contributions, `lags × servers`
    /// kelvin: slot `(head + lag) % lags` holds the summed impact, on every
    /// receiver, of all past arrivals whose response reaches `lag` steps
    /// ahead of the current slot.
    pending: Vec<f64>,
    /// Ring slot the *next* step will read (and then retire).
    head: usize,
}

impl PartialEq for HeatMatrixModel {
    /// Compares logical state: two models are equal when they would
    /// predict identically, regardless of where the ring buffer's head
    /// happens to sit.
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
            && self.baseline_powers == other.baseline_powers
            && self.baseline_inlets == other.baseline_inlets
            && self.supply_celsius == other.supply_celsius
            && (0..self.matrix.lag_count())
                .all(|lag| self.pending_slice(lag) == other.pending_slice(lag))
    }
}

impl HeatMatrixModel {
    /// Creates a model around the operating point the matrix was extracted
    /// at.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths mismatch the matrix.
    pub fn new(
        matrix: HeatMatrix,
        baseline_powers: Vec<Power>,
        baseline_inlets: Vec<Temperature>,
        supply: Temperature,
    ) -> Self {
        assert_eq!(baseline_powers.len(), matrix.server_count());
        assert_eq!(baseline_inlets.len(), matrix.server_count());
        Self::from_parts(
            matrix,
            baseline_powers,
            baseline_inlets.iter().map(|t| t.as_celsius()).collect(),
            supply.as_celsius(),
        )
    }

    fn from_parts(
        matrix: HeatMatrix,
        baseline_powers: Vec<Power>,
        baseline_inlets: Vec<f64>,
        supply_celsius: f64,
    ) -> Self {
        let n = matrix.server_count();
        let lags = matrix.lag_count();
        // Transpose [source][receiver][lag] → [source][lag][receiver]; pure
        // data movement, every response value is unchanged.
        let mut resp_scatter = vec![0.0; n * n * lags];
        for source in 0..n {
            for receiver in 0..n {
                for lag in 0..lags {
                    resp_scatter[(source * lags + lag) * n + receiver] =
                        matrix.data[(source * n + receiver) * lags + lag];
                }
            }
        }
        HeatMatrixModel {
            matrix,
            resp_scatter,
            baseline_powers,
            baseline_inlets,
            supply_celsius,
            pending: vec![0.0; lags * n],
            head: 0,
        }
    }

    /// The accumulated contributions `lag` steps ahead of the current slot.
    fn pending_slice(&self, lag: usize) -> &[f64] {
        let n = self.matrix.server_count();
        let slot = (self.head + lag) % self.matrix.lag_count();
        &self.pending[slot * n..(slot + 1) * n]
    }

    /// Convenience constructor: extracts the matrix and records the baseline
    /// in one go.
    ///
    /// The extraction's steady-state inlets double as the model's
    /// baseline, so one CFD run yields both.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`extract_heat_matrix`].
    pub fn from_cfd(
        config: &CfdConfig,
        baseline: &[Power],
        spike: Power,
        window: Duration,
        lag_step: Duration,
    ) -> Self {
        let extraction = run_extraction(config, baseline, spike, window, lag_step);
        Self::from_parts(
            extraction.matrix,
            baseline.to_vec(),
            extraction.base_inlets,
            config.cooling.supply.as_celsius(),
        )
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &HeatMatrix {
        &self.matrix
    }

    /// The per-server baseline powers of the operating point.
    pub fn baseline_powers(&self) -> &[Power] {
        &self.baseline_powers
    }

    /// The steady-state inlet temperatures at the operating point, °C.
    pub fn baseline_inlets_celsius(&self) -> &[f64] {
        &self.baseline_inlets
    }

    /// The cooling supply setpoint the predictions are floored at, °C.
    pub fn supply_celsius(&self) -> f64 {
        self.supply_celsius
    }

    /// Scatters this slot's nonzero power deviations into the pending ring.
    ///
    /// Each deviating source contributes its whole response column at once:
    /// `lag_count` contiguous multiply-adds, one ring slot per lag, starting
    /// at the current slot (the lag-0 response lands in the slot the same
    /// step reads, matching the gather kernel's age-0 term).
    fn scatter_arrivals(&mut self, powers: &[Power]) {
        let started = hbm_telemetry::timing::start();
        let n = self.matrix.server_count();
        let lags = self.matrix.lag_count();
        for (source, (&p, &b)) in powers.iter().zip(&self.baseline_powers).enumerate() {
            let dw = (p - b).as_watts();
            if dw == 0.0 {
                continue;
            }
            let resp = &self.resp_scatter[source * lags * n..(source + 1) * lags * n];
            for (lag, row) in resp.chunks_exact(n).enumerate() {
                let slot = (self.head + lag) % lags;
                let pending = &mut self.pending[slot * n..(slot + 1) * n];
                for (acc, &r) in pending.iter_mut().zip(row) {
                    *acc += r * dw;
                }
            }
        }
        hbm_telemetry::timing::record_span("matrix.scatter", started);
    }

    /// Zeroes the slot just read and advances the ring one step.
    fn retire_current(&mut self) {
        let n = self.matrix.server_count();
        let cur = self.head * n;
        self.pending[cur..cur + n].fill(0.0);
        self.head = (self.head + 1) % self.matrix.lag_count();
    }

    /// Advances one lag step with the given per-server powers, writing the
    /// predicted inlet temperatures (°C) into `out`. Allocation-free: the
    /// steady loop can call this every slot without touching the heap.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` or `out.len()` mismatches the server count.
    pub fn step_into(&mut self, powers: &[Power], out: &mut [f64]) {
        let n = self.matrix.server_count();
        assert_eq!(powers.len(), n, "one power per server required");
        assert_eq!(out.len(), n, "one output cell per server required");
        let started = hbm_telemetry::timing::start();
        self.scatter_arrivals(powers);
        let current = self.pending_slice(0);
        for ((o, &dt), &base) in out.iter_mut().zip(current).zip(&self.baseline_inlets) {
            *o = (base + dt).max(self.supply_celsius);
        }
        self.retire_current();
        hbm_telemetry::timing::record_span("heat_matrix.convolve", started);
    }

    /// Advances one lag step with the given per-server powers and returns
    /// the predicted inlet temperatures.
    ///
    /// Thin compatibility wrapper over [`Self::step_into`]; hot loops should
    /// call `step_into` with a reused buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` mismatches the server count.
    pub fn step(&mut self, powers: &[Power]) -> Vec<Temperature> {
        let n = self.matrix.server_count();
        let mut out = vec![0.0; n];
        self.step_into(powers, &mut out);
        out.into_iter().map(Temperature::from_celsius).collect()
    }

    /// Mean of the latest prediction for a power vector (steps the model).
    ///
    /// Averages straight off the pending ring — no inlet vector is
    /// materialized, so this is as allocation-free as [`Self::step_into`].
    pub fn step_mean(&mut self, powers: &[Power]) -> Temperature {
        let n = self.matrix.server_count();
        assert_eq!(powers.len(), n, "one power per server required");
        let started = hbm_telemetry::timing::start();
        self.scatter_arrivals(powers);
        let mut sum = 0.0;
        for (&dt, &base) in self.pending_slice(0).iter().zip(&self.baseline_inlets) {
            sum += (base + dt).max(self.supply_celsius);
        }
        self.retire_current();
        hbm_telemetry::timing::record_span("heat_matrix.convolve", started);
        Temperature::from_celsius(sum / n as f64)
    }

    /// Clears the convolution history (back to the operating point).
    pub fn reset(&mut self) {
        // Every pending contribution came from past arrivals; zeroing the
        // ring forgets them all, which is exactly the operating point.
        self.pending.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_units::TemperatureDelta;

    /// Small layout so extraction stays fast in unit tests. The baseline
    /// keeps the plant below capacity (the linear regime matrices are
    /// extracted in).
    fn small_config() -> CfdConfig {
        CfdConfig {
            racks: 1,
            servers_per_rack: 4,
            cooling: crate::CoolingSystem {
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

    fn small_baseline() -> Vec<Power> {
        vec![Power::from_watts(150.0); 4]
    }

    fn small_matrix() -> HeatMatrix {
        extract_heat_matrix(
            &small_config(),
            &small_baseline(),
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Duration::from_minutes(1.0),
        )
    }

    #[test]
    fn matrix_dimensions() {
        let m = small_matrix();
        assert_eq!(m.server_count(), 4);
        assert_eq!(m.lag_count(), 5);
        assert_eq!(m.lag_step(), Duration::from_minutes(1.0));
    }

    /// Total (summed over lags) impact of `source` on `receiver`, K/W.
    fn total_response(m: &HeatMatrix, source: usize, receiver: usize) -> f64 {
        (0..m.lag_count())
            .map(|l| m.response(source, receiver, l))
            .sum()
    }

    #[test]
    fn self_response_is_positive() {
        let m = small_matrix();
        for s in 0..4 {
            assert!(
                total_response(&m, s, s) > 0.0,
                "server {s} must warm its own inlet through leakage"
            );
        }
    }

    #[test]
    fn cross_response_exists_under_shared_cooling() {
        let m = small_matrix();
        // A spike at the bottom server must affect the top server.
        assert!(total_response(&m, 0, 3) > 0.0);
    }

    #[test]
    fn impulse_response_decays_within_window() {
        let m = small_matrix();
        for s in 0..4 {
            let early: f64 = (0..2).map(|l| m.response(s, s, l)).sum();
            let late: f64 = (3..5).map(|l| m.response(s, s, l)).sum();
            assert!(
                late <= early + 1e-9,
                "response should not keep growing: early {early} late {late}"
            );
        }
    }

    #[test]
    fn model_matches_cfd_on_load_transient() {
        // Fig. 7(a): the matrix model tracks the CFD dynamics in the regime
        // it was extracted in.
        let config = small_config();
        let baseline = small_baseline();
        let mut matrix_model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Duration::from_minutes(1.0),
        );
        let mut cfd = CfdModel::new(config);
        cfd.run_to_steady_state(&baseline, 0.002, Duration::from_minutes(60.0));

        // 3-minute load excursion on server 1, then recovery.
        let mut excursion = baseline.clone();
        excursion[1] = Power::from_watts(290.0);
        let mut errors = Vec::new();
        for k in 0..8 {
            let powers = if k < 3 { &excursion } else { &baseline };
            let predicted = matrix_model.step_mean(powers);
            cfd.step(powers, Duration::from_minutes(1.0));
            errors.push((predicted - cfd.mean_inlet()).abs().as_celsius());
        }
        let rmse = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt();
        assert!(rmse < 0.3, "matrix-model RMSE vs CFD too high: {rmse} K");
    }

    #[test]
    fn superposition_is_linear() {
        let config = small_config();
        let baseline = small_baseline();
        let build = || {
            HeatMatrixModel::from_cfd(
                &config,
                &baseline,
                Power::from_watts(120.0),
                Duration::from_minutes(5.0),
                Duration::from_minutes(1.0),
            )
        };
        let mut single = build();
        let mut double = build();
        let mut p1 = baseline.clone();
        p1[0] += Power::from_watts(100.0);
        let mut p2 = baseline.clone();
        p2[0] += Power::from_watts(200.0);
        let t1 = single.step_mean(&p1);
        let t2 = double.step_mean(&p2);
        let base = single.baseline_inlets.iter().sum::<f64>() / 4.0;
        let d1 = t1.as_celsius() - base;
        let d2 = t2.as_celsius() - base;
        assert!(
            (d2 - 2.0 * d1).abs() < 1e-9,
            "doubled deviation must double the predicted rise: {d1} vs {d2}"
        );
    }

    #[test]
    fn step_into_matches_step() {
        let config = small_config();
        let baseline = small_baseline();
        let build = || {
            HeatMatrixModel::from_cfd(
                &config,
                &baseline,
                Power::from_watts(120.0),
                Duration::from_minutes(5.0),
                Duration::from_minutes(1.0),
            )
        };
        let mut a = build();
        let mut b = build();
        let mut out = vec![0.0; 4];
        for k in 0..12u32 {
            let mut powers = baseline.clone();
            powers[(k % 4) as usize] += Power::from_watts(f64::from(k) * 17.0);
            let temps = a.step(&powers);
            b.step_into(&powers, &mut out);
            for (t, &o) in temps.iter().zip(&out) {
                assert_eq!(t.as_celsius(), o, "wrapper and step_into share the kernel");
            }
        }
    }

    #[test]
    fn step_mean_matches_mean_of_step() {
        let config = small_config();
        let baseline = small_baseline();
        let build = || {
            HeatMatrixModel::from_cfd(
                &config,
                &baseline,
                Power::from_watts(120.0),
                Duration::from_minutes(5.0),
                Duration::from_minutes(1.0),
            )
        };
        let mut a = build();
        let mut b = build();
        let mut powers = baseline.clone();
        powers[2] += Power::from_watts(250.0);
        for _ in 0..7 {
            let inlets = a.step(&powers);
            let mean: f64 =
                inlets.iter().map(|t| t.as_celsius()).sum::<f64>() / inlets.len() as f64;
            let direct = b.step_mean(&powers).as_celsius();
            assert!(
                (mean - direct).abs() < 1e-12,
                "step_mean must average the same prediction: {mean} vs {direct}"
            );
        }
    }

    #[test]
    fn excursion_retires_exactly_after_lag_window() {
        // Once an arrival's whole response column has been read out, the
        // ring slot it occupied has been zeroed and the prediction returns
        // to the baseline *exactly* — no residue wraps around.
        let config = small_config();
        let baseline = small_baseline();
        let mut model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Duration::from_minutes(1.0),
        );
        let lags = model.matrix().lag_count();
        let mut hot = baseline.clone();
        hot[0] += Power::from_watts(300.0);
        model.step(&hot);
        let mut out = vec![0.0; 4];
        for _ in 0..lags - 1 {
            model.step_into(&baseline, &mut out);
        }
        // The excursion's last lag has now been consumed.
        model.step_into(&baseline, &mut out);
        for (o, &base) in out.iter().zip(model.baseline_inlets_celsius()) {
            assert_eq!(
                *o,
                base.max(model.supply_celsius()),
                "expired excursion must leave no residue"
            );
        }
    }

    #[test]
    fn reset_returns_to_baseline() {
        let config = small_config();
        let baseline = small_baseline();
        let mut model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Duration::from_minutes(1.0),
        );
        let mut hot = baseline.clone();
        hot[2] += Power::from_watts(400.0);
        model.step(&hot);
        model.reset();
        let t = model.step_mean(&baseline);
        let base = model.baseline_inlets.iter().sum::<f64>() / 4.0;
        assert!(
            (t.as_celsius() - base).abs() < 1e-9,
            "after reset baseline powers must predict baseline inlets"
        );
        let _ = TemperatureDelta::ZERO;
    }
}
