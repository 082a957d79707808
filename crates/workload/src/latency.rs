//! Tail-latency model for power-capped interactive services.
//!
//! During a thermal emergency every server must cap its power to 60 % of
//! capacity (120 W of 200 W). The paper measures on a CloudSuite prototype
//! (Appendix A, Figs. 14b and 15) that such a cap roughly **quadruples** the
//! 95th-percentile response time of a Web Service workload at 600 req/s.
//!
//! We model the service as a throttle-scaled queueing system:
//!
//! * CPU throughput scales with power above the idle floor:
//!   `c(p) = (p − p_idle) / (1 − p_idle)` for normalized power `p`;
//! * the 95th-percentile latency follows
//!   `t95(p, λ) = t_base + t_queue / (1 − ρ)` with utilization `ρ = λ / c(p)`,
//!   saturating at a timeout ceiling once the system is overloaded.
//!
//! Parameters for the two CloudSuite applications are calibrated so that the
//! paper's anchor points hold (≈100 ms at full power and rated load, ≈400 ms
//! at a 60 % cap for Web Service).

/// Tail-latency model of one interactive application.
///
/// All powers and loads are normalized: `power_frac` is the per-server power
/// cap relative to peak (1.0 = uncapped), `load_frac` is the offered load
/// relative to the capacity of an uncapped server.
///
/// # Examples
///
/// ```
/// use hbm_workload::latency::LatencyModel;
///
/// let m = LatencyModel::web_service();
/// let normal = m.t95_millis(1.0, m.rated_load());
/// let capped = m.t95_millis(0.6, m.rated_load());
/// assert!(capped / normal > 3.0 && capped / normal < 5.0); // ≈4× (Fig. 14b)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed (network + minimum service) latency in milliseconds.
    base_ms: f64,
    /// Queueing coefficient in milliseconds.
    queue_ms: f64,
    /// Idle power fraction below which the server does no useful work.
    idle_power_frac: f64,
    /// Latency ceiling (timeout behaviour) in milliseconds.
    ceiling_ms: f64,
    /// Rated (default) offered load fraction.
    rated_load: f64,
    /// SLA target in milliseconds (100 ms in the paper's Fig. 15).
    sla_ms: f64,
}

impl LatencyModel {
    /// CloudSuite **Web Service** calibration (Fig. 14b / Fig. 15a).
    ///
    /// Anchors: ≈100 ms t95 at full power and rated load; ≈400 ms at a 60 %
    /// power cap.
    pub fn web_service() -> Self {
        LatencyModel {
            base_ms: 60.0,
            queue_ms: 24.0,
            idle_power_frac: 0.30,
            ceiling_ms: 1000.0,
            rated_load: 0.40,
            sla_ms: 100.0,
        }
    }

    /// CloudSuite **Web Search** calibration (Fig. 15b): heavier per-request
    /// work, so it degrades faster as power shrinks.
    pub fn web_search() -> Self {
        LatencyModel {
            base_ms: 45.0,
            queue_ms: 27.5,
            idle_power_frac: 0.35,
            ceiling_ms: 1500.0,
            rated_load: 0.45,
            sla_ms: 100.0,
        }
    }

    /// The rated (calibration) load fraction.
    pub fn rated_load(&self) -> f64 {
        self.rated_load
    }

    /// The SLA target in milliseconds.
    pub fn sla_ms(&self) -> f64 {
        self.sla_ms
    }

    /// Fixed (network + minimum service) latency, milliseconds.
    pub fn base_ms(&self) -> f64 {
        self.base_ms
    }

    /// Queueing coefficient, milliseconds. Equals `ln(20)` times the mean
    /// service time at full power, so the analytic `t95` is exactly the
    /// M/M/1 95th-percentile sojourn plus `base_ms` (validated in
    /// [`crate::queue`]).
    pub fn queue_ms(&self) -> f64 {
        self.queue_ms
    }

    /// Latency ceiling (timeout behaviour), milliseconds.
    pub fn ceiling_ms(&self) -> f64 {
        self.ceiling_ms
    }

    /// Normalized service capacity at power fraction `p` (0 at the idle
    /// floor, 1 at full power).
    pub fn capacity_at(&self, power_frac: f64) -> f64 {
        ((power_frac - self.idle_power_frac) / (1.0 - self.idle_power_frac)).clamp(0.0, 1.0)
    }

    /// 95th-percentile response time in milliseconds at the given power cap
    /// and offered load.
    ///
    /// # Panics
    ///
    /// Panics if `power_frac` is outside `[0, 1]` or `load_frac` is negative.
    pub fn t95_millis(&self, power_frac: f64, load_frac: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&power_frac),
            "power fraction must be in [0, 1]"
        );
        assert!(load_frac >= 0.0, "load fraction must be non-negative");
        let capacity = self.capacity_at(power_frac);
        if capacity <= 0.0 {
            return self.ceiling_ms;
        }
        let rho = load_frac / capacity;
        if rho >= 1.0 {
            return self.ceiling_ms;
        }
        (self.base_ms + self.queue_ms / (1.0 - rho)).min(self.ceiling_ms)
    }

    /// t95 normalized to the SLA target (the y-axis of Fig. 15).
    pub fn t95_normalized_to_sla(&self, power_frac: f64, load_frac: f64) -> f64 {
        self.t95_millis(power_frac, load_frac) / self.sla_ms
    }

    /// Degradation factor relative to uncapped operation at the same load
    /// (the y-axis of Figs. 11d and 13b).
    pub fn degradation(&self, power_frac: f64, load_frac: f64) -> f64 {
        self.t95_millis(power_frac, load_frac) / self.t95_millis(1.0, load_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_service_anchor_points() {
        let m = LatencyModel::web_service();
        let full = m.t95_millis(1.0, m.rated_load());
        assert!((full - 100.0).abs() < 5.0, "full-power t95 {full} ≉ 100 ms");
        let capped = m.t95_millis(0.6, m.rated_load());
        assert!(
            (350.0..500.0).contains(&capped),
            "capped t95 {capped} not ≈400 ms"
        );
    }

    #[test]
    fn monotonic_in_power() {
        for m in [LatencyModel::web_service(), LatencyModel::web_search()] {
            let load = m.rated_load();
            let mut prev = f64::INFINITY;
            for i in 0..=10 {
                let p = 0.3 + 0.07 * i as f64;
                let t = m.t95_millis(p.min(1.0), load);
                assert!(t <= prev + 1e-9, "latency must not rise with more power");
                prev = t;
            }
        }
    }

    #[test]
    fn monotonic_in_load() {
        let m = LatencyModel::web_search();
        let mut prev = 0.0;
        for i in 0..=8 {
            let t = m.t95_millis(0.8, 0.05 + 0.05 * i as f64);
            assert!(t >= prev, "latency must not fall with more load");
            prev = t;
        }
    }

    #[test]
    fn overload_hits_ceiling() {
        let m = LatencyModel::web_service();
        assert_eq!(m.t95_millis(0.3, 0.4), 1000.0); // capacity 0 at idle floor
        assert_eq!(m.t95_millis(0.5, 0.9), 1000.0); // rho >= 1
    }

    #[test]
    fn degradation_is_one_when_uncapped() {
        let m = LatencyModel::web_service();
        assert!((m.degradation(1.0, 0.3) - 1.0).abs() < 1e-12);
        assert!(m.degradation(0.6, m.rated_load()) > 1.0);
    }

    #[test]
    fn search_degrades_faster_than_service() {
        let ws = LatencyModel::web_service();
        let se = LatencyModel::web_search();
        assert!(
            se.degradation(0.6, se.rated_load()) > ws.degradation(0.6, ws.rated_load()) * 0.9,
            "web search should degrade at least comparably"
        );
    }

    #[test]
    fn normalized_to_sla_at_full_power_near_one() {
        for m in [LatencyModel::web_service(), LatencyModel::web_search()] {
            let v = m.t95_normalized_to_sla(1.0, m.rated_load());
            assert!((0.7..=1.2).contains(&v), "normalized t95 {v} should be ≈1");
        }
    }

    #[test]
    #[should_panic(expected = "power fraction")]
    fn rejects_out_of_range_power() {
        let _ = LatencyModel::web_service().t95_millis(1.2, 0.4);
    }
}
