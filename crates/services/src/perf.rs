//! The shared queueing-based performance model.
//!
//! Every modelled service maps the offered load and the effective capacity it
//! was given to a utilization level and, from there, to latency and QoS. The
//! model is an M/M/k-flavoured approximation: latency grows as `1/(1 - ρ)`
//! and explodes past saturation. Absolute values are calibrated so that the
//! allocations the paper reports (e.g. 1–10 large instances covering the
//! Messenger trace with a 60 ms SLO) fall out of the same arithmetic.

/// A point-in-time performance measurement of the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// Mean response latency in milliseconds.
    pub latency_ms: f64,
    /// QoS percentage (fraction of requests meeting their quality target),
    /// only meaningful for services that define one (SPECweb).
    pub qos_percent: f64,
    /// Offered throughput in requests per second.
    pub throughput_rps: f64,
    /// Mean per-instance utilization in `[0, ~1.5]` (values above 1 denote
    /// saturation).
    pub utilization: f64,
}

/// Queueing model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingModel {
    /// Latency at (near-)zero load, in milliseconds.
    pub base_latency_ms: f64,
    /// Capacity units of demand generated when the workload intensity is 1.0
    /// (the trace peak). With a full capacity of 10 units and a demand factor
    /// of 7.5, the peak runs the full-capacity deployment at 75% utilization.
    pub peak_demand_units: f64,
    /// Hard cap on modelled latency (saturated systems time out rather than
    /// queue forever).
    pub max_latency_ms: f64,
    /// Requests per second per unit of demand at intensity 1.0 — only used to
    /// report throughput.
    pub peak_rps: f64,
}

impl Default for QueueingModel {
    fn default() -> Self {
        QueueingModel {
            base_latency_ms: 15.0,
            peak_demand_units: 7.5,
            max_latency_ms: 500.0,
            peak_rps: 10_000.0,
        }
    }
}

impl QueueingModel {
    /// Mean utilization when `intensity` (fraction of peak) is served by
    /// `capacity_units` of effective capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_units` is not positive.
    pub fn utilization(&self, intensity: f64, capacity_units: f64) -> f64 {
        assert!(capacity_units > 0.0, "capacity must be positive");
        (intensity.max(0.0) * self.peak_demand_units / capacity_units).max(0.0)
    }

    /// Mean latency at utilization `rho`.
    pub fn latency_at_utilization(&self, rho: f64) -> f64 {
        let rho = rho.max(0.0);
        let latency = if rho < 0.95 {
            self.base_latency_ms / (1.0 - rho)
        } else {
            // Past saturation: linear blow-up on top of the near-saturation value.
            let at_sat = self.base_latency_ms / 0.05;
            at_sat * (1.0 + (rho - 0.95) * 20.0)
        };
        latency.min(self.max_latency_ms)
    }

    /// Convenience: latency for an (intensity, capacity) pair.
    pub fn latency_ms(&self, intensity: f64, capacity_units: f64) -> f64 {
        self.latency_at_utilization(self.utilization(intensity, capacity_units))
    }

    /// QoS percentage at utilization `rho`: ~100% until a knee, then a steep
    /// linear decline (the SPECweb compliance criterion).
    pub fn qos_at_utilization(&self, rho: f64) -> f64 {
        const KNEE: f64 = 0.87;
        if rho <= KNEE {
            100.0
        } else {
            (100.0 - (rho - KNEE) * 150.0).max(20.0)
        }
    }

    /// Offered throughput in requests per second at `intensity`.
    pub fn throughput_rps(&self, intensity: f64) -> f64 {
        intensity.max(0.0) * self.peak_rps
    }

    /// Full performance sample for an (intensity, capacity) pair with an
    /// optional latency multiplier for transient penalties (re-partitioning,
    /// cold caches).
    pub fn sample(
        &self,
        intensity: f64,
        capacity_units: f64,
        latency_multiplier: f64,
    ) -> PerfSample {
        let rho = self.utilization(intensity, capacity_units);
        PerfSample {
            latency_ms: (self.latency_at_utilization(rho) * latency_multiplier.max(1.0))
                .min(self.max_latency_ms),
            qos_percent: self.qos_at_utilization(rho),
            throughput_rps: self.throughput_rps(intensity),
            utilization: rho,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_monotone_in_load_and_capacity() {
        let m = QueueingModel::default();
        assert!(m.latency_ms(0.8, 10.0) > m.latency_ms(0.4, 10.0));
        assert!(m.latency_ms(0.8, 5.0) > m.latency_ms(0.8, 10.0));
    }

    #[test]
    fn calibration_matches_paper_allocations() {
        let m = QueueingModel::default();
        // At the trace peak with full capacity (10 large instances) the 60 ms
        // Cassandra SLO is met...
        assert!(m.latency_ms(1.0, 10.0) <= 60.0 + 1e-9);
        // ...but not with 9 instances.
        assert!(m.latency_ms(1.0, 9.0) > 60.0);
        // At half load, 5 instances suffice.
        assert!(m.latency_ms(0.5, 5.0) <= 60.0 + 1e-9);
    }

    #[test]
    fn saturation_is_capped() {
        let m = QueueingModel::default();
        let l = m.latency_ms(1.5, 1.0);
        assert!(l <= m.max_latency_ms);
        assert!(l > 100.0);
    }

    #[test]
    fn qos_knee_behaviour() {
        let m = QueueingModel::default();
        assert_eq!(m.qos_at_utilization(0.5), 100.0);
        assert_eq!(m.qos_at_utilization(0.87), 100.0);
        assert!(m.qos_at_utilization(0.95) < 100.0);
        assert!(m.qos_at_utilization(2.0) >= 20.0);
    }

    #[test]
    fn sample_combines_everything() {
        let m = QueueingModel::default();
        let s = m.sample(0.6, 6.0, 1.0);
        assert!((s.utilization - 0.75).abs() < 1e-9);
        assert!(s.latency_ms > m.base_latency_ms);
        assert_eq!(s.qos_percent, 100.0);
        assert!(s.throughput_rps > 0.0);
        // A transient multiplier raises latency but never past the cap.
        let degraded = m.sample(0.6, 6.0, 3.0);
        assert!(degraded.latency_ms > s.latency_ms);
        assert!(degraded.latency_ms <= m.max_latency_ms);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let m = QueueingModel::default();
        let _ = m.utilization(0.5, 0.0);
    }
}
