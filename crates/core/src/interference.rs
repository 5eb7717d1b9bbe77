//! Interference-index estimation (§3.6).
//!
//! When the baseline allocation for the just-identified workload class still
//! violates the SLO, DejaVu blames interference (the workload itself was just
//! classified in isolation) and computes an interference index by contrasting
//! the production performance with the performance the profiler measured in
//! isolation. The index is bucketed and becomes part of the repository key.

use crate::repository::RepositoryKey;
use dejavu_services::{PerfSample, Slo};

/// An interference-index bucket (0 = no detectable interference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InterferenceBucket(pub u32);

impl InterferenceBucket {
    /// No interference.
    pub const NONE: InterferenceBucket = InterferenceBucket(0);

    /// Buckets an interference index (index 1.0 = identical performance in
    /// production and isolation).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive.
    pub fn from_index(index: f64, bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        if !index.is_finite() || index <= 1.0 {
            return InterferenceBucket::NONE;
        }
        InterferenceBucket(((index - 1.0) / bucket_width).ceil() as u32)
    }

    /// Builds the repository key for a workload class observed under this bucket.
    pub fn key_for(self, class: usize) -> RepositoryKey {
        RepositoryKey {
            class,
            interference_bucket: self.0,
        }
    }
}

/// Estimates interference indices and the implied capacity loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceEstimator {
    /// Width of one index bucket.
    pub bucket_width: f64,
}

impl Default for InterferenceEstimator {
    fn default() -> Self {
        InterferenceEstimator { bucket_width: 0.25 }
    }
}

impl InterferenceEstimator {
    /// Creates an estimator.
    pub fn new(bucket_width: f64) -> Self {
        InterferenceEstimator { bucket_width }
    }

    /// The interference index: production performance contrasted with the
    /// isolated (profiler) performance, oriented so that larger is worse.
    ///
    /// For latency SLOs the index is `latency_production / latency_isolation`;
    /// for QoS SLOs it is `qos_isolation / qos_production`.
    pub fn index(&self, production: &PerfSample, isolation: &PerfSample, slo: &Slo) -> f64 {
        match slo {
            Slo::LatencyMs(_) => {
                if isolation.latency_ms <= 0.0 {
                    1.0
                } else {
                    (production.latency_ms / isolation.latency_ms).max(1.0)
                }
            }
            Slo::QosPercent(_) => {
                if production.qos_percent <= 0.0 {
                    2.0
                } else {
                    (isolation.qos_percent / production.qos_percent).max(1.0)
                }
            }
        }
    }

    /// Buckets an index.
    pub fn bucket(&self, index: f64) -> InterferenceBucket {
        InterferenceBucket::from_index(index, self.bucket_width)
    }

    /// Estimates the fraction of capacity stolen by co-located tenants from a
    /// latency-based interference index, given the utilization the deployment
    /// would have in isolation. Derived from the `latency ∝ 1/(1-ρ)` model:
    /// `index = (1-ρ_iso)/(1-ρ_prod)` and `ρ_prod = ρ_iso/(1-stolen)`.
    pub fn stolen_fraction(&self, index: f64, rho_isolation: f64) -> f64 {
        if index <= 1.0 || rho_isolation <= 0.0 {
            return 0.0;
        }
        let rho_prod = 1.0 - (1.0 - rho_isolation) / index;
        if rho_prod <= rho_isolation {
            return 0.0;
        }
        (1.0 - rho_isolation / rho_prod).clamp(0.0, 0.9)
    }

    /// The capacity-inflation factor to hand to the Tuner so that the chosen
    /// allocation retains enough effective capacity under the estimated
    /// interference.
    pub fn capacity_inflation(&self, stolen_fraction: f64) -> f64 {
        1.0 / (1.0 - stolen_fraction.clamp(0.0, 0.9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(latency: f64, qos: f64) -> PerfSample {
        PerfSample {
            latency_ms: latency,
            qos_percent: qos,
            throughput_rps: 1000.0,
            utilization: 0.6,
        }
    }

    #[test]
    fn latency_index_ratio() {
        let est = InterferenceEstimator::default();
        let idx = est.index(
            &sample(90.0, 100.0),
            &sample(45.0, 100.0),
            &Slo::LatencyMs(60.0),
        );
        assert!((idx - 2.0).abs() < 1e-12);
        // Production better than isolation never yields an index below 1.
        let idx2 = est.index(
            &sample(30.0, 100.0),
            &sample(45.0, 100.0),
            &Slo::LatencyMs(60.0),
        );
        assert_eq!(idx2, 1.0);
    }

    #[test]
    fn qos_index_ratio() {
        let est = InterferenceEstimator::default();
        let idx = est.index(
            &sample(10.0, 80.0),
            &sample(10.0, 100.0),
            &Slo::QosPercent(95.0),
        );
        assert!((idx - 1.25).abs() < 1e-12);
    }

    #[test]
    fn bucketing() {
        assert_eq!(
            InterferenceBucket::from_index(1.0, 0.25),
            InterferenceBucket::NONE
        );
        assert_eq!(
            InterferenceBucket::from_index(1.2, 0.25),
            InterferenceBucket(1)
        );
        assert_eq!(
            InterferenceBucket::from_index(1.3, 0.25),
            InterferenceBucket(2)
        );
        assert_eq!(
            InterferenceBucket::from_index(f64::NAN, 0.25),
            InterferenceBucket::NONE
        );
        let key = InterferenceBucket(2).key_for(3);
        assert_eq!(key.class, 3);
        assert_eq!(key.interference_bucket, 2);
    }

    #[test]
    fn stolen_fraction_recovers_injected_interference() {
        // With rho_iso = 0.6 and 20% stolen capacity, rho_prod = 0.75 and the
        // latency index is (1-0.6)/(1-0.75) = 1.6.
        let est = InterferenceEstimator::default();
        let stolen = est.stolen_fraction(1.6, 0.6);
        assert!((stolen - 0.2).abs() < 0.02, "stolen {stolen}");
        assert!((est.capacity_inflation(0.2) - 1.25).abs() < 1e-12);
        assert_eq!(est.stolen_fraction(1.0, 0.6), 0.0);
    }

    #[test]
    fn inflation_is_bounded() {
        let est = InterferenceEstimator::default();
        assert!(est.capacity_inflation(0.99) <= 10.0 + 1e-9);
        assert_eq!(est.capacity_inflation(0.0), 1.0);
    }
}
