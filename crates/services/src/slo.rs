//! Service-level objectives and their evaluation.

use crate::perf::PerfSample;
use std::fmt;

/// A service-level objective.
///
/// The paper's Cassandra experiments use a 60 ms latency SLO; the SPECweb
/// experiments use the benchmark's QoS criterion (≥ 95% of downloads meeting
/// a 0.99 Mbps rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slo {
    /// Mean response latency must stay at or below this many milliseconds.
    LatencyMs(f64),
    /// QoS percentage must stay at or above this value.
    QosPercent(f64),
}

/// The outcome of checking a performance sample against an SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloOutcome {
    /// Whether the SLO was met.
    pub met: bool,
    /// How far the measured value is from the objective, normalized so that
    /// 0.0 means exactly at the objective and positive values mean violation
    /// severity (e.g. 0.5 = 50% worse than the objective).
    pub violation_ratio: f64,
}

impl Slo {
    /// Evaluates the SLO against a performance sample.
    pub fn check(&self, sample: &PerfSample) -> SloOutcome {
        match *self {
            Slo::LatencyMs(bound) => {
                let ratio = (sample.latency_ms - bound) / bound.max(f64::MIN_POSITIVE);
                SloOutcome {
                    met: sample.latency_ms <= bound,
                    violation_ratio: ratio.max(0.0),
                }
            }
            Slo::QosPercent(bound) => {
                let ratio = (bound - sample.qos_percent) / bound.max(f64::MIN_POSITIVE);
                SloOutcome {
                    met: sample.qos_percent >= bound,
                    violation_ratio: ratio.max(0.0),
                }
            }
        }
    }

    /// Returns true if the sample meets the SLO.
    pub fn is_met(&self, sample: &PerfSample) -> bool {
        self.check(sample).met
    }

    /// The objective value (milliseconds or percent).
    pub fn target(&self) -> f64 {
        match *self {
            Slo::LatencyMs(v) | Slo::QosPercent(v) => v,
        }
    }
}

impl fmt::Display for Slo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slo::LatencyMs(v) => write!(f, "latency <= {v} ms"),
            Slo::QosPercent(v) => write!(f, "QoS >= {v}%"),
        }
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
            utilization: 0.5,
        }
    }

    #[test]
    fn latency_slo() {
        let slo = Slo::LatencyMs(60.0);
        assert!(slo.is_met(&sample(59.9, 100.0)));
        assert!(!slo.is_met(&sample(90.0, 100.0)));
        let out = slo.check(&sample(90.0, 100.0));
        assert!((out.violation_ratio - 0.5).abs() < 1e-12);
        assert_eq!(slo.target(), 60.0);
    }

    #[test]
    fn qos_slo() {
        let slo = Slo::QosPercent(95.0);
        assert!(slo.is_met(&sample(10.0, 96.0)));
        assert!(!slo.is_met(&sample(10.0, 90.0)));
        let out = slo.check(&sample(10.0, 85.5));
        assert!(out.violation_ratio > 0.09 && out.violation_ratio < 0.11);
    }

    #[test]
    fn met_slo_has_zero_violation() {
        let slo = Slo::LatencyMs(60.0);
        assert_eq!(slo.check(&sample(30.0, 100.0)).violation_ratio, 0.0);
    }

    #[test]
    fn display() {
        assert!(Slo::LatencyMs(60.0).to_string().contains("60"));
        assert!(Slo::QosPercent(95.0).to_string().contains("95"));
    }
}
