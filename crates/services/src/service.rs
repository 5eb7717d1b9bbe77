//! The [`ServiceModel`] trait tying the benchmark models together.

use crate::perf::PerfSample;
use crate::slo::Slo;
use dejavu_simcore::{SimDuration, SimTime};
use dejavu_traces::{RequestMix, ServiceKind};
use std::error::Error;
use std::fmt;

/// Errors raised by service-model configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// A configuration parameter was invalid.
    InvalidConfig(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidConfig(msg) => write!(f, "invalid service configuration: {msg}"),
        }
    }
}

impl Error for ServiceError {}

/// Context for one evaluation of the service's performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalContext {
    /// Current simulated time.
    pub time: SimTime,
    /// Effective capacity units available to the service (after warm-up and
    /// interference effects).
    pub capacity_units: f64,
    /// Time since the last reconfiguration, if any has happened — services
    /// like Cassandra pay a re-partitioning penalty right after scaling.
    pub since_reconfig: Option<SimDuration>,
}

impl EvalContext {
    /// Creates a context with no recent reconfiguration.
    pub fn steady(time: SimTime, capacity_units: f64) -> Self {
        EvalContext {
            time,
            capacity_units,
            since_reconfig: None,
        }
    }
}

/// A modelled network service: given the offered intensity and the capacity it
/// currently has, report the performance a client emulator would measure.
///
/// Models are immutable descriptions, so the trait requires `Send + Sync`:
/// the fleet simulator evaluates tenants on parallel worker threads.
pub trait ServiceModel: Send + Sync {
    /// Which benchmark this models.
    fn kind(&self) -> ServiceKind;

    /// The request mix the benchmark's client emulator generates by default.
    fn default_mix(&self) -> RequestMix;

    /// The SLO the deployment must meet.
    fn slo(&self) -> Slo;

    /// Evaluates steady-state performance at `intensity` under `ctx`.
    fn evaluate(&self, intensity: f64, ctx: &EvalContext) -> PerfSample;

    /// The minimum capacity units needed to meet the SLO at `intensity`
    /// (what an oracle or sandboxed tuner would discover). The default
    /// implementation searches capacity in 0.1-unit steps.
    fn required_capacity(&self, intensity: f64) -> f64 {
        let mut capacity = 0.5;
        while capacity < 100.0 {
            let sample = self.evaluate(intensity, &EvalContext::steady(SimTime::ZERO, capacity));
            if self.slo().is_met(&sample) {
                return capacity;
            }
            capacity += 0.1;
        }
        capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cassandra::CassandraService;
    use crate::specweb::{SpecWebService, SpecWebWorkload};

    #[test]
    fn error_display() {
        let e = ServiceError::InvalidConfig("bad".into());
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn required_capacity_is_monotone_in_intensity() {
        let svc = CassandraService::update_heavy();
        assert!(svc.required_capacity(0.9) >= svc.required_capacity(0.4));
    }

    #[test]
    fn trait_objects_work() {
        let services: Vec<Box<dyn ServiceModel>> = vec![
            Box::new(CassandraService::update_heavy()),
            Box::new(SpecWebService::new(SpecWebWorkload::Support)),
        ];
        for s in &services {
            let sample = s.evaluate(0.5, &EvalContext::steady(SimTime::ZERO, 10.0));
            assert!(sample.latency_ms > 0.0);
            assert!(s.required_capacity(0.5) > 0.0);
        }
    }
}
