//! The SPECweb2009-like multi-tier web service model.
//!
//! The paper's scale-up experiments use SPECweb2009's *support* workload
//! (read-only, I/O intensive, QoS = fraction of downloads meeting a 0.99 Mbps
//! rate, compliance requires ≥ 95%), serving with 5 front-end and 5 back-end
//! instances whose type is switched between large and extra-large.

use crate::perf::{PerfSample, QueueingModel};
use crate::service::{EvalContext, ServiceModel};
use crate::slo::Slo;
use dejavu_traces::{RequestMix, ServiceKind};
use std::fmt;

/// The three SPECweb2009 workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecWebWorkload {
    /// Large-file downloads; read-only and I/O intensive (used for scale-up).
    Support,
    /// Online banking; encrypted, CPU-heavier, read-mostly.
    Banking,
    /// E-commerce; mixed browsing and ordering.
    Ecommerce,
}

impl SpecWebWorkload {
    /// The request mix the workload's client emulator generates.
    pub fn mix(self) -> RequestMix {
        match self {
            SpecWebWorkload::Support => RequestMix::read_only(),
            SpecWebWorkload::Banking => RequestMix::new(0.9),
            SpecWebWorkload::Ecommerce => RequestMix::new(0.8),
        }
    }

    /// Relative demand the workload puts on the serving capacity (support is
    /// dominated by static I/O and is the cheapest per request).
    pub fn demand_factor(self) -> f64 {
        match self {
            SpecWebWorkload::Support => 1.0,
            SpecWebWorkload::Banking => 1.15,
            SpecWebWorkload::Ecommerce => 1.1,
        }
    }
}

impl fmt::Display for SpecWebWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecWebWorkload::Support => "support",
            SpecWebWorkload::Banking => "banking",
            SpecWebWorkload::Ecommerce => "ecommerce",
        };
        f.write_str(s)
    }
}

/// The SPECweb2009-like service.
///
/// # Example
///
/// ```
/// use dejavu_services::{ServiceModel, SpecWebService, SpecWebWorkload};
/// use dejavu_services::service::EvalContext;
/// use dejavu_simcore::SimTime;
///
/// let svc = SpecWebService::new(SpecWebWorkload::Support);
/// // 5 extra-large instances (10 capacity units) keep QoS at 100% at peak load.
/// let s = svc.evaluate(0.95, &EvalContext::steady(SimTime::ZERO, 10.0));
/// assert!(svc.slo().is_met(&s));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecWebService {
    workload: SpecWebWorkload,
    queueing: QueueingModel,
    qos_target: f64,
}

impl SpecWebService {
    /// Creates the service for the given SPECweb workload with the standard
    /// 95% QoS compliance target.
    pub fn new(workload: SpecWebWorkload) -> Self {
        SpecWebService {
            workload,
            queueing: QueueingModel {
                base_latency_ms: 25.0,
                ..QueueingModel::default()
            },
            qos_target: 95.0,
        }
    }

    /// The SPECweb workload being served.
    pub fn workload(&self) -> SpecWebWorkload {
        self.workload
    }
}

impl ServiceModel for SpecWebService {
    fn kind(&self) -> ServiceKind {
        ServiceKind::SpecWeb
    }

    fn default_mix(&self) -> RequestMix {
        self.workload.mix()
    }

    fn slo(&self) -> Slo {
        Slo::QosPercent(self.qos_target)
    }

    fn evaluate(&self, intensity: f64, ctx: &EvalContext) -> PerfSample {
        self.queueing.sample(
            intensity * self.workload.demand_factor(),
            ctx.capacity_units,
            1.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_simcore::SimTime;

    #[test]
    fn scale_up_calibration() {
        let svc = SpecWebService::new(SpecWebWorkload::Support);
        // 5 large instances (5 units) hold QoS up to moderate load...
        let moderate = svc.evaluate(0.5, &EvalContext::steady(SimTime::ZERO, 5.0));
        assert!(svc.slo().is_met(&moderate), "qos {}", moderate.qos_percent);
        // ...but not at the trace peak, which needs the extra-large type.
        let peak_l = svc.evaluate(0.95, &EvalContext::steady(SimTime::ZERO, 5.0));
        assert!(!svc.slo().is_met(&peak_l));
        let peak_xl = svc.evaluate(0.95, &EvalContext::steady(SimTime::ZERO, 10.0));
        assert!(svc.slo().is_met(&peak_xl));
    }

    #[test]
    fn workload_mixes() {
        assert_eq!(SpecWebWorkload::Support.mix().read_fraction(), 1.0);
        assert!(SpecWebWorkload::Banking.mix().read_fraction() < 1.0);
        assert!(
            SpecWebWorkload::Banking.demand_factor() > SpecWebWorkload::Support.demand_factor()
        );
    }

    #[test]
    fn heavier_workloads_need_more_capacity() {
        let support = SpecWebService::new(SpecWebWorkload::Support);
        let banking = SpecWebService::new(SpecWebWorkload::Banking);
        assert!(banking.required_capacity(0.8) >= support.required_capacity(0.8));
    }

    #[test]
    fn metadata() {
        let svc = SpecWebService::new(SpecWebWorkload::Support);
        assert_eq!(svc.kind(), ServiceKind::SpecWeb);
        assert_eq!(svc.workload(), SpecWebWorkload::Support);
        assert_eq!(svc.slo(), Slo::QosPercent(95.0));
        assert_eq!(SpecWebWorkload::Ecommerce.to_string(), "ecommerce");
    }
}
