//! The provisioning-controller interface shared by DejaVu and all baselines.
//!
//! A controller periodically observes the service (performance sample,
//! utilization, SLO state, the workload currently offered) and may decide to
//! deploy a different resource allocation. The decision carries a
//! `decision_latency`: how long the controller needs before the new allocation
//! can be requested (signature collection for DejaVu, tuning experiments for
//! the state-of-the-art, resize calm time for RightScale) — this is the
//! adaptation time Figure 8 compares.

use crate::allocation::ResourceAllocation;
use dejavu_simcore::{SimDuration, SimTime};
use dejavu_traces::Workload;
use std::fmt;

/// What the controller can see at an observation point.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Current simulated time.
    pub time: SimTime,
    /// The workload currently offered to the service. Controllers must not use
    /// this directly as an oracle; DejaVu passes it to its profiler (which adds
    /// sampling noise), and the baselines ignore it.
    pub workload: Workload,
    /// Measured mean response latency over the last observation interval, if
    /// the service reports latency.
    pub latency_ms: Option<f64>,
    /// Measured QoS percentage over the last observation interval, if the
    /// service reports QoS (SPECweb).
    pub qos_percent: Option<f64>,
    /// Mean per-instance utilization in `[0, 1]` (what RightScale votes on).
    pub utilization: f64,
    /// Whether the SLO was violated during the last observation interval.
    pub slo_violated: bool,
    /// The allocation currently deployed.
    pub current_allocation: ResourceAllocation,
}

/// Why a controller made a decision; rendered in reports and adaptation logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionReason {
    /// No change required.
    NoChange,
    /// DejaVu classified the workload and reused a cached allocation.
    CacheHit {
        /// The workload class the signature was classified into.
        class: usize,
    },
    /// DejaVu could not classify the workload with enough certainty.
    CacheMiss,
    /// A fleet-shared repository supplied an allocation another tenant tuned
    /// for an equivalent workload, skipping this tenant's own tuning.
    FleetReuse,
    /// The controller is in its learning phase.
    Learning,
    /// A tuning process produced a new allocation.
    Tuned,
    /// A utilization-threshold vote triggered a resize (RightScale-style).
    ThresholdVote,
    /// A time-of-day schedule dictated the allocation (Autopilot).
    Schedule,
    /// Extra resources deployed to compensate for detected interference.
    InterferenceCompensation,
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionReason::NoChange => write!(f, "no change"),
            DecisionReason::CacheHit { class } => write!(f, "cache hit (class {class})"),
            DecisionReason::CacheMiss => write!(f, "cache miss"),
            DecisionReason::FleetReuse => write!(f, "fleet reuse"),
            DecisionReason::Learning => write!(f, "learning"),
            DecisionReason::Tuned => write!(f, "tuned"),
            DecisionReason::ThresholdVote => write!(f, "threshold vote"),
            DecisionReason::Schedule => write!(f, "schedule"),
            DecisionReason::InterferenceCompensation => write!(f, "interference compensation"),
        }
    }
}

/// The outcome of one controller invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerDecision {
    /// The allocation to deploy, or `None` to keep the current one.
    pub target: Option<ResourceAllocation>,
    /// Time the controller spends before the reconfiguration can be issued
    /// (signature collection, tuning experiments, calm time…).
    pub decision_latency: SimDuration,
    /// Why the decision was made.
    pub reason: DecisionReason,
}

impl ControllerDecision {
    /// A decision that keeps the current allocation and costs no time.
    pub fn keep() -> Self {
        ControllerDecision {
            target: None,
            decision_latency: SimDuration::ZERO,
            reason: DecisionReason::NoChange,
        }
    }

    /// A decision to deploy `target` after `decision_latency`.
    pub fn deploy(
        target: ResourceAllocation,
        decision_latency: SimDuration,
        reason: DecisionReason,
    ) -> Self {
        ControllerDecision {
            target: Some(target),
            decision_latency,
            reason,
        }
    }

    /// Returns true if the decision changes the allocation relative to `current`.
    pub fn changes_allocation(&self, current: ResourceAllocation) -> bool {
        matches!(self.target, Some(t) if t != current)
    }
}

/// A reconfiguration that actually happened, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationEvent {
    /// When the controller started reacting (the observation time).
    pub started_at: SimTime,
    /// When the new allocation took effect.
    pub completed_at: SimTime,
    /// Allocation before the change.
    pub from: ResourceAllocation,
    /// Allocation after the change.
    pub to: ResourceAllocation,
    /// Why the controller changed the allocation.
    pub reason: DecisionReason,
}

impl AdaptationEvent {
    /// Total adaptation latency (decision + reconfiguration).
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }
}

/// A provisioning controller: the interface DejaVu and every baseline implement.
pub trait ProvisioningController {
    /// A short name used in reports ("dejavu", "rightscale-3min", …).
    fn name(&self) -> &str;

    /// Observes the service and decides whether to change the allocation.
    fn decide(&mut self, observation: &Observation) -> ControllerDecision;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_traces::{RequestMix, ServiceKind, Workload};

    fn obs(alloc: ResourceAllocation) -> Observation {
        Observation {
            time: SimTime::from_hours(1.0),
            workload: Workload::with_intensity(
                ServiceKind::Cassandra,
                0.5,
                RequestMix::update_heavy(),
            ),
            latency_ms: Some(40.0),
            qos_percent: None,
            utilization: 0.6,
            slo_violated: false,
            current_allocation: alloc,
        }
    }

    #[test]
    fn keep_decision_changes_nothing() {
        let d = ControllerDecision::keep();
        assert!(d.target.is_none());
        assert!(!d.changes_allocation(ResourceAllocation::large(3)));
        assert_eq!(d.reason, DecisionReason::NoChange);
    }

    #[test]
    fn deploy_decision_detects_change() {
        let d = ControllerDecision::deploy(
            ResourceAllocation::large(5),
            SimDuration::from_secs(10.0),
            DecisionReason::CacheHit { class: 2 },
        );
        assert!(d.changes_allocation(ResourceAllocation::large(3)));
        assert!(!d.changes_allocation(ResourceAllocation::large(5)));
        assert_eq!(d.reason.to_string(), "cache hit (class 2)");
    }

    #[test]
    fn adaptation_event_latency() {
        let e = AdaptationEvent {
            started_at: SimTime::from_secs(100.0),
            completed_at: SimTime::from_secs(160.0),
            from: ResourceAllocation::large(2),
            to: ResourceAllocation::large(4),
            reason: DecisionReason::ThresholdVote,
        };
        assert_eq!(e.latency().as_secs(), 60.0);
    }

    #[test]
    fn trait_is_object_safe() {
        struct Keep;
        impl ProvisioningController for Keep {
            fn name(&self) -> &str {
                "keep"
            }
            fn decide(&mut self, _observation: &Observation) -> ControllerDecision {
                ControllerDecision::keep()
            }
        }
        let mut c: Box<dyn ProvisioningController> = Box::new(Keep);
        let d = c.decide(&obs(ResourceAllocation::large(1)));
        assert_eq!(c.name(), "keep");
        assert!(d.target.is_none());
    }

    #[test]
    fn reasons_display_nonempty() {
        for r in [
            DecisionReason::NoChange,
            DecisionReason::CacheMiss,
            DecisionReason::FleetReuse,
            DecisionReason::Learning,
            DecisionReason::Tuned,
            DecisionReason::ThresholdVote,
            DecisionReason::Schedule,
            DecisionReason::InterferenceCompensation,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
