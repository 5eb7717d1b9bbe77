//! The state-of-the-art experiment-driven controller: whenever the workload
//! changes it re-runs a sandboxed tuning process (as in JustRunIt [42]),
//! spending minutes per adaptation — the behaviour Figure 1 illustrates and
//! the ~3-minute adaptation time the paper compares DejaVu's ~10 s against.

use dejavu_cloud::{
    AllocationSpace, ControllerDecision, DecisionReason, Observation, ProvisioningController,
};
use dejavu_services::service::EvalContext;
use dejavu_services::ServiceModel;
use dejavu_simcore::{SimDuration, SimTime};

/// The experiment-driven retuning controller.
pub struct OnlineTuning {
    service: Box<dyn ServiceModel>,
    space: AllocationSpace,
    /// Duration of each sandboxed experiment.
    per_experiment: SimDuration,
    /// Minimum relative workload change that triggers retuning.
    change_threshold: f64,
    last_tuned_intensity: Option<f64>,
}

impl OnlineTuning {
    /// Creates the controller with the paper's ≈3-minute total adaptation time
    /// (a handful of ≈36 s experiments per tuning run).
    pub fn new(service: Box<dyn ServiceModel>, space: AllocationSpace) -> Self {
        OnlineTuning {
            service,
            space,
            per_experiment: SimDuration::from_secs(36.0),
            change_threshold: 0.05,
            last_tuned_intensity: None,
        }
    }

    fn workload_changed(&self, intensity: f64) -> bool {
        match self.last_tuned_intensity {
            None => true,
            Some(last) => (intensity - last).abs() > self.change_threshold,
        }
    }
}

impl std::fmt::Debug for OnlineTuning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineTuning")
            .field("per_experiment", &self.per_experiment)
            .finish()
    }
}

impl ProvisioningController for OnlineTuning {
    fn name(&self) -> &str {
        "online-tuning"
    }

    fn decide(&mut self, observation: &Observation) -> ControllerDecision {
        let intensity = observation.workload.intensity.value();
        if !self.workload_changed(intensity) {
            return ControllerDecision::keep();
        }
        // Linear search over the allocation space, one sandboxed experiment per
        // candidate, exactly like DejaVu's Tuner — but repeated on every
        // workload change because nothing is cached.
        let mut experiments = 0usize;
        let mut chosen = self.space.full_capacity();
        for &candidate in self.space.candidates() {
            experiments += 1;
            let sample = self.service.evaluate(
                intensity,
                &EvalContext::steady(SimTime::ZERO, candidate.capacity_units()),
            );
            if self.service.slo().is_met(&sample) {
                chosen = candidate;
                break;
            }
        }
        self.last_tuned_intensity = Some(intensity);
        ControllerDecision::deploy(
            chosen,
            self.per_experiment * experiments as f64,
            DecisionReason::Tuned,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_cloud::ResourceAllocation;
    use dejavu_services::CassandraService;
    use dejavu_traces::{RequestMix, ServiceKind, Workload};

    fn controller() -> OnlineTuning {
        OnlineTuning::new(
            Box::new(CassandraService::update_heavy()),
            AllocationSpace::scale_out(1, 10).unwrap(),
        )
    }

    fn obs(intensity: f64) -> Observation {
        Observation {
            time: SimTime::from_hours(1.0),
            workload: Workload::with_intensity(
                ServiceKind::Cassandra,
                intensity,
                RequestMix::update_heavy(),
            ),
            latency_ms: Some(40.0),
            qos_percent: None,
            utilization: 0.6,
            slo_violated: false,
            current_allocation: ResourceAllocation::large(5),
        }
    }

    #[test]
    fn retunes_on_every_workload_change_with_minutes_of_latency() {
        let mut c = controller();
        let d1 = c.decide(&obs(0.5));
        assert_eq!(d1.reason, DecisionReason::Tuned);
        assert!(
            d1.decision_latency.as_mins() >= 2.0,
            "latency {}",
            d1.decision_latency
        );
        let target = d1.target.unwrap();
        assert!(target.count() >= 5 && target.count() <= 6);
        // Same workload again: no retuning.
        let d2 = c.decide(&obs(0.51));
        assert!(d2.target.is_none());
        // A new workload level triggers another slow tuning run.
        let d3 = c.decide(&obs(0.9));
        assert_eq!(d3.reason, DecisionReason::Tuned);
        assert!(d3.decision_latency.as_mins() >= 2.0);
        assert_eq!(c.name(), "online-tuning");
        assert!(!format!("{c:?}").is_empty());
    }
}
