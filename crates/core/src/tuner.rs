//! The Tuner: determines the sufficient-but-not-wasteful allocation for a
//! workload class (§3.4).
//!
//! The choice of tuning mechanism is orthogonal to DejaVu; the paper's
//! evaluation uses a simple linear search over the allocation space, replaying
//! the workload against each candidate in a sandbox until the SLO is met.
//! Each sandboxed experiment takes real time, which is what makes tuning
//! expensive and caching worthwhile.

use dejavu_cloud::{AllocationSpace, ResourceAllocation};
use dejavu_services::service::EvalContext;
use dejavu_services::ServiceModel;
use dejavu_simcore::{SimDuration, SimTime};
use dejavu_traces::Workload;

/// The result of one tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningOutcome {
    /// The chosen allocation (the cheapest candidate meeting the SLO, or full
    /// capacity if none does).
    pub allocation: ResourceAllocation,
    /// Number of sandboxed experiments executed.
    pub experiments_run: usize,
    /// Wall-clock time the tuning took.
    pub duration: SimDuration,
    /// Whether any candidate met the SLO.
    pub slo_reachable: bool,
}

/// A tuning mechanism.
pub trait Tuner {
    /// Determines the preferred allocation for `workload` on `service`,
    /// inflating the required capacity by `capacity_inflation` (≥ 1.0) to
    /// account for known interference.
    fn tune(
        &self,
        workload: &Workload,
        service: &dyn ServiceModel,
        space: &AllocationSpace,
        capacity_inflation: f64,
    ) -> TuningOutcome;
}

/// Linear search from the cheapest allocation upwards, replaying the workload
/// against each candidate in a sandbox.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSearchTuner {
    /// How long each sandboxed experiment takes (the paper cites ≈ 3 minutes
    /// of total adaptation for state-of-the-art experiment-based tuning).
    pub per_experiment: SimDuration,
}

impl Default for LinearSearchTuner {
    fn default() -> Self {
        LinearSearchTuner {
            per_experiment: SimDuration::from_secs(60.0),
        }
    }
}

impl LinearSearchTuner {
    /// Creates a tuner with the given per-experiment duration.
    pub fn new(per_experiment: SimDuration) -> Self {
        LinearSearchTuner { per_experiment }
    }
}

impl Tuner for LinearSearchTuner {
    fn tune(
        &self,
        workload: &Workload,
        service: &dyn ServiceModel,
        space: &AllocationSpace,
        capacity_inflation: f64,
    ) -> TuningOutcome {
        let inflation = capacity_inflation.max(1.0);
        let mut experiments = 0;
        for &candidate in space.candidates() {
            experiments += 1;
            // The sandbox has no co-located tenants; interference is modelled
            // by discounting the candidate's capacity.
            let effective = candidate.capacity_units() / inflation;
            let sample = service.evaluate(
                workload.intensity.value(),
                &EvalContext::steady(SimTime::ZERO, effective),
            );
            if service.slo().is_met(&sample) {
                return TuningOutcome {
                    allocation: candidate,
                    experiments_run: experiments,
                    duration: self.per_experiment * experiments as f64,
                    slo_reachable: true,
                };
            }
        }
        TuningOutcome {
            allocation: space.full_capacity(),
            experiments_run: experiments,
            duration: self.per_experiment * experiments as f64,
            slo_reachable: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_services::{CassandraService, SpecWebService, SpecWebWorkload};
    use dejavu_traces::{RequestMix, ServiceKind};

    fn cassandra_workload(intensity: f64) -> Workload {
        Workload::with_intensity(
            ServiceKind::Cassandra,
            intensity,
            RequestMix::update_heavy(),
        )
    }

    #[test]
    fn picks_the_minimal_scale_out_allocation() {
        let tuner = LinearSearchTuner::default();
        let svc = CassandraService::update_heavy();
        let space = AllocationSpace::scale_out(1, 10).unwrap();
        let out = tuner.tune(&cassandra_workload(0.5), &svc, &space, 1.0);
        assert!(out.slo_reachable);
        // Roughly 10 × intensity large instances.
        assert!(out.allocation.count() >= 5 && out.allocation.count() <= 6);
        // The next-cheaper allocation must not meet the SLO (not wasteful).
        let cheaper = ResourceAllocation::large(out.allocation.count() - 1);
        let sample = svc.evaluate(
            0.5,
            &EvalContext::steady(SimTime::ZERO, cheaper.capacity_units()),
        );
        assert!(!svc.slo().is_met(&sample));
    }

    #[test]
    fn tuning_time_scales_with_experiments() {
        let tuner = LinearSearchTuner::default();
        let svc = CassandraService::update_heavy();
        let space = AllocationSpace::scale_out(1, 10).unwrap();
        let low = tuner.tune(&cassandra_workload(0.2), &svc, &space, 1.0);
        let high = tuner.tune(&cassandra_workload(0.9), &svc, &space, 1.0);
        assert!(high.experiments_run > low.experiments_run);
        assert!(high.duration > low.duration);
        assert_eq!(low.duration.as_secs(), 60.0 * low.experiments_run as f64);
    }

    #[test]
    fn interference_inflation_buys_more_instances() {
        let tuner = LinearSearchTuner::default();
        let svc = CassandraService::update_heavy();
        let space = AllocationSpace::scale_out(1, 10).unwrap();
        let clean = tuner.tune(&cassandra_workload(0.5), &svc, &space, 1.0);
        let interfered = tuner.tune(&cassandra_workload(0.5), &svc, &space, 1.0 / 0.8);
        assert!(interfered.allocation.count() > clean.allocation.count());
    }

    #[test]
    fn scale_up_chooses_instance_type() {
        let tuner = LinearSearchTuner::default();
        let svc = SpecWebService::new(SpecWebWorkload::Support);
        let space = AllocationSpace::scale_up(5).unwrap();
        let low = tuner.tune(
            &Workload::with_intensity(ServiceKind::SpecWeb, 0.4, RequestMix::read_only()),
            &svc,
            &space,
            1.0,
        );
        let peak = tuner.tune(
            &Workload::with_intensity(ServiceKind::SpecWeb, 0.95, RequestMix::read_only()),
            &svc,
            &space,
            1.0,
        );
        assert_eq!(low.allocation, ResourceAllocation::large(5));
        assert_eq!(peak.allocation, ResourceAllocation::extra_large(5));
    }

    #[test]
    fn unreachable_slo_falls_back_to_full_capacity() {
        let tuner = LinearSearchTuner::default();
        let svc = CassandraService::update_heavy();
        let space = AllocationSpace::scale_out(1, 3).unwrap();
        let out = tuner.tune(&cassandra_workload(1.0), &svc, &space, 1.0);
        assert!(!out.slo_reachable);
        assert_eq!(out.allocation, space.full_capacity());
        assert_eq!(out.experiments_run, 3);
    }
}
