//! The profiling environment: a clone VM that serves the duplicated requests
//! in isolation and collects workload signatures.

use dejavu_metrics::{MetricSampler, SamplerConfig, WorkloadPoint, WorkloadSignature};
use dejavu_services::service::EvalContext;
use dejavu_services::{PerfSample, ServiceModel};
use dejavu_simcore::{SimDuration, SimRng, SimTime};
use dejavu_traces::Workload;

/// Profiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerConfig {
    /// How the profiler samples metrics (window length, register count, …).
    pub sampler: SamplerConfig,
    /// Capacity units of the dedicated profiling machine hosting the clone.
    /// A single profiling server hosts one clone instance, so this is the
    /// capacity of one instance.
    pub clone_capacity_units: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sampler: SamplerConfig::default(),
            clone_capacity_units: 1.0,
        }
    }
}

/// What one profiling run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilingReport {
    /// The collected workload signature (normalized by sampling time).
    pub signature: WorkloadSignature,
    /// How long the profiling run took — this is the dominant part of
    /// DejaVu's ~10 s adaptation time.
    pub duration: SimDuration,
    /// The per-instance share of the workload the clone observed.
    pub observed_point: WorkloadPoint,
}

/// The DejaVu profiler: collects signatures on an isolated clone VM.
///
/// # Example
///
/// ```
/// use dejavu_proxy::{Profiler, ProfilerConfig};
/// use dejavu_simcore::SimRng;
/// use dejavu_traces::{RequestMix, ServiceKind, Workload};
///
/// let profiler = Profiler::new(ProfilerConfig::default());
/// let mut rng = SimRng::seed_from_u64(1);
/// let workload = Workload::with_intensity(ServiceKind::Cassandra, 0.6, RequestMix::update_heavy());
/// let report = profiler.profile(&workload, &mut rng);
/// assert!(!report.signature.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Profiler {
    config: ProfilerConfig,
    sampler: MetricSampler,
}

impl Profiler {
    /// Creates a profiler with the standard metric catalogue.
    ///
    /// # Panics
    ///
    /// Panics if the clone capacity is not positive.
    pub fn new(config: ProfilerConfig) -> Self {
        assert!(
            config.clone_capacity_units > 0.0,
            "clone capacity must be positive"
        );
        let sampler = MetricSampler::standard(config.sampler.clone());
        Profiler { config, sampler }
    }

    /// The profiler configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// The metric sampler (useful to inspect the catalogue).
    pub fn sampler(&self) -> &MetricSampler {
        &self.sampler
    }

    /// How long one profiling run takes.
    pub fn profiling_duration(&self) -> SimDuration {
        self.config.sampler.window
    }

    /// Profiles the workload: the clone serves the duplicated requests of one
    /// service instance, in isolation, and the signature is collected over the
    /// configured window.
    pub fn profile(&self, workload: &Workload, rng: &mut SimRng) -> ProfilingReport {
        let point = WorkloadPoint::from(workload);
        ProfilingReport {
            signature: self.sampler.sample(&point, rng),
            duration: self.profiling_duration(),
            observed_point: point,
        }
    }

    /// Evaluates how the service would perform on `capacity_units` in the
    /// isolated profiling environment (no co-located tenants). DejaVu uses
    /// this as `PerformanceLevel_isolation` in the interference index.
    pub fn evaluate_isolated<S: ServiceModel + ?Sized>(
        &self,
        service: &S,
        workload: &Workload,
        capacity_units: f64,
    ) -> PerfSample {
        service.evaluate(
            workload.intensity.value(),
            &EvalContext::steady(SimTime::ZERO, capacity_units),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_services::CassandraService;
    use dejavu_traces::{RequestMix, ServiceKind};

    fn workload(intensity: f64) -> Workload {
        Workload::with_intensity(
            ServiceKind::Cassandra,
            intensity,
            RequestMix::update_heavy(),
        )
    }

    #[test]
    fn profiling_produces_a_full_signature_in_about_ten_seconds() {
        let p = Profiler::new(ProfilerConfig::default());
        let mut rng = SimRng::seed_from_u64(1);
        let report = p.profile(&workload(0.5), &mut rng);
        assert_eq!(report.signature.len(), p.sampler().model().catalog().len());
        assert!((report.duration.as_secs() - 10.0).abs() < 1e-9);
        assert_eq!(report.observed_point.intensity, 0.5);
    }

    #[test]
    fn different_workloads_produce_distinguishable_signatures() {
        let p = Profiler::new(ProfilerConfig::default());
        let mut rng = SimRng::seed_from_u64(2);
        let low = p.profile(&workload(0.2), &mut rng);
        let low2 = p.profile(&workload(0.2), &mut rng);
        let high = p.profile(&workload(0.9), &mut rng);
        assert!(
            low.signature.distance(&high.signature) > 5.0 * low.signature.distance(&low2.signature)
        );
    }

    #[test]
    fn isolated_evaluation_ignores_interference() {
        let p = Profiler::new(ProfilerConfig::default());
        let svc = CassandraService::update_heavy();
        let sample = p.evaluate_isolated(&svc, &workload(0.5), 6.0);
        assert!(svc.slo().is_met(&sample));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_clone_rejected() {
        let _ = Profiler::new(ProfilerConfig {
            clone_capacity_units: 0.0,
            ..Default::default()
        });
    }
}
