//! Sampling the metric model over a profiling window.
//!
//! The profiler accumulates counter values over a sampling window (the paper's
//! adaptation time is dominated by the ~10 s it takes to collect a signature),
//! normalizes by the window length and adds trial noise. Monitoring more
//! events than there are physical counter registers requires time-division
//! multiplexing, which costs accuracy (§3.3 cites [16]); the sampler models
//! that as extra relative noise.

use crate::counter::MetricKind;
use crate::model::{MetricModel, WorkloadPoint};
use crate::signature::WorkloadSignature;
use dejavu_simcore::{SimDuration, SimRng};
use std::sync::{Arc, OnceLock};

/// Sampler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Length of the profiling window.
    pub window: SimDuration,
    /// Number of physical HPC registers available (4 on the paper's
    /// Xeon X5472 profiling server).
    pub hpc_registers: usize,
    /// Extra relative noise incurred per multiplexing round beyond the first.
    pub multiplex_noise: f64,
    /// Additional relative perturbation applied to all metrics, used to model
    /// profiling *without* an isolated clone VM (co-located tenants disturb
    /// the counters, §3.2.2).
    pub perturbation: f64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            window: SimDuration::from_secs(10.0),
            hpc_registers: 4,
            multiplex_noise: 0.003,
            perturbation: 0.0,
        }
    }
}

/// Samples workload signatures from a [`MetricModel`].
///
/// # Example
///
/// ```
/// use dejavu_metrics::{MetricModel, MetricSampler, SamplerConfig, WorkloadPoint};
/// use dejavu_simcore::SimRng;
/// use dejavu_traces::ServiceKind;
///
/// let sampler = MetricSampler::new(MetricModel::default(), SamplerConfig::default());
/// let mut rng = SimRng::seed_from_u64(1);
/// let point = WorkloadPoint::new(ServiceKind::Cassandra, 0.6, 0.05);
/// let sig = sampler.sample(&point, &mut rng);
/// assert_eq!(sig.len(), sampler.model().catalog().len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSampler {
    /// Immutable once built, so samplers over the same model share it.
    model: Arc<MetricModel>,
    config: SamplerConfig,
    /// Catalogue names, shared once with every signature this sampler emits.
    names: Arc<[String]>,
}

impl MetricSampler {
    /// Creates a sampler over its own `model`.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or `hpc_registers` is zero.
    pub fn new(model: MetricModel, config: SamplerConfig) -> Self {
        let names = model.catalog().names().into();
        Self::over(Arc::new(model), names, config)
    }

    /// Creates a sampler over the standard model ([`MetricModel::default`]).
    /// The model and its name list are built once per process and shared by
    /// every sampler made here — a fleet holds one per tenant, all identical.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or `hpc_registers` is zero.
    pub fn standard(config: SamplerConfig) -> Self {
        static STANDARD: OnceLock<MetricSampler> = OnceLock::new();
        let shared = STANDARD
            .get_or_init(|| MetricSampler::new(MetricModel::default(), SamplerConfig::default()));
        Self::over(Arc::clone(&shared.model), Arc::clone(&shared.names), config)
    }

    fn over(model: Arc<MetricModel>, names: Arc<[String]>, config: SamplerConfig) -> Self {
        assert!(!config.window.is_zero(), "sampling window must be positive");
        assert!(config.hpc_registers > 0, "need at least one HPC register");
        MetricSampler {
            model,
            config,
            names,
        }
    }

    /// The underlying generative model.
    pub fn model(&self) -> &MetricModel {
        &self.model
    }

    /// The sampler configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Number of time-division multiplexing rounds needed to observe every HPC
    /// event in the catalogue with the configured register count.
    pub fn multiplex_rounds(&self) -> usize {
        let hpc = self.model.catalog().num_hpc();
        hpc.div_ceil(self.config.hpc_registers)
    }

    /// Collects one workload signature covering the full catalogue.
    pub fn sample(&self, point: &WorkloadPoint, rng: &mut SimRng) -> WorkloadSignature {
        let secs = self.config.window.as_secs();
        let extra_mux_noise =
            self.config.multiplex_noise * (self.multiplex_rounds().saturating_sub(1)) as f64;
        let mut raw = Vec::with_capacity(self.model.catalog().len());
        for desc in self.model.catalog().descriptors() {
            let expected = self.model.expected_rate(desc.id, point);
            let mut rel_noise =
                self.model.relative_noise(desc.id, point.service) + self.config.perturbation;
            if desc.kind == MetricKind::Hpc {
                rel_noise += extra_mux_noise;
            }
            let noisy = rng.normal(expected, expected.abs() * rel_noise).max(0.0);
            raw.push(noisy * secs);
        }
        WorkloadSignature::from_raw_shared(Arc::clone(&self.names), raw, self.config.window)
    }

    /// Collects `trials` signatures at the same operating point (the repeated
    /// trials of Figure 4).
    pub fn sample_trials(
        &self,
        point: &WorkloadPoint,
        trials: usize,
        rng: &mut SimRng,
    ) -> Vec<WorkloadSignature> {
        (0..trials).map(|_| self.sample(point, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_traces::ServiceKind;

    fn sampler(perturbation: f64) -> MetricSampler {
        MetricSampler::new(
            MetricModel::default(),
            SamplerConfig {
                perturbation,
                ..Default::default()
            },
        )
    }

    #[test]
    fn standard_samplers_share_one_model_and_sample_like_a_private_one() {
        let a = MetricSampler::standard(SamplerConfig::default());
        let b = MetricSampler::standard(SamplerConfig::default());
        assert!(std::ptr::eq(a.model(), b.model()), "one model per process");
        assert!(Arc::ptr_eq(&a.names, &b.names), "one name list per process");
        let private = sampler(0.0);
        assert_eq!(a, private);
        let p = WorkloadPoint::new(ServiceKind::Cassandra, 0.6, 0.05);
        assert_eq!(
            a.sample(&p, &mut SimRng::seed_from_u64(9)),
            private.sample(&p, &mut SimRng::seed_from_u64(9))
        );
    }

    #[test]
    fn signature_covers_catalog_and_window() {
        let s = sampler(0.0);
        let mut rng = SimRng::seed_from_u64(1);
        let sig = s.sample(&WorkloadPoint::new(ServiceKind::Rubis, 0.5, 0.8), &mut rng);
        assert_eq!(sig.len(), s.model().catalog().len());
        assert_eq!(sig.sampling(), SimDuration::from_secs(10.0));
        assert!(sig.values().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn trials_cluster_tightly_around_expectation() {
        let s = sampler(0.0);
        let mut rng = SimRng::seed_from_u64(2);
        let point = WorkloadPoint::new(ServiceKind::SpecWeb, 0.7, 1.0);
        let flops_idx = s.model().catalog().find("flops_rate").unwrap().id.0;
        let expected = s
            .model()
            .expected_rate(s.model().catalog().find("flops_rate").unwrap().id, &point);
        let sigs = s.sample_trials(&point, 5, &mut rng);
        for sig in &sigs {
            let v = sig.values()[flops_idx];
            assert!(
                (v - expected).abs() / expected < 0.1,
                "trial too far from expectation"
            );
        }
    }

    #[test]
    fn different_volumes_are_separated_much_more_than_trial_noise() {
        // The Figure-4 property: the gap between load volumes dwarfs the
        // within-volume spread.
        let s = sampler(0.0);
        let mut rng = SimRng::seed_from_u64(3);
        let flops = s.model().catalog().find("flops_rate").unwrap().id.0;
        let lo: Vec<f64> = s
            .sample_trials(
                &WorkloadPoint::new(ServiceKind::SpecWeb, 0.4, 1.0),
                5,
                &mut rng,
            )
            .iter()
            .map(|sig| sig.values()[flops])
            .collect();
        let hi: Vec<f64> = s
            .sample_trials(
                &WorkloadPoint::new(ServiceKind::SpecWeb, 0.8, 1.0),
                5,
                &mut rng,
            )
            .iter()
            .map(|sig| sig.values()[flops])
            .collect();
        let lo_max = lo.iter().copied().fold(f64::MIN, f64::max);
        let hi_min = hi.iter().copied().fold(f64::MAX, f64::min);
        assert!(hi_min > lo_max * 1.2, "volumes must be clearly separated");
    }

    #[test]
    fn multiplexing_rounds_computed_from_registers() {
        let s = sampler(0.0);
        // 24 HPC events over 4 registers -> 6 rounds.
        assert_eq!(s.multiplex_rounds(), 6);
        let s2 = MetricSampler::new(
            MetricModel::default(),
            SamplerConfig {
                hpc_registers: 24,
                ..Default::default()
            },
        );
        assert_eq!(s2.multiplex_rounds(), 1);
    }

    #[test]
    fn perturbation_increases_spread() {
        let clean = sampler(0.0);
        let noisy = sampler(0.3);
        let point = WorkloadPoint::new(ServiceKind::Cassandra, 0.6, 0.05);
        let spread = |s: &MetricSampler, seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let flops = s.model().catalog().find("flops_rate").unwrap().id.0;
            let vals: Vec<f64> = s
                .sample_trials(&point, 20, &mut rng)
                .iter()
                .map(|sig| sig.values()[flops])
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        assert!(spread(&noisy, 4) > spread(&clean, 4) * 2.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = sampler(0.0);
        let p = WorkloadPoint::new(ServiceKind::Rubis, 0.5, 0.5);
        let a = s.sample(&p, &mut SimRng::seed_from_u64(7));
        let b = s.sample(&p, &mut SimRng::seed_from_u64(7));
        assert_eq!(a.values(), b.values());
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        let _ = MetricSampler::new(
            MetricModel::default(),
            SamplerConfig {
                window: SimDuration::ZERO,
                ..Default::default()
            },
        );
    }
}
