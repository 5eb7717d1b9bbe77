//! The DejaVu provisioning controller: learning phase, signature-based reuse,
//! unforeseen-workload fallback and interference compensation (§3).

use crate::classify::OnlineClassifier;
use crate::clustering::WorkloadClusterer;
use crate::config::DejaVuConfig;
use crate::error::DejaVuError;
use crate::interference::{InterferenceBucket, InterferenceEstimator};
use crate::repository::{
    AllocationStore, RepositoryKey, RepositoryStats, SignatureRepository, StoreContext,
};
use crate::signature::SignatureBuilder;
use crate::tuner::{LinearSearchTuner, Tuner};
use dejavu_cloud::{
    AllocationSpace, ControllerDecision, DecisionReason, Observation, ProvisioningController,
    ResourceAllocation,
};
use dejavu_metrics::WorkloadSignature;
use dejavu_proxy::{Profiler, ProfilerConfig};
use dejavu_services::{PerfSample, ServiceModel};
use dejavu_simcore::{SimRng, SimTime};
use dejavu_traces::Workload;

/// Which phase the controller is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DejaVuPhase {
    /// Initial profiling/tuning phase (the first day of the trace).
    Learning,
    /// Signature-based reuse of cached allocations.
    Reuse,
}

/// Counters and measurements the experiments report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DejaVuStats {
    /// Signatures collected by the profiler.
    pub signatures_collected: usize,
    /// Tuning runs executed (learning, repository misses, re-clustering).
    pub tunings: usize,
    /// Reuse-phase classifications that hit the repository.
    pub cache_hits: u64,
    /// Reuse-phase classifications rejected as unforeseen (low certainty or novel).
    pub unforeseen: u64,
    /// Classifications that were confident but had no repository entry yet.
    pub repository_misses: u64,
    /// Number of workload classes identified at the end of learning.
    pub num_classes: usize,
    /// How many times DejaVu re-ran clustering because of repeated low certainty.
    pub reclusterings: usize,
    /// Interference compensations applied.
    pub interference_compensations: u64,
    /// Learning-phase tunings skipped because a fleet-shared repository already
    /// held an allocation another tenant tuned for an equivalent workload.
    pub fleet_reuses: u64,
    /// Hit/miss statistics of the underlying repository (shared or local),
    /// from this controller's perspective.
    pub repository: RepositoryStats,
    /// Decision latencies (seconds) of reuse-phase adaptations.
    pub adaptation_times_secs: Vec<f64>,
}

impl DejaVuStats {
    /// Mean reuse-phase adaptation (decision) time in seconds.
    pub fn mean_adaptation_secs(&self) -> f64 {
        if self.adaptation_times_secs.is_empty() {
            0.0
        } else {
            self.adaptation_times_secs.iter().sum::<f64>() / self.adaptation_times_secs.len() as f64
        }
    }

    /// Cache hit rate among reuse-phase classifications.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.unforeseen + self.repository_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The DejaVu framework as a provisioning controller.
pub struct DejaVuController {
    config: DejaVuConfig,
    name: String,
    service: Box<dyn ServiceModel>,
    space: AllocationSpace,
    profiler: Profiler,
    tuner: LinearSearchTuner,
    estimator: InterferenceEstimator,
    rng: SimRng,
    phase: DejaVuPhase,
    // Learning-phase data.
    learning_sigs: Vec<WorkloadSignature>,
    learning_allocs: Vec<ResourceAllocation>,
    // Trained state.
    builder: Option<SignatureBuilder>,
    classifier: Option<OnlineClassifier>,
    repository: Box<dyn AllocationStore>,
    /// Full-catalogue medoid signature of each workload class; the cross-tenant
    /// identity fleet-shared stores match on.
    class_signatures: Vec<WorkloadSignature>,
    // Runtime bookkeeping.
    last_profile_time: Option<SimTime>,
    last_action_time: Option<SimTime>,
    current_class: Option<usize>,
    current_bucket: InterferenceBucket,
    violated_since: Option<SimTime>,
    consecutive_low_certainty: usize,
    unforeseen_buffer: Vec<(WorkloadSignature, Workload)>,
    stats: DejaVuStats,
}

impl std::fmt::Debug for DejaVuController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DejaVuController")
            .field("name", &self.name)
            .field("phase", &self.phase)
            .field("classes", &self.stats.num_classes)
            .field("repository_entries", &self.repository.len())
            .finish()
    }
}

impl DejaVuController {
    /// Creates a DejaVu controller for a service deployed over `space`.
    pub fn new(
        config: DejaVuConfig,
        service: Box<dyn ServiceModel>,
        space: AllocationSpace,
    ) -> Self {
        let profiler = Profiler::new(ProfilerConfig {
            sampler: dejavu_metrics::SamplerConfig {
                window: config.signature_window,
                ..Default::default()
            },
            ..Default::default()
        });
        let rng = SimRng::seed_from_u64(config.seed);
        let estimator = InterferenceEstimator::new(config.interference_bucket_width);
        DejaVuController {
            name: "dejavu".to_string(),
            profiler,
            tuner: LinearSearchTuner::default(),
            estimator,
            rng,
            phase: DejaVuPhase::Learning,
            learning_sigs: Vec::new(),
            learning_allocs: Vec::new(),
            builder: None,
            classifier: None,
            repository: Box::new(SignatureRepository::new()),
            class_signatures: Vec::new(),
            last_profile_time: None,
            last_action_time: None,
            current_class: None,
            current_bucket: InterferenceBucket::NONE,
            violated_since: None,
            consecutive_low_certainty: 0,
            unforeseen_buffer: Vec::new(),
            stats: DejaVuStats::default(),
            config,
            service,
            space,
        }
    }

    /// Overrides the controller's display name (used when several variants run
    /// in one experiment, e.g. "dejavu-no-interference").
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the backing repository, e.g. with a tenant view over the
    /// fleet-shared store from `dejavu-fleet`. Call before the first decision;
    /// any entries already cached in the previous store are not migrated.
    pub fn with_store(mut self, store: Box<dyn AllocationStore>) -> Self {
        self.repository = store;
        self
    }

    /// The current phase.
    pub fn phase(&self) -> DejaVuPhase {
        self.phase
    }

    /// The signature repository (the cache) — local or fleet-shared.
    pub fn repository(&self) -> &dyn AllocationStore {
        self.repository.as_ref()
    }

    /// Mutable access to the backing store, for store-specific maintenance
    /// (see [`AllocationStore::as_any_mut`]). Decision paths never need this.
    pub fn store_mut(&mut self) -> &mut dyn AllocationStore {
        self.repository.as_mut()
    }

    /// The statistics gathered so far.
    pub fn stats(&self) -> &DejaVuStats {
        &self.stats
    }

    /// Consumes the controller, handing over its statistics.
    pub fn into_stats(self) -> DejaVuStats {
        self.stats
    }

    /// The signature metrics chosen by feature selection, once trained.
    pub fn signature_metrics(&self) -> Option<&[String]> {
        self.builder.as_ref().map(|b| b.metric_names())
    }

    fn profile_due(&self, now: SimTime) -> bool {
        match self.last_profile_time {
            None => true,
            Some(t) => {
                now.saturating_since(t).as_secs() + 1e-9 >= self.config.profile_interval.as_secs()
            }
        }
    }

    fn cooldown_passed(&self, now: SimTime) -> bool {
        match self.last_action_time {
            None => true,
            Some(t) => {
                now.saturating_since(t).as_secs() >= self.config.violation_cooldown.as_secs()
            }
        }
    }

    fn production_sample(obs: &Observation) -> PerfSample {
        PerfSample {
            latency_ms: obs.latency_ms.unwrap_or(0.0),
            qos_percent: obs.qos_percent.unwrap_or(100.0),
            throughput_rps: 0.0,
            utilization: obs.utilization,
        }
    }

    /// Learning-phase step: profile the workload and tune it, as the state of
    /// the art would, while recording the data that will seed the cache.
    ///
    /// Before paying for a tuning run, the profiled signature is offered to
    /// the repository: a plain [`SignatureRepository`] always misses here, but
    /// a fleet-shared store can return an allocation another tenant already
    /// tuned for an equivalent workload, eliminating this tenant's cold-start
    /// cost (the fleet argument of the DejaVu paper's §5).
    fn learn_step(&mut self, obs: &Observation) -> ControllerDecision {
        let report = self.profiler.profile(&obs.workload, &mut self.rng);
        self.stats.signatures_collected += 1;
        let fleet_entry = self.repository.get(
            StoreContext::with_signature(RepositoryKey::unclassified(), &report.signature)
                .at(obs.time),
        );
        let (allocation, latency, reason) = match fleet_entry {
            Some(entry) => {
                self.stats.fleet_reuses += 1;
                (
                    entry.allocation,
                    report.duration,
                    DecisionReason::FleetReuse,
                )
            }
            None => {
                let outcome =
                    self.tuner
                        .tune(&obs.workload, self.service.as_ref(), &self.space, 1.0);
                self.stats.tunings += 1;
                // Publish the fresh tuning decision under its raw signature so
                // fleet peers (and later this tenant's own reuse phase, via the
                // class medoids) can skip the same tuning. Local repositories
                // drop signature-only publications.
                self.repository.put(
                    StoreContext::with_signature(RepositoryKey::unclassified(), &report.signature)
                        .at(obs.time),
                    outcome.allocation,
                    obs.time,
                );
                (
                    outcome.allocation,
                    report.duration + outcome.duration,
                    DecisionReason::Learning,
                )
            }
        };
        self.learning_sigs.push(report.signature);
        self.learning_allocs.push(allocation);
        self.last_profile_time = Some(obs.time);
        self.last_action_time = Some(obs.time);
        ControllerDecision::deploy(allocation, latency, reason)
    }

    /// Ends the learning phase: clusters the collected signatures, selects the
    /// signature metrics, trains the classifier and populates the repository
    /// with the tuned allocation of each class medoid.
    fn finalize_learning(&mut self, now: SimTime) -> Result<(), DejaVuError> {
        if self.learning_sigs.is_empty() {
            return Err(DejaVuError::NoTrainingData);
        }
        // First clustering pass on the full metric catalogue provides labels
        // for feature selection.
        let clusterer = WorkloadClusterer::new(self.config.cluster_range, self.config.seed);
        let coarse = clusterer.cluster(&self.learning_sigs)?;
        let builder = SignatureBuilder::select(
            &self.learning_sigs,
            &coarse.assignments,
            self.config.max_signature_metrics,
        )?;
        // Re-cluster and train on the selected signature metrics.
        let projected: Vec<WorkloadSignature> = self
            .learning_sigs
            .iter()
            .map(|s| builder.project(s))
            .collect();
        let clustering = clusterer.cluster(&projected)?;
        let classifier = OnlineClassifier::train(
            self.config.classifier,
            &projected,
            &clustering,
            self.config.novelty_margin,
            self.config.certainty_threshold,
        )?;
        self.repository.clear();
        // Seed each class with the largest allocation its members needed during
        // learning: robust even when two nearby load plateaus end up merged
        // into one class, at the cost of slight over-provisioning.
        self.class_signatures = clustering
            .medoids
            .iter()
            .map(|&m| self.learning_sigs[m].clone())
            .collect();
        for (class, &medoid) in clustering.medoids.iter().enumerate() {
            let mut allocation = self.learning_allocs[medoid];
            for (i, &assigned) in clustering.assignments.iter().enumerate() {
                if assigned == class
                    && self.learning_allocs[i].capacity_units() > allocation.capacity_units()
                {
                    allocation = self.learning_allocs[i];
                }
            }
            self.repository.put(
                StoreContext::with_signature(
                    RepositoryKey::baseline(class),
                    &self.class_signatures[class],
                )
                .at(now),
                allocation,
                now,
            );
        }
        self.stats.num_classes = clustering.num_classes();
        self.builder = Some(builder);
        self.classifier = Some(classifier);
        self.phase = DejaVuPhase::Reuse;
        Ok(())
    }

    /// Re-runs clustering after repeated low-certainty classifications,
    /// folding the unforeseen signatures into the training set and tuning the
    /// new class medoids.
    fn recluster(&mut self, now: SimTime) -> Result<(), DejaVuError> {
        for (sig, workload) in std::mem::take(&mut self.unforeseen_buffer) {
            let outcome = self
                .tuner
                .tune(&workload, self.service.as_ref(), &self.space, 1.0);
            self.stats.tunings += 1;
            self.learning_sigs.push(sig);
            self.learning_allocs.push(outcome.allocation);
        }
        self.stats.reclusterings += 1;
        self.consecutive_low_certainty = 0;
        self.finalize_learning(now)
    }

    /// Reuse-phase step on a periodic profile: classify and reuse.
    fn reuse_step(&mut self, obs: &Observation) -> ControllerDecision {
        let report = self.profiler.profile(&obs.workload, &mut self.rng);
        self.stats.signatures_collected += 1;
        self.last_profile_time = Some(obs.time);
        let (builder, classifier) = match (&self.builder, &self.classifier) {
            (Some(b), Some(c)) => (b, c),
            _ => return ControllerDecision::keep(),
        };
        let projected = builder.project(&report.signature);
        let classification = classifier.classify(&projected);
        if !classifier.is_confident(&classification) {
            // Unforeseen workload: deploy full capacity to stay safe.
            self.stats.unforeseen += 1;
            self.consecutive_low_certainty += 1;
            self.unforeseen_buffer
                .push((report.signature, obs.workload));
            self.current_class = None;
            if self.consecutive_low_certainty >= self.config.reclustering_threshold {
                // Re-clustering runs offline (sandboxed tuning); deployment of
                // full capacity is not delayed by it.
                let _ = self.recluster(obs.time);
            }
            self.last_action_time = Some(obs.time);
            self.stats
                .adaptation_times_secs
                .push(report.duration.as_secs());
            return ControllerDecision::deploy(
                self.space.full_capacity(),
                report.duration,
                DecisionReason::CacheMiss,
            );
        }
        self.consecutive_low_certainty = 0;
        self.current_class = Some(classification.class);
        // A fresh classification starts from the interference-free entry; the
        // interference path below re-establishes a bucketed entry only if the
        // SLO keeps being violated with the baseline allocation deployed.
        self.current_bucket = InterferenceBucket::NONE;
        let key = RepositoryKey::baseline(classification.class);
        let ctx = match self.class_signatures.get(classification.class) {
            Some(sig) => StoreContext::with_signature(key, sig),
            None => StoreContext::keyed(key),
        }
        .at(obs.time);
        let entry = self.repository.get(ctx);
        match entry {
            Some(entry) => {
                self.stats.cache_hits += 1;
                self.last_action_time = Some(obs.time);
                self.stats
                    .adaptation_times_secs
                    .push(report.duration.as_secs());
                ControllerDecision::deploy(
                    entry.allocation,
                    report.duration,
                    DecisionReason::CacheHit {
                        class: classification.class,
                    },
                )
            }
            None => {
                // Classified, but nothing cached yet: tune and remember.
                self.stats.repository_misses += 1;
                let outcome =
                    self.tuner
                        .tune(&obs.workload, self.service.as_ref(), &self.space, 1.0);
                self.stats.tunings += 1;
                self.repository.put(ctx, outcome.allocation, obs.time);
                self.last_action_time = Some(obs.time);
                self.stats
                    .adaptation_times_secs
                    .push((report.duration + outcome.duration).as_secs());
                ControllerDecision::deploy(
                    outcome.allocation,
                    report.duration + outcome.duration,
                    DecisionReason::Tuned,
                )
            }
        }
    }

    /// Interference path (§3.6): the workload class was just identified in
    /// isolation, yet the baseline allocation violates the SLO in production —
    /// blame interference, estimate the index and deploy the compensating
    /// allocation.
    fn interference_step(&mut self, obs: &Observation, class: usize) -> ControllerDecision {
        let isolation = self.profiler.evaluate_isolated(
            self.service.as_ref(),
            &obs.workload,
            obs.current_allocation.capacity_units(),
        );
        // If the deployed allocation would violate the SLO even in isolation,
        // the problem is the allocation (e.g. the class groups workloads with
        // different needs), not interference: re-tune the class instead.
        if !self.service.slo().is_met(&isolation) {
            // Ride out the rest of the interval at full capacity; the next
            // periodic classification re-evaluates the workload. The cache is
            // left untouched so a transient misattribution cannot permanently
            // inflate a class's allocation.
            self.last_action_time = Some(obs.time);
            return ControllerDecision::deploy(
                self.space.full_capacity(),
                self.config.signature_window,
                DecisionReason::CacheMiss,
            );
        }
        let production = Self::production_sample(obs);
        let index = self
            .estimator
            .index(&production, &isolation, &self.service.slo());
        let bucket = self.estimator.bucket(index);
        if bucket == InterferenceBucket::NONE {
            return ControllerDecision::keep();
        }
        self.current_bucket = bucket;
        let key = bucket.key_for(class);
        let ctx = match self.class_signatures.get(class) {
            Some(sig) => StoreContext::with_signature(key, sig),
            None => StoreContext::keyed(key),
        }
        .at(obs.time);
        let allocation = match self.repository.get(ctx) {
            Some(entry) => entry.allocation,
            None => {
                let stolen = self.estimator.stolen_fraction(index, isolation.utilization);
                let inflation = self.estimator.capacity_inflation(stolen);
                let outcome =
                    self.tuner
                        .tune(&obs.workload, self.service.as_ref(), &self.space, inflation);
                self.stats.tunings += 1;
                self.repository.put(ctx, outcome.allocation, obs.time);
                outcome.allocation
            }
        };
        self.stats.interference_compensations += 1;
        self.last_action_time = Some(obs.time);
        ControllerDecision::deploy(
            allocation,
            self.config.signature_window,
            DecisionReason::InterferenceCompensation,
        )
    }
}

impl ProvisioningController for DejaVuController {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, obs: &Observation) -> ControllerDecision {
        let decision = self.decide_inner(obs);
        // Repository stats live in the store (which may be fleet-shared);
        // mirror them into the controller stats so one snapshot has
        // everything the reports need.
        self.stats.repository = self.repository.stats();
        decision
    }
}

impl DejaVuController {
    fn decide_inner(&mut self, obs: &Observation) -> ControllerDecision {
        // Transition from learning to reuse at the configured boundary.
        if self.phase == DejaVuPhase::Learning
            && obs.time.hour_index() >= self.config.learning_hours
            && self.finalize_learning(obs.time).is_ok()
        {
            // Fall through: the first reuse-phase profile happens below.
        }
        match self.phase {
            DejaVuPhase::Learning => {
                if self.profile_due(obs.time) {
                    self.learn_step(obs)
                } else {
                    ControllerDecision::keep()
                }
            }
            DejaVuPhase::Reuse => {
                // Track how long the SLO has been violated: transient spikes
                // (re-partitioning, reconfiguration warm-up) must not be
                // mistaken for interference.
                if obs.slo_violated {
                    if self.violated_since.is_none() {
                        self.violated_since = Some(obs.time);
                    }
                } else {
                    self.violated_since = None;
                }
                let persistent_violation = self
                    .violated_since
                    .map(|since| {
                        obs.time.saturating_since(since).as_secs()
                            >= self.config.violation_cooldown.as_secs()
                    })
                    .unwrap_or(false);
                if self.profile_due(obs.time) {
                    self.reuse_step(obs)
                } else if self.config.interference_detection
                    && persistent_violation
                    && self.cooldown_passed(obs.time)
                {
                    // First exclude a workload change as the cause by
                    // re-profiling and re-classifying; only when the cache
                    // confirms the deployed allocation is the preferred one for
                    // this workload is the violation blamed on interference.
                    let reclassified = self.reuse_step(obs);
                    if reclassified.changes_allocation(obs.current_allocation) {
                        reclassified
                    } else if let Some(class) = self.current_class {
                        self.interference_step(obs, class)
                    } else {
                        reclassified
                    }
                } else {
                    ControllerDecision::keep()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_services::CassandraService;
    use dejavu_traces::{RequestMix, ServiceKind};

    fn controller(learning_hours: u64) -> DejaVuController {
        let config = DejaVuConfig::builder()
            .learning_hours(learning_hours)
            .seed(42)
            .build();
        DejaVuController::new(
            config,
            Box::new(CassandraService::update_heavy()),
            AllocationSpace::scale_out(1, 10).unwrap(),
        )
    }

    fn obs(hour: f64, intensity: f64, alloc: ResourceAllocation, violated: bool) -> Observation {
        Observation {
            time: SimTime::from_hours(hour),
            workload: Workload::with_intensity(
                ServiceKind::Cassandra,
                intensity,
                RequestMix::update_heavy(),
            ),
            latency_ms: Some(if violated { 90.0 } else { 40.0 }),
            qos_percent: None,
            utilization: 0.7,
            slo_violated: violated,
            current_allocation: alloc,
        }
    }

    /// Drives the controller through a learning day over four load plateaus.
    fn run_learning(ctrl: &mut DejaVuController) {
        let plateaus = [0.2, 0.45, 0.55, 0.95];
        for h in 0..24u64 {
            let level = plateaus[(h / 6) as usize];
            let o = obs(h as f64, level, ResourceAllocation::large(10), false);
            let d = ctrl.decide(&o);
            if h == 0 {
                assert_eq!(d.reason, DecisionReason::Learning);
            }
        }
    }

    #[test]
    fn learning_phase_tunes_each_profiled_workload() {
        let mut ctrl = controller(24);
        run_learning(&mut ctrl);
        assert_eq!(ctrl.phase(), DejaVuPhase::Learning);
        assert_eq!(ctrl.stats().signatures_collected, 24);
        assert_eq!(ctrl.stats().tunings, 24);
    }

    #[test]
    fn transitions_to_reuse_and_hits_the_cache() {
        let mut ctrl = controller(24);
        run_learning(&mut ctrl);
        // Hour 24: same plateau as the learning day's first plateau.
        let d = ctrl.decide(&obs(24.0, 0.45, ResourceAllocation::large(10), false));
        assert_eq!(ctrl.phase(), DejaVuPhase::Reuse);
        assert!(ctrl.stats().num_classes >= 3 && ctrl.stats().num_classes <= 5);
        assert!(
            matches!(d.reason, DecisionReason::CacheHit { .. }),
            "{:?}",
            d.reason
        );
        // Adaptation is dominated by the ~10 s signature collection.
        assert!(d.decision_latency.as_secs() <= 11.0);
        let target = d.target.expect("cache hit deploys an allocation");
        assert!(
            target.count() >= 4 && target.count() <= 6,
            "allocation {target}"
        );
        assert!(ctrl.stats().cache_hits >= 1);
        assert!(ctrl.signature_metrics().is_some());
    }

    #[test]
    fn unforeseen_workload_falls_back_to_full_capacity() {
        let mut ctrl = controller(24);
        run_learning(&mut ctrl);
        // An unseen volume far beyond anything the learning day contained.
        let d = ctrl.decide(&obs(24.0, 1.3, ResourceAllocation::large(10), false));
        assert_eq!(d.reason, DecisionReason::CacheMiss);
        assert_eq!(d.target, Some(ResourceAllocation::large(10)));
        assert_eq!(ctrl.stats().unforeseen, 1);
    }

    #[test]
    fn interference_violation_triggers_compensation() {
        let mut ctrl = controller(24);
        run_learning(&mut ctrl);
        // Classify a known plateau first (cache hit).
        let d = ctrl.decide(&obs(24.0, 0.45, ResourceAllocation::large(10), false));
        let baseline = d.target.unwrap();
        // The SLO keeps being violated while the baseline is deployed (and the
        // baseline would be fine in isolation): DejaVu must blame interference
        // and add capacity.
        let _ = ctrl.decide(&obs(24.3, 0.45, baseline, true));
        let d2 = ctrl.decide(&obs(24.7, 0.45, baseline, true));
        assert_eq!(d2.reason, DecisionReason::InterferenceCompensation);
        let compensated = d2.target.unwrap();
        assert!(compensated.capacity_units() > baseline.capacity_units());
        assert_eq!(ctrl.stats().interference_compensations, 1);
    }

    #[test]
    fn interference_detection_can_be_disabled() {
        let config = DejaVuConfig::builder()
            .learning_hours(24)
            .interference_detection(false)
            .seed(42)
            .build();
        let mut ctrl = DejaVuController::new(
            config,
            Box::new(CassandraService::update_heavy()),
            AllocationSpace::scale_out(1, 10).unwrap(),
        );
        run_learning(&mut ctrl);
        let d = ctrl.decide(&obs(24.0, 0.45, ResourceAllocation::large(10), false));
        let baseline = d.target.unwrap();
        let _ = ctrl.decide(&obs(24.3, 0.45, baseline, true));
        let d2 = ctrl.decide(&obs(24.7, 0.45, baseline, true));
        assert_eq!(d2.reason, DecisionReason::NoChange);
    }

    #[test]
    fn stats_summaries() {
        let mut ctrl = controller(24);
        run_learning(&mut ctrl);
        for h in 24..36u64 {
            let level = [0.2, 0.45, 0.55, 0.95][((h - 24) / 3) as usize % 4];
            let _ = ctrl.decide(&obs(h as f64, level, ResourceAllocation::large(10), false));
        }
        let stats = ctrl.stats();
        assert!(stats.hit_rate() > 0.8, "hit rate {}", stats.hit_rate());
        assert!(stats.mean_adaptation_secs() <= 15.0);
        assert!(!ctrl.repository().is_empty());
        assert!(format!("{ctrl:?}").contains("dejavu"));
    }
}
