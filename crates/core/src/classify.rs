//! The online classifier: the "cache lookup" operation of DejaVu (§3.5).
//!
//! After clustering, each training signature is labeled with its cluster and a
//! classifier (C4.5-style decision tree by default, naive Bayes as an
//! alternative) is trained to recognize newly encountered workloads in
//! milliseconds. Along with the predicted class, the classifier reports a
//! certainty level; low certainty — or a signature that is far from every
//! known cluster — marks an unforeseen workload and triggers the full-capacity
//! fallback.

use crate::clustering::ClusteringOutcome;
use crate::error::DejaVuError;
use dejavu_metrics::WorkloadSignature;
use dejavu_ml::{Classifier, Dataset, DecisionTree, DecisionTreeConfig, NaiveBayes};

/// Which classifier family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifierKind {
    /// C4.5-style decision tree (the paper's J48 choice).
    DecisionTree,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Nearest-centroid assignment (no trained model; ablation baseline).
    NearestCentroid,
}

/// The trained model variants.
#[derive(Debug, Clone, PartialEq)]
enum Model {
    Tree(DecisionTree),
    Bayes(NaiveBayes),
    Centroid,
}

/// The result of classifying one signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// The workload class the signature was assigned to.
    pub class: usize,
    /// Certainty level in `[0, 1]`.
    pub certainty: f64,
    /// Whether the signature is so far from every known class that it should
    /// be treated as an unforeseen workload regardless of certainty.
    pub novel: bool,
    /// Distance to the nearest cluster centroid in normalized space.
    pub distance_to_centroid: f64,
}

/// The online classifier built from a clustering outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineClassifier {
    model: Model,
    clustering: ClusteringOutcome,
    novelty_margin: f64,
    certainty_threshold: f64,
}

impl OnlineClassifier {
    /// Trains a classifier on the learning-phase signatures and their cluster
    /// assignments.
    ///
    /// # Errors
    ///
    /// Returns [`DejaVuError::NoTrainingData`] for empty input and propagates
    /// training errors.
    pub fn train(
        kind: ClassifierKind,
        signatures: &[WorkloadSignature],
        clustering: &ClusteringOutcome,
        novelty_margin: f64,
        certainty_threshold: f64,
    ) -> Result<Self, DejaVuError> {
        if signatures.is_empty() {
            return Err(DejaVuError::NoTrainingData);
        }
        let names = signatures[0].names().to_vec();
        let mut dataset = Dataset::new(names);
        for (sig, &label) in signatures.iter().zip(&clustering.assignments) {
            let normalized = clustering.normalize(sig.values());
            dataset
                .try_push(dejavu_ml::Instance::labeled(normalized, label))
                .map_err(DejaVuError::from)?;
        }
        let model = match kind {
            ClassifierKind::DecisionTree => {
                Model::Tree(DecisionTree::fit(&dataset, &DecisionTreeConfig::default())?)
            }
            ClassifierKind::NaiveBayes => Model::Bayes(NaiveBayes::fit(&dataset)?),
            ClassifierKind::NearestCentroid => Model::Centroid,
        };
        Ok(OnlineClassifier {
            model,
            clustering: clustering.clone(),
            novelty_margin,
            certainty_threshold,
        })
    }

    /// Number of workload classes.
    pub fn num_classes(&self) -> usize {
        self.clustering.num_classes()
    }

    /// The certainty threshold below which a classification is distrusted.
    pub fn certainty_threshold(&self) -> f64 {
        self.certainty_threshold
    }

    /// Classifies a signature.
    pub fn classify(&self, signature: &WorkloadSignature) -> Classification {
        let normalized = self.clustering.normalize(signature.values());
        // One pass over the centroids for both the assignment and its
        // distance — this runs on every periodic profile, fleet-wide.
        let (nearest, distance) = self.clustering.kmeans.assign_with_distance(&normalized);
        // A signature much farther from its nearest centroid than that
        // cluster's own radius is an unforeseen workload. A floor tied to the
        // inter-centroid spacing keeps very tight clusters from flagging every
        // small deviation as novel.
        let scale = self
            .clustering
            .cluster_scale(nearest)
            .max(0.3 * self.clustering.min_centroid_distance);
        let novel = distance > self.novelty_margin * scale;
        let (class, certainty) = match &self.model {
            Model::Tree(t) => t.predict_with_confidence(&normalized),
            Model::Bayes(b) => b.predict_with_confidence(&normalized),
            Model::Centroid => {
                // Confidence decays with distance, reaching 0.5 at the novelty
                // boundary (beyond which the classification is rejected anyway).
                let reach = (scale * self.novelty_margin).max(f64::MIN_POSITIVE);
                let conf = (1.0 - 0.5 * distance / reach).clamp(0.0, 1.0);
                (nearest, conf)
            }
        };
        Classification {
            class,
            certainty,
            novel,
            distance_to_centroid: distance,
        }
    }

    /// Returns true if `classification` should be trusted for a cache lookup.
    pub fn is_confident(&self, classification: &Classification) -> bool {
        !classification.novel && classification.certainty >= self.certainty_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::WorkloadClusterer;
    use dejavu_metrics::{MetricModel, MetricSampler, SamplerConfig, WorkloadPoint};
    use dejavu_simcore::SimRng;
    use dejavu_traces::ServiceKind;

    /// Mirrors the controller pipeline: coarse clustering for labels, CFS
    /// feature selection, then clustering and training on the selected metrics.
    fn setup(
        kind: ClassifierKind,
    ) -> (
        OnlineClassifier,
        crate::signature::SignatureBuilder,
        MetricSampler,
        SimRng,
    ) {
        let sampler = MetricSampler::new(MetricModel::default(), SamplerConfig::default());
        let mut rng = SimRng::seed_from_u64(10);
        let levels = [0.2, 0.45, 0.55, 0.95];
        let mut sigs = Vec::new();
        for &l in &levels {
            let p = WorkloadPoint::new(ServiceKind::Cassandra, l, 0.05);
            for _ in 0..6 {
                sigs.push(sampler.sample(&p, &mut rng));
            }
        }
        let clusterer = WorkloadClusterer::new((2, 8), 10);
        let coarse = clusterer.cluster(&sigs).unwrap();
        let builder =
            crate::signature::SignatureBuilder::select(&sigs, &coarse.assignments, 8).unwrap();
        let projected: Vec<WorkloadSignature> = sigs.iter().map(|s| builder.project(s)).collect();
        let clustering = clusterer.cluster(&projected).unwrap();
        let clf = OnlineClassifier::train(kind, &projected, &clustering, 1.8, 0.6).unwrap();
        (clf, builder, sampler, SimRng::seed_from_u64(77))
    }

    fn sig(
        builder: &crate::signature::SignatureBuilder,
        sampler: &MetricSampler,
        rng: &mut SimRng,
        level: f64,
    ) -> WorkloadSignature {
        builder.project(&sampler.sample(
            &WorkloadPoint::new(ServiceKind::Cassandra, level, 0.05),
            rng,
        ))
    }

    #[test]
    fn known_workloads_are_classified_with_confidence() {
        for kind in [
            ClassifierKind::DecisionTree,
            ClassifierKind::NaiveBayes,
            ClassifierKind::NearestCentroid,
        ] {
            let (clf, builder, sampler, mut rng) = setup(kind);
            assert!(
                (3..=5).contains(&clf.num_classes()),
                "classes {}",
                clf.num_classes()
            );
            let c = clf.classify(&sig(&builder, &sampler, &mut rng, 0.45));
            assert!(clf.is_confident(&c), "{kind:?} should be confident: {c:?}");
            // Two samples of the same plateau land in the same class.
            let c2 = clf.classify(&sig(&builder, &sampler, &mut rng, 0.46));
            assert_eq!(c.class, c2.class);
        }
    }

    #[test]
    fn different_plateaus_map_to_different_classes() {
        let (clf, builder, sampler, mut rng) = setup(ClassifierKind::DecisionTree);
        let low = clf.classify(&sig(&builder, &sampler, &mut rng, 0.2));
        let high = clf.classify(&sig(&builder, &sampler, &mut rng, 0.95));
        assert_ne!(low.class, high.class);
    }

    #[test]
    fn unforeseen_volume_is_flagged_as_novel() {
        let (clf, builder, sampler, mut rng) = setup(ClassifierKind::DecisionTree);
        // 0.75 sits between the learned 0.55 and 0.95 plateaus — an unseen level.
        let c = clf.classify(&sig(&builder, &sampler, &mut rng, 0.75));
        assert!(c.novel, "unseen level must be novel: {c:?}");
        assert!(!clf.is_confident(&c));
        // Small deviations around a learned plateau are NOT novel.
        let near = clf.classify(&sig(&builder, &sampler, &mut rng, 0.57));
        assert!(!near.novel, "near-plateau workload flagged novel: {near:?}");
    }

    #[test]
    fn certainty_is_a_probability() {
        let (clf, builder, sampler, mut rng) = setup(ClassifierKind::NaiveBayes);
        let c = clf.classify(&sig(&builder, &sampler, &mut rng, 0.55));
        assert!((0.0..=1.0).contains(&c.certainty));
        assert_eq!(clf.certainty_threshold(), 0.6);
    }

    #[test]
    fn empty_training_is_an_error() {
        let sampler = MetricSampler::new(MetricModel::default(), SamplerConfig::default());
        let mut rng = SimRng::seed_from_u64(1);
        let sigs = vec![sampler.sample(
            &WorkloadPoint::new(ServiceKind::Cassandra, 0.5, 0.05),
            &mut rng,
        )];
        let clustering = WorkloadClusterer::new((1, 1), 1).cluster(&sigs).unwrap();
        assert!(matches!(
            OnlineClassifier::train(ClassifierKind::DecisionTree, &[], &clustering, 1.8, 0.6),
            Err(DejaVuError::NoTrainingData)
        ));
    }
}
