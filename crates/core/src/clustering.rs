//! Workload-class identification: clustering the signatures collected during
//! the learning phase into a small number of classes (§3.4).

use crate::error::DejaVuError;
use dejavu_metrics::WorkloadSignature;
use dejavu_ml::{Dataset, KMeans, KMeansConfig};

/// Widest signature [`ClusteringOutcome::assign`] normalizes on the stack.
/// Signatures carry one value per selected metric — a dozen or so in
/// practice — so 64 covers everything without a per-call allocation.
const ASSIGN_STACK_DIMS: usize = 64;

/// The result of clustering the learning-phase signatures.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringOutcome {
    /// The fitted k-means model over *normalized* signature vectors.
    pub kmeans: KMeans,
    /// Per-attribute (mean, std) used to normalize signature vectors.
    pub moments: Vec<(f64, f64)>,
    /// The cluster assignment of each training signature, in input order.
    pub assignments: Vec<usize>,
    /// For each cluster, the index (into the training set) of the signature
    /// closest to the centroid — the instance handed to the Tuner.
    pub medoids: Vec<usize>,
    /// The smallest distance between two cluster centroids (normalized space);
    /// used to calibrate unforeseen-workload detection.
    pub min_centroid_distance: f64,
    /// Per-cluster radius: the largest distance of a member from its centroid
    /// (normalized space). Unforeseen-workload detection compares new
    /// signatures against these radii.
    pub radii: Vec<f64>,
}

impl ClusteringOutcome {
    /// Number of workload classes.
    pub fn num_classes(&self) -> usize {
        self.kmeans.k()
    }

    /// A characteristic length scale for cluster `class`: its radius, falling
    /// back to the mean positive radius (for singleton clusters) and finally
    /// to a quarter of the smallest inter-centroid distance.
    pub fn cluster_scale(&self, class: usize) -> f64 {
        let own = self.radii.get(class).copied().unwrap_or(0.0);
        if own > 0.0 {
            return own;
        }
        let positive: Vec<f64> = self.radii.iter().copied().filter(|&r| r > 0.0).collect();
        if !positive.is_empty() {
            return positive.iter().sum::<f64>() / positive.len() as f64;
        }
        self.min_centroid_distance * 0.25
    }

    /// Normalizes a raw signature vector with the training moments.
    pub fn normalize(&self, values: &[f64]) -> Vec<f64> {
        Dataset::normalize_with(values, &self.moments)
    }

    /// Assigns a signature to its nearest class and reports the distance to
    /// that class's centroid (in normalized space).
    ///
    /// This runs once per observation tick fleet-wide, so it avoids the heap:
    /// signatures up to [`ASSIGN_STACK_DIMS`] attributes (every signature the
    /// metric layer produces) normalize into a stack buffer, and the nearest
    /// centroid is found in a single scan.
    pub fn assign(&self, signature: &WorkloadSignature) -> (usize, f64) {
        let values = signature.values();
        if values.len() <= ASSIGN_STACK_DIMS {
            let mut buf = [0.0f64; ASSIGN_STACK_DIMS];
            let v = &mut buf[..values.len()];
            Dataset::normalize_with_into(values, &self.moments, v);
            self.kmeans.assign_with_distance(v)
        } else {
            let v = self.normalize(values);
            self.kmeans.assign_with_distance(&v)
        }
    }
}

/// Clusters learning-phase signatures into workload classes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadClusterer {
    /// Range of cluster counts to explore (automatic k selection).
    pub cluster_range: (usize, usize),
    /// Seed for k-means restarts.
    pub seed: u64,
}

impl WorkloadClusterer {
    /// Creates a clusterer.
    pub fn new(cluster_range: (usize, usize), seed: u64) -> Self {
        WorkloadClusterer {
            cluster_range,
            seed,
        }
    }

    /// Clusters the signatures.
    ///
    /// # Errors
    ///
    /// Returns [`DejaVuError::NoTrainingData`] if `signatures` is empty and
    /// propagates clustering errors.
    pub fn cluster(
        &self,
        signatures: &[WorkloadSignature],
    ) -> Result<ClusteringOutcome, DejaVuError> {
        if signatures.is_empty() {
            return Err(DejaVuError::NoTrainingData);
        }
        let names = signatures[0].names().to_vec();
        let mut dataset = Dataset::new(names);
        for sig in signatures {
            dataset
                .try_push(dejavu_ml::Instance::unlabeled(sig.values().to_vec()))
                .map_err(DejaVuError::from)?;
        }
        let (normalized, moments) = dataset.normalized();
        let lo = self.cluster_range.0.min(signatures.len());
        let hi = self.cluster_range.1.min(signatures.len());
        let kmeans = KMeans::fit_auto_k(&normalized, lo..=hi, &KMeansConfig::default(), self.seed)?;
        let assignments = kmeans.assignments().to_vec();
        let medoids = (0..kmeans.k())
            .map(|c| kmeans.medoid_of(&normalized, c).unwrap_or(0))
            .collect();
        let mut min_dist = f64::INFINITY;
        for (i, a) in kmeans.centroids().iter().enumerate() {
            for b in kmeans.centroids().iter().skip(i + 1) {
                min_dist = min_dist.min(dejavu_ml::dataset::distance(a, b));
            }
        }
        if !min_dist.is_finite() {
            min_dist = 1.0;
        }
        let mut radii = vec![0.0f64; kmeans.k()];
        for (i, inst) in normalized.instances().iter().enumerate() {
            let c = assignments[i];
            let d = dejavu_ml::dataset::distance(&inst.features, &kmeans.centroids()[c]);
            if d > radii[c] {
                radii[c] = d;
            }
        }
        Ok(ClusteringOutcome {
            kmeans,
            moments,
            assignments,
            medoids,
            min_centroid_distance: min_dist,
            radii,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_metrics::{MetricModel, MetricSampler, SamplerConfig, WorkloadPoint};
    use dejavu_simcore::SimRng;
    use dejavu_traces::ServiceKind;

    fn signatures_for(levels: &[f64], per: usize, seed: u64) -> Vec<WorkloadSignature> {
        let sampler = MetricSampler::new(MetricModel::default(), SamplerConfig::default());
        let mut rng = SimRng::seed_from_u64(seed);
        let mut sigs = Vec::new();
        for &l in levels {
            let p = WorkloadPoint::new(ServiceKind::Cassandra, l, 0.05);
            for _ in 0..per {
                sigs.push(sampler.sample(&p, &mut rng));
            }
        }
        sigs
    }

    #[test]
    fn finds_the_underlying_plateau_count() {
        // 24 hourly signatures drawn from 4 distinct load plateaus (the Fig. 5 setup).
        let sigs = signatures_for(&[0.2, 0.45, 0.55, 0.95], 6, 1);
        let outcome = WorkloadClusterer::new((2, 8), 1).cluster(&sigs).unwrap();
        // The two middle plateaus are close; a small number of classes (3–5)
        // is the expected outcome — far fewer than the 24 hourly workloads.
        assert!(
            (3..=5).contains(&outcome.num_classes()),
            "classes {}",
            outcome.num_classes()
        );
        assert_eq!(outcome.assignments.len(), sigs.len());
        assert_eq!(outcome.medoids.len(), outcome.num_classes());
        assert!(outcome.min_centroid_distance > 0.0);
        assert_eq!(outcome.radii.len(), outcome.num_classes());
        for c in 0..outcome.num_classes() {
            assert!(outcome.cluster_scale(c) > 0.0);
        }
    }

    #[test]
    fn medoids_belong_to_their_cluster() {
        let sigs = signatures_for(&[0.3, 0.8], 10, 2);
        let outcome = WorkloadClusterer::new((2, 4), 2).cluster(&sigs).unwrap();
        for (c, &m) in outcome.medoids.iter().enumerate() {
            assert_eq!(outcome.assignments[m], c);
        }
    }

    #[test]
    fn assignment_of_new_signatures_matches_training_plateaus() {
        let sigs = signatures_for(&[0.25, 0.85], 10, 3);
        let outcome = WorkloadClusterer::new((2, 4), 3).cluster(&sigs).unwrap();
        let fresh = signatures_for(&[0.25], 1, 99);
        let (class, dist) = outcome.assign(&fresh[0]);
        assert_eq!(class, outcome.assignments[0]);
        assert!(dist < outcome.min_centroid_distance);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(
            WorkloadClusterer::new((2, 4), 1).cluster(&[]),
            Err(DejaVuError::NoTrainingData)
        ));
    }
}
