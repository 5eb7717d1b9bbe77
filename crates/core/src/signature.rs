//! Signature acquisition: turning profiled metric vectors into the compact
//! workload signature used for clustering and classification (§3.3).
//!
//! During the learning phase DejaVu records the full metric catalogue for each
//! profiled workload. [`SignatureBuilder`] then runs CFS feature selection
//! (with the workload-class labels) to pick the small set of metrics that form
//! the signature, and projects any future full-catalogue signature onto that
//! set.

use dejavu_metrics::WorkloadSignature;
use dejavu_ml::{CfsSelector, Dataset, FeatureSelection, MlError};

/// Selects and applies the signature-forming metric subset.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureBuilder {
    selection: FeatureSelection,
    /// The selected metric names, shared with every projected signature so
    /// the per-profile projection allocates only the value vector.
    projected_names: std::sync::Arc<[String]>,
}

impl SignatureBuilder {
    /// Runs feature selection over labeled full-catalogue signatures.
    ///
    /// `labels[i]` is the workload class of `signatures[i]` (e.g. the k-means
    /// cluster assignment).
    ///
    /// # Errors
    ///
    /// Returns an [`MlError`] if the inputs are empty or inconsistent.
    pub fn select(
        signatures: &[WorkloadSignature],
        labels: &[usize],
        max_metrics: usize,
    ) -> Result<Self, MlError> {
        if signatures.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if signatures.len() != labels.len() {
            return Err(MlError::DimensionMismatch {
                expected: signatures.len(),
                found: labels.len(),
            });
        }
        let names = signatures[0].names().to_vec();
        let mut dataset = Dataset::new(names);
        for (sig, &label) in signatures.iter().zip(labels) {
            dataset.try_push(dejavu_ml::Instance::labeled(sig.values().to_vec(), label))?;
        }
        let selection = CfsSelector::new(max_metrics).select(&dataset)?;
        let projected_names = selection.selected_names.clone().into();
        Ok(SignatureBuilder {
            selection,
            projected_names,
        })
    }

    /// A builder that keeps every metric (used when feature selection is
    /// disabled in ablations).
    pub fn identity(signature: &WorkloadSignature) -> Self {
        let selected: Vec<usize> = (0..signature.len()).collect();
        SignatureBuilder {
            selection: FeatureSelection {
                selected_names: signature.names().to_vec(),
                selected,
                merit: 0.0,
                merit_trace: Vec::new(),
            },
            projected_names: signature.shared_names(),
        }
    }

    /// Names of the selected signature metrics, in selection order.
    pub fn metric_names(&self) -> &[String] {
        &self.selection.selected_names
    }

    /// The CFS merit of the selected subset.
    pub fn merit(&self) -> f64 {
        self.selection.merit
    }

    /// Projects a full-catalogue signature onto the selected metrics.
    pub fn project(&self, signature: &WorkloadSignature) -> WorkloadSignature {
        signature.project_shared(
            &self.selection.selected,
            std::sync::Arc::clone(&self.projected_names),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_metrics::{MetricModel, MetricSampler, SamplerConfig, WorkloadPoint};
    use dejavu_simcore::SimRng;
    use dejavu_traces::ServiceKind;

    fn profiled(
        intensities: &[f64],
        per: usize,
        seed: u64,
    ) -> (Vec<WorkloadSignature>, Vec<usize>) {
        let sampler = MetricSampler::new(MetricModel::default(), SamplerConfig::default());
        let mut rng = SimRng::seed_from_u64(seed);
        let mut sigs = Vec::new();
        let mut labels = Vec::new();
        for (label, &i) in intensities.iter().enumerate() {
            let point = WorkloadPoint::new(ServiceKind::Rubis, i, 0.8);
            for _ in 0..per {
                sigs.push(sampler.sample(&point, &mut rng));
                labels.push(label);
            }
        }
        (sigs, labels)
    }

    #[test]
    fn selects_a_small_informative_subset() {
        let (sigs, labels) = profiled(&[0.2, 0.5, 0.8], 8, 1);
        let builder = SignatureBuilder::select(&sigs, &labels, 8).unwrap();
        assert!(!builder.metric_names().is_empty());
        assert!(builder.metric_names().len() <= 8);
        assert!(builder.merit() > 0.0);
        // The deliberately uninformative counters must not be selected.
        assert!(!builder.metric_names().iter().any(|n| n == "prefetch_hits"));
        let projected = builder.project(&sigs[0]);
        assert_eq!(projected.len(), builder.metric_names().len());
    }

    #[test]
    fn identity_builder_keeps_everything() {
        let (sigs, _) = profiled(&[0.5], 1, 2);
        let builder = SignatureBuilder::identity(&sigs[0]);
        assert_eq!(builder.metric_names().len(), sigs[0].len());
        assert_eq!(builder.project(&sigs[0]).values(), sigs[0].values());
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            SignatureBuilder::select(&[], &[], 4),
            Err(MlError::EmptyDataset)
        ));
        let (sigs, _) = profiled(&[0.5], 2, 3);
        assert!(SignatureBuilder::select(&sigs, &[0], 4).is_err());
    }
}
