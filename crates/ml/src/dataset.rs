//! Numeric datasets with named attributes and optional class labels.

use crate::error::MlError;

/// A single observation: a feature vector plus an optional class label.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Feature values, one per dataset attribute.
    pub features: Vec<f64>,
    /// Class label (cluster id / workload class), if known.
    pub label: Option<usize>,
}

impl Instance {
    /// Creates a labeled instance.
    pub fn labeled(features: Vec<f64>, label: usize) -> Self {
        Instance {
            features,
            label: Some(label),
        }
    }

    /// Creates an unlabeled instance.
    pub fn unlabeled(features: Vec<f64>) -> Self {
        Instance {
            features,
            label: None,
        }
    }
}

/// A collection of [`Instance`]s sharing the same attribute schema.
///
/// # Example
///
/// ```
/// use dejavu_ml::dataset::Dataset;
/// let mut d = Dataset::new(vec!["cpu".into(), "flops".into()]);
/// d.push_labeled(vec![0.5, 100.0], 0);
/// d.push_labeled(vec![0.9, 800.0], 1);
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.num_attributes(), 2);
/// assert_eq!(d.num_classes(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    attribute_names: Vec<String>,
    instances: Vec<Instance>,
}

impl Dataset {
    /// Creates an empty dataset with the given attribute names.
    pub fn new(attribute_names: Vec<String>) -> Self {
        Dataset {
            attribute_names,
            instances: Vec::new(),
        }
    }

    /// Attribute (feature) names.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// Number of attributes per instance.
    pub fn num_attributes(&self) -> usize {
        self.attribute_names.len()
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns true if the dataset has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instances, in insertion order.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Adds an instance, validating its dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the feature count does not
    /// match the attribute schema.
    pub fn try_push(&mut self, instance: Instance) -> Result<(), MlError> {
        if instance.features.len() != self.num_attributes() {
            return Err(MlError::DimensionMismatch {
                expected: self.num_attributes(),
                found: instance.features.len(),
            });
        }
        self.instances.push(instance);
        Ok(())
    }

    /// Adds a labeled instance.
    ///
    /// # Panics
    ///
    /// Panics if the feature count does not match the attribute schema.
    pub fn push_labeled(&mut self, features: Vec<f64>, label: usize) {
        self.try_push(Instance::labeled(features, label))
            .expect("feature count must match the dataset schema");
    }

    /// Adds an unlabeled instance.
    ///
    /// # Panics
    ///
    /// Panics if the feature count does not match the attribute schema.
    pub fn push_unlabeled(&mut self, features: Vec<f64>) {
        self.try_push(Instance::unlabeled(features))
            .expect("feature count must match the dataset schema");
    }

    /// Number of distinct class labels (`max label + 1`), or 0 if unlabeled.
    pub fn num_classes(&self) -> usize {
        self.instances
            .iter()
            .filter_map(|i| i.label)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// The values of attribute `attr` across all instances.
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range.
    pub fn column(&self, attr: usize) -> Vec<f64> {
        assert!(attr < self.num_attributes(), "attribute index out of range");
        self.instances.iter().map(|i| i.features[attr]).collect()
    }

    /// The labels of all instances.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::MissingLabels`] if any instance is unlabeled.
    pub fn labels(&self) -> Result<Vec<usize>, MlError> {
        self.instances
            .iter()
            .map(|i| i.label.ok_or(MlError::MissingLabels))
            .collect()
    }

    /// Builds a new dataset containing only the attributes at `indices`
    /// (in the given order). Labels are preserved.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn project(&self, indices: &[usize]) -> Dataset {
        for &i in indices {
            assert!(i < self.num_attributes(), "attribute index out of range");
        }
        let names = indices
            .iter()
            .map(|&i| self.attribute_names[i].clone())
            .collect();
        let mut out = Dataset::new(names);
        for inst in &self.instances {
            let feats = indices.iter().map(|&i| inst.features[i]).collect();
            out.instances.push(Instance {
                features: feats,
                label: inst.label,
            });
        }
        out
    }

    /// Splits into (train, test) with the first `train_fraction` of a
    /// deterministic interleaving going to train. `train_fraction` is clamped
    /// to `[0, 1]`.
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        let f = train_fraction.clamp(0.0, 1.0);
        let n_train = (self.len() as f64 * f).round() as usize;
        let mut train = Dataset::new(self.attribute_names.clone());
        let mut test = Dataset::new(self.attribute_names.clone());
        // Interleave by stride so both halves see all classes of a sorted dataset.
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| (i * 7919) % self.len().max(1));
        for (rank, &idx) in order.iter().enumerate() {
            if rank < n_train {
                train.instances.push(self.instances[idx].clone());
            } else {
                test.instances.push(self.instances[idx].clone());
            }
        }
        (train, test)
    }

    /// Per-attribute (mean, standard deviation). Attributes with zero variance
    /// report a standard deviation of 1.0 so normalization is always safe.
    pub fn attribute_moments(&self) -> Vec<(f64, f64)> {
        let n = self.len().max(1) as f64;
        (0..self.num_attributes())
            .map(|a| {
                let col = self.column(a);
                let mean = col.iter().sum::<f64>() / n;
                let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                let std = if var > 0.0 { var.sqrt() } else { 1.0 };
                (mean, std)
            })
            .collect()
    }

    /// Returns a z-score-normalized copy of the dataset together with the
    /// moments used, so unseen instances can be normalized identically.
    pub fn normalized(&self) -> (Dataset, Vec<(f64, f64)>) {
        let moments = self.attribute_moments();
        let mut out = Dataset::new(self.attribute_names.clone());
        for inst in &self.instances {
            let feats = inst
                .features
                .iter()
                .zip(&moments)
                .map(|(x, (m, s))| (x - m) / s)
                .collect();
            out.instances.push(Instance {
                features: feats,
                label: inst.label,
            });
        }
        (out, moments)
    }

    /// Normalizes a single feature vector with previously computed `moments`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn normalize_with(features: &[f64], moments: &[(f64, f64)]) -> Vec<f64> {
        assert_eq!(features.len(), moments.len(), "moment length mismatch");
        features
            .iter()
            .zip(moments)
            .map(|(x, (m, s))| (x - m) / s)
            .collect()
    }

    /// Allocation-free [`normalize_with`](Self::normalize_with): writes the
    /// normalized vector into `out` (callers keep a reusable or stack
    /// buffer for their hot paths).
    ///
    /// # Panics
    ///
    /// Panics if the three lengths differ.
    pub fn normalize_with_into(features: &[f64], moments: &[(f64, f64)], out: &mut [f64]) {
        assert_eq!(features.len(), moments.len(), "moment length mismatch");
        assert_eq!(features.len(), out.len(), "output length mismatch");
        for ((o, x), (m, s)) in out.iter_mut().zip(features).zip(moments) {
            *o = (x - m) / s;
        }
    }
}

impl FromIterator<Instance> for Dataset {
    fn from_iter<T: IntoIterator<Item = Instance>>(iter: T) -> Self {
        let instances: Vec<Instance> = iter.into_iter().collect();
        let width = instances.first().map(|i| i.features.len()).unwrap_or(0);
        let names = (0..width).map(|i| format!("attr{i}")).collect();
        let mut d = Dataset::new(names);
        for i in instances {
            d.try_push(i).expect("uniform instance width");
        }
        d
    }
}

impl Extend<Instance> for Dataset {
    fn extend<T: IntoIterator<Item = Instance>>(&mut self, iter: T) {
        for i in iter {
            self.try_push(i).expect("uniform instance width");
        }
    }
}

/// Squared Euclidean distance between two equally sized vectors.
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equally sized vectors.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        d.push_labeled(vec![1.0, 2.0], 0);
        d.push_labeled(vec![3.0, 4.0], 1);
        d.push_labeled(vec![5.0, 6.0], 1);
        d
    }

    #[test]
    fn push_and_query() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.num_attributes(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.column(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(d.labels().unwrap(), vec![0, 1, 1]);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut d = Dataset::new(vec!["a".into()]);
        let err = d.try_push(Instance::unlabeled(vec![1.0, 2.0])).unwrap_err();
        assert_eq!(
            err,
            MlError::DimensionMismatch {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn unlabeled_dataset_has_no_classes() {
        let mut d = Dataset::new(vec!["a".into()]);
        d.push_unlabeled(vec![1.0]);
        assert_eq!(d.num_classes(), 0);
        assert_eq!(d.labels(), Err(MlError::MissingLabels));
    }

    #[test]
    fn projection_keeps_labels_and_order() {
        let d = sample();
        let p = d.project(&[1]);
        assert_eq!(p.num_attributes(), 1);
        assert_eq!(p.attribute_names(), &["b".to_string()]);
        assert_eq!(p.column(0), vec![2.0, 4.0, 6.0]);
        assert_eq!(p.labels().unwrap(), vec![0, 1, 1]);
    }

    #[test]
    fn split_partitions_everything() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            d.push_labeled(vec![i as f64], i % 3);
        }
        let (train, test) = d.split(0.7);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
    }

    #[test]
    fn normalization_round_trip() {
        let d = sample();
        let (norm, moments) = d.normalized();
        // Mean of each normalized column should be ~0.
        for a in 0..norm.num_attributes() {
            let col = norm.column(a);
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9);
        }
        let v = Dataset::normalize_with(&[1.0, 2.0], &moments);
        assert_eq!(v, norm.instances()[0].features);
    }

    #[test]
    fn zero_variance_attribute_is_safe() {
        let mut d = Dataset::new(vec!["const".into()]);
        d.push_unlabeled(vec![5.0]);
        d.push_unlabeled(vec![5.0]);
        let (norm, _) = d.normalized();
        assert!(norm.column(0).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn from_iterator_builds_schema() {
        let d: Dataset = vec![
            Instance::labeled(vec![1.0, 2.0, 3.0], 0),
            Instance::labeled(vec![4.0, 5.0, 6.0], 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(d.num_attributes(), 3);
        assert_eq!(d.len(), 2);
    }
}
