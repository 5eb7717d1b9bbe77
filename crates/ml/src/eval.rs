//! Model evaluation utilities: confusion matrices and k-fold cross-validation.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::Classifier;

/// A confusion matrix for a multi-class classifier.
///
/// # Example
///
/// ```
/// use dejavu_ml::eval::ConfusionMatrix;
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(1, 1);
/// cm.record(1, 0); // actual 1 predicted 0
/// assert_eq!(cm.total(), 3);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// counts[actual][predicted]
    counts: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes > 0, "confusion matrix needs at least one class");
        ConfusionMatrix {
            counts: vec![vec![0; num_classes]; num_classes],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.counts.len()
    }

    /// Records one (actual, predicted) observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        assert!(actual < self.num_classes() && predicted < self.num_classes());
        self.counts[actual][predicted] += 1;
    }

    /// Count for a specific (actual, predicted) pair.
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual][predicted]
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy (0.0 if no observations).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.num_classes()).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Recall of class `c` (0.0 if the class never occurred).
    pub fn recall(&self, c: usize) -> f64 {
        let actual: u64 = self.counts[c].iter().sum();
        if actual == 0 {
            0.0
        } else {
            self.counts[c][c] as f64 / actual as f64
        }
    }

    /// Precision of class `c` (0.0 if the class was never predicted).
    pub fn precision(&self, c: usize) -> f64 {
        let predicted: u64 = (0..self.num_classes()).map(|a| self.counts[a][c]).sum();
        if predicted == 0 {
            0.0
        } else {
            self.counts[c][c] as f64 / predicted as f64
        }
    }
}

/// Result of a cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// Accuracy per fold.
    pub fold_accuracies: Vec<f64>,
    /// Pooled confusion matrix across folds.
    pub confusion: ConfusionMatrix,
}

impl CrossValidation {
    /// Mean accuracy across folds.
    pub fn mean_accuracy(&self) -> f64 {
        if self.fold_accuracies.is_empty() {
            0.0
        } else {
            self.fold_accuracies.iter().sum::<f64>() / self.fold_accuracies.len() as f64
        }
    }

    /// Runs `k`-fold cross-validation, training with `train` on each fold.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] if `k < 2` or the dataset is smaller
    /// than `k`, [`MlError::MissingLabels`] if unlabeled, and propagates
    /// training errors from `train`.
    pub fn run<C, F>(data: &Dataset, k: usize, mut train: F) -> Result<CrossValidation, MlError>
    where
        C: Classifier,
        F: FnMut(&Dataset) -> Result<C, MlError>,
    {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if k < 2 || k > data.len() {
            return Err(MlError::InvalidConfig(format!(
                "k-fold requires 2 <= k <= n ({} instances, k = {k})",
                data.len()
            )));
        }
        let labels = data.labels()?;
        let num_classes = data.num_classes();
        let mut confusion = ConfusionMatrix::new(num_classes.max(1));
        let mut fold_accuracies = Vec::with_capacity(k);
        for fold in 0..k {
            let mut train_set = Dataset::new(data.attribute_names().to_vec());
            let mut test_idx = Vec::new();
            for (i, inst) in data.instances().iter().enumerate() {
                if i % k == fold {
                    test_idx.push(i);
                } else {
                    train_set
                        .try_push(inst.clone())
                        .expect("schema matches by construction");
                }
            }
            if train_set.is_empty() || test_idx.is_empty() {
                continue;
            }
            let model = train(&train_set)?;
            let mut correct = 0usize;
            for &i in &test_idx {
                let predicted = model.predict(&data.instances()[i].features);
                let actual = labels[i];
                if predicted < num_classes {
                    confusion.record(actual, predicted);
                }
                if predicted == actual {
                    correct += 1;
                }
            }
            fold_accuracies.push(correct as f64 / test_idx.len() as f64);
        }
        Ok(CrossValidation {
            fold_accuracies,
            confusion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtree::{DecisionTree, DecisionTreeConfig};
    use dejavu_simcore::SimRng;

    fn dataset(seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..120 {
            let class = i % 3;
            d.push_labeled(
                vec![
                    rng.normal(class as f64 * 20.0, 1.0),
                    rng.normal(class as f64 * -20.0, 1.0),
                ],
                class,
            );
        }
        d
    }

    #[test]
    fn confusion_matrix_metrics() {
        let mut cm = ConfusionMatrix::new(3);
        for _ in 0..8 {
            cm.record(0, 0);
        }
        cm.record(0, 1);
        cm.record(1, 1);
        cm.record(2, 2);
        assert_eq!(cm.total(), 11);
        assert!((cm.accuracy() - 10.0 / 11.0).abs() < 1e-12);
        assert!((cm.recall(0) - 8.0 / 9.0).abs() < 1e-12);
        assert!((cm.precision(1) - 0.5).abs() < 1e-12);
        assert_eq!(cm.count(0, 1), 1);
    }

    #[test]
    fn cross_validation_on_separable_data_is_accurate() {
        let d = dataset(1);
        let cv = CrossValidation::run(&d, 5, |train| {
            DecisionTree::fit(train, &DecisionTreeConfig::default())
        })
        .unwrap();
        assert_eq!(cv.fold_accuracies.len(), 5);
        assert!(cv.mean_accuracy() > 0.95, "accuracy {}", cv.mean_accuracy());
        assert_eq!(cv.confusion.total() as usize, d.len());
    }

    #[test]
    fn cross_validation_rejects_bad_k() {
        let d = dataset(2);
        assert!(CrossValidation::run(&d, 1, |t| DecisionTree::fit(
            t,
            &DecisionTreeConfig::default()
        ))
        .is_err());
        assert!(CrossValidation::run(&d, d.len() + 1, |t| DecisionTree::fit(
            t,
            &DecisionTreeConfig::default()
        ))
        .is_err());
    }

    #[test]
    #[should_panic]
    fn confusion_matrix_bounds_checked() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(2, 0);
    }

    #[test]
    fn empty_matrix_accuracy_is_zero() {
        let cm = ConfusionMatrix::new(4);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.recall(0), 0.0);
        assert_eq!(cm.precision(0), 0.0);
    }
}
