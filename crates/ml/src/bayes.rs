//! Gaussian naive Bayes classifier.
//!
//! The paper reports that "both Bayesian models and decision trees work well"
//! for classifying workload signatures; this implementation backs the
//! classifier-family ablation (ABL-CLF in `DESIGN.md`).

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::Classifier;

/// Per-class Gaussian model of each attribute.
#[derive(Debug, Clone, PartialEq)]
struct ClassModel {
    prior: f64,
    means: Vec<f64>,
    variances: Vec<f64>,
    count: usize,
}

/// A Gaussian naive Bayes classifier.
///
/// # Example
///
/// ```
/// use dejavu_ml::dataset::Dataset;
/// use dejavu_ml::bayes::NaiveBayes;
/// use dejavu_ml::Classifier;
///
/// let mut d = Dataset::new(vec!["m".into()]);
/// for i in 0..10 { d.push_labeled(vec![i as f64], 0); }
/// for i in 0..10 { d.push_labeled(vec![100.0 + i as f64], 1); }
/// let nb = NaiveBayes::fit(&d)?;
/// assert_eq!(nb.predict(&[3.0]), 0);
/// assert_eq!(nb.predict(&[105.0]), 1);
/// # Ok::<(), dejavu_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayes {
    classes: Vec<ClassModel>,
    num_attributes: usize,
}

/// Variance floor to keep likelihoods finite for constant attributes.
const VARIANCE_FLOOR: f64 = 1e-9;

impl NaiveBayes {
    /// Trains the classifier on a fully labeled dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset and
    /// [`MlError::MissingLabels`] if any instance is unlabeled.
    pub fn fit(data: &Dataset) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let labels = data.labels()?;
        let num_classes = data.num_classes();
        let num_attributes = data.num_attributes();
        let total = data.len() as f64;
        let mut classes = Vec::with_capacity(num_classes);
        for c in 0..num_classes {
            let members: Vec<&[f64]> = data
                .instances()
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| l == c)
                .map(|(inst, _)| inst.features.as_slice())
                .collect();
            let count = members.len();
            let mut means = vec![0.0; num_attributes];
            let mut variances = vec![VARIANCE_FLOOR; num_attributes];
            if count > 0 {
                for a in 0..num_attributes {
                    let mean = members.iter().map(|m| m[a]).sum::<f64>() / count as f64;
                    let var =
                        members.iter().map(|m| (m[a] - mean).powi(2)).sum::<f64>() / count as f64;
                    means[a] = mean;
                    variances[a] = var.max(VARIANCE_FLOOR);
                }
            }
            classes.push(ClassModel {
                // Laplace-smoothed prior so empty classes never have zero mass.
                prior: (count as f64 + 1.0) / (total + num_classes as f64),
                means,
                variances,
                count,
            });
        }
        Ok(NaiveBayes {
            classes,
            num_attributes,
        })
    }

    fn log_likelihood(&self, model: &ClassModel, features: &[f64]) -> f64 {
        let mut ll = model.prior.ln();
        for (a, &x) in features.iter().enumerate().take(self.num_attributes) {
            let var = model.variances[a];
            let diff = x - model.means[a];
            ll += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var);
        }
        ll
    }

    /// Per-class posterior probabilities for `features` (they sum to 1).
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality.
    pub fn posteriors(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(
            features.len(),
            self.num_attributes,
            "feature vector has wrong dimensionality"
        );
        let lls: Vec<f64> = self
            .classes
            .iter()
            .map(|m| self.log_likelihood(m, features))
            .collect();
        let max = lls.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = lls.iter().map(|&l| (l - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Training accuracy on a labeled dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::MissingLabels`] if the dataset is not fully labeled.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let labels = data.labels()?;
        let correct = data
            .instances()
            .iter()
            .zip(&labels)
            .filter(|(inst, &l)| self.predict(&inst.features) == l)
            .count();
        Ok(correct as f64 / data.len() as f64)
    }
}

impl Classifier for NaiveBayes {
    fn predict_with_confidence(&self, features: &[f64]) -> (usize, f64) {
        let post = self.posteriors(features);
        post.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, &p)| (i, p))
            .unwrap_or((0, 0.0))
    }

    fn num_classes(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_simcore::SimRng;

    fn labeled_blobs(centers: &[f64], per: usize, spread: f64, seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["m1".into(), "m2".into()]);
        for (label, &c) in centers.iter().enumerate() {
            for _ in 0..per {
                d.push_labeled(vec![rng.normal(c, spread), rng.normal(-c, spread)], label);
            }
        }
        d
    }

    #[test]
    fn separable_classes_are_classified() {
        let d = labeled_blobs(&[0.0, 50.0, 100.0], 30, 1.0, 1);
        let nb = NaiveBayes::fit(&d).unwrap();
        assert!(nb.accuracy(&d).unwrap() > 0.99);
        assert_eq!(nb.num_classes(), 3);
    }

    #[test]
    fn posteriors_sum_to_one_and_reflect_distance() {
        let d = labeled_blobs(&[0.0, 2.0], 50, 1.0, 2);
        let nb = NaiveBayes::fit(&d).unwrap();
        let p = nb.posteriors(&[0.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.6);
        let mid = nb.posteriors(&[1.0, -1.0]);
        assert!(
            mid[0] < 0.9 && mid[1] < 0.9,
            "ambiguous point should be uncertain"
        );
    }

    #[test]
    fn constant_attribute_does_not_blow_up() {
        let mut d = Dataset::new(vec!["const".into(), "varies".into()]);
        for i in 0..10 {
            d.push_labeled(vec![1.0, i as f64], usize::from(i >= 5));
        }
        let nb = NaiveBayes::fit(&d).unwrap();
        let p = nb.posteriors(&[1.0, 9.0]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert_eq!(nb.predict(&[1.0, 9.0]), 1);
    }

    #[test]
    fn rejects_empty_and_unlabeled() {
        let empty = Dataset::new(vec!["x".into()]);
        assert!(matches!(
            NaiveBayes::fit(&empty),
            Err(MlError::EmptyDataset)
        ));
        let mut unl = Dataset::new(vec!["x".into()]);
        unl.push_unlabeled(vec![1.0]);
        assert!(matches!(NaiveBayes::fit(&unl), Err(MlError::MissingLabels)));
    }

    #[test]
    fn confidence_is_probability() {
        let d = labeled_blobs(&[0.0, 30.0], 25, 0.5, 3);
        let nb = NaiveBayes::fit(&d).unwrap();
        let (_, conf) = nb.predict_with_confidence(&[0.0, 0.0]);
        assert!((0.0..=1.0).contains(&conf));
        assert!(conf > 0.95);
    }
}
