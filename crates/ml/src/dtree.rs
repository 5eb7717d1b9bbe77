//! A C4.5-style decision tree over continuous attributes.
//!
//! This plays the role of WEKA's `J48` in the paper: it is trained on workload
//! signatures labeled with their cluster id and used at runtime to classify a
//! fresh signature, reporting both the class and a confidence ("certainty
//! level") derived from the class distribution at the reached leaf.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::Classifier;

/// Configuration of the tree induction.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeConfig {
    /// Maximum depth of the tree (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of instances required to attempt a split.
    pub min_split: usize,
    /// Minimum information-gain ratio for a split to be accepted.
    pub min_gain: f64,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 12,
            min_split: 2,
            min_gain: 1e-6,
        }
    }
}

/// Internal tree node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Class counts observed at this leaf during training.
        counts: Vec<usize>,
    },
    Split {
        attribute: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained C4.5-style decision tree.
///
/// # Example
///
/// ```
/// use dejavu_ml::dataset::Dataset;
/// use dejavu_ml::dtree::{DecisionTree, DecisionTreeConfig};
/// use dejavu_ml::Classifier;
///
/// let mut d = Dataset::new(vec!["load".into()]);
/// for i in 0..20 {
///     d.push_labeled(vec![i as f64], if i < 10 { 0 } else { 1 });
/// }
/// let tree = DecisionTree::fit(&d, &DecisionTreeConfig::default())?;
/// assert_eq!(tree.predict(&[3.0]), 0);
/// assert_eq!(tree.predict(&[17.0]), 1);
/// # Ok::<(), dejavu_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    num_classes: usize,
    num_attributes: usize,
}

fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

fn class_counts(labels: &[usize], num_classes: usize, indices: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; num_classes];
    for &i in indices {
        counts[labels[i]] += 1;
    }
    counts
}

impl DecisionTree {
    /// Trains a tree on a fully labeled dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset and
    /// [`MlError::MissingLabels`] if any instance is unlabeled.
    pub fn fit(data: &Dataset, config: &DecisionTreeConfig) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let labels = data.labels()?;
        let num_classes = data.num_classes();
        let features: Vec<&[f64]> = data
            .instances()
            .iter()
            .map(|i| i.features.as_slice())
            .collect();
        let indices: Vec<usize> = (0..data.len()).collect();
        let root = Self::build(&features, &labels, num_classes, &indices, config, 0);
        Ok(DecisionTree {
            root,
            num_classes,
            num_attributes: data.num_attributes(),
        })
    }

    fn build(
        features: &[&[f64]],
        labels: &[usize],
        num_classes: usize,
        indices: &[usize],
        config: &DecisionTreeConfig,
        depth: usize,
    ) -> Node {
        let counts = class_counts(labels, num_classes, indices);
        let node_entropy = entropy(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= config.max_depth || indices.len() < config.min_split {
            return Node::Leaf { counts };
        }
        // Find the best (attribute, threshold) by gain ratio.
        let mut best: Option<(usize, f64, f64)> = None; // (attr, threshold, gain_ratio)
        let num_attrs = features[0].len();
        #[allow(clippy::needless_range_loop)]
        for attr in 0..num_attrs {
            let mut values: Vec<(f64, usize)> = indices
                .iter()
                .map(|&i| (features[i][attr], labels[i]))
                .collect();
            values.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            // Candidate thresholds: midpoints between distinct consecutive values.
            let mut left_counts = vec![0usize; num_classes];
            let mut right_counts = counts.clone();
            let total = indices.len() as f64;
            for w in 0..values.len().saturating_sub(1) {
                let (v, label) = values[w];
                left_counts[label] += 1;
                right_counts[label] -= 1;
                let next_v = values[w + 1].0;
                if next_v <= v {
                    continue;
                }
                let threshold = (v + next_v) / 2.0;
                let n_left = (w + 1) as f64;
                let n_right = total - n_left;
                let cond_entropy = (n_left / total) * entropy(&left_counts)
                    + (n_right / total) * entropy(&right_counts);
                let gain = node_entropy - cond_entropy;
                // Split information (penalizes fragmenting splits), as in C4.5.
                let split_info = {
                    let pl = n_left / total;
                    let pr = n_right / total;
                    -(pl * pl.log2() + pr * pr.log2())
                };
                let gain_ratio = if split_info > 0.0 {
                    gain / split_info
                } else {
                    0.0
                };
                if best
                    .map(|(_, _, g)| gain_ratio > g)
                    .unwrap_or(gain_ratio > config.min_gain)
                {
                    best = Some((attr, threshold, gain_ratio));
                }
            }
        }
        let Some((attr, threshold, gain_ratio)) = best else {
            return Node::Leaf { counts };
        };
        if gain_ratio <= config.min_gain {
            return Node::Leaf { counts };
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| features[i][attr] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return Node::Leaf { counts };
        }
        let left = Self::build(features, labels, num_classes, &left_idx, config, depth + 1);
        let right = Self::build(features, labels, num_classes, &right_idx, config, depth + 1);
        // Pessimistic collapse: if both children predict the same class, merge.
        if let (Node::Leaf { counts: lc }, Node::Leaf { counts: rc }) = (&left, &right) {
            let lmaj = lc
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i);
            let rmaj = rc
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i);
            if lmaj == rmaj {
                return Node::Leaf { counts };
            }
        }
        Node::Split {
            attribute: attr,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Number of attributes the tree was trained on.
    pub fn num_attributes(&self) -> usize {
        self.num_attributes
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    fn leaf_for(&self, features: &[f64]) -> &Node {
        assert_eq!(
            features.len(),
            self.num_attributes,
            "feature vector has wrong dimensionality"
        );
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { .. } => return node,
                Node::Split {
                    attribute,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*attribute] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
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

impl Classifier for DecisionTree {
    fn predict_with_confidence(&self, features: &[f64]) -> (usize, f64) {
        match self.leaf_for(features) {
            Node::Leaf { counts } => {
                let total: usize = counts.iter().sum();
                let (class, &count) = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .unwrap_or((0, &0));
                // Laplace-smoothed confidence, as J48 reports for leaves.
                let confidence = if total == 0 {
                    0.0
                } else {
                    (count as f64 + 1.0) / (total as f64 + self.num_classes.max(1) as f64)
                };
                (class, confidence)
            }
            Node::Split { .. } => unreachable!("leaf_for always returns a leaf"),
        }
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_simcore::SimRng;

    fn labeled_blobs(centers: &[(f64, f64)], per: usize, spread: f64, seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..per {
                d.push_labeled(vec![rng.normal(cx, spread), rng.normal(cy, spread)], label);
            }
        }
        d
    }

    #[test]
    fn perfectly_separable_data_is_learned_exactly() {
        let d = labeled_blobs(&[(0.0, 0.0), (100.0, 100.0), (0.0, 100.0)], 20, 1.0, 1);
        let tree = DecisionTree::fit(&d, &DecisionTreeConfig::default()).unwrap();
        assert!((tree.accuracy(&d).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(tree.num_classes(), 3);
    }

    #[test]
    fn confidence_is_high_on_pure_leaves_and_bounded() {
        let d = labeled_blobs(&[(0.0, 0.0), (50.0, 50.0)], 30, 0.5, 2);
        let tree = DecisionTree::fit(&d, &DecisionTreeConfig::default()).unwrap();
        let (class, conf) = tree.predict_with_confidence(&[0.0, 0.0]);
        assert_eq!(class, 0);
        assert!(conf > 0.9 && conf <= 1.0);
        let (_, conf2) = tree.predict_with_confidence(&[50.0, 50.0]);
        assert!(conf2 > 0.9 && conf2 <= 1.0);
    }

    #[test]
    fn noisy_overlapping_data_yields_lower_confidence() {
        // Two heavily overlapping classes: confidence near the boundary should
        // be lower than in the clean case.
        let d = labeled_blobs(&[(0.0, 0.0), (1.0, 1.0)], 50, 2.0, 3);
        let tree = DecisionTree::fit(
            &d,
            &DecisionTreeConfig {
                max_depth: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let (_, conf) = tree.predict_with_confidence(&[0.5, 0.5]);
        assert!(conf < 0.95);
    }

    #[test]
    fn rejects_empty_and_unlabeled() {
        let empty = Dataset::new(vec!["x".into()]);
        assert!(matches!(
            DecisionTree::fit(&empty, &DecisionTreeConfig::default()),
            Err(MlError::EmptyDataset)
        ));
        let mut unlabeled = Dataset::new(vec!["x".into()]);
        unlabeled.push_unlabeled(vec![1.0]);
        assert!(matches!(
            DecisionTree::fit(&unlabeled, &DecisionTreeConfig::default()),
            Err(MlError::MissingLabels)
        ));
    }

    #[test]
    fn respects_max_depth() {
        let d = labeled_blobs(
            &[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0), (15.0, 0.0)],
            10,
            0.3,
            4,
        );
        let tree = DecisionTree::fit(
            &d,
            &DecisionTreeConfig {
                max_depth: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn single_class_dataset_gives_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push_labeled(vec![i as f64], 0);
        }
        let tree = DecisionTree::fit(&d, &DecisionTreeConfig::default()).unwrap();
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[100.0]), 0);
    }

    #[test]
    #[should_panic]
    fn wrong_dimensionality_panics() {
        let d = labeled_blobs(&[(0.0, 0.0), (5.0, 5.0)], 5, 0.1, 5);
        let tree = DecisionTree::fit(&d, &DecisionTreeConfig::default()).unwrap();
        let _ = tree.predict(&[1.0]);
    }

    #[test]
    fn one_dimensional_threshold_is_sensible() {
        let mut d = Dataset::new(vec!["volume".into()]);
        for i in 0..50 {
            d.push_labeled(vec![i as f64], usize::from(i >= 25));
        }
        let tree = DecisionTree::fit(&d, &DecisionTreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[10.0]), 0);
        assert_eq!(tree.predict(&[40.0]), 1);
        assert_eq!(tree.predict(&[24.0]), 0);
        assert_eq!(tree.predict(&[25.0]), 1);
    }
}
