//! From-scratch machine learning primitives used by the DejaVu reproduction.
//!
//! The ASPLOS 2012 paper uses the WEKA toolkit as a black box:
//! `CfsSubsetEval` + `GreedyStepwise` for feature selection, `SimpleKMeans` for
//! workload-class identification, and `J48` (C4.5) / naive Bayes for online
//! classification. This crate re-implements those standard algorithms so that
//! the DejaVu pipeline can run without any external ML dependency:
//!
//! * [`dataset`] — numeric datasets with named attributes and optional labels.
//! * [`kmeans`] — k-means with k-means++ seeding and silhouette-based automatic
//!   selection of the number of clusters.
//! * [`dtree`] — a C4.5-style decision tree (gain-ratio splits on continuous
//!   attributes, pessimistic pruning, leaf-confidence estimates).
//! * [`bayes`] — Gaussian naive Bayes.
//! * [`feature`] — correlation-based feature-subset selection (CFS) with
//!   greedy forward (stepwise) search.
//! * [`kernels`] — chunked, autovectorizable distance-accumulation kernels
//!   shared by k-means and the fleet's signature-resolution hot path.
//!
//! # Example
//!
//! ```
//! use dejavu_ml::dataset::Dataset;
//! use dejavu_ml::kmeans::{KMeans, KMeansConfig};
//!
//! // Two obvious blobs.
//! let mut data = Dataset::new(vec!["x".into(), "y".into()]);
//! for i in 0..10 {
//!     data.push_unlabeled(vec![i as f64 * 0.01, 0.0]);
//!     data.push_unlabeled(vec![10.0 + i as f64 * 0.01, 5.0]);
//! }
//! let model = KMeans::fit(&data, &KMeansConfig { k: 2, ..Default::default() }, 7).unwrap();
//! assert_eq!(model.centroids().len(), 2);
//! ```

pub mod bayes;
pub mod dataset;
pub mod dtree;
pub mod error;
pub mod feature;
pub mod kernels;
pub mod kmeans;

pub use bayes::NaiveBayes;
pub use dataset::{Dataset, Instance};
pub use dtree::{DecisionTree, DecisionTreeConfig};
pub use error::MlError;
pub use feature::{CfsSelector, FeatureSelection};
pub use kmeans::{KMeans, KMeansConfig};

/// A classifier maps a feature vector to a class label with a confidence level.
///
/// Both the decision tree and naive Bayes implement this; DejaVu's repository
/// lookup only needs this interface, so the classifier family is swappable
/// (the paper notes both "Bayesian models and decision trees work well").
pub trait Classifier {
    /// Predicts a class label and a confidence in `[0, 1]` for `features`.
    fn predict_with_confidence(&self, features: &[f64]) -> (usize, f64);

    /// Predicts only the class label.
    fn predict(&self, features: &[f64]) -> usize {
        self.predict_with_confidence(features).0
    }

    /// Number of classes this classifier can emit.
    fn num_classes(&self) -> usize;
}
