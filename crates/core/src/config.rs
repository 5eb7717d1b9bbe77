//! DejaVu configuration.

use crate::classify::ClassifierKind;
use dejavu_simcore::SimDuration;

/// Configuration of the DejaVu framework.
///
/// Use [`DejaVuConfig::builder`] to customize only the knobs you care about.
#[derive(Debug, Clone, PartialEq)]
pub struct DejaVuConfig {
    /// Length of the initial learning phase in hours (the paper uses the first
    /// day of each trace).
    pub learning_hours: u64,
    /// Minimum classification certainty required to trust a cache lookup.
    pub certainty_threshold: f64,
    /// A signature whose distance to the nearest cluster centroid exceeds this
    /// multiple of that cluster's own radius is treated as an
    /// unforeseen workload (full-capacity fallback).
    pub novelty_margin: f64,
    /// How long the profiler samples metrics to build one signature — the
    /// dominant part of DejaVu's ~10 s adaptation time.
    pub signature_window: SimDuration,
    /// Maximum number of metrics kept by feature selection.
    pub max_signature_metrics: usize,
    /// Range of cluster counts the automatic class identification explores.
    pub cluster_range: (usize, usize),
    /// Which classifier family to train.
    pub classifier: ClassifierKind,
    /// How often the workload is re-profiled when nothing else triggers it.
    pub profile_interval: SimDuration,
    /// Minimum time between reactions to SLO violations (lets reconfigurations
    /// and re-partitioning settle before blaming interference).
    pub violation_cooldown: SimDuration,
    /// Number of consecutive low-certainty classifications after which DejaVu
    /// re-runs clustering and tuning.
    pub reclustering_threshold: usize,
    /// Width of an interference-index bucket in the repository key.
    pub interference_bucket_width: f64,
    /// Whether interference detection and compensation are enabled (§4.3's
    /// comparison disables this).
    pub interference_detection: bool,
    /// Deterministic seed for profiling noise and clustering restarts.
    pub seed: u64,
}

impl Default for DejaVuConfig {
    fn default() -> Self {
        DejaVuConfig {
            learning_hours: 24,
            certainty_threshold: 0.6,
            novelty_margin: 1.8,
            signature_window: SimDuration::from_secs(10.0),
            max_signature_metrics: 8,
            cluster_range: (2, 8),
            classifier: ClassifierKind::DecisionTree,
            profile_interval: SimDuration::from_hours(1.0),
            violation_cooldown: SimDuration::from_mins(15.0),
            reclustering_threshold: 6,
            interference_bucket_width: 0.25,
            interference_detection: true,
            seed: 0xDEAD_BEEF,
        }
    }
}

impl DejaVuConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> DejaVuConfigBuilder {
        DejaVuConfigBuilder {
            config: DejaVuConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.learning_hours == 0 {
            return Err("learning_hours must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.certainty_threshold) {
            return Err("certainty_threshold must be in [0, 1]".into());
        }
        if self.novelty_margin <= 0.0 {
            return Err("novelty_margin must be positive".into());
        }
        if self.max_signature_metrics == 0 {
            return Err("max_signature_metrics must be at least 1".into());
        }
        if self.cluster_range.0 == 0 || self.cluster_range.0 > self.cluster_range.1 {
            return Err("cluster_range must be a non-empty range starting at 1 or more".into());
        }
        if self.interference_bucket_width <= 0.0 {
            return Err("interference_bucket_width must be positive".into());
        }
        Ok(())
    }
}

/// Builder for [`DejaVuConfig`].
#[derive(Debug, Clone)]
pub struct DejaVuConfigBuilder {
    config: DejaVuConfig,
}

impl DejaVuConfigBuilder {
    /// Sets the learning-phase length in hours.
    pub fn learning_hours(mut self, hours: u64) -> Self {
        self.config.learning_hours = hours;
        self
    }

    /// Sets the certainty threshold for cache lookups.
    pub fn certainty_threshold(mut self, threshold: f64) -> Self {
        self.config.certainty_threshold = threshold;
        self
    }

    /// Sets the novelty margin for unforeseen-workload detection.
    pub fn novelty_margin(mut self, margin: f64) -> Self {
        self.config.novelty_margin = margin;
        self
    }

    /// Sets the signature sampling window.
    pub fn signature_window(mut self, window: SimDuration) -> Self {
        self.config.signature_window = window;
        self
    }

    /// Sets the maximum number of signature metrics kept by feature selection.
    pub fn max_signature_metrics(mut self, n: usize) -> Self {
        self.config.max_signature_metrics = n;
        self
    }

    /// Sets the range of cluster counts explored.
    pub fn cluster_range(mut self, min: usize, max: usize) -> Self {
        self.config.cluster_range = (min, max);
        self
    }

    /// Sets the classifier family.
    pub fn classifier(mut self, kind: ClassifierKind) -> Self {
        self.config.classifier = kind;
        self
    }

    /// Sets the periodic profiling interval.
    pub fn profile_interval(mut self, interval: SimDuration) -> Self {
        self.config.profile_interval = interval;
        self
    }

    /// Enables or disables interference detection.
    pub fn interference_detection(mut self, enabled: bool) -> Self {
        self.config.interference_detection = enabled;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes building.
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration is invalid; use
    /// [`DejaVuConfig::validate`] to check fallibly.
    pub fn build(self) -> DejaVuConfig {
        self.config
            .validate()
            .expect("DejaVu configuration must be valid");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(DejaVuConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_overrides_fields() {
        let c = DejaVuConfig::builder()
            .learning_hours(12)
            .certainty_threshold(0.8)
            .cluster_range(3, 5)
            .classifier(ClassifierKind::NaiveBayes)
            .interference_detection(false)
            .seed(7)
            .build();
        assert_eq!(c.learning_hours, 12);
        assert_eq!(c.certainty_threshold, 0.8);
        assert_eq!(c.cluster_range, (3, 5));
        assert_eq!(c.classifier, ClassifierKind::NaiveBayes);
        assert!(!c.interference_detection);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = DejaVuConfig {
            certainty_threshold: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DejaVuConfig {
            learning_hours: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DejaVuConfig {
            cluster_range: (5, 2),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn builder_panics_on_invalid() {
        let _ = DejaVuConfig::builder().certainty_threshold(2.0).build();
    }
}
