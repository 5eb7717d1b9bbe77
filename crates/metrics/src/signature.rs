//! The workload signature: an ordered tuple of named metric values, normalized
//! by the sampling duration (§3.3, equation (1) of the paper).

use dejavu_simcore::SimDuration;
use std::fmt;
use std::sync::Arc;

/// A workload signature `WS = {m_1, m_2, ..., m_N}`.
///
/// Raw counter values accumulated over a sampling window are divided by the
/// window length, so signatures are comparable regardless of how long the
/// profiler sampled — the normalization the paper calls out as what lets
/// signatures "generalize across workloads regardless of how long the sampling
/// takes".
///
/// # Example
///
/// ```
/// use dejavu_metrics::WorkloadSignature;
/// use dejavu_simcore::SimDuration;
///
/// let a = WorkloadSignature::from_raw(
///     vec!["flops".into(), "cpu".into()],
///     vec![1000.0, 50.0],
///     SimDuration::from_secs(10.0),
/// );
/// let b = WorkloadSignature::from_raw(
///     vec!["flops".into(), "cpu".into()],
///     vec![2000.0, 100.0],
///     SimDuration::from_secs(20.0),
/// );
/// // Same workload observed for twice as long: identical normalized signatures.
/// assert!(a.distance(&b) < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSignature {
    /// Metric names, shared between signatures: every signature the sampler
    /// or a projection produces carries the same name list, so cloning a
    /// signature (the profiling hot path does, fleet-wide and hourly) bumps
    /// a reference count instead of copying one `String` per metric.
    names: Arc<[String]>,
    /// Normalized (per-second) metric values.
    values: Vec<f64>,
    /// The sampling window the raw values were accumulated over.
    sampling: SimDuration,
}

impl WorkloadSignature {
    /// Builds a signature from raw accumulated counter values and the sampling
    /// duration; values are normalized to per-second rates.
    ///
    /// # Panics
    ///
    /// Panics if `names` and `raw_values` have different lengths or the
    /// duration is zero.
    pub fn from_raw(names: Vec<String>, raw_values: Vec<f64>, sampling: SimDuration) -> Self {
        Self::from_raw_shared(names.into(), raw_values, sampling)
    }

    /// [`from_raw`](Self::from_raw) over an already-shared name list — the
    /// samplers cache one `Arc` per catalogue, so per-signature allocation is
    /// just the value vector.
    pub fn from_raw_shared(
        names: Arc<[String]>,
        raw_values: Vec<f64>,
        sampling: SimDuration,
    ) -> Self {
        assert_eq!(names.len(), raw_values.len(), "one value per metric name");
        assert!(!sampling.is_zero(), "sampling duration must be positive");
        let secs = sampling.as_secs();
        WorkloadSignature {
            names,
            values: raw_values.into_iter().map(|v| v / secs).collect(),
            sampling,
        }
    }

    /// Builds a signature directly from already-normalized per-second values.
    ///
    /// # Panics
    ///
    /// Panics if `names` and `values` have different lengths.
    pub fn from_normalized(names: Vec<String>, values: Vec<f64>, sampling: SimDuration) -> Self {
        Self::from_normalized_shared(names.into(), values, sampling)
    }

    /// [`from_normalized`](Self::from_normalized) over an already-shared name
    /// list.
    pub fn from_normalized_shared(
        names: Arc<[String]>,
        values: Vec<f64>,
        sampling: SimDuration,
    ) -> Self {
        assert_eq!(names.len(), values.len(), "one value per metric name");
        WorkloadSignature {
            names,
            values,
            sampling,
        }
    }

    /// The shared name list (for building further signatures over the same
    /// metrics without re-allocating names).
    pub fn shared_names(&self) -> Arc<[String]> {
        Arc::clone(&self.names)
    }

    /// Metric names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Normalized metric values, in the same order as [`names`](Self::names).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of metrics in the signature.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if the signature carries no metrics.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sampling window used to collect the signature.
    pub fn sampling(&self) -> SimDuration {
        self.sampling
    }

    /// Returns a signature containing only the metrics at `indices`
    /// (in the given order) — used after feature selection.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn project(&self, indices: &[usize]) -> WorkloadSignature {
        let names: Arc<[String]> = indices.iter().map(|&i| self.names[i].clone()).collect();
        self.project_shared(indices, names)
    }

    /// [`project`](Self::project) with a pre-built projected name list (one
    /// `Arc` per feature selection, not one allocation per projection).
    pub fn project_shared(&self, indices: &[usize], names: Arc<[String]>) -> WorkloadSignature {
        let values = indices.iter().map(|&i| self.values[i]).collect();
        WorkloadSignature {
            names,
            values,
            sampling: self.sampling,
        }
    }

    /// Euclidean distance between two signatures over the same metric set.
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different lengths.
    pub fn distance(&self, other: &WorkloadSignature) -> f64 {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "signatures must cover the same metrics"
        );
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl fmt::Display for WorkloadSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WS{{")?;
        for (i, (n, v)) in self.names.iter().zip(&self.values).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v:.2}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(values: Vec<f64>, secs: f64) -> WorkloadSignature {
        let names = (0..values.len()).map(|i| format!("m{i}")).collect();
        WorkloadSignature::from_raw(names, values, SimDuration::from_secs(secs))
    }

    #[test]
    fn normalization_by_duration() {
        let s = sig(vec![100.0, 50.0], 10.0);
        assert_eq!(s.values(), &[10.0, 5.0]);
        assert_eq!(s.sampling(), SimDuration::from_secs(10.0));
    }

    #[test]
    fn sampling_duration_invariance() {
        let short = sig(vec![100.0, 50.0], 10.0);
        let long = sig(vec![1000.0, 500.0], 100.0);
        assert!(short.distance(&long) < 1e-12);
    }

    #[test]
    fn lookup_and_projection() {
        let s = WorkloadSignature::from_raw(
            vec!["a".into(), "b".into(), "c".into()],
            vec![10.0, 20.0, 30.0],
            SimDuration::from_secs(1.0),
        );
        let p = s.project(&[2, 0]);
        assert_eq!(p.names(), &["c".to_string(), "a".to_string()]);
        assert_eq!(p.values(), &[30.0, 10.0]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = sig(vec![0.0, 0.0], 1.0);
        let b = sig(vec![3.0, 4.0], 1.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = WorkloadSignature::from_raw(
            vec!["a".into()],
            vec![1.0, 2.0],
            SimDuration::from_secs(1.0),
        );
    }

    #[test]
    #[should_panic]
    fn zero_duration_panics() {
        let _ = sig(vec![1.0], 0.0);
    }

    #[test]
    fn display_contains_names_and_values() {
        let s = sig(vec![4.0], 2.0);
        let text = s.to_string();
        assert!(text.contains("m0"));
        assert!(text.contains("2.00"));
    }
}
