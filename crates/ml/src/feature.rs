//! Correlation-based feature-subset selection (CFS) with greedy stepwise
//! forward search — the role WEKA's `CfsSubsetEval` + `GreedyStepwise` play in
//! choosing the metrics that form the DejaVu workload signature (§3.3,
//! Table 1 of the paper).
//!
//! CFS scores a subset `S` of features by
//! `merit(S) = k * r_cf / sqrt(k + k*(k-1) * r_ff)` where `r_cf` is the mean
//! feature–class correlation and `r_ff` the mean feature–feature correlation:
//! subsets of features that are individually predictive but mutually
//! non-redundant score highest.

use crate::dataset::Dataset;
use crate::error::MlError;

/// The outcome of a feature-selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSelection {
    /// Indices of the selected attributes, in selection order.
    pub selected: Vec<usize>,
    /// Names of the selected attributes, in selection order.
    pub selected_names: Vec<String>,
    /// CFS merit of the final subset.
    pub merit: f64,
    /// Merit trace: merit after each greedy step.
    pub merit_trace: Vec<f64>,
}

impl FeatureSelection {
    /// Projects a dataset onto the selected attributes.
    pub fn project(&self, data: &Dataset) -> Dataset {
        data.project(&self.selected)
    }

    /// Projects a single feature vector onto the selected attributes.
    ///
    /// # Panics
    ///
    /// Panics if any selected index is out of range for `features`.
    pub fn project_vector(&self, features: &[f64]) -> Vec<f64> {
        self.selected.iter().map(|&i| features[i]).collect()
    }
}

/// Correlation-based feature selector.
#[derive(Debug, Clone, PartialEq)]
pub struct CfsSelector {
    /// Maximum number of features to select (the paper's signatures are short,
    /// bounded by the number of usable HPC registers).
    pub max_features: usize,
    /// Stop when adding the best remaining feature improves merit by less than this.
    pub min_improvement: f64,
    /// Keep selecting (even without merit improvement) until at least this many
    /// features are chosen; highly correlated counter sets would otherwise
    /// collapse to a single-metric signature that is fragile to trial noise.
    pub min_features: usize,
    /// Candidates whose absolute feature–class correlation falls below this
    /// floor are never selected: with a few dozen profiled workloads a pure
    /// noise counter can show a spurious correlation of ~0.2–0.3, and letting
    /// it into the signature would poison clustering and novelty detection.
    pub min_class_correlation: f64,
}

impl Default for CfsSelector {
    fn default() -> Self {
        CfsSelector {
            max_features: 8,
            min_improvement: 1e-4,
            min_features: 4,
            min_class_correlation: 0.5,
        }
    }
}

/// Correlation ratio (eta) between a numeric feature and a nominal class
/// label: sqrt(between-class variance / total variance), in [0, 1]. Unlike
/// Pearson correlation against integer-coded class ids, it is invariant to
/// how the class labels happen to be numbered.
fn correlation_ratio(values: &[f64], labels: &[usize]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let grand_mean = values.iter().sum::<f64>() / n;
    let num_classes = labels.iter().max().map(|m| m + 1).unwrap_or(0);
    let mut sums = vec![0.0; num_classes];
    let mut counts = vec![0usize; num_classes];
    for (&v, &l) in values.iter().zip(labels) {
        sums[l] += v;
        counts[l] += 1;
    }
    let ss_between: f64 = (0..num_classes)
        .filter(|&c| counts[c] > 0)
        .map(|c| {
            let mean = sums[c] / counts[c] as f64;
            counts[c] as f64 * (mean - grand_mean).powi(2)
        })
        .sum();
    let ss_total: f64 = values.iter().map(|v| (v - grand_mean).powi(2)).sum();
    if ss_total <= 0.0 {
        0.0
    } else {
        (ss_between / ss_total).sqrt().clamp(0.0, 1.0)
    }
}

/// Absolute Pearson correlation of every pair of columns, as a symmetric
/// `n_attrs×n_attrs` matrix with a zero diagonal; a pair involving a
/// constant column correlates 0. Each column is centred and its sum of
/// squares taken once, so a pair costs one dot product; the per-term
/// expressions `(x − m)·(y − m)` and `(x − m)²` and their summation order
/// are those of the pairwise form, so every entry is bit-identical to it.
fn feature_correlations(columns: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n_attrs = columns.len();
    let centred: Vec<Vec<f64>> = columns
        .iter()
        .map(|c| {
            let mean = c.iter().sum::<f64>() / c.len() as f64;
            c.iter().map(|x| x - mean).collect()
        })
        .collect();
    let sum_sq: Vec<f64> = centred
        .iter()
        .map(|c| c.iter().fold(0.0, |acc, d| acc + d.powi(2)))
        .collect();
    let mut feat_feat = vec![vec![0.0; n_attrs]; n_attrs];
    for a in 0..n_attrs {
        for b in (a + 1)..n_attrs {
            let (va, vb) = (sum_sq[a], sum_sq[b]);
            let r = if va <= 0.0 || vb <= 0.0 {
                0.0
            } else {
                let cov = centred[a]
                    .iter()
                    .zip(&centred[b])
                    .fold(0.0, |acc, (x, y)| acc + x * y);
                (cov / (va.sqrt() * vb.sqrt())).abs()
            };
            feat_feat[a][b] = r;
            feat_feat[b][a] = r;
        }
    }
    feat_feat
}

impl CfsSelector {
    /// Creates a selector bounded to `max_features`.
    pub fn new(max_features: usize) -> Self {
        CfsSelector {
            max_features,
            ..Default::default()
        }
    }

    /// CFS merit of a feature subset.
    fn merit(&self, feat_class: &[f64], feat_feat: &[Vec<f64>], subset: &[usize]) -> f64 {
        let k = subset.len() as f64;
        if subset.is_empty() {
            return 0.0;
        }
        let r_cf = subset.iter().map(|&i| feat_class[i]).sum::<f64>() / k;
        let mut r_ff = 0.0;
        let mut pairs = 0.0;
        for (ai, &a) in subset.iter().enumerate() {
            for &b in subset.iter().skip(ai + 1) {
                r_ff += feat_feat[a][b];
                pairs += 1.0;
            }
        }
        let r_ff = if pairs > 0.0 { r_ff / pairs } else { 0.0 };
        let denom = (k + k * (k - 1.0) * r_ff).sqrt();
        if denom <= 0.0 {
            0.0
        } else {
            k * r_cf / denom
        }
    }

    /// Runs greedy-stepwise forward selection on a fully labeled dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] if `data` is empty,
    /// [`MlError::MissingLabels`] if it is not fully labeled and
    /// [`MlError::InvalidConfig`] if `max_features` is zero.
    pub fn select(&self, data: &Dataset) -> Result<FeatureSelection, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if self.max_features == 0 {
            return Err(MlError::InvalidConfig("max_features must be > 0".into()));
        }
        let labels = data.labels()?;
        let columns: Vec<Vec<f64>> = (0..data.num_attributes()).map(|a| data.column(a)).collect();
        let feat_class: Vec<f64> = columns
            .iter()
            .map(|c| correlation_ratio(c, &labels))
            .collect();
        Ok(self.greedy(data, &feat_class, &feature_correlations(&columns)))
    }

    /// Greedy-stepwise forward search over precomputed feature–class and
    /// feature–feature correlations.
    fn greedy(
        &self,
        data: &Dataset,
        feat_class: &[f64],
        feat_feat: &[Vec<f64>],
    ) -> FeatureSelection {
        let n_attrs = feat_class.len();
        // If the correlation floor would filter out every attribute (tiny or
        // degenerate training sets), relax it so at least one metric survives.
        let strongest = feat_class.iter().copied().fold(0.0f64, f64::max);
        let floor = if strongest >= self.min_class_correlation {
            self.min_class_correlation
        } else {
            strongest
        };
        let mut selected: Vec<usize> = Vec::new();
        let mut merit_trace = Vec::new();
        let mut current_merit = 0.0;
        while selected.len() < self.max_features.min(n_attrs) {
            let mut best: Option<(usize, f64)> = None;
            for cand in 0..n_attrs {
                if selected.contains(&cand) || feat_class[cand] < floor {
                    continue;
                }
                selected.push(cand);
                let m = self.merit(feat_class, feat_feat, &selected);
                selected.pop();
                if best.map(|(_, bm)| m > bm).unwrap_or(true) {
                    best = Some((cand, m));
                }
            }
            let Some((cand, m)) = best else { break };
            if m < current_merit + self.min_improvement
                && selected.len() >= self.min_features.max(1)
            {
                break;
            }
            selected.push(cand);
            current_merit = m;
            merit_trace.push(m);
        }
        let selected_names = selected
            .iter()
            .map(|&i| data.attribute_names()[i].clone())
            .collect();
        FeatureSelection {
            selected,
            selected_names,
            merit: current_merit,
            merit_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_simcore::SimRng;

    /// Dataset where attribute 0 is perfectly predictive, attribute 1 is a
    /// noisy copy of attribute 0 (redundant), attribute 2 is pure noise and
    /// attribute 3 carries complementary information.
    fn structured(seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec![
            "predictive".into(),
            "redundant".into(),
            "noise".into(),
            "complementary".into(),
        ]);
        for i in 0..200 {
            let class = i % 4;
            let main = class as f64 * 10.0 + rng.normal(0.0, 0.5);
            let redundant = main + rng.normal(0.0, 0.5);
            let noise = rng.normal(0.0, 10.0);
            let comp = if class % 2 == 0 { 0.0 } else { 50.0 } + rng.normal(0.0, 0.5);
            d.push_labeled(vec![main, redundant, noise, comp], class);
        }
        d
    }

    #[test]
    fn selects_predictive_over_noise() {
        let d = structured(1);
        let sel = CfsSelector::default().select(&d).unwrap();
        assert!(
            sel.selected.contains(&0) || sel.selected.contains(&1),
            "a predictive attr must be selected (got {:?})",
            sel.selected
        );
        assert!(
            sel.selected.contains(&3),
            "the complementary attr must be selected"
        );
        assert!(
            !sel.selected.contains(&2),
            "noise attr must not be selected"
        );
        assert!(sel.merit > 0.0);
    }

    #[test]
    fn redundant_feature_is_deprioritized() {
        let d = structured(2);
        let sel = CfsSelector::default().select(&d).unwrap();
        // The redundant copy should not appear before the complementary attr.
        let pos = |attr: usize| sel.selected.iter().position(|&x| x == attr);
        if let (Some(red), Some(comp)) = (pos(1), pos(3)) {
            assert!(
                comp < red,
                "complementary should be picked before redundant"
            );
        }
    }

    #[test]
    fn respects_max_features() {
        let d = structured(3);
        let sel = CfsSelector::new(1).select(&d).unwrap();
        assert_eq!(sel.selected.len(), 1);
        assert_eq!(sel.selected_names.len(), 1);
    }

    #[test]
    fn projection_matches_selection() {
        let d = structured(4);
        let sel = CfsSelector::new(2).select(&d).unwrap();
        let proj = sel.project(&d);
        assert_eq!(proj.num_attributes(), sel.selected.len());
        let v = sel.project_vector(&d.instances()[0].features);
        assert_eq!(v.len(), sel.selected.len());
        assert_eq!(v, proj.instances()[0].features);
    }

    #[test]
    fn merit_trace_is_recorded_per_step_and_monotone_past_the_minimum() {
        let d = structured(5);
        let sel = CfsSelector::default().select(&d).unwrap();
        assert_eq!(sel.merit_trace.len(), sel.selected.len());
        assert!(sel.merit_trace.iter().all(|&m| m > 0.0));
        // Once the minimum signature size is reached, greedy forward selection
        // only keeps adding features while the merit does not decrease.
        let min = CfsSelector::default().min_features;
        for w in sel.merit_trace[min.saturating_sub(1).min(sel.merit_trace.len())..].windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "merit must not decrease past the minimum size"
            );
        }
    }

    #[test]
    fn errors_on_bad_input() {
        let empty = Dataset::new(vec!["x".into()]);
        assert!(matches!(
            CfsSelector::default().select(&empty),
            Err(MlError::EmptyDataset)
        ));
        let mut unl = Dataset::new(vec!["x".into()]);
        unl.push_unlabeled(vec![1.0]);
        assert!(matches!(
            CfsSelector::default().select(&unl),
            Err(MlError::MissingLabels)
        ));
        let d = structured(6);
        assert!(matches!(
            CfsSelector {
                max_features: 0,
                ..Default::default()
            }
            .select(&d),
            Err(MlError::InvalidConfig(_))
        ));
    }

    /// The pairwise Pearson correlation `select` used to compute for every
    /// attribute pair, kept as the oracle for [`feature_correlations`].
    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        if a.is_empty() {
            return 0.0;
        }
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            cov += (x - ma) * (y - mb);
            va += (x - ma).powi(2);
            vb += (y - mb).powi(2);
        }
        if va <= 0.0 || vb <= 0.0 {
            0.0
        } else {
            (cov / (va.sqrt() * vb.sqrt())).abs()
        }
    }

    #[test]
    fn centred_correlations_match_the_pairwise_form_bit_for_bit() {
        let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
            m.iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for seed in 0..16 {
            let mut rng = SimRng::seed_from_u64(seed);
            let rows = 1 + rng.uniform_usize(40);
            let attrs = 1 + rng.uniform_usize(12);
            let names = (0..attrs).map(|a| format!("m{a}")).collect();
            let mut d = Dataset::new(names);
            // Every third attribute is constant (zero variance); the rest
            // mix scales so rounding differs between columns.
            let scale: Vec<f64> = (0..attrs)
                .map(|_| 10f64.powi(rng.uniform_usize(7) as i32 - 3))
                .collect();
            for i in 0..rows {
                let features = (0..attrs)
                    .map(|a| {
                        if a % 3 == 2 {
                            0.1 * a as f64
                        } else {
                            rng.normal(1.0, 1.0) * scale[a]
                        }
                    })
                    .collect();
                d.push_labeled(features, i % 3);
            }
            let columns: Vec<Vec<f64>> = (0..attrs).map(|a| d.column(a)).collect();
            let mut oracle = vec![vec![0.0; attrs]; attrs];
            for a in 0..attrs {
                for b in (a + 1)..attrs {
                    let r = pearson(&columns[a], &columns[b]);
                    oracle[a][b] = r;
                    oracle[b][a] = r;
                }
            }
            let fast = feature_correlations(&columns);
            assert_eq!(bits(&fast), bits(&oracle), "seed {seed}");

            let selector = CfsSelector::default();
            let labels = d.labels().unwrap();
            let feat_class: Vec<f64> = columns
                .iter()
                .map(|c| correlation_ratio(c, &labels))
                .collect();
            let want = selector.greedy(&d, &feat_class, &oracle);
            let got = selector.select(&d).unwrap();
            assert_eq!(got.selected, want.selected, "seed {seed}");
            assert_eq!(got.merit.to_bits(), want.merit.to_bits(), "seed {seed}");
            let trace = |s: &FeatureSelection| -> Vec<u64> {
                s.merit_trace.iter().map(|m| m.to_bits()).collect()
            };
            assert_eq!(trace(&got), trace(&want), "seed {seed}");
        }
    }

    #[test]
    fn feature_correlation_basics() {
        let columns = [
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 4.0, 6.0, 8.0],
            vec![4.0, 3.0, 2.0, 1.0],
            vec![5.0, 5.0, 5.0, 5.0],
        ];
        let r = feature_correlations(&columns);
        assert!((r[0][1] - 1.0).abs() < 1e-12);
        assert!((r[0][2] - 1.0).abs() < 1e-12, "correlation is absolute");
        assert_eq!(r[0][3], 0.0, "a constant column correlates 0");
        assert_eq!(r[1][0], r[0][1], "symmetric");
        assert_eq!(r[2][2], 0.0, "zero diagonal");
    }
}
