//! k-means clustering with k-means++ seeding and automatic selection of the
//! number of clusters (silhouette score), mirroring the role of WEKA's
//! `SimpleKMeans` in the paper's workload-class identification step.

use crate::dataset::{distance, squared_distance, Dataset};
use crate::error::MlError;
use crate::kernels;
use dejavu_simcore::SimRng;
use serde::{Deserialize, Serialize};

/// Configuration for a single k-means fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on total centroid movement.
    pub tolerance: f64,
    /// Number of random restarts; the best inertia wins.
    pub restarts: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 2,
            max_iterations: 100,
            tolerance: 1e-9,
            restarts: 4,
        }
    }
}

/// A fitted k-means model.
///
/// # Example
///
/// ```
/// use dejavu_ml::dataset::Dataset;
/// use dejavu_ml::kmeans::{KMeans, KMeansConfig};
/// let mut d = Dataset::new(vec!["x".into()]);
/// for i in 0..5 { d.push_unlabeled(vec![i as f64 * 0.1]); }
/// for i in 0..5 { d.push_unlabeled(vec![100.0 + i as f64 * 0.1]); }
/// let km = KMeans::fit(&d, &KMeansConfig { k: 2, ..Default::default() }, 1)?;
/// assert_ne!(km.assign(&[0.0]), km.assign(&[100.0]));
/// # Ok::<(), dejavu_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    centroids: CentroidSlab,
    inertia: f64,
    assignments: Vec<usize>,
    iterations_run: usize,
}

/// Fitted centroids stored as one contiguous centroid-major slab (`k×dims`)
/// instead of `k` separate heap vectors: the nearest-centroid scan walks one
/// cache-friendly allocation with no per-centroid pointer chase, and the
/// chunked distance kernels stride through it directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentroidSlab {
    dims: usize,
    data: Vec<f64>,
}

impl CentroidSlab {
    /// Number of centroids in the slab.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Dimensionality of each centroid.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The centroid at `c`, or `None` when out of range.
    pub fn get(&self, c: usize) -> Option<&[f64]> {
        let start = c.checked_mul(self.dims)?;
        self.data.get(start..start + self.dims)
    }

    /// Iterates the centroids in index order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dims)
    }
}

impl std::ops::Index<usize> for CentroidSlab {
    type Output = [f64];

    fn index(&self, c: usize) -> &[f64] {
        &self.data[c * self.dims..(c + 1) * self.dims]
    }
}

impl<'a> IntoIterator for &'a CentroidSlab {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Reusable buffers for one [`KMeans::fit`] or [`KMeans::fit_auto_k`] call:
/// every restart of every candidate `k` runs over the same scratch, so the
/// per-restart cost is arithmetic, not allocator traffic.
struct FitScratch {
    /// Largest `k` the seeds cover.
    k_max: usize,
    /// k-means++ seeding of every restart up to `k_max` centroids,
    /// restart-major (`restarts×k_max×dims`); a fit with `k` clusters starts
    /// from the first `k` centroids of each restart's block.
    seeds: Vec<f64>,
    /// Flat `k×dims` centroid slab of the current restart.
    centroids: Vec<f64>,
    /// Flat `k×dims` accumulation slab for the Lloyd update step.
    next: Vec<f64>,
    counts: Vec<usize>,
    assignments: Vec<usize>,
    /// Centroids and assignments of the best restart so far.
    best_centroids: Vec<f64>,
    best_assignments: Vec<usize>,
    /// `k×n` buffer of every centroid-to-point squared distance of one
    /// assignment step, computed centroid-by-centroid in point-parallel
    /// lanes.
    dist_all: Vec<f64>,
    /// Dimension-major (`dims×n`) copy of the data points (k-means++ lanes).
    points_t: Vec<f64>,
    /// Per-point distance buffer of one seeding round.
    dist: Vec<f64>,
    /// k-means++ running minimum distances.
    weights: Vec<f64>,
}

impl FitScratch {
    /// Scratch for fits of up to `k_max` clusters over `points`, with every
    /// restart's k-means++ seeding already drawn. Restart `r` draws from its
    /// own RNG seeded `seed ^ r·0x9E37_79B9`, and only the seeding draws
    /// from it, so its first `k` seeds are exactly what seeding for `k`
    /// alone would pick: one seeding per restart serves the whole `k` sweep.
    fn seeded(points: &[&[f64]], k_max: usize, restarts: usize, seed: u64) -> Self {
        let n = points.len();
        let dims = points[0].len();
        let mut scratch = FitScratch {
            k_max,
            seeds: Vec::with_capacity(restarts * k_max * dims),
            centroids: Vec::with_capacity(k_max * dims),
            next: vec![0.0; k_max * dims],
            counts: vec![0; k_max],
            assignments: vec![0; n],
            best_centroids: Vec::with_capacity(k_max * dims),
            best_assignments: vec![0; n],
            dist_all: vec![0.0; k_max * n],
            points_t: transposed(points),
            dist: vec![0.0; n],
            weights: vec![0.0; n],
        };
        for r in 0..restarts {
            let mut rng = SimRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9E37_79B9));
            KMeans::kmeanspp_init(points, k_max, &mut rng, &mut scratch);
        }
        scratch
    }
}

impl KMeans {
    /// Fits k-means to `data` with the given configuration and seed.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] if `data` has no instances and
    /// [`MlError::InvalidK`] if `config.k` is zero or exceeds the number of
    /// instances.
    pub fn fit(data: &Dataset, config: &KMeansConfig, seed: u64) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if config.k == 0 || config.k > data.len() {
            return Err(MlError::InvalidK {
                requested: config.k,
                available: data.len(),
            });
        }
        if config.max_iterations == 0 {
            return Err(MlError::InvalidConfig(
                "max_iterations must be at least 1".into(),
            ));
        }
        let points = data_points(data);
        let mut scratch = FitScratch::seeded(&points, config.k, config.restarts.max(1), seed);
        Ok(Self::fit_with_scratch(&points, config, &mut scratch))
    }

    /// [`fit`](Self::fit) over pre-validated points and scratch seeded for
    /// at least `config.k` clusters with `config.restarts` restarts, so a
    /// `k` sweep ([`fit_auto_k`](Self::fit_auto_k)) transposes the data,
    /// seeds and allocates buffers once instead of once per candidate `k`.
    fn fit_with_scratch(
        points: &[&[f64]],
        config: &KMeansConfig,
        scratch: &mut FitScratch,
    ) -> KMeans {
        let dims = points[0].len();
        let seeds_per_restart = scratch.k_max * dims;
        let mut best_inertia = f64::INFINITY;
        let mut best_iterations = 0;
        for r in 0..config.restarts.max(1) {
            let start = r * seeds_per_restart;
            scratch.centroids.clear();
            scratch
                .centroids
                .extend_from_slice(&scratch.seeds[start..start + config.k * dims]);
            let (inertia, iterations_run) = Self::fit_once(points, config, scratch);
            if r == 0 || inertia < best_inertia {
                best_inertia = inertia;
                best_iterations = iterations_run;
                std::mem::swap(&mut scratch.centroids, &mut scratch.best_centroids);
                std::mem::swap(&mut scratch.assignments, &mut scratch.best_assignments);
            }
        }
        KMeans {
            centroids: CentroidSlab {
                dims,
                data: scratch.best_centroids.clone(),
            },
            inertia: best_inertia,
            assignments: scratch.best_assignments.clone(),
            iterations_run: best_iterations,
        }
    }

    /// One k-means run from the seeds in `scratch.centroids`, over flat
    /// `k×dims` centroid buffers: the Lloyd loop reuses two slabs (current
    /// and next) instead of allocating a vector-of-vectors per iteration,
    /// and the distance-heavy steps compute many independent distances in
    /// parallel lanes over a dimension-major layout
    /// ([`Self::all_distances`]), which vectorizes where a single distance's
    /// serial add chain cannot. Each individual distance keeps the exact
    /// accumulation order of [`squared_distance`], so results are
    /// bit-for-bit identical to the textbook nested-`Vec` formulation.
    ///
    /// Converged exit: when an assignment step reproduces the previous
    /// assignments and the previous update re-seeded no empty cluster, the
    /// centroids already are the means of these assignments. The textbook
    /// loop would rebuild them bit for bit, measure a movement of
    /// `Σ distance(c, c)`, and its final pass would recompute this very
    /// `dist_all`; so the run returns here with that pass's inertia and the
    /// iteration count the textbook loop reports. A re-seed is the only way
    /// identical assignments can yield different centroids, hence the
    /// second condition.
    fn fit_once(
        points: &[&[f64]],
        config: &KMeansConfig,
        scratch: &mut FitScratch,
    ) -> (f64, usize) {
        let dims = points[0].len();
        let k = config.k;
        let n = points.len();
        scratch.next.resize(k * dims, 0.0);
        scratch.counts.resize(k, 0);
        scratch.dist_all.resize(k * n, 0.0);
        let FitScratch {
            centroids,
            next,
            counts,
            assignments,
            dist_all,
            points_t,
            ..
        } = scratch;
        // Whether `centroids` are the plain means of `assignments`.
        let mut centroids_are_means = false;
        let mut iterations_run = 0;
        for _ in 0..config.max_iterations {
            iterations_run += 1;
            // Assignment step: each centroid's distances to every point in
            // point-parallel lanes, then a per-point argmin over k values.
            Self::all_distances(centroids, k, dims, points_t, n, dist_all);
            let (changed, inertia) = Self::assign_nearest(dist_all, n, k, assignments);
            if !changed && centroids_are_means {
                let movement: f64 = centroids.chunks_exact(dims).map(|c| distance(c, c)).sum();
                let met = movement < config.tolerance;
                if !met {
                    // Non-finite centroids (or a non-positive tolerance)
                    // never meet it: the textbook loop idles at this fixed
                    // point up to the iteration cap.
                    iterations_run = config.max_iterations;
                }
                return (inertia, iterations_run);
            }
            // Update step.
            next.fill(0.0);
            counts.fill(0);
            for (i, p) in points.iter().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (acc, &x) in next[c * dims..(c + 1) * dims].iter_mut().zip(p.iter()) {
                    *acc += x;
                }
            }
            centroids_are_means = true;
            for c in 0..k {
                let centroid = &mut next[c * dims..(c + 1) * dims];
                if counts[c] == 0 {
                    // Re-seed an empty cluster with the point farthest from its centroid.
                    centroids_are_means = false;
                    let anchor = &centroids[assignments[0] * dims..(assignments[0] + 1) * dims];
                    let far = points
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            let da = squared_distance(a, anchor);
                            let db = squared_distance(b, anchor);
                            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    centroid.copy_from_slice(points[far]);
                } else {
                    for acc in centroid.iter_mut() {
                        *acc /= counts[c] as f64;
                    }
                }
            }
            let movement: f64 = (0..k)
                .map(|c| {
                    distance(
                        &centroids[c * dims..(c + 1) * dims],
                        &next[c * dims..(c + 1) * dims],
                    )
                })
                .sum();
            std::mem::swap(centroids, next);
            if movement < config.tolerance {
                break;
            }
        }
        // Final assignment + inertia.
        Self::all_distances(centroids, k, dims, points_t, n, dist_all);
        let (_, inertia) = Self::assign_nearest(dist_all, n, k, assignments);
        (inertia, iterations_run)
    }

    /// Assigns every point its nearest centroid from the `k×n` distance
    /// buffer; returns whether any assignment changed and the summed
    /// squared distance of the new assignments (in point order).
    fn assign_nearest(
        dist_all: &[f64],
        n: usize,
        k: usize,
        assignments: &mut [usize],
    ) -> (bool, f64) {
        let mut changed = false;
        let mut inertia = 0.0;
        for (i, a) in assignments.iter_mut().enumerate() {
            let (c, d2) = Self::argmin_strided(dist_all, n, k, i);
            changed |= c != *a;
            *a = c;
            inertia += d2;
        }
        (changed, inertia)
    }

    /// Squared distances of every `(centroid, point)` pair into a `k×n`
    /// buffer: for each centroid, the inner loop accumulates over independent
    /// per-point lanes of the dimension-major point slab, which the compiler
    /// can vectorize — unlike a single distance, whose additions form a
    /// serial dependency chain. Each pair still adds its dimensions in
    /// ascending order, so every distance is bit-identical to
    /// [`squared_distance`].
    fn all_distances(
        centroids: &[f64],
        k: usize,
        dims: usize,
        points_t: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        out.fill(0.0);
        for c in 0..k {
            let centroid = &centroids[c * dims..(c + 1) * dims];
            let row = &mut out[c * n..(c + 1) * n];
            for (d, &cv) in centroid.iter().enumerate() {
                let lane = &points_t[d * n..(d + 1) * n];
                for (acc, &x) in row.iter_mut().zip(lane) {
                    let diff = cv - x;
                    *acc += diff * diff;
                }
            }
        }
    }

    /// Argmin over the `k` values `buf[c*n + i]` for point `i`; ties break
    /// toward the lower centroid index, matching a strict-`<` ascending scan.
    fn argmin_strided(buf: &[f64], n: usize, k: usize, i: usize) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for c in 0..k {
            let v = buf[c * n + i];
            if v < best.1 {
                best = (c, v);
            }
        }
        best
    }

    /// k-means++ seeding of `k` centroids, appended to `scratch.seeds`.
    /// Incremental: each point's distance to the nearest chosen centroid is
    /// kept and folded with just the newest centroid per round — O(k·n)
    /// instead of recomputing the full minimum (O(k²·n)). `min` over exact
    /// distances is associative, so the weights are bit-identical to the
    /// recomputed form.
    fn kmeanspp_init(points: &[&[f64]], k: usize, rng: &mut SimRng, scratch: &mut FitScratch) {
        let n = points.len();
        let FitScratch {
            seeds,
            points_t,
            dist,
            weights,
            ..
        } = scratch;
        let distances_to_newest = |newest: &[f64], dist: &mut [f64]| {
            dist.fill(0.0);
            for (d, &c) in newest.iter().enumerate() {
                let row = &points_t[d * n..(d + 1) * n];
                for (acc, &x) in dist.iter_mut().zip(row) {
                    let diff = x - c;
                    *acc += diff * diff;
                }
            }
        };
        let first = points[rng.uniform_usize(n)];
        seeds.extend_from_slice(first);
        distances_to_newest(first, weights);
        for _ in 1..k {
            let total: f64 = weights.iter().sum();
            let newest = if total <= 0.0 {
                // All points coincide with existing centroids; duplicate one.
                points[rng.uniform_usize(n)]
            } else {
                let mut target = rng.uniform01() * total;
                let mut chosen = n - 1;
                for (i, w) in weights.iter().enumerate() {
                    target -= w;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                points[chosen]
            };
            // Incremental k-means++ weights: fold the newest centroid into
            // each point's running minimum. `min` over exact distances is
            // associative, so this is bit-identical to recomputing the full
            // minimum over all chosen centroids.
            distances_to_newest(newest, dist);
            for (w, &d) in weights.iter_mut().zip(dist.iter()) {
                *w = d.min(*w);
            }
            seeds.extend_from_slice(newest);
        }
    }

    fn nearest(centroids: &CentroidSlab, p: &[f64]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for (i, c) in centroids.iter().enumerate() {
            // Early exit: stop accumulating a centroid's distance once it
            // provably exceeds the best so far. The bail-out is strict, so a
            // centroid tying the best completes and loses to the earlier
            // index exactly as the full computation would.
            if let Some(d) = kernels::squared_distance_within(c, p, best.1) {
                if d < best.1 {
                    best = (i, d);
                }
            }
        }
        best
    }

    /// The fitted cluster centroids (a contiguous centroid-major slab).
    pub fn centroids(&self) -> &CentroidSlab {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Sum of squared distances of every training point to its centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Cluster assignment of each training instance, in dataset order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Number of Lloyd iterations the winning restart executed.
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Assigns a new point to its nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if `point` has a different dimensionality than the centroids.
    pub fn assign(&self, point: &[f64]) -> usize {
        Self::nearest(&self.centroids, point).0
    }

    /// Distance from `point` to its nearest centroid.
    pub fn distance_to_nearest(&self, point: &[f64]) -> f64 {
        Self::nearest(&self.centroids, point).1.sqrt()
    }

    /// Nearest centroid and the distance to it in one pass — the cache-lookup
    /// hot path of the online classifier, which needs both.
    pub fn assign_with_distance(&self, point: &[f64]) -> (usize, f64) {
        let (cluster, d2) = Self::nearest(&self.centroids, point);
        (cluster, d2.sqrt())
    }

    /// Index of the training instance closest to the centroid of `cluster`,
    /// i.e. the paper's "instance closest to the cluster's centroid" that is
    /// handed to the Tuner.
    ///
    /// Returns `None` if the cluster has no members.
    pub fn medoid_of(&self, data: &Dataset, cluster: usize) -> Option<usize> {
        let centroid = self.centroids.get(cluster)?;
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster)
            .min_by(|(a, _), (b, _)| {
                let da = squared_distance(&data.instances()[*a].features, centroid);
                let db = squared_distance(&data.instances()[*b].features, centroid);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }

    /// Mean silhouette score of the clustering over `data` (higher is better,
    /// in `[-1, 1]`). Returns 0.0 for a single cluster.
    pub fn silhouette(&self, data: &Dataset) -> f64 {
        silhouette_from(
            &self.assignments,
            self.k(),
            &pairwise_distances(&data_points(data)),
        )
    }

    /// Fits k-means for every `k` in `k_range` and returns the model with the
    /// best silhouette score, implementing the paper's "the framework can
    /// automatically determine the number of classes". The upper end of the
    /// range is clamped to the number of instances.
    ///
    /// Every candidate `k` sees the same restarts: restart `r`'s k-means++
    /// seeding for `k` is the first `k` centroids of its seeding for the
    /// largest `k`, so each restart is seeded once for the whole sweep
    /// (see [`FitScratch::seeded`]) and the result is bit-identical to
    /// fitting each `k` on its own with [`fit`](Self::fit).
    ///
    /// Bounds-based Lloyd pruning (Hamerly, Elkan) is deliberately absent:
    /// the fleet's sweeps cluster ≈ 30 signatures and a fit converges in
    /// about three iterations, so there are too few distance evaluations
    /// left for the bounds to skip to pay for their upkeep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] if the range is empty or starts at
    /// zero, [`MlError::EmptyDataset`] if `data` has no instances and
    /// [`MlError::InvalidK`] if the range starts above the number of
    /// instances.
    pub fn fit_auto_k(
        data: &Dataset,
        k_range: std::ops::RangeInclusive<usize>,
        base: &KMeansConfig,
        seed: u64,
    ) -> Result<Self, MlError> {
        let lo = *k_range.start();
        let hi = *k_range.end();
        if lo == 0 || lo > hi {
            return Err(MlError::InvalidConfig(format!(
                "invalid cluster range {lo}..={hi}"
            )));
        }
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if base.max_iterations == 0 {
            return Err(MlError::InvalidConfig(
                "max_iterations must be at least 1".into(),
            ));
        }
        if lo > data.len() {
            return Err(MlError::InvalidK {
                requested: lo,
                available: data.len(),
            });
        }
        let hi = hi.min(data.len());
        let points = data_points(data);
        let mut scratch = FitScratch::seeded(&points, hi, base.restarts.max(1), seed);
        let matrix = pairwise_distances_from(&points, &scratch.points_t);
        let fits: Vec<(f64, KMeans)> = (lo..=hi)
            .map(|k| {
                let cfg = KMeansConfig { k, ..base.clone() };
                let model = KMeans::fit_with_scratch(&points, &cfg, &mut scratch);
                let score = if k == 1 {
                    0.0
                } else {
                    silhouette_from(&model.assignments, k, &matrix)
                };
                (score, model)
            })
            .collect();
        // Prefer higher silhouette; among near-ties prefer more clusters.
        // Silhouette is biased toward very coarse clusterings when one cluster
        // sits far from the rest (the peak-hour workload class), while finer
        // classes only cost extra tuning runs — the cheap side of the
        // trade-off §3.4 of the paper describes.
        let best_score = fits
            .iter()
            .map(|(s, _)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        let chosen = fits
            .into_iter()
            .filter(|(s, _)| *s >= best_score - 0.12)
            .max_by_key(|(_, m)| m.k())
            .expect("range validated to be non-empty");
        Ok(chosen.1)
    }
}

/// The feature vectors of `data`, in instance order.
fn data_points(data: &Dataset) -> Vec<&[f64]> {
    data.instances()
        .iter()
        .map(|i| i.features.as_slice())
        .collect()
}

/// Mean silhouette of `assignments` (into `k` clusters) over a precomputed
/// row-major `n×n` distance matrix, so [`KMeans::fit_auto_k`] scores every
/// candidate `k` against one matrix. Per point, one pass adds each other
/// point's distance to its cluster's slot of two `k`-sized buffers in point
/// order: the own cluster's slot is the intra-cluster sum and the others are
/// the inter-cluster sums, each accumulated in the same order as separate
/// sums would be.
fn silhouette_from(assignments: &[usize], k: usize, matrix: &[f64]) -> f64 {
    let n = assignments.len();
    if k < 2 || n < 2 {
        return 0.0;
    }
    let mut sums = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    let mut total = 0.0;
    let mut counted = 0usize;
    for (i, &own) in assignments.iter().enumerate() {
        sums.fill(0.0);
        counts.fill(0);
        let row = &matrix[i * n..(i + 1) * n];
        for (j, (&d, &c)) in row.iter().zip(assignments).enumerate() {
            if j != i {
                sums[c] += d;
                counts[c] += 1;
            }
        }
        if counts[own] == 0 {
            continue;
        }
        let a = sums[own] / counts[own] as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            continue;
        }
        total += (b - a) / a.max(b);
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Row-major `n×n` matrix of pairwise Euclidean distances. Both triangles are
/// filled from one computation per pair; `distance` is exactly symmetric, so
/// consumers see bit-identical values to computing each direction directly.
/// Rows are computed in parallel lanes over a dimension-major copy of the
/// points — each pair's sum still accumulates dimensions in ascending order,
/// so every entry equals `distance(points[i], points[j])` bit-for-bit.
fn pairwise_distances(points: &[&[f64]]) -> Vec<f64> {
    pairwise_distances_from(points, &transposed(points))
}

/// Dimension-major (`dims×n`) copy of `points`.
fn transposed(points: &[&[f64]]) -> Vec<f64> {
    let n = points.len();
    let dims = points.first().map_or(0, |p| p.len());
    let mut points_t = vec![0.0f64; n * dims];
    for (i, p) in points.iter().enumerate() {
        for (d, &x) in p.iter().enumerate() {
            points_t[d * n + i] = x;
        }
    }
    points_t
}

/// [`pairwise_distances`] over an existing dimension-major copy of the
/// points (e.g. [`FitScratch::points_t`]), avoiding a redundant transpose.
/// Only the `j > i` lanes are accumulated — each pair is computed once.
fn pairwise_distances_from(points: &[&[f64]], points_t: &[f64]) -> Vec<f64> {
    let n = points.len();
    let mut matrix = vec![0.0; n * n];
    let mut row = vec![0.0f64; n];
    for i in 0..n {
        row[i + 1..].fill(0.0);
        for (d, &x) in points[i].iter().enumerate() {
            let lane = &points_t[d * n + i + 1..(d + 1) * n];
            for (acc, &y) in row[i + 1..].iter_mut().zip(lane) {
                let diff = y - x;
                *acc += diff * diff;
            }
        }
        for j in i + 1..n {
            let d = row[j].sqrt();
            matrix[i * n + j] = d;
            matrix[j * n + i] = d;
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per: usize, spread: f64, seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for &(cx, cy) in centers {
            for _ in 0..per {
                d.push_unlabeled(vec![rng.normal(cx, spread), rng.normal(cy, spread)]);
            }
        }
        d
    }

    #[test]
    fn separates_clear_blobs() {
        let d = blobs(&[(0.0, 0.0), (50.0, 50.0)], 20, 0.5, 1);
        let km = KMeans::fit(
            &d,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            2,
        )
        .unwrap();
        let a = km.assign(&[0.0, 0.0]);
        let b = km.assign(&[50.0, 50.0]);
        assert_ne!(a, b);
        assert!(km.inertia() < 100.0);
    }

    #[test]
    fn rejects_bad_k() {
        let d = blobs(&[(0.0, 0.0)], 3, 0.1, 1);
        assert!(matches!(
            KMeans::fit(
                &d,
                &KMeansConfig {
                    k: 0,
                    ..Default::default()
                },
                1
            ),
            Err(MlError::InvalidK { .. })
        ));
        assert!(matches!(
            KMeans::fit(
                &d,
                &KMeansConfig {
                    k: 10,
                    ..Default::default()
                },
                1
            ),
            Err(MlError::InvalidK { .. })
        ));
    }

    #[test]
    fn rejects_empty_dataset() {
        let d = Dataset::new(vec!["x".into()]);
        assert_eq!(
            KMeans::fit(&d, &KMeansConfig::default(), 1).unwrap_err(),
            MlError::EmptyDataset
        );
    }

    #[test]
    fn assignments_cover_all_points() {
        let d = blobs(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 15, 0.3, 3);
        let km = KMeans::fit(
            &d,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        assert_eq!(km.assignments().len(), d.len());
        assert!(km.assignments().iter().all(|&c| c < 3));
    }

    #[test]
    fn silhouette_prefers_true_k() {
        let d = blobs(
            &[(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)],
            12,
            0.5,
            4,
        );
        let base = KMeansConfig::default();
        let k2 = KMeans::fit(
            &d,
            &KMeansConfig {
                k: 2,
                ..base.clone()
            },
            4,
        )
        .unwrap();
        let k4 = KMeans::fit(&d, &KMeansConfig { k: 4, ..base }, 4).unwrap();
        assert!(k4.silhouette(&d) > k2.silhouette(&d));
    }

    #[test]
    fn auto_k_finds_the_right_count() {
        let d = blobs(
            &[(0.0, 0.0), (40.0, 0.0), (0.0, 40.0), (40.0, 40.0)],
            10,
            0.4,
            5,
        );
        let model = KMeans::fit_auto_k(&d, 2..=8, &KMeansConfig::default(), 5).unwrap();
        assert_eq!(model.k(), 4);
    }

    #[test]
    fn auto_k_rejects_a_range_above_the_dataset() {
        let d = blobs(&[(0.0, 0.0)], 1, 0.1, 10);
        assert_eq!(
            KMeans::fit_auto_k(&d, 2..=8, &KMeansConfig::default(), 10).unwrap_err(),
            MlError::InvalidK {
                requested: 2,
                available: 1
            }
        );
        // The upper end alone is clamped, not rejected.
        let model = KMeans::fit_auto_k(&d, 1..=8, &KMeansConfig::default(), 10).unwrap();
        assert_eq!(model.k(), 1);
    }

    #[test]
    fn a_reseeded_cluster_blocks_the_converged_exit() {
        // Iteration 3 reproduces iteration 2's assignments, but iteration 2
        // re-seeded the empty cluster 2 from an anchor centroid that has
        // since moved: the centroids are not yet the means, and the textbook
        // loop re-seeds cluster 2 elsewhere and settles one iteration later.
        let values = [-9.0, -10.0, -10.0];
        let points: Vec<&[f64]> = values.iter().map(std::slice::from_ref).collect();
        let config = KMeansConfig {
            k: 3,
            ..Default::default()
        };
        let mut scratch = FitScratch::seeded(&points, 3, 1, 0);
        scratch.centroids = vec![3.0, -2.0, 0.0];
        let (inertia, iterations) = KMeans::fit_once(&points, &config, &mut scratch);
        assert_eq!(scratch.centroids, [-10.0, -9.0, -10.0]);
        assert_eq!(scratch.assignments, [1, 0, 0]);
        assert_eq!((inertia, iterations), (0.0, 4));
    }

    #[test]
    fn medoid_is_member_of_cluster() {
        let d = blobs(&[(0.0, 0.0), (20.0, 20.0)], 10, 0.5, 6);
        let km = KMeans::fit(
            &d,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            6,
        )
        .unwrap();
        for c in 0..2 {
            let m = km.medoid_of(&d, c).unwrap();
            assert_eq!(km.assignments()[m], c);
        }
        assert!(km.medoid_of(&d, 99).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(&[(0.0, 0.0), (10.0, 10.0)], 10, 1.0, 7);
        let a = KMeans::fit(&d, &KMeansConfig::default(), 11).unwrap();
        let b = KMeans::fit(&d, &KMeansConfig::default(), 11).unwrap();
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn distance_to_nearest_is_small_for_training_points() {
        let d = blobs(&[(5.0, 5.0)], 20, 0.2, 8);
        let km = KMeans::fit(
            &d,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            },
            8,
        )
        .unwrap();
        assert!(km.distance_to_nearest(&[5.0, 5.0]) < 1.0);
    }

    #[test]
    fn single_cluster_silhouette_is_zero() {
        let d = blobs(&[(0.0, 0.0)], 5, 0.1, 9);
        let km = KMeans::fit(
            &d,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            },
            9,
        )
        .unwrap();
        assert_eq!(km.silhouette(&d), 0.0);
    }
}
