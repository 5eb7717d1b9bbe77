//! The fleet-shared signature repository: a sharded, lock-striped store of
//! allocation decisions that many tenants read and write concurrently.
//!
//! Layered on `dejavu_core::repository`: tenants interact through the
//! [`crate::tenant_view::TenantRepoView`] adapter (which implements
//! `dejavu_core::AllocationStore`), while this module owns the shared state.
//!
//! Because class ids are local to each tenant's clusterer, entries are *not*
//! keyed by class id. Instead each namespace (service kind × request mix ×
//! allocation space) maintains a list of **anchors** — full-catalogue workload
//! signatures characterizing a class. A tenant's class is matched to an anchor
//! by normalized signature distance, so tenants whose clusterers numbered
//! classes differently (or even found different class counts) still share
//! entries for equivalent workloads. Entries are keyed by
//! `(namespace, anchor, interference bucket)`.
//!
//! # Hot-path design
//!
//! * **Indexed anchor resolution.** A namespace's anchors are indexed by a
//!   ball tree in quantized log-magnitude space, with the query radius
//!   derived from the match tolerance so that any anchor within tolerance of
//!   a query provably lies inside the query's φ-ball ([`AnchorSet`]).
//!   `resolve` therefore inspects candidate cells/leaves instead of every
//!   anchor in the namespace, and the remaining exact checks use an
//!   early-exit distance ([`normalized_distance_within`]) that bails as soon
//!   as the partial sum exceeds the tolerance bound. Results — including the
//!   lowest-id tie-break — are bit-identical to a brute-force linear scan
//!   (property-tested in `tests/properties.rs`).
//! * **Wait-free read path.** Every write path republishes the shard's
//!   namespace map (copy-on-write `Arc`s per namespace) into a
//!   pin-protected [`SnapCell`] before releasing the shard write lock, and
//!   [`SharedSignatureRepository::lookup`] / `peek` resolve against that
//!   published snapshot without taking the lock at all — readers never
//!   block behind the committer's `apply_batch`/TTL-sweep write locks, or
//!   each other. Hit/miss/reuse counters are relaxed atomics
//!   ([`ShardCounters`], and per-entry counters shared across snapshot
//!   generations), so read-side accounting lands in the same counters the
//!   write path owns. Stale entries found by a lookup are counted as misses
//!   but left in place — eviction is deferred to the epoch TTL sweep
//!   ([`SharedSignatureRepository::evict_stale`]), which skips shards whose
//!   earliest-expiry watermark proves nothing can be stale yet.
//! * **Batched commits.** The commit path is **transport-driven**: whichever
//!   [`crate::transport`] backend coordinates the fleet applies an epoch's
//!   buffered operations through [`SharedSignatureRepository::apply_batch`],
//!   which groups them by shard and takes each shard's write lock once per
//!   epoch instead of once per operation, while preserving the deterministic
//!   tenant-order commit sequence within every shard.
//! * **Memoized resolution.** Controllers peek the same class-medoid
//!   signatures tick after tick; [`ResolveMemo`] caches their anchor
//!   resolutions and revalidates against only the anchors created since —
//!   provably bit-identical to resolving from scratch, because anchors only
//!   accrete and newer anchors lose distance ties.
//! * **Flat storage.** Entries live in a key-sorted
//!   [`FlatMap`](dejavu_core::FlatMap) (one contiguous vector per namespace)
//!   and anchor centroids in one flat `f64` slab per namespace, so a lookup
//!   touches contiguous memory instead of chasing B-tree nodes.
//!
//! Shards are lock-striped (`RwLock` per shard); a namespace's anchors and
//! entries live entirely within one shard, so anchor resolution needs a single
//! lock. Entries carry their tuning time; a TTL turns tuning decisions stale
//! so a fleet never reuses week-old allocations forever.

use crate::arena::{SigRef, SignatureArena};
use dejavu_cloud::{AllocationSpace, ResourceAllocation};
use dejavu_core::FlatMap;
use dejavu_obs::{Counter, Event, Recorder};
use dejavu_simcore::{SimDuration, SimTime};
use dejavu_traces::{RequestMix, ServiceKind};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, RwLock};

/// Identifies a tenant within one fleet run.
pub type TenantId = usize;

/// Configuration of the shared repository.
#[derive(Debug, Clone)]
pub struct SharedRepoConfig {
    /// Number of lock-striped shards.
    pub shards: usize,
    /// Entries older than this (by tuning time) are treated as stale: lookups
    /// miss and [`SharedSignatureRepository::evict_stale`] removes them.
    pub ttl: Option<SimDuration>,
    /// Maximum normalized distance at which a class signature matches an
    /// existing anchor; beyond it a new anchor is created on insert.
    pub match_tolerance: f64,
}

impl Default for SharedRepoConfig {
    fn default() -> Self {
        SharedRepoConfig {
            shards: 16,
            ttl: None,
            match_tolerance: 0.10,
        }
    }
}

/// One cached allocation decision in the shared store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedEntry {
    /// The preferred allocation for this anchor × interference bucket.
    pub allocation: ResourceAllocation,
    /// When a tuner produced this entry.
    pub tuned_at: SimTime,
    /// The tenant whose tuning produced the entry.
    pub owner: TenantId,
    /// Total lookups served from this entry.
    pub hits: u64,
    /// Lookups served to tenants other than the owner.
    pub cross_tenant_hits: u64,
}

/// The stored form of an entry: reuse counters are relaxed atomics so the
/// wait-free read path can account hits against a published snapshot. The
/// counters sit behind `Arc`s that copy-on-write namespace clones **share**,
/// so a hit recorded through an older published generation lands in the same
/// counter the next capture reads — exactly as when there was one copy.
#[derive(Debug)]
struct StoredEntry {
    allocation: ResourceAllocation,
    tuned_at: SimTime,
    owner: TenantId,
    hits: Arc<AtomicU64>,
    cross_tenant_hits: Arc<AtomicU64>,
}

impl Clone for StoredEntry {
    fn clone(&self) -> Self {
        StoredEntry {
            allocation: self.allocation,
            tuned_at: self.tuned_at,
            owner: self.owner,
            // Shared, not copied: all generations of an entry are one
            // logical counter.
            hits: Arc::clone(&self.hits),
            cross_tenant_hits: Arc::clone(&self.cross_tenant_hits),
        }
    }
}

impl StoredEntry {
    fn snapshot(&self) -> SharedEntry {
        SharedEntry {
            allocation: self.allocation,
            tuned_at: self.tuned_at,
            owner: self.owner,
            hits: self.hits.load(Relaxed),
            cross_tenant_hits: self.cross_tenant_hits.load(Relaxed),
        }
    }
}

/// Hit/miss statistics of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups that found a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing (or only stale entries).
    pub misses: u64,
    /// Entries inserted (including overwrites).
    pub insertions: u64,
    /// Entries removed for staleness.
    pub evictions: u64,
    /// Hits served to a tenant other than the entry's owner.
    pub cross_tenant_hits: u64,
    /// Anchors created in this shard.
    pub anchors_created: u64,
}

impl ShardStats {
    /// Cache hit rate over all lookups (0.0 if there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ShardStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.cross_tenant_hits += other.cross_tenant_hits;
        self.anchors_created += other.anchors_created;
    }
}

/// Per-shard counters, advanced with relaxed atomics (the shared
/// [`dejavu_obs::Counter`] primitive) so the read path never needs the shard
/// write lock. Snapshots are only taken at epoch barriers or after a run,
/// when no concurrent updates are in flight, so totals are exact.
#[derive(Debug, Default)]
struct ShardCounters {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    cross_tenant_hits: Counter,
    anchors_created: Counter,
}

impl ShardCounters {
    fn snapshot(&self) -> ShardStats {
        ShardStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            cross_tenant_hits: self.cross_tenant_hits.get(),
            anchors_created: self.anchors_created.get(),
        }
    }

    fn restore(&self, stats: &ShardStats) {
        self.hits.set(stats.hits);
        self.misses.set(stats.misses);
        self.insertions.set(stats.insertions);
        self.evictions.set(stats.evictions);
        self.cross_tenant_hits.set(stats.cross_tenant_hits);
        self.anchors_created.set(stats.anchors_created);
    }
}

/// A write buffered by a tenant view during an epoch, applied at the epoch
/// barrier in tenant order so fleet runs are deterministic regardless of how
/// worker threads interleave.
#[derive(Debug, Clone, PartialEq)]
pub enum PendingOp {
    /// Publish a tuning decision to the fleet.
    Publish {
        /// The publishing tenant.
        tenant: TenantId,
        /// The tenant's namespace.
        namespace: u64,
        /// Full-catalogue class signature values.
        signature: Vec<f64>,
        /// Interference bucket of the entry.
        interference_bucket: u32,
        /// The tuned allocation.
        allocation: ResourceAllocation,
        /// When it was tuned.
        tuned_at: SimTime,
    },
    /// Account for a cross-tenant hit observed during the epoch.
    RecordHit {
        /// The reading tenant.
        tenant: TenantId,
        /// The reading tenant's namespace.
        namespace: u64,
        /// Signature that matched.
        signature: Vec<f64>,
        /// Interference bucket that matched.
        interference_bucket: u32,
        /// The `(anchor id, anchor count, distance)` witness of the peek-time
        /// resolution. Anchors only accrete and new ids always lose distance
        /// ties to older ones, so at commit the resolution can only change if
        /// an anchor created since the peek is strictly closer: the commit
        /// checks just those delta anchors instead of re-resolving the whole
        /// namespace — byte-identical outcomes either way. `None` (e.g.
        /// hand-built ops) resolves from scratch.
        resolved: Option<(u32, u32, f64)>,
    },
    /// Account for a shared-store miss observed during the epoch, so shard
    /// hit rates stay meaningful under the read-only epoch protocol.
    RecordMiss {
        /// The reading tenant's namespace.
        namespace: u64,
    },
}

impl PendingOp {
    /// The namespace the operation touches (determines its shard).
    pub fn namespace(&self) -> u64 {
        match self {
            PendingOp::Publish { namespace, .. }
            | PendingOp::RecordHit { namespace, .. }
            | PendingOp::RecordMiss { namespace } => *namespace,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EntryKey {
    anchor: u32,
    interference_bucket: u32,
}

/// Values below this magnitude share one log-space band; mirrors the epsilon
/// floor in [`normalized_distance`].
const MAG_FLOOR: f64 = 1e-9;

/// Ball-tree leaves hold at most this many anchors.
const LEAF_SIZE: usize = 8;

/// Query φ vectors at most this wide are stack-allocated during resolution.
const PHI_STACK_DIMS: usize = 64;

/// Log-magnitude of a signature component: the coordinate the anchor index
/// works in. The key property (proved in the [`AnchorSet`] docs): two values
/// whose relative difference is δ < 1 have log-magnitudes within
/// `-ln(1 - δ)` of each other, regardless of sign or the ε floor.
fn log_mag(v: f64) -> f64 {
    v.abs().max(MAG_FLOOR).ln()
}

/// The φ-ball query radius implied by `tolerance` over `dims` dimensions
/// (0.0 disables the tree). Shared by anchor insertion and snapshot
/// restoration so a loaded repository derives the exact same bound.
fn phi_radius_bound(dims: usize, tolerance: f64) -> f64 {
    let per_dim_bound = tolerance * (dims as f64).sqrt();
    if (0.0..1.0).contains(&per_dim_bound) && per_dim_bound > 0.0 {
        // A hair of headroom absorbs floating-point rounding between the φ
        // mapping and the exact distance check.
        -(1.0 - per_dim_bound).ln() * (1.0 + 1e-12) + 1e-12
    } else {
        0.0
    }
}

/// One node of the anchor ball tree. Leaves reference a range of
/// [`AnchorSet::order`]; internal nodes reference their children.
#[derive(Debug, Clone, Copy)]
struct BallNode {
    /// Offset of this node's center in [`AnchorSet::node_centers`].
    center: u32,
    /// Radius of the ball (in log-magnitude space) around the center.
    radius: f64,
    /// Leaf: `[start, start+len)` into `order`. Internal: `len == 0`.
    start: u32,
    len: u32,
    /// Internal: child node indices. Unused for leaves.
    left: u32,
    right: u32,
}

/// The anchors of one namespace plus their quantized spatial index.
///
/// Centroids are stored in one flat slab (`centroids[slot*dims..]`), so
/// candidate checks stream contiguous memory. The index is a **ball tree in
/// log-magnitude space**: anchor `a` maps to `φ(a)_i = ln(max(|a_i|, 1e-9))`,
/// and the tree prunes by Euclidean distance over φ.
///
/// Why that is exact: a per-dimension relative difference
/// `δ_i = |x_i−y_i| / max(|x_i|,|y_i|,ε) < 1` implies
/// `|φ(x)_i − φ(y)_i| ≤ -ln(1−δ_i)` (wlog `u = max(|x_i|, ε) ≥ v`: either
/// `|x_i| ≥ ε`, then `|y_i| ≥ |x_i|(1−δ_i)` so the log-ratio of the floored
/// magnitudes is at most `-ln(1−δ_i)`; or both sit at the ε floor and the
/// difference is 0 — opposite signs above the floor are impossible with
/// δ < 1). A normalized distance ≤ tol over n dimensions bounds
/// `Σ δ_i² ≤ tol²·n`, and since `(-ln(1−δ))²` is convex the worst case
/// concentrates in one dimension, giving the Euclidean ball bound
/// `‖φ(x)−φ(y)‖₂ ≤ -ln(1 − tol·√n)`. Every anchor within tolerance of a
/// query therefore lies inside that φ-ball of the query: the tree yields a
/// candidate superset, and the early-exit [`normalized_distance_within`]
/// check in original space decides exactly.
///
/// When `tol·√n ≥ 1` the bound degenerates and the set falls back to a
/// linear scan, which the early-exit distance keeps cheap. Anchors added
/// since the last (deterministic, growth-triggered) rebuild are scanned
/// linearly as a tail.
#[derive(Debug, Default, Clone)]
struct AnchorSet {
    /// Signature length of the indexed anchors (fixed by the first anchor).
    dims: usize,
    /// Flat centroid slab for anchors whose signature length is `dims`.
    centroids: Vec<f64>,
    /// Flat slab of φ (log-magnitude) vectors, parallel to `centroids`.
    phi: Vec<f64>,
    /// Anchor ids in slab order (`slab_ids[slot]` = anchor id stored there).
    slab_ids: Vec<u32>,
    /// φ-ball query radius implied by the tolerance; 0.0 disables the tree.
    radius_bound: f64,
    /// Ball-tree nodes (root is node 0 when non-empty).
    nodes: Vec<BallNode>,
    /// Node centers slab (`node.center` indexes it, `dims` wide).
    node_centers: Vec<f64>,
    /// Slab slots, reordered so each leaf owns a contiguous range.
    order: Vec<u32>,
    /// Number of slab slots covered by the tree; slots beyond it are the
    /// linear tail, re-indexed when the slab outgrows `built * 5/4`.
    built: usize,
    /// Anchors whose signature length differs from `dims` (degenerate; kept
    /// for exactness — they can only match queries of their own length).
    /// Handles into `misfit_slab`, not per-anchor heap vectors.
    misfits: Vec<(u32, SigRef)>,
    /// Arena slab holding the misfit signatures contiguously.
    misfit_slab: SignatureArena,
    /// Total number of anchors ever created in this namespace.
    count: u32,
}

impl AnchorSet {
    /// Squared Euclidean distance between `a` and `b`, bailing out with
    /// `None` once it provably exceeds `bound_sq`. Runs on the chunked
    /// kernels of [`dejavu_ml::kernels`].
    fn sq_dist_within(a: &[f64], b: &[f64], bound_sq: f64) -> Option<f64> {
        dejavu_ml::kernels::squared_distance_within(a, b, bound_sq)
    }

    /// Builds the ball tree over `slots` (recursive; appends to `nodes`).
    fn build_node(&mut self, start: usize, len: usize, scratch: &mut Vec<f64>) -> u32 {
        let dims = self.dims;
        // Node center: mean of member φ vectors; radius: max member distance.
        scratch.clear();
        scratch.resize(dims, 0.0);
        for &slot in &self.order[start..start + len] {
            let at = slot as usize * dims;
            for (acc, &v) in scratch.iter_mut().zip(&self.phi[at..at + dims]) {
                *acc += v;
            }
        }
        for acc in scratch.iter_mut() {
            *acc /= len as f64;
        }
        let center = self.node_centers.len() as u32;
        self.node_centers.extend_from_slice(scratch);
        let center_at = center as usize;
        let mut radius_sq = 0.0f64;
        for &slot in &self.order[start..start + len] {
            let at = slot as usize * dims;
            let d = Self::sq_dist_within(
                &self.phi[at..at + dims],
                &self.node_centers[center_at..center_at + dims],
                f64::INFINITY,
            )
            .expect("no bound");
            radius_sq = radius_sq.max(d);
        }
        let node_index = self.nodes.len() as u32;
        self.nodes.push(BallNode {
            center,
            radius: radius_sq.sqrt(),
            start: start as u32,
            len: len as u32,
            left: 0,
            right: 0,
        });
        if len <= LEAF_SIZE {
            return node_index;
        }
        // Split at the median of the widest-spread φ dimension. The sort key
        // includes the slot so the order (hence the tree) is deterministic.
        let mut split_dim = 0;
        let mut best_spread = -1.0f64;
        for d in 0..dims {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &slot in &self.order[start..start + len] {
                let v = self.phi[slot as usize * dims + d];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                split_dim = d;
            }
        }
        {
            let (phi, order) = (&self.phi, &mut self.order);
            order[start..start + len].sort_by(|&a, &b| {
                let va = phi[a as usize * dims + split_dim];
                let vb = phi[b as usize * dims + split_dim];
                va.partial_cmp(&vb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
        }
        let half = len / 2;
        let left = self.build_node(start, half, scratch);
        let right = self.build_node(start + half, len - half, scratch);
        let node = &mut self.nodes[node_index as usize];
        node.len = 0;
        node.left = left;
        node.right = right;
        node_index
    }

    /// Rebuilds the tree over the whole slab (tail becomes empty).
    fn rebuild(&mut self) {
        self.nodes.clear();
        self.node_centers.clear();
        self.order = (0..self.slab_ids.len() as u32).collect();
        self.built = self.slab_ids.len();
        if self.built == 0 || self.radius_bound == 0.0 {
            return;
        }
        let mut scratch = Vec::with_capacity(self.dims);
        self.build_node(0, self.built, &mut scratch);
    }

    /// Nearest anchor within `tolerance`, or `None`. Ties break toward the
    /// lowest anchor id, so resolution is deterministic.
    fn resolve(&self, signature: &[f64], tolerance: f64, probes: &mut u64) -> Option<u32> {
        self.resolve_with_distance(signature, tolerance, probes)
            .map(|(_, id)| id)
    }

    /// [`resolve`](Self::resolve) returning `(distance, id)`. `probes`
    /// accumulates the ball-tree visit count: exact distance checks
    /// performed (slab slots and misfits examined) — the flight recorder's
    /// per-resolve work measure.
    fn resolve_with_distance(
        &self,
        signature: &[f64],
        tolerance: f64,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        self.resolve_inner(signature, tolerance, probes)
    }

    /// [`resolve_with_distance`](Self::resolve_with_distance) through a
    /// caller-held [`ResolveMemo`]: a cached resolution is revalidated
    /// against only the anchors created since it was recorded
    /// ([`resolve_since`](Self::resolve_since)), which provably returns the
    /// same `(distance, id)` as a full resolution — anchors only accrete,
    /// and a newer (higher-id) anchor displaces a witnessed best only when
    /// strictly closer, exactly the epoch-commit witness rule.
    fn resolve_memoized(
        &self,
        signature: &[f64],
        tolerance: f64,
        memo: &mut ResolveMemo,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        match memo.find(signature) {
            Some(slot) => {
                let entry = &mut memo.entries[slot];
                if entry.seen_anchors != self.count {
                    let since =
                        self.resolve_since(signature, tolerance, entry.seen_anchors, probes);
                    entry.resolved = match (entry.resolved, since) {
                        (Some((d_old, a_old)), Some((d_new, a_new))) => {
                            if d_new < d_old {
                                Some((d_new, a_new))
                            } else {
                                Some((d_old, a_old))
                            }
                        }
                        (None, since) => since,
                        (resolved, None) => resolved,
                    };
                    entry.seen_anchors = self.count;
                }
                entry.resolved
            }
            None => {
                let resolved = self.resolve_with_distance(signature, tolerance, probes);
                memo.insert(signature, self.count, resolved);
                resolved
            }
        }
    }

    /// Nearest anchor among those with ids ≥ `from_id` (the delta since a
    /// witnessed resolution), with the same tolerance and tie-break rules.
    fn resolve_since(
        &self,
        signature: &[f64],
        tolerance: f64,
        from_id: u32,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        let mut best: Option<(f64, u32)> = None;
        if self.dims > 0 && signature.len() == self.dims {
            let start = self.slab_ids.partition_point(|&id| id < from_id);
            for slot in start..self.slab_ids.len() {
                self.consider_slot(slot, signature, None, tolerance, &mut best, probes);
            }
        } else {
            self.scan_misfits(signature, tolerance, from_id, &mut best, probes);
        }
        best
    }

    /// Exact-checks the misfit anchors (ids ≥ `from_id`) against the query,
    /// with the same inclusive limit and lowest-id tie-break as
    /// [`consider_slot`](Self::consider_slot).
    fn scan_misfits(
        &self,
        signature: &[f64],
        tolerance: f64,
        from_id: u32,
        best: &mut Option<(f64, u32)>,
        probes: &mut u64,
    ) {
        for &(id, r) in &self.misfits {
            if id < from_id {
                continue;
            }
            *probes += 1;
            let values = self.misfit_slab.get(r);
            let limit = best.map_or(tolerance, |(d, _)| d.min(tolerance));
            if let Some(d) = normalized_distance_within(values, signature, limit) {
                if best.is_none_or(|(bd, bid)| d < bd || (d == bd && id < bid)) {
                    *best = Some((d, id));
                }
            }
        }
    }

    /// Exact-checks slab `slot` against the query, updating `best`. The
    /// bail-out bound tightens as better candidates are found but stays
    /// inclusive, so equal-distance candidates complete and the lowest-id
    /// tie-break stays exact. When the query's φ vector is available, a
    /// division-free φ-distance test (a necessary condition for matching
    /// within the current bound) screens the candidate first, so the
    /// division-heavy exact distance runs only on probable matches.
    #[allow(clippy::too_many_arguments)]
    fn consider_slot(
        &self,
        slot: usize,
        signature: &[f64],
        q_phi: Option<(&[f64], &mut (f64, f64))>,
        tolerance: f64,
        best: &mut Option<(f64, u32)>,
        probes: &mut u64,
    ) {
        *probes += 1;
        let id = self.slab_ids[slot];
        let at = slot * self.dims;
        let limit = best.map_or(tolerance, |(d, _)| d.min(tolerance));
        if let Some((q_phi, thresh_cache)) = q_phi {
            let thresh = self.cached_threshold(thresh_cache, limit);
            if thresh.is_finite()
                && Self::sq_dist_within(q_phi, &self.phi[at..at + self.dims], thresh * thresh)
                    .is_none()
            {
                return; // provably farther than `limit`
            }
        }
        if let Some(d) =
            normalized_distance_within(&self.centroids[at..at + self.dims], signature, limit)
        {
            if best.is_none_or(|(bd, bid)| d < bd || (d == bd && id < bid)) {
                *best = Some((d, id));
            }
        }
    }

    /// The φ-space pruning threshold for the current best distance `limit`:
    /// a ball whose nearest φ-point is farther than this provably contains
    /// only anchors with true distance > `limit`. Symmetric to the insertion
    /// bound: distance ≤ limit ⇒ ‖φ-diff‖ ≤ -ln(1 − limit·√n).
    fn phi_threshold(&self, limit: f64) -> f64 {
        let x = limit * (self.dims as f64).sqrt();
        if x >= 1.0 {
            f64::INFINITY
        } else {
            // Headroom for floating-point rounding between the φ mapping and
            // the exact distance check.
            -(1.0 - x).ln() * (1.0 + 1e-12) + 1e-12
        }
    }

    /// [`phi_threshold`](Self::phi_threshold) memoized on `limit`: the limit
    /// only changes when the best-so-far match improves, so the `ln` behind
    /// the threshold leaves the per-candidate inner loop.
    fn cached_threshold(&self, cache: &mut (f64, f64), limit: f64) -> f64 {
        if cache.0 != limit {
            *cache = (limit, self.phi_threshold(limit));
        }
        cache.1
    }

    /// Best-first branch-and-bound descent: visits the child whose ball is
    /// nearer to the query first, so the best-so-far distance (and with it
    /// the φ pruning radius) shrinks as early as possible. Pruned balls
    /// provably hold only anchors strictly farther than the current best, so
    /// the result — including the lowest-id tie-break — is identical to a
    /// full scan.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        ni: u32,
        dist_to_center_sq: f64,
        q_phi: &[f64],
        signature: &[f64],
        tolerance: f64,
        best: &mut Option<(f64, u32)>,
        thresh_cache: &mut (f64, f64),
        probes: &mut u64,
    ) {
        let node = self.nodes[ni as usize];
        let limit = best.map_or(tolerance, |(d, _)| d.min(tolerance));
        let thresh = self.cached_threshold(thresh_cache, limit);
        if thresh.is_finite() {
            let reach = thresh + node.radius;
            if dist_to_center_sq > reach * reach {
                return; // every member is provably farther than `limit`
            }
        }
        if node.len > 0 {
            for &slot in &self.order[node.start as usize..(node.start + node.len) as usize] {
                self.consider_slot(
                    slot as usize,
                    signature,
                    Some((q_phi, &mut *thresh_cache)),
                    tolerance,
                    best,
                    probes,
                );
            }
            return;
        }
        let center_of = |child: u32| {
            let at = self.nodes[child as usize].center as usize;
            &self.node_centers[at..at + self.dims]
        };
        let dl = Self::sq_dist_within(q_phi, center_of(node.left), f64::INFINITY)
            .expect("unbounded distance");
        let dr = Self::sq_dist_within(q_phi, center_of(node.right), f64::INFINITY)
            .expect("unbounded distance");
        if dl <= dr {
            self.descend(
                node.left,
                dl,
                q_phi,
                signature,
                tolerance,
                best,
                thresh_cache,
                probes,
            );
            self.descend(
                node.right,
                dr,
                q_phi,
                signature,
                tolerance,
                best,
                thresh_cache,
                probes,
            );
        } else {
            self.descend(
                node.right,
                dr,
                q_phi,
                signature,
                tolerance,
                best,
                thresh_cache,
                probes,
            );
            self.descend(
                node.left,
                dl,
                q_phi,
                signature,
                tolerance,
                best,
                thresh_cache,
                probes,
            );
        }
    }

    fn resolve_inner(
        &self,
        signature: &[f64],
        tolerance: f64,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        let mut best: Option<(f64, u32)> = None;
        if self.dims > 0 && signature.len() == self.dims {
            if self.radius_bound > 0.0 && !self.nodes.is_empty() {
                // The query's φ vector lives on the stack for the typical
                // catalogue width, so the lookup hot path stays allocation
                // free; pathological widths spill to the heap.
                let mut stack_buf = [0.0f64; PHI_STACK_DIMS];
                let mut heap_buf = Vec::new();
                let q_phi: &[f64] = if self.dims <= PHI_STACK_DIMS {
                    for (out, &v) in stack_buf.iter_mut().zip(signature) {
                        *out = log_mag(v);
                    }
                    &stack_buf[..self.dims]
                } else {
                    heap_buf.extend(signature.iter().map(|&v| log_mag(v)));
                    &heap_buf
                };
                let at = self.nodes[0].center as usize;
                let d0 = Self::sq_dist_within(
                    q_phi,
                    &self.node_centers[at..at + self.dims],
                    f64::INFINITY,
                )
                .expect("unbounded distance");
                // (limit, φ-threshold) memo, refreshed when `best` improves.
                let mut thresh_cache = (f64::NAN, f64::INFINITY);
                self.descend(
                    0,
                    d0,
                    q_phi,
                    signature,
                    tolerance,
                    &mut best,
                    &mut thresh_cache,
                    probes,
                );
                // Anchors added since the last rebuild: linear tail, checked
                // with the (by now tight) best-so-far bound.
                for slot in self.built..self.slab_ids.len() {
                    self.consider_slot(
                        slot,
                        signature,
                        Some((q_phi, &mut thresh_cache)),
                        tolerance,
                        &mut best,
                        probes,
                    );
                }
            } else {
                for slot in 0..self.slab_ids.len() {
                    self.consider_slot(slot, signature, None, tolerance, &mut best, probes);
                }
            }
            // Misfits have a different length, so they can never match here.
        } else {
            self.scan_misfits(signature, tolerance, 0, &mut best, probes);
        }
        best
    }

    fn push(&mut self, signature: &[f64], tolerance: f64) -> u32 {
        let id = self.count;
        self.count += 1;
        if self.dims == 0 && !signature.is_empty() {
            // First anchor fixes the namespace's signature dimensionality and
            // the φ-ball bound derived from it.
            self.dims = signature.len();
            self.radius_bound = phi_radius_bound(self.dims, tolerance);
        }
        if signature.len() == self.dims && self.dims > 0 {
            self.centroids.extend_from_slice(signature);
            self.phi.extend(signature.iter().map(|&v| log_mag(v)));
            self.slab_ids.push(id);
            // Rebuild once the linear tail outgrows a fifth of the indexed
            // part; growth thresholds depend only on the anchor count, so
            // index geometry is reproducible run to run.
            let n = self.slab_ids.len();
            if self.radius_bound > 0.0 && n >= 2 * LEAF_SIZE && n > self.built + self.built / 4 {
                self.rebuild();
            }
        } else {
            let r = self.misfit_slab.alloc(signature);
            self.misfits.push((id, r));
        }
        id
    }

    fn len(&self) -> usize {
        self.count as usize
    }

    /// All anchors as `(id, values)` in strictly increasing id order, merging
    /// the slab (already id-ordered) with the misfits — the canonical order
    /// the snapshot format stores.
    fn snapshot_anchors(&self) -> Vec<crate::snapshot::AnchorSnapshot> {
        let mut out = Vec::with_capacity(self.len());
        let mut slab = 0usize;
        let mut misfit = 0usize;
        while slab < self.slab_ids.len() || misfit < self.misfits.len() {
            let take_slab = match (self.slab_ids.get(slab), self.misfits.get(misfit)) {
                (Some(&s), Some((m, _))) => s < *m,
                (Some(_), None) => true,
                _ => false,
            };
            if take_slab {
                let at = slab * self.dims;
                out.push(crate::snapshot::AnchorSnapshot {
                    id: self.slab_ids[slab],
                    values: self.centroids[at..at + self.dims].to_vec(),
                });
                slab += 1;
            } else {
                let (id, r) = self.misfits[misfit];
                out.push(crate::snapshot::AnchorSnapshot {
                    id,
                    values: self.misfit_slab.get(r).to_vec(),
                });
                misfit += 1;
            }
        }
        out
    }

    /// Reconstructs an anchor set from snapshot anchors (id order), exactly as
    /// if they had been [`push`](Self::push)ed one by one: the first non-empty
    /// anchor fixes `dims` and the φ bound, same-length anchors form the slab,
    /// everything else becomes a misfit. The ball tree is rebuilt from
    /// scratch; resolution is provably independent of index geometry.
    fn restore(
        anchors: &[crate::snapshot::AnchorSnapshot],
        tolerance: f64,
    ) -> Result<AnchorSet, String> {
        for (i, a) in anchors.iter().enumerate() {
            if a.id as usize != i {
                return Err(format!(
                    "anchor ids must be dense and ordered (found id {} at position {i})",
                    a.id
                ));
            }
        }
        let dims = anchors
            .iter()
            .find(|a| !a.values.is_empty())
            .map_or(0, |a| a.values.len());
        let mut set = AnchorSet {
            dims,
            radius_bound: phi_radius_bound(dims, tolerance),
            count: anchors.len() as u32,
            ..AnchorSet::default()
        };
        for a in anchors {
            if dims > 0 && a.values.len() == dims {
                set.centroids.extend_from_slice(&a.values);
                set.phi.extend(a.values.iter().map(|&v| log_mag(v)));
                set.slab_ids.push(a.id);
            } else {
                let r = set.misfit_slab.alloc(&a.values);
                set.misfits.push((a.id, r));
            }
        }
        set.rebuild();
        Ok(set)
    }
}

/// Memoized signatures kept per [`ResolveMemo`]; class-medoid sets are
/// small, and a bounded memo keeps the replacement policy deterministic.
const MEMO_CAPACITY: usize = 32;

/// Memo of anchor resolutions for signatures that recur lookup after lookup
/// (a tenant's class medoids). Correctness rests on the same two invariants
/// the epoch-commit witness check uses: anchors only **accrete** (ids are
/// never removed or renumbered), and a newer anchor displaces a witnessed
/// resolution only when it is **strictly closer** (equal distances tie-break
/// toward the lower, i.e. older, id). A result recorded against
/// `seen_anchors` anchors therefore stays exact after revalidating just the
/// anchors created since — bit-identical to a full resolution
/// (property-tested in `tests/properties.rs`).
///
/// A memo is bound to one namespace (handing it a different namespace
/// clears it) and must only be used against one repository.
#[derive(Debug, Default)]
pub struct ResolveMemo {
    /// The namespace the memo is bound to; rebinding clears it.
    namespace: Option<u64>,
    entries: Vec<MemoEntry>,
    /// Memoized signatures, packed in one arena slab instead of one heap
    /// vector per entry: fixed-dimension signatures are overwritten in
    /// place on replacement, so a full memo stops allocating entirely.
    slab: SignatureArena,
    /// Deterministic round-robin replacement cursor.
    cursor: usize,
}

#[derive(Debug)]
struct MemoEntry {
    signature: SigRef,
    /// Anchor count of the namespace when `resolved` was last validated.
    seen_anchors: u32,
    /// The witnessed resolution: `(distance, anchor id)`; `None` is a
    /// (still-cacheable) miss.
    resolved: Option<(f64, u32)>,
}

impl ResolveMemo {
    /// Binds the memo to `namespace`, clearing it when rebound.
    fn bind(&mut self, namespace: u64) {
        if self.namespace != Some(namespace) {
            self.entries.clear();
            self.slab.clear();
            self.cursor = 0;
            self.namespace = Some(namespace);
        }
    }

    /// Finds the entry whose signature is bit-identical to `signature`.
    fn find(&self, signature: &[f64]) -> Option<usize> {
        self.entries.iter().position(|e| {
            let stored = self.slab.get(e.signature);
            stored.len() == signature.len()
                && stored
                    .iter()
                    .zip(signature)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    }

    fn insert(&mut self, signature: &[f64], seen_anchors: u32, resolved: Option<(f64, u32)>) {
        if self.entries.len() < MEMO_CAPACITY {
            self.entries.push(MemoEntry {
                signature: self.slab.alloc(signature),
                seen_anchors,
                resolved,
            });
        } else {
            let slot = &mut self.entries[self.cursor];
            slot.signature = self.slab.overwrite(slot.signature, signature);
            slot.seen_anchors = seen_anchors;
            slot.resolved = resolved;
            self.cursor = (self.cursor + 1) % MEMO_CAPACITY;
        }
    }

    /// Drains the bytes the memo's slab served from retained memory (the
    /// `scratch_bytes_saved` flight-recorder counter).
    pub fn take_bytes_saved(&mut self) -> u64 {
        self.slab.take_bytes_saved()
    }

    /// Memoized signatures currently held (diagnostic surface).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[derive(Debug, Default, Clone)]
struct NamespaceState {
    anchors: AnchorSet,
    entries: FlatMap<EntryKey, StoredEntry>,
    /// The shard's [`ShardState::mutation_clock`] value at this namespace's
    /// last mutation. Incremental delta capture compares it against the
    /// cursor's recorded value to decide whether the namespace changed since
    /// the previous checkpoint. `0` means "never mutated since creation".
    version: u64,
}

impl NamespaceState {
    fn resolve_or_create(&mut self, signature: &[f64], tolerance: f64, created: &mut u64) -> u32 {
        if let Some(id) = self.anchors.resolve(signature, tolerance, &mut 0) {
            return id;
        }
        *created += 1;
        self.anchors.push(signature, tolerance)
    }
}

#[derive(Debug, Default)]
struct ShardState {
    /// Namespaces are held through `Arc`s so publishing a read snapshot is
    /// one map-of-pointers clone; write paths mutate through
    /// [`Arc::make_mut`], cloning a namespace only when the published
    /// generation still references it (at most once per namespace per
    /// publish interval).
    namespaces: FlatMap<u64, Arc<NamespaceState>>,
    /// Monotone mutation stamp source for delta capture: bumped on every
    /// namespace mutation under the write lock and **never reset** — not
    /// even when a lost shard is wiped and re-seeded — so a namespace
    /// version is unique per distinct state and a capture cursor can never
    /// mistake a re-mutated namespace for an unchanged one (ABA).
    mutation_clock: u64,
}

/// A wait-free single-writer snapshot cell: readers run against the most
/// recently published value without ever blocking; writers (serialized
/// externally, by the shard write lock) publish a new value and wait only
/// for stragglers still pinning the slot being recycled.
///
/// Two slots alternate as the active value. A reader pins the active slot
/// (increments its pin count), re-checks that the slot is still the active
/// one (a publish may have raced the pin), reads through the pin, and
/// unpins. A writer stages the new value into the *inactive* slot —
/// spinning until readers still pinning it drain — then flips `active`.
/// All the cell's atomics are sequentially consistent, which closes the
/// classic recycling race: for a reader's re-check to pass, the flip that
/// activated the slot must be ordered before it, so the staging write is
/// visible in full; and once the reader's pin is visible, the writer will
/// not restage that slot until the pin drops.
///
/// Readers retry only when a publish flips slots between their load and
/// pin — publishes are commit-grained, so the read path is wait-free in
/// practice and never takes a lock. The writer may briefly spin on a
/// reader's pin, which is the right side of the bargain for a read-mostly
/// store.
struct SnapCell<T> {
    active: AtomicUsize,
    pins: [AtomicUsize; 2],
    slots: [UnsafeCell<Arc<T>>; 2],
}

// Readers on any thread dereference a slot's Arc under a pin; the writer
// only restages a slot that is inactive and unpinned.
unsafe impl<T: Send + Sync> Send for SnapCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapCell<T> {}

impl<T> SnapCell<T> {
    fn new(initial: Arc<T>) -> Self {
        SnapCell {
            active: AtomicUsize::new(0),
            pins: [AtomicUsize::new(0), AtomicUsize::new(0)],
            slots: [
                UnsafeCell::new(Arc::clone(&initial)),
                UnsafeCell::new(initial),
            ],
        }
    }

    /// Runs `f` against the current published value without blocking.
    fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let mut f = Some(f);
        loop {
            let idx = self.active.load(SeqCst);
            self.pins[idx].fetch_add(1, SeqCst);
            if self.active.load(SeqCst) == idx {
                // Pinned while active: the writer recycles a slot only
                // after observing zero pins, so the value stays intact for
                // the duration of `f`.
                let value = unsafe { &*self.slots[idx].get() };
                let out = (f.take().expect("at most one success"))(value);
                self.pins[idx].fetch_sub(1, SeqCst);
                return out;
            }
            // A publish flipped slots between the load and the pin; undo
            // the pin and retry against the new active slot.
            self.pins[idx].fetch_sub(1, SeqCst);
        }
    }

    /// Publishes `value` as the new active snapshot. Callers must be
    /// serialized (the shard write lock); waits for readers still pinning
    /// the slot being recycled.
    fn publish(&self, value: Arc<T>) {
        let next = 1 - self.active.load(SeqCst);
        while self.pins[next].load(SeqCst) != 0 {
            std::hint::spin_loop();
        }
        unsafe {
            *self.slots[next].get() = value;
        }
        self.active.store(next, SeqCst);
    }
}

impl<T> std::fmt::Debug for SnapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapCell").finish_non_exhaustive()
    }
}

/// The published, read-side image of one shard: its namespace map at the
/// last write-path publish.
type ReadSnapshot = FlatMap<u64, Arc<NamespaceState>>;

#[derive(Debug)]
struct Shard {
    state: RwLock<ShardState>,
    counters: ShardCounters,
    /// The wait-free read image; republished under the write lock at the
    /// end of every write path, so outside a writer's critical section it
    /// is always identical to `state.namespaces`.
    published: SnapCell<ReadSnapshot>,
    /// Earliest `tuned_at` any live entry of this shard may have (IEEE bits
    /// of a non-negative `f64`; `+inf` = provably empty). A conservative
    /// lower bound maintained by `fetch_min` on writes and recomputed
    /// exactly by sweeps: the TTL sweep skips the shard's write lock
    /// entirely while `now - watermark ≤ ttl`, since no entry can be stale.
    earliest_tuned: AtomicU64,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            state: RwLock::new(ShardState::default()),
            counters: ShardCounters::default(),
            published: SnapCell::new(Arc::new(FlatMap::new())),
            earliest_tuned: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

impl Shard {
    /// Republishes the shard's namespace map to the wait-free read cell.
    /// Must be called with the shard write lock held — writers are the
    /// cell's only publishers and the lock serializes them.
    fn publish(&self, state: &ShardState) {
        self.published.publish(Arc::new(state.namespaces.clone()));
    }

    /// Lowers the earliest-expiry watermark to cover an entry tuned at
    /// `tuned_at` (non-negative `f64` bits order like the floats, so
    /// integer `fetch_min` is a numeric min).
    fn note_tuned_at(&self, tuned_at: SimTime) {
        self.earliest_tuned
            .fetch_min(tuned_at.as_secs().max(0.0).to_bits(), Relaxed);
    }
}

/// Relative per-dimension distance between two signatures, normalized so that
/// "x% apart in every metric" yields roughly `x/100` regardless of metric
/// magnitudes. Signatures of different lengths never match.
pub fn normalized_distance(a: &[f64], b: &[f64]) -> f64 {
    normalized_distance_within(a, b, f64::INFINITY).unwrap_or(f64::INFINITY)
}

/// Early-exit form of [`normalized_distance`]: returns the distance if it is
/// at most `limit`, or `None` if it exceeds `limit` — bailing out of the
/// accumulation as soon as the partial sum proves the outcome. Acceptance is
/// decided on the final `sqrt(sum/n)` value itself, so the returned distance
/// and the accept/reject outcome always agree with computing
/// `normalized_distance(a, b)` and comparing it with `limit`.
///
/// The per-dimension accumulation runs on the lane-parallel chunked kernels
/// of [`dejavu_ml::kernels`] (the independent per-dimension divides are what
/// the vector units want).
pub fn normalized_distance_within(a: &[f64], b: &[f64], limit: f64) -> Option<f64> {
    if a.len() != b.len() || a.is_empty() {
        return None;
    }
    // Conservative bail-out: d ≤ limit implies sum ≤ limit²·n up to a few
    // ulps of the division/sqrt chain, so inflate the bound slightly — the
    // exact `d ≤ limit` test below is the authoritative decision, and the
    // inflation only means a borderline candidate completes its accumulation.
    let bound = limit * limit * a.len() as f64 * (1.0 + 1e-12);
    let sum = dejavu_ml::kernels::normalized_sq_sum(a, b, MAG_FLOOR, bound)?;
    let d = (sum / a.len() as f64).sqrt();
    if d <= limit {
        Some(d)
    } else {
        None
    }
}

/// Stable namespace id for tenants that can share entries: same service kind,
/// same request mix (quantized) and same allocation space.
pub fn namespace_for(kind: ServiceKind, mix: RequestMix, space: &AllocationSpace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(match kind {
        ServiceKind::Cassandra => 1,
        ServiceKind::SpecWeb => 2,
        ServiceKind::Rubis => 3,
    });
    for b in ((mix.read_fraction() * 1000.0).round() as u32).to_le_bytes() {
        eat(b);
    }
    for c in space.candidates() {
        for b in c.count().to_le_bytes() {
            eat(b);
        }
        for b in (c.capacity_units().to_bits()).to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Deterministic namespace → shard routing, as a pure function of the shard
/// count. Shared with the snapshot layer so delta application can keep
/// `RepoSnapshot::namespaces` in the same (shard, namespace id) order the
/// encoder emits.
pub fn shard_of_namespace(namespace: u64, shards: usize) -> usize {
    // SplitMix64 finalizer: spreads consecutive namespace ids.
    let mut z = namespace.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z % shards.max(1) as u64) as usize
}

/// Per-shard change cursor for incremental delta capture: remembers, per
/// namespace, the mutation-clock stamp last checkpointed, so each
/// [`SharedSignatureRepository::capture_shard_delta`] carries only the
/// namespaces that actually changed since the previous capture. One cursor
/// belongs to one shard of one repository; sharing it across shards would
/// conflate their independent mutation clocks.
#[derive(Debug, Default, Clone)]
pub struct DeltaCursor {
    seen: std::collections::HashMap<u64, u64>,
}

impl DeltaCursor {
    /// Forgets one namespace's checkpointed stamp, forcing the next
    /// [`SharedSignatureRepository::capture_shard_delta`] through this
    /// cursor to carry the namespace's full current image even though its
    /// mutation clock has not moved. The serving layer needs this for
    /// read-path hit accounting: a wire `Lookup` bumps entry hit counters
    /// through relaxed atomics without touching the namespace's mutation
    /// clock (the read path is wait-free), so a durable capture that should
    /// persist those counters must be told about the namespace explicitly.
    pub fn invalidate(&mut self, namespace: u64) {
        self.seen.remove(&namespace);
    }
}

/// The fleet-shared, sharded signature repository.
pub struct SharedSignatureRepository {
    shards: Vec<Shard>,
    config: SharedRepoConfig,
    /// High-water mark of the global fleet times this repository has seen
    /// (IEEE bits of a non-negative `f64`, so `fetch_max` on the bits is a
    /// numeric max). Persisted as the snapshot clock: a warm start resumes
    /// the fleet clock here instead of resetting entry ages to zero.
    clock: AtomicU64,
    /// The flight recorder the repository's hot paths record into
    /// (lookup/peek/publish latency, ball-tree visits, memo hit rate).
    /// Disabled by default: probes fold to a null check and never influence
    /// results, so runs are bit-identical with obs on or off.
    recorder: Recorder,
}

impl std::fmt::Debug for SharedSignatureRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSignatureRepository")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

impl SharedSignatureRepository {
    /// Creates an empty repository with the given sharding configuration.
    pub fn new(config: SharedRepoConfig) -> Self {
        let shards = config.shards.max(1);
        SharedSignatureRepository {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            config,
            clock: AtomicU64::new(0.0f64.to_bits()),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a flight recorder to the repository's instrumented hot
    /// paths. Call before sharing the repository (it consumes `self`);
    /// clones of one recorder share storage, so the same handle can also be
    /// given to the fleet engine via `FleetConfig::recorder`.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The recorder attached via [`Self::with_recorder`] (disabled by
    /// default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Advances the repository's clock high-water mark to at least `now`.
    fn advance_clock(&self, now: SimTime) {
        self.clock
            .fetch_max(now.as_secs().max(0.0).to_bits(), Relaxed);
    }

    /// The latest global fleet time the repository has seen (via inserts,
    /// commits and TTL sweeps). [`FleetEngine::run_on`](crate::FleetEngine)
    /// resumes a warm-started fleet's clock here.
    pub fn clock(&self) -> SimTime {
        SimTime::from_secs(f64::from_bits(self.clock.load(Relaxed)))
    }

    /// The configuration the repository was built with.
    pub fn config(&self) -> &SharedRepoConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard routing: every key of `namespace` lives in the
    /// returned shard, so one lock covers anchor resolution plus the entry.
    pub fn shard_index(&self, namespace: u64) -> usize {
        shard_of_namespace(namespace, self.shards.len())
    }

    fn is_stale(&self, tuned_at: SimTime, now: SimTime) -> bool {
        match self.config.ttl {
            Some(ttl) => now.saturating_since(tuned_at).as_secs() > ttl.as_secs(),
            None => false,
        }
    }

    /// Inserts an allocation decision, creating an anchor for the signature
    /// if none matches. Thread-safe; takes the shard write lock.
    ///
    /// When a fresh entry already exists at the same anchor × bucket, the
    /// larger allocation wins — mirroring the controller's max-over-members
    /// seeding policy, so a tenant tuned against a slightly lighter workload
    /// within the anchor tolerance cannot silently shrink an entry other
    /// tenants rely on. The tuning time still advances (the entry was
    /// reconfirmed), and reuse counters survive.
    pub fn insert(
        &self,
        tenant: TenantId,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        allocation: ResourceAllocation,
        tuned_at: SimTime,
    ) {
        self.advance_clock(tuned_at);
        let started = self.recorder.start();
        let shard = &self.shards[self.shard_index(namespace)];
        let mut state = shard
            .state
            .write()
            .expect("shared repository shard poisoned");
        Self::insert_locked(
            &mut state,
            shard,
            &self.config,
            tenant,
            namespace,
            signature,
            interference_bucket,
            allocation,
            tuned_at,
        );
        shard.publish(&state);
        self.recorder.observe(started, |m| &m.publish_ns);
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_locked(
        state: &mut ShardState,
        shard: &Shard,
        config: &SharedRepoConfig,
        tenant: TenantId,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        allocation: ResourceAllocation,
        tuned_at: SimTime,
    ) {
        let counters = &shard.counters;
        let mut created = 0u64;
        state.mutation_clock += 1;
        let stamp = state.mutation_clock;
        let ns = Arc::make_mut(
            state
                .namespaces
                .get_mut_or_insert_with(namespace, || Arc::new(NamespaceState::default())),
        );
        ns.version = stamp;
        let anchor = ns.resolve_or_create(signature, config.match_tolerance, &mut created);
        let key = EntryKey {
            anchor,
            interference_bucket,
        };
        match ns.entries.get_mut(&key) {
            Some(existing) => {
                let stale = match config.ttl {
                    Some(ttl) => {
                        tuned_at.saturating_since(existing.tuned_at).as_secs() > ttl.as_secs()
                    }
                    None => false,
                };
                if stale || allocation.capacity_units() >= existing.allocation.capacity_units() {
                    existing.allocation = allocation;
                    existing.owner = tenant;
                }
                existing.tuned_at = existing.tuned_at.max(tuned_at);
            }
            None => {
                ns.entries.insert(
                    key,
                    StoredEntry {
                        allocation,
                        tuned_at,
                        owner: tenant,
                        hits: Arc::new(AtomicU64::new(0)),
                        cross_tenant_hits: Arc::new(AtomicU64::new(0)),
                    },
                );
            }
        }
        // `tuned_at` lower-bounds the written entry's final tuning time, so
        // the watermark stays a conservative earliest-expiry bound.
        shard.note_tuned_at(tuned_at);
        counters.insertions.inc();
        counters.anchors_created.add(created);
    }

    /// Looks up the entry matching `signature` × `interference_bucket`,
    /// counting hit/miss and reuse statistics. Thread-safe and
    /// **wait-free**: resolves against the shard's published snapshot
    /// instead of its lock — statistics move through relaxed atomics shared
    /// across snapshot generations, and a stale entry merely misses (the
    /// epoch TTL sweep evicts it later), so concurrent lookups never block
    /// on each other or on a committer mid-write.
    pub fn lookup(
        &self,
        tenant: TenantId,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
    ) -> Option<SharedEntry> {
        let started = self.recorder.start();
        let mut probes = 0u64;
        let shard = &self.shards[self.shard_index(namespace)];
        let snapshot = shard.published.with(|namespaces| {
            let entry = namespaces
                .get(&namespace)
                .and_then(|ns| {
                    ns.anchors
                        .resolve(signature, self.config.match_tolerance, &mut probes)
                        .map(|anchor| (ns, anchor))
                })
                .and_then(|(ns, anchor)| {
                    ns.entries.get(&EntryKey {
                        anchor,
                        interference_bucket,
                    })
                })
                // A stale entry misses; eviction is the TTL sweep's job.
                .filter(|entry| !self.is_stale(entry.tuned_at, now))?;
            let hits = entry.hits.fetch_add(1, Relaxed) + 1;
            shard.counters.hits.inc();
            let mut snapshot = entry.snapshot();
            snapshot.hits = hits;
            if entry.owner != tenant {
                snapshot.cross_tenant_hits = entry.cross_tenant_hits.fetch_add(1, Relaxed) + 1;
                shard.counters.cross_tenant_hits.inc();
            }
            Some(snapshot)
        });
        self.recorder.observe(started, |m| &m.lookup_ns);
        self.recorder.with(|m| m.tree_visits.record(probes));
        if snapshot.is_none() {
            shard.counters.misses.inc();
        }
        snapshot
    }

    /// Read-only lookup for the epoch-buffered tenant views: no statistics
    /// move, entries owned by `exclude_owner` are invisible (a tenant's own
    /// entries live in its local overlay), stale entries are filtered but not
    /// evicted. Wait-free: reads the shard's published snapshot, so an
    /// epoch's worth of concurrent tenant reads never serialize — not even
    /// against a committer holding the shard write lock.
    pub fn peek(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
    ) -> Option<SharedEntry> {
        self.peek_resolved(
            namespace,
            signature,
            interference_bucket,
            now,
            exclude_owner,
        )
        .map(|(entry, _)| entry)
    }

    /// [`peek`](Self::peek), additionally returning the `(anchor id, anchor
    /// count, distance)` the resolution went through — the witness a buffered
    /// [`PendingOp::RecordHit`] carries so the epoch commit only has to check
    /// anchors created after the peek instead of re-resolving the namespace.
    pub fn peek_resolved(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        let started = self.recorder.start();
        let mut probes = 0u64;
        let result = self.shards[self.shard_index(namespace)]
            .published
            .with(|namespaces| {
                let ns = namespaces.get(&namespace)?;
                let resolution = ns.anchors.resolve_with_distance(
                    signature,
                    self.config.match_tolerance,
                    &mut probes,
                )?;
                self.peek_entry(ns, resolution, interference_bucket, now, exclude_owner)
            });
        self.recorder.observe(started, |m| &m.peek_ns);
        self.recorder.with(|m| m.tree_visits.record(probes));
        result
    }

    /// Shared tail of both peek paths: entry lookup, staleness and
    /// owner-exclusion filtering, snapshot + witness construction for an
    /// already-resolved `(distance, anchor)`. One implementation keeps the
    /// cached and uncached peeks semantically identical by construction.
    fn peek_entry(
        &self,
        ns: &NamespaceState,
        (distance, anchor): (f64, u32),
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        let entry = ns.entries.get(&EntryKey {
            anchor,
            interference_bucket,
        })?;
        if self.is_stale(entry.tuned_at, now) {
            return None;
        }
        if exclude_owner == Some(entry.owner) {
            return None;
        }
        Some((entry.snapshot(), (anchor, ns.anchors.count, distance)))
    }

    /// [`peek_resolved`](Self::peek_resolved) with the anchor resolution
    /// served through a caller-held [`ResolveMemo`] — the hot path for
    /// controllers that peek the same class-medoid signatures tick after
    /// tick. Answers (and witnesses) are bit-identical to the uncached path;
    /// only the work of re-deriving them is skipped.
    pub fn peek_resolved_cached(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
        memo: &mut ResolveMemo,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        memo.bind(namespace);
        let started = self.recorder.start();
        // The memo-hit probe re-runs the (≤ 32-entry) memo scan, but only
        // with obs enabled — the disabled path never touches it.
        self.recorder.with(|m| {
            if memo.find(signature).is_some() {
                m.memo_hits.inc();
            } else {
                m.memo_misses.inc();
            }
        });
        let mut probes = 0u64;
        let result = self.shards[self.shard_index(namespace)]
            .published
            .with(|namespaces| {
                let ns = namespaces.get(&namespace)?;
                let resolution = ns.anchors.resolve_memoized(
                    signature,
                    self.config.match_tolerance,
                    memo,
                    &mut probes,
                )?;
                self.peek_entry(ns, resolution, interference_bucket, now, exclude_owner)
            });
        self.recorder.observe(started, |m| &m.peek_ns);
        self.recorder.with(|m| {
            m.tree_visits.record(probes);
            m.scratch_bytes_saved.add(memo.take_bytes_saved());
        });
        result
    }

    /// Resolves `signature` to its anchor id within `namespace`, if any
    /// anchor lies within the configured match tolerance. Diagnostic /
    /// testing surface for the indexed resolution: results are exactly those
    /// of a brute-force nearest-anchor scan with ties broken toward the
    /// lowest anchor id.
    pub fn resolve_anchor(&self, namespace: u64, signature: &[f64]) -> Option<u32> {
        self.shards[self.shard_index(namespace)]
            .published
            .with(|namespaces| {
                namespaces.get(&namespace)?.anchors.resolve(
                    signature,
                    self.config.match_tolerance,
                    &mut 0,
                )
            })
    }

    /// Applies a buffered operation (epoch-barrier commit path). Returns true
    /// if the operation took effect — in particular, whether a `RecordHit`
    /// still found its entry (a publish committed earlier in the same barrier
    /// can re-anchor the namespace, in which case the hit is not recorded and
    /// the caller must not count it either).
    pub fn apply(&self, op: &PendingOp) -> bool {
        if let PendingOp::Publish { tuned_at, .. } = op {
            self.advance_clock(*tuned_at);
        }
        let started = matches!(op, PendingOp::Publish { .. })
            .then(|| self.recorder.start())
            .flatten();
        let shard = &self.shards[self.shard_index(op.namespace())];
        let mut state = shard
            .state
            .write()
            .expect("shared repository shard poisoned");
        let applied = Self::apply_locked(&mut state, shard, &self.config, op);
        shard.publish(&state);
        self.recorder.observe(started, |m| &m.publish_ns);
        applied
    }

    /// Applies a whole epoch's buffered operations, grouped so each shard's
    /// write lock is taken **once** rather than once per operation. Within a
    /// shard, operations apply in their order in `ops` (the fleet engine
    /// passes them in tenant order), and operations on different shards touch
    /// disjoint namespaces, so the outcome is identical to applying `ops`
    /// sequentially. Returns one applied-flag per operation, in input order.
    pub fn apply_batch(&self, ops: &[PendingOp]) -> Vec<bool> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, op) in ops.iter().enumerate() {
            if let PendingOp::Publish { tuned_at, .. } = op {
                self.advance_clock(*tuned_at);
            }
            by_shard[self.shard_index(op.namespace())].push(i);
        }
        let mut applied = vec![false; ops.len()];
        for (shard, indices) in self.shards.iter().zip(by_shard) {
            if indices.is_empty() {
                continue;
            }
            let mut state = shard
                .state
                .write()
                .expect("shared repository shard poisoned");
            for i in indices {
                let started = matches!(ops[i], PendingOp::Publish { .. })
                    .then(|| self.recorder.start())
                    .flatten();
                applied[i] = Self::apply_locked(&mut state, shard, &self.config, &ops[i]);
                self.recorder.observe(started, |m| &m.publish_ns);
            }
            shard.publish(&state);
        }
        applied
    }

    fn apply_locked(
        state: &mut ShardState,
        shard: &Shard,
        config: &SharedRepoConfig,
        op: &PendingOp,
    ) -> bool {
        let counters = &shard.counters;
        match op {
            PendingOp::Publish {
                tenant,
                namespace,
                signature,
                interference_bucket,
                allocation,
                tuned_at,
            } => {
                Self::insert_locked(
                    state,
                    shard,
                    config,
                    *tenant,
                    *namespace,
                    signature,
                    *interference_bucket,
                    *allocation,
                    *tuned_at,
                );
                true
            }
            PendingOp::RecordHit {
                tenant,
                namespace,
                signature,
                interference_bucket,
                resolved,
            } => {
                state.mutation_clock += 1;
                let stamp = state.mutation_clock;
                let Some(ns) = state.namespaces.get_mut(namespace) else {
                    return false;
                };
                let ns = Arc::make_mut(ns);
                // Reuse the peek-time resolution: anchors only accrete and
                // distance ties go to older (lower) ids, so the witnessed
                // anchor can only be displaced by a strictly closer anchor
                // created since the peek — check just that delta.
                let anchor = match resolved {
                    Some((anchor, count, distance)) => {
                        match ns.anchors.resolve_since(
                            signature,
                            config.match_tolerance,
                            *count,
                            &mut 0,
                        ) {
                            Some((d_new, a_new)) if d_new < *distance => Some(a_new),
                            _ => Some(*anchor),
                        }
                    }
                    None => ns
                        .anchors
                        .resolve(signature, config.match_tolerance, &mut 0),
                };
                let Some(anchor) = anchor else {
                    return false;
                };
                let Some(entry) = ns.entries.get(&EntryKey {
                    anchor,
                    interference_bucket: *interference_bucket,
                }) else {
                    return false;
                };
                entry.hits.fetch_add(1, Relaxed);
                counters.hits.inc();
                if entry.owner != *tenant {
                    entry.cross_tenant_hits.fetch_add(1, Relaxed);
                    counters.cross_tenant_hits.inc();
                }
                // The hit counters live inside the namespace's entries, so a
                // recorded hit is a namespace change for delta capture.
                ns.version = stamp;
                true
            }
            PendingOp::RecordMiss { .. } => {
                counters.misses.inc();
                true
            }
        }
    }

    /// Removes every entry older than the configured TTL. Returns how many
    /// entries were evicted. Advances the repository clock either way; the
    /// eviction itself is a no-op without a TTL.
    ///
    /// This sweep is the only place stale entries leave the store: the read
    /// path treats them as misses but does not evict, which is what lets it
    /// stay wait-free — it reads each shard's published snapshot and never
    /// takes the shard lock.
    pub fn evict_stale(&self, now: SimTime) -> u64 {
        self.advance_clock(now);
        let Some(ttl) = self.config.ttl else { return 0 };
        self.shards
            .iter()
            .map(|shard| Self::sweep_shard(shard, ttl, now))
            .sum()
    }

    /// [`evict_stale`](Self::evict_stale) for a single shard: the hook the
    /// per-shard commit frontiers use, so a shard whose epoch batch committed
    /// ahead of the rest of the fleet is swept **at its own frontier's
    /// timestamp** instead of at the (earlier) fleet-wide epoch — otherwise a
    /// buffered cross-tenant hit committing in the shard's next epoch could
    /// land on an entry the fleet-wide sweep should already have reclaimed,
    /// resurrecting it in the statistics. Entries in other shards are
    /// untouched.
    pub fn evict_stale_shard(&self, shard: usize, now: SimTime) -> u64 {
        self.advance_clock(now);
        let Some(ttl) = self.config.ttl else { return 0 };
        Self::sweep_shard(&self.shards[shard], ttl, now)
    }

    fn sweep_shard(shard: &Shard, ttl: SimDuration, now: SimTime) -> u64 {
        // Clean-shard fast path: the watermark lower-bounds every live
        // entry's `tuned_at`, so while even the watermark is within TTL the
        // sweep provably evicts nothing — skip the write lock entirely.
        // (`+inf` marks a shard with no entries at all.) Bit-identical to
        // always sweeping: a skipped sweep evicts 0 and mutates nothing,
        // exactly what the full pass would have done.
        let watermark = f64::from_bits(shard.earliest_tuned.load(Relaxed));
        if !watermark.is_finite()
            || now
                .saturating_since(SimTime::from_secs(watermark))
                .as_secs()
                <= ttl.as_secs()
        {
            return 0;
        }
        let mut state = shard
            .state
            .write()
            .expect("shared repository shard poisoned");
        let state = &mut *state;
        let mut evicted = 0u64;
        let mut earliest = f64::INFINITY;
        for ns in state.namespaces.values_mut() {
            // Copy-on-write discipline: only namespaces that actually lose
            // an entry are cloned away from the published generation.
            let stale = ns
                .entries
                .values()
                .any(|e| now.saturating_since(e.tuned_at).as_secs() > ttl.as_secs());
            if stale {
                let ns = Arc::make_mut(ns);
                let before = ns.entries.len();
                ns.entries
                    .retain(|_, e| now.saturating_since(e.tuned_at).as_secs() <= ttl.as_secs());
                let gone = (before - ns.entries.len()) as u64;
                if gone > 0 {
                    state.mutation_clock += 1;
                    ns.version = state.mutation_clock;
                }
                evicted += gone;
            }
            for e in ns.entries.values() {
                earliest = earliest.min(e.tuned_at.as_secs());
            }
        }
        // The sweep visited every entry anyway: reset the watermark to the
        // exact minimum so monotone `fetch_min` drift can't accrete.
        shard
            .earliest_tuned
            .store(earliest.max(0.0).to_bits(), Relaxed);
        shard.counters.evictions.add(evicted);
        if evicted > 0 {
            shard.publish(state);
        }
        evicted
    }

    /// Total number of entries across all shards (wait-free, from the
    /// published snapshots).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.published.with(|namespaces| {
                    namespaces
                        .values()
                        .map(|ns| ns.entries.len())
                        .sum::<usize>()
                })
            })
            .sum()
    }

    /// Returns true if no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of anchors (distinct workload classes) across all shards
    /// (wait-free, from the published snapshots).
    pub fn anchor_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.published.with(|namespaces| {
                    namespaces
                        .values()
                        .map(|ns| ns.anchors.len())
                        .sum::<usize>()
                })
            })
            .sum()
    }

    /// Per-shard statistics snapshot.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.counters.snapshot()).collect()
    }

    /// Captures the complete repository state as plain data — configuration,
    /// every namespace's anchors and entries, per-shard statistics. Meant to
    /// be taken between epochs (no writers in flight); the φ-space anchor
    /// index is not captured (it is rebuilt on restore).
    pub fn to_snapshot(&self) -> crate::snapshot::RepoSnapshot {
        let mut namespaces = Vec::new();
        for shard in &self.shards {
            let state = shard
                .state
                .read()
                .expect("shared repository shard poisoned");
            for (&ns_id, ns) in state.namespaces.iter() {
                namespaces.push(Self::snapshot_namespace(ns_id, ns));
            }
        }
        crate::snapshot::RepoSnapshot {
            shards: self.shards.len(),
            match_tolerance: self.config.match_tolerance,
            ttl_secs: self.config.ttl.map(|d| d.as_secs()),
            clock_secs: self.clock().as_secs(),
            namespaces,
            shard_stats: self.shard_stats(),
        }
    }

    /// Plain-data image of one namespace (shared by the full snapshot and
    /// the incremental delta capture).
    fn snapshot_namespace(ns_id: u64, ns: &NamespaceState) -> crate::snapshot::NamespaceSnapshot {
        let entries = ns
            .entries
            .iter()
            .map(|(key, e)| crate::snapshot::EntrySnapshot {
                anchor: key.anchor,
                bucket: key.interference_bucket,
                allocation: e.allocation,
                tuned_at_secs: e.tuned_at.as_secs(),
                owner: e.owner,
                hits: e.hits.load(Relaxed),
                cross_tenant_hits: e.cross_tenant_hits.load(Relaxed),
            })
            .collect();
        crate::snapshot::NamespaceSnapshot {
            id: ns_id,
            anchors: ns.anchors.snapshot_anchors(),
            entries,
        }
    }

    /// Rebuilds one namespace's live state from its snapshot image (shared
    /// by full restore, delta application and shard re-seeding).
    fn namespace_state_from_snapshot(
        ns_snap: &crate::snapshot::NamespaceSnapshot,
        match_tolerance: f64,
    ) -> Result<NamespaceState, crate::snapshot::SnapshotError> {
        let inconsistent =
            |message: String| crate::snapshot::SnapshotError::Inconsistent { message };
        let anchors = AnchorSet::restore(&ns_snap.anchors, match_tolerance)
            .map_err(|e| inconsistent(format!("namespace {}: {e}", ns_snap.id)))?;
        let mut entries = FlatMap::new();
        for e in &ns_snap.entries {
            if e.anchor as usize >= ns_snap.anchors.len() {
                return Err(inconsistent(format!(
                    "namespace {}: entry references unknown anchor {}",
                    ns_snap.id, e.anchor
                )));
            }
            let key = EntryKey {
                anchor: e.anchor,
                interference_bucket: e.bucket,
            };
            let stored = StoredEntry {
                allocation: e.allocation,
                tuned_at: SimTime::from_secs(e.tuned_at_secs),
                owner: e.owner,
                hits: Arc::new(AtomicU64::new(e.hits)),
                cross_tenant_hits: Arc::new(AtomicU64::new(e.cross_tenant_hits)),
            };
            if entries.insert(key, stored).is_some() {
                return Err(inconsistent(format!(
                    "namespace {}: duplicate entry {} × {}",
                    ns_snap.id, e.anchor, e.bucket
                )));
            }
        }
        Ok(NamespaceState {
            anchors,
            entries,
            version: 0,
        })
    }

    /// Reconstructs a repository from a snapshot. The restored repository is
    /// behaviorally bit-identical to the one the snapshot was taken from:
    /// `resolve`/`lookup`/`peek` answers, statistics and all subsequent
    /// operations proceed exactly as they would have on the original
    /// (property-tested in `tests/properties.rs`).
    pub fn from_snapshot(
        snapshot: &crate::snapshot::RepoSnapshot,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let inconsistent =
            |message: String| crate::snapshot::SnapshotError::Inconsistent { message };
        crate::snapshot::check_shard_count(snapshot.shards)?;
        if snapshot.shard_stats.len() != snapshot.shards {
            return Err(inconsistent(format!(
                "{} shard stat records for {} shards",
                snapshot.shard_stats.len(),
                snapshot.shards
            )));
        }
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: snapshot.shards,
            ttl: snapshot.ttl_secs.map(SimDuration::from_secs),
            match_tolerance: snapshot.match_tolerance,
        });
        repo.advance_clock(SimTime::from_secs(snapshot.clock_secs));
        for ns_snap in &snapshot.namespaces {
            let ns_state = Self::namespace_state_from_snapshot(ns_snap, snapshot.match_tolerance)?;
            let shard = &repo.shards[repo.shard_index(ns_snap.id)];
            for e in ns_state.entries.values() {
                shard.note_tuned_at(e.tuned_at);
            }
            let mut state = shard
                .state
                .write()
                .expect("shared repository shard poisoned");
            let prior = state.namespaces.insert(ns_snap.id, Arc::new(ns_state));
            if prior.is_some() {
                return Err(inconsistent(format!("duplicate namespace {}", ns_snap.id)));
            }
        }
        for (shard, stats) in repo.shards.iter().zip(&snapshot.shard_stats) {
            shard.counters.restore(stats);
            let state = shard
                .state
                .read()
                .expect("shared repository shard poisoned");
            shard.publish(&state);
        }
        Ok(repo)
    }

    /// Serializes the repository to the versioned snapshot text format
    /// (see [`crate::snapshot`]). Deterministic: identical repository states
    /// produce byte-identical snapshots.
    pub fn save_snapshot(&self) -> String {
        let text = crate::snapshot::encode(&self.to_snapshot());
        self.recorder.event(|| Event::SnapshotSave {
            bytes: text.len() as u64,
        });
        text
    }

    /// [`save_snapshot`](Self::save_snapshot) with compaction: entries that
    /// never served a lookup are dropped before serializing
    /// ([`crate::snapshot::RepoSnapshot::compact`]), trimming the dead
    /// weight a long-lived fleet cache accretes from one-off workloads.
    /// Anchors survive compaction (restore requires dense anchor ids, and
    /// recurring workloads re-publish under them), as do all statistics.
    pub fn save_snapshot_compact(&self) -> String {
        let mut snapshot = self.to_snapshot();
        snapshot.compact();
        let text = crate::snapshot::encode(&snapshot);
        self.recorder.event(|| Event::SnapshotSave {
            bytes: text.len() as u64,
        });
        text
    }

    /// Loads a repository from snapshot text produced by
    /// [`save_snapshot`](Self::save_snapshot).
    pub fn load_snapshot(text: &str) -> Result<Self, crate::snapshot::SnapshotError> {
        Self::from_snapshot(&crate::snapshot::decode(text)?)
    }

    /// Primes a delta cursor to the shard's **current** state without
    /// building a snapshot: the next [`capture_shard_delta`]
    /// (Self::capture_shard_delta) will carry only changes made after this
    /// call. Pair it with a full base snapshot taken at the same quiescent
    /// point (e.g. run start), so base + deltas reproduce the live state.
    pub fn prime_delta_cursor(&self, shard: usize, cursor: &mut DeltaCursor) {
        let state = self.shards[shard]
            .state
            .read()
            .expect("shared repository shard poisoned");
        cursor.seen.clear();
        for (&ns_id, ns) in state.namespaces.iter() {
            cursor.seen.insert(ns_id, ns.version);
        }
    }

    /// Captures an incremental checkpoint of one shard: full replacement
    /// images of every namespace mutated since `cursor` was last updated,
    /// plus the shard's statistics counters and the clock high-water mark.
    /// Takes only the shard **read** lock — meant to run on the committer
    /// thread right after the shard's epoch commit and TTL sweep, when no
    /// writer can race it.
    pub fn capture_shard_delta(
        &self,
        shard: usize,
        epoch: usize,
        cursor: &mut DeltaCursor,
    ) -> crate::snapshot::DeltaSnapshot {
        let state = self.shards[shard]
            .state
            .read()
            .expect("shared repository shard poisoned");
        let mut namespaces = Vec::new();
        for (&ns_id, ns) in state.namespaces.iter() {
            if cursor.seen.get(&ns_id) != Some(&ns.version) {
                namespaces.push(Self::snapshot_namespace(ns_id, ns));
                cursor.seen.insert(ns_id, ns.version);
            }
        }
        crate::snapshot::DeltaSnapshot {
            shard,
            epoch,
            clock_secs: self.clock().as_secs(),
            namespaces,
            shard_stats: self.shards[shard].counters.snapshot(),
        }
    }

    /// Applies one delta to this repository: replaces the delta's namespaces
    /// wholesale, restores the shard's statistics counters, and advances the
    /// clock. The replay path uses this to advance a materialized repository
    /// epoch by epoch; correctness mirrors [`crate::snapshot::apply_delta`],
    /// but operates on live state under one shard write lock.
    pub fn apply_shard_delta(
        &self,
        delta: &crate::snapshot::DeltaSnapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        if delta.shard >= self.shards.len() {
            return Err(crate::snapshot::SnapshotError::BaseMismatch {
                message: format!(
                    "delta shard {} out of range (repository has {} shards)",
                    delta.shard,
                    self.shards.len()
                ),
            });
        }
        let shard = &self.shards[delta.shard];
        let mut state = shard
            .state
            .write()
            .expect("shared repository shard poisoned");
        let state = &mut *state;
        for ns_snap in &delta.namespaces {
            let routed = self.shard_index(ns_snap.id);
            if routed != delta.shard {
                return Err(crate::snapshot::SnapshotError::BaseMismatch {
                    message: format!(
                        "namespace {} routes to shard {routed}, not the delta's shard {}",
                        ns_snap.id, delta.shard
                    ),
                });
            }
            let mut ns_state =
                Self::namespace_state_from_snapshot(ns_snap, self.config.match_tolerance)?;
            state.mutation_clock += 1;
            ns_state.version = state.mutation_clock;
            for e in ns_state.entries.values() {
                shard.note_tuned_at(e.tuned_at);
            }
            state.namespaces.insert(ns_snap.id, Arc::new(ns_state));
        }
        shard.counters.restore(&delta.shard_stats);
        self.advance_clock(SimTime::from_secs(delta.clock_secs));
        shard.publish(state);
        Ok(())
    }

    /// Wipes one shard and re-seeds it from a full snapshot — the warm
    /// recovery path after shard-level repository loss. Only namespaces that
    /// route to `shard` under this repository's shard count are restored;
    /// the snapshot must have been taken with the same shard count
    /// ([`crate::snapshot::SnapshotError::BaseMismatch`] otherwise). One
    /// write lock covers the wipe and the rebuild, so concurrent readers
    /// never observe a half-seeded shard. The shard's mutation clock
    /// survives the wipe (see [`ShardState::mutation_clock`]).
    pub fn restore_shard(
        &self,
        shard: usize,
        snapshot: &crate::snapshot::RepoSnapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        if snapshot.shards != self.shards.len() {
            return Err(crate::snapshot::SnapshotError::BaseMismatch {
                message: format!(
                    "snapshot has {} shards, repository has {}",
                    snapshot.shards,
                    self.shards.len()
                ),
            });
        }
        if shard >= self.shards.len() {
            return Err(crate::snapshot::SnapshotError::BaseMismatch {
                message: format!(
                    "shard {shard} out of range (repository has {} shards)",
                    self.shards.len()
                ),
            });
        }
        let shard_ref = &self.shards[shard];
        let mut state = shard_ref
            .state
            .write()
            .expect("shared repository shard poisoned");
        let state = &mut *state;
        state.namespaces = FlatMap::new();
        let mut earliest = f64::INFINITY;
        for ns_snap in &snapshot.namespaces {
            if self.shard_index(ns_snap.id) != shard {
                continue;
            }
            let mut ns_state =
                Self::namespace_state_from_snapshot(ns_snap, self.config.match_tolerance)?;
            state.mutation_clock += 1;
            ns_state.version = state.mutation_clock;
            for e in ns_state.entries.values() {
                earliest = earliest.min(e.tuned_at.as_secs());
            }
            state.namespaces.insert(ns_snap.id, Arc::new(ns_state));
        }
        // The wipe replaced every entry: the watermark is known exactly.
        shard_ref
            .earliest_tuned
            .store(earliest.max(0.0).to_bits(), Relaxed);
        shard_ref.counters.restore(&snapshot.shard_stats[shard]);
        self.advance_clock(SimTime::from_secs(snapshot.clock_secs));
        shard_ref.publish(state);
        Ok(())
    }

    /// Holds `shard`'s **write** lock for the duration of `f` — a committer
    /// stalled mid-commit, as far as readers are concerned. Test hook for
    /// the wait-free read path: lookups and peeks against the published
    /// snapshot must complete while `f` blocks the lock.
    pub fn with_shard_exclusive<R>(&self, shard: usize, f: impl FnOnce() -> R) -> R {
        let _guard = self.shards[shard]
            .state
            .write()
            .expect("shared repository shard poisoned");
        f()
    }

    /// Aggregate statistics over every shard.
    pub fn stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for s in self.shard_stats() {
            total.merge(&s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> SharedSignatureRepository {
        SharedSignatureRepository::new(SharedRepoConfig::default())
    }

    #[test]
    fn insert_then_lookup_roundtrip() {
        let r = repo();
        let sig = [100.0, 5.0, 0.3];
        r.insert(0, 7, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
        let e = r.lookup(1, 7, &sig, 0, SimTime::ZERO).expect("hit");
        assert_eq!(e.allocation, ResourceAllocation::large(4));
        assert_eq!(e.owner, 0);
        assert_eq!(r.stats().hits, 1);
        assert_eq!(r.stats().cross_tenant_hits, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.anchor_count(), 1);
    }

    #[test]
    fn near_signatures_share_an_anchor_far_ones_do_not() {
        let r = repo();
        let sig = [100.0, 5.0, 0.3];
        let near = [103.0, 5.1, 0.305]; // ~3% away
        let far = [160.0, 9.0, 0.8];
        r.insert(0, 7, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
        assert!(r.lookup(1, 7, &near, 0, SimTime::ZERO).is_some());
        assert!(r.lookup(1, 7, &far, 0, SimTime::ZERO).is_none());
        r.insert(1, 7, &far, 0, ResourceAllocation::large(8), SimTime::ZERO);
        assert_eq!(r.anchor_count(), 2);
        assert_eq!(
            r.lookup(0, 7, &far, 0, SimTime::ZERO).unwrap().allocation,
            ResourceAllocation::large(8)
        );
    }

    #[test]
    fn overwrite_within_tolerance_keeps_the_larger_allocation() {
        let r = repo();
        let sig = [100.0, 5.0, 0.3];
        let near = [97.0, 4.9, 0.296];
        r.insert(0, 7, &sig, 0, ResourceAllocation::large(6), SimTime::ZERO);
        // A smaller allocation tuned against a slightly lighter workload in
        // the same anchor must not shrink the entry others rely on…
        r.insert(
            1,
            7,
            &near,
            0,
            ResourceAllocation::large(4),
            SimTime::from_hours(1.0),
        );
        let e = r.lookup(2, 7, &sig, 0, SimTime::ZERO).expect("hit");
        assert_eq!(e.allocation, ResourceAllocation::large(6));
        assert_eq!(e.owner, 0);
        assert_eq!(
            e.tuned_at,
            SimTime::from_hours(1.0),
            "entry was reconfirmed"
        );
        // …but a larger one replaces it.
        r.insert(
            1,
            7,
            &near,
            0,
            ResourceAllocation::large(8),
            SimTime::from_hours(2.0),
        );
        let e = r.lookup(2, 7, &sig, 0, SimTime::ZERO).expect("hit");
        assert_eq!(e.allocation, ResourceAllocation::large(8));
        assert_eq!(e.owner, 1);
    }

    #[test]
    fn record_miss_feeds_shard_stats() {
        let r = repo();
        assert!(r.apply(&PendingOp::RecordMiss { namespace: 9 }));
        assert_eq!(r.stats().misses, 1);
    }

    #[test]
    fn delta_capture_tracks_only_changed_namespaces() {
        let r = repo();
        let sig = [100.0, 5.0, 0.3];
        let shard = r.shard_index(7);
        let mut cursor = DeltaCursor::default();
        r.prime_delta_cursor(shard, &mut cursor);

        r.insert(0, 7, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
        let delta = r.capture_shard_delta(shard, 0, &mut cursor);
        assert_eq!(delta.namespaces.len(), 1, "the insert changed namespace 7");
        assert_eq!(delta.namespaces[0].id, 7);

        // Nothing changed since: the next capture is namespace-empty (it
        // still carries stats and clock, which is what makes it cheap).
        let quiet = r.capture_shard_delta(shard, 1, &mut cursor);
        assert!(quiet.namespaces.is_empty(), "{:?}", quiet.namespaces);

        // A committed hit mutates entry counters inside the namespace.
        assert!(r.apply(&PendingOp::RecordHit {
            tenant: 1,
            namespace: 7,
            signature: sig.to_vec(),
            interference_bucket: 0,
            resolved: None,
        }));
        let hit = r.capture_shard_delta(shard, 2, &mut cursor);
        assert_eq!(hit.namespaces.len(), 1);
        assert_eq!(hit.namespaces[0].entries[0].hits, 1);

        // A miss moves only shard counters — no namespace change.
        assert!(r.apply(&PendingOp::RecordMiss { namespace: 7 }));
        let miss = r.capture_shard_delta(shard, 3, &mut cursor);
        assert!(miss.namespaces.is_empty());
        assert_eq!(miss.shard_stats.misses, 1);
    }

    #[test]
    fn delta_chain_materializes_to_the_live_snapshot() {
        let r = repo();
        let shards = r.shard_count();
        let base = r.to_snapshot();
        let mut cursors: Vec<DeltaCursor> = vec![DeltaCursor::default(); shards];
        for (shard, cursor) in cursors.iter_mut().enumerate() {
            r.prime_delta_cursor(shard, cursor);
        }

        let mut deltas = Vec::new();
        for epoch in 0..3usize {
            for ns in [7u64, 9, 11] {
                let sig = [100.0 + epoch as f64 + ns as f64, 5.0, 0.3];
                r.insert(
                    0,
                    ns,
                    &sig,
                    (epoch % 2) as u32,
                    ResourceAllocation::large(2 + epoch as u32),
                    SimTime::from_hours(epoch as f64),
                );
            }
            assert!(r.apply(&PendingOp::RecordMiss { namespace: 9 }));
            for (shard, cursor) in cursors.iter_mut().enumerate() {
                deltas.push(r.capture_shard_delta(shard, epoch, cursor));
            }
        }

        let materialized =
            crate::snapshot::apply_chain(Some(base), &deltas).expect("chain applies");
        assert_eq!(materialized, r.to_snapshot());
        // And the materialization round-trips the text formats bit-exactly.
        let text = crate::snapshot::encode(&materialized);
        assert_eq!(text, crate::snapshot::encode(&r.to_snapshot()));
        for delta in &deltas {
            let round =
                crate::snapshot::decode_delta(&crate::snapshot::encode_delta(delta)).unwrap();
            assert_eq!(&round, delta);
        }
    }

    #[test]
    fn apply_shard_delta_replays_a_follower_to_the_leader_state() {
        let r = repo();
        let sig = [100.0, 5.0, 0.3];
        r.insert(0, 7, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
        let follower = SharedSignatureRepository::from_snapshot(&r.to_snapshot()).unwrap();

        let shard = r.shard_index(7);
        let mut cursor = DeltaCursor::default();
        r.prime_delta_cursor(shard, &mut cursor);
        r.insert(
            1,
            7,
            &sig,
            1,
            ResourceAllocation::extra_large(2),
            SimTime::from_hours(1.0),
        );
        let delta = r.capture_shard_delta(shard, 0, &mut cursor);
        follower.apply_shard_delta(&delta).expect("applies");
        assert_eq!(follower.to_snapshot(), r.to_snapshot());
    }

    #[test]
    fn restore_shard_reseeds_a_wiped_shard_from_a_full_snapshot() {
        let r = repo();
        let sig = [100.0, 5.0, 0.3];
        r.insert(0, 7, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
        r.insert(0, 9, &sig, 0, ResourceAllocation::large(2), SimTime::ZERO);
        let golden = r.to_snapshot();

        // "Lose" namespace 7's shard by re-seeding a stale image of it, then
        // recover it from the golden snapshot.
        let shard = r.shard_index(7);
        let empty = SharedSignatureRepository::new(SharedRepoConfig::default());
        r.restore_shard(shard, &empty.to_snapshot()).unwrap();
        assert!(r.lookup(1, 7, &sig, 0, SimTime::ZERO).is_none());

        // The wipe zeroed the shard's counters along with its namespaces;
        // the golden restore brings both back.
        r.restore_shard(shard, &golden).unwrap();
        assert_eq!(r.to_snapshot(), golden);
        assert!(r.lookup(1, 7, &sig, 0, SimTime::ZERO).is_some());

        // A snapshot from a different shard layout is rejected.
        let other = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 4,
            ..Default::default()
        });
        match r.restore_shard(shard, &other.to_snapshot()) {
            Err(crate::snapshot::SnapshotError::BaseMismatch { message }) => {
                assert!(message.contains("shards"), "{message}");
            }
            other => panic!("expected a base-mismatch error, got {other:?}"),
        }
    }

    #[test]
    fn namespaces_are_isolated() {
        let r = repo();
        let sig = [10.0, 10.0];
        r.insert(0, 1, &sig, 0, ResourceAllocation::large(2), SimTime::ZERO);
        assert!(r.lookup(0, 2, &sig, 0, SimTime::ZERO).is_none());
    }

    #[test]
    fn interference_buckets_are_separate() {
        let r = repo();
        let sig = [10.0, 10.0];
        r.insert(0, 1, &sig, 0, ResourceAllocation::large(2), SimTime::ZERO);
        r.insert(0, 1, &sig, 2, ResourceAllocation::large(6), SimTime::ZERO);
        assert_eq!(r.len(), 2);
        assert_eq!(r.anchor_count(), 1);
        assert_eq!(
            r.lookup(0, 1, &sig, 2, SimTime::ZERO).unwrap().allocation,
            ResourceAllocation::large(6)
        );
    }

    #[test]
    fn ttl_makes_entries_stale_and_the_sweep_evicts_them() {
        let r = SharedSignatureRepository::new(SharedRepoConfig {
            ttl: Some(SimDuration::from_hours(24.0)),
            ..Default::default()
        });
        let sig = [10.0, 10.0];
        r.insert(0, 1, &sig, 0, ResourceAllocation::large(2), SimTime::ZERO);
        assert!(r.lookup(0, 1, &sig, 0, SimTime::from_hours(23.0)).is_some());
        // A stale entry misses, but stays in place until the TTL sweep runs —
        // lookups are read-only.
        assert!(r.lookup(0, 1, &sig, 0, SimTime::from_hours(25.0)).is_none());
        assert_eq!(r.stats().misses, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.evict_stale(SimTime::from_hours(25.0)), 1);
        assert_eq!(r.stats().evictions, 1);
        assert!(r.is_empty());
    }

    #[test]
    fn per_shard_sweep_touches_only_its_shard() {
        let r = SharedSignatureRepository::new(SharedRepoConfig {
            ttl: Some(SimDuration::from_hours(24.0)),
            ..Default::default()
        });
        // Find two namespaces routed to different shards.
        let ns_a = 0u64;
        let ns_b = (1..64u64)
            .find(|&ns| r.shard_index(ns) != r.shard_index(ns_a))
            .expect("distinct shards exist");
        let sig = [10.0, 10.0];
        r.insert(
            0,
            ns_a,
            &sig,
            0,
            ResourceAllocation::large(2),
            SimTime::ZERO,
        );
        r.insert(
            0,
            ns_b,
            &sig,
            0,
            ResourceAllocation::large(2),
            SimTime::ZERO,
        );
        let late = SimTime::from_hours(30.0);
        // Sweeping shard A at hour 30 reclaims only A's entry.
        assert_eq!(r.evict_stale_shard(r.shard_index(ns_a), late), 1);
        assert_eq!(r.len(), 1);
        assert!(r.peek(ns_b, &sig, 0, SimTime::ZERO, None).is_some());
        assert_eq!(r.stats().evictions, 1);
        // The whole-repo sweep then reclaims the rest; the per-shard and
        // fleet-wide paths account evictions through the same counters.
        assert_eq!(r.evict_stale(late), 1);
        assert!(r.is_empty());
        assert_eq!(r.stats().evictions, 2);
    }

    #[test]
    fn peek_excludes_owner_and_moves_no_stats() {
        let r = repo();
        let sig = [10.0, 10.0];
        r.insert(3, 1, &sig, 0, ResourceAllocation::large(2), SimTime::ZERO);
        assert!(r.peek(1, &sig, 0, SimTime::ZERO, Some(3)).is_none());
        assert!(r.peek(1, &sig, 0, SimTime::ZERO, Some(4)).is_some());
        assert!(r.peek(1, &sig, 0, SimTime::ZERO, None).is_some());
        let stats = r.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let r = repo();
        for ns in 0..1000u64 {
            let a = r.shard_index(ns);
            let b = r.shard_index(ns);
            assert_eq!(a, b);
            assert!(a < r.shard_count());
        }
    }

    #[test]
    fn apply_publish_and_record_hit() {
        let r = repo();
        let sig = vec![10.0, 10.0];
        r.apply(&PendingOp::Publish {
            tenant: 0,
            namespace: 1,
            signature: sig.clone(),
            interference_bucket: 0,
            allocation: ResourceAllocation::large(3),
            tuned_at: SimTime::ZERO,
        });
        assert_eq!(r.len(), 1);
        r.apply(&PendingOp::RecordHit {
            tenant: 5,
            namespace: 1,
            signature: sig,
            interference_bucket: 0,
            resolved: None,
        });
        let stats = r.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.cross_tenant_hits, 1);
    }

    #[test]
    fn apply_batch_matches_sequential_apply() {
        let mk_ops = || -> Vec<PendingOp> {
            let mut ops = Vec::new();
            for t in 0..6usize {
                let ns = (t % 3) as u64;
                let sig = vec![10.0 * (1 + t % 2) as f64, 5.0, 80.0];
                ops.push(PendingOp::Publish {
                    tenant: t,
                    namespace: ns,
                    signature: sig.clone(),
                    interference_bucket: 0,
                    allocation: ResourceAllocation::large(1 + t as u32),
                    tuned_at: SimTime::from_hours(t as f64),
                });
                ops.push(PendingOp::RecordHit {
                    tenant: t + 10,
                    namespace: ns,
                    signature: sig,
                    interference_bucket: 0,
                    resolved: None,
                });
                ops.push(PendingOp::RecordMiss { namespace: ns });
            }
            ops
        };
        let sequential = repo();
        let seq_applied: Vec<bool> = mk_ops().iter().map(|op| sequential.apply(op)).collect();
        let batched = repo();
        let batch_applied = batched.apply_batch(&mk_ops());
        assert_eq!(seq_applied, batch_applied);
        assert_eq!(sequential.len(), batched.len());
        assert_eq!(sequential.anchor_count(), batched.anchor_count());
        assert_eq!(sequential.stats(), batched.stats());
    }

    #[test]
    fn early_exit_distance_matches_full_distance() {
        let a = [100.0, 5.0, 0.3, 77.0];
        let b = [103.0, 5.2, 0.31, 75.0];
        let full = normalized_distance(&a, &b);
        assert_eq!(normalized_distance_within(&a, &b, 1.0), Some(full));
        assert_eq!(normalized_distance_within(&a, &b, full), Some(full));
        assert_eq!(normalized_distance_within(&a, &b, full * 0.99), None);
        assert_eq!(normalized_distance_within(&a, &[1.0], 10.0), None);
    }

    #[test]
    fn snapshot_round_trip_preserves_state_and_stats() {
        let r = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 4,
            ttl: Some(SimDuration::from_hours(48.0)),
            match_tolerance: 0.1,
        });
        for ns in 0..6u64 {
            for a in 0..5usize {
                let sig = [100.0 * (a + 1) as f64, 5.0 + ns as f64, -0.3];
                r.insert(
                    a,
                    ns,
                    &sig,
                    (a % 2) as u32,
                    ResourceAllocation::large(1 + a as u32),
                    SimTime::from_hours(a as f64),
                );
                r.lookup(9, ns, &sig, (a % 2) as u32, SimTime::from_hours(1.0));
            }
            // A mixed-length (misfit) anchor and a deliberate miss.
            r.insert(
                0,
                ns,
                &[1.0, 2.0],
                0,
                ResourceAllocation::large(1),
                SimTime::ZERO,
            );
            r.lookup(9, ns, &[9e9, 9e9, 9e9], 0, SimTime::ZERO);
        }
        let text = r.save_snapshot();
        assert_eq!(text, r.save_snapshot(), "snapshots are deterministic");
        let loaded = SharedSignatureRepository::load_snapshot(&text).expect("loads");
        assert_eq!(loaded.len(), r.len());
        assert_eq!(loaded.anchor_count(), r.anchor_count());
        assert_eq!(loaded.stats(), r.stats());
        assert_eq!(loaded.shard_stats(), r.shard_stats());
        assert_eq!(loaded.save_snapshot(), text, "round-trip is byte-identical");
        // Subsequent operations behave identically on both repositories.
        for ns in 0..6u64 {
            for a in 0..5usize {
                let sig = [100.0 * (a + 1) as f64, 5.0 + ns as f64, -0.3];
                assert_eq!(loaded.resolve_anchor(ns, &sig), r.resolve_anchor(ns, &sig));
                assert_eq!(
                    loaded.lookup(9, ns, &sig, (a % 2) as u32, SimTime::from_hours(2.0)),
                    r.lookup(9, ns, &sig, (a % 2) as u32, SimTime::from_hours(2.0))
                );
            }
            assert_eq!(
                loaded.resolve_anchor(ns, &[1.0, 2.0]),
                r.resolve_anchor(ns, &[1.0, 2.0])
            );
        }
        assert_eq!(
            loaded.evict_stale(SimTime::from_hours(100.0)),
            r.evict_stale(SimTime::from_hours(100.0))
        );
        assert_eq!(loaded.stats(), r.stats());
    }

    #[test]
    fn lookups_complete_while_a_committer_holds_the_write_lock() {
        use std::sync::mpsc;
        let r = Arc::new(SharedSignatureRepository::new(SharedRepoConfig {
            ttl: Some(SimDuration::from_hours(24.0)),
            ..Default::default()
        }));
        let sig = [100.0, 5.0, 0.3];
        r.insert(0, 7, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
        let shard = r.shard_index(7);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let stall = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                r.with_shard_exclusive(shard, || {
                    entered_tx.send(()).expect("test channel");
                    release_rx.recv().expect("test channel");
                })
            })
        };
        entered_rx
            .recv()
            .expect("staller entered the critical section");
        // The shard write lock is held ("committer stalled mid-commit"):
        // the whole read surface still completes — these calls would
        // deadlock this test if any of them took the shard lock.
        assert!(r.lookup(1, 7, &sig, 0, SimTime::ZERO).is_some());
        assert!(r.peek(7, &sig, 0, SimTime::ZERO, None).is_some());
        assert_eq!(r.resolve_anchor(7, &sig), Some(0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.anchor_count(), 1);
        // The clean-shard TTL sweep skips on the watermark without ever
        // touching the (held) write lock.
        assert_eq!(r.evict_stale(SimTime::from_hours(1.0)), 0);
        release_tx.send(()).expect("test channel");
        stall.join().expect("staller thread");
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn snapcell_readers_stay_coherent_under_publish_churn() {
        let cell = Arc::new(SnapCell::new(Arc::new(0usize)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0usize;
                    while !stop.load(Relaxed) {
                        let v = cell.with(|v| *v);
                        assert!(v >= last, "publishes observed in order: {v} < {last}");
                        last = v;
                    }
                })
            })
            .collect();
        // One serialized publisher (the cell's contract), churning slots.
        for i in 1..=20_000usize {
            cell.publish(Arc::new(i));
        }
        stop.store(true, Relaxed);
        for t in readers {
            t.join().expect("reader thread");
        }
        assert_eq!(cell.with(|v| *v), 20_000);
    }

    #[test]
    fn sweep_watermark_tracks_eviction_counts_bit_identically() {
        // Two repositories driven identically; one's sweeps are forced past
        // the watermark fast path by a deliberately early entry. Counts and
        // state must match at every step.
        let config = SharedRepoConfig {
            ttl: Some(SimDuration::from_hours(10.0)),
            ..Default::default()
        };
        let a = SharedSignatureRepository::new(config.clone());
        let b = SharedSignatureRepository::new(config);
        let sig = [10.0, 20.0];
        for (hour, ns) in [(0.0, 1u64), (4.0, 2), (8.0, 3), (12.0, 4)] {
            let t = SimTime::from_hours(hour);
            a.insert(0, ns, &sig, 0, ResourceAllocation::large(2), t);
            b.insert(0, ns, &sig, 0, ResourceAllocation::large(2), t);
            let now = SimTime::from_hours(hour + 1.0);
            assert_eq!(a.evict_stale(now), b.evict_stale(now));
        }
        for hour in [11.0, 15.0, 19.0, 23.0, 40.0] {
            let now = SimTime::from_hours(hour);
            assert_eq!(a.evict_stale(now), b.evict_stale(now), "at {hour}h");
            assert_eq!(a.len(), b.len());
            assert_eq!(a.stats().evictions, b.stats().evictions);
        }
        assert!(a.is_empty());
    }

    #[test]
    fn mixed_length_signatures_resolve_exactly() {
        // A namespace whose anchors have different dimensionalities: the
        // first fixes the grid; the misfit stays matchable for queries of
        // its own length.
        let r = repo();
        r.insert(
            0,
            1,
            &[10.0, 20.0, 30.0],
            0,
            ResourceAllocation::large(2),
            SimTime::ZERO,
        );
        r.insert(
            0,
            1,
            &[10.0, 20.0],
            0,
            ResourceAllocation::large(5),
            SimTime::ZERO,
        );
        assert_eq!(r.anchor_count(), 2);
        assert_eq!(
            r.lookup(1, 1, &[10.0, 20.0, 30.0], 0, SimTime::ZERO)
                .unwrap()
                .allocation,
            ResourceAllocation::large(2)
        );
        assert_eq!(
            r.lookup(1, 1, &[10.0, 20.0], 0, SimTime::ZERO)
                .unwrap()
                .allocation,
            ResourceAllocation::large(5)
        );
    }
}
