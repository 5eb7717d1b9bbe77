//! Anchor resolution: the ball tree that indexes a namespace's anchors
//! ([`AnchorSet`]), the per-tenant [`ResolveMemo`], and the normalized
//! signature distance both are defined by.
//!
//! Two invariants carry every bit-match proof in this module: anchors only
//! **accrete** (ids are never removed or renumbered), and a newer anchor
//! displaces a witnessed resolution only when it is **strictly closer**
//! (equal distances tie-break toward the lower, i.e. older, id). One
//! function, [`AnchorSet::revalidate`], applies that rule for both the memo
//! and the epoch-commit witness check.

use crate::arena::{SigRef, SignatureArena};
use crate::snapshot::AnchorSnapshot;
use dejavu_ml::kernels::squared_distance_within;

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
pub(super) struct AnchorSet {
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
            let d = squared_distance_within(
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

    /// [`resolve`](Self::resolve) through a caller-held [`ResolveMemo`]: a
    /// cached resolution is [revalidated](Self::revalidate) against only the
    /// anchors created since it was recorded, which provably returns the
    /// same `(distance, id)` as a full resolution.
    pub(super) fn resolve_memoized(
        &self,
        signature: &[f64],
        tolerance: f64,
        memo: &mut ResolveMemo,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        match memo.find(signature) {
            Some(slot) => {
                let entry = &mut memo.entries[slot];
                entry.resolved = self.revalidate(
                    signature,
                    tolerance,
                    entry.resolved,
                    entry.seen_anchors,
                    probes,
                );
                entry.seen_anchors = self.count;
                entry.resolved
            }
            None => {
                let resolved = self.resolve(signature, tolerance, probes);
                memo.insert(signature, self.count, resolved);
                resolved
            }
        }
    }

    /// Brings a `(distance, id)` resolution witnessed when the namespace
    /// held `seen` anchors up to date: anchors only accrete and distance
    /// ties go to older ids, so only an anchor created since (id ≥ `seen`)
    /// that is **strictly closer** can displace the witness. The memo and
    /// the epoch-commit `RecordHit` check both go through here, so the two
    /// cannot disagree on the rule.
    pub(super) fn revalidate(
        &self,
        signature: &[f64],
        tolerance: f64,
        witness: Option<(f64, u32)>,
        seen: u32,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        if seen == self.count {
            return witness;
        }
        match (
            witness,
            self.resolve_since(signature, tolerance, seen, probes),
        ) {
            (Some((d_old, _)), Some((d_new, a_new))) if d_new < d_old => Some((d_new, a_new)),
            (None, since) => since,
            (witness, _) => witness,
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
                && squared_distance_within(q_phi, &self.phi[at..at + self.dims], thresh * thresh)
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
        let dl = squared_distance_within(q_phi, center_of(node.left), f64::INFINITY)
            .expect("unbounded distance");
        let dr = squared_distance_within(q_phi, center_of(node.right), f64::INFINITY)
            .expect("unbounded distance");
        let (left, right) = ((node.left, dl), (node.right, dr));
        let (near, far) = if dl <= dr {
            (left, right)
        } else {
            (right, left)
        };
        for (child, dist_sq) in [near, far] {
            self.descend(
                child,
                dist_sq,
                q_phi,
                signature,
                tolerance,
                best,
                thresh_cache,
                probes,
            );
        }
    }

    /// Nearest anchor within `tolerance` as `(distance, id)`, or `None`.
    /// Ties break toward the lowest anchor id, so resolution is
    /// deterministic. `probes` accumulates the ball-tree visit count: exact
    /// distance checks performed (slab slots and misfits examined) — the
    /// flight recorder's per-resolve work measure.
    pub(super) fn resolve(
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
                let d0 = squared_distance_within(
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

    /// Appends a new anchor and returns its id (the next one in sequence).
    pub(super) fn push(&mut self, signature: &[f64], tolerance: f64) -> u32 {
        let id = self.place(signature, tolerance);
        // Rebuild once the linear tail outgrows a fifth of the indexed part;
        // growth thresholds depend only on the anchor count, so index
        // geometry is reproducible run to run.
        let n = self.slab_ids.len();
        if self.radius_bound > 0.0 && n >= 2 * LEAF_SIZE && n > self.built + self.built / 4 {
            self.rebuild();
        }
        id
    }

    /// Stores a new anchor without re-indexing: the first non-empty anchor
    /// fixes the namespace's signature dimensionality and the φ-ball bound
    /// derived from it, same-length anchors join the slab, and everything
    /// else becomes a misfit.
    fn place(&mut self, signature: &[f64], tolerance: f64) -> u32 {
        let id = self.count;
        self.count += 1;
        if self.dims == 0 && !signature.is_empty() {
            self.dims = signature.len();
            self.radius_bound = phi_radius_bound(self.dims, tolerance);
        }
        if signature.len() == self.dims && self.dims > 0 {
            self.centroids.extend_from_slice(signature);
            self.phi.extend(signature.iter().map(|&v| log_mag(v)));
            self.slab_ids.push(id);
        } else {
            let r = self.misfit_slab.alloc(signature);
            self.misfits.push((id, r));
        }
        id
    }

    /// Number of anchors ever created in this namespace (the next id).
    pub(super) fn count(&self) -> u32 {
        self.count
    }

    /// All anchors in strictly increasing id order — the canonical order the
    /// snapshot format stores.
    pub(super) fn snapshot_anchors(&self) -> Vec<AnchorSnapshot> {
        let slab = self.slab_ids.iter().enumerate().map(|(slot, &id)| {
            let at = slot * self.dims;
            AnchorSnapshot {
                id,
                values: self.centroids[at..at + self.dims].to_vec(),
            }
        });
        let misfits = self.misfits.iter().map(|&(id, r)| AnchorSnapshot {
            id,
            values: self.misfit_slab.get(r).to_vec(),
        });
        let mut out: Vec<AnchorSnapshot> = slab.chain(misfits).collect();
        out.sort_unstable_by_key(|a| a.id);
        out
    }

    /// Reconstructs an anchor set from snapshot anchors (id order), exactly as
    /// if they had been [`push`](Self::push)ed one by one, except that the
    /// ball tree is built once at the end; resolution is provably independent
    /// of index geometry.
    pub(super) fn restore(anchors: &[AnchorSnapshot], tolerance: f64) -> Result<AnchorSet, String> {
        let mut set = AnchorSet::default();
        for (i, a) in anchors.iter().enumerate() {
            if a.id as usize != i {
                return Err(format!(
                    "anchor ids must be dense and ordered (found id {} at position {i})",
                    a.id
                ));
            }
            set.place(&a.values, tolerance);
        }
        set.rebuild();
        Ok(set)
    }
}

/// Memoized signatures kept per [`ResolveMemo`]; class-medoid sets are
/// small, and a bounded memo keeps the replacement policy deterministic.
const MEMO_CAPACITY: usize = 32;

/// Memo of anchor resolutions for signatures that recur lookup after lookup
/// (a tenant's class medoids). A result recorded against `seen_anchors`
/// anchors is revalidated against just the anchors created since, by the
/// accretion and tie-break rule the epoch-commit witness check also uses —
/// bit-identical to a full resolution (property-tested in
/// `tests/properties.rs`).
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
    pub(super) fn bind(&mut self, namespace: u64) {
        if self.namespace != Some(namespace) {
            self.entries.clear();
            self.slab.clear();
            self.cursor = 0;
            self.namespace = Some(namespace);
        }
    }

    /// Finds the entry whose signature is bit-identical to `signature`.
    pub(super) fn find(&self, signature: &[f64]) -> Option<usize> {
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

    /// Whether the memo holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

#[cfg(test)]
mod tests {
    use crate::shared_repo::tests::repo;
    use crate::shared_repo::*;
    use dejavu_cloud::ResourceAllocation;
    use dejavu_simcore::SimTime;

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
