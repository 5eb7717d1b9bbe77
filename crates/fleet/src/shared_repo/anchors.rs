//! Anchor resolution: the flat, id-ordered store of a namespace's anchors
//! ([`AnchorSet`]), the per-tenant [`ResolveMemo`], and the normalized
//! signature distance both are defined by.
//!
//! Two invariants carry every bit-match proof in this module: anchors only
//! **accrete** (ids are never removed or renumbered), and a newer anchor
//! displaces a witnessed resolution only when it is **strictly closer**
//! (equal distances tie-break toward the lower, i.e. older, id). One scan,
//! [`AnchorSet::scan`], applies that rule for a full resolution, the memo
//! and the epoch-commit witness check alike.

use crate::arena::{SigRef, SignatureArena};
use crate::snapshot::AnchorSnapshot;
use dejavu_ml::kernels::squared_distance_within;

/// Values below this magnitude share one log-space band; mirrors the epsilon
/// floor in [`normalized_distance`].
const MAG_FLOOR: f64 = 1e-9;

/// Query φ vectors at most this wide are stack-allocated during resolution.
const PHI_STACK_DIMS: usize = 64;

/// Log-magnitude of a signature component: the coordinate the φ screen
/// works in. The key property (proved in the [`AnchorSet`] docs): two values
/// whose relative difference is δ < 1 have log-magnitudes within
/// `-ln(1 - δ)` of each other, regardless of sign or the ε floor.
fn log_mag(v: f64) -> f64 {
    v.abs().max(MAG_FLOOR).ln()
}

/// The φ-space screening threshold for a match within `limit` over `dims`
/// dimensions: distance ≤ limit ⇒ ‖φ-diff‖ ≤ -ln(1 − limit·√dims), so an
/// anchor whose φ vector is farther than this from the query's provably lies
/// beyond `limit`. Infinite (no screen) once `limit·√dims ≥ 1`.
fn phi_threshold(limit: f64, dims: usize) -> f64 {
    let x = limit * (dims as f64).sqrt();
    if x >= 1.0 {
        f64::INFINITY
    } else {
        // Headroom for floating-point rounding between the φ mapping and
        // the exact distance check.
        -(1.0 - x).ln() * (1.0 + 1e-12) + 1e-12
    }
}

/// The anchors of one namespace, flat and in id order: anchor `id` occupies
/// `values[ends[id-1]..ends[id]]` (from 0 for the first), and `phi` holds
/// the same layout in log-magnitude space, `φ(a)_i = ln(max(|a_i|, 1e-9))`.
/// Ids are dense and only accrete, so the anchor count is `ends.len()`. An
/// anchor of a different length than a query is a slot the scan skips.
///
/// A resolution scans every anchor of the query's length once, and screens
/// each through φ before the division-heavy exact distance. Why the screen
/// is exact: a per-dimension relative difference
/// `δ_i = |x_i−y_i| / max(|x_i|,|y_i|,ε) < 1` implies
/// `|φ(x)_i − φ(y)_i| ≤ -ln(1−δ_i)` (wlog `u = max(|x_i|, ε) ≥ v`: either
/// `|x_i| ≥ ε`, then `|y_i| ≥ |x_i|(1−δ_i)` so the log-ratio of the floored
/// magnitudes is at most `-ln(1−δ_i)`; or both sit at the ε floor and the
/// difference is 0 — opposite signs above the floor are impossible with
/// δ < 1). A normalized distance ≤ limit over n dimensions bounds
/// `Σ δ_i² ≤ limit²·n`, and since `(-ln(1−δ))²` is convex the worst case
/// concentrates in one dimension, giving the Euclidean bound
/// `‖φ(x)−φ(y)‖₂ ≤ -ln(1 − limit·√n)`. An anchor outside that φ-ball of the
/// query is therefore farther than `limit`, and the early-exit
/// [`normalized_distance_within`] check in original space decides the rest
/// exactly. When `limit·√n ≥ 1` the bound degenerates and every anchor of
/// the query's length gets the exact check.
#[derive(Debug, Default)]
pub(super) struct AnchorSet {
    /// Each anchor's values, concatenated in id order.
    values: Vec<f64>,
    /// The log-magnitudes of `values`, same layout.
    phi: Vec<f64>,
    /// Each anchor's end offset into `values` and `phi`, indexed by id.
    ends: Vec<usize>,
}

impl AnchorSet {
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
                entry.seen_anchors = self.count();
                entry.resolved
            }
            None => {
                let resolved = self.resolve(signature, tolerance, probes);
                memo.insert(signature, self.count(), resolved);
                resolved
            }
        }
    }

    /// Brings a `(distance, id)` resolution witnessed when the namespace
    /// held `seen` anchors up to date: anchors only accrete and distance
    /// ties go to older ids, so only an anchor created since (id ≥ `seen`)
    /// that is **strictly closer** can displace the witness. The memo and
    /// the epoch-commit `RecordHit` check both go through here, so the two
    /// cannot disagree on the rule. A `seen` past the anchor count (a witness
    /// from a wire client) leaves nothing to scan.
    pub(super) fn revalidate(
        &self,
        signature: &[f64],
        tolerance: f64,
        witness: Option<(f64, u32)>,
        seen: u32,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        if seen >= self.count() {
            return witness;
        }
        self.scan(signature, tolerance, seen, witness, probes)
    }

    /// Nearest anchor within `tolerance` as `(distance, id)`, or `None`.
    /// Ties break toward the lowest anchor id, so resolution is
    /// deterministic. `probes` accumulates the anchors exact-checked (every
    /// anchor of the query's length) — the flight recorder's per-resolve
    /// work measure.
    pub(super) fn resolve(
        &self,
        signature: &[f64],
        tolerance: f64,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        self.scan(signature, tolerance, 0, None, probes)
    }

    /// Scans anchors `from_id..count` in id order for one strictly closer
    /// than `best` (an older anchor's `(distance, id)`, or `None`) and within
    /// `tolerance`. The exact check's bail-out bound tightens as better
    /// candidates are found but stays inclusive, so the returned distance is
    /// always the full distance; an equal distance never displaces `best`,
    /// whose id is lower. Each candidate is first screened through φ (see
    /// [`AnchorSet`]), so the exact distance runs only on probable matches.
    fn scan(
        &self,
        signature: &[f64],
        tolerance: f64,
        from_id: u32,
        mut best: Option<(f64, u32)>,
        probes: &mut u64,
    ) -> Option<(f64, u32)> {
        let dims = signature.len();
        // The query's φ vector lives on the stack for the typical catalogue
        // width, so the lookup hot path stays allocation free; pathological
        // widths spill to the heap.
        let mut stack_buf = [0.0f64; PHI_STACK_DIMS];
        let mut heap_buf = Vec::new();
        let q_phi: &[f64] = if dims <= PHI_STACK_DIMS {
            for (out, &v) in stack_buf.iter_mut().zip(signature) {
                *out = log_mag(v);
            }
            &stack_buf[..dims]
        } else {
            heap_buf.extend(signature.iter().map(|&v| log_mag(v)));
            &heap_buf
        };
        // (limit, φ-threshold) memo: the limit only changes when `best`
        // improves, so the `ln` leaves the per-anchor loop.
        let mut thresh = (f64::NAN, f64::INFINITY);
        let from = from_id as usize;
        let mut start = if from == 0 { 0 } else { self.ends[from - 1] };
        for (id, &end) in (from_id..).zip(&self.ends[from..]) {
            let at = std::mem::replace(&mut start, end);
            if end - at != dims {
                continue;
            }
            *probes += 1;
            let limit = best.map_or(tolerance, |(d, _)| d.min(tolerance));
            if thresh.0 != limit {
                thresh = (limit, phi_threshold(limit, dims));
            }
            if thresh.1.is_finite()
                && squared_distance_within(q_phi, &self.phi[at..end], thresh.1 * thresh.1).is_none()
            {
                continue; // provably farther than `limit`
            }
            if let Some(d) = normalized_distance_within(&self.values[at..end], signature, limit) {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, id));
                }
            }
        }
        best
    }

    /// Appends a new anchor and returns its id (the next one in sequence).
    pub(super) fn push(&mut self, signature: &[f64]) -> u32 {
        let id = self.count();
        self.values.extend_from_slice(signature);
        self.phi.extend(signature.iter().map(|&v| log_mag(v)));
        self.ends.push(self.values.len());
        id
    }

    /// Number of anchors ever created in this namespace (the next id).
    pub(super) fn count(&self) -> u32 {
        self.ends.len() as u32
    }

    /// All anchors in strictly increasing id order — the canonical order the
    /// snapshot format stores.
    pub(super) fn snapshot_anchors(&self) -> Vec<AnchorSnapshot> {
        let mut start = 0;
        (0..)
            .zip(&self.ends)
            .map(|(id, &end)| AnchorSnapshot {
                id,
                values: self.values[std::mem::replace(&mut start, end)..end].to_vec(),
            })
            .collect()
    }

    /// Reconstructs an anchor set from snapshot anchors (id order), exactly as
    /// if they had been [`push`](Self::push)ed one by one.
    pub(super) fn restore(anchors: &[AnchorSnapshot]) -> Result<AnchorSet, String> {
        let mut set = AnchorSet::default();
        for (i, a) in anchors.iter().enumerate() {
            if a.id as usize != i {
                return Err(format!(
                    "anchor ids must be dense and ordered (found id {} at position {i})",
                    a.id
                ));
            }
            set.push(&a.values);
        }
        Ok(set)
    }
}

/// Memoized signatures kept per [`ResolveMemo`]; a bounded memo keeps the
/// replacement policy deterministic.
const MEMO_CAPACITY: usize = 32;

/// Memo of a tenant's anchor resolutions. A result recorded against
/// `seen_anchors` anchors is revalidated against just the anchors created
/// since, by the accretion and tie-break rule the epoch-commit witness check
/// also uses — bit-identical to a full resolution (property-tested in
/// `tests/properties.rs`).
///
/// It rarely hits: a tenant peeks the shared store only when its local
/// overlay misses, and adopts a shared hit into that overlay, so a
/// signature recurs here only after a miss. The measured memo hit ratio is
/// 0.055 on a 1000-tenant 7-day fleet and 0.0 on a 6000-tenant 1-day one.
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
    fn a_scan_probes_every_anchor_of_the_query_length_from_its_start() {
        use super::AnchorSet;
        // Three-wide anchors spread over four decades, interleaved with
        // two-wide ones the scan must skip without probing.
        let mut set = AnchorSet::default();
        for i in 0..60u32 {
            if i % 3 == 2 {
                set.push(&[f64::from(i), 7.0]);
            } else {
                set.push(&[10f64.powf(f64::from(i) / 15.0), 2.0, 3.0]);
            }
        }
        let query = [10f64.powf(30.0 / 15.0), 2.0, 3.0];
        let same_length_from = |from: u32| (from..60).filter(|i| i % 3 != 2).count() as u64;
        let mut probes = 0;
        assert_eq!(set.resolve(&query, 0.1, &mut probes), Some((0.0, 30)));
        assert_eq!(probes, same_length_from(0));
        for from in [0, 1, 17, 31, 59, 60, 61, u32::MAX] {
            let mut probes = 0;
            // Anchor 30 is the witness once it predates the scan's start.
            let witness = (from > 30).then_some((0.0, 30));
            assert_eq!(
                set.revalidate(&query, 0.1, witness, from, &mut probes),
                Some((0.0, 30))
            );
            assert_eq!(probes, same_length_from(from), "from {from}");
        }
    }

    #[test]
    fn mixed_length_signatures_resolve_exactly() {
        // A namespace whose anchors have different lengths: each stays
        // matchable for queries of its own length.
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
