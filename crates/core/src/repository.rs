//! The signature repository: DejaVu's cache of resource-allocation decisions.
//!
//! The repository maps a workload class (and, when interference has been
//! detected, an interference-index bucket) to the preferred resource
//! allocation determined by the Tuner. At runtime a cache hit lets DejaVu jump
//! straight to the right allocation; misses fall back to tuning or to full
//! capacity.

use crate::flatmap::FlatMap;
use dejavu_cloud::ResourceAllocation;
use dejavu_metrics::WorkloadSignature;
use dejavu_simcore::SimTime;

/// Repository key: workload class × interference bucket.
///
/// Bucket 0 means "no interference beyond what tuning saw".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RepositoryKey {
    /// Workload class (cluster id).
    pub class: usize,
    /// Interference-index bucket.
    pub interference_bucket: u32,
}

impl RepositoryKey {
    /// Key for a workload class with no interference.
    pub fn baseline(class: usize) -> Self {
        RepositoryKey {
            class,
            interference_bucket: 0,
        }
    }

    /// Sentinel key used before any workload class exists (e.g. learning-phase
    /// lookups that match purely by signature in fleet-shared stores). A plain
    /// [`SignatureRepository`] never stores anything under this key, so such
    /// lookups always miss locally.
    pub fn unclassified() -> Self {
        RepositoryKey::baseline(usize::MAX)
    }
}

/// One cached allocation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepositoryEntry {
    /// The preferred allocation for this key.
    pub allocation: ResourceAllocation,
    /// When the Tuner produced this entry.
    pub tuned_at: SimTime,
    /// How often the entry has been reused.
    pub hits: u64,
}

/// Hit/miss statistics of the repository.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepositoryStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (including overwrites).
    pub insertions: u64,
}

impl RepositoryStats {
    /// Cache hit rate over all lookups (0.0 if there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Identifies an entry for an [`AllocationStore`].
///
/// The `key` is always meaningful to the tenant that issued the operation;
/// `class_signature` optionally carries the full-catalogue workload signature
/// characterizing the class (the class medoid, or the raw profiled signature
/// during learning). Local stores ignore it; fleet-shared stores use it to
/// match equivalent workload classes across tenants whose locally assigned
/// class ids differ.
#[derive(Debug, Clone, Copy)]
pub struct StoreContext<'a> {
    /// The tenant-local repository key.
    pub key: RepositoryKey,
    /// Cross-tenant identity of the workload class, when known.
    pub class_signature: Option<&'a WorkloadSignature>,
    /// Simulated time of the operation; stores with staleness policies (TTL
    /// eviction in fleet-shared stores) compare entry age against it. Local
    /// stores ignore it.
    pub now: SimTime,
}

impl<'a> StoreContext<'a> {
    /// A context identified by key alone.
    pub fn keyed(key: RepositoryKey) -> Self {
        StoreContext {
            key,
            class_signature: None,
            now: SimTime::ZERO,
        }
    }

    /// A context identified by key and class signature.
    pub fn with_signature(key: RepositoryKey, signature: &'a WorkloadSignature) -> Self {
        StoreContext {
            key,
            class_signature: Some(signature),
            now: SimTime::ZERO,
        }
    }

    /// Attaches the operation's simulated time.
    pub fn at(mut self, now: SimTime) -> Self {
        self.now = now;
        self
    }
}

/// The storage interface behind [`crate::controller::DejaVuController`].
///
/// The classic single-tenant cache ([`SignatureRepository`]) implements this
/// directly; `dejavu-fleet` provides tenant views over a shared, sharded
/// repository so that one tenant's tuning pays off for every recurring
/// workload in the fleet. Method semantics mirror the inherent
/// `SignatureRepository` API.
pub trait AllocationStore: Send {
    /// Inserts (or replaces) the preferred allocation for `ctx`.
    fn put(&mut self, ctx: StoreContext<'_>, allocation: ResourceAllocation, tuned_at: SimTime);

    /// Looks up the preferred allocation for `ctx`, counting a hit or miss.
    fn get(&mut self, ctx: StoreContext<'_>) -> Option<RepositoryEntry>;

    /// Invalidates every entry this tenant can see as its own (used when
    /// DejaVu re-clusters). Shared stores drop only the tenant's local view,
    /// never other tenants' contributions.
    fn clear(&mut self);

    /// Number of entries visible to this tenant.
    fn len(&self) -> usize;

    /// Returns true if no entries are visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated hit/miss statistics from this tenant's perspective.
    fn stats(&self) -> RepositoryStats;

    /// Snapshot of the visible `(key, entry)` pairs, in key order.
    fn entries(&self) -> Vec<(RepositoryKey, RepositoryEntry)>;

    /// Opt-in downcast hook for store implementations that expose extra,
    /// implementation-specific surface (e.g. fleet recovery re-pointing a
    /// tenant view at a different shared repository). Stores with nothing to
    /// expose keep the default `None`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

impl AllocationStore for SignatureRepository {
    fn put(&mut self, ctx: StoreContext<'_>, allocation: ResourceAllocation, tuned_at: SimTime) {
        // Signature-only publications (the unclassified sentinel) have no
        // meaningful local key: storing them would alias every learning-phase
        // workload under one entry. They only exist for signature-matching
        // stores; a local repository drops them.
        if ctx.key == RepositoryKey::unclassified() {
            return;
        }
        self.insert(ctx.key, allocation, tuned_at);
    }

    fn get(&mut self, ctx: StoreContext<'_>) -> Option<RepositoryEntry> {
        self.lookup(ctx.key)
    }

    fn clear(&mut self) {
        SignatureRepository::clear(self);
    }

    fn len(&self) -> usize {
        SignatureRepository::len(self)
    }

    fn is_empty(&self) -> bool {
        SignatureRepository::is_empty(self)
    }

    fn stats(&self) -> RepositoryStats {
        SignatureRepository::stats(self)
    }

    fn entries(&self) -> Vec<(RepositoryKey, RepositoryEntry)> {
        self.iter().map(|(k, e)| (*k, *e)).collect()
    }
}

/// The DejaVu cache.
///
/// # Example
///
/// ```
/// use dejavu_core::{RepositoryKey, SignatureRepository};
/// use dejavu_cloud::ResourceAllocation;
/// use dejavu_simcore::SimTime;
///
/// let mut repo = SignatureRepository::new();
/// repo.insert(RepositoryKey::baseline(0), ResourceAllocation::large(4), SimTime::ZERO);
/// assert!(repo.lookup(RepositoryKey::baseline(0)).is_some());
/// assert!(repo.lookup(RepositoryKey::baseline(1)).is_none());
/// assert_eq!(repo.stats().hits, 1);
/// assert_eq!(repo.stats().misses, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignatureRepository {
    entries: FlatMap<RepositoryKey, RepositoryEntry>,
    stats: RepositoryStats,
}

impl SignatureRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        SignatureRepository::default()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts (or replaces) the preferred allocation for `key`.
    pub fn insert(
        &mut self,
        key: RepositoryKey,
        allocation: ResourceAllocation,
        tuned_at: SimTime,
    ) {
        self.stats.insertions += 1;
        self.entries.insert(
            key,
            RepositoryEntry {
                allocation,
                tuned_at,
                hits: 0,
            },
        );
    }

    /// Looks up the preferred allocation for `key`, counting a hit or miss and
    /// bumping the entry's reuse counter on a hit.
    pub fn lookup(&mut self, key: RepositoryKey) -> Option<RepositoryEntry> {
        match self.entries.get_mut(&key) {
            Some(entry) => Some(*Self::record_hit(entry, &mut self.stats)),
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The single code path that counts a cache hit: the per-entry reuse
    /// counter and the aggregate [`RepositoryStats`] advance together, so the
    /// two can only diverge through entry overwrites or [`clear`](Self::clear)
    /// (which reset entry counters but deliberately keep lifetime stats).
    fn record_hit<'a>(
        entry: &'a mut RepositoryEntry,
        stats: &mut RepositoryStats,
    ) -> &'a RepositoryEntry {
        entry.hits += 1;
        stats.hits += 1;
        entry
    }

    /// Reads an entry without affecting statistics.
    pub fn peek(&self, key: RepositoryKey) -> Option<&RepositoryEntry> {
        self.entries.get(&key)
    }

    /// Removes every cached entry (used when DejaVu re-clusters).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over all `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&RepositoryKey, &RepositoryEntry)> {
        self.entries.iter()
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> RepositoryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut repo = SignatureRepository::new();
        let key = RepositoryKey::baseline(2);
        repo.insert(key, ResourceAllocation::large(6), SimTime::from_hours(1.0));
        let entry = repo.lookup(key).expect("present");
        assert_eq!(entry.allocation, ResourceAllocation::large(6));
        assert_eq!(entry.tuned_at, SimTime::from_hours(1.0));
        assert_eq!(repo.len(), 1);
        assert!(!repo.is_empty());
    }

    #[test]
    fn hit_counters_and_rates() {
        let mut repo = SignatureRepository::new();
        repo.insert(
            RepositoryKey::baseline(0),
            ResourceAllocation::large(2),
            SimTime::ZERO,
        );
        let _ = repo.lookup(RepositoryKey::baseline(0));
        let _ = repo.lookup(RepositoryKey::baseline(0));
        let _ = repo.lookup(RepositoryKey::baseline(5));
        let stats = repo.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(repo.peek(RepositoryKey::baseline(0)).unwrap().hits, 2);
    }

    #[test]
    fn interference_buckets_are_separate_entries() {
        let mut repo = SignatureRepository::new();
        let base = RepositoryKey::baseline(1);
        let interfered = RepositoryKey {
            class: 1,
            interference_bucket: 2,
        };
        repo.insert(base, ResourceAllocation::large(4), SimTime::ZERO);
        repo.insert(interfered, ResourceAllocation::large(6), SimTime::ZERO);
        assert_eq!(repo.lookup(base).unwrap().allocation.count(), 4);
        assert_eq!(repo.lookup(interfered).unwrap().allocation.count(), 6);
        assert_eq!(repo.len(), 2);
    }

    #[test]
    fn overwrite_replaces_allocation() {
        let mut repo = SignatureRepository::new();
        let key = RepositoryKey::baseline(0);
        repo.insert(key, ResourceAllocation::large(2), SimTime::ZERO);
        repo.insert(key, ResourceAllocation::large(8), SimTime::from_hours(2.0));
        assert_eq!(repo.lookup(key).unwrap().allocation.count(), 8);
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.stats().insertions, 2);
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut repo = SignatureRepository::new();
        repo.insert(
            RepositoryKey::baseline(0),
            ResourceAllocation::large(2),
            SimTime::ZERO,
        );
        repo.clear();
        assert!(repo.is_empty());
        assert!(repo.lookup(RepositoryKey::baseline(0)).is_none());
        assert_eq!(repo.iter().count(), 0);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(RepositoryStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn entry_hits_and_aggregate_hits_advance_together() {
        let mut repo = SignatureRepository::new();
        repo.insert(
            RepositoryKey::baseline(0),
            ResourceAllocation::large(2),
            SimTime::ZERO,
        );
        repo.insert(
            RepositoryKey::baseline(1),
            ResourceAllocation::large(4),
            SimTime::ZERO,
        );
        for _ in 0..5 {
            let _ = repo.lookup(RepositoryKey::baseline(0));
        }
        for _ in 0..3 {
            let _ = repo.lookup(RepositoryKey::baseline(1));
        }
        let _ = repo.lookup(RepositoryKey::baseline(9));
        assert_eq!(repo.stats().hits, 8);
        let entry_hits = |class| repo.peek(RepositoryKey::baseline(class)).unwrap().hits;
        assert_eq!((entry_hits(0), entry_hits(1)), (5, 3));
    }

    #[test]
    fn allocation_store_impl_matches_inherent_api() {
        let mut repo = SignatureRepository::new();
        let store: &mut dyn AllocationStore = &mut repo;
        let key = RepositoryKey::baseline(3);
        store.put(
            StoreContext::keyed(key),
            ResourceAllocation::large(5),
            SimTime::ZERO,
        );
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        let entry = store.get(StoreContext::keyed(key)).expect("present");
        assert_eq!(entry.allocation, ResourceAllocation::large(5));
        assert!(store
            .get(StoreContext::keyed(RepositoryKey::unclassified()))
            .is_none());
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.entries().len(), 1);
        store.clear();
        assert!(store.is_empty());
    }
}
