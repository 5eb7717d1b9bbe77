//! The client surface of the shared signature repository.
//!
//! [`RepositoryClient`] is the narrow trait the fleet machinery actually
//! drives: tenant lookups ([`TenantRepoView`](crate::tenant_view) resolves
//! through [`peek_resolved_cached`](RepositoryClient::peek_resolved_cached)),
//! transport commits ([`apply_batch`](RepositoryClient::apply_batch) plus the
//! TTL sweeps), shard routing, and the read-only counters the fleet report
//! snapshots at the end of a run. [`SharedSignatureRepository`] implements it
//! by plain delegation; `dejavu-serve`'s `RemoteRepository` implements it over
//! the wire, which is what lets `FleetEngine::run_on_client` drive an entire
//! fleet against a repository living in another process.
//!
//! Deliberately **not** on the trait: snapshot/delta capture, shard restore
//! and the delta-cursor plumbing. Those are the crash-recovery internals of
//! the fault layer — they need the in-process
//! [`SharedSignatureRepository`] (the transports keep an optional concrete
//! handle for exactly that), and a remote server owns its durability story
//! rather than exporting raw chain surgery to clients.

use crate::shared_repo::{
    shard_of_namespace, PendingOp, ResolveMemo, ShardStats, SharedEntry, SharedSignatureRepository,
    TenantId,
};
use dejavu_simcore::SimTime;
use std::fmt::Debug;

/// What a fleet needs from a shared signature repository, whether it lives
/// in-process or behind a socket.
///
/// Object-safe on purpose: tenants hold `Arc<dyn RepositoryClient>` so the
/// same engine drives [`SharedSignatureRepository`] directly or
/// `dejavu-serve`'s wire client without re-monomorphizing the fleet.
///
/// # Contract
///
/// Implementations must preserve the semantics the in-process store
/// establishes — reads are bit-exact functions of committed state, shard
/// routing agrees with [`shard_of_namespace`], and
/// [`apply_batch`](Self::apply_batch) applies operations in the given order —
/// because the differential suites compare transports (and processes) against
/// each other bit for bit.
pub trait RepositoryClient: Debug + Send + Sync {
    /// Anchor-resolved lookup with per-tenant memoization; the tenant read
    /// path. See [`SharedSignatureRepository::peek`].
    #[allow(clippy::too_many_arguments)]
    fn peek_resolved_cached(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
        memo: &mut ResolveMemo,
    ) -> Option<(SharedEntry, (u32, u32, f64))>;

    /// Applies one epoch's buffered operations in order; the transport commit
    /// path. Returns one applied-flag per operation.
    fn apply_batch(&self, ops: &[PendingOp]) -> Vec<bool>;

    /// TTL-sweeps every shard at fleet time `now`, returning entries evicted.
    fn evict_stale(&self, now: SimTime) -> u64;

    /// TTL-sweeps a single shard (the per-shard commit frontiers' hook).
    fn evict_stale_shard(&self, shard: usize, now: SimTime) -> u64;

    /// Number of lock-striped shards.
    fn shard_count(&self) -> usize;

    /// The shard `namespace` routes to. The provided implementation is the
    /// canonical routing every in-tree store uses; override only to delegate
    /// (never to re-route — recovery and the frontiers assume agreement).
    fn shard_index(&self, namespace: u64) -> usize {
        shard_of_namespace(namespace, self.shard_count())
    }

    /// The repository's high-water clock (drives warm-start resumption).
    fn clock(&self) -> SimTime;

    /// Total committed entries across all shards.
    fn len(&self) -> usize;

    /// Whether the repository holds no entries at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total anchors (distinct workload classes) across all shards.
    fn anchor_count(&self) -> usize;

    /// Fleet-wide counter totals (hits, misses, insertions, evictions, …).
    fn stats(&self) -> ShardStats;

    /// Per-shard counter snapshots, indexed by shard.
    fn shard_stats(&self) -> Vec<ShardStats>;
}

impl RepositoryClient for SharedSignatureRepository {
    // Inherent methods shadow trait methods inside these bodies, so each
    // delegation resolves to the concrete implementation, not to itself.
    fn peek_resolved_cached(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
        memo: &mut ResolveMemo,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        self.peek(
            namespace,
            signature,
            interference_bucket,
            now,
            exclude_owner,
            Some(memo),
        )
    }

    fn apply_batch(&self, ops: &[PendingOp]) -> Vec<bool> {
        self.apply_batch(ops)
    }

    fn evict_stale(&self, now: SimTime) -> u64 {
        self.evict_stale(now)
    }

    fn evict_stale_shard(&self, shard: usize, now: SimTime) -> u64 {
        self.evict_stale_shard(shard, now)
    }

    fn shard_count(&self) -> usize {
        self.shard_count()
    }

    fn shard_index(&self, namespace: u64) -> usize {
        self.shard_index(namespace)
    }

    fn clock(&self) -> SimTime {
        self.clock()
    }

    fn len(&self) -> usize {
        self.len()
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }

    fn anchor_count(&self) -> usize {
        self.anchor_count()
    }

    fn stats(&self) -> ShardStats {
        self.stats()
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shard_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_repo::SharedRepoConfig;
    use dejavu_cloud::ResourceAllocation;
    use std::sync::Arc;

    #[test]
    fn trait_object_reads_match_the_concrete_repository() {
        let repo = Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default()));
        repo.insert(
            3,
            11,
            &[10.0, 20.0],
            0,
            ResourceAllocation::large(5),
            SimTime::ZERO,
        );
        let client: Arc<dyn RepositoryClient> = Arc::clone(&repo) as _;

        assert_eq!(client.len(), repo.len());
        assert_eq!(client.anchor_count(), repo.anchor_count());
        assert_eq!(client.shard_count(), repo.shard_count());
        assert_eq!(client.shard_index(11), repo.shard_index(11));
        assert!(!client.is_empty());

        let mut memo_a = ResolveMemo::default();
        let mut memo_b = ResolveMemo::default();
        let via_trait =
            client.peek_resolved_cached(11, &[10.0, 20.0], 0, SimTime::ZERO, None, &mut memo_a);
        let direct = repo.peek(11, &[10.0, 20.0], 0, SimTime::ZERO, None, Some(&mut memo_b));
        assert_eq!(
            via_trait.map(|(e, r)| (e.allocation, r)),
            direct.map(|(e, r)| (e.allocation, r))
        );
    }
}
