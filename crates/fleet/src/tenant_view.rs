//! Per-tenant adapter between a `DejaVuController` and the fleet-shared
//! repository.
//!
//! [`TenantRepoView`] implements `dejavu_core::AllocationStore`, so a tenant's
//! controller is oblivious to the sharing. The view keeps:
//!
//! * a **local overlay** — the tenant's own entries, keyed by its local
//!   [`RepositoryKey`]s; reads and writes hit it immediately, exactly like the
//!   classic `SignatureRepository` (which is what makes a single-tenant fleet
//!   bit-match a stand-alone run);
//! * an **outbox** of [`PendingOp`]s — publishes and cross-tenant hit records
//!   buffered during an epoch and drained by the configured
//!   [`crate::transport`] backend (the BSP barrier in tenant order at every
//!   epoch barrier; the work-stealing pool's committer per shard-epoch). The
//!   view only ever *buffers*; when and under what consistency the
//!   operations commit is entirely the transport's business.
//!
//! A lookup that misses the overlay falls back to the shared store, excluding
//! entries this tenant owns (its own knowledge lives in the overlay; after a
//! re-clustering `clear`, stale self-entries must not resurrect through the
//! shared path).
//!
//! # Clocks
//!
//! A tenant's controller runs on its **local** clock (zero at its join
//! barrier), but the shared store's timestamps are **global** fleet times —
//! otherwise a late joiner's entries would look ancient to the barrier TTL
//! sweep and one tenant's staleness would be judged against another tenant's
//! clock. The view is the boundary: it adds the tenant's
//! [`clock offset`](TenantRepoView::new_with_offset) when publishing or
//! consulting the shared store and keeps the local overlay in local time.

use crate::repo_client::RepositoryClient;
use crate::shared_repo::{PendingOp, ResolveMemo, TenantId};
use crate::transport::Outbox;
use dejavu_cloud::ResourceAllocation;
use dejavu_core::repository::{
    AllocationStore, RepositoryEntry, RepositoryKey, RepositoryStats, StoreContext,
};
use dejavu_core::FlatMap;
use dejavu_simcore::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// A tenant's view of the fleet-shared signature repository.
#[derive(Debug)]
pub struct TenantRepoView {
    shared: Arc<dyn RepositoryClient>,
    tenant: TenantId,
    namespace: u64,
    /// Global fleet time of this tenant's join barrier: added to local times
    /// when talking to the shared store, so shared timestamps are coherent
    /// fleet-wide no matter when a tenant joined.
    clock_offset: SimDuration,
    local: FlatMap<RepositoryKey, RepositoryEntry>,
    stats: RepositoryStats,
    /// This tenant's anchor resolutions, revalidated on a repeated peek —
    /// provably bit-identical to resolving from scratch (anchors only
    /// accrete; see [`ResolveMemo`]).
    memo: ResolveMemo,
    outbox: Outbox,
}

impl TenantRepoView {
    /// Creates a view for `tenant` within `namespace`, returning the view and
    /// the outbox handle the fleet engine drains at epoch barriers. The
    /// tenant's clock is taken to coincide with the fleet's (offset zero).
    pub fn new(
        shared: Arc<dyn RepositoryClient>,
        tenant: TenantId,
        namespace: u64,
    ) -> (Self, Outbox) {
        Self::new_with_offset(shared, tenant, namespace, SimDuration::from_secs(0.0))
    }

    /// [`new`](Self::new) for a tenant whose local clock starts
    /// `clock_offset` into the fleet run (an elastic late joiner).
    pub fn new_with_offset(
        shared: Arc<dyn RepositoryClient>,
        tenant: TenantId,
        namespace: u64,
        clock_offset: SimDuration,
    ) -> (Self, Outbox) {
        let outbox: Outbox = Arc::new(Mutex::new(Vec::new()));
        (
            TenantRepoView {
                shared,
                tenant,
                namespace,
                clock_offset,
                local: FlatMap::new(),
                stats: RepositoryStats::default(),
                memo: ResolveMemo::default(),
                outbox: Arc::clone(&outbox),
            },
            outbox,
        )
    }

    /// The tenant this view belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The namespace this view reads and publishes under.
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// This tenant's local time as global fleet time.
    fn to_global(&self, local: SimTime) -> SimTime {
        local + self.clock_offset
    }

    /// Global fleet time as this tenant's local time, clamped to the tenant's
    /// time zero for instants before it joined.
    fn to_local(&self, global: SimTime) -> SimTime {
        SimTime::ZERO + global.saturating_since(SimTime::ZERO + self.clock_offset)
    }

    fn push_op(&self, op: PendingOp) {
        self.outbox.lock().expect("tenant outbox poisoned").push(op);
    }

    /// Re-points this view at a different shared repository, keeping the
    /// local overlay, stats, memo and outbox.
    ///
    /// Crash recovery replays a tenant against a private repository clone
    /// materialized from the checkpoint chain, then retargets the caught-up
    /// view at the live fleet store. The memo survives the switch because
    /// recovery guarantees the two repositories hold bit-identical anchor
    /// state for this namespace at the switch point (anchors only accrete, so
    /// memoized resolutions stay exact).
    pub fn retarget(&mut self, shared: Arc<dyn RepositoryClient>) {
        self.shared = shared;
    }
}

impl AllocationStore for TenantRepoView {
    fn put(&mut self, ctx: StoreContext<'_>, allocation: ResourceAllocation, tuned_at: SimTime) {
        self.stats.insertions += 1;
        // The unclassified sentinel identifies signature-only publications
        // (learning-phase tunings): they go to the fleet, never into the
        // overlay, where one key would alias every learning workload.
        if ctx.key != RepositoryKey::unclassified() {
            self.local.insert(
                ctx.key,
                RepositoryEntry {
                    allocation,
                    tuned_at,
                    hits: 0,
                },
            );
        }
        if let Some(sig) = ctx.class_signature {
            self.push_op(PendingOp::Publish {
                tenant: self.tenant,
                namespace: self.namespace,
                signature: sig.values().to_vec(),
                interference_bucket: ctx.key.interference_bucket,
                allocation,
                tuned_at: self.to_global(tuned_at),
            });
        }
    }

    fn get(&mut self, ctx: StoreContext<'_>) -> Option<RepositoryEntry> {
        if let Some(entry) = self.local.get_mut(&ctx.key) {
            entry.hits += 1;
            self.stats.hits += 1;
            return Some(*entry);
        }
        let Some(sig) = ctx.class_signature else {
            self.stats.misses += 1;
            return None;
        };
        match self.shared.peek_resolved_cached(
            self.namespace,
            sig.values(),
            ctx.key.interference_bucket,
            self.to_global(ctx.now),
            Some(self.tenant),
            &mut self.memo,
        ) {
            Some((shared_entry, resolved)) => {
                self.stats.hits += 1;
                self.push_op(PendingOp::RecordHit {
                    tenant: self.tenant,
                    namespace: self.namespace,
                    signature: sig.values().to_vec(),
                    interference_bucket: ctx.key.interference_bucket,
                    resolved: Some(resolved),
                });
                let entry = RepositoryEntry {
                    allocation: shared_entry.allocation,
                    // The overlay lives on the tenant's local clock; clamp
                    // entries tuned before this tenant joined to its time zero.
                    tuned_at: self.to_local(shared_entry.tuned_at),
                    hits: 1,
                };
                // Adopt the fleet's answer locally for classified workloads so
                // later lookups are overlay hits; learning-phase lookups use
                // the unclassified sentinel and must not alias through it.
                if ctx.key != RepositoryKey::unclassified() {
                    self.local.insert(ctx.key, entry);
                }
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                self.push_op(PendingOp::RecordMiss {
                    namespace: self.namespace,
                });
                None
            }
        }
    }

    fn clear(&mut self) {
        // Re-clustering invalidates this tenant's classes only; other tenants'
        // shared entries stay (staleness is the TTL's job).
        self.local.clear();
    }

    fn len(&self) -> usize {
        self.local.len()
    }

    fn stats(&self) -> RepositoryStats {
        self.stats
    }

    fn entries(&self) -> Vec<(RepositoryKey, RepositoryEntry)> {
        self.local.iter().map(|(k, e)| (*k, *e)).collect()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_repo::{SharedRepoConfig, SharedSignatureRepository};
    use dejavu_metrics::WorkloadSignature;
    use dejavu_simcore::SimDuration;

    fn sig(values: &[f64]) -> WorkloadSignature {
        WorkloadSignature::from_normalized(
            (0..values.len()).map(|i| format!("m{i}")).collect(),
            values.to_vec(),
            SimDuration::from_secs(10.0),
        )
    }

    fn shared() -> Arc<SharedSignatureRepository> {
        Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default()))
    }

    #[test]
    fn own_writes_hit_the_overlay_immediately() {
        let (mut view, outbox) = TenantRepoView::new(shared(), 0, 1);
        let s = sig(&[10.0, 20.0]);
        let key = RepositoryKey::baseline(0);
        view.put(
            StoreContext::with_signature(key, &s),
            ResourceAllocation::large(4),
            SimTime::ZERO,
        );
        let entry = view.get(StoreContext::with_signature(key, &s)).unwrap();
        assert_eq!(entry.allocation, ResourceAllocation::large(4));
        assert_eq!(view.stats().hits, 1);
        assert_eq!(view.len(), 1);
        // The publish is buffered, not applied.
        assert_eq!(outbox.lock().unwrap().len(), 1);
        assert!(view.shared.is_empty());
    }

    #[test]
    fn cross_tenant_reads_see_only_committed_entries_of_others() {
        let repo = shared();
        let s = sig(&[10.0, 20.0]);
        // Tenant 7 committed an entry earlier (simulating an epoch barrier).
        repo.insert(
            7,
            1,
            s.values(),
            0,
            ResourceAllocation::large(6),
            SimTime::ZERO,
        );

        let (mut view, outbox) = TenantRepoView::new(Arc::clone(&repo) as _, 0, 1);
        let entry = view
            .get(StoreContext::with_signature(
                RepositoryKey::unclassified(),
                &s,
            ))
            .expect("fleet hit");
        assert_eq!(entry.allocation, ResourceAllocation::large(6));
        assert_eq!(view.stats().hits, 1);
        // Sentinel lookups are not adopted into the overlay.
        assert_eq!(view.len(), 0);
        // The hit record is buffered for the barrier.
        assert!(matches!(
            outbox.lock().unwrap()[0],
            PendingOp::RecordHit { tenant: 0, .. }
        ));

        // The owner itself never resolves through the shared path.
        let (mut owner_view, _) = TenantRepoView::new(repo, 7, 1);
        assert!(owner_view
            .get(StoreContext::with_signature(
                RepositoryKey::unclassified(),
                &s
            ))
            .is_none());
        assert_eq!(owner_view.stats().misses, 1);
    }

    #[test]
    fn classified_fleet_hits_are_adopted_locally() {
        let repo = shared();
        let s = sig(&[10.0, 20.0]);
        repo.insert(
            3,
            1,
            s.values(),
            0,
            ResourceAllocation::large(5),
            SimTime::ZERO,
        );
        let (mut view, _outbox) = TenantRepoView::new(repo, 0, 1);
        let key = RepositoryKey::baseline(2);
        assert!(view.get(StoreContext::with_signature(key, &s)).is_some());
        assert_eq!(view.len(), 1);
        // Second lookup is an overlay hit — no key-signature resolution needed.
        assert!(view.get(StoreContext::keyed(key)).is_some());
        assert_eq!(view.stats().hits, 2);
    }

    #[test]
    fn clear_drops_only_the_overlay() {
        let repo = shared();
        let s = sig(&[10.0, 20.0]);
        repo.insert(
            3,
            1,
            s.values(),
            0,
            ResourceAllocation::large(5),
            SimTime::ZERO,
        );
        let (mut view, _outbox) = TenantRepoView::new(Arc::clone(&repo) as _, 0, 1);
        view.put(
            StoreContext::with_signature(RepositoryKey::baseline(0), &s),
            ResourceAllocation::large(2),
            SimTime::ZERO,
        );
        view.clear();
        assert!(view.is_empty());
        assert_eq!(repo.len(), 1, "other tenants' entries survive");
    }
}
