//! One lock stripe of the repository: its namespaces, its counters, the
//! published read image, and the write paths (batch apply and TTL sweep)
//! that run under its write lock.

use super::anchors::AnchorSet;
use super::{PendingOp, ShardStats, SharedEntry, SharedRepoConfig, TenantId};
use dejavu_cloud::ResourceAllocation;
use dejavu_core::FlatMap;
use dejavu_obs::Counter;
use dejavu_simcore::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The stored form of an entry: reuse counters are relaxed atomics so reads
/// can account hits against a published snapshot without the shard lock.
/// The counters sit behind `Arc`s that copy-on-write namespace clones
/// **share** (cloning an entry clones the `Arc`, not the count), so a hit
/// recorded through an older published generation lands in the same counter
/// the next capture reads — exactly as when there was one copy.
#[derive(Debug, Clone)]
pub(super) struct StoredEntry {
    pub(super) allocation: ResourceAllocation,
    pub(super) tuned_at: SimTime,
    pub(super) owner: TenantId,
    pub(super) hits: Arc<AtomicU64>,
    pub(super) cross_tenant_hits: Arc<AtomicU64>,
}

impl StoredEntry {
    pub(super) fn snapshot(&self) -> SharedEntry {
        SharedEntry {
            allocation: self.allocation,
            tuned_at: self.tuned_at,
            owner: self.owner,
            hits: self.hits.load(Relaxed),
            cross_tenant_hits: self.cross_tenant_hits.load(Relaxed),
        }
    }
}

/// Per-shard counters, advanced with relaxed atomics (the shared
/// [`dejavu_obs::Counter`] primitive) so the read path never needs the shard
/// write lock. Snapshots are only taken at epoch barriers or after a run,
/// when no concurrent updates are in flight, so totals are exact.
#[derive(Debug, Default)]
pub(super) struct ShardCounters {
    pub(super) hits: Counter,
    pub(super) misses: Counter,
    insertions: Counter,
    evictions: Counter,
    pub(super) cross_tenant_hits: Counter,
    anchors_created: Counter,
}

impl ShardCounters {
    pub(super) fn snapshot(&self) -> ShardStats {
        ShardStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            cross_tenant_hits: self.cross_tenant_hits.get(),
            anchors_created: self.anchors_created.get(),
        }
    }

    pub(super) fn restore(&self, stats: &ShardStats) {
        self.hits.set(stats.hits);
        self.misses.set(stats.misses);
        self.insertions.set(stats.insertions);
        self.evictions.set(stats.evictions);
        self.cross_tenant_hits.set(stats.cross_tenant_hits);
        self.anchors_created.set(stats.anchors_created);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct EntryKey {
    pub(super) anchor: u32,
    pub(super) interference_bucket: u32,
}

#[derive(Debug, Default, Clone)]
pub(super) struct NamespaceState {
    pub(super) anchors: AnchorSet,
    pub(super) entries: FlatMap<EntryKey, StoredEntry>,
    /// The shard's [`ShardState::mutation_clock`] value at this namespace's
    /// last mutation. Incremental delta capture compares it against the
    /// cursor's recorded value to decide whether the namespace changed since
    /// the previous checkpoint. `0` means "never mutated since creation".
    pub(super) version: u64,
}

#[derive(Debug, Default)]
pub(super) struct ShardState {
    /// Namespaces are held through `Arc`s so publishing a read snapshot is
    /// one map-of-pointers clone; write paths mutate through
    /// [`Arc::make_mut`], cloning a namespace only when the published
    /// generation still references it (at most once per namespace per
    /// publish interval).
    pub(super) namespaces: FlatMap<u64, Arc<NamespaceState>>,
    /// Monotone mutation stamp source for delta capture: bumped on every
    /// namespace mutation under the write lock and **never reset** — not
    /// even when a lost shard is wiped and re-seeded — so a namespace
    /// version is unique per distinct state and a capture cursor can never
    /// mistake a re-mutated namespace for an unchanged one (ABA).
    pub(super) mutation_clock: u64,
}

/// The published, read-side image of one shard: its namespace map at the
/// last write-path publish.
pub(super) type ReadSnapshot = FlatMap<u64, Arc<NamespaceState>>;

#[derive(Debug)]
pub(super) struct Shard {
    state: RwLock<ShardState>,
    pub(super) counters: ShardCounters,
    /// The read image, republished at the end of every write path while
    /// the state lock is held, so outside a writer's critical section it is
    /// always identical to `state.namespaces`. Its own lock is held only to
    /// clone or swap the pointer, never across a resolve or a commit.
    published: RwLock<Arc<ReadSnapshot>>,
    /// Earliest `tuned_at` any live entry of this shard may have (IEEE bits
    /// of a non-negative `f64`; `+inf` = provably empty). A conservative
    /// lower bound maintained by `fetch_min` on writes and recomputed
    /// exactly by sweeps: the TTL sweep skips the shard's write lock
    /// entirely while `now - watermark ≤ ttl`, since no entry can be stale.
    pub(super) earliest_tuned: AtomicU64,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            state: RwLock::new(ShardState::default()),
            counters: ShardCounters::default(),
            published: RwLock::new(Arc::new(FlatMap::new())),
            earliest_tuned: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

impl Shard {
    pub(super) fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        self.state.read().expect("shared repository shard poisoned")
    }

    pub(super) fn write(&self) -> RwLockWriteGuard<'_, ShardState> {
        self.state
            .write()
            .expect("shared repository shard poisoned")
    }

    /// The most recently published read image. The cell's read lock is held
    /// only for the `Arc` clone, so a reader never waits for a commit in
    /// progress — only, at worst, for a publisher's pointer swap.
    pub(super) fn snapshot(&self) -> Arc<ReadSnapshot> {
        Arc::clone(&self.published.read().expect("published cell poisoned"))
    }

    /// Republishes the shard's namespace map as the read image. Called with
    /// the state write lock held, which serializes publishers. The map is
    /// cloned before, and the old image dropped after, the cell's write
    /// lock, which covers only the swap.
    pub(super) fn publish(&self, state: &ShardState) {
        let next = Arc::new(state.namespaces.clone());
        let _previous = std::mem::replace(
            &mut *self.published.write().expect("published cell poisoned"),
            next,
        );
    }

    /// Lowers the earliest-expiry watermark to cover an entry tuned at
    /// `tuned_at` (non-negative `f64` bits order like the floats, so
    /// integer `fetch_min` is a numeric min).
    pub(super) fn note_tuned_at(&self, tuned_at: SimTime) {
        self.earliest_tuned
            .fetch_min(tuned_at.as_secs().max(0.0).to_bits(), Relaxed);
    }

    /// Writes one allocation decision into `state` (this shard's, write
    /// locked), creating an anchor for the signature if none matches.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn insert_locked(
        &self,
        state: &mut ShardState,
        config: &SharedRepoConfig,
        tenant: TenantId,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        allocation: ResourceAllocation,
        tuned_at: SimTime,
    ) {
        state.mutation_clock += 1;
        let stamp = state.mutation_clock;
        let ns = Arc::make_mut(
            state
                .namespaces
                .get_mut_or_insert_with(namespace, || Arc::new(NamespaceState::default())),
        );
        ns.version = stamp;
        let tolerance = config.match_tolerance;
        let anchor = match ns.anchors.resolve(signature, tolerance, &mut 0) {
            Some((_, id)) => id,
            None => {
                self.counters.anchors_created.inc();
                ns.anchors.push(signature, tolerance)
            }
        };
        let key = EntryKey {
            anchor,
            interference_bucket,
        };
        match ns.entries.get_mut(&key) {
            Some(existing) => {
                if config.is_stale(existing.tuned_at, tuned_at)
                    || allocation.capacity_units() >= existing.allocation.capacity_units()
                {
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
        self.note_tuned_at(tuned_at);
        self.counters.insertions.inc();
    }

    /// Applies one buffered operation to `state` (this shard's, write
    /// locked). Returns whether it took effect: a `RecordHit` whose entry a
    /// publish earlier in the same batch re-anchored records nothing.
    pub(super) fn apply_locked(
        &self,
        state: &mut ShardState,
        config: &SharedRepoConfig,
        op: &PendingOp,
    ) -> bool {
        match op {
            PendingOp::Publish {
                tenant,
                namespace,
                signature,
                interference_bucket,
                allocation,
                tuned_at,
            } => {
                self.insert_locked(
                    state,
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
                // Reuse the peek-time resolution: only an anchor created
                // since the peek can displace it.
                let tolerance = config.match_tolerance;
                let resolution = match resolved {
                    Some((anchor, count, distance)) => ns.anchors.revalidate(
                        signature,
                        tolerance,
                        Some((*distance, *anchor)),
                        *count,
                        &mut 0,
                    ),
                    None => ns.anchors.resolve(signature, tolerance, &mut 0),
                };
                let Some((_, anchor)) = resolution else {
                    return false;
                };
                let Some(entry) = ns.entries.get(&EntryKey {
                    anchor,
                    interference_bucket: *interference_bucket,
                }) else {
                    return false;
                };
                entry.hits.fetch_add(1, Relaxed);
                self.counters.hits.inc();
                if entry.owner != *tenant {
                    entry.cross_tenant_hits.fetch_add(1, Relaxed);
                    self.counters.cross_tenant_hits.inc();
                }
                // The hit counters live inside the namespace's entries, so a
                // recorded hit is a namespace change for delta capture.
                ns.version = stamp;
                true
            }
            PendingOp::RecordMiss { .. } => {
                self.counters.misses.inc();
                true
            }
        }
    }

    /// Removes every entry of this shard tuned more than `ttl` before `now`
    /// and returns how many went.
    pub(super) fn sweep(&self, ttl: SimDuration, now: SimTime) -> u64 {
        // Clean-shard fast path: the watermark lower-bounds every live
        // entry's `tuned_at`, so while even the watermark is within TTL the
        // sweep provably evicts nothing — skip the write lock entirely.
        // (`+inf` marks a shard with no entries at all.) Bit-identical to
        // always sweeping: a skipped sweep evicts 0 and mutates nothing,
        // exactly what the full pass would have done.
        let watermark = f64::from_bits(self.earliest_tuned.load(Relaxed));
        if !watermark.is_finite()
            || now
                .saturating_since(SimTime::from_secs(watermark))
                .as_secs()
                <= ttl.as_secs()
        {
            return 0;
        }
        let mut state = self.write();
        let state = &mut *state;
        let mut evicted = 0u64;
        let mut earliest = f64::INFINITY;
        let stale = |e: &StoredEntry| now.saturating_since(e.tuned_at).as_secs() > ttl.as_secs();
        for ns in state.namespaces.values_mut() {
            // Copy-on-write discipline: only namespaces that actually lose
            // an entry are cloned away from the published generation.
            if ns.entries.values().any(stale) {
                let ns = Arc::make_mut(ns);
                let before = ns.entries.len();
                ns.entries.retain(|_, e| !stale(e));
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
        self.earliest_tuned
            .store(earliest.max(0.0).to_bits(), Relaxed);
        self.counters.evictions.add(evicted);
        if evicted > 0 {
            self.publish(state);
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use crate::shared_repo::tests::repo;
    use crate::shared_repo::*;
    use dejavu_cloud::ResourceAllocation;
    use dejavu_simcore::{SimDuration, SimTime};

    #[test]
    fn record_miss_feeds_shard_stats() {
        let r = repo();
        assert!(r.apply_batch(&[PendingOp::RecordMiss { namespace: 9 }])[0]);
        assert_eq!(r.stats().misses, 1);
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
        assert!(r.peek(ns_b, &sig, 0, SimTime::ZERO, None, None).is_some());
        assert_eq!(r.stats().evictions, 1);
        // The whole-repo sweep then reclaims the rest; the per-shard and
        // fleet-wide paths account evictions through the same counters.
        assert_eq!(r.evict_stale(late), 1);
        assert!(r.is_empty());
        assert_eq!(r.stats().evictions, 2);
    }

    #[test]
    fn apply_publish_and_record_hit() {
        let r = repo();
        let sig = vec![10.0, 10.0];
        r.apply_batch(&[PendingOp::Publish {
            tenant: 0,
            namespace: 1,
            signature: sig.clone(),
            interference_bucket: 0,
            allocation: ResourceAllocation::large(3),
            tuned_at: SimTime::ZERO,
        }]);
        assert_eq!(r.len(), 1);
        r.apply_batch(&[PendingOp::RecordHit {
            tenant: 5,
            namespace: 1,
            signature: sig,
            interference_bucket: 0,
            resolved: None,
        }]);
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
        let seq_applied: Vec<bool> = mk_ops()
            .iter()
            .map(|op| sequential.apply_batch(std::slice::from_ref(op))[0])
            .collect();
        let batched = repo();
        let batch_applied = batched.apply_batch(&mk_ops());
        assert_eq!(seq_applied, batch_applied);
        assert_eq!(sequential.len(), batched.len());
        assert_eq!(sequential.anchor_count(), batched.anchor_count());
        assert_eq!(sequential.stats(), batched.stats());
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
}
