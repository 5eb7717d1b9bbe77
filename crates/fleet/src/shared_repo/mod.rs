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
//!   a query provably lies inside the query's φ-ball (`anchors.rs`).
//!   Resolution therefore inspects candidate cells/leaves instead of every
//!   anchor in the namespace, and the remaining exact checks use an
//!   early-exit distance ([`normalized_distance_within`]) that bails as soon
//!   as the partial sum exceeds the tolerance bound. Results — including the
//!   lowest-id tie-break — are bit-identical to a brute-force linear scan
//!   (property-tested in `tests/properties.rs`).
//! * **Published read snapshots.** Every write path republishes the shard's
//!   namespace map (copy-on-write `Arc`s per namespace) as the shard's read
//!   image before releasing the shard's state lock. The image sits in an
//!   `RwLock<Arc<…>>` that a publisher holds only to swap the pointer;
//!   [`SharedSignatureRepository::lookup`] and
//!   [`peek`](SharedSignatureRepository::peek) clone the `Arc` under its
//!   read lock, release it, and resolve against that snapshot. Reads never
//!   wait for the committer's `apply_batch`/TTL-sweep state lock, and the
//!   crate has no `unsafe` code. Hit/miss/reuse counters are relaxed atomics
//!   (per shard, and per entry shared across snapshot generations), so
//!   read-side accounting lands in the same counters the write path owns.
//!   Stale entries found by a lookup are counted as misses but left in
//!   place — eviction is deferred to the epoch TTL sweep
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
//!   accrete and newer anchors lose distance ties. The epoch commit checks a
//!   `RecordHit`'s peek-time witness by the same rule, in the same function.
//! * **Flat storage.** Entries live in a key-sorted
//!   [`FlatMap`](dejavu_core::FlatMap) (one contiguous vector per namespace)
//!   and anchor centroids in one flat `f64` slab per namespace, so a lookup
//!   touches contiguous memory instead of chasing B-tree nodes.
//!
//! Shards are lock-striped (`RwLock` per shard); a namespace's anchors and
//! entries live entirely within one shard, so a write needs a single lock.
//! Entries carry their tuning time; a TTL turns tuning decisions stale so a
//! fleet never reuses week-old allocations forever.
//!
//! The ball tree, the memo and the distance live in `anchors.rs`; shard
//! state, counters, the published cell, batch apply and the TTL sweep in
//! `shard.rs`; snapshot, delta and restore glue in `persist.rs`.

mod anchors;
mod persist;
mod shard;

pub use anchors::{normalized_distance, normalized_distance_within, ResolveMemo};
pub use persist::DeltaCursor;

use dejavu_cloud::{AllocationSpace, ResourceAllocation};
use dejavu_obs::Recorder;
use dejavu_simcore::{SimDuration, SimTime};
use dejavu_traces::{RequestMix, ServiceKind};
use shard::{EntryKey, Shard};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

impl SharedRepoConfig {
    /// Whether an entry tuned at `tuned_at` is past the TTL at `now`.
    fn is_stale(&self, tuned_at: SimTime, now: SimTime) -> bool {
        self.ttl
            .is_some_and(|ttl| now.saturating_since(tuned_at).as_secs() > ttl.as_secs())
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
        let mut state = shard.write();
        shard.insert_locked(
            &mut state,
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

    /// Looks up the entry matching `signature` × `interference_bucket`,
    /// counting hit/miss and reuse statistics. Thread-safe, and never waits
    /// for a commit in progress: it resolves against the shard's published
    /// snapshot instead of its state lock. Statistics move through relaxed
    /// atomics shared across snapshot generations, and a stale entry merely
    /// misses (the epoch TTL sweep evicts it later).
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
        let namespaces = shard.snapshot();
        let entry = namespaces
            .get(&namespace)
            .and_then(|ns| {
                let (_, anchor) =
                    ns.anchors
                        .resolve(signature, self.config.match_tolerance, &mut probes)?;
                ns.entries.get(&EntryKey {
                    anchor,
                    interference_bucket,
                })
            })
            // A stale entry misses; eviction is the TTL sweep's job.
            .filter(|entry| !self.config.is_stale(entry.tuned_at, now));
        let snapshot = entry.map(|entry| {
            let hits = entry.hits.fetch_add(1, Relaxed) + 1;
            shard.counters.hits.inc();
            let mut snapshot = entry.snapshot();
            snapshot.hits = hits;
            if entry.owner != tenant {
                snapshot.cross_tenant_hits = entry.cross_tenant_hits.fetch_add(1, Relaxed) + 1;
                shard.counters.cross_tenant_hits.inc();
            }
            snapshot
        });
        self.recorder.observe(started, |m| &m.lookup_ns);
        self.recorder.with(|m| m.tree_visits.record(probes));
        if snapshot.is_none() {
            shard.counters.misses.inc();
        }
        snapshot
    }

    /// Read-only lookup for the epoch-buffered tenant views and the wire:
    /// no statistics move, entries owned by `exclude_owner` are invisible (a
    /// tenant's own entries live in its local overlay), stale entries are
    /// filtered but not evicted. Like [`lookup`](Self::lookup) it reads the
    /// shard's published snapshot, so an epoch's worth of concurrent tenant
    /// reads never wait for a committer holding the shard's state lock.
    ///
    /// Returns the entry with the `(anchor id, anchor count, distance)`
    /// witness of the resolution: a buffered [`PendingOp::RecordHit`]
    /// carries it so the epoch commit checks only anchors created after the
    /// peek. With a caller-held [`ResolveMemo`] — the hot path for
    /// controllers that peek the same class-medoid signatures tick after
    /// tick — the resolution is revalidated instead of re-derived; answers
    /// and witnesses are bit-identical either way.
    pub fn peek(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
        mut memo: Option<&mut ResolveMemo>,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        let started = self.recorder.start();
        if let Some(memo) = memo.as_deref_mut() {
            memo.bind(namespace);
            // The memo-hit probe re-runs the (≤ 32-entry) memo scan, but
            // only with obs enabled — the disabled path never touches it.
            self.recorder.with(|m| {
                if memo.find(signature).is_some() {
                    m.memo_hits.inc();
                } else {
                    m.memo_misses.inc();
                }
            });
        }
        let mut probes = 0u64;
        let tolerance = self.config.match_tolerance;
        let namespaces = self.shards[self.shard_index(namespace)].snapshot();
        let result = namespaces.get(&namespace).and_then(|ns| {
            let (distance, anchor) = match memo.as_deref_mut() {
                Some(memo) => ns
                    .anchors
                    .resolve_memoized(signature, tolerance, memo, &mut probes),
                None => ns.anchors.resolve(signature, tolerance, &mut probes),
            }?;
            let entry = ns.entries.get(&EntryKey {
                anchor,
                interference_bucket,
            })?;
            if self.config.is_stale(entry.tuned_at, now) || exclude_owner == Some(entry.owner) {
                return None;
            }
            Some((entry.snapshot(), (anchor, ns.anchors.count(), distance)))
        });
        self.recorder.observe(started, |m| &m.peek_ns);
        self.recorder.with(|m| {
            m.tree_visits.record(probes);
            if let Some(memo) = memo {
                m.scratch_bytes_saved.add(memo.take_bytes_saved());
            }
        });
        result
    }

    /// Applies a whole epoch's buffered operations, grouped so each shard's
    /// write lock is taken **once** rather than once per operation. Within a
    /// shard, operations apply in their order in `ops` (the fleet engine
    /// passes them in tenant order), and operations on different shards touch
    /// disjoint namespaces, so the outcome is identical to applying `ops`
    /// sequentially. Returns one applied-flag per operation, in input order:
    /// a `RecordHit` is not applied when a publish committed earlier in the
    /// same batch re-anchored its namespace, and the caller must not count
    /// it either.
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
            let mut state = shard.write();
            for i in indices {
                let started = matches!(ops[i], PendingOp::Publish { .. })
                    .then(|| self.recorder.start())
                    .flatten();
                applied[i] = shard.apply_locked(&mut state, &self.config, &ops[i]);
                self.recorder.observe(started, |m| &m.publish_ns);
            }
            shard.publish(&state);
        }
        applied
    }

    /// Removes every entry older than the configured TTL. Returns how many
    /// entries were evicted. Advances the repository clock either way; the
    /// eviction itself is a no-op without a TTL.
    ///
    /// This sweep is the only place stale entries leave the store: the read
    /// path treats them as misses but does not evict, which is what lets it
    /// run on each shard's published snapshot instead of the shard lock.
    pub fn evict_stale(&self, now: SimTime) -> u64 {
        self.advance_clock(now);
        let Some(ttl) = self.config.ttl else { return 0 };
        self.shards.iter().map(|shard| shard.sweep(ttl, now)).sum()
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
        self.shards[shard].sweep(ttl, now)
    }

    /// Total number of entries across all shards (from the published
    /// snapshots).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.snapshot()
                    .values()
                    .map(|ns| ns.entries.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Returns true if no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of anchors (distinct workload classes) across all shards
    /// (from the published snapshots).
    pub fn anchor_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.snapshot()
                    .values()
                    .map(|ns| ns.anchors.count() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Per-shard statistics snapshot.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.counters.snapshot()).collect()
    }

    /// Aggregate statistics over every shard.
    pub fn stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for s in self.shard_stats() {
            total.merge(&s);
        }
        total
    }

    /// Holds `shard`'s state **write** lock for the duration of `f` — a
    /// committer stalled mid-commit, as far as readers are concerned. Test
    /// hook for the read path: lookups and peeks against the published
    /// snapshot must complete while `f` blocks the lock.
    #[cfg(test)]
    fn with_shard_exclusive<R>(&self, shard: usize, f: impl FnOnce() -> R) -> R {
        let _guard = self.shards[shard].write();
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    pub(super) fn repo() -> SharedSignatureRepository {
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
    fn peek_excludes_owner_and_moves_no_stats() {
        let r = repo();
        let sig = [10.0, 10.0];
        r.insert(3, 1, &sig, 0, ResourceAllocation::large(2), SimTime::ZERO);
        assert!(r.peek(1, &sig, 0, SimTime::ZERO, Some(3), None).is_none());
        assert!(r.peek(1, &sig, 0, SimTime::ZERO, Some(4), None).is_some());
        assert!(r.peek(1, &sig, 0, SimTime::ZERO, None, None).is_some());
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
        assert!(r.peek(7, &sig, 0, SimTime::ZERO, None, None).is_some());
        let mut memo = ResolveMemo::default();
        let (_, (anchor, _, _)) = r
            .peek(7, &sig, 0, SimTime::ZERO, None, Some(&mut memo))
            .expect("memoized peek hits");
        assert_eq!(anchor, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.anchor_count(), 1);
        // The clean-shard TTL sweep skips on the watermark without ever
        // touching the (held) write lock.
        assert_eq!(r.evict_stale(SimTime::from_hours(1.0)), 0);
        release_tx.send(()).expect("test channel");
        stall.join().expect("staller thread");
        assert_eq!(r.stats().hits, 1);
    }
}
