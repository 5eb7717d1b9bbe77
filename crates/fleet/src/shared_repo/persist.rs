//! Snapshot, delta and restore glue: the repository's live state to and
//! from the plain-data images of [`crate::snapshot`].

use super::anchors::AnchorSet;
use super::shard::{EntryKey, NamespaceState, StoredEntry};
use super::{SharedRepoConfig, SharedSignatureRepository};
use crate::snapshot::{
    DeltaSnapshot, EntrySnapshot, NamespaceSnapshot, RepoSnapshot, SnapshotError,
};
use dejavu_core::FlatMap;
use dejavu_obs::Event;
use dejavu_simcore::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

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
    /// clock (reads never take the shard lock), so a durable capture that should
    /// persist those counters must be told about the namespace explicitly.
    pub fn invalidate(&mut self, namespace: u64) {
        self.seen.remove(&namespace);
    }
}

fn base_mismatch(message: String) -> SnapshotError {
    SnapshotError::BaseMismatch { message }
}

impl SharedSignatureRepository {
    /// Captures the complete repository state as plain data — configuration,
    /// every namespace's anchors and entries, per-shard statistics. Meant to
    /// be taken between epochs (no writers in flight); the φ-space anchor
    /// index is not captured (it is rebuilt on restore).
    pub fn to_snapshot(&self) -> RepoSnapshot {
        let mut namespaces = Vec::new();
        for shard in &self.shards {
            let state = shard.read();
            for (&ns_id, ns) in state.namespaces.iter() {
                namespaces.push(Self::snapshot_namespace(ns_id, ns));
            }
        }
        RepoSnapshot {
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
    fn snapshot_namespace(ns_id: u64, ns: &NamespaceState) -> NamespaceSnapshot {
        let entries = ns
            .entries
            .iter()
            .map(|(key, e)| EntrySnapshot {
                anchor: key.anchor,
                bucket: key.interference_bucket,
                allocation: e.allocation,
                tuned_at_secs: e.tuned_at.as_secs(),
                owner: e.owner,
                hits: e.hits.load(Relaxed),
                cross_tenant_hits: e.cross_tenant_hits.load(Relaxed),
            })
            .collect();
        NamespaceSnapshot {
            id: ns_id,
            anchors: ns.anchors.snapshot_anchors(),
            entries,
        }
    }

    /// Rebuilds one namespace's live state from its snapshot image (shared
    /// by full restore, delta application and shard re-seeding).
    fn namespace_state_from_snapshot(
        ns_snap: &NamespaceSnapshot,
        match_tolerance: f64,
    ) -> Result<NamespaceState, SnapshotError> {
        let inconsistent = |message: String| SnapshotError::Inconsistent { message };
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
    /// `lookup`/`peek` answers, statistics and all subsequent
    /// operations proceed exactly as they would have on the original
    /// (property-tested in `tests/properties.rs`).
    pub fn from_snapshot(snapshot: &RepoSnapshot) -> Result<Self, SnapshotError> {
        let inconsistent = |message: String| SnapshotError::Inconsistent { message };
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
            let mut state = shard.write();
            let prior = state.namespaces.insert(ns_snap.id, Arc::new(ns_state));
            if prior.is_some() {
                return Err(inconsistent(format!("duplicate namespace {}", ns_snap.id)));
            }
        }
        for (shard, stats) in repo.shards.iter().zip(&snapshot.shard_stats) {
            shard.counters.restore(stats);
            let state = shard.read();
            shard.publish(&state);
        }
        Ok(repo)
    }

    /// Serializes the repository to the versioned snapshot text format
    /// (see [`crate::snapshot`]). Deterministic: identical repository states
    /// produce byte-identical snapshots.
    pub fn save_snapshot(&self) -> String {
        self.encode_snapshot(&self.to_snapshot())
    }

    /// [`save_snapshot`](Self::save_snapshot) with compaction: entries that
    /// never served a lookup are dropped before serializing
    /// ([`RepoSnapshot::compact`]), trimming the dead
    /// weight a long-lived fleet cache accretes from one-off workloads.
    /// Anchors survive compaction (restore requires dense anchor ids, and
    /// recurring workloads re-publish under them), as do all statistics.
    pub fn save_snapshot_compact(&self) -> String {
        let mut snapshot = self.to_snapshot();
        snapshot.compact();
        self.encode_snapshot(&snapshot)
    }

    fn encode_snapshot(&self, snapshot: &RepoSnapshot) -> String {
        let text = crate::snapshot::encode(snapshot);
        self.recorder.event(|| Event::SnapshotSave {
            bytes: text.len() as u64,
        });
        text
    }

    /// Loads a repository from snapshot text produced by
    /// [`save_snapshot`](Self::save_snapshot).
    pub fn load_snapshot(text: &str) -> Result<Self, SnapshotError> {
        Self::from_snapshot(&crate::snapshot::decode(text)?)
    }

    /// Primes a delta cursor to the shard's **current** state without
    /// building a snapshot: the next
    /// [`capture_shard_delta`](Self::capture_shard_delta) will carry only
    /// changes made after this call. Pair it with a full base snapshot taken at the same quiescent
    /// point (e.g. run start), so base + deltas reproduce the live state.
    pub fn prime_delta_cursor(&self, shard: usize, cursor: &mut DeltaCursor) {
        let state = self.shards[shard].read();
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
    ) -> DeltaSnapshot {
        let state = self.shards[shard].read();
        let mut namespaces = Vec::new();
        for (&ns_id, ns) in state.namespaces.iter() {
            if cursor.seen.get(&ns_id) != Some(&ns.version) {
                namespaces.push(Self::snapshot_namespace(ns_id, ns));
                cursor.seen.insert(ns_id, ns.version);
            }
        }
        DeltaSnapshot {
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
    pub fn apply_shard_delta(&self, delta: &DeltaSnapshot) -> Result<(), SnapshotError> {
        if delta.shard >= self.shards.len() {
            return Err(base_mismatch(format!(
                "delta shard {} out of range (repository has {} shards)",
                delta.shard,
                self.shards.len()
            )));
        }
        let shard = &self.shards[delta.shard];
        let mut state = shard.write();
        let state = &mut *state;
        for ns_snap in &delta.namespaces {
            let routed = self.shard_index(ns_snap.id);
            if routed != delta.shard {
                return Err(base_mismatch(format!(
                    "namespace {} routes to shard {routed}, not the delta's shard {}",
                    ns_snap.id, delta.shard
                )));
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
    /// ([`SnapshotError::BaseMismatch`] otherwise). One
    /// write lock covers the wipe and the rebuild, so concurrent readers
    /// never observe a half-seeded shard. The shard's mutation clock
    /// survives the wipe (see `ShardState::mutation_clock`).
    pub fn restore_shard(
        &self,
        shard: usize,
        snapshot: &RepoSnapshot,
    ) -> Result<(), SnapshotError> {
        if snapshot.shards != self.shards.len() {
            return Err(base_mismatch(format!(
                "snapshot has {} shards, repository has {}",
                snapshot.shards,
                self.shards.len()
            )));
        }
        if shard >= self.shards.len() {
            return Err(base_mismatch(format!(
                "shard {shard} out of range (repository has {} shards)",
                self.shards.len()
            )));
        }
        let shard_ref = &self.shards[shard];
        let mut state = shard_ref.write();
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
}

#[cfg(test)]
mod tests {
    use crate::shared_repo::tests::repo;
    use crate::shared_repo::*;
    use crate::snapshot::SnapshotError;
    use dejavu_cloud::ResourceAllocation;
    use dejavu_simcore::{SimDuration, SimTime};

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
        assert!(
            r.apply_batch(&[PendingOp::RecordHit {
                tenant: 1,
                namespace: 7,
                signature: sig.to_vec(),
                interference_bucket: 0,
                resolved: None,
            }])[0]
        );
        let hit = r.capture_shard_delta(shard, 2, &mut cursor);
        assert_eq!(hit.namespaces.len(), 1);
        assert_eq!(hit.namespaces[0].entries[0].hits, 1);

        // A miss moves only shard counters — no namespace change.
        assert!(r.apply_batch(&[PendingOp::RecordMiss { namespace: 7 }])[0]);
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
            assert!(r.apply_batch(&[PendingOp::RecordMiss { namespace: 9 }])[0]);
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
            Err(SnapshotError::BaseMismatch { message }) => {
                assert!(message.contains("shards"), "{message}");
            }
            other => panic!("expected a base-mismatch error, got {other:?}"),
        }
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
                let bucket = (a % 2) as u32;
                assert_eq!(
                    loaded.peek(ns, &sig, bucket, SimTime::ZERO, None, None),
                    r.peek(ns, &sig, bucket, SimTime::ZERO, None, None)
                );
                assert_eq!(
                    loaded.lookup(9, ns, &sig, (a % 2) as u32, SimTime::from_hours(2.0)),
                    r.lookup(9, ns, &sig, (a % 2) as u32, SimTime::from_hours(2.0))
                );
            }
            assert_eq!(
                loaded.peek(ns, &[1.0, 2.0], 0, SimTime::ZERO, None, None),
                r.peek(ns, &[1.0, 2.0], 0, SimTime::ZERO, None, None)
            );
        }
        assert_eq!(
            loaded.evict_stale(SimTime::from_hours(100.0)),
            r.evict_stale(SimTime::from_hours(100.0))
        );
        assert_eq!(loaded.stats(), r.stats());
    }
}
