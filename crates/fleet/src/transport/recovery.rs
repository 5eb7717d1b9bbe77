//! The fault/recovery domain of an asynchronous drive: the seeded fault
//! plan, the checkpoint store the committer writes through, the faulty
//! report channel, and tenant crash recovery. Built only when fault
//! injection or checkpointing is configured; the committer and the pool call
//! into it directly when it is.

use super::channel;
use super::commit::{EpochReport, ReportBatch};
use super::{FaultSummary, FleetContext, RespawnFn, TenantHandle};
use crate::durable::{DurableCheckpointStore, RecordReceipt};
use crate::faults::{FaultInjector, FaultKind, FaultSpec};
use crate::shared_repo::{DeltaCursor, SharedSignatureRepository};
use crate::snapshot::{CheckpointStore, DeltaSnapshot};
use crate::tenant_view::TenantRepoView;
use dejavu_obs::{Event, Recorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lock-free fault/recovery tallies, incremented from pool workers and the
/// committer alike; folded into the [`FaultSummary`] once the drive finishes.
#[derive(Default)]
struct FaultTallies {
    injected: AtomicU64,
    tenants_crashed: AtomicU64,
    reports_dropped: AtomicU64,
    reports_duplicated: AtomicU64,
    reports_reordered: AtomicU64,
    committer_restarts: AtomicU64,
    shard_losses: AtomicU64,
    replayed_epochs: AtomicU64,
}

impl FaultTallies {
    /// Counts one injected fault of the given kind tally.
    fn fault(&self, which: &AtomicU64) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        which.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a drive's checkpoints live: in memory (the PR 7 recovery layer) or
/// written through to disk first (`--checkpoint-dir`). Either way the
/// in-memory [`CheckpointStore`] is the read surface — the durable wrapper
/// only adds the write-ahead spill.
enum CheckpointSink {
    Memory(CheckpointStore),
    Durable(DurableCheckpointStore),
}

impl CheckpointSink {
    /// The in-memory store, for reads (materialize, telemetry).
    fn store(&self) -> &CheckpointStore {
        match self {
            CheckpointSink::Memory(store) => store,
            CheckpointSink::Durable(durable) => durable.store(),
        }
    }

    fn into_store(self) -> CheckpointStore {
        match self {
            CheckpointSink::Memory(store) => store,
            CheckpointSink::Durable(durable) => durable.into_store(),
        }
    }

    fn set_floor(&mut self, shard: usize, epoch: usize) -> usize {
        match self {
            CheckpointSink::Memory(store) => store.set_floor(shard, epoch),
            CheckpointSink::Durable(durable) => durable.set_floor(shard, epoch),
        }
    }

    /// Records one commit's delta; the durable receipt (zeroed for the
    /// in-memory sink) feeds the flight recorder's durability counters.
    /// Fail-stop on durable errors, like every other committer invariant:
    /// a committer that cannot persist what it acknowledged must not keep
    /// acknowledging.
    fn record(&mut self, delta: DeltaSnapshot) -> RecordReceipt {
        match self {
            CheckpointSink::Memory(store) => {
                store.record(delta).expect("commit order is chain order");
                RecordReceipt::default()
            }
            CheckpointSink::Durable(durable) => durable
                .record(delta)
                .expect("durable checkpoint write failed; checkpoint directory is fail-stop"),
        }
    }
}

/// The fault/recovery domain of one asynchronous drive: the seeded injector,
/// the checkpoint store (run-start base snapshot plus per-shard delta
/// chains, optionally written through to disk), the respawn hook recovery
/// rebuilds crashed tenants through, and the shared tallies. Built once per
/// drive when fault injection, checkpointing or a checkpoint directory is
/// configured; absent (and costing nothing) otherwise.
pub(super) struct FaultDomain<'h> {
    injector: FaultInjector,
    store: Mutex<CheckpointSink>,
    /// Per-shard change cursors for delta capture. Only the committer
    /// captures; the mutex is what lets pool workers share the domain.
    cursors: Mutex<Vec<DeltaCursor>>,
    respawn: &'h RespawnFn<'h>,
    shared_arc: &'h Arc<SharedSignatureRepository>,
    tallies: FaultTallies,
    /// Per shard: the tenancy windows of its crash-scheduled tenants, the
    /// input to the dynamic compaction floor ([`FaultDomain::crash_floor`]).
    crash_windows: Vec<Vec<(usize, usize)>>,
}

impl FaultDomain<'_> {
    /// The compaction floor `shard` needs once its commit frontier reached
    /// `frontier`: the earliest window start among crash-scheduled tenants
    /// whose windows are still open (`end > frontier`). A crash recovers
    /// before its own epoch's report is admitted, so once the frontier
    /// passes a window's end no recovery can ever again materialize from
    /// that window's start — the floor advances and the chain behind it
    /// becomes compactable.
    fn crash_floor(&self, shard: usize, frontier: usize) -> usize {
        self.crash_windows[shard]
            .iter()
            .filter(|&&(_, end)| end > frontier)
            .map(|&(start, _)| start)
            .min()
            .unwrap_or(usize::MAX)
    }

    /// The fault-injecting report channel of this drive, when the plan is
    /// live (a checkpoint-only domain reads the raw channel).
    pub(super) fn faulty_inbox<'a>(
        &'a self,
        rx: &'a channel::Receiver<ReportBatch>,
        recorder: &'a Recorder,
    ) -> Option<FaultyInbox<'a>> {
        self.injector
            .enabled()
            .then(|| FaultyInbox::new(rx, self.injector, &self.tallies, recorder))
    }

    /// Whether the plan can restart the committer, which must then retain
    /// the reports it was delivered to re-assemble from.
    pub(super) fn retains_reports(&self) -> bool {
        let spec = self.injector.spec();
        spec.is_some_and(|spec| spec.enables(FaultKind::CommitterRestart))
    }

    /// The committer's checkpoint step for the `(shard, epoch)` batch it just
    /// applied and swept, run before the shard's frontier advances: captures
    /// the commit's delta into the store and, on an injected shard loss,
    /// wipes the shard and warm re-seeds it from the chain.
    pub(super) fn checkpoint_commit(&self, shard: usize, epoch: usize, recorder: &Recorder) {
        // Checkpoint at the commit boundary: the delta captures exactly this
        // commit (batch + sweep), because tenants never mutate the shared
        // store and no other commit of this shard can run concurrently.
        let delta = {
            let mut cursors = self.cursors.lock().expect("delta cursors poisoned");
            self.shared_arc
                .capture_shard_delta(shard, epoch, &mut cursors[shard])
        };
        recorder.with(|m| m.checkpoints.inc());
        recorder.event(|| Event::CheckpointSave {
            shard: shard as u64,
            epoch: epoch as u64,
            namespaces: delta.namespaces.len() as u64,
        });
        {
            let mut store = self.store.lock().expect("checkpoint store poisoned");
            // Advance the compaction floor past tenancy windows this commit
            // closed, *before* recording: the record's compaction pass then
            // folds the newly released backlog immediately.
            store.set_floor(shard, self.crash_floor(shard, epoch + 1));
            let receipt = store.record(delta);
            if receipt.bytes() > 0 {
                recorder.with(|m| {
                    m.durable_segments.inc();
                    m.durable_bytes.add(receipt.bytes());
                    if receipt.folded {
                        m.durable_folds.inc();
                    }
                });
            }
        }
        if self.injector.shard_loss(shard, epoch) {
            // Shard-level repository loss: wipe the shard and warm re-seed
            // it from the delta chain — before the frontier advances, so no
            // tenant can observe the gap.
            self.tallies.fault(&self.tallies.shard_losses);
            recorder.with(|m| m.faults_injected.inc());
            let image = self
                .store
                .lock()
                .expect("checkpoint store poisoned")
                .store()
                .materialize(shard, epoch + 1)
                .expect("the delta chain always reaches its own head");
            self.shared_arc
                .restore_shard(shard, &image)
                .expect("checkpoint images restore cleanly");
            recorder.with(|m| m.recoveries.inc());
        }
    }

    /// Injects the plan's committer crash, if it has one for the fold of
    /// `epoch`: counts and records the fault, and returns whether the
    /// committer must now discard and re-assemble its volatile state.
    pub(super) fn inject_committer_restart(&self, epoch: usize, recorder: &Recorder) -> bool {
        if !self.injector.committer_restart(epoch) {
            return false;
        }
        self.tallies.fault(&self.tallies.committer_restarts);
        recorder.with(|m| {
            m.faults_injected.inc();
            m.committer_restarts.inc();
        });
        recorder.event(|| Event::CommitterRestart {
            epoch: epoch as u64,
        });
        true
    }
}

/// Builds the fault domain of one async drive, or `None` when neither fault
/// injection nor checkpointing is configured (or the fleet has no respawn
/// path, i.e. isolated tenants).
pub(super) fn fault_domain<'h>(
    ctx: &FleetContext<'h>,
    windows: &[(usize, usize)],
    tenant_shard: &[usize],
) -> Option<FaultDomain<'h>> {
    let injector = ctx.faults;
    if !injector.enabled() && ctx.checkpoint_every == 0 && ctx.checkpoint_dir.is_none() {
        return None;
    }
    let respawn = ctx.respawn?;
    // Checkpoint capture and shard restore go through the concrete
    // repository's snapshot surface; a remote client has none.
    let concrete = ctx.concrete?;
    // The base image and the capture cursors both anchor at this quiescent
    // point — nothing mutates the shared repository before the committer
    // applies the first batch — so the first captured delta covers exactly
    // the first commit.
    let cursors = (0..ctx.shard_count()).map(|shard| {
        let mut cursor = DeltaCursor::default();
        concrete.prime_delta_cursor(shard, &mut cursor);
        cursor
    });
    let cursors = Mutex::new(cursors.collect());
    let store = match ctx.checkpoint_dir {
        Some(dir) => CheckpointSink::Durable(
            DurableCheckpointStore::create(
                std::path::Path::new(dir),
                concrete.to_snapshot(),
                ctx.checkpoint_every,
            )
            .unwrap_or_else(|e| panic!("cannot initialize checkpoint directory {dir}: {e}")),
        ),
        None => CheckpointSink::Memory(CheckpointStore::new(
            concrete.to_snapshot(),
            ctx.checkpoint_every,
        )),
    };
    // Compaction must never fold an epoch a planned crash still needs to
    // replay from: pin each shard's floor at the earliest join epoch among
    // its crash-scheduled tenants whose windows are still open. The
    // committer re-evaluates the floor at every commit, so long churn runs
    // compact past windows that have closed instead of pinning the whole
    // run at the earliest one.
    let mut crash_windows = vec![Vec::new(); ctx.shard_count()];
    for (tenant, &(start, end)) in windows.iter().enumerate() {
        if injector.crash_epoch(tenant, start, end).is_some() {
            crash_windows[tenant_shard[tenant]].push((start, end));
        }
    }
    let domain = FaultDomain {
        injector,
        store: Mutex::new(store),
        cursors,
        respawn,
        shared_arc: concrete,
        tallies: FaultTallies::default(),
        crash_windows,
    };
    {
        let mut store = domain.store.lock().expect("checkpoint store poisoned");
        for shard in 0..ctx.shard_count() {
            store.set_floor(shard, domain.crash_floor(shard, 0));
        }
    }
    Some(domain)
}

/// Folds a finished drive's fault domain into the outcome's summary.
pub(super) fn summarize_faults(domain: FaultDomain<'_>) -> FaultSummary {
    let FaultDomain {
        injector,
        store,
        tallies,
        ..
    } = domain;
    let store = store
        .into_inner()
        .expect("checkpoint store poisoned")
        .into_store();
    FaultSummary {
        spec: injector.spec().map(FaultSpec::render).unwrap_or_default(),
        injected: tallies.injected.into_inner(),
        tenants_crashed: tallies.tenants_crashed.into_inner(),
        reports_dropped: tallies.reports_dropped.into_inner(),
        reports_duplicated: tallies.reports_duplicated.into_inner(),
        reports_reordered: tallies.reports_reordered.into_inner(),
        committer_restarts: tallies.committer_restarts.into_inner(),
        shard_losses: tallies.shard_losses.into_inner(),
        replayed_epochs: tallies.replayed_epochs.into_inner(),
        checkpoints: store.checkpoints(),
        compactions: store.compactions(),
        chain_peak: store.chain_peak() as u64,
    }
}

/// Why a delivered report is being held back by the fault injector.
enum Held {
    /// The original delivery was dropped; this copy is the retransmission.
    Dropped,
    /// A duplicate copy of a report that was also delivered normally.
    Extra,
    /// Delivery delayed past later arrivals (reordering), not lost.
    Reordered,
}

/// The committer's faulty report channel: a deterministic message-loss layer
/// between the report channel and the committer. Reports the injector marks
/// as dropped or reordered are held back for a seeded number of subsequent
/// deliveries (drops become retransmissions — the paper-world "resend on
/// commit timeout" — so no information is ever truly lost); duplicated
/// reports are delivered twice. The committer's idempotent admission makes
/// all three shuffles invisible in the committed results. A received batch
/// is unpacked report by report, each one a delivery of its own: countdowns
/// age exactly as they would under one message per report.
pub(super) struct FaultyInbox<'a> {
    rx: &'a channel::Receiver<ReportBatch>,
    injector: FaultInjector,
    tallies: &'a FaultTallies,
    recorder: &'a Recorder,
    /// Held-back reports with their remaining-delivery countdowns.
    delayed: Vec<(usize, Held, EpochReport)>,
    /// Reports ready for the committer.
    due: VecDeque<EpochReport>,
    disconnected: bool,
}

impl<'a> FaultyInbox<'a> {
    fn new(
        rx: &'a channel::Receiver<ReportBatch>,
        injector: FaultInjector,
        tallies: &'a FaultTallies,
        recorder: &'a Recorder,
    ) -> Self {
        FaultyInbox {
            rx,
            injector,
            tallies,
            recorder,
            delayed: Vec::new(),
            due: VecDeque::new(),
            disconnected: false,
        }
    }

    /// Releases a held report to the committer, counting retransmissions.
    fn release(&mut self, held: Held, report: EpochReport) {
        if matches!(held, Held::Dropped | Held::Extra) {
            self.recorder.with(|m| m.retransmits.inc());
            self.recorder.event(|| Event::ReportRetransmit {
                tenant: report.tenant as u64,
                epoch: report.epoch as u64,
            });
        }
        self.due.push_back(report);
    }

    /// One delivery elapsed: age every held report, releasing the expired.
    fn tick(&mut self) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= 1 {
                let (_, held, report) = self.delayed.swap_remove(i);
                self.release(held, report);
            } else {
                self.delayed[i].0 -= 1;
                i += 1;
            }
        }
    }

    /// Classifies one freshly received report: pass through, hold back, or
    /// duplicate, as the seeded plan dictates.
    fn admit(&mut self, report: EpochReport) {
        self.tick();
        if report.aborted {
            // Abort notices bypass injection: the committer must learn about
            // a dead tenant promptly no matter what the plan says.
            self.due.push_back(report);
            return;
        }
        let (tenant, epoch) = (report.tenant, report.epoch);
        if let Some(delay) = self.injector.drop_delay(tenant, epoch) {
            self.tallies.fault(&self.tallies.reports_dropped);
            self.recorder.with(|m| m.faults_injected.inc());
            self.delayed.push((delay, Held::Dropped, report));
        } else if let Some(delay) = self.injector.reorder_delay(tenant, epoch) {
            self.tallies.fault(&self.tallies.reports_reordered);
            self.recorder.with(|m| m.faults_injected.inc());
            self.delayed.push((delay, Held::Reordered, report));
        } else {
            if self.injector.duplicate(tenant, epoch) {
                self.tallies.fault(&self.tallies.reports_duplicated);
                self.recorder.with(|m| m.faults_injected.inc());
                self.delayed.push((2, Held::Extra, report.clone()));
            }
            self.due.push_back(report);
        }
    }

    /// Liveness valve: when the channel has gone quiet but reports are still
    /// held back, force the earliest (by `(epoch, tenant)` — deterministic)
    /// out, so a held report whose countdown is pinned on deliveries that
    /// will never come cannot stall the fleet. Commit order is independent
    /// of arrival order, so early release never changes results.
    fn force_release_earliest(&mut self) {
        let Some(earliest) = self
            .delayed
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, r))| (r.epoch, r.tenant))
            .map(|(i, _)| i)
        else {
            return;
        };
        let (_, held, report) = self.delayed.swap_remove(earliest);
        self.release(held, report);
    }

    fn admit_batch(&mut self, batch: ReportBatch) {
        for report in batch {
            self.admit(report);
        }
    }

    /// The next report for the committer. With `block` unset, only what has
    /// already been delivered: held reports keep their countdowns and the
    /// liveness valve stays shut, both being the blocking path's business.
    pub(super) fn next(&mut self, block: bool) -> Option<EpochReport> {
        use super::channel::TryRecvError;
        loop {
            if let Some(report) = self.due.pop_front() {
                return Some(report);
            }
            if self.disconnected {
                if !block || self.delayed.is_empty() {
                    return None;
                }
                // Every sender is gone: flush the held tail in
                // deterministic order.
                self.delayed
                    .sort_by_key(|(_, _, r)| std::cmp::Reverse((r.epoch, r.tenant)));
                while let Some((_, held, report)) = self.delayed.pop() {
                    self.release(held, report);
                }
                continue;
            }
            match self.rx.try_recv() {
                Ok(batch) => self.admit_batch(batch),
                Err(TryRecvError::Empty) if !block => return None,
                Err(TryRecvError::Empty) => {
                    if self.delayed.is_empty() {
                        match self.rx.recv() {
                            Some(batch) => self.admit_batch(batch),
                            None => self.disconnected = true,
                        }
                    } else {
                        // Every tenant may be parked on a frontier that only
                        // a held report can advance — release rather than
                        // block on senders with nothing to send.
                        self.force_release_earliest();
                    }
                }
                Err(TryRecvError::Disconnected) => self.disconnected = true,
            }
        }
    }
}

/// Crashes a tenant mid-epoch and rebuilds it from the checkpoint chain: the
/// tenant's in-memory state is lost with the crash, so recovery materializes
/// its shard's image at the tenant's join epoch, replays every epoch up to
/// the crash **deterministically** against a private clone advanced delta by
/// delta (each replayed epoch reads exactly the repository state its
/// original execution read, which makes recovery bit-exact), then switches
/// the rebuilt tenant's view back to the live shared repository. Replayed
/// publishes are discarded: they were already committed the first time
/// round, and the idempotent committer would drop re-sent ones anyway.
///
/// The tenant entered `epoch` only after its shard committed — and so
/// checkpointed — every earlier epoch, so the chain always covers the whole
/// replay. A chain that does not is a broken invariant and panics rather
/// than replay a different image.
///
/// Returns the number of epochs replayed.
pub(super) fn crash_and_recover(
    ctx: &FleetContext<'_>,
    domain: &FaultDomain<'_>,
    handle: &mut TenantHandle<'_>,
    epoch: usize,
) -> u64 {
    let recorder = ctx.recorder();
    let tenant = handle.index();
    domain.tallies.fault(&domain.tallies.tenants_crashed);
    recorder.with(|m| m.faults_injected.inc());
    recorder.event(|| Event::TenantCrash {
        tenant: tenant as u64,
        epoch: epoch as u64,
    });
    let start = handle.start_epoch();
    let shard = ctx.shard_of(handle.namespace());
    let (base, deltas) = {
        let store = domain.store.lock().expect("checkpoint store poisoned");
        let store = store.store();
        let chain_end = store.chain_end(shard);
        assert!(
            chain_end >= epoch,
            "tenant {tenant} crashed in epoch {epoch} but shard {shard}'s checkpoint chain \
             ends at epoch {chain_end}: the frontier admitted it early"
        );
        let pinned = "compaction floors pin every crash-scheduled tenancy window";
        let base = store.materialize(shard, start).expect(pinned);
        let deltas: Vec<DeltaSnapshot> = (start..epoch)
            .map(|e| store.delta(shard, e).expect(pinned))
            .collect();
        (base, deltas)
    };
    let replay_repo = Arc::new(
        SharedSignatureRepository::from_snapshot(&base)
            .expect("checkpoint images are valid snapshots"),
    );
    let mut run = (domain.respawn)(tenant, Arc::clone(&replay_repo));
    let mut replayed = 0u64;
    for (e, delta) in (start..epoch).zip(deltas) {
        run.step_epoch(e, ctx.epoch_secs);
        if run.first_reuse_epoch.is_none()
            && e + 1 > run.start_epoch
            && run.controller.stats().fleet_reuses > 0
        {
            run.first_reuse_epoch = Some(e + 1 - run.start_epoch);
        }
        if let Some(outbox) = &run.outbox {
            // Replayed publishes were already committed the first time.
            outbox.lock().expect("tenant outbox poisoned").clear();
        }
        replay_repo
            .apply_shard_delta(&delta)
            .expect("replay follows the chain in epoch order");
        replayed += 1;
        recorder.with(|m| m.replayed_epochs.inc());
    }
    domain
        .tallies
        .replayed_epochs
        .fetch_add(replayed, Ordering::Relaxed);
    // Switch the rebuilt tenant from its private replay clone to the live
    // shared repository; recovery guarantees the anchor state it resolved
    // against matches what the live store holds, exactly.
    run.controller
        .store_mut()
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<TenantRepoView>())
        .expect("shared-mode tenants read through a TenantRepoView")
        .retarget(Arc::clone(domain.shared_arc) as _);
    handle.replace(run);
    recorder.with(|m| m.recoveries.inc());
    recorder.event(|| Event::TenantRecover {
        tenant: tenant as u64,
        epoch: epoch as u64,
        replayed,
    });
    replayed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_batch_ages_held_reports_by_one_delivery_per_report() {
        // A plan that drops tenant 0's epoch-1 report for two deliveries and
        // leaves tenants 1..=3 alone: the held report must come out after
        // exactly one later report, whether the four arrive as four
        // messages or as one batch.
        let injector = (0..)
            .map(|seed| {
                FaultInjector::from_spec(Some(FaultSpec::with_kinds(
                    seed,
                    &[FaultKind::DropReport],
                )))
            })
            .find(|plan| {
                plan.drop_delay(0, 1) == Some(2) && (1..=3).all(|t| plan.drop_delay(t, 1).is_none())
            })
            .expect("some seed drops exactly that report");
        let delivery_order = |messages: Vec<ReportBatch>| -> Vec<usize> {
            let (tx, rx) = channel::channel::<ReportBatch>();
            let tallies = FaultTallies::default();
            let recorder = Recorder::disabled();
            let mut inbox = FaultyInbox::new(&rx, injector, &tallies, &recorder);
            for message in messages {
                assert!(tx.send(message).is_ok(), "receiver alive");
            }
            // The sender stays alive: the disconnect flush must not be what
            // releases the held report.
            let order = (0..4)
                .map(|_| inbox.next(true).expect("four reports").tenant)
                .collect();
            assert!(inbox.next(false).is_none(), "nothing further was delivered");
            assert_eq!(tallies.reports_dropped.load(Ordering::Relaxed), 1);
            order
        };
        let singles = delivery_order(
            (0..4)
                .map(|t| vec![EpochReport::bare(t, 1, true)])
                .collect(),
        );
        let batch = delivery_order(vec![(0..4)
            .map(|t| EpochReport::bare(t, 1, true))
            .collect()]);
        assert_eq!(singles, vec![1, 0, 2, 3]);
        assert_eq!(batch, singles, "a batch of n must age held reports n times");
    }
}
