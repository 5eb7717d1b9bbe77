//! The fault/recovery domain of a drive, shared by both transports: the
//! seeded fault plan, the checkpoint store every commit writes through,
//! tenant crash recovery and shard-loss re-seeding. Built only when fault
//! injection or checkpointing is configured. A transport steps each tenant
//! through [`step_tenant`], which runs a scheduled crash and its recovery
//! first, and calls [`FaultDomain::checkpoint_commit`] once per committed
//! `(shard, epoch)`: the barrier after its sweep, the pool's committer after
//! each shard batch.

use super::{FaultSummary, FleetContext, RespawnFn, TenantHandle};
use crate::durable::{DurableCheckpointStore, RecordReceipt};
use crate::faults::FaultPlan;
use crate::shared_repo::{DeltaCursor, SharedSignatureRepository};
use crate::snapshot::{CheckpointStore, DeltaSnapshot};
use crate::tenant_view::TenantRepoView;
use dejavu_obs::{Event, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lock-free fault/recovery tallies, incremented from whichever thread
/// steps or commits; folded into the [`FaultSummary`] once the drive
/// finishes.
#[derive(Default)]
struct FaultTallies {
    injected: AtomicU64,
    tenants_crashed: AtomicU64,
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

/// The fault/recovery domain of one drive: the seeded fault plan,
/// the checkpoint store (run-start base snapshot plus per-shard delta
/// chains, optionally written through to disk), the respawn hook recovery
/// rebuilds crashed tenants through, and the shared tallies. Built once per
/// drive when fault injection, checkpointing or a checkpoint directory is
/// configured; absent (and costing nothing) otherwise.
pub(super) struct FaultDomain<'h> {
    /// The fault schedule; `None` on a checkpoint-only drive.
    plan: Option<FaultPlan>,
    store: Mutex<CheckpointSink>,
    /// Per-shard change cursors for delta capture. Only the commit point
    /// captures; the mutex is what lets stepping threads share the domain.
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

    /// The checkpoint step for the `(shard, epoch)` batch just applied and
    /// swept, run before any tenant can enter the shard's next epoch:
    /// captures the commit's delta into the store and, on an injected shard
    /// loss, wipes the shard and warm re-seeds it from the chain.
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
        if self.plan.is_some_and(|plan| plan.shard_loss(shard, epoch)) {
            // Shard-level repository loss: wipe the shard and warm re-seed
            // it from the delta chain — before any tenant enters the shard's
            // next epoch, so no tenant can observe the gap.
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
}

/// Builds the fault domain of one drive, or `None` when neither fault
/// injection nor checkpointing is configured (or the fleet has no respawn
/// path, i.e. isolated tenants).
pub(super) fn fault_domain<'h>(
    ctx: &FleetContext<'h>,
    handles: &[TenantHandle<'_>],
) -> Option<FaultDomain<'h>> {
    let plan = ctx.faults;
    if plan.is_none() && ctx.checkpoint_every == 0 && ctx.checkpoint_dir.is_none() {
        return None;
    }
    let respawn = ctx.respawn?;
    // Checkpoint capture and shard restore go through the concrete
    // repository's snapshot surface; a remote client has none.
    let concrete = ctx.concrete?;
    // The base image and the capture cursors both anchor at this quiescent
    // point — nothing mutates the shared repository before the first batch
    // commits — so the first captured delta covers exactly the first commit.
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
    // its crash-scheduled tenants whose windows are still open. Every
    // commit re-evaluates the floor, so long churn runs compact past windows
    // that have closed instead of pinning the whole run at the earliest one.
    let mut crash_windows = vec![Vec::new(); ctx.shard_count()];
    for handle in handles {
        let (start, end) = (handle.start_epoch(), handle.end_epoch());
        if plan.is_some_and(|plan| plan.crash_epoch(handle.index(), start, end).is_some()) {
            crash_windows[ctx.shard_of(handle.namespace())].push((start, end));
        }
    }
    let domain = FaultDomain {
        plan,
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
        plan,
        store,
        tallies,
        ..
    } = domain;
    let store = store
        .into_inner()
        .expect("checkpoint store poisoned")
        .into_store();
    FaultSummary {
        spec: plan.map(|plan| plan.spec().render()).unwrap_or_default(),
        injected: tallies.injected.into_inner(),
        tenants_crashed: tallies.tenants_crashed.into_inner(),
        shard_losses: tallies.shard_losses.into_inner(),
        replayed_epochs: tallies.replayed_epochs.into_inner(),
        checkpoints: store.checkpoints(),
        compactions: store.compactions(),
        chain_peak: store.chain_peak() as u64,
    }
}

/// Steps one tenant through global epoch `epoch`, the one entry point both
/// transports step tenants through. When the plan crashes the tenant in
/// this epoch, the doomed attempt runs first — mid-epoch work that dies with
/// the crash, publishes and all — and [`crash_and_recover`] rebuilds the
/// tenant before the epoch is stepped for real. Each tenant steps each epoch
/// exactly once, so a crash fires at most once. A retired tenant never
/// crashes: it steps no more epochs.
pub(super) fn step_tenant(
    ctx: &FleetContext<'_>,
    domain: Option<&FaultDomain<'_>>,
    handle: &mut TenantHandle<'_>,
    epoch: usize,
) {
    if let Some(domain) = domain {
        let (tenant, start, end) = (handle.index(), handle.start_epoch(), handle.end_epoch());
        let crashes = domain
            .plan
            .is_some_and(|plan| plan.crash_epoch(tenant, start, end) == Some(epoch));
        if crashes && !handle.retired() {
            handle.step_epoch(epoch, ctx);
            let _ = handle.drain_outbox();
            crash_and_recover(ctx, domain, handle, epoch);
        }
    }
    handle.step_epoch(epoch, ctx);
}

/// Crashes a tenant mid-epoch and rebuilds it from the checkpoint chain: the
/// tenant's in-memory state is lost with the crash, so recovery materializes
/// its shard's image at the tenant's join epoch, replays every epoch up to
/// the crash **deterministically** against a private clone advanced delta by
/// delta (each replayed epoch reads exactly the repository state its
/// original execution read, which makes recovery bit-exact), then switches
/// the rebuilt tenant's view back to the live shared repository. Replayed
/// publishes are discarded: they were already committed the first time
/// round.
///
/// The tenant entered `epoch` only after its shard committed — and so
/// checkpointed — every earlier epoch (the barrier commits every shard
/// before the next epoch; the pool's frontier admits no tenant early), so
/// the chain always covers the whole replay. A chain that does not is a broken invariant and panics rather
/// than replay a different image.
///
/// Returns the number of epochs replayed.
fn crash_and_recover(
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
