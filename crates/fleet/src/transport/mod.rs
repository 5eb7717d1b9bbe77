//! The commit-transport layer: **how** tenant-buffered repository operations
//! reach the shared store, and what consistency tenants observe while they
//! run.
//!
//! The fleet engine prepares tenants and consumes a [`TransportOutcome`];
//! everything in between is a [`CommitTransport`]. There are two:
//!
//! * [`BspBarrier`] is the classic engine: worker threads step disjoint
//!   tenant blocks through an epoch, the barrier drains every
//!   outbox in tenant order, commits one batch per shard, then runs the TTL
//!   sweep. Mid-epoch the store is frozen, so runs are **bit-deterministic**
//!   for any worker count. It is the oracle every other run is compared to.
//! * [`WorkStealing`] is the asynchronous transport: a pool of workers pulls
//!   per-epoch tenant tasks from a shared deque (the vendored mini
//!   `crossbeam-deque`), and each tenant waits on the commit frontier **of
//!   its own shard** only, so a tenant never waits for a shard it cannot
//!   observe. A tenant may not enter an epoch until every prior epoch of its
//!   shard is fully committed (one that is early is parked as data until its
//!   shard catches up), so no tenant can observe or miss anything a BSP run
//!   would not, and the output **bit-matches** [`BspBarrier`]
//!   (property-tested in `tests/properties.rs` and fuzzed across scenarios
//!   in `tests/differential.rs`). Tenant stepping, commit order and sweep
//!   times are all independent of which worker executes what, so results
//!   are **invariant to the thread count**.
//!
//! The pool has no staleness bound on purpose: letting tenants run ahead of
//! their shard measured no faster than the barrier and more than doubled
//! the fleet's tuning runs (README, "Removed, and why").
//!
//! The pool's committer keeps **per-shard commit frontiers**: a tenant only
//! ever reads and writes the shard its namespace routes to, so a
//! `(shard, epoch)` batch commits — and that shard's TTL sweep runs, at that
//! epoch's timestamp — as soon as all of the epoch's reports *touching the
//! shard* are in, instead of waiting for the whole fleet's slowest shard. On
//! skewed scenarios that shrinks commit latency without changing anything a
//! tenant can observe.
//!
//! Epoch reports travel over the vendored mini mpsc channel
//! (`crossbeam-channel`) in **batches**: a pool worker sends what it finished
//! since its last message when its deque runs dry, and the committer unpacks
//! a batch report by report. Commit order depends on report contents and
//! tenant order, never on arrival order, so the grouping is invisible in the
//! results.
//!
//! The asynchronous side is split along its seams: `commit` holds the
//! frontiers, the report types and the committer; `pool` the scheduler
//! (doorbell, tenant tasks, workers); `recovery` the fault/checkpoint domain
//! the other two call into when one is configured.

mod commit;
mod pool;
mod recovery;

pub use pool::WorkStealing;
#[cfg(test)]
pub(crate) use pool::REPORT_BATCH_CAP;

use crate::engine::{RunState, SimulationEngine};
use crate::faults::{FaultInjector, FaultSpec, FaultSpecError};
use crate::repo_client::RepositoryClient;
use crate::shared_repo::{PendingOp, SharedSignatureRepository};
use dejavu_baselines::{FixedMax, RightScale};
use dejavu_cloud::ProvisioningController;
use dejavu_core::DejaVuController;
use dejavu_obs::{Event, Recorder};
use dejavu_services::ServiceModel;
use dejavu_simcore::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Shared handle to a tenant's buffered operations; the transport drains it
/// at every epoch boundary of that tenant.
pub type Outbox = Arc<Mutex<Vec<PendingOp>>>;

/// One tenant's complete in-flight simulation plus its tenancy window in
/// epochs. Built by the fleet engine, stepped by a transport through a
/// [`TenantHandle`], finalized by the engine.
pub(crate) struct TenantRun {
    pub(crate) engine: SimulationEngine,
    pub(crate) service: Box<dyn ServiceModel>,
    pub(crate) controller: DejaVuController,
    pub(crate) state: RunState,
    pub(crate) fixed: Option<(FixedMax, RunState)>,
    pub(crate) rightscale: Option<(RightScale, RunState)>,
    /// First global epoch in which the tenant steps (its join barrier).
    pub(crate) start_epoch: usize,
    /// Global epoch count at whose barrier the tenant retires, if it leaves.
    pub(crate) stop_epoch: Option<usize>,
    /// Nominal end of the tenancy window: `min(stop, start + trace epochs)`.
    pub(crate) end_epoch: usize,
    /// Epochs since join at which the first `FleetReuse` fired (1-based).
    pub(crate) first_reuse_epoch: Option<usize>,
    /// Epochs this tenant has actually been stepped through.
    pub(crate) active_epochs: usize,
    /// Set at the barrier that retires the tenant; freezes all stepping.
    pub(crate) retired: bool,
    /// The namespace the tenant reads and publishes under. Fixed for the
    /// whole run, so every operation the tenant buffers routes to one shard —
    /// the invariant the per-shard commit frontiers rest on.
    pub(crate) namespace: u64,
    /// The tenant's buffered shared-store operations (None when isolated).
    pub(crate) outbox: Option<Outbox>,
}

/// Steps one run up to (excluding) `epoch_end`.
fn step_until(
    engine: &SimulationEngine,
    service: &dyn ServiceModel,
    state: &mut RunState,
    controller: &mut dyn ProvisioningController,
    epoch_end: SimTime,
) {
    while let Some(t) = state.next_tick_time() {
        if t.as_secs() >= epoch_end.as_secs() {
            break;
        }
        engine.step(state, service, controller);
    }
}

impl TenantRun {
    /// Steps every in-flight run of this tenant up to the barrier ending
    /// global epoch `epoch` (0-based), honouring the tenancy window. Times
    /// handed to the tenant are **local** (zero at its join barrier), so a
    /// late joiner steps exactly like a tenant that started a fresh fleet.
    fn step_epoch(&mut self, epoch: usize, epoch_secs: f64) {
        if self.retired {
            return;
        }
        let end_epoch = epoch + 1;
        if end_epoch <= self.start_epoch {
            return; // not admitted yet
        }
        let mut local_epochs = end_epoch - self.start_epoch;
        if let Some(stop) = self.stop_epoch {
            let cap = stop.saturating_sub(self.start_epoch);
            if cap == 0 {
                return;
            }
            local_epochs = local_epochs.min(cap);
        }
        if local_epochs <= self.active_epochs {
            return; // already stepped past its retirement barrier
        }
        self.active_epochs = local_epochs;
        let epoch_end = SimTime::from_secs(epoch_secs * local_epochs as f64);
        let service = self.service.as_ref();
        step_until(
            &self.engine,
            service,
            &mut self.state,
            &mut self.controller,
            epoch_end,
        );
        if let Some((controller, state)) = &mut self.fixed {
            step_until(&self.engine, service, state, controller, epoch_end);
        }
        if let Some((controller, state)) = &mut self.rightscale {
            step_until(&self.engine, service, state, controller, epoch_end);
        }
    }

    /// Whether the tenant retires at the barrier ending global epoch `epoch`.
    fn retires_at(&self, epoch: usize) -> bool {
        let end_epoch = epoch + 1;
        end_epoch > self.start_epoch
            && (self.state.is_done() || self.stop_epoch.is_some_and(|stop| end_epoch >= stop))
    }
}

/// A transport's per-tenant handle: the only surface through which a backend
/// steps a tenant, drains its outbox and keeps its convergence bookkeeping.
/// `Send`, so backends can move tenants onto worker threads.
pub struct TenantHandle<'a> {
    index: usize,
    run: &'a mut TenantRun,
}

impl TenantHandle<'_> {
    /// The tenant's position in the scenario (also its commit order).
    pub fn index(&self) -> usize {
        self.index
    }

    /// First global epoch in which the tenant steps.
    pub fn start_epoch(&self) -> usize {
        self.run.start_epoch
    }

    /// Nominal end of the tenancy window (exclusive global epoch).
    pub fn end_epoch(&self) -> usize {
        self.run.end_epoch
    }

    /// Whether the tenant has been retired by a previous barrier.
    pub fn retired(&self) -> bool {
        self.run.retired
    }

    /// The namespace the tenant reads and publishes under. Every operation
    /// the tenant buffers touches this namespace — and therefore exactly one
    /// shard — which is what lets a transport commit per-shard batches
    /// without changing anything any tenant can observe.
    pub fn namespace(&self) -> u64 {
        self.run.namespace
    }

    /// Steps the tenant (and its ride-along baselines) through global epoch
    /// `epoch`. A retired or not-yet-admitted tenant is a no-op.
    pub fn step_epoch(&mut self, epoch: usize, ctx: &FleetContext<'_>) {
        self.run.step_epoch(epoch, ctx.epoch_secs);
    }

    /// Takes every operation the tenant buffered since the last drain.
    pub fn drain_outbox(&mut self) -> Vec<PendingOp> {
        match &self.run.outbox {
            Some(outbox) => std::mem::take(&mut *outbox.lock().expect("tenant outbox poisoned")),
            None => Vec::new(),
        }
    }

    /// Discards whatever a failed tenant buffered — tolerating an outbox
    /// lock poisoned by the panic itself — so a partial epoch never commits.
    pub fn discard_outbox(&mut self) {
        if let Some(outbox) = &self.run.outbox {
            match outbox.lock() {
                Ok(mut ops) => ops.clear(),
                Err(poisoned) => poisoned.into_inner().clear(),
            }
        }
    }

    /// The tenant's cumulative repository `(hits, misses)`.
    pub fn repo_stats(&self) -> (u64, u64) {
        let stats = self.run.controller.stats();
        (stats.repository.hits, stats.repository.misses)
    }

    /// Records the epoch of the tenant's first `FleetReuse`, if it just
    /// happened — the newcomer-convergence metric.
    pub fn observe_reuse(&mut self, epoch: usize) {
        if self.run.first_reuse_epoch.is_none()
            && epoch + 1 > self.run.start_epoch
            && self.run.controller.stats().fleet_reuses > 0
        {
            self.run.first_reuse_epoch = Some(epoch + 1 - self.run.start_epoch);
        }
    }

    /// Whether the tenant retires at the barrier ending `epoch`.
    pub fn retires_at(&self, epoch: usize) -> bool {
        self.run.retires_at(epoch)
    }

    /// Retires the tenant: all subsequent stepping becomes a no-op and its
    /// bookkeeping freezes, exactly as when the barrier engine dropped
    /// retired tenants from its run set.
    pub fn retire(&mut self) {
        self.run.retired = true;
    }

    /// Swaps in a freshly respawned run — the crash-recovery path: the old
    /// in-memory state is "lost" with the crash, and the replacement (already
    /// replayed up to the crash epoch) takes over the tenant's slot.
    pub(crate) fn replace(&mut self, run: TenantRun) {
        *self.run = run;
    }
}

/// The respawn hook of crash recovery: builds a fresh [`TenantRun`] for the
/// given tenant index, reading through the given repository (the private
/// replay clone during recovery). Provided by the fleet engine for
/// shared-mode runs.
pub(crate) type RespawnFn<'a> =
    dyn Fn(usize, Arc<SharedSignatureRepository>) -> TenantRun + Sync + 'a;

/// The shared, thread-safe side of a fleet run a transport commits through.
#[derive(Clone, Copy)]
pub struct FleetContext<'a> {
    shared: &'a Arc<dyn RepositoryClient>,
    /// The in-process repository behind `shared`, when there is one. The
    /// crash-recovery machinery (checkpoint capture, shard restore) needs the
    /// concrete snapshot/delta surface; a remote client doesn't export it, so
    /// fault injection and checkpointing stay inert on remote runs.
    concrete: Option<&'a Arc<SharedSignatureRepository>>,
    epochs: usize,
    epoch_secs: f64,
    origin_secs: f64,
    workers: usize,
    recorder: &'a Recorder,
    /// The seeded fault injector (the always-benign no-op by default).
    faults: FaultInjector,
    /// Delta-chain compaction cadence (0 = retain the full chain).
    checkpoint_every: usize,
    /// Spill the delta chain to a durable on-disk store at this directory
    /// (committer writes become crash-safe; `None` = in-memory only).
    checkpoint_dir: Option<&'a str>,
    /// Crash-recovery respawn hook; `None` when tenants are isolated.
    respawn: Option<&'a RespawnFn<'a>>,
}

impl FleetContext<'_> {
    /// The fleet horizon in epochs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Length of one epoch in simulated seconds.
    pub fn epoch_secs(&self) -> f64 {
        self.epoch_secs
    }

    /// Worker threads the engine was configured with (advisory: a transport
    /// may use its own threading model).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The fleet flight recorder (disabled by default — every probe on a
    /// disabled recorder folds to a null check, so transports can instrument
    /// unconditionally).
    pub fn recorder(&self) -> &Recorder {
        self.recorder
    }

    /// Applies one epoch's operations (in the given order) through the
    /// shared repository's batched commit path — one write lock per touched
    /// shard. Returns one applied-flag per operation.
    pub fn commit(&self, ops: &[PendingOp]) -> Vec<bool> {
        self.shared.apply_batch(ops)
    }

    /// Runs the TTL sweep for the barrier ending global epoch `epoch`.
    /// Returns the number of entries reclaimed.
    pub fn sweep(&self, epoch: usize) -> u64 {
        self.shared.evict_stale(SimTime::from_secs(
            self.origin_secs + self.epoch_secs * (epoch + 1) as f64,
        ))
    }

    /// Number of lock-striped shards in the shared repository.
    pub fn shard_count(&self) -> usize {
        self.shared.shard_count()
    }

    /// The shard `namespace` routes to.
    pub fn shard_of(&self, namespace: u64) -> usize {
        self.shared.shard_index(namespace)
    }

    /// Runs the TTL sweep of a single shard for the barrier ending global
    /// epoch `epoch` — the frontier-aware sweep of the per-shard committer:
    /// a shard whose batch commits ahead of the fleet is swept at **its own**
    /// epoch's timestamp, so a deferred-stale entry BSP would have reclaimed
    /// can never resurface in a later commit of that shard.
    /// Returns the number of entries reclaimed.
    pub fn sweep_shard(&self, shard: usize, epoch: usize) -> u64 {
        self.shared.evict_stale_shard(
            shard,
            SimTime::from_secs(self.origin_secs + self.epoch_secs * (epoch + 1) as f64),
        )
    }
}

/// Everything a transport needs to drive one fleet run: the tenants and the
/// shared-store context. Built by the fleet engine.
pub struct FleetHarness<'a> {
    pub(crate) runs: &'a mut [TenantRun],
    pub(crate) shared: &'a Arc<dyn RepositoryClient>,
    /// See [`FleetContext`]: the in-process repository when `shared` is one.
    pub(crate) concrete: Option<&'a Arc<SharedSignatureRepository>>,
    pub(crate) epochs: usize,
    pub(crate) epoch_secs: f64,
    pub(crate) origin_secs: f64,
    pub(crate) workers: usize,
    pub(crate) recorder: &'a Recorder,
    pub(crate) faults: FaultInjector,
    pub(crate) checkpoint_every: usize,
    pub(crate) checkpoint_dir: Option<&'a str>,
    pub(crate) respawn: Option<&'a RespawnFn<'a>>,
}

impl FleetHarness<'_> {
    /// Splits the harness into the shared context and one handle per tenant,
    /// so a backend can distribute tenants across threads.
    pub fn split(&mut self) -> (FleetContext<'_>, Vec<TenantHandle<'_>>) {
        let ctx = FleetContext {
            shared: self.shared,
            concrete: self.concrete,
            epochs: self.epochs,
            epoch_secs: self.epoch_secs,
            origin_secs: self.origin_secs,
            workers: self.workers,
            recorder: self.recorder,
            faults: self.faults,
            checkpoint_every: self.checkpoint_every,
            checkpoint_dir: self.checkpoint_dir,
            respawn: self.respawn,
        };
        let handles = self
            .runs
            .iter_mut()
            .enumerate()
            .map(|(index, run)| TenantHandle { index, run })
            .collect();
        (ctx, handles)
    }
}

/// The exact-count histogram type of [`TransportSummary`]'s two staleness
/// fields. Kept only for the benchmark's barrier replica.
pub use dejavu_obs::ExactHistogram as StalenessHistogram;

/// What a transport reports about its own behaviour: which backend ran.
/// Carried into [`crate::FleetReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportSummary {
    /// Backend label (`"bsp"`, `"steal(threads=N)"`).
    pub name: String,
    /// Every view is fresh, so this only ever counts zeros: one per
    /// tenant-epoch under [`BspBarrier`], none under [`WorkStealing`]. Kept
    /// only because the benchmark's barrier replica records the same and
    /// checks that the two summaries are equal.
    pub view_staleness: StalenessHistogram,
    /// Like `view_staleness`: one zero per committed cross-tenant hit under
    /// [`BspBarrier`], none under [`WorkStealing`], kept for the same replica.
    pub reuse_staleness: StalenessHistogram,
}

impl TransportSummary {
    /// The summary of a barrier run (also the placeholder for hand-built
    /// reports). Kept for the benchmark's barrier replica.
    pub fn bsp() -> Self {
        TransportSummary::named("bsp".to_string())
    }

    fn named(name: String) -> Self {
        TransportSummary {
            name,
            view_staleness: StalenessHistogram::default(),
            reuse_staleness: StalenessHistogram::default(),
        }
    }
}

/// What a fault-injected (or checkpointing) run did to itself and how much
/// recovering cost — carried into [`crate::FleetReport`] and rendered as its
/// "recovery" section. Counters are plain (non-recorder) tallies, so they are
/// reported identically with observability on or off; they are a pure
/// function of the fault plan and the scenario, hence deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// The rendered fault spec (`"SEED:kind,…"`), empty for
    /// checkpoint-only runs.
    pub spec: String,
    /// Total faults injected, all kinds.
    pub injected: u64,
    /// Tenants crashed (and recovered) mid-epoch.
    pub tenants_crashed: u64,
    /// Epoch reports dropped in flight (then retransmitted).
    pub reports_dropped: u64,
    /// Epoch reports delivered twice.
    pub reports_duplicated: u64,
    /// Epoch reports delayed past later arrivals.
    pub reports_reordered: u64,
    /// Committer restarts (volatile assembly state lost and re-assembled).
    pub committer_restarts: u64,
    /// Shards wiped and warm re-seeded from their delta chains.
    pub shard_losses: u64,
    /// Epochs deterministically replayed by crashed tenants.
    pub replayed_epochs: u64,
    /// Delta checkpoints captured at commit boundaries.
    pub checkpoints: u64,
    /// Delta-chain compaction passes.
    pub compactions: u64,
    /// Peak un-compacted delta-chain length any shard reached: the store's
    /// memory high-water mark, bounded on long runs by the dynamic floor.
    pub chain_peak: u64,
}

/// Everything a transport hands back to the engine after driving a fleet.
#[derive(Debug, Clone)]
pub struct TransportOutcome {
    /// Transport self-telemetry (its label).
    pub summary: TransportSummary,
    /// Fleet-wide cumulative repository hit rate after each epoch.
    pub hit_rate_curve: Vec<f64>,
    /// Per-tenant committed cross-tenant hits, in tenant order.
    pub cross_tenant_hits: Vec<u64>,
    /// Per tenant: the epoch at which it panicked (and was retired so the
    /// rest of the fleet could finish), in tenant order. All `None` on a
    /// healthy run.
    pub failed: Vec<Option<usize>>,
    /// Fault-injection and recovery tallies; `None` when neither faults nor
    /// checkpointing were configured.
    pub faults: Option<FaultSummary>,
}

impl TransportOutcome {
    fn new(name: String, tenants: usize) -> Self {
        TransportOutcome {
            summary: TransportSummary::named(name),
            hit_rate_curve: Vec::new(),
            cross_tenant_hits: vec![0; tenants],
            failed: vec![None; tenants],
            faults: None,
        }
    }
}

/// A commit transport: the strategy that schedules tenant stepping and moves
/// buffered operations into the shared repository.
///
/// Implementations must commit each epoch's operations **in tenant order**
/// (ties in the scenario's commit sequence are what keep shard-level results
/// reproducible) and run the TTL sweep once per epoch, and no tenant may
/// enter an epoch before every earlier epoch it can observe has committed —
/// so every transport's run is bit-identical to [`BspBarrier`]'s.
pub trait CommitTransport: Send + Sync {
    /// Label recorded in reports and benchmarks.
    fn name(&self) -> String;

    /// Drives every tenant from its join barrier to its retirement,
    /// committing outboxes along the way.
    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome;
}

/// Which transport a fleet run uses (the cloneable configuration surface;
/// [`TransportConfig::backend`] materializes the backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// The lock-step BSP epoch barrier: bit-deterministic for any worker
    /// count. The default.
    #[default]
    Bsp,
    /// A pool of `threads` workers pulls per-epoch tenant tasks from a shared
    /// work-stealing deque, each tenant gated on its own shard's commit
    /// frontier. Bit-matches [`TransportConfig::Bsp`] at any thread count.
    WorkStealing {
        /// Worker threads in the pool (clamped to `1..=tenants`).
        threads: usize,
    },
}

impl TransportConfig {
    /// Materializes the configured backend.
    pub fn backend(self) -> Box<dyn CommitTransport> {
        match self {
            TransportConfig::Bsp => Box::new(BspBarrier),
            TransportConfig::WorkStealing { threads } => Box::new(WorkStealing { threads }),
        }
    }

    /// Parses a CLI transport choice (the `fleet` experiment's
    /// `--transport`) into a configuration — the typed front door, so an
    /// unknown backend name is a proper error listing the valid choices
    /// instead of a panic, and extending the backend set cannot leave a
    /// stale catch-all match arm behind. `threads` carries the value of
    /// `--threads`; `bsp` ignores it.
    ///
    /// `staleness` is the bound the pool no longer has. It stays a parameter
    /// only because the benchmark passes `0`; any other value is an error.
    pub fn parse(backend: &str, threads: usize, staleness: usize) -> Result<Self, String> {
        let transport = match backend {
            "bsp" => TransportConfig::Bsp,
            "steal" => TransportConfig::WorkStealing { threads },
            other => {
                return Err(format!(
                    "unknown transport '{other}': valid backends are 'bsp' (lock-step epoch \
                     barrier) and 'steal' (work-stealing pool; --threads N)"
                ))
            }
        };
        if staleness != 0 {
            return Err(format!(
                "staleness {staleness} was removed: every transport serves views that are \
                 never stale"
            ));
        }
        Ok(transport)
    }

    /// Whether this backend can host the given fault plan. The BSP barrier
    /// has no report channel, no committer process and no frontier to
    /// recover — fault injection is an asynchronous-transport concept — so
    /// requesting faults under `bsp` is a configuration error, caught here
    /// (typed) instead of silently injecting nothing.
    pub fn check_faults(&self, _spec: &FaultSpec) -> Result<(), FaultSpecError> {
        match self {
            TransportConfig::Bsp => Err(FaultSpecError::BackendUnsupported {
                backend: "bsp".to_string(),
            }),
            TransportConfig::WorkStealing { .. } => Ok(()),
        }
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Commits one epoch's operations and accounts applied cross-tenant hits.
/// `op_tenants[i]` is the tenant that buffered `ops[i]`. Returns how many
/// cross-tenant hits applied.
fn commit_epoch(
    ctx: &FleetContext<'_>,
    ops: &[PendingOp],
    op_tenants: &[usize],
    out: &mut TransportOutcome,
) -> u64 {
    if ops.is_empty() {
        return 0;
    }
    let recorder = ctx.recorder();
    let started = recorder.start();
    let applied = ctx.commit(ops);
    recorder.observe(started, |m| &m.commit_batch_ns);
    recorder.with(|m| m.commit_batch_ops.record(ops.len() as u64));
    let mut hits = 0;
    for ((op, &tenant), applied) in ops.iter().zip(op_tenants).zip(applied) {
        // A hit only counts if the store still held the entry at commit time
        // (an earlier publish in the same barrier can have re-anchored the
        // namespace), keeping the engine-side and store-side cross-tenant
        // counters consistent.
        if applied && matches!(op, PendingOp::RecordHit { .. }) {
            out.cross_tenant_hits[tenant] += 1;
            hits += 1;
        }
    }
    hits
}

/// Tenants a barrier worker takes per trip to the epoch's block queue: small
/// enough that the last blocks of an epoch even out what the workers drew
/// before (one learning-day reclustering costs as much as thirty ordinary
/// tenant-epochs), large enough that the queue's lock is taken once per
/// ~quarter millisecond of stepping.
pub(crate) const BARRIER_BLOCK: usize = 16;

/// The classic bulk-synchronous barrier transport.
///
/// Within an epoch the worker threads deal themselves the tenants in blocks
/// of [`BARRIER_BLOCK`] until none are left, reading the shared repository
/// through read-only, epoch-frozen snapshots while buffering writes in
/// per-tenant outboxes. Which worker steps a tenant is left to the
/// scheduler and cannot reach the result: a tenant reads only the frozen
/// store and writes only its own outbox. At the epoch barrier the
/// outboxes are drained **in tenant order**, applied through one batched
/// commit per shard, and the TTL sweep runs. Mid-epoch the shared store never
/// changes and commits have a fixed order, so the fleet result is a pure
/// function of the scenario — it does not depend on thread count or OS
/// scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct BspBarrier;

impl CommitTransport for BspBarrier {
    fn name(&self) -> String {
        "bsp".to_string()
    }

    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome {
        let (ctx, mut handles) = harness.split();
        let mut out = TransportOutcome::new(self.name(), handles.len());
        let blocks_per_epoch = handles.len().div_ceil(BARRIER_BLOCK);
        let workers = ctx.workers.clamp(1, blocks_per_epoch.max(1));
        let recorder = ctx.recorder();
        recorder.with(|m| m.barrier_workers.set(workers as u64));
        // Per-epoch commit scratch, hoisted out of the epoch loop so capacity
        // carries over: after the first epoch the barrier commit allocates
        // nothing.
        let mut ops: Vec<PendingOp> = Vec::new();
        let mut op_tenants: Vec<usize> = Vec::new();
        for epoch in 0..ctx.epochs {
            recorder.event(|| Event::EpochBegin {
                epoch: epoch as u64,
            });
            let epoch_started = recorder.start();
            // Workers pull blocks until none are left, so one that drew a
            // block of learning-day tenants is not waited for by one that
            // drew cache hits. A panicking tenant (service model or poisoned
            // outbox) is caught on its worker, retired at this barrier and
            // surfaced in the outcome — the rest of the fleet finishes its
            // run.
            let blocks = Mutex::new(handles.chunks_mut(BARRIER_BLOCK));
            let next_block = || blocks.lock().expect("block queue poisoned").next();
            let failed_now: Vec<usize> = std::thread::scope(|scope| {
                let joins: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let busy_started = recorder.start();
                            let mut failed = Vec::new();
                            while let Some(block) = next_block() {
                                for handle in block {
                                    if catch_unwind(AssertUnwindSafe(|| {
                                        handle.step_epoch(epoch, &ctx)
                                    }))
                                    .is_err()
                                    {
                                        failed.push(handle.index());
                                    }
                                }
                            }
                            recorder.add_elapsed(busy_started, |m| &m.barrier_busy_ns);
                            failed
                        })
                    })
                    .collect();
                joins
                    .into_iter()
                    .flat_map(|join| join.join().expect("barrier worker panicked"))
                    .collect()
            });
            recorder.add_elapsed(epoch_started, |m| &m.barrier_wall_ns);
            for tenant in failed_now {
                out.failed[tenant] = Some(epoch);
                handles[tenant].retire();
                // The partial epoch's publishes die with the tenant.
                handles[tenant].discard_outbox();
            }
            // Epoch barrier: publish buffered writes in tenant order, then
            // age out stale entries. This is the only place the shared store
            // changes under this transport.
            let ops_retained = ops.capacity();
            let tenants_retained = op_tenants.capacity();
            ops.clear();
            op_tenants.clear();
            for handle in &mut handles {
                if out.failed[handle.index()].is_some() {
                    continue;
                }
                let drained = handle.drain_outbox();
                op_tenants.resize(op_tenants.len() + drained.len(), handle.index());
                ops.extend(drained);
            }
            let saved = (ops.len().min(ops_retained) * std::mem::size_of::<PendingOp>()
                + op_tenants.len().min(tenants_retained) * std::mem::size_of::<usize>())
                as u64;
            recorder.with(|m| m.scratch_bytes_saved.add(saved));
            let hits = commit_epoch(&ctx, &ops, &op_tenants, &mut out);
            // Views behind the barrier are never stale. The zeros are
            // recorded only for the benchmark's barrier replica, which
            // records the same and checks the two summaries are equal.
            for _ in 0..hits {
                out.summary.reuse_staleness.record(0);
            }
            let reclaimed = ctx.sweep(epoch);
            recorder.with(|m| m.sweep_reclaimed.add(reclaimed));

            // Convergence bookkeeping, then barrier-aligned retirement.
            let mut hits = 0u64;
            let mut misses = 0u64;
            for handle in &mut handles {
                let (h, m) = handle.repo_stats();
                hits += h;
                misses += m;
                if !handle.retired() {
                    if epoch >= handle.start_epoch() && epoch < handle.end_epoch() {
                        out.summary.view_staleness.record(0);
                    }
                    handle.observe_reuse(epoch);
                    if handle.retires_at(epoch) {
                        handle.retire();
                    }
                }
            }
            out.hit_rate_curve.push(hit_rate(hits, misses));
            recorder.observe(epoch_started, |m| &m.epoch_ns);
            recorder.event(|| Event::EpochCommit {
                epoch: epoch as u64,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL: TransportConfig = TransportConfig::WorkStealing { threads: 4 };

    #[test]
    fn transport_config_materializes_named_backends() {
        assert_eq!(TransportConfig::default(), TransportConfig::Bsp);
        assert_eq!(TransportConfig::Bsp.backend().name(), "bsp");
        assert_eq!(POOL.backend().name(), "steal(threads=4)");
    }

    #[test]
    fn transport_parse_accepts_both_backends_and_rejects_the_rest() {
        assert_eq!(
            TransportConfig::parse("bsp", 4, 0),
            Ok(TransportConfig::Bsp)
        );
        assert_eq!(TransportConfig::parse("steal", 4, 0), Ok(POOL));
        // The removed staleness bound: only the benchmark's 0 is accepted.
        for backend in ["bsp", "steal"] {
            let err = TransportConfig::parse(backend, 4, 2).expect_err("staleness was removed");
            assert!(err.contains("removed"), "{err}");
        }
        // Any other name — the removed backends' have no arm of their own
        // either — is the typed error. Every quoted name in the message: the
        // offender, then the choices.
        for unknown in ["quorum", "async"] {
            let err = TransportConfig::parse(unknown, 4, 0).expect_err("unknown backend");
            let quoted: Vec<&str> = err.split('\'').skip(1).step_by(2).collect();
            assert_eq!(quoted, [unknown, "bsp", "steal"], "{err}");
        }
    }

    #[test]
    fn fault_injection_is_rejected_on_bsp_and_accepted_on_the_pool() {
        let spec = FaultSpec::parse("7:crash,drop").expect("valid spec");
        assert_eq!(
            TransportConfig::Bsp.check_faults(&spec),
            Err(FaultSpecError::BackendUnsupported {
                backend: "bsp".to_string()
            })
        );
        assert_eq!(POOL.check_faults(&spec), Ok(()));
    }
}
