//! The committing half of the asynchronous transport: per-shard commit
//! frontiers, the epoch reports tenants send, and the committer that turns
//! complete `(shard, epoch)` report sets into commits and hands released
//! tenants back to the pool.

use super::pool::Doorbell;
use super::recovery::{FaultDomain, FaultyInbox};
use super::{commit_epoch, hit_rate, FleetContext, TransportOutcome};
use crate::shared_repo::PendingOp;
use crossbeam_deque::Injector;
use dejavu_obs::{Event, Recorder};
use std::sync::Mutex;

/// The per-shard commit frontiers: how many epochs each shard has fully
/// committed (batch applied, TTL sweep run). A tenant only ever reads and
/// writes the shard its namespace routes to, so it waits on **that shard's**
/// frontier rather than a fleet-wide one — a tenant of a fast shard never
/// waits for a slow shard it cannot observe. A tenant may enter epoch `e`
/// exactly when its shard has committed `e` epochs, so it reads the store
/// the barrier would have shown it.
///
/// The scheduler must never block a pool worker on a tenant's behalf, so a
/// tenant that is early is parked as data through [`enter_or_park`] and the
/// committer re-injects whatever [`advance`] releases. The frontiers can be
/// **poisoned** when the committer unwinds: pool workers must then die
/// rather than keep scheduling (or sleep forever), so the original panic —
/// not a deadlock — reaches the caller.
///
/// [`advance`]: ShardFrontiers::advance
/// [`enter_or_park`]: ShardFrontiers::enter_or_park
pub(super) struct ShardFrontiers {
    state: Mutex<FrontierState>,
}

struct FrontierState {
    /// Per shard: the number of fully committed epochs.
    committed: Vec<usize>,
    /// Per shard: parked `(enter_epoch, tenant)` pairs awaiting `advance`.
    parked: Vec<Vec<(usize, usize)>>,
    poisoned: bool,
}

impl ShardFrontiers {
    pub(super) fn new(shards: usize) -> Self {
        ShardFrontiers {
            state: Mutex::new(FrontierState {
                committed: vec![0; shards],
                parked: vec![Vec::new(); shards],
                poisoned: false,
            }),
        }
    }

    /// Non-blocking admission: `true` if the tenant may enter `epoch` now
    /// (`shard` has committed every earlier epoch), otherwise parks
    /// `(epoch, tenant)` — to be handed back by [`advance`] once the shard
    /// catches up — and returns `false`. The caller must have returned the
    /// tenant's task to its slot *before* calling, so a release that races
    /// the answer finds the tenant where the next worker will look.
    ///
    /// [`advance`]: ShardFrontiers::advance
    pub(super) fn enter_or_park(&self, shard: usize, epoch: usize, tenant: usize) -> bool {
        let mut state = self.state.lock().expect("frontier poisoned");
        assert!(
            !state.poisoned,
            "transport committer unwound; worker aborting"
        );
        if epoch <= state.committed[shard] {
            true
        } else {
            state.parked[shard].push((epoch, tenant));
            false
        }
    }

    /// Advances `shard`'s frontier to `committed` epochs and returns the
    /// parked tenants the new frontier admits (for the caller to reschedule).
    pub(super) fn advance(&self, shard: usize, committed: usize) -> Vec<usize> {
        let mut state = self.state.lock().expect("frontier poisoned");
        state.committed[shard] = committed;
        let parked = &mut state.parked[shard];
        let mut released = Vec::new();
        let mut i = 0;
        while i < parked.len() {
            if parked[i].0 <= committed {
                released.push(parked.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        released
    }

    /// Marks the frontiers dead (see [`PoisonOnDrop`]).
    fn poison(&self) {
        self.state.lock().expect("frontier poisoned").poisoned = true;
    }

    pub(super) fn poisoned(&self) -> bool {
        // A worker that panics while holding the guard poisons the std mutex
        // itself; either way, the frontiers are dead.
        match self.state.lock() {
            Ok(state) => state.poisoned,
            Err(_) => true,
        }
    }
}

/// Poisons the frontiers and rings the doorbell if dropped while armed — the
/// drive holds one around the committer so that the committer's unwind (a
/// lost report, a panic surfaced by a tenant) makes every pool worker, asleep
/// or scheduling, see dead frontiers and die before `thread::scope` starts
/// joining; without it, a committer panic would deadlock the scope.
pub(super) struct PoisonOnDrop<'a> {
    pub(super) frontiers: &'a ShardFrontiers,
    pub(super) doorbell: &'a Doorbell,
    pub(super) armed: bool,
}

impl Drop for PoisonOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.frontiers.poison();
            self.doorbell.ring();
        }
    }
}

/// One tenant's end-of-epoch report to the committer. `Clone` so a
/// restart-tolerant committer can retain delivered reports for re-assembly
/// (and the fault injector can duplicate one in flight).
#[derive(Clone)]
pub(super) struct EpochReport {
    pub(super) tenant: usize,
    pub(super) epoch: usize,
    pub(super) ops: Vec<PendingOp>,
    /// Cumulative repository stats after this epoch.
    pub(super) hits: u64,
    pub(super) misses: u64,
    /// This is the tenant's final report (retirement or window end).
    pub(super) last: bool,
    /// The tenant unwound mid-epoch (sent from its worker's drop guard): the
    /// committer retires it and stops expecting its reports instead of
    /// waiting forever for ones that will never come.
    pub(super) aborted: bool,
}

/// What travels over the report channel: the reports a sender finished since
/// its last message, in the order it finished them. The committer's results
/// depend on report contents and tenant order, never on arrival order, so
/// how reports are grouped into messages cannot change a committed byte —
/// which is what lets a pool worker send many reports for one wake-up of
/// the committer. Receivers unpack a batch report by report.
pub(super) type ReportBatch = Vec<EpochReport>;

/// The committer's report source: the raw channel (with the rest of the
/// batch being unpacked), or the fault-injecting wrapper.
enum Inbox<'a> {
    Plain {
        rx: &'a crossbeam_channel::Receiver<ReportBatch>,
        unpacking: std::vec::IntoIter<EpochReport>,
    },
    Faulty(FaultyInbox<'a>),
}

impl<'a> Inbox<'a> {
    /// The inbox of one drive: fault-injecting when the domain's plan is
    /// live, the raw channel otherwise.
    fn new(
        rx: &'a crossbeam_channel::Receiver<ReportBatch>,
        domain: Option<&'a FaultDomain<'_>>,
        recorder: &'a Recorder,
    ) -> Self {
        match domain.and_then(|domain| domain.faulty_inbox(rx, recorder)) {
            Some(inbox) => Inbox::Faulty(inbox),
            None => Inbox::Plain {
                rx,
                unpacking: Vec::new().into_iter(),
            },
        }
    }

    /// The next report; `block` waits for one, otherwise only what has
    /// already been delivered is returned. `None` when blocking means every
    /// sender is gone.
    fn next(&mut self, block: bool) -> Option<EpochReport> {
        match self {
            Inbox::Plain { rx, unpacking } => loop {
                if let Some(report) = unpacking.next() {
                    return Some(report);
                }
                let batch = if block {
                    rx.recv().ok()?
                } else {
                    rx.try_recv().ok()?
                };
                *unpacking = batch.into_iter();
            },
            Inbox::Faulty(inbox) => inbox.next(block),
        }
    }
}

/// The committer of the asynchronous transport, with **per-shard commit
/// frontiers**: epoch reports arrive over the channel, and a
/// `(shard, epoch)` batch commits — in tenant order, followed by the
/// frontier-aware TTL sweep of exactly that shard at that epoch's timestamp
/// — as soon as **all of the epoch's reports touching the shard** are in.
/// A shard therefore never waits for the fleet's slowest shard, which is
/// what shrinks commit latency on skewed scenarios; and because a tenant
/// only ever observes its own shard, no tenant can tell the difference.
///
/// Fleet-wide bookkeeping (the hit-rate curve) folds once **every** shard
/// has passed an epoch, in epoch order, so it is identical to a whole-epoch
/// committer's. Everything the committer does depends only on report
/// contents and tenant order — never on arrival order across shards — so
/// results are invariant to thread scheduling and to the worker count.
///
/// The committer drives the pool directly: the tenants a frontier advance
/// un-parks go back onto the pool's injector, followed by one ring of its
/// doorbell.
///
/// Reports are admitted **idempotently** (each `(tenant, epoch)` counts
/// once, so duplicated or reordered deliveries are safe by construction).
/// Under a fault domain the committer additionally runs the domain's
/// checkpoint step after every commit ([`FaultDomain::checkpoint_commit`])
/// and survives its own injected **restarts** — all volatile assembly state
/// is rebuilt from first principles plus the retained already-delivered
/// reports, exactly what a failover committer would re-assemble from
/// re-sent reports.
pub(super) struct Committer<'a, 'h> {
    ctx: &'a FleetContext<'h>,
    windows: &'a [(usize, usize)],
    tenant_shard: &'a [usize],
    frontiers: &'a ShardFrontiers,
    /// The pool's shared task queue and wake-up, for released tenants.
    injector: &'a Injector<usize>,
    doorbell: &'a Doorbell,
    domain: Option<&'a FaultDomain<'h>>,
    epochs: usize,
    /// How many tenants the nominal tenancy windows promise each
    /// `(epoch, shard)` — the pristine ledger restarts rebuild from.
    nominal: Vec<Vec<usize>>,
    /// `nominal` adjusted for early retirements and tenant deaths: how many
    /// reports each `(epoch, shard)` still waits for before committing.
    expected: Vec<Vec<usize>>,
    received: Vec<Vec<usize>>,
    pending: Vec<Vec<Vec<EpochReport>>>,
    /// Per-epoch cumulative tenant stats, folded into `cached` (and the
    /// hit-rate curve) once the whole epoch has committed across shards.
    epoch_stats: Vec<Vec<(usize, u64, u64)>>,
    cached: Vec<(u64, u64)>,
    /// Per shard: the next epoch whose batch has not committed yet. This is
    /// the committer's only *durable* state — everything else is rebuilt on
    /// an injected restart.
    shard_next: Vec<usize>,
    completed: usize,
    /// Per tenant: the epoch of its early `last` report, if any — the guard
    /// that keeps the expected-count adjustment idempotent under duplicated
    /// deliveries and restart re-admission.
    early_last: Vec<Option<usize>>,
    /// Per tenant: the epoch at which it aborted (panicked), if any.
    failed: Vec<Option<usize>>,
    /// Per `(tenant, epoch)`: whether a report was already admitted — the
    /// sequence-number dedup that makes commit idempotent.
    enqueued: Vec<Vec<bool>>,
    /// Uncommitted delivered reports, kept only when committer restarts are
    /// being injected: the re-sent-report pool a failover re-assembles from.
    retained: Vec<EpochReport>,
    /// Shards whose readiness may have changed. Seeded with every shard:
    /// epochs expecting no reports from a shard (no tenant routes there, or
    /// everyone already retired) commit empty batches immediately — their
    /// TTL sweeps still run on schedule, exactly as the whole-fleet
    /// barrier's sweep would have covered them.
    work: Vec<usize>,
    /// Commit-batch scratch reused across `(shard, epoch)` commits: the flat
    /// op list and its parallel tenant column. Capacity is retained between
    /// commits, so steady-state commits allocate nothing.
    scratch_ops: Vec<PendingOp>,
    scratch_tenants: Vec<usize>,
}

impl<'a, 'h> Committer<'a, 'h> {
    pub(super) fn new(
        ctx: &'a FleetContext<'h>,
        windows: &'a [(usize, usize)],
        tenant_shard: &'a [usize],
        frontiers: &'a ShardFrontiers,
        injector: &'a Injector<usize>,
        doorbell: &'a Doorbell,
        domain: Option<&'a FaultDomain<'h>>,
    ) -> Self {
        let epochs = ctx.epochs();
        let shards = ctx.shard_count();
        let mut nominal = vec![vec![0usize; shards]; epochs];
        for (tenant, &(start, end)) in windows.iter().enumerate() {
            for slot in &mut nominal[start.min(epochs)..end.min(epochs)] {
                slot[tenant_shard[tenant]] += 1;
            }
        }
        Committer {
            ctx,
            windows,
            tenant_shard,
            frontiers,
            injector,
            doorbell,
            domain,
            epochs,
            expected: nominal.clone(),
            nominal,
            received: vec![vec![0usize; shards]; epochs],
            pending: (0..epochs)
                .map(|_| (0..shards).map(|_| Vec::new()).collect())
                .collect(),
            epoch_stats: vec![Vec::new(); epochs],
            cached: vec![(0, 0); windows.len()],
            shard_next: vec![0usize; shards],
            completed: 0,
            early_last: vec![None; windows.len()],
            failed: vec![None; windows.len()],
            enqueued: vec![vec![false; epochs]; windows.len()],
            retained: Vec::new(),
            work: (0..shards).collect(),
            scratch_ops: Vec::new(),
            scratch_tenants: Vec::new(),
        }
    }

    pub(super) fn run(
        mut self,
        rx: &crossbeam_channel::Receiver<ReportBatch>,
        out: &mut TransportOutcome,
    ) {
        let mut inbox = Inbox::new(rx, self.domain, self.ctx.recorder());
        let recorder = self.ctx.recorder();
        // Fold-to-fold wall time per fleet-wide epoch (the async analogue of
        // the barrier's per-epoch wall clock).
        let mut fold_started = recorder.start();
        loop {
            self.commit_ready(out);
            // Fold fully committed epochs into the fleet-wide curve, in
            // order.
            while self.completed < self.epochs
                && self.shard_next.iter().all(|&next| next > self.completed)
            {
                let folded = self.completed;
                for (tenant, hits, misses) in std::mem::take(&mut self.epoch_stats[folded]) {
                    self.cached[tenant] = (hits, misses);
                }
                let hits: u64 = self.cached.iter().map(|&(h, _)| h).sum();
                let misses: u64 = self.cached.iter().map(|&(_, m)| m).sum();
                out.hit_rate_curve.push(hit_rate(hits, misses));
                recorder.observe(fold_started, |m| &m.epoch_ns);
                fold_started = recorder.start();
                recorder.event(|| Event::EpochCommit {
                    epoch: folded as u64,
                });
                self.completed += 1;
                if self
                    .domain
                    .is_some_and(|domain| domain.inject_committer_restart(folded, recorder))
                {
                    self.restart(out);
                }
            }
            if self.completed >= self.epochs {
                return;
            }
            if !self.work.is_empty() {
                // A restart re-admitted reports; drain them before blocking
                // on the channel (which may already be empty and closed).
                continue;
            }
            let Some(report) = inbox.next(true) else {
                panic!(
                    "async transport lost epoch reports ({} of {} epochs committed)",
                    self.completed, self.epochs
                );
            };
            self.admit(report, out);
            // Admit everything already delivered before the next commit
            // pass, so a burst of reports costs one pass over the ready
            // shards, not one per report.
            while let Some(report) = inbox.next(false) {
                self.admit(report, out);
            }
        }
    }

    /// Admits one delivered report: dedups by `(tenant, epoch)` (the
    /// idempotence that makes duplicated and reordered deliveries safe),
    /// handles abort notices by releasing the dead tenant's future slots,
    /// and queues the report for its shard's commit.
    fn admit(&mut self, report: EpochReport, out: &mut TransportOutcome) {
        let tenant = report.tenant;
        let shard = self.tenant_shard[tenant];
        let nominal_end = self.windows[tenant].1.min(self.epochs);
        if report.aborted {
            if self.failed[tenant].is_none() && self.early_last[tenant].is_none() {
                self.failed[tenant] = Some(report.epoch);
                out.failed[tenant] = Some(report.epoch);
                // The dead tenant reported every epoch before the abort, so
                // its shard stops waiting for it from the abort epoch on.
                let lo = report.epoch.max(self.windows[tenant].0).min(nominal_end);
                for slot in &mut self.expected[lo..nominal_end] {
                    slot[shard] -= 1;
                }
                self.work.push(shard);
            }
            return;
        }
        if report.epoch >= self.epochs || self.enqueued[tenant][report.epoch] {
            return; // duplicate delivery: already admitted once
        }
        self.enqueued[tenant][report.epoch] = true;
        if report.last && self.early_last[tenant].is_none() {
            // The tenant retired before its nominal window end: its shard's
            // later epochs no longer wait for it.
            self.early_last[tenant] = Some(report.epoch);
            let lo = (report.epoch + 1).min(nominal_end);
            for slot in &mut self.expected[lo..nominal_end] {
                slot[shard] -= 1;
            }
        }
        if self.domain.is_some_and(FaultDomain::retains_reports) {
            self.retained.push(report.clone());
        }
        self.received[report.epoch][shard] += 1;
        self.pending[report.epoch][shard].push(report);
        self.work.push(shard);
    }

    /// Drains the shard worklist: commits every ready `(shard, epoch)`
    /// batch, in tenant order within the batch, sweeps the shard, captures
    /// its delta checkpoint, and advances its frontier.
    fn commit_ready(&mut self, out: &mut TransportOutcome) {
        let recorder = self.ctx.recorder();
        while let Some(shard) = self.work.pop() {
            while self.shard_next[shard] < self.epochs
                && self.received[self.shard_next[shard]][shard]
                    == self.expected[self.shard_next[shard]][shard]
            {
                let epoch = self.shard_next[shard];
                let mut batch = std::mem::take(&mut self.pending[epoch][shard]);
                batch.sort_by_key(|r| r.tenant);
                let ops_retained = self.scratch_ops.capacity();
                let tenants_retained = self.scratch_tenants.capacity();
                self.scratch_ops.clear();
                self.scratch_tenants.clear();
                for report in &mut batch {
                    let drained = std::mem::take(&mut report.ops);
                    self.scratch_tenants
                        .resize(self.scratch_tenants.len() + drained.len(), report.tenant);
                    self.scratch_ops.extend(drained);
                }
                let saved = (self.scratch_ops.len().min(ops_retained)
                    * std::mem::size_of::<PendingOp>()
                    + self.scratch_tenants.len().min(tenants_retained)
                        * std::mem::size_of::<usize>()) as u64;
                recorder.with(|m| m.scratch_bytes_saved.add(saved));
                commit_epoch(self.ctx, &self.scratch_ops, &self.scratch_tenants, out);
                recorder.event(|| Event::ShardCommit {
                    shard: shard as u64,
                    epoch: epoch as u64,
                    ops: self.scratch_ops.len() as u64,
                });
                let reclaimed = self.ctx.sweep_shard(shard, epoch);
                recorder.with(|m| m.sweep_reclaimed.add(reclaimed));
                recorder.event(|| Event::TtlSweep {
                    shard: shard as u64,
                    epoch: epoch as u64,
                    reclaimed,
                });
                for report in &batch {
                    self.epoch_stats[epoch].push((report.tenant, report.hits, report.misses));
                }
                self.shard_next[shard] = epoch + 1;
                if !self.retained.is_empty() {
                    // Committed reports are durable; only uncommitted ones
                    // need re-assembly after a restart.
                    let tenant_shard = self.tenant_shard;
                    self.retained
                        .retain(|r| !(r.epoch == epoch && tenant_shard[r.tenant] == shard));
                }
                if let Some(domain) = self.domain {
                    domain.checkpoint_commit(shard, epoch, recorder);
                }
                if recorder.is_enabled() {
                    // Frontier lag: how far this shard's frontier trails the
                    // fleet's most advanced shard after this commit.
                    let lead = self.shard_next.iter().copied().max().unwrap_or(0);
                    let lag = (lead - self.shard_next[shard]) as u64;
                    recorder.with(|m| m.shard_lag.observe(shard, lag));
                    recorder.event(|| Event::FrontierAdvance {
                        shard: shard as u64,
                        epoch: epoch as u64,
                        lag,
                    });
                }
                // Advancing after the sweep keeps the pool exact: no tenant
                // enters its shard's next epoch while that shard still
                // moves.
                let released = self.frontiers.advance(shard, epoch + 1);
                // An empty release set means no tenant became runnable (the
                // frontier mutex orders park vs advance), so idle workers
                // have nothing to find — don't wake them.
                if !released.is_empty() {
                    for tenant in released {
                        self.injector.push(tenant);
                    }
                    self.doorbell.ring();
                }
            }
        }
    }

    /// An injected committer crash-and-failover: every piece of volatile
    /// assembly state (expected counts, received counts, pending batches,
    /// dedup bits) is discarded and rebuilt from the nominal windows, the
    /// durable per-shard frontiers, the early-retirement/death ledgers, and
    /// the retained (conceptually re-sent) reports. Committed state — the
    /// shared store, the checkpoint chains, `shard_next` — survives, exactly
    /// as a real failover inherits the durable log but not the assembler's
    /// memory.
    fn restart(&mut self, out: &mut TransportOutcome) {
        let shards = self.shard_next.len();
        for shard in 0..shards {
            for e in self.shard_next[shard]..self.epochs {
                self.received[e][shard] = 0;
                self.pending[e][shard].clear();
                self.expected[e][shard] = self.nominal[e][shard];
            }
        }
        for tenant in 0..self.windows.len() {
            let shard = self.tenant_shard[tenant];
            let nominal_end = self.windows[tenant].1.min(self.epochs);
            // Re-apply what `admit` took off the ledger: an early retiree is
            // not expected after its last epoch, a dead tenant from its abort.
            let retired = self.early_last[tenant].map(|last| last + 1);
            let died = self.failed[tenant].map(|failed| failed.max(self.windows[tenant].0));
            for lo in retired.into_iter().chain(died) {
                for e in lo.max(self.shard_next[shard])..nominal_end {
                    self.expected[e][shard] -= 1;
                }
            }
            for e in self.shard_next[shard]..self.epochs {
                self.enqueued[tenant][e] = false;
            }
        }
        // Re-assemble from the retained pool — the reports tenants would
        // re-send to a failover committer. `admit` re-retains each one, so a
        // second restart can re-assemble again.
        for report in std::mem::take(&mut self.retained) {
            self.admit(report, out);
        }
        self.work.extend(0..shards);
    }
}

#[cfg(test)]
impl EpochReport {
    /// A report with no operations and no stats, for unit tests.
    pub(super) fn bare(tenant: usize, epoch: usize, last: bool) -> Self {
        EpochReport {
            tenant,
            epoch,
            ops: Vec::new(),
            hits: 0,
            misses: 0,
            last,
            aborted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;
    use crate::repo_client::RepositoryClient;
    use crate::shared_repo::{SharedRepoConfig, SharedSignatureRepository};
    use std::sync::Arc;

    #[test]
    fn shard_frontiers_gate_per_shard() {
        let frontiers = ShardFrontiers::new(2);
        assert!(frontiers.enter_or_park(0, 0, 7));
        assert!(frontiers.advance(0, 2).is_empty());
        assert!(frontiers.enter_or_park(0, 2, 7));
        // Shard 1's frontier is untouched by shard 0's advance.
        assert!(frontiers.enter_or_park(1, 0, 8));
        assert!(!frontiers.enter_or_park(1, 2, 8));
        // Advancing the *other* shard must not release it, nor advancing its
        // own short of the parked epoch; reaching it does.
        assert!(frontiers.advance(0, 9).is_empty());
        assert!(frontiers.advance(1, 1).is_empty());
        assert_eq!(frontiers.advance(1, 2), vec![8]);
        assert!(frontiers.enter_or_park(1, 2, 8));
    }

    #[test]
    fn parked_tenants_release_only_when_their_shard_catches_up() {
        let frontiers = ShardFrontiers::new(2);
        assert!(frontiers.enter_or_park(0, 0, 7));
        // Early: parked instead of admitted.
        assert!(!frontiers.enter_or_park(0, 2, 7));
        assert!(!frontiers.enter_or_park(0, 1, 8));
        // The other shard's advance releases nobody.
        assert!(frontiers.advance(1, 5).is_empty());
        // Advancing shard 0 to one committed epoch admits only tenant 8.
        assert_eq!(frontiers.advance(0, 1), vec![8]);
        assert_eq!(frontiers.advance(0, 2), vec![7]);
        assert!(frontiers.enter_or_park(0, 2, 7));
    }

    /// Two tenants on one shard for the whole of a fault-free drive: what a
    /// committer under test borrows.
    struct TwoTenants {
        repo: Arc<dyn RepositoryClient>,
        recorder: Recorder,
        windows: [(usize, usize); 2],
        frontiers: ShardFrontiers,
        injector: Injector<usize>,
        doorbell: Doorbell,
    }

    impl TwoTenants {
        fn new(epochs: usize) -> Self {
            TwoTenants {
                repo: Arc::new(SharedSignatureRepository::new(SharedRepoConfig {
                    shards: 1,
                    ..Default::default()
                })),
                recorder: Recorder::disabled(),
                windows: [(0, epochs); 2],
                frontiers: ShardFrontiers::new(1),
                injector: Injector::new(),
                doorbell: Doorbell::default(),
            }
        }

        fn context(&self) -> FleetContext<'_> {
            FleetContext {
                shared: &self.repo,
                concrete: None,
                epochs: self.windows[0].1,
                epoch_secs: 3600.0,
                origin_secs: 0.0,
                workers: 1,
                recorder: &self.recorder,
                faults: FaultInjector::disabled(),
                checkpoint_every: 0,
                checkpoint_dir: None,
                respawn: None,
            }
        }

        fn committer<'a>(&'a self, ctx: &'a FleetContext<'a>) -> Committer<'a, 'a> {
            Committer::new(
                ctx,
                &self.windows,
                &[0, 0],
                &self.frontiers,
                &self.injector,
                &self.doorbell,
                None,
            )
        }
    }

    #[test]
    fn an_abort_notice_stops_the_committer_waiting_for_the_dead_tenant() {
        // Two tenants on one shard, three epochs. Tenant 1 dies in epoch 2,
        // and its notice overtakes tenant 0's epoch-2 report. The committer
        // must stop expecting tenant 1 from epoch 2 on and still commit all
        // three epochs.
        let fleet = TwoTenants::new(3);
        let ctx = fleet.context();
        let (tx, rx) = crossbeam_channel::unbounded::<ReportBatch>();
        let abort = EpochReport {
            aborted: true,
            ..EpochReport::bare(1, 2, true)
        };
        for message in [
            vec![
                EpochReport::bare(0, 0, false),
                EpochReport::bare(1, 0, false),
            ],
            vec![
                EpochReport::bare(1, 1, false),
                EpochReport::bare(0, 1, false),
            ],
            vec![abort],
            vec![EpochReport::bare(0, 2, true)],
        ] {
            assert!(tx.send(message).is_ok(), "receiver alive");
        }
        drop(tx);
        let mut out = TransportOutcome::new("test".to_string(), 2);
        fleet.committer(&ctx).run(&rx, &mut out);
        assert_eq!(out.failed, vec![None, Some(2)]);
        assert_eq!(out.hit_rate_curve.len(), 3, "every epoch folded");
    }

    #[test]
    fn a_frontier_advance_reinjects_its_release_set_with_one_ring_and_an_empty_one_is_silent() {
        // Two epochs; both tenants have stepped epoch 0 and sit parked on
        // epoch 1.
        let fleet = TwoTenants::new(2);
        let ctx = fleet.context();
        let mut committer = fleet.committer(&ctx);
        let mut out = TransportOutcome::new("test".to_string(), 2);
        assert!(!fleet.frontiers.enter_or_park(0, 1, 0));
        assert!(!fleet.frontiers.enter_or_park(0, 1, 1));
        let quiet = fleet.doorbell.generation();

        // Epoch 0 completes: the advance to one committed epoch releases
        // both tenants onto the injector, behind a single ring.
        committer.admit(EpochReport::bare(0, 0, false), &mut out);
        committer.admit(EpochReport::bare(1, 0, false), &mut out);
        committer.commit_ready(&mut out);
        assert_eq!(fleet.doorbell.generation(), quiet + 1);
        let mut released: Vec<usize> =
            std::iter::from_fn(|| fleet.injector.steal().success()).collect();
        released.sort_unstable();
        assert_eq!(released, vec![0, 1]);

        // Epoch 1 completes with nobody parked: nothing queued, no ring.
        committer.admit(EpochReport::bare(0, 1, true), &mut out);
        committer.admit(EpochReport::bare(1, 1, true), &mut out);
        committer.commit_ready(&mut out);
        assert_eq!(committer.shard_next, vec![2]);
        assert!(fleet.injector.is_empty());
        assert_eq!(fleet.doorbell.generation(), quiet + 1);
    }
}
