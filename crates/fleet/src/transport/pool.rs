//! The scheduling half of the asynchronous transport: the doorbell idle
//! workers sleep on, per-tenant tasks, the worker loop with its batched
//! report sends, and the [`WorkStealing`] backend that wires workers and
//! committer together.

use super::commit::{Committer, EpochReport, PoisonOnDrop, ReportBatch, ShardFrontiers};
use super::recovery::{crash_and_recover, fault_domain, summarize_faults, FaultDomain};
use super::{CommitTransport, FleetContext, FleetHarness, TenantHandle, TransportOutcome};
use crossbeam_deque::{Injector, Stealer, Worker};
use dejavu_obs::{Event, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Wakes idle pool workers when tasks may have (re)appeared. A worker reads
/// the generation **before** scanning the queues and only sleeps if the
/// generation is still unchanged, so a task injected after an empty scan can
/// never be missed: either the scan saw it, or the ring bumps the generation
/// and the sleep returns immediately.
///
/// The generation is an atomic, so the once-per-round snapshot costs a load;
/// the mutex exists for the sleep path only. A ring bumps the generation
/// **under** that mutex, so the bump cannot fall between a sleeper's last
/// check and its wait. The `Release` bump pairs with the `Acquire` loads: a
/// worker that reads the new generation also sees whatever the ringer
/// queued before ringing.
#[derive(Default)]
pub(super) struct Doorbell {
    generation: AtomicU64,
    sleepers: Mutex<()>,
    bell: Condvar,
}

impl Doorbell {
    pub(super) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    pub(super) fn ring(&self) {
        {
            let _sleepers = self.sleepers.lock().expect("doorbell poisoned");
            self.generation.fetch_add(1, Ordering::Release);
        }
        self.bell.notify_all();
    }

    /// Sleeps until the generation moves past `seen`.
    fn wait_beyond(&self, seen: u64) {
        let mut sleepers = self.sleepers.lock().expect("doorbell poisoned");
        while self.generation.load(Ordering::Acquire) == seen {
            sleepers = self.bell.wait(sleepers).expect("doorbell poisoned");
        }
    }
}

/// Sends an `aborted` report if a tenant's epoch unwinds on its worker, so
/// the committer learns about the death instead of deadlocking on the
/// missing epoch reports; clearing `armed` marks a clean exit. The notice is
/// a message of its own, so it can overtake earlier reports of the same
/// tenant still buffered by another pool worker; admission tolerates that
/// (dedup by `(tenant, epoch)`, expectations adjusted from the abort epoch
/// on).
struct AbortOnDrop<'a> {
    tx: &'a crossbeam_channel::Sender<ReportBatch>,
    tenant: usize,
    /// The epoch the tenant was in when it unwound — the committer stops
    /// expecting reports from this epoch onwards.
    epoch: usize,
    armed: bool,
}

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            // A failed send means the committer is already gone; nothing to
            // notify.
            let _ = self.tx.send(vec![EpochReport {
                tenant: self.tenant,
                epoch: self.epoch,
                staleness: 0,
                ops: Vec::new(),
                hits: 0,
                misses: 0,
                last: true,
                aborted: true,
            }]);
        }
    }
}

/// One tenant's schedulable state under [`WorkStealing`]: its handle plus
/// the next epoch it will step. Lives in the tenant's slot whenever the
/// tenant is queued (injector or a worker deque) or parked on a frontier; a
/// worker claims it out of the slot for as long as the frontier keeps
/// admitting the tenant.
struct TenantTask<'a> {
    handle: TenantHandle<'a>,
    next_epoch: usize,
    /// Whether this tenant's scheduled crash already fired (the re-executed
    /// crash epoch must not re-trigger it).
    crashed: bool,
}

/// How many finished reports a pool worker holds before it sends them no
/// matter what else it has queued. The usual flush is the local deque
/// running dry (at most one injector batch of tasks away); the cap bounds
/// what a worker can withhold from the committer while `staleness > 0` lets
/// it step the same tenants several epochs in a row.
pub(crate) const REPORT_BATCH_CAP: usize = 32;

/// A pool worker's finished-but-unsent epoch reports. The committer is woken
/// once per flush instead of once per tenant-epoch. A worker flushes before
/// it looks beyond its own deque, before every sleep and before it exits, so
/// a report is never withheld by a worker that has stopped producing them.
struct ReportBuffer<'a> {
    tx: &'a crossbeam_channel::Sender<ReportBatch>,
    recorder: &'a Recorder,
    held: ReportBatch,
}

impl ReportBuffer<'_> {
    /// Buffers one report; flushes at the cap and on a tenant's final
    /// report. `false` means a flush found the committer gone.
    fn push(&mut self, report: EpochReport) -> bool {
        let flush = report.last || self.held.len() + 1 >= REPORT_BATCH_CAP;
        self.held.push(report);
        !flush || self.flush()
    }

    /// Sends everything held as one message. `false` means the committer is
    /// gone (its poisoned frontiers end this worker on its next round).
    fn flush(&mut self) -> bool {
        if self.held.is_empty() {
            return true;
        }
        let batch = std::mem::replace(&mut self.held, Vec::with_capacity(REPORT_BATCH_CAP));
        self.recorder.with(|m| m.report_batches.inc());
        self.tx.send(batch).is_ok()
    }
}

/// Everything a pool worker shares with its peers and the committer.
struct StealPool<'a, 'h> {
    ctx: &'a FleetContext<'h>,
    frontiers: &'a ShardFrontiers,
    doorbell: &'a Doorbell,
    injector: &'a Injector<usize>,
    stealers: &'a [Stealer<usize>],
    slots: &'a [Mutex<Option<TenantTask<'h>>>],
    windows: &'a [(usize, usize)],
    tenant_shard: &'a [usize],
    /// Tenants that have not sent their `last` report yet; the pool drains
    /// when it reaches zero.
    remaining: &'a AtomicUsize,
    /// The drive's fault/recovery domain, when configured.
    domain: Option<&'a FaultDomain<'h>>,
}

impl<'h> StealPool<'_, 'h> {
    /// One worker's scheduling loop: pop the local deque, then steal from
    /// the shared injector (batch) or a peer's deque; run the claimed
    /// tenant for as long as its frontier admits it; sleep on the doorbell
    /// only when every queue was observed empty at an unchanged doorbell
    /// generation. Finished reports leave in batches (see [`ReportBuffer`]).
    fn run_worker(
        &self,
        worker: usize,
        local: &Worker<usize>,
        tx: &crossbeam_channel::Sender<ReportBatch>,
    ) {
        let recorder = self.ctx.recorder();
        let mut outbound = ReportBuffer {
            tx,
            recorder,
            held: Vec::with_capacity(REPORT_BATCH_CAP),
        };
        loop {
            // Snapshot the doorbell before scanning: a task injected after an
            // empty scan bumps the generation, so the sleep below returns
            // immediately instead of missing the wakeup.
            let heard = self.doorbell.generation();
            assert!(
                !self.frontiers.poisoned(),
                "transport committer unwound; worker aborting"
            );
            // A task that did not come off the local deque was stolen — from
            // the shared injector or a peer's cold end.
            let mut stolen = false;
            let task = local.pop().or_else(|| {
                // The local deque ran dry: what this worker finished since
                // its last flush goes out before it looks elsewhere — and so
                // before it can find nothing and sleep or exit.
                outbound.flush();
                stolen = true;
                self.injector
                    .steal_batch_and_pop(local)
                    .or_else(|| self.stealers.iter().map(|s| s.steal()).collect())
                    .success()
            });
            match task {
                Some(tenant) => {
                    if stolen {
                        recorder.with(|m| m.steals.inc());
                        recorder.event(|| Event::WorkerSteal {
                            worker: worker as u64,
                        });
                    }
                    self.run_tenant(tenant, &mut outbound)
                }
                None => {
                    if self.remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    self.doorbell.wait_beyond(heard);
                    recorder.with(|m| m.wakes.inc());
                    recorder.event(|| Event::WorkerWake {
                        worker: worker as u64,
                    });
                }
            }
        }
    }

    /// Asks `tenant`'s shard frontier whether the tenant may enter its next
    /// epoch, and claims its task out of the slot if so (with the observed
    /// staleness); otherwise the tenant is parked where it sits. `returning`
    /// is the task of a worker that just stepped the tenant and hands it
    /// back. The slot stays locked across the question, so the task is in
    /// its slot before the frontier can park it, and a release racing the
    /// answer finds it there as soon as this worker lets go.
    fn claim(
        &self,
        tenant: usize,
        returning: Option<TenantTask<'h>>,
    ) -> Option<(TenantTask<'h>, usize)> {
        let mut slot = self.slots[tenant].lock().expect("tenant slot poisoned");
        if let Some(task) = returning {
            *slot = Some(task);
        }
        let epoch = slot
            .as_ref()
            .expect("tenant scheduled while not in its slot")
            .next_epoch;
        let admitted = self
            .frontiers
            .enter_or_park(self.tenant_shard[tenant], epoch, tenant);
        if let Some(staleness) = admitted {
            return slot.take().map(|task| (task, staleness));
        }
        drop(slot);
        // Parked; the committer re-injects it on advance.
        let recorder = self.ctx.recorder();
        recorder.with(|m| m.parks.inc());
        recorder.event(|| Event::WorkerPark {
            tenant: tenant as u64,
            epoch: epoch as u64,
        });
        None
    }

    /// Steps `tenant` epoch after epoch until its shard's frontier parks it
    /// or its window ends. After each epoch the worker asks the frontier for
    /// the next one directly: under `staleness = 0` that parks the tenant on
    /// the spot, with no trip through a deque; under a larger bound the
    /// worker keeps the hot tenant, as the LIFO deque used to arrange.
    fn run_tenant(&self, tenant: usize, outbound: &mut ReportBuffer<'_>) {
        let mut claimed = self.claim(tenant, None);
        while let Some((mut task, staleness)) = claimed {
            let epoch = task.next_epoch;
            // A panicking tenant (service model or poisoned outbox) must
            // kill only itself, never the pool: the epoch body runs under
            // `catch_unwind`, the guard reports the abort to the committer
            // (which retires the tenant and releases its slots), and this
            // worker — not the dead tenant — keeps the drain accounting
            // right.
            let mut guard = AbortOnDrop {
                tx: outbound.tx,
                tenant,
                epoch,
                armed: true,
            };
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                if !task.crashed {
                    if let Some(domain) = self.domain {
                        let (start, end) = self.windows[tenant];
                        if self.ctx.faults.crash_epoch(tenant, start, end) == Some(epoch) {
                            task.crashed = true;
                            // The doomed attempt: mid-epoch work that dies
                            // with the crash, publishes and all.
                            task.handle.step_epoch(epoch, self.ctx);
                            let _ = task.handle.drain_outbox();
                            crash_and_recover(self.ctx, domain, &mut task.handle, epoch);
                        }
                    }
                }
                task.handle.step_epoch(epoch, self.ctx);
                task.handle.observe_reuse(epoch);
                task.handle.drain_outbox()
            }));
            let Ok(ops) = stepped else {
                // Buffered reports first, then the abort notice, then retire
                // this tenant from the pool's drain accounting so idle
                // workers can still exit.
                outbound.flush();
                drop(guard);
                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.doorbell.ring();
                }
                return;
            };
            let retiring = task.handle.retires_at(epoch);
            if retiring {
                task.handle.retire();
            }
            let (hits, misses) = task.handle.repo_stats();
            let last = retiring || epoch + 1 == self.windows[tenant].1;
            let sent = outbound.push(EpochReport {
                tenant,
                epoch,
                staleness,
                ops,
                hits,
                misses,
                last,
                aborted: false,
            });
            guard.armed = false;
            if last || !sent {
                // The tenant is done (or the committer is gone — the
                // poisoned frontiers panic this worker on its next loop).
                // The final finisher rings the doorbell so idle peers notice
                // the pool is drained and exit.
                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.doorbell.ring();
                }
                return;
            }
            task.next_epoch = epoch + 1;
            claimed = self.claim(tenant, Some(task));
        }
    }
}

/// The work-stealing transport: bounded-staleness consistency on a **fixed
/// worker pool**.
///
/// [`threads`](Self::threads) workers pull per-epoch tenant tasks from a
/// shared deque (the vendored mini `crossbeam-deque`: a global injector plus
/// per-worker deques with stealers), so a 1000-tenant fleet runs on a
/// handful of threads. A tenant may advance up to
/// [`staleness`](Self::staleness) epochs beyond **its shard's** commit
/// frontier; one whose frontier is too far behind is **parked as data**
/// (never blocking a pool worker) and re-injected by the committer when its
/// shard catches up. The per-tenant-epoch path is kept free of wake-ups: a
/// worker asks the frontier for a tenant's next epoch right after stepping
/// it (under `staleness = 0` that parks the tenant where it sits) and sends
/// its finished reports in batches (see [`ReportBuffer`]).
///
/// The committer assembles each shard's epoch reports, applies them in
/// tenant order, runs that shard's TTL sweep and advances its frontier. Why
/// that keeps views within `staleness` epochs, makes `staleness = 0`
/// bit-match [`BspBarrier`](super::BspBarrier) and leaves results invariant
/// to the thread count is laid out in the [module docs](super).
#[derive(Debug, Clone, Copy)]
pub struct WorkStealing {
    /// Worker threads in the pool (clamped to `1..=tenants`).
    pub threads: usize,
    /// Maximum number of epochs a tenant's view may trail its shard's commit
    /// frontier.
    pub staleness: usize,
}

impl CommitTransport for WorkStealing {
    fn name(&self) -> String {
        format!(
            "steal(threads={},staleness={})",
            self.threads, self.staleness
        )
    }

    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome {
        let (ctx, handles) = harness.split();
        let tenant_count = handles.len();
        let mut out = TransportOutcome::new(self.name(), tenant_count);
        if ctx.epochs() == 0 || tenant_count == 0 {
            return out;
        }
        let windows: Vec<(usize, usize)> = handles
            .iter()
            .map(|h| (h.start_epoch(), h.end_epoch()))
            .collect();
        let tenant_shard: Vec<usize> = handles
            .iter()
            .map(|h| ctx.shard_of(h.namespace()))
            .collect();
        let threads = self.threads.clamp(1, tenant_count);
        let frontiers = ShardFrontiers::new(ctx.shard_count(), self.staleness);
        let domain = fault_domain(&ctx, &windows, &tenant_shard);
        let domain_ref = domain.as_ref();
        let injector = Injector::new();
        let doorbell = Doorbell::default();
        let mut active = 0usize;
        let slots: Vec<Mutex<Option<TenantTask<'_>>>> = handles
            .into_iter()
            .map(|handle| {
                let index = handle.index();
                let (start, end) = windows[index];
                // Zero-length windows never step and never report; everyone
                // else starts queued at their join epoch.
                let task = (start < end).then_some(TenantTask {
                    handle,
                    next_epoch: start,
                    crashed: false,
                });
                if task.is_some() {
                    active += 1;
                    injector.push(index);
                }
                Mutex::new(task)
            })
            .collect();
        let remaining = AtomicUsize::new(active);
        let (tx, rx) = crossbeam_channel::unbounded::<ReportBatch>();
        let locals: Vec<Worker<usize>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<usize>> = locals.iter().map(|w| w.stealer()).collect();
        std::thread::scope(|scope| {
            for (worker, local) in locals.into_iter().enumerate() {
                let tx = tx.clone();
                let pool = StealPool {
                    ctx: &ctx,
                    frontiers: &frontiers,
                    doorbell: &doorbell,
                    injector: &injector,
                    stealers: &stealers,
                    slots: &slots,
                    windows: &windows,
                    tenant_shard: &tenant_shard,
                    remaining: &remaining,
                    domain: domain_ref,
                };
                scope.spawn(move || pool.run_worker(worker, &local, &tx));
            }
            drop(tx);

            // Committer on this thread; its unwind poisons the frontiers and
            // rings the doorbell so idle workers die instead of deadlocking
            // the scope.
            let mut poison_guard = PoisonOnDrop {
                frontiers: &frontiers,
                doorbell: &doorbell,
                armed: true,
            };
            Committer::new(
                &ctx,
                &windows,
                &tenant_shard,
                &frontiers,
                &injector,
                &doorbell,
                domain_ref,
            )
            .run(&rx, &mut out);
            poison_guard.armed = false;
        });
        if let Some(domain) = domain {
            out.faults = Some(summarize_faults(domain));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doorbell_never_misses_a_ring() {
        let doorbell = Doorbell::default();
        let heard = doorbell.generation();
        doorbell.ring();
        // A ring after the snapshot makes the wait return immediately.
        doorbell.wait_beyond(heard);
        let heard = doorbell.generation();
        std::thread::scope(|scope| {
            let sleeper = scope.spawn(|| doorbell.wait_beyond(heard));
            doorbell.ring();
            sleeper.join().expect("sleeper woke");
        });
    }

    #[test]
    fn poisoned_frontiers_wake_and_kill_waiters() {
        let frontiers = ShardFrontiers::new(2, 0);
        let doorbell = Doorbell::default();
        let heard = doorbell.generation();
        std::thread::scope(|scope| {
            // A pool worker's idle path: sleep on the doorbell, then go back
            // to the frontiers for work.
            let worker = scope.spawn(|| {
                doorbell.wait_beyond(heard);
                frontiers.enter_or_park(0, 5, 3)
            });
            // The committer unwinds: its armed guard drops.
            drop(PoisonOnDrop {
                frontiers: &frontiers,
                doorbell: &doorbell,
                armed: true,
            });
            assert!(
                worker.join().is_err(),
                "a committer unwind must wake sleeping workers and kill them, not strand them"
            );
        });
        assert!(frontiers.poisoned());
    }
}
