//! Timing proxies over the program's public traits. Each forwards every call
//! unchanged and records a span (or a latency sample) around it, so a run
//! through a proxy produces the same simulated results as a run without.

use crate::trace;
use dejavu::cloud::{ControllerDecision, Observation, ProvisioningController, ResourceAllocation};
use dejavu::core::repository::{
    AllocationStore, RepositoryEntry, RepositoryKey, RepositoryStats, StoreContext,
};
use dejavu::core::DejaVuController;
use dejavu::fleet::{
    CommitTransport, FleetHarness, PendingOp, RepositoryClient, ResolveMemo, ShardStats,
    SharedEntry, TenantId, TenantRepoView, TransportOutcome, TransportSummary,
};
use dejavu::services::service::EvalContext;
use dejavu::services::{PerfSample, ServiceModel, Slo};
use dejavu::simcore::SimTime;
use dejavu::traces::{RequestMix, ServiceKind, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A [`RepositoryClient`] that records a span around every peek, commit and
/// sweep of the repository it forwards to, and counts what they did.
#[derive(Debug)]
pub struct TimedClient {
    inner: Arc<dyn RepositoryClient>,
    pub peek_hits: AtomicU64,
    pub applied_ops: AtomicU64,
    pub evicted: AtomicU64,
}

impl TimedClient {
    pub fn new(inner: Arc<dyn RepositoryClient>) -> Self {
        TimedClient {
            inner,
            peek_hits: AtomicU64::new(0),
            applied_ops: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }
}

impl RepositoryClient for TimedClient {
    fn peek_resolved_cached(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
        memo: &mut ResolveMemo,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        let _span = trace::span("shared_repo.peek");
        let result = self.inner.peek_resolved_cached(
            namespace,
            signature,
            interference_bucket,
            now,
            exclude_owner,
            memo,
        );
        if result.is_some() {
            self.peek_hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn apply_batch(&self, ops: &[PendingOp]) -> Vec<bool> {
        let _span = trace::span("shared_repo.apply_batch");
        self.applied_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        self.inner.apply_batch(ops)
    }

    fn evict_stale(&self, now: SimTime) -> u64 {
        let _span = trace::span("shared_repo.evict_stale");
        let evicted = self.inner.evict_stale(now);
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    fn evict_stale_shard(&self, shard: usize, now: SimTime) -> u64 {
        let _span = trace::span("shared_repo.evict_stale");
        let evicted = self.inner.evict_stale_shard(shard, now);
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_index(&self, namespace: u64) -> usize {
        self.inner.shard_index(namespace)
    }

    fn clock(&self) -> SimTime {
        self.inner.clock()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn anchor_count(&self) -> usize {
        self.inner.anchor_count()
    }

    fn stats(&self) -> ShardStats {
        self.inner.stats()
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner.shard_stats()
    }
}

/// The lock-step barrier transport, re-expressed over the public
/// [`FleetHarness`] surface with a span around every phase: workers stepping
/// tenants, outbox drain, commit, TTL sweep, convergence bookkeeping. Same
/// tenant-order commits and one sweep per epoch as the program's own
/// barrier, so its report matches that one bit for bit.
#[derive(Debug, Default)]
pub struct TracedBarrier {
    /// `(entry, exit)` of the last [`drive`](CommitTransport::drive) in
    /// tracer nanoseconds: what splits the engine's prepare and finalize
    /// stretches off a whole-run measurement.
    pub drive_window: Mutex<Option<(u64, u64)>>,
}

impl CommitTransport for TracedBarrier {
    fn name(&self) -> String {
        "bsp".to_string()
    }

    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome {
        let entered = trace::now_ns();
        let drive_span = trace::span("trace.drive");
        let (ctx, mut handles) = harness.split();
        let mut out = TransportOutcome {
            summary: TransportSummary::bsp(),
            hit_rate_curve: Vec::new(),
            cross_tenant_hits: vec![0; handles.len()],
            failed: vec![None; handles.len()],
            faults: None,
        };
        let tenants = handles.len();
        let chunk_size = tenants.div_ceil(ctx.workers().max(1)).max(1);
        let mut ops: Vec<PendingOp> = Vec::new();
        let mut op_tenants: Vec<usize> = Vec::new();
        for epoch in 0..ctx.epochs() {
            let _epoch_span = trace::span("trace.epoch");
            let failed_now: Vec<usize> = {
                // The barrier thread only waits here: the workers' spans are
                // this span's children, so none of it counts as busy time.
                let wait = trace::span("transport.step_wait");
                let wait_id = wait.id();
                std::thread::scope(|scope| {
                    let joins: Vec<_> = handles
                        .chunks_mut(chunk_size)
                        .map(|chunk| {
                            scope.spawn(move || {
                                trace::adopt(wait_id);
                                let _worker = trace::span("trace.worker");
                                let mut failed = Vec::new();
                                for handle in chunk {
                                    // One request id per tenant-epoch.
                                    trace::set_req((epoch * tenants + handle.index()) as u32 + 1);
                                    let _step = trace::span("tenant.step_epoch");
                                    if catch_unwind(AssertUnwindSafe(|| {
                                        handle.step_epoch(epoch, &ctx)
                                    }))
                                    .is_err()
                                    {
                                        failed.push(handle.index());
                                    }
                                }
                                failed
                            })
                        })
                        .collect();
                    joins
                        .into_iter()
                        .flat_map(|join| join.join().expect("barrier worker panicked"))
                        .collect()
                })
            };
            for tenant in failed_now {
                out.failed[tenant] = Some(epoch);
                handles[tenant].retire();
                handles[tenant].discard_outbox();
            }
            {
                let _drain = trace::span("transport.drain");
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
            }
            if !ops.is_empty() {
                let _commit = trace::span("transport.commit");
                let applied = ctx.commit(&ops);
                for ((op, &tenant), applied) in ops.iter().zip(&op_tenants).zip(applied) {
                    if applied && matches!(op, PendingOp::RecordHit { .. }) {
                        out.cross_tenant_hits[tenant] += 1;
                        out.summary.reuse_staleness.record(0);
                    }
                }
            }
            {
                let _sweep = trace::span("transport.sweep");
                ctx.sweep(epoch);
            }
            let _bookkeeping = trace::span("transport.bookkeeping");
            let (mut hits, mut misses) = (0u64, 0u64);
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
            out.hit_rate_curve.push(if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            });
        }
        drop(drive_span);
        *self.drive_window.lock().expect("drive window poisoned") =
            Some((entered, trace::now_ns()));
        out
    }
}

/// A [`ServiceModel`] that records a span per `evaluate`.
pub struct TimedService(pub Box<dyn ServiceModel>);

impl ServiceModel for TimedService {
    fn kind(&self) -> ServiceKind {
        self.0.kind()
    }

    fn default_mix(&self) -> RequestMix {
        self.0.default_mix()
    }

    fn slo(&self) -> Slo {
        self.0.slo()
    }

    fn evaluate(&self, intensity: f64, ctx: &EvalContext) -> PerfSample {
        let _span = trace::span("services.evaluate");
        self.0.evaluate(intensity, ctx)
    }

    fn required_capacity(&self, intensity: f64) -> f64 {
        self.0.required_capacity(intensity)
    }
}

/// A [`ProvisioningController`] that records a span per `decide` and keeps
/// the workload it saw at the top of each hour of the learning day — the
/// inputs the standalone profiler/clustering/classifier/tuner loops replay.
pub struct TimedController {
    pub inner: DejaVuController,
    pub hourly_workloads: Vec<Workload>,
}

impl TimedController {
    pub fn new(inner: DejaVuController) -> Self {
        TimedController {
            inner,
            hourly_workloads: Vec::new(),
        }
    }
}

impl ProvisioningController for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> ControllerDecision {
        if observation.time.hour_index() as usize == self.hourly_workloads.len()
            && self.hourly_workloads.len() < 24
        {
            self.hourly_workloads.push(observation.workload);
        }
        let _span = trace::span("controller.decide");
        self.inner.decide(observation)
    }
}

/// An [`AllocationStore`] that records a span per `get` and `put` of the
/// tenant view it wraps.
pub struct TimedStore(pub TenantRepoView);

impl AllocationStore for TimedStore {
    fn put(&mut self, ctx: StoreContext<'_>, allocation: ResourceAllocation, tuned_at: SimTime) {
        let _span = trace::span("tenant_view.put");
        self.0.put(ctx, allocation, tuned_at);
    }

    fn get(&mut self, ctx: StoreContext<'_>) -> Option<RepositoryEntry> {
        let _span = trace::span("tenant_view.get");
        self.0.get(ctx)
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn stats(&self) -> RepositoryStats {
        self.0.stats()
    }

    fn entries(&self) -> Vec<(RepositoryKey, RepositoryEntry)> {
        self.0.entries()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.0.as_any_mut()
    }
}
