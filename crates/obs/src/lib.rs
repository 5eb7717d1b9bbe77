//! Fleet flight recorder: a zero-overhead metrics registry + event trace.
//!
//! The fleet's instrumentation used to be ad-hoc — relaxed atomics in the
//! shared repository, exact-count histograms hand-rolled in the transport
//! summary — with no shared registry and no event trace. This crate is the
//! one implementation everything records through:
//!
//! * [`Counter`] / [`Gauge`] — relaxed [`AtomicU64`] wrappers, lock-free.
//! * [`LogHistogram`] — a log₂-bucketed latency/size histogram (64 fixed
//!   buckets of relaxed atomics) with deterministic p50/p90/p99 extraction.
//! * [`ExactHistogram`] — an exact small-domain histogram (index = value),
//!   the type of the transport summary's two histograms.
//! * [`Event`] — typed trace events (epoch begin/commit, shard batch commit,
//!   TTL sweep with reclaim count, frontier advance/lag, worker
//!   steal/park/wake, snapshot save/load) kept in a bounded ring buffer.
//! * [`Recorder`] — the handle instrumented code records through.
//! * [`ObsReport`] — a canonical-order text export of everything above.
//!
//! # The disabled path costs nothing
//!
//! [`Recorder::disabled`] is a `const fn` returning a handle with no
//! backing storage. Every probe method is `#[inline]` and begins with a
//! check of that option; with a disabled recorder the closure arguments are
//! never evaluated, no clock is read, and the probes fold to a null-pointer
//! test the optimizer deletes wherever the handle is constant. Simulation
//! results never depend on the recorder either way: recording only ever
//! *writes* obs state, so runs are bit-identical with obs on or off (pinned
//! by the differential fuzzer's obs toggle).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod report;

pub use report::ObsReport;

/// A monotonic counter: a relaxed [`AtomicU64`] with no further ceremony.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at `value` (used when restoring snapshots).
    pub const fn new(value: u64) -> Self {
        Counter(AtomicU64::new(value))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Overwrites the value (snapshot restore only — counters are otherwise
    /// monotonic).
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Relaxed);
    }
}

/// A last-writer-wins gauge with an optional running maximum.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Relaxed);
    }

    /// Raises the value to `value` if larger.
    #[inline]
    pub fn record_max(&self, value: u64) {
        self.0.fetch_max(value, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of log₂ buckets in a [`LogHistogram`] — one per bit of a `u64`.
pub const LOG_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed histogram for latencies (nanoseconds) and
/// sizes.
///
/// Bucket `i` counts values `v` with `floor(log2(v)) == i`; values `0` and
/// `1` share bucket 0. Quantiles are extracted deterministically: the
/// quantile is the *lower bound* of the bucket containing the requested
/// rank (`rank = ceil(q · count)`), so two histograms with equal bucket
/// counts always report equal quantiles.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index `record` files `value` under.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// The smallest value filed under bucket `index` (0 for bucket 0, which
/// also holds the value 1).
pub fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << index
    }
}

impl LogHistogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The lower bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (index, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_floor(index);
            }
        }
        bucket_floor(LOG_BUCKETS - 1)
    }

    /// Median bucket lower bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile bucket lower bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile bucket lower bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(bucket lower bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Relaxed);
                (count > 0).then_some((bucket_floor(index), count))
            })
            .collect()
    }
}

/// An exact histogram over a small non-negative integer domain: bucket `i`
/// counts observations of the value `i` itself.
///
/// The transport summary's two histograms use it (re-exported there as
/// `StalenessHistogram`); equality compares bucket contents exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactHistogram {
    counts: Vec<u64>,
}

impl ExactHistogram {
    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        if self.counts.len() <= value {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
    }

    /// Observation counts, indexed by value.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The largest value ever observed (0 when empty).
    pub fn max(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(value, &count)| value as u64 * count)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Per-shard frontier-lag accounting: for each shard, how far its commit
/// frontier trailed the leading shard when it advanced.
///
/// Sized lazily to the highest shard observed; a `Mutex` is fine here
/// because only the committer thread records, once per shard-epoch.
#[derive(Debug, Default)]
pub struct ShardLagTable {
    shards: Mutex<Vec<ShardLag>>,
}

/// One shard's accumulated frontier-lag statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLag {
    /// Frontier advances observed for this shard.
    pub observations: u64,
    /// Sum of observed lags (epochs).
    pub sum: u64,
    /// Largest observed lag (epochs).
    pub max: u64,
}

impl ShardLag {
    /// Mean observed lag (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.sum as f64 / self.observations as f64
        }
    }
}

impl ShardLagTable {
    /// Records that `shard`'s frontier advanced while trailing the leading
    /// shard by `lag` epochs.
    pub fn observe(&self, shard: usize, lag: u64) {
        let mut shards = self.shards.lock().unwrap();
        if shards.len() <= shard {
            shards.resize(shard + 1, ShardLag::default());
        }
        let entry = &mut shards[shard];
        entry.observations += 1;
        entry.sum += lag;
        entry.max = entry.max.max(lag);
    }

    /// A copy of the per-shard statistics, indexed by shard.
    pub fn snapshot(&self) -> Vec<ShardLag> {
        self.shards.lock().unwrap().clone()
    }
}

/// The fixed-shape metrics registry: every instrumented subsystem records
/// into a named field here, so the report's ordering is canonical by
/// construction.
#[derive(Debug, Default)]
pub struct Metrics {
    // --- shared repository ---
    /// Shared-store lookup latency (ns), recorded per `lookup` call.
    pub lookup_ns: LogHistogram,
    /// Read-only peek latency (ns), recorded per `peek` call.
    pub peek_ns: LogHistogram,
    /// Publish latency (ns), one observation per committed `Publish` op.
    pub publish_ns: LogHistogram,
    /// Ball-tree visit counts: exact distance checks per anchor resolve.
    pub tree_visits: LogHistogram,
    /// Resolve-memo hits (peek served without touching the ball tree).
    pub memo_hits: Counter,
    /// Resolve-memo misses (peek fell through to the ball tree).
    pub memo_misses: Counter,
    /// Entries reclaimed by TTL sweeps, fleet-wide.
    pub sweep_reclaimed: Counter,

    // --- commit transport ---
    /// Committer batch latency (ns), one observation per (shard, epoch)
    /// commit+sweep batch.
    pub commit_batch_ns: LogHistogram,
    /// Committer batch sizes (ops per (shard, epoch) batch).
    pub commit_batch_ops: LogHistogram,
    /// Per-shard commit-frontier lag behind the leading shard.
    pub shard_lag: ShardLagTable,
    /// Tenant parks: a tenant waiting for its shard's frontier.
    pub parks: Counter,
    /// Successful steals: a worker ran a task taken from the injector or
    /// another worker's deque rather than its own.
    pub steals: Counter,
    /// Doorbell wakes: an idle worker woken by committer progress.
    pub wakes: Counter,
    /// Channel messages that carried epoch reports to the committer. Epoch
    /// reports ÷ this is the batching the work-stealing pool achieved.
    pub report_batches: Counter,
    /// Bytes served from capacity-retaining scratch (arena slabs, commit
    /// batch buffers) instead of fresh heap allocations.
    pub scratch_bytes_saved: Counter,
    /// Wall time (ns) barrier workers spent inside their block loops, summed
    /// over workers and epochs.
    pub barrier_busy_ns: Counter,
    /// Wall time (ns) of the barrier's step phase — spawning the workers to
    /// joining the last one — summed over epochs. Times `barrier_workers`
    /// it is the worker time the phase offered; what `barrier_busy_ns`
    /// leaves of that was spent idle, waiting for the slowest worker.
    pub barrier_wall_ns: Counter,
    /// Worker threads the barrier stepped tenants on.
    pub barrier_workers: Gauge,

    // --- fleet engine ---
    /// Per-epoch wall time (ns): barrier-to-barrier under BSP, fold-to-fold
    /// at the committer for the async transport.
    pub epoch_ns: LogHistogram,
    /// Wall time of the final parallel tenant finalization (ns).
    pub finalize_ns: Gauge,

    // --- fault injection & recovery ---
    /// Faults injected by the fault plan, all kinds combined.
    pub faults_injected: Counter,
    /// Recoveries completed: tenant restarts, committer restarts and shard
    /// re-seeds that brought the fleet back to a converging state.
    pub recoveries: Counter,
    /// Epochs deterministically replayed while restarting crashed tenants.
    pub replayed_epochs: Counter,
    /// Epoch reports re-delivered after a drop fault or committer restart.
    pub retransmits: Counter,
    /// Committer kill/restart cycles.
    pub committer_restarts: Counter,
    /// Incremental delta checkpoints captured at commit boundaries.
    pub checkpoints: Counter,

    // --- durable checkpoints ---
    /// Delta segments spilled to the durable on-disk checkpoint store.
    pub durable_segments: Counter,
    /// On-disk compaction folds written by the durable checkpoint store.
    pub durable_folds: Counter,
    /// Payload bytes (segments + folds, manifest excluded) the durable
    /// checkpoint store put on disk.
    pub durable_bytes: Counter,
}

const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Typed trace events kept in the recorder's bounded ring buffer.
///
/// Events carry only simulation-determined payloads (epochs, shards, op and
/// reclaim counts) — never wall-clock readings — so under the deterministic
/// BSP transport the event stream for a fixed seed is bit-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A fleet epoch began stepping.
    EpochBegin {
        /// Epoch index.
        epoch: u64,
    },
    /// A fleet epoch fully committed (all shards folded).
    EpochCommit {
        /// Epoch index.
        epoch: u64,
    },
    /// One (shard, epoch) batch committed.
    ShardCommit {
        /// Shard index.
        shard: u64,
        /// Epoch index.
        epoch: u64,
        /// Buffered operations applied.
        ops: u64,
    },
    /// A TTL sweep ran over one shard.
    TtlSweep {
        /// Shard index.
        shard: u64,
        /// Epoch the sweep ran at.
        epoch: u64,
        /// Entries reclaimed.
        reclaimed: u64,
    },
    /// A shard's commit frontier advanced.
    FrontierAdvance {
        /// Shard index.
        shard: u64,
        /// Epoch the frontier now covers.
        epoch: u64,
        /// Epochs this shard trailed the leading shard at advance time.
        lag: u64,
    },
    /// A work-stealing worker ran a stolen task.
    WorkerSteal {
        /// Worker index.
        worker: u64,
    },
    /// A tenant parked, waiting for its shard's frontier.
    WorkerPark {
        /// Tenant index.
        tenant: u64,
        /// Epoch the tenant wanted to enter.
        epoch: u64,
    },
    /// An idle worker was woken by the doorbell.
    WorkerWake {
        /// Worker index.
        worker: u64,
    },
    /// A repository snapshot was serialized.
    SnapshotSave {
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// A repository snapshot was loaded.
    SnapshotLoad {
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// A tenant crashed mid-epoch (injected or organic panic).
    TenantCrash {
        /// Tenant index.
        tenant: u64,
        /// The epoch the tenant was computing when it crashed.
        epoch: u64,
    },
    /// A crashed tenant was restarted from its checkpoint and replayed back
    /// to the crash epoch.
    TenantRecover {
        /// Tenant index.
        tenant: u64,
        /// The epoch the tenant resumed at.
        epoch: u64,
        /// Epochs deterministically replayed from the checkpoint.
        replayed: u64,
    },
    /// The committer was killed and restarted; retained un-acked reports
    /// were re-delivered to rebuild its volatile assembly state.
    CommitterRestart {
        /// The epoch frontier low-water mark at restart time.
        epoch: u64,
    },
    /// An epoch report was re-delivered (after a drop fault or a committer
    /// restart).
    ReportRetransmit {
        /// Tenant index.
        tenant: u64,
        /// Epoch the report covers.
        epoch: u64,
    },
    /// An incremental delta checkpoint was captured at a commit boundary.
    CheckpointSave {
        /// Shard index.
        shard: u64,
        /// Epoch the delta covers.
        epoch: u64,
        /// Namespaces the delta carries (changed since the last capture).
        namespaces: u64,
    },
}

impl Event {
    /// Canonical kind label, used for event counts in the report.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EpochBegin { .. } => "epoch_begin",
            Event::EpochCommit { .. } => "epoch_commit",
            Event::ShardCommit { .. } => "shard_commit",
            Event::TtlSweep { .. } => "ttl_sweep",
            Event::FrontierAdvance { .. } => "frontier_advance",
            Event::WorkerSteal { .. } => "worker_steal",
            Event::WorkerPark { .. } => "worker_park",
            Event::WorkerWake { .. } => "worker_wake",
            Event::SnapshotSave { .. } => "snapshot_save",
            Event::SnapshotLoad { .. } => "snapshot_load",
            Event::TenantCrash { .. } => "tenant_crash",
            Event::TenantRecover { .. } => "tenant_recover",
            Event::CommitterRestart { .. } => "committer_restart",
            Event::ReportRetransmit { .. } => "report_retransmit",
            Event::CheckpointSave { .. } => "checkpoint_save",
        }
    }

    /// Canonical one-line rendering.
    pub fn render(&self) -> String {
        match self {
            Event::EpochBegin { epoch } => format!("epoch_begin epoch={epoch}"),
            Event::EpochCommit { epoch } => format!("epoch_commit epoch={epoch}"),
            Event::ShardCommit { shard, epoch, ops } => {
                format!("shard_commit shard={shard} epoch={epoch} ops={ops}")
            }
            Event::TtlSweep {
                shard,
                epoch,
                reclaimed,
            } => format!("ttl_sweep shard={shard} epoch={epoch} reclaimed={reclaimed}"),
            Event::FrontierAdvance { shard, epoch, lag } => {
                format!("frontier_advance shard={shard} epoch={epoch} lag={lag}")
            }
            Event::WorkerSteal { worker } => format!("worker_steal worker={worker}"),
            Event::WorkerPark { tenant, epoch } => {
                format!("worker_park tenant={tenant} epoch={epoch}")
            }
            Event::WorkerWake { worker } => format!("worker_wake worker={worker}"),
            Event::SnapshotSave { bytes } => format!("snapshot_save bytes={bytes}"),
            Event::SnapshotLoad { bytes } => format!("snapshot_load bytes={bytes}"),
            Event::TenantCrash { tenant, epoch } => {
                format!("tenant_crash tenant={tenant} epoch={epoch}")
            }
            Event::TenantRecover {
                tenant,
                epoch,
                replayed,
            } => format!("tenant_recover tenant={tenant} epoch={epoch} replayed={replayed}"),
            Event::CommitterRestart { epoch } => format!("committer_restart epoch={epoch}"),
            Event::ReportRetransmit { tenant, epoch } => {
                format!("report_retransmit tenant={tenant} epoch={epoch}")
            }
            Event::CheckpointSave {
                shard,
                epoch,
                namespaces,
            } => format!("checkpoint_save shard={shard} epoch={epoch} namespaces={namespaces}"),
        }
    }
}

#[derive(Debug)]
struct EventRing {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

#[derive(Debug)]
struct RecorderCore {
    metrics: Metrics,
    events: Mutex<EventRing>,
}

/// The handle instrumented code records through.
///
/// Cloning is cheap (an `Arc` bump); all clones share one registry and one
/// event ring. See the crate docs for why the disabled path costs nothing.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    core: Option<Arc<RecorderCore>>,
}

fn nanos_since(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl Recorder {
    /// The no-op handle: no storage, every probe folds away.
    pub const fn disabled() -> Self {
        Recorder { core: None }
    }

    /// A live recorder with the default event-ring capacity (4096).
    pub fn enabled() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A live recorder keeping at most `capacity` trace events (oldest
    /// evicted first; evictions are counted, not silent).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Recorder {
            core: Some(Arc::new(RecorderCore {
                metrics: Metrics::default(),
                events: Mutex::new(EventRing {
                    events: VecDeque::with_capacity(capacity.min(DEFAULT_EVENT_CAPACITY)),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether probes record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The metrics registry, if enabled.
    #[inline]
    pub fn metrics(&self) -> Option<&Metrics> {
        self.core.as_deref().map(|core| &core.metrics)
    }

    /// Runs `f` against the registry when enabled; no-op otherwise.
    #[inline]
    pub fn with(&self, f: impl FnOnce(&Metrics)) {
        if let Some(core) = self.core.as_deref() {
            f(&core.metrics);
        }
    }

    /// Reads the clock only when enabled; pair with [`Recorder::observe`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.core.as_deref().map(|_| Instant::now())
    }

    /// Records the nanoseconds since `started` into the histogram `pick`
    /// selects. No-op when disabled (and `started` from a disabled
    /// [`Recorder::start`] is `None`, so nothing mixes).
    #[inline]
    pub fn observe(&self, started: Option<Instant>, pick: impl FnOnce(&Metrics) -> &LogHistogram) {
        if let (Some(core), Some(started)) = (self.core.as_deref(), started) {
            pick(&core.metrics).record(nanos_since(started));
        }
    }

    /// Adds the nanoseconds since `started` to the counter `pick` selects —
    /// [`Recorder::observe`] for time that is summed, not distributed.
    #[inline]
    pub fn add_elapsed(&self, started: Option<Instant>, pick: impl FnOnce(&Metrics) -> &Counter) {
        if let (Some(core), Some(started)) = (self.core.as_deref(), started) {
            pick(&core.metrics).add(nanos_since(started));
        }
    }

    /// Appends a trace event when enabled; the closure is never evaluated
    /// otherwise.
    #[inline]
    pub fn event(&self, make: impl FnOnce() -> Event) {
        if let Some(core) = self.core.as_deref() {
            let mut ring = core.events.lock().unwrap();
            if ring.events.len() == ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            let event = make();
            ring.events.push_back(event);
        }
    }

    /// A copy of the retained trace, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        match self.core.as_deref() {
            Some(core) => core.events.lock().unwrap().events.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped_events(&self) -> u64 {
        self.core
            .as_deref()
            .map_or(0, |core| core.events.lock().unwrap().dropped)
    }

    /// Builds the canonical report (`None` when disabled).
    pub fn report(&self) -> Option<ObsReport> {
        self.metrics()
            .map(|metrics| ObsReport::build(metrics, self.events(), self.dropped_events()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 2);
        assert_eq!(bucket_floor(2), 4);
        assert_eq!(bucket_floor(10), 1024);
        assert_eq!(bucket_floor(63), 1u64 << 63);
        // Every value lands in the bucket whose floor does not exceed it.
        for value in [0u64, 1, 2, 3, 15, 16, 17, 255, 256, 1 << 40] {
            let b = bucket_of(value);
            assert!(bucket_floor(b) <= value.max(1));
            if b + 1 < LOG_BUCKETS {
                assert!(value < bucket_floor(b + 1));
            }
        }
    }

    #[test]
    fn log_histogram_quantiles_match_reference_values() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 50.5);
        // rank 50 falls in bucket [32, 64) (cumulative 63), rank 90 and 99
        // in bucket [64, 128) (cumulative 100).
        assert_eq!(h.p50(), 32);
        assert_eq!(h.p90(), 64);
        assert_eq!(h.p99(), 64);
        assert_eq!(h.quantile(0.0), 0); // rank clamps to 1 → bucket of value 1
        assert_eq!(h.quantile(1.0), 64);
    }

    #[test]
    fn log_histogram_single_value_quantiles() {
        let h = LogHistogram::default();
        h.record(1000);
        assert_eq!(h.p50(), 512);
        assert_eq!(h.p99(), 512);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.nonzero_buckets(), vec![(512, 1)]);
    }

    #[test]
    fn exact_histogram_matches_reference() {
        let mut h = ExactHistogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(2);
        h.record(0);
        h.record(2);
        assert_eq!(h.counts(), &[1, 0, 2]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.max(), 2);
        assert!((h.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let rec = Recorder::with_event_capacity(2);
        rec.event(|| Event::EpochBegin { epoch: 0 });
        rec.event(|| Event::EpochBegin { epoch: 1 });
        rec.event(|| Event::EpochBegin { epoch: 2 });
        assert_eq!(
            rec.events(),
            vec![
                Event::EpochBegin { epoch: 1 },
                Event::EpochBegin { epoch: 2 }
            ]
        );
        assert_eq!(rec.dropped_events(), 1);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        assert!(rec.start().is_none());
        rec.observe(None, |m| &m.lookup_ns);
        rec.add_elapsed(None, |m| &m.barrier_busy_ns);
        rec.event(|| unreachable!("event closure must not run when disabled"));
        rec.with(|_| unreachable!("with closure must not run when disabled"));
        assert!(rec.metrics().is_none());
        assert!(rec.report().is_none());
        assert!(rec.events().is_empty());
    }

    #[test]
    fn shard_lag_table_accumulates_per_shard() {
        let table = ShardLagTable::default();
        table.observe(1, 3);
        table.observe(1, 1);
        table.observe(0, 0);
        let snap = table.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].observations, 1);
        assert_eq!(snap[1].observations, 2);
        assert_eq!(snap[1].max, 3);
        assert_eq!(snap[1].mean(), 2.0);
    }

    #[test]
    fn recorder_clones_share_storage() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.with(|m| m.parks.add(3));
        assert_eq!(rec.metrics().unwrap().parks.get(), 3);
    }
}
