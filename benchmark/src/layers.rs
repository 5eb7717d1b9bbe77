//! Standalone call loops: layers priced by calling their public functions
//! directly on inputs harvested from a traced drive.

use crate::gen::{Op, SplitMix64};
use crate::trace;
use dejavu::core::{
    ClassifierKind, DejaVuConfig, LinearSearchTuner, OnlineClassifier, SignatureBuilder, Tuner,
    WorkloadClusterer,
};
use dejavu::fleet::{
    snapshot, write_atomic, DeltaCursor, DurableCheckpointStore, PendingOp, RepoSnapshot, Scenario,
    ShardStats, SharedEntry, SharedSignatureRepository,
};
use dejavu::metrics::{SamplerConfig, WorkloadSignature};
use dejavu::proxy::{Profiler, ProfilerConfig};
use dejavu::serve::{Request, Response};
use dejavu::simcore::{SimRng, SimTime};
use dejavu::traces::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

type Metrics = BTreeMap<&'static str, f64>;

/// Mean nanoseconds per call of `f` over `items`, `rounds` times over.
fn ns_per_call<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for _ in 0..rounds {
        for item in items {
            f(item);
        }
    }
    started.elapsed().as_nanos() as f64 / (items.len() * rounds).max(1) as f64
}

/// What recording one child span costs its parent outside the child's own
/// interval: the parent's self time per empty child, measured on the spot.
pub fn span_cost_ns() -> f64 {
    const CHILDREN: usize = 200_000;
    trace::set_enabled(true);
    {
        let _parent = trace::span("trace.calibration");
        for _ in 0..CHILDREN {
            drop(trace::span("trace.calibration_child"));
        }
    }
    trace::set_enabled(false);
    let analysis = trace::analyze(&trace::drain(), 0.0);
    analysis.get("trace.calibration").self_ns as f64 / CHILDREN as f64
}

/// Tenants the controller-pipeline loops replay.
const PIPELINE_TENANTS: usize = 8;

/// The controller's learning pipeline, stage by stage, on the hourly
/// learning-day workloads `(tenant index, workloads)` the replica drive's
/// controllers saw: profile, cluster, train, classify, tune. Multiplied by
/// the replica's call counts these are each stage's share of `controller`.
pub fn controller_pipeline(
    harvested: &[(usize, Vec<Workload>)],
    scenario: &Scenario,
    seed: u64,
) -> Metrics {
    let config = DejaVuConfig::default();
    let profiler = Profiler::new(ProfilerConfig {
        sampler: SamplerConfig {
            window: config.signature_window,
            ..Default::default()
        },
        ..Default::default()
    });
    let tuner = LinearSearchTuner::default();
    let (mut profile, mut cluster, mut train, mut classify, mut tune) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (index, workloads) in harvested
        .iter()
        .filter(|(_, w)| w.len() >= 8)
        .take(PIPELINE_TENANTS)
    {
        let spec = &scenario.tenants[*index];
        let mut rng = SimRng::seed_from_u64(seed ^ spec.seed);
        let mut signatures: Vec<WorkloadSignature> = Vec::new();
        profile.push(ns_per_call(workloads, 1, |w| {
            signatures.push(profiler.profile(w, &mut rng).signature)
        }));
        let clusterer = WorkloadClusterer::new(config.cluster_range, config.seed);
        let started = Instant::now();
        let Ok(coarse) = clusterer.cluster(&signatures) else {
            continue;
        };
        let coarse_ns = started.elapsed().as_nanos() as f64;
        let Ok(builder) = SignatureBuilder::select(
            &signatures,
            &coarse.assignments,
            config.max_signature_metrics,
        ) else {
            continue;
        };
        let projected: Vec<WorkloadSignature> =
            signatures.iter().map(|s| builder.project(s)).collect();
        let started = Instant::now();
        let Ok(clustering) = clusterer.cluster(&projected) else {
            continue;
        };
        cluster.push((coarse_ns + started.elapsed().as_nanos() as f64) / 2.0);
        let started = Instant::now();
        let Ok(classifier) = OnlineClassifier::train(
            ClassifierKind::DecisionTree,
            &projected,
            &clustering,
            config.novelty_margin,
            config.certainty_threshold,
        ) else {
            continue;
        };
        train.push(started.elapsed().as_nanos() as f64);
        classify.push(ns_per_call(&projected, 50, |s| {
            black_box(classifier.classify(s));
        }));
        let service = spec.service.build();
        let space = spec.space.space();
        tune.push(ns_per_call(workloads, 20, |w| {
            black_box(tuner.tune(w, service.as_ref(), &space, 1.0));
        }));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    BTreeMap::from([
        ("profiler.profile_ns_per_call", mean(&profile)),
        ("clustering.cluster_ns_per_call", mean(&cluster)),
        ("classify.train_ns_per_call", mean(&train)),
        ("classify.classify_ns_per_call", mean(&classify)),
        ("tuner.tune_ns_per_call", mean(&tune)),
    ])
}

/// The distance kernel at the two widths the system uses: 8 selected
/// signature metrics (clustering, classification) and the 30-metric full
/// catalogue (anchor resolution).
pub fn kernels() -> Metrics {
    let mut rng = SplitMix64::new(0xD157);
    let mut per_dim = |dims: usize| {
        let vectors: Vec<Vec<f64>> = (0..257)
            .map(|_| (0..dims).map(|_| rng.unit() * 100.0).collect())
            .collect();
        let pairs: Vec<(&[f64], &[f64])> = vectors
            .windows(2)
            .map(|w| (w[0].as_slice(), w[1].as_slice()))
            .collect();
        ns_per_call(&pairs, 4000, |(a, b)| {
            black_box(dejavu::ml::kernels::squared_distance(
                black_box(a),
                black_box(b),
            ));
        }) / dims as f64
    };
    BTreeMap::from([
        ("kernels.sqdist_ns_per_dim_d8", per_dim(8)),
        ("kernels.sqdist_ns_per_dim_d30", per_dim(30)),
    ])
}

/// The wire form of one request of a stream.
pub fn request_of(op: &Op) -> Request {
    match op.clone() {
        Op::Lookup {
            tenant,
            namespace,
            signature,
            bucket,
            now,
        } => Request::Lookup {
            tenant,
            namespace,
            signature,
            interference_bucket: bucket,
            now,
        },
        Op::Publish {
            tenant,
            namespace,
            signature,
            bucket,
            allocation,
            tuned_at,
        } => Request::Publish {
            tenant,
            namespace,
            signature,
            interference_bucket: bucket,
            allocation,
            tuned_at,
        },
        Op::Batch { ops } => Request::CommitBatch { ops },
        Op::EvictShard { shard, now } => Request::EvictStaleShard {
            shard: shard as u64,
            now,
        },
    }
}

/// What the repository answers to one request of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Entry(Option<SharedEntry>),
    Done,
    Applied(Vec<bool>),
    Evicted(u64),
}

impl Reply {
    fn response(&self) -> Response {
        match self.clone() {
            Reply::Entry(entry) => Response::Entry(entry),
            Reply::Done => Response::Ok,
            Reply::Applied(flags) => Response::Applied(flags),
            Reply::Evicted(n) => Response::Evicted(n),
        }
    }
}

/// Applies `op` to an in-process repository exactly as the daemon's handler
/// would: the oracle's step and the in-process replay's.
pub fn apply_in_process(repo: &SharedSignatureRepository, op: &Op) -> Reply {
    match op {
        Op::Lookup {
            tenant,
            namespace,
            signature,
            bucket,
            now,
        } => Reply::Entry(repo.lookup(*tenant, *namespace, signature, *bucket, *now)),
        Op::Publish {
            tenant,
            namespace,
            signature,
            bucket,
            allocation,
            tuned_at,
        } => {
            repo.insert(
                *tenant,
                *namespace,
                signature,
                *bucket,
                *allocation,
                *tuned_at,
            );
            Reply::Done
        }
        Op::Batch { ops } => Reply::Applied(repo.apply_batch(ops)),
        Op::EvictShard { shard, now } => Reply::Evicted(repo.evict_stale_shard(*shard, *now)),
    }
}

/// Codec cost and frame sizes per request of `ops`, the replies being what
/// an in-process twin at `snapshot` answers.
pub fn protocol(ops: &[Op], snapshot: &RepoSnapshot) -> Metrics {
    let twin = SharedSignatureRepository::from_snapshot(snapshot).expect("seed snapshot loads");
    let requests: Vec<Request> = ops.iter().map(request_of).collect();
    let responses: Vec<Response> = ops
        .iter()
        .map(|op| apply_in_process(&twin, op).response())
        .collect();
    let request_frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let response_frames: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
    let bytes = |frames: &[Vec<u8>]| {
        frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len().max(1) as f64
    };
    let rounds = (20_000 / ops.len().max(1)).max(1);
    BTreeMap::from([
        (
            "protocol.req_encode_ns",
            ns_per_call(&requests, rounds, |r| {
                black_box(r.encode());
            }),
        ),
        (
            "protocol.req_decode_ns",
            ns_per_call(&request_frames, rounds, |f| {
                black_box(Request::decode(f).expect("own frame decodes"));
            }),
        ),
        (
            "protocol.resp_encode_ns",
            ns_per_call(&responses, rounds, |r| {
                black_box(r.encode());
            }),
        ),
        (
            "protocol.resp_decode_ns",
            ns_per_call(&response_frames, rounds, |f| {
                black_box(Response::decode(f).expect("own frame decodes"));
            }),
        ),
        ("protocol.req_bytes_per_op", bytes(&request_frames)),
        ("protocol.resp_bytes_per_op", bytes(&response_frames)),
    ])
}

/// What [`replay`] measured.
pub struct Replay {
    pub metrics: Metrics,
    /// Mean in-process nanoseconds per request, all kinds.
    pub repo_ns_per_req: f64,
    /// Mean capture + record nanoseconds per request (0 without a directory).
    pub persist_ns_per_req: f64,
    pub final_snapshot: String,
    pub replies: Vec<Reply>,
}

/// The daemon's persistence layer rebuilt from its public parts, every step
/// timed on its own: capture → encode → durable record of each shard a
/// mutation touched, with the daemon's skip rule. `serve::serve_metrics`
/// holds the directory this writes against the real daemon's.
struct Persist {
    durable: DurableCheckpointStore,
    cursors: Vec<DeltaCursor>,
    last_stats: Vec<ShardStats>,
    clock_hw: f64,
    mutations: u64,
    capture_ns: u128,
    encode_ns: u128,
    record_ns: u128,
    delta_bytes: u64,
    stored_bytes: u64,
    user_bytes: u64,
}

impl Persist {
    fn capture(&mut self, repo: &SharedSignatureRepository, mut shards: Vec<usize>) {
        self.mutations += 1;
        shards.sort_unstable();
        shards.dedup();
        for shard in shards {
            let epoch = self.durable.store().chain_end(shard);
            let started = Instant::now();
            let delta = {
                let _span = trace::span("snapshot.capture");
                repo.capture_shard_delta(shard, epoch, &mut self.cursors[shard])
            };
            self.capture_ns += started.elapsed().as_nanos();
            // The daemon's skip rule: a capture that changed nothing is not
            // recorded and consumes no epoch.
            let unchanged = delta.namespaces.is_empty()
                && delta.shard_stats == self.last_stats[shard]
                && delta.clock_secs <= self.clock_hw;
            if unchanged {
                continue;
            }
            self.last_stats[shard] = delta.shard_stats;
            self.clock_hw = self.clock_hw.max(delta.clock_secs);
            let started = Instant::now();
            let text = {
                let _span = trace::span("snapshot.encode_delta");
                snapshot::encode_delta(&delta)
            };
            self.encode_ns += started.elapsed().as_nanos();
            self.delta_bytes += text.len() as u64;
            let started = Instant::now();
            let receipt = {
                let _span = trace::span("durable.record");
                self.durable
                    .record(delta)
                    .expect("scratch checkpoint write")
            };
            self.record_ns += started.elapsed().as_nanos();
            self.stored_bytes += receipt.bytes();
        }
    }
}

/// Replays `ops` on an in-process repository at `snapshot`, timing the
/// repository call of each request; with a `dir`, every mutation is followed
/// by what the daemon's persistence layer does before it acknowledges (see
/// [`Persist`]). A `final_sweep` is the all-shard sweep a persistent
/// repetition ends with, captured like any other mutation.
pub fn replay(
    ops: &[Op],
    snapshot: &RepoSnapshot,
    dir: Option<&Path>,
    checkpoint_every: usize,
    final_sweep: Option<SimTime>,
) -> Replay {
    let repo = SharedSignatureRepository::from_snapshot(snapshot).expect("seed snapshot loads");
    let mut persist = dir.map(|dir| {
        let durable = DurableCheckpointStore::create(dir, repo.to_snapshot(), checkpoint_every)
            .expect("scratch checkpoint directory initializes");
        let mut cursors = vec![DeltaCursor::default(); repo.shard_count()];
        for (shard, cursor) in cursors.iter_mut().enumerate() {
            repo.prime_delta_cursor(shard, cursor);
        }
        Persist {
            durable,
            cursors,
            last_stats: repo.shard_stats(),
            clock_hw: repo.clock().as_secs(),
            mutations: 0,
            capture_ns: 0,
            encode_ns: 0,
            record_ns: 0,
            delta_bytes: 0,
            stored_bytes: 0,
            user_bytes: 0,
        }
    });
    let (mut lookup_ns, mut lookups, mut insert_ns, mut inserts) = (0u128, 0u64, 0u128, 0u64);
    let mut repo_ns = 0u128;
    let mut replies = Vec::with_capacity(ops.len());
    let root = trace::span("trace.replay");
    for (i, op) in ops.iter().enumerate() {
        trace::set_req(i as u32 + 1);
        let started = Instant::now();
        let reply = {
            let _span = trace::span(match op {
                Op::Lookup { .. } => "shared_repo.lookup",
                Op::Publish { .. } => "shared_repo.insert",
                Op::Batch { .. } => "shared_repo.apply_batch",
                Op::EvictShard { .. } => "shared_repo.evict_stale",
            });
            apply_in_process(&repo, op)
        };
        let spent = started.elapsed().as_nanos();
        repo_ns += spent;
        match op {
            Op::Lookup { .. } => {
                lookup_ns += spent;
                lookups += 1;
            }
            Op::Publish { .. } => {
                insert_ns += spent;
                inserts += 1;
            }
            _ => {}
        }
        replies.push(reply);
        let Some(persist) = persist.as_mut() else {
            continue;
        };
        let shards = match op {
            // As the daemon does: a lookup moves hit counters, so its
            // namespace is re-imaged by the shard's next capture.
            Op::Lookup { namespace, .. } => {
                persist.cursors[repo.shard_index(*namespace)].invalidate(*namespace);
                continue;
            }
            Op::Publish { namespace, .. } => vec![repo.shard_index(*namespace)],
            Op::Batch { ops } => ops
                .iter()
                .map(|o| repo.shard_index(PendingOp::namespace(o)))
                .collect(),
            Op::EvictShard { shard, .. } => vec![*shard],
        };
        persist.user_bytes += op.user_bytes();
        persist.capture(&repo, shards);
    }
    trace::set_req(0);
    if let Some(now) = final_sweep {
        {
            let _span = trace::span("shared_repo.evict_stale");
            repo.evict_stale(now);
        }
        if let Some(persist) = persist.as_mut() {
            persist.capture(&repo, (0..repo.shard_count()).collect());
        }
    }
    drop(root);
    let per = |total: u128, n: u64| total as f64 / n.max(1) as f64;
    // A kind the stream does not hold is left to the run's side probe.
    let mut metrics = BTreeMap::new();
    if lookups > 0 {
        metrics.insert("shared_repo.lookup_ns_per_call", per(lookup_ns, lookups));
    }
    if inserts > 0 {
        metrics.insert("shared_repo.insert_ns_per_call", per(insert_ns, inserts));
    }
    let mut persist_ns = 0;
    if let Some(p) = &persist {
        persist_ns = p.capture_ns + p.record_ns;
        metrics.extend([
            (
                "snapshot.capture_ns_per_mutation",
                per(p.capture_ns, p.mutations),
            ),
            (
                "snapshot.encode_delta_ns_per_mutation",
                per(p.encode_ns, p.mutations),
            ),
            (
                "snapshot.delta_bytes_per_mutation",
                per(u128::from(p.delta_bytes), p.mutations),
            ),
            (
                "durable.record_ns_per_mutation",
                per(p.record_ns, p.mutations),
            ),
            (
                "durable.stored_bytes_per_user_byte",
                p.stored_bytes as f64 / p.user_bytes.max(1) as f64,
            ),
        ]);
    }
    Replay {
        metrics,
        repo_ns_per_req: per(repo_ns, ops.len() as u64),
        persist_ns_per_req: per(persist_ns, ops.len() as u64),
        final_snapshot: repo.save_snapshot(),
        replies,
    }
}

/// The sandbox's floor under any durable write: the median of atomically
/// writing (write, fsync, rename, directory fsync) four KiB. A property of
/// this sandbox's file system, not of any device.
pub fn fsync_floor_ns(dir: &Path) -> f64 {
    std::fs::create_dir_all(dir).expect("scratch directory");
    let path = dir.join("floor.bin");
    let block = [0x5Au8; 4096];
    let samples: Vec<f64> = (0..41)
        .map(|_| {
            let started = Instant::now();
            write_atomic(&path, &block).expect("scratch write");
            started.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Files and bytes a checkpoint directory holds.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .fold((0, 0), |(files, bytes), m| (files + 1, bytes + m.len()))
        })
        .unwrap_or((0, 0))
}
