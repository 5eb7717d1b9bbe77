//! The two serve workloads and the serve side of the per-layer cost model.
//!
//! Every repetition boots a fresh daemon over loopback TCP on a repository
//! loaded from the same seeded snapshot and sends it the same request
//! streams, closed loop: each connection sends its next request when the
//! reply to the previous one has arrived. Repetitions therefore start from
//! identical state, and one in-process replay of the streams is the oracle
//! for all of them.

use crate::fleet;
use crate::gen::{self, Catalog, Mix, Op};
use crate::json::{obj, Value};
use crate::layers::{self, Reply};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace;
use dejavu::fleet::{
    snapshot, FleetConfig, FleetEngine, RepoSnapshot, RepositoryClient, SharedSignatureRepository,
};
use dejavu::serve::{
    serve_tcp, serve_tcp_persistent, RemoteRepository, ServeConfig, ServePersistence, WireError,
};
use dejavu::simcore::SimTime;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Tenants of the cold one-day fleet whose final repository seeds the daemon.
const SEED_TENANTS: usize = 2000;
/// Chain-compaction cadence of the persistent daemon (its default).
pub const CHECKPOINT_EVERY: usize = 64;
/// Every this-many-th reply of a connection is kept for the oracle.
const ORACLE_EVERY: usize = 64;
/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Requests the side probe sends its persistent daemon.
const SIDE_PROBE_REQUESTS: usize = 1500;

/// A serve workload: the request mix, how many requests one repetition
/// sends, and whether the daemon persists.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub mix: Mix,
    pub requests: usize,
    pub persistent: bool,
}

pub const SERVE_READ: ServeWorkload = ServeWorkload {
    name: "serve_read",
    mix: Mix::Read,
    requests: 30_000,
    persistent: false,
};

pub const SERVE_DURABLE_WRITE: ServeWorkload = ServeWorkload {
    name: "serve_durable_write",
    mix: Mix::DurableWrite,
    requests: 1000,
    persistent: true,
};

/// Client connections: half the cores, so client and session threads
/// together do not exceed them.
pub fn connections() -> usize {
    (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1)
}

/// This process's scratch root, `benchmark/tmp/<pid>/`.
fn scratch_root() -> PathBuf {
    let root = match std::env::current_dir() {
        Ok(cwd) if cwd.join("benchmark").is_dir() => cwd.join("benchmark"),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    };
    root.join("tmp").join(std::process::id().to_string())
}

/// A fresh directory under the scratch root. Nothing is deleted while the
/// run measures, so no deletion's discards are issued inside a timed window;
/// [`remove_scratch`] removes everything when the run is over.
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = scratch_root().join(format!("{label}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("scratch directory under benchmark/tmp");
    dir
}

/// Removes this process's scratch root, and `benchmark/tmp/` itself once the
/// last process's root is gone.
pub fn remove_scratch() {
    let root = scratch_root();
    let _ = std::fs::remove_dir_all(&root);
    if let Some(tmp) = root.parent() {
        let _ = std::fs::remove_dir(tmp);
    }
}

/// The seeding fleet: a cold one-day standard fleet behind the barrier.
fn seeding_engine(seed: u64) -> FleetEngine {
    FleetEngine::new(
        gen::scenario(SEED_TENANTS, 1, seed),
        FleetConfig {
            workers: fleet::workers(),
            ..FleetConfig::default()
        },
    )
}

/// The child's half of seeding: runs the seeding fleet and writes the
/// report digest and the snapshot of the repository it leaves behind.
pub fn seed_child(seed: u64, out: &Path) -> Result<bool, String> {
    let engine = seeding_engine(seed);
    let repo = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
    let report = engine.run_on(Arc::clone(&repo));
    let text = format!(
        "{}\n{}",
        fleet::report_digest(&report),
        repo.save_snapshot()
    );
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(report.tenants_failed() == 0)
}

/// Seeds in a child process and loads the snapshot it wrote, as a daemon
/// started with `--snapshot-in` would. The serving process itself never runs
/// a fleet, so its peak resident set is the daemon's and its clients', not
/// the seeding fleet's eight times larger one.
fn seed_snapshot(seed: u64, outcome: &mut Outcome) -> (RepoSnapshot, u64) {
    let file = scratch_dir("seed").join("seed.snap");
    let status = crate::spawn_self(&[
        "seed",
        "--seed",
        &seed.to_string(),
        "--out",
        &file.to_string_lossy(),
    ])
    .map(|output| output.status.success());
    outcome.check(status == Ok(true), || {
        format!("the seeding fleet failed: {status:?}")
    });
    let text = std::fs::read_to_string(&file).expect("the seeding child wrote its snapshot");
    let (digest, snapshot) = text.split_once('\n').expect("digest line, then snapshot");
    (
        snapshot::decode(snapshot).expect("seed snapshot decodes"),
        digest.parse().expect("digest is a number"),
    )
}

/// Where the final sweep of a persistent repetition sets the clock: far
/// enough that it always advances it.
fn flush_time(snapshot: &RepoSnapshot) -> SimTime {
    SimTime::from_secs(snapshot.clock_secs + 1e7)
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    lookup_ns: Vec<f64>,
    publish_ns: Vec<f64>,
    batch_ns: Vec<f64>,
    evict_ns: Vec<f64>,
    sampled: Vec<(usize, Reply)>,
    failed: u64,
}

fn call(client: &RemoteRepository, op: &Op) -> Result<Reply, WireError> {
    match op {
        Op::Lookup {
            tenant,
            namespace,
            signature,
            bucket,
            now,
        } => client
            .lookup(*tenant, *namespace, signature, *bucket, *now)
            .map(Reply::Entry),
        Op::Publish {
            tenant,
            namespace,
            signature,
            bucket,
            allocation,
            tuned_at,
        } => client
            .publish(
                *tenant,
                *namespace,
                signature,
                *bucket,
                *allocation,
                *tuned_at,
            )
            .map(|()| Reply::Done),
        // The trait surface has no error channel and panics on a wire
        // failure; a failed request must be counted, not abort the run.
        Op::Batch { ops } => catch_unwind(AssertUnwindSafe(|| client.apply_batch(ops)))
            .map(Reply::Applied)
            .map_err(|_| WireError::Malformed {
                context: "commit batch failed",
            }),
        Op::EvictShard { shard, now } => {
            catch_unwind(AssertUnwindSafe(|| client.evict_stale_shard(*shard, *now)))
                .map(Reply::Evicted)
                .map_err(|_| WireError::Malformed {
                    context: "shard sweep failed",
                })
        }
    }
}

fn drive_connection(client: &RemoteRepository, ops: &[Op]) -> ConnResult {
    let mut result = ConnResult::default();
    // Spans cost one relaxed load each unless a traced run turned them on.
    let _root = trace::span("trace.client_loop");
    for (i, op) in ops.iter().enumerate() {
        trace::set_req(i as u32 + 1);
        let started = Instant::now();
        let reply = {
            let _span = trace::span(match op {
                Op::Lookup { .. } => "client.lookup",
                Op::Publish { .. } => "client.publish",
                Op::Batch { .. } => "client.commit_batch",
                Op::EvictShard { .. } => "client.evict",
            });
            call(client, op)
        };
        let ns = started.elapsed().as_nanos() as f64;
        match reply {
            Ok(reply) => {
                match op {
                    Op::Lookup { .. } => result.lookup_ns.push(ns),
                    Op::Publish { .. } => result.publish_ns.push(ns),
                    Op::Batch { .. } => result.batch_ns.push(ns),
                    Op::EvictShard { .. } => result.evict_ns.push(ns),
                }
                if i % ORACLE_EVERY == 0 {
                    result.sampled.push((i, reply));
                }
            }
            Err(_) => result.failed += 1,
        }
    }
    trace::set_req(0);
    result
}

/// What recovering a repetition's checkpoint directory showed.
struct Recovery {
    secs: f64,
    segments: u64,
    files: u64,
    bytes: u64,
    matches_live: bool,
    quarantined: usize,
}

/// One repetition against a fresh daemon.
struct Rep {
    wall_s: f64,
    conns: Vec<ConnResult>,
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    live_snapshot: String,
    recovery: Option<Recovery>,
}

impl Rep {
    fn pooled(&self, pick: fn(&ConnResult) -> &Vec<f64>) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| pick(c).iter().copied())
            .collect()
    }

    fn mutation_ns(&self) -> Vec<f64> {
        let mut all = self.pooled(|c| &c.publish_ns);
        all.extend(self.pooled(|c| &c.batch_ns));
        all.extend(self.pooled(|c| &c.evict_ns));
        all
    }

    fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }
}

/// Boots a daemon on `snapshot` (persisting to a scratch directory when
/// `persistent`), connects one client per stream, drives the streams closed
/// loop, tears everything down and — for a persistent daemon — recovers the
/// directory and compares the result with the live repository.
fn serve_once(snapshot: &RepoSnapshot, streams: &[Vec<Op>], persistent: bool) -> Rep {
    let repo =
        Arc::new(SharedSignatureRepository::from_snapshot(snapshot).expect("seed snapshot loads"));
    let scratch = persistent.then(|| scratch_dir("ckpt"));
    let handle = match &scratch {
        Some(dir) => {
            let persistence = ServePersistence::create(dir, &repo, CHECKPOINT_EVERY)
                .expect("fresh checkpoint directory");
            serve_tcp_persistent(
                Arc::clone(&repo),
                "127.0.0.1:0",
                ServeConfig::default(),
                persistence,
            )
        }
        None => serve_tcp(Arc::clone(&repo), "127.0.0.1:0", ServeConfig::default()),
    }
    .expect("daemon binds a loopback port");
    let addr = handle.tcp_addr().expect("tcp daemon").to_string();
    let clients: Vec<RemoteRepository> = (0..streams.len())
        .map(|conn| RemoteRepository::connect_tcp(&addr, conn).expect("session opens"))
        .collect();

    let start_line = Barrier::new(streams.len() + 1);
    let (wall_s, conns) = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter()
            .zip(streams)
            .map(|(client, ops)| {
                let start_line = &start_line;
                scope.spawn(move || {
                    start_line.wait();
                    drive_connection(client, ops)
                })
            })
            .collect();
        start_line.wait();
        let started = Instant::now();
        let conns: Vec<ConnResult> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect();
        (started.elapsed().as_secs_f64(), conns)
    });

    if persistent {
        // Lookups move hit counters that only the shard's next capture makes
        // durable: a final all-shard sweep (nothing expires without a TTL)
        // captures every shard, so the directory holds all the live state.
        clients[0].evict_stale(flush_time(snapshot));
    }
    // Sessions end when their clients hang up; wait so no thread outlives us.
    drop(clients);
    while handle.active_sessions() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let (bytes_in, bytes_out) = handle
        .usage()
        .iter()
        .fold((0, 0), |(i, o), (_, u)| (i + u.bytes_in, o + u.bytes_out));
    let live_snapshot = repo.save_snapshot();
    handle.stop();

    let recovery = scratch.as_ref().map(|dir| {
        let (files, bytes) = layers::dir_usage(dir);
        let started = Instant::now();
        let resumed = ServePersistence::resume(dir, CHECKPOINT_EVERY);
        let secs = started.elapsed().as_secs_f64();
        match resumed {
            Ok((resumed, _, report)) => Recovery {
                secs,
                segments: report.segments_replayed,
                files,
                bytes,
                matches_live: resumed.save_snapshot() == live_snapshot,
                quarantined: report.quarantined.len(),
            },
            Err(_) => Recovery {
                secs,
                segments: 0,
                files,
                bytes,
                matches_live: false,
                quarantined: usize::MAX,
            },
        }
    });
    Rep {
        wall_s,
        conns,
        requests: streams.iter().map(|s| s.len() as u64).sum(),
        bytes_in,
        bytes_out,
        live_snapshot,
        recovery,
    }
}

/// The oracle: the streams replayed in process, connection after connection.
struct Oracle {
    replies: Vec<Vec<Reply>>,
    final_snapshot: String,
}

fn oracle(snapshot: &RepoSnapshot, streams: &[Vec<Op>], persistent: bool) -> Oracle {
    let twin = SharedSignatureRepository::from_snapshot(snapshot).expect("seed snapshot loads");
    let replies = streams
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| layers::apply_in_process(&twin, op))
                .collect()
        })
        .collect();
    if persistent {
        twin.evict_stale(flush_time(snapshot));
    }
    Oracle {
        replies,
        final_snapshot: twin.save_snapshot(),
    }
}

/// Checks one repetition against the oracle: every request answered, every
/// kept reply bit-equal to the twin's, the served repository's final snapshot
/// equal to the twin's, and — persistent daemons — the recovered repository
/// equal to the live one with nothing quarantined.
fn check_rep(rep: &Rep, label: &str, oracle: &Oracle, outcome: &mut Outcome) {
    let wrong: u64 = rep
        .conns
        .iter()
        .zip(&oracle.replies)
        .map(|(conn, twin)| {
            conn.sampled
                .iter()
                .filter(|(i, reply)| twin[*i] != *reply)
                .count() as u64
        })
        .sum();
    outcome.ops(rep.requests, rep.failed() + wrong, "wire requests");
    outcome.check(rep.live_snapshot == oracle.final_snapshot, || {
        format!("{label}: the served repository's snapshot differs from the in-process twin's")
    });
    if let Some(recovery) = &rep.recovery {
        outcome.check(recovery.matches_live, || {
            format!("{label}: the recovered repository differs from the live one")
        });
        outcome.check(recovery.quarantined == 0, || {
            format!(
                "{label}: recovery quarantined {} files",
                recovery.quarantined
            )
        });
    }
}

fn streams_for(w: &ServeWorkload, catalog: &Catalog, seed: u64) -> Vec<Vec<Op>> {
    let conns = connections().min(catalog.namespace_count()).max(1);
    (0..conns)
        .map(|conn| gen::stream(catalog, w.mix, seed, w.requests / conns, conn, conns))
        .collect()
}

/// Set-up, repeated: the seeding fleet in its child process, snapshot
/// decode, repository load, daemon boot (checkpoint directory included when
/// it persists), connect, tear-down. Returns the last seeded snapshot and every repeat's seconds.
fn set_up(w: &ServeWorkload, seed: u64, outcome: &mut Outcome) -> (RepoSnapshot, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let (snapshot, _) = seed_snapshot(seed, outcome);
        std::hint::black_box(serve_once(&snapshot, &[Vec::new()], w.persistent));
        times.push(started.elapsed().as_secs_f64());
        last = Some(snapshot);
    }
    (last.expect("set-up ran"), times)
}

/// The end-to-end run of a serve workload.
pub fn run_end_to_end(w: &ServeWorkload, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let (snapshot, setup) = set_up(w, seed, outcome);
    let catalog = Catalog::of(&snapshot);
    let streams = streams_for(w, &catalog, seed);
    let oracle = oracle(&snapshot, &streams, w.persistent);
    // Warm-up repetition: untimed, but checked like the rest.
    check_rep(
        &serve_once(&snapshot, &streams, w.persistent),
        "warm-up repetition",
        &oracle,
        outcome,
    );
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < fleet::MIN_REPS || reps.iter().map(|r| r.wall_s).sum::<f64>() < seconds {
        let rep = serve_once(&snapshot, &streams, w.persistent);
        check_rep(
            &rep,
            &format!("repetition {}", reps.len()),
            &oracle,
            outcome,
        );
        reps.push(rep);
    }
    let rates: Vec<f64> = reps.iter().map(|r| r.requests as f64 / r.wall_s).collect();
    outcome.set("setup_s", stats::median(&setup));
    outcome.set("ops_per_s", stats::median(&rates));
    let rate = stats::summarize(&rates);
    outcome.detail(
        "ops_per_s",
        obj([
            ("unit_of_work", Value::Str("wire request, all kinds".into())),
            ("min", Value::Num(rate.min)),
            ("max", Value::Num(rate.max)),
            ("repetitions", Value::Int(rate.n as i64)),
            ("connections", Value::Int(streams.len() as i64)),
            ("loop", Value::Str("closed".into())),
        ]),
    );
    let mut lookups: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.pooled(|c| &c.lookup_ns))
        .collect();
    outcome.detail(
        "lookup",
        latency_json(&mut lookups, "wire lookup, request sent to reply decoded"),
    );
    let mut repeats = vec![
        (
            "stream_hashes",
            Value::Arr(
                streams
                    .iter()
                    .map(|ops| Value::Str(format!("{:#018x}", gen::stream_hash(ops))))
                    .collect(),
            ),
        ),
        (
            "seed_repository_entries",
            Value::Int(catalog.entry_count() as i64),
        ),
        (
            "requests_per_repetition",
            Value::Int(reps[0].requests as i64),
        ),
        ("final_snapshot_hash", {
            let mut h = gen::Fnv::default();
            h.bytes(oracle.final_snapshot.as_bytes());
            Value::Str(format!("{:#018x}", h.0))
        }),
    ];
    if w.persistent {
        let mut mutations: Vec<f64> = reps.iter().flat_map(Rep::mutation_ns).collect();
        let recovery: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.recovery.as_ref().map(|x| x.secs))
            .collect();
        outcome.detail(
            "durable",
            obj([
                (
                    "flush_policy",
                    Value::Str("the daemon's own: fsync per acknowledged mutation".into()),
                ),
                ("checkpoint_every", Value::Int(CHECKPOINT_EVERY as i64)),
                (
                    "mutation",
                    latency_json(
                        &mut mutations,
                        "publish, batch or sweep, request sent to ack",
                    ),
                ),
                ("recovery_s", Value::Num(stats::median(&recovery))),
            ]),
        );
        // One connection writes the directory in one order: what it holds
        // at the end repeats exactly. More connections interleave.
        if streams.len() == 1 {
            let on_disk = |r: &Rep| r.recovery.as_ref().map(|x| (x.files, x.bytes, x.segments));
            let first = on_disk(&reps[0]);
            outcome.check(reps.iter().all(|r| on_disk(r) == first), || {
                "repetitions left different checkpoint directories behind".into()
            });
            let (files, bytes, segments) = first.expect("a persistent repetition recovers");
            repeats.extend([
                ("checkpoint_files", Value::Int(files as i64)),
                ("checkpoint_bytes", Value::Int(bytes as i64)),
                ("checkpoint_segments", Value::Int(segments as i64)),
            ]);
        }
    }
    outcome.detail(crate::agree::REPEATS_EXACTLY, obj(repeats));
}

/// Median, tail and sample count of pooled per-request latencies.
fn latency_json(samples_ns: &mut [f64], what: &str) -> Value {
    let (p50, tail, percentile) = stats::p50_and_tail(samples_ns);
    obj([
        ("what", Value::Str(what.into())),
        ("p50_us", Value::Num(p50 / 1e3)),
        ("tail_us", Value::Num(tail / 1e3)),
        ("tail_percentile", Value::Num(percentile)),
        ("samples", Value::Int(samples_ns.len() as i64)),
    ])
}

/// The serve-side metrics of one traced repetition plus the standalone
/// loops that split its round trip: codec, in-process repository call,
/// capture and durable record; what is left is the server's residual.
fn serve_metrics(
    snapshot: &RepoSnapshot,
    streams: &[Vec<Op>],
    persistent: bool,
    span_cost_ns: f64,
    label: &'static str,
    outcome: &mut Outcome,
) -> (BTreeMap<&'static str, f64>, Rep, f64) {
    trace::set_enabled(true);
    let rep = serve_once(snapshot, streams, persistent);
    trace::set_enabled(false);
    let spans = trace::drain();
    let analysis = trace::analyze(&spans, span_cost_ns);
    outcome
        .traces
        .push(trace::to_json(label, &spans, &analysis));
    let mut unattributed = analysis.unattributed_frac();
    drop(spans);

    let mut metrics = BTreeMap::new();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    metrics.insert("client.rtt_ns_lookup", mean(rep.pooled(|c| &c.lookup_ns)));
    let (p50, p99, _) = stats::p50_and_tail(&mut rep.pooled(|c| &c.lookup_ns));
    metrics.insert("client.lookup_p50_us", p50 / 1e3);
    metrics.insert("client.lookup_p99_us", p99 / 1e3);
    if persistent {
        metrics.insert("client.rtt_ns_publish", mean(rep.pooled(|c| &c.publish_ns)));
        metrics.insert(
            "client.rtt_ns_commit_batch",
            mean(rep.pooled(|c| &c.batch_ns)),
        );
        metrics.insert("client.rtt_ns_evict", mean(rep.pooled(|c| &c.evict_ns)));
        let mut mutations = rep.mutation_ns();
        let (p50, p99, _) = stats::p50_and_tail(&mut mutations);
        metrics.insert("client.mutation_p50_us", p50 / 1e3);
        metrics.insert("client.mutation_p99_us", p99 / 1e3);
    }
    metrics.insert("server.bytes_in", rep.bytes_in as f64);
    metrics.insert("server.bytes_out", rep.bytes_out as f64);

    let all_ops: Vec<Op> = streams.iter().flatten().cloned().collect();
    let scratch = persistent.then(|| scratch_dir("replay"));
    trace::set_enabled(true);
    let replay = layers::replay(
        &all_ops,
        snapshot,
        scratch.as_deref(),
        CHECKPOINT_EVERY,
        persistent.then(|| flush_time(snapshot)),
    );
    trace::set_enabled(false);
    let spans = trace::drain();
    let replay_analysis = trace::analyze(&spans, span_cost_ns);
    outcome.traces.push(trace::to_json(
        "serve.in_process_replay",
        &spans,
        &replay_analysis,
    ));
    unattributed = unattributed.max(replay_analysis.unattributed_frac());
    drop(spans);
    // The replay ran the streams back to back: it is this repetition's
    // oracle once its replies are cut back into one list per connection.
    let mut rest = replay.replies.as_slice();
    let replies = streams
        .iter()
        .map(|ops| {
            let (mine, others) = rest.split_at(ops.len());
            rest = others;
            mine.to_vec()
        })
        .collect();
    let oracle = Oracle {
        replies,
        final_snapshot: replay.final_snapshot,
    };
    check_rep(&rep, label, &oracle, outcome);
    metrics.extend(replay.metrics);

    let codec = layers::protocol(&all_ops, snapshot);
    let codec_ns: f64 = [
        "protocol.req_encode_ns",
        "protocol.req_decode_ns",
        "protocol.resp_encode_ns",
        "protocol.resp_decode_ns",
    ]
    .iter()
    .map(|k| codec[k])
    .sum();
    metrics.extend(codec);
    let rtt_ns = rep.wall_s * 1e9 * streams.len() as f64 / rep.requests.max(1) as f64;
    metrics.insert(
        "server.residual_ns_per_req",
        rtt_ns - codec_ns - replay.repo_ns_per_req - replay.persist_ns_per_req,
    );

    if let (Some(recovery), Some(replayed)) = (&rep.recovery, &scratch) {
        // `durable.stored_bytes_per_user_byte` and the `snapshot.*` figures
        // come from the replay's rebuilt persistence layer: hold what it
        // wrote against what the daemon wrote. One connection only — more
        // interleave, and the daemon's capture order is then its own.
        if streams.len() == 1 {
            let daemon = (recovery.files, recovery.bytes);
            let replay = layers::dir_usage(replayed);
            outcome.check(replay == daemon, || {
                format!(
                    "{label}: the replay wrote {replay:?} (files, bytes), the daemon {daemon:?}"
                )
            });
        }
        metrics.insert("durable.recovery_s", recovery.secs);
        metrics.insert("durable.files_at_end", recovery.files as f64);
        metrics.insert("durable.bytes_at_end", recovery.bytes as f64);
        metrics.insert(
            "durable.open_ns_per_segment",
            recovery.secs * 1e9 / recovery.segments.max(1) as f64,
        );
        metrics.insert(
            "durable.fsync_floor_ns",
            layers::fsync_floor_ns(&scratch_dir("floor")),
        );
    }
    (metrics, rep, unattributed)
}

/// A small persistent daemon on `snapshot`, one connection, a short
/// write-heavy stream: prices the serve-side layers on the data of a
/// workload that does not itself exercise them. The driver has every
/// workload print every per-layer metric and refuses a time that reads the
/// same on every run, so a bypassed layer cannot print 0. Returns the
/// metrics and the probe's unattributed share, which the run's gate covers.
pub fn side_probe(
    snapshot: &RepoSnapshot,
    seed: u64,
    span_cost_ns: f64,
    outcome: &mut Outcome,
) -> (BTreeMap<&'static str, f64>, f64) {
    let catalog = Catalog::of(snapshot);
    let streams = vec![gen::stream(
        &catalog,
        Mix::DurableWrite,
        seed,
        SIDE_PROBE_REQUESTS,
        0,
        1,
    )];
    let (metrics, _, unattributed) = serve_metrics(
        snapshot,
        &streams,
        true,
        span_cost_ns,
        "serve.side_probe",
        outcome,
    );
    (metrics, unattributed)
}

/// Untraced and traced repetitions a traced run alternates to price tracing.
const OVERHEAD_PAIRS: usize = 3;

/// The traced run of a serve workload: a warm-up, then untraced and traced
/// repetitions in turn — the first traced one with its standalone loops —
/// the fleet probe on the seeding fleet (outside any timed window here:
/// those layers move only `setup_s` on this workload), and — for the read
/// workload — the side probe for the persistence layers it bypasses.
pub fn run_traced(w: &ServeWorkload, seed: u64, outcome: &mut Outcome) {
    let span_cost_ns = layers::span_cost_ns();
    outcome.set("trace.span_cost_ns", span_cost_ns);
    let (snapshot, seeding_digest) = seed_snapshot(seed, outcome);
    let catalog = Catalog::of(&snapshot);
    let streams = streams_for(w, &catalog, seed);
    let oracle = oracle(&snapshot, &streams, w.persistent);
    let checked = |traced: bool, label: &str, outcome: &mut Outcome| {
        trace::set_enabled(traced);
        let rep = serve_once(&snapshot, &streams, w.persistent);
        trace::set_enabled(false);
        drop(trace::drain());
        check_rep(&rep, label, &oracle, outcome);
        rep.wall_s
    };
    checked(false, "warm-up repetition", outcome);
    // This host's round trip has modes a whole repetition stays in (see the
    // README): medians over alternating repetitions keep one odd repetition
    // from reading as tracing's cost.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first = None;
    for pair in 0..OVERHEAD_PAIRS {
        untraced.push(checked(false, "untraced repetition", outcome));
        if pair > 0 {
            traced.push(checked(true, "traced repetition", outcome));
            continue;
        }
        let (metrics, rep, unattributed) = serve_metrics(
            &snapshot,
            &streams,
            w.persistent,
            span_cost_ns,
            "serve.client_loop",
            outcome,
        );
        traced.push(rep.wall_s);
        first = Some((metrics, unattributed));
    }
    let (metrics, mut unattributed) = first.expect("at least one pair ran");
    outcome.set(
        "trace.overhead_frac",
        stats::median(&traced) / stats::median(&untraced) - 1.0,
    );
    outcome.detail(
        "trace_overhead",
        obj([
            (
                "untraced_wall_s",
                Value::Arr(untraced.into_iter().map(Value::Num).collect()),
            ),
            (
                "traced_wall_s",
                Value::Arr(traced.into_iter().map(Value::Num).collect()),
            ),
        ]),
    );
    outcome.fill_from(metrics);
    if !w.persistent {
        let (side, side_unattributed) = side_probe(&snapshot, seed, span_cost_ns, outcome);
        unattributed = unattributed.max(side_unattributed);
        outcome.fill_from(side);
    }
    let fleet = fleet::probe(
        &seeding_engine(seed),
        Some(seeding_digest),
        seed,
        span_cost_ns,
        outcome,
    );
    outcome.set(
        "trace.unattributed_frac",
        unattributed.max(fleet.unattributed_frac),
    );
    outcome.fill_from(fleet.metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_persistent_repetition_recovers_to_the_live_state_and_only_its_own_oracle_passes() {
        let snapshot = gen::tests::toy_snapshot();
        let catalog = Catalog::of(&snapshot);
        let streams = vec![gen::stream(&catalog, Mix::DurableWrite, 7, 130, 0, 1)];
        let rep = serve_once(&snapshot, &streams, true);
        assert_eq!(rep.requests, 130);
        assert!(rep
            .recovery
            .as_ref()
            .is_some_and(|r| r.segments > 0 && r.files > 0));

        let mut outcome = Outcome::default();
        check_rep(
            &rep,
            "unit",
            &oracle(&snapshot, &streams, true),
            &mut outcome,
        );
        assert!(outcome.correct(), "{:?}", outcome.failures);
        assert_eq!(outcome.attempted, 130 + 3);

        // The persistence layer the replay rebuilds writes what the daemon wrote.
        let replayed = scratch_dir("unit-replay");
        let all_ops: Vec<Op> = streams.concat();
        let replay = layers::replay(
            &all_ops,
            &snapshot,
            Some(&replayed),
            CHECKPOINT_EVERY,
            Some(flush_time(&snapshot)),
        );
        let recovery = rep.recovery.as_ref().expect("persistent");
        assert_eq!(
            layers::dir_usage(&replayed),
            (recovery.files, recovery.bytes)
        );
        assert_eq!(replay.final_snapshot, rep.live_snapshot);

        // Checked against another seed's replay, the same repetition fails.
        let other = vec![gen::stream(&catalog, Mix::DurableWrite, 8, 130, 0, 1)];
        let mut outcome = Outcome::default();
        check_rep(&rep, "unit", &oracle(&snapshot, &other, true), &mut outcome);
        assert!(!outcome.correct());
    }

    #[test]
    fn a_read_repetition_matches_its_oracle() {
        let snapshot = gen::tests::toy_snapshot();
        let catalog = Catalog::of(&snapshot);
        let streams = vec![gen::stream(&catalog, Mix::Read, 7, 200, 0, 1)];
        let rep = serve_once(&snapshot, &streams, false);
        let mut outcome = Outcome::default();
        check_rep(
            &rep,
            "unit",
            &oracle(&snapshot, &streams, false),
            &mut outcome,
        );
        assert!(outcome.correct(), "{:?}", outcome.failures);
        assert_eq!(rep.pooled(|c| &c.lookup_ns).len(), 200);
        assert!(rep.recovery.is_none());
        let scratch = scratch_dir("unit");
        assert!(scratch.is_dir() && scratch.starts_with(scratch_root()));
    }
}
