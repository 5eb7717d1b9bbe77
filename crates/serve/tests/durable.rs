//! The durability differential: a dejavu-serve daemon with
//! `--checkpoint-dir` that is **SIGKILLed mid-run and restarted** must end a
//! split workload in exactly the state an uninterrupted daemon reaches —
//! snapshot text, per-shard statistics, and eviction counts all bit-equal.
//!
//! The contract under test (see `ServePersistence`): every acknowledged
//! mutation is on disk before its response frame, and `Lookup` hit counters
//! ride the touched shard's next mutating capture. Each workload stage
//! therefore ends with a full `EvictStale` sweep — a mutating request that
//! captures every shard — so the stage boundary is a durable-consistent
//! point and the kill between stages loses nothing that was acknowledged.

use dejavu_fleet::{RepositoryClient, SharedRepoConfig, SharedSignatureRepository};
use dejavu_serve::{serve_tcp_persistent, RemoteRepository, ServeConfig, ServePersistence};
use dejavu_simcore::{SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test scratch directory (process id + sequence keep parallel
/// test binaries and parallel tests apart).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dejavu-serve-durable-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One deterministic workload stage: a fixed mix of publishes, lookups
/// (hits and misses both move counters), and periodic eviction sweeps, with
/// namespaces reused across stages so stage 1 hits stage 0's entries. Ends
/// with a full sweep so every shard's pending hit counters become durable
/// at the stage boundary.
fn run_stage(client: &RemoteRepository, stage: u64) {
    let t0 = 1_000.0 + stage as f64 * 100_000.0;
    for i in 0..40u64 {
        let namespace = (stage * 7 + i) % 23;
        let signature = [(namespace % 11) as f64 * 0.5, (namespace % 5) as f64, 3.25];
        let now = SimTime::from_secs(t0 + i as f64 * 60.0);
        if i % 3 == 0 {
            client
                .publish(
                    (i % 5) as usize,
                    namespace,
                    &signature,
                    (namespace % 4) as u32,
                    dejavu_cloud::ResourceAllocation::large(1 + (i % 3) as u32),
                    now,
                )
                .expect("publish");
        } else {
            let _ = client
                .lookup(
                    (i % 5) as usize,
                    namespace,
                    &signature,
                    (namespace % 4) as u32,
                    now,
                )
                .expect("lookup");
        }
        if i % 10 == 9 {
            client.evict_stale(SimTime::from_secs(t0 + i as f64 * 60.0 + 1.0));
        }
    }
    client.evict_stale(SimTime::from_secs(t0 + 40.0 * 60.0));
}

fn final_state(client: &RemoteRepository) -> (String, Vec<dejavu_fleet::ShardStats>) {
    (client.snapshot().expect("snapshot"), client.shard_stats())
}

/// In-process differential: stage 0 against a persistent server, stop, boot
/// replay, stage 1 against the resumed server — and the result bit-matches
/// an uninterrupted server running both stages. The TTL is short enough
/// that stage 1's sweeps evict stage 0 entries, so the differential covers
/// eviction counts, not just hits.
#[test]
fn restarted_persistent_server_bit_matches_an_uninterrupted_one() {
    let repo_config = SharedRepoConfig {
        shards: 8,
        ttl: Some(SimDuration::from_hours(6.0)),
        ..Default::default()
    };

    // Interrupted run: stage 0, stop, resume from disk, stage 1.
    let dir = scratch_dir("inproc");
    let repo = Arc::new(SharedSignatureRepository::new(repo_config.clone()));
    let persistence = ServePersistence::create(&dir, &repo, 4).expect("checkpoint dir");
    let handle = serve_tcp_persistent(repo, "127.0.0.1:0", ServeConfig::default(), persistence)
        .expect("server binds");
    let addr = handle.tcp_addr().expect("tcp").to_string();
    let client = RemoteRepository::connect_tcp(&addr, 0).expect("session");
    run_stage(&client, 0);
    let at_stop = client.snapshot().expect("snapshot");
    drop(client);
    handle.stop();

    let (resumed, persistence, report) = ServePersistence::resume(&dir, 4).expect("boot replay");
    assert!(report.segments_replayed > 0, "stage 0 recorded no deltas");
    assert!(
        report.quarantined.is_empty(),
        "clean directory quarantined files: {:?}",
        report.quarantined
    );
    assert_eq!(
        resumed.save_snapshot_compact(),
        at_stop,
        "boot replay is not bit-exact at the stage boundary"
    );
    let handle = serve_tcp_persistent(resumed, "127.0.0.1:0", ServeConfig::default(), persistence)
        .expect("resumed server binds");
    let addr = handle.tcp_addr().expect("tcp").to_string();
    let client = RemoteRepository::connect_tcp(&addr, 0).expect("resumed session");
    run_stage(&client, 1);
    let interrupted = final_state(&client);
    drop(client);
    handle.stop();

    // Uninterrupted run: both stages against one server.
    let dir = scratch_dir("inproc-ref");
    let repo = Arc::new(SharedSignatureRepository::new(repo_config));
    let persistence = ServePersistence::create(&dir, &repo, 4).expect("checkpoint dir");
    let handle = serve_tcp_persistent(
        Arc::clone(&repo),
        "127.0.0.1:0",
        ServeConfig::default(),
        persistence,
    )
    .expect("reference server binds");
    let addr = handle.tcp_addr().expect("tcp").to_string();
    let client = RemoteRepository::connect_tcp(&addr, 0).expect("reference session");
    run_stage(&client, 0);
    run_stage(&client, 1);
    let uninterrupted = final_state(&client);
    drop(client);
    handle.stop();

    assert!(
        repo.stats().evictions > 0,
        "the TTL never fired — the eviction differential is vacuous"
    );
    assert_eq!(
        interrupted.0, uninterrupted.0,
        "restarted run's final snapshot diverged from the uninterrupted run"
    );
    assert_eq!(
        interrupted.1, uninterrupted.1,
        "restarted run's per-shard statistics diverged"
    );
}

/// Kills a spawned daemon even when the test fails partway.
#[cfg(unix)]
struct Daemon(std::process::Child);

#[cfg(unix)]
impl Daemon {
    fn spawn(socket: &std::path::Path, checkpoint_dir: &std::path::Path) -> Daemon {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_dejavu-serve"))
            .arg("--unix")
            .arg(socket)
            .arg("--checkpoint-dir")
            .arg(checkpoint_dir)
            .args(["--checkpoint-every", "4"])
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("dejavu-serve spawns");
        Daemon(child)
    }

    fn connect(&mut self, socket: &std::path::Path, tenant: usize) -> RemoteRepository {
        // The daemon binds asynchronously; poll until the socket answers.
        for _ in 0..400 {
            if let Ok(client) = RemoteRepository::connect_unix(socket, tenant) {
                return client;
            }
            if let Some(status) = self.0.try_wait().expect("daemon status") {
                panic!("dejavu-serve exited before serving: {status}");
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("dejavu-serve never answered on {}", socket.display());
    }

    fn sigkill(mut self) {
        self.0.kill().expect("SIGKILL");
        self.0.wait().expect("reap");
    }
}

#[cfg(unix)]
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The acceptance differential against the real binary: run stage 0,
/// `SIGKILL` the daemon mid-run (no clean shutdown — the socket file is
/// even left behind for the restart to reclaim), restart it on the same
/// `--checkpoint-dir`, run stage 1, and compare the final snapshot and
/// per-shard statistics bit-for-bit against an uninterrupted daemon.
#[cfg(unix)]
#[test]
fn sigkilled_daemon_resumes_and_bit_matches_an_uninterrupted_daemon() {
    // Interrupted daemon.
    let dir = scratch_dir("kill");
    let socket = dir.join("serve.sock");
    let ckpt = dir.join("ckpt");
    let mut daemon = Daemon::spawn(&socket, &ckpt);
    let client = daemon.connect(&socket, 0);
    run_stage(&client, 0);
    drop(client);
    daemon.sigkill();
    assert!(
        socket.exists(),
        "SIGKILL should leave the socket corpse behind (the restart reclaims it)"
    );

    let mut daemon = Daemon::spawn(&socket, &ckpt);
    let client = daemon.connect(&socket, 0);
    run_stage(&client, 1);
    let interrupted = final_state(&client);
    drop(client);
    daemon.sigkill();

    // Uninterrupted daemon, fresh state, both stages.
    let dir = scratch_dir("kill-ref");
    let socket = dir.join("serve.sock");
    let ckpt = dir.join("ckpt");
    let mut daemon = Daemon::spawn(&socket, &ckpt);
    let client = daemon.connect(&socket, 0);
    run_stage(&client, 0);
    run_stage(&client, 1);
    let uninterrupted = final_state(&client);
    drop(client);
    daemon.sigkill();

    assert_eq!(
        interrupted.0, uninterrupted.0,
        "SIGKILLed+restarted daemon's final snapshot diverged"
    );
    assert_eq!(
        interrupted.1, uninterrupted.1,
        "SIGKILLed+restarted daemon's per-shard statistics diverged"
    );
}

/// `--snapshot-in` next to an existing checkpoint manifest is refused: the
/// manifest owns the repository contents, and silently preferring either
/// source would be a trap.
#[cfg(unix)]
#[test]
fn snapshot_in_conflicts_with_an_existing_checkpoint_directory() {
    let dir = scratch_dir("conflict");
    let ckpt = dir.join("ckpt");
    let repo = SharedSignatureRepository::new(SharedRepoConfig::default());
    drop(ServePersistence::create(&ckpt, &repo, 4).expect("manifest"));
    let snapshot = dir.join("seed.snap");
    std::fs::write(&snapshot, repo.save_snapshot()).expect("seed snapshot");

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_dejavu-serve"))
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .arg("--snapshot-in")
        .arg(&snapshot)
        .output()
        .expect("dejavu-serve runs");
    assert!(
        !output.status.success(),
        "conflicting repository sources must be a boot error"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--snapshot-in"),
        "boot error should name the conflicting flag: {stderr}"
    );
}

/// A shard count past what checkpoint manifests are read back under is
/// refused before anything is written — by the flag parser (exit 2, naming
/// the flag and the range) and by `ServePersistence::create` itself — so a
/// daemon can never acknowledge writes into a directory it cannot replay.
#[test]
fn out_of_range_shard_counts_are_refused_before_a_manifest_exists() {
    let dir = scratch_dir("shards");
    let ckpt = dir.join("ckpt");
    let past = dejavu_fleet::snapshot::MAX_SHARDS + 1;
    for shards in [past.to_string(), "0".to_string()] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_dejavu-serve"))
            .args(["--shards", &shards, "--checkpoint-dir"])
            .arg(&ckpt)
            .output()
            .expect("dejavu-serve runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "--shards {shards}: {stderr}");
        assert!(
            stderr.contains("--shards") && stderr.contains("1..=65536"),
            "--shards {shards}: {stderr}"
        );
        assert!(!ckpt.exists(), "--shards {shards} touched {ckpt:?}");
    }

    let repo = SharedSignatureRepository::new(SharedRepoConfig {
        shards: past,
        ..SharedRepoConfig::default()
    });
    let err = ServePersistence::create(&ckpt, &repo, 4).expect_err("unreplayable shard count");
    assert!(err.to_string().contains("1..=65536"), "{err}");
    assert!(!ServePersistence::exists(&ckpt) && !ckpt.exists());
}

/// Flag sets that used to boot a daemon which ignored a flag or could serve
/// nobody are refused by the parser: exit 2, naming the flag, with nothing
/// written. The unbindable `--listen` makes a daemon that gets past the
/// parser exit instead of serving.
#[test]
fn flags_that_would_do_nothing_are_refused_before_boot() {
    let dir = scratch_dir("inert-flags");
    let ckpt = dir.join("ckpt");
    let ckpt_arg = ckpt.to_str().expect("UTF-8 scratch path");
    let snapshot = dir.join("seed.snap");
    let snapshot_arg = snapshot.to_str().expect("UTF-8 scratch path");
    let cases = [
        ("--checkpoint-every", vec!["--checkpoint-every", "8"]),
        (
            "--shards",
            vec![
                "--shards",
                "4",
                "--snapshot-in",
                snapshot_arg,
                "--checkpoint-dir",
                ckpt_arg,
            ],
        ),
        (
            "--max-sessions",
            vec!["--max-sessions", "0", "--checkpoint-dir", ckpt_arg],
        ),
    ];
    for (flag, args) in cases {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_dejavu-serve"))
            .args(["--listen", "unbindable"])
            .args(&args)
            .output()
            .expect("dejavu-serve runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(!ckpt.exists(), "{flag} touched {ckpt:?}");
    }
}
