//! The serving differential: a fleet driven through `dejavu-serve`'s wire
//! client must be **bit-identical** to the same fleet run in process.
//!
//! The remote read path maps `peek_resolved_cached` onto a server-side
//! `peek` without a memo (the memo only skips re-derivation, never changes an
//! answer) and every write travels as the same `PendingOp` batch the
//! in-process committer applies, so there is no legitimate source of
//! divergence — any difference in the report, the hit-rate curve, or the
//! served repository's statistics (including **eviction** counts, which pin
//! the TTL sweep schedule) is a wire bug. `DEJAVU_WIRE_CASES` raises the
//! scenario count; the nightly CI job runs it at 8.
//!
//! Alongside the differential: live protocol error paths (truncated frame,
//! bad version, oversized payload — typed errors on the client, an error
//! reply and a closed connection on the server, never a panic), admission
//! control, and per-tenant usage accounting.

use dejavu_fleet::{
    FleetConfig, FleetEngine, FleetReport, RepositoryClient, ScenarioBuilder, SharedRepoConfig,
    SharedSignatureRepository, TransportConfig,
};
use dejavu_serve::{
    serve_tcp, RemoteRepository, Request, Response, ServeConfig, WireError, MAX_FRAME_LEN,
};
use dejavu_simcore::{SimDuration, SimTime};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn serve(repo_config: &SharedRepoConfig, max_sessions: usize) -> dejavu_serve::ServerHandle {
    serve_tcp(
        Arc::new(SharedSignatureRepository::new(repo_config.clone())),
        "127.0.0.1:0",
        ServeConfig { max_sessions },
    )
    .expect("server binds")
}

fn connect(handle: &dejavu_serve::ServerHandle, tenant: usize) -> RemoteRepository {
    RemoteRepository::connect_tcp(&handle.tcp_addr().expect("tcp server").to_string(), tenant)
        .expect("session opens")
}

fn assert_reports_bit_match(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{label}: reports diverged"
    );
}

fn wire_cases() -> usize {
    std::env::var("DEJAVU_WIRE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The differential proper: for a family of scenarios (varying tenant
/// mixes, churn, shard counts, TTLs so evictions actually fire), the fleet
/// report of a run through the wire bit-matches the in-process run, and so
/// do the repository-side statistics on the serving side.
#[test]
fn wire_runs_bit_match_in_process_runs() {
    for case in 0..wire_cases() {
        let days = 1 + case % 2;
        let mut builder = ScenarioBuilder::new(format!("wire-{case}"), 23 ^ case as u64, days)
            .tick(SimDuration::from_secs(900.0))
            .diurnal_fleet(2 + case % 3)
            .specweb_fleet(1);
        if case % 2 == 1 {
            builder = builder.stagger_arrivals(
                2,
                SimDuration::from_hours(4.0),
                SimDuration::from_hours(3.0),
            );
        }
        let scenario = builder.build();
        let repo_config = SharedRepoConfig {
            shards: 1 + (case * 5) % 16,
            // Short enough that entries expire mid-run: the differential
            // covers eviction counts, not just hits.
            ttl: Some(SimDuration::from_hours(10.0 + case as f64)),
            ..Default::default()
        };
        let transport = if case % 2 == 0 {
            TransportConfig::Bsp
        } else {
            TransportConfig::WorkStealing { threads: 2 }
        };
        let engine = FleetEngine::new(
            scenario,
            FleetConfig {
                repo: repo_config.clone(),
                transport,
                ..Default::default()
            },
        );

        let local_repo = Arc::new(SharedSignatureRepository::new(repo_config.clone()));
        let local = engine.run_on(Arc::clone(&local_repo));

        let handle = serve(&repo_config, 8);
        let remote_client = Arc::new(connect(&handle, 0));
        let remote = engine.run_on_client(remote_client as _);

        assert_reports_bit_match(&local, &remote, &format!("wire case {case}"));
        let served = handle.repository();
        assert_eq!(
            local_repo.stats(),
            served.stats(),
            "wire case {case}: served repository statistics diverged (evictions included)"
        );
        assert_eq!(
            local_repo.shard_stats(),
            served.shard_stats(),
            "wire case {case}: per-shard statistics diverged"
        );
        assert_eq!(
            local_repo.len(),
            served.len(),
            "wire case {case}: entry count"
        );
        assert_eq!(
            local_repo.anchor_count(),
            served.anchor_count(),
            "wire case {case}: anchor count"
        );
        assert!(
            local_repo.stats().evictions > 0,
            "wire case {case}: the TTL never fired — the eviction differential is vacuous"
        );
        handle.stop();
    }
}

/// The remote client's metadata surface agrees with the served repository,
/// and direct wire publishes/lookups behave like in-process ones.
#[test]
fn remote_metadata_and_direct_operations_agree_with_the_server() {
    let handle = serve(&SharedRepoConfig::default(), 8);
    let client = connect(&handle, 3);
    assert_eq!(client.shard_count(), 16);
    assert_eq!(client.len(), 0);
    assert!(client.is_empty());

    let sig = [4.0, 9.0, 1.5];
    client
        .publish(
            3,
            77,
            &sig,
            1,
            dejavu_cloud::ResourceAllocation::large(5),
            SimTime::from_secs(60.0),
        )
        .expect("publish");
    assert_eq!(client.len(), 1);
    assert_eq!(client.anchor_count(), 1);
    assert_eq!(client.clock(), SimTime::from_secs(60.0));

    // A cross-tenant wire lookup hits and moves the hit counters.
    let entry = client
        .lookup(9, 77, &sig, 1, SimTime::from_secs(120.0))
        .expect("lookup")
        .expect("hit");
    assert_eq!(entry.allocation, dejavu_cloud::ResourceAllocation::large(5));
    assert_eq!(entry.owner, 3);
    assert_eq!(entry.hits, 1);
    assert_eq!(entry.cross_tenant_hits, 1);
    assert_eq!(handle.repository().stats().hits, 1);

    // The snapshot surface round-trips into a loadable repository.
    let snapshot = client.snapshot().expect("snapshot");
    let restored = SharedSignatureRepository::load_snapshot(&snapshot).expect("snapshot loads");
    assert_eq!(restored.len(), 1);

    // Usage accounting saw this tenant's traffic.
    let usage = handle.usage();
    let (tenant, stats) = usage
        .iter()
        .find(|(tenant, _)| *tenant == 3)
        .expect("tenant 3 accounted");
    assert_eq!(*tenant, 3);
    assert!(stats.ops >= 6, "ops accounted: {stats:?}");
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0, "{stats:?}");
    handle.stop();
}

/// Admission control: sessions beyond the cap get a typed `Denied`, and a
/// released slot is reusable.
#[test]
fn admission_denies_sessions_beyond_the_cap_and_releases_slots() {
    let handle = serve(&SharedRepoConfig::default(), 1);
    let addr = handle.tcp_addr().expect("tcp server").to_string();
    let first = RemoteRepository::connect_tcp(&addr, 0).expect("first session");
    match RemoteRepository::connect_tcp(&addr, 1) {
        Err(WireError::Denied { reason }) => assert!(reason.contains("capacity"), "{reason}"),
        other => panic!("expected denial, got {other:?}"),
    }
    assert_eq!(handle.denied_sessions(), 1);
    drop(first);
    // The freed slot admits a new session (the server needs a moment to
    // observe the disconnect).
    let mut admitted = false;
    for _ in 0..50 {
        if RemoteRepository::connect_tcp(&addr, 2).is_ok() {
            admitted = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(admitted, "released session slot was never reusable");
    handle.stop();
}

fn raw_connect(handle: &dejavu_serve::ServerHandle) -> TcpStream {
    TcpStream::connect(handle.tcp_addr().expect("tcp server")).expect("connects")
}

fn send_frame(stream: &mut TcpStream, body: &[u8]) {
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .expect("prefix");
    stream.write_all(body).expect("body");
}

fn read_reply(stream: &mut TcpStream) -> Response {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("reply prefix");
    let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut body).expect("reply body");
    Response::decode(&body).expect("reply decodes")
}

fn expect_closed(stream: &mut TcpStream) {
    let mut buf = [0u8; 1];
    assert_eq!(
        stream.read(&mut buf).expect("read after error reply"),
        0,
        "server left the connection open after a protocol violation"
    );
}

/// Live protocol error paths: the server answers each violation with one
/// typed error frame and closes the connection — it never panics, and it
/// keeps serving other sessions afterwards.
#[test]
fn protocol_violations_get_typed_errors_and_never_kill_the_server() {
    let handle = serve(&SharedRepoConfig::default(), 8);

    // Bad version byte.
    let mut stream = raw_connect(&handle);
    send_frame(&mut stream, &[9, 1]);
    match read_reply(&mut stream) {
        Response::Error { message } => {
            assert!(message.contains("bad protocol version"), "{message}")
        }
        other => panic!("expected error reply, got {other:?}"),
    }
    expect_closed(&mut stream);

    // Oversized length prefix: rejected before the body is even read.
    let mut stream = raw_connect(&handle);
    stream
        .write_all(&(MAX_FRAME_LEN + 1).to_le_bytes())
        .expect("prefix");
    match read_reply(&mut stream) {
        Response::Error { message } => assert!(message.contains("oversized"), "{message}"),
        other => panic!("expected error reply, got {other:?}"),
    }
    expect_closed(&mut stream);

    // Truncated frame: the prefix promises more than the stream delivers.
    let mut stream = raw_connect(&handle);
    stream.write_all(&8u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[1, 1, 0]).expect("partial body");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    match read_reply(&mut stream) {
        Response::Error { message } => assert!(message.contains("truncated"), "{message}"),
        other => panic!("expected error reply, got {other:?}"),
    }
    expect_closed(&mut stream);

    // A first frame that is not Hello.
    let mut stream = raw_connect(&handle);
    send_frame(&mut stream, &Request::Meta.encode());
    match read_reply(&mut stream) {
        Response::Error { message } => assert!(message.contains("Hello"), "{message}"),
        other => panic!("expected error reply, got {other:?}"),
    }
    expect_closed(&mut stream);

    // An unknown opcode after a valid session opening.
    let mut stream = raw_connect(&handle);
    send_frame(&mut stream, &Request::Hello { tenant: 0 }.encode());
    assert!(matches!(read_reply(&mut stream), Response::HelloOk { .. }));
    send_frame(&mut stream, &[1, 42]);
    match read_reply(&mut stream) {
        Response::Error { message } => assert!(message.contains("unknown opcode"), "{message}"),
        other => panic!("expected error reply, got {other:?}"),
    }
    expect_closed(&mut stream);

    // After all of that abuse the server still serves healthy sessions.
    let client = connect(&handle, 5);
    assert_eq!(client.shard_count(), 16);
    handle.stop();
}

/// Pipelining: `Hello` and three `Lookup`s arriving in **one** `write` are
/// served from the session's read buffer in order — `HelloOk`, then three
/// replies byte-equal to the ones a twin server gives three sequential
/// calls (lookups move hit counters, so each reply depends on its place).
#[test]
fn frames_written_back_to_back_are_served_in_order() {
    let sig = [4.0, 9.0, 1.5];
    let publish = |handle: &dejavu_serve::ServerHandle| {
        connect(handle, 3)
            .publish(
                3,
                77,
                &sig,
                1,
                dejavu_cloud::ResourceAllocation::large(5),
                SimTime::from_secs(60.0),
            )
            .expect("publish");
    };
    let lookups: Vec<Request> = [(9, 77), (4, 78), (3, 77)]
        .iter()
        .enumerate()
        .map(|(i, &(tenant, namespace))| Request::Lookup {
            tenant,
            namespace,
            signature: sig.to_vec(),
            interference_bucket: 1,
            now: SimTime::from_secs(120.0 + i as f64),
        })
        .collect();

    // The twin: the same lookups, one call at a time.
    let twin = serve(&SharedRepoConfig::default(), 8);
    publish(&twin);
    let client = connect(&twin, 9);
    let sequential: Vec<Response> = lookups
        .iter()
        .map(|request| match request {
            Request::Lookup {
                tenant,
                namespace,
                signature,
                interference_bucket,
                now,
            } => Response::Entry(
                client
                    .lookup(*tenant, *namespace, signature, *interference_bucket, *now)
                    .expect("sequential lookup"),
            ),
            other => unreachable!("{other:?}"),
        })
        .collect();
    assert!(matches!(sequential[0], Response::Entry(Some(_))));
    assert_eq!(sequential[1], Response::Entry(None));
    drop(client);

    let handle = serve(&SharedRepoConfig::default(), 8);
    publish(&handle);
    let mut burst = Vec::new();
    for body in std::iter::once(Request::Hello { tenant: 9 }.encode())
        .chain(lookups.iter().map(Request::encode))
    {
        burst.extend_from_slice(&(body.len() as u32).to_le_bytes());
        burst.extend_from_slice(&body);
    }
    let mut stream = raw_connect(&handle);
    stream.write_all(&burst).expect("one write, four frames");
    assert!(matches!(read_reply(&mut stream), Response::HelloOk { .. }));
    for (i, expected) in sequential.iter().enumerate() {
        let reply = read_reply(&mut stream);
        assert_eq!(reply.encode(), expected.encode(), "reply {i}");
    }
    assert_eq!(handle.repository().stats(), twin.repository().stats());
    drop(stream);
    handle.stop();
    twin.stop();
}

/// Stale-socket regression: a socket file left behind by an uncleanly
/// killed daemon (`SIGKILL` removes nothing) is detected — nobody answers
/// on it — and reclaimed, while a path a *live* server answers on stays a
/// real `AddrInUse` conflict.
#[cfg(unix)]
#[test]
fn stale_socket_files_are_reclaimed_but_live_servers_are_not() {
    use std::os::unix::net::UnixListener;
    let dir = std::env::temp_dir().join(format!("dejavu-stale-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let path = dir.join("stale.sock");

    // Simulate the unclean death: bind, then drop the listener without
    // removing the file.
    drop(UnixListener::bind(&path).expect("first bind"));
    assert!(path.exists(), "precondition: the corpse file is on disk");

    let handle = dejavu_serve::serve_unix(
        Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default())),
        &path,
        ServeConfig::default(),
    )
    .expect("a dead socket file must be reclaimed");
    let client = RemoteRepository::connect_unix(&path, 0).expect("reclaimed socket serves");
    assert_eq!(client.shard_count(), 16);

    // Binding over the now-live server is a real conflict: refused, and
    // the running server keeps serving undisturbed.
    let err = dejavu_serve::serve_unix(
        Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default())),
        &path,
        ServeConfig::default(),
    )
    .expect_err("binding over a live server must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    assert_eq!(client.len(), 0, "original server no longer answers");
    drop(client);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Unix-socket transport speaks the same protocol end to end.
#[cfg(unix)]
#[test]
fn unix_socket_sessions_serve_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("dejavu-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let path = dir.join("wire.sock");
    let handle = dejavu_serve::serve_unix(
        Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default())),
        &path,
        ServeConfig::default(),
    )
    .expect("unix server binds");
    let client = RemoteRepository::connect_unix(&path, 0).expect("unix session");
    assert_eq!(client.shard_count(), 16);
    client
        .publish(
            0,
            5,
            &[1.0, 2.0],
            0,
            dejavu_cloud::ResourceAllocation::extra_large(2),
            SimTime::from_secs(30.0),
        )
        .expect("publish over unix socket");
    assert_eq!(client.len(), 1);
    drop(client);
    handle.stop();
    assert!(!path.exists(), "stop() left the socket file behind");
    let _ = std::fs::remove_dir_all(&dir);
}
