//! The dejavu-serve daemon: hosts one [`SharedSignatureRepository`] behind
//! the wire protocol, over TCP or a Unix socket.
//!
//! One OS thread per connection — the repository's reads resolve against a
//! published snapshot without the shard's state lock, so concurrent
//! sessions scale with cores rather than serializing on a shard lock, and a thread blocked in `read` costs nothing. Each
//! connection must open with [`Request::Hello`]; admission control caps
//! live sessions at [`ServeConfig::max_sessions`] and refuses the rest with
//! a [`Response::Denied`] frame instead of a hang. Per-tenant usage
//! (operations, bytes in, bytes out) is accounted on lock-free
//! [`Counter`]s and readable at any time through
//! [`ServerHandle::usage`].
//!
//! Protocol violations never panic the server: a malformed frame gets one
//! [`Response::Error`] reply (when the stream still accepts writes) and the
//! connection closes.

use crate::protocol::{Framed, Request, Response, WireError};
use dejavu_fleet::{
    DeltaCursor, DurableCheckpointStore, DurableError, RecoveryReport, ShardStats,
    SharedSignatureRepository, TenantId,
};
use dejavu_obs::Counter;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently admitted sessions; further `Hello`s are denied.
    pub max_sessions: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_sessions: 64 }
    }
}

/// Lock-free per-tenant usage counters, shared between the accounting map
/// and the connection thread that bumps them.
#[derive(Debug, Default)]
struct TenantUsage {
    ops: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
}

/// A point-in-time copy of one tenant's usage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageSnapshot {
    /// Requests served for the tenant.
    pub ops: u64,
    /// Request bytes received (frame bodies).
    pub bytes_in: u64,
    /// Response bytes sent (frame bodies).
    pub bytes_out: u64,
}

/// The daemon's durable side: a [`DurableCheckpointStore`] over the served
/// repository plus the capture cursors that turn each acknowledged mutation
/// into an on-disk delta. Build one with [`ServePersistence::create`] (fresh
/// directory) or [`ServePersistence::resume`] (boot replay after a restart)
/// and hand it to [`serve_tcp_persistent`]/[`serve_unix_persistent`].
///
/// # Durability contract
///
/// A mutating request (`Publish`, `CommitBatch`, `EvictStale`,
/// `EvictStaleShard`) is captured to disk **before its response frame is
/// written**: an acknowledged write survives `SIGKILL`. `Lookup` bumps
/// read-path hit counters without a capture of its own — it only marks the
/// namespace dirty on its shard's capture cursor (hit counters move through
/// relaxed atomics, invisible to the namespace mutation clock) — so those
/// counters become durable at the touched shard's next mutating capture,
/// the same boundary at which the in-process committer would checkpoint
/// them. On a durable write error the daemon fail-stops its write path: the
/// failed request and every later mutating request get a
/// [`Response::Error`], while reads keep serving.
#[derive(Debug)]
pub struct ServePersistence {
    durable: DurableCheckpointStore,
    cursors: Vec<DeltaCursor>,
    /// Last recorded per-shard counter totals — a capture whose namespaces,
    /// stats and clock are all unchanged is skipped instead of recorded.
    last_stats: Vec<ShardStats>,
    /// Highest repository clock recorded so far. Load-bearing in the skip
    /// rule: a no-evict TTL sweep still advances the clock, and a bit-exact
    /// warm resume must replay that advance exactly once.
    clock_hw: f64,
    failed: Option<String>,
}

impl ServePersistence {
    /// Initializes `dir` as a fresh checkpoint directory anchored at
    /// `repo`'s current contents (which may already be warm from
    /// `--snapshot-in`). Call before serving — the base snapshot must be
    /// quiescent.
    pub fn create(
        dir: &Path,
        repo: &SharedSignatureRepository,
        checkpoint_every: usize,
    ) -> Result<Self, DurableError> {
        let durable = DurableCheckpointStore::create(dir, repo.to_snapshot(), checkpoint_every)?;
        Ok(Self::attach(durable, repo))
    }

    /// Replays the manifest in `dir` and rebuilds the repository it
    /// describes — the boot path of a restarted daemon. Returns the resumed
    /// repository (bit-exact at the last consistent prefix of acknowledged
    /// mutations), the persistence handle that continues its chains, and
    /// the [`RecoveryReport`] for logging.
    pub fn resume(
        dir: &Path,
        checkpoint_every: usize,
    ) -> Result<(Arc<SharedSignatureRepository>, Self, RecoveryReport), DurableError> {
        let (durable, report) = DurableCheckpointStore::open(dir, checkpoint_every)?;
        let repo = SharedSignatureRepository::from_snapshot(&report.resumed).map_err(|source| {
            DurableError::Snapshot {
                file: String::new(),
                source,
            }
        })?;
        let repo = Arc::new(repo);
        let persistence = Self::attach(durable, &repo);
        Ok((repo, persistence, report))
    }

    /// Whether `dir` holds a manifest [`resume`](Self::resume) can replay.
    pub fn exists(dir: &Path) -> bool {
        DurableCheckpointStore::exists(dir)
    }

    fn attach(durable: DurableCheckpointStore, repo: &SharedSignatureRepository) -> Self {
        let shards = repo.shard_count();
        let mut cursors = vec![DeltaCursor::default(); shards];
        for (shard, cursor) in cursors.iter_mut().enumerate() {
            repo.prime_delta_cursor(shard, cursor);
        }
        ServePersistence {
            durable,
            cursors,
            last_stats: repo.shard_stats(),
            clock_hw: repo.clock().as_secs(),
            failed: None,
        }
    }

    /// Captures and durably records the given shards' deltas (ascending,
    /// deduplicated). Unchanged shards are skipped without consuming an
    /// epoch. An `Err` is the message already stored in `failed`.
    fn capture(
        &mut self,
        repo: &SharedSignatureRepository,
        shards: &[usize],
    ) -> Result<(), String> {
        if let Some(message) = &self.failed {
            return Err(message.clone());
        }
        for &shard in shards {
            let epoch = self.durable.store().chain_end(shard);
            let delta = repo.capture_shard_delta(shard, epoch, &mut self.cursors[shard]);
            let unchanged = delta.namespaces.is_empty()
                && delta.shard_stats == self.last_stats[shard]
                && delta.clock_secs <= self.clock_hw;
            if unchanged {
                continue;
            }
            self.last_stats[shard] = delta.shard_stats;
            self.clock_hw = self.clock_hw.max(delta.clock_secs);
            if let Err(e) = self.durable.record(delta) {
                let message = format!(
                    "durable checkpoint write failed (mutations are now refused; \
                     restart the daemon to resume from the last consistent prefix): {e}"
                );
                self.failed = Some(message.clone());
                return Err(message);
            }
        }
        Ok(())
    }

    /// Marks a namespace whose read-path hit counters just moved (a wire
    /// `Lookup`), so the shard's next mutating capture re-images it. The
    /// counters themselves live in the repository; this only invalidates
    /// the capture cursor's "unchanged" memo for the namespace.
    fn note_lookup(&mut self, repo: &SharedSignatureRepository, namespace: u64) {
        if self.failed.is_some() {
            return;
        }
        self.cursors[repo.shard_index(namespace)].invalidate(namespace);
    }
}

/// State shared by the accept loop, every connection thread, and the
/// handle the caller keeps.
#[derive(Debug)]
struct Shared {
    repo: Arc<SharedSignatureRepository>,
    config: ServeConfig,
    shutdown: AtomicBool,
    active_sessions: AtomicUsize,
    denied_sessions: Counter,
    usage: Mutex<BTreeMap<TenantId, Arc<TenantUsage>>>,
    /// The durable write-through layer; `None` serves from memory only.
    persist: Option<Mutex<ServePersistence>>,
}

impl Shared {
    fn usage_for(&self, tenant: TenantId) -> Arc<TenantUsage> {
        let mut map = self.usage.lock().expect("usage map poisoned");
        Arc::clone(map.entry(tenant).or_default())
    }
}

/// Where a running server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP socket address, e.g. `127.0.0.1:7117`.
    Tcp(std::net::SocketAddr),
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A running dejavu-serve instance. Dropping the handle without calling
/// [`stop`](Self::stop) leaves the accept thread running for the process
/// lifetime; call `stop` for a clean join.
#[derive(Debug)]
pub struct ServerHandle {
    endpoint: Endpoint,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound endpoint (with the OS-assigned port when bound to port 0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The TCP address, if serving over TCP.
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        match self.endpoint {
            Endpoint::Tcp(addr) => Some(addr),
            #[cfg(unix)]
            Endpoint::Unix(_) => None,
        }
    }

    /// The served repository.
    pub fn repository(&self) -> &Arc<SharedSignatureRepository> {
        &self.shared.repo
    }

    /// Sessions currently admitted.
    pub fn active_sessions(&self) -> usize {
        self.shared.active_sessions.load(Ordering::Acquire)
    }

    /// Sessions refused by admission control since start.
    pub fn denied_sessions(&self) -> u64 {
        self.shared.denied_sessions.get()
    }

    /// Point-in-time per-tenant usage, ordered by tenant id.
    pub fn usage(&self) -> Vec<(TenantId, UsageSnapshot)> {
        let map = self.shared.usage.lock().expect("usage map poisoned");
        map.iter()
            .map(|(&tenant, u)| {
                (
                    tenant,
                    UsageSnapshot {
                        ops: u.ops.get(),
                        bytes_in: u.bytes_in.get(),
                        bytes_out: u.bytes_out.get(),
                    },
                )
            })
            .collect()
    }

    /// Stops accepting connections and joins the accept thread. Admitted
    /// sessions stay live until their clients disconnect.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway connection; if the connect
        // fails the listener is already gone, which is just as final.
        match &self.endpoint {
            Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
            #[cfg(unix)]
            Endpoint::Unix(path) => drop(std::os::unix::net::UnixStream::connect(path)),
        }
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn shared_state(
    repo: Arc<SharedSignatureRepository>,
    config: ServeConfig,
    persist: Option<ServePersistence>,
) -> Arc<Shared> {
    Arc::new(Shared {
        repo,
        config,
        shutdown: AtomicBool::new(false),
        active_sessions: AtomicUsize::new(0),
        denied_sessions: Counter::default(),
        usage: Mutex::new(BTreeMap::new()),
        persist: persist.map(Mutex::new),
    })
}

/// Serves `repo` on a TCP address. Bind to port 0 to let the OS pick; the
/// chosen address is on the returned handle.
pub fn serve_tcp(
    repo: Arc<SharedSignatureRepository>,
    addr: &str,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    serve_tcp_with(repo, addr, config, None)
}

/// [`serve_tcp`] with a durable write-through layer: acknowledged mutations
/// are on disk before their responses, so a killed-and-restarted daemon
/// resumes via [`ServePersistence::resume`] instead of resetting.
pub fn serve_tcp_persistent(
    repo: Arc<SharedSignatureRepository>,
    addr: &str,
    config: ServeConfig,
    persistence: ServePersistence,
) -> std::io::Result<ServerHandle> {
    serve_tcp_with(repo, addr, config, Some(persistence))
}

fn serve_tcp_with(
    repo: Arc<SharedSignatureRepository>,
    addr: &str,
    config: ServeConfig,
    persist: Option<ServePersistence>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let endpoint = Endpoint::Tcp(listener.local_addr()?);
    let shared = shared_state(repo, config, persist);
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("dejavu-serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_nodelay(true);
                spawn_session(Arc::clone(&accept_shared), stream);
            }
        })?;
    Ok(ServerHandle {
        endpoint,
        shared,
        accept_thread: Some(accept_thread),
    })
}

/// Serves `repo` on a Unix domain socket path; the path is removed on
/// [`ServerHandle::stop`].
///
/// A socket file left behind by an uncleanly killed daemon (nothing removes
/// it on `SIGKILL`) is detected and reclaimed: if connecting to it is
/// refused, the stale file is removed and the path rebound. A path another
/// *live* server answers on is a real conflict and stays an `AddrInUse`
/// error.
#[cfg(unix)]
pub fn serve_unix(
    repo: Arc<SharedSignatureRepository>,
    path: &std::path::Path,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    serve_unix_with(repo, path, config, None)
}

/// [`serve_unix`] with a durable write-through layer; see
/// [`serve_tcp_persistent`].
#[cfg(unix)]
pub fn serve_unix_persistent(
    repo: Arc<SharedSignatureRepository>,
    path: &std::path::Path,
    config: ServeConfig,
    persistence: ServePersistence,
) -> std::io::Result<ServerHandle> {
    serve_unix_with(repo, path, config, Some(persistence))
}

#[cfg(unix)]
fn serve_unix_with(
    repo: Arc<SharedSignatureRepository>,
    path: &std::path::Path,
    config: ServeConfig,
    persist: Option<ServePersistence>,
) -> std::io::Result<ServerHandle> {
    use std::os::unix::net::{UnixListener, UnixStream};
    let listener = match UnixListener::bind(path) {
        Ok(listener) => listener,
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            // A socket file already exists. If a live server answers on it,
            // the conflict is real; if nobody does, it is the corpse of an
            // unclean death — reclaim it.
            if UnixStream::connect(path).is_ok() {
                return Err(e);
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)?
        }
        Err(e) => return Err(e),
    };
    let endpoint = Endpoint::Unix(path.to_path_buf());
    let shared = shared_state(repo, config, persist);
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("dejavu-serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                spawn_session(Arc::clone(&accept_shared), stream);
            }
        })?;
    Ok(ServerHandle {
        endpoint,
        shared,
        accept_thread: Some(accept_thread),
    })
}

/// Decrements the active-session count when a session thread exits, however
/// it exits.
struct SessionGuard(Arc<Shared>);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::AcqRel);
    }
}

fn spawn_session<S: Read + Write + Send + 'static>(shared: Arc<Shared>, stream: S) {
    let _ = std::thread::Builder::new()
        .name("dejavu-serve-session".into())
        .spawn(move || run_session(shared, stream));
}

fn run_session<S: Read + Write>(shared: Arc<Shared>, stream: S) {
    // Admission first: a Hello on a full server is denied before any work.
    // The increment is optimistic so two racing Hellos cannot both sneak
    // under the cap.
    let admitted =
        shared.active_sessions.fetch_add(1, Ordering::AcqRel) < shared.config.max_sessions;
    let _guard = SessionGuard(Arc::clone(&shared));
    // Every frame of the session, both ways, goes through this one value.
    let mut framed = Framed::new(stream);
    let tenant = match read_hello(&mut framed) {
        Ok(Some(tenant)) => tenant,
        Ok(None) => return,
        Err(err) => {
            reply_error(&mut framed, &err);
            return;
        }
    };
    if !admitted {
        shared.denied_sessions.inc();
        let denied = Response::Denied {
            reason: format!("at capacity ({} sessions)", shared.config.max_sessions),
        };
        let _ = framed.send(|buf| denied.encode_into(buf));
        return;
    }
    let usage = shared.usage_for(tenant);
    let hello_ok = Response::HelloOk {
        shard_count: shared.repo.shard_count() as u64,
    };
    match framed.send(|buf| hello_ok.encode_into(buf)) {
        Ok(sent) => usage.bytes_out.add(sent as u64),
        Err(_) => return,
    }
    loop {
        let body = match framed.recv() {
            Ok(Some(body)) => body,
            // Clean disconnect between frames.
            Ok(None) => return,
            Err(err) => {
                reply_error(&mut framed, &err);
                return;
            }
        };
        usage.bytes_in.add(body.len() as u64);
        let request = match Request::decode(body) {
            Ok(req) => req,
            Err(err) => {
                reply_error(&mut framed, &err);
                return;
            }
        };
        usage.ops.inc();
        // Capture-before-ack: a mutating request's shard deltas hit the
        // durable store (under the persistence lock, so the mutation and
        // its capture are one atomic step) before the response frame is
        // written. A durable failure fail-stops the write path: the
        // mutation is refused and the session reports the error instead.
        // A `Lookup` is not captured — it marks its namespace dirty so the
        // hit counters it bumped ride the shard's next mutating capture.
        let lookup_ns = match (&shared.persist, &request) {
            (Some(_), Request::Lookup { namespace, .. }) => Some(*namespace),
            _ => None,
        };
        let response = match (&shared.persist, touched_shards(&shared.repo, &request)) {
            (Some(persist), Some(shards)) => {
                let mut state = persist.lock().expect("persistence state poisoned");
                if let Some(message) = state.failed.clone() {
                    Response::Error { message }
                } else {
                    let response = handle(&shared.repo, request);
                    match state.capture(&shared.repo, &shards) {
                        Ok(()) => response,
                        Err(message) => Response::Error { message },
                    }
                }
            }
            _ => {
                let response = handle(&shared.repo, request);
                if let (Some(persist), Some(namespace)) = (&shared.persist, lookup_ns) {
                    // After the handler: the hit is already bumped, so the
                    // next capture's re-image is guaranteed to carry it.
                    persist
                        .lock()
                        .expect("persistence state poisoned")
                        .note_lookup(&shared.repo, namespace);
                }
                response
            }
        };
        // One reply per request, written whole before the session blocks in
        // `recv` again.
        match framed.send(|buf| response.encode_into(buf)) {
            Ok(sent) => usage.bytes_out.add(sent as u64),
            // A response too large for one frame (a giant snapshot) gets an
            // error reply instead of a half-written stream.
            Err(err @ WireError::Oversized { .. }) => {
                reply_error(&mut framed, &err);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Reads the opening frame and requires it to be `Hello`. `Ok(None)` means
/// the peer connected and left without speaking (the stop() wake-up does
/// exactly this).
fn read_hello<S: Read>(framed: &mut Framed<S>) -> Result<Option<TenantId>, WireError> {
    match framed.recv()? {
        None => Ok(None),
        Some(body) => match Request::decode(body)? {
            Request::Hello { tenant } => Ok(Some(tenant)),
            _ => Err(WireError::Malformed {
                context: "first frame must be Hello",
            }),
        },
    }
}

fn reply_error<S: Write>(framed: &mut Framed<S>, err: &WireError) {
    let message = err.to_string();
    let _ = framed.send(|buf| Response::Error { message }.encode_into(buf));
}

/// The shards a request mutates (ascending, deduplicated), or `None` for
/// requests the durable layer need not capture. `Lookup` is deliberately
/// `None`: its read-path hit counters ride the touched shard's next
/// mutating capture (see [`ServePersistence`]).
fn touched_shards(repo: &SharedSignatureRepository, request: &Request) -> Option<Vec<usize>> {
    match request {
        Request::Publish { namespace, .. } => Some(vec![repo.shard_index(*namespace)]),
        Request::CommitBatch { ops } => {
            let shards: std::collections::BTreeSet<usize> = ops
                .iter()
                .map(|op| repo.shard_index(op.namespace()))
                .collect();
            Some(shards.into_iter().collect())
        }
        Request::EvictStale { .. } => Some((0..repo.shard_count()).collect()),
        Request::EvictStaleShard { shard, .. } => {
            let shard = *shard as usize;
            // An out-of-range shard is a protocol error `handle` reports;
            // nothing was mutated, so nothing needs capturing.
            (shard < repo.shard_count()).then(|| vec![shard])
        }
        _ => None,
    }
}

/// Maps one decoded request onto the repository. Pure dispatch — every
/// operation is a method the in-process engine already uses, which is what
/// keeps remote runs bit-identical to local ones.
fn handle(repo: &SharedSignatureRepository, request: Request) -> Response {
    match request {
        // A second Hello on an open session is a protocol violation.
        Request::Hello { .. } => Response::Error {
            message: "session already open".into(),
        },
        Request::Lookup {
            tenant,
            namespace,
            signature,
            interference_bucket,
            now,
        } => Response::Entry(repo.lookup(tenant, namespace, &signature, interference_bucket, now)),
        Request::Peek {
            namespace,
            signature,
            interference_bucket,
            now,
            exclude_owner,
        } => Response::Peeked(repo.peek(
            namespace,
            &signature,
            interference_bucket,
            now,
            exclude_owner,
            None,
        )),
        Request::Publish {
            tenant,
            namespace,
            signature,
            interference_bucket,
            allocation,
            tuned_at,
        } => {
            repo.insert(
                tenant,
                namespace,
                &signature,
                interference_bucket,
                allocation,
                tuned_at,
            );
            Response::Ok
        }
        Request::CommitBatch { ops } => Response::Applied(repo.apply_batch(&ops)),
        Request::EvictStale { now } => Response::Evicted(repo.evict_stale(now)),
        Request::EvictStaleShard { shard, now } => {
            if (shard as usize) < repo.shard_count() {
                Response::Evicted(repo.evict_stale_shard(shard as usize, now))
            } else {
                Response::Error {
                    message: format!(
                        "shard {shard} out of range (repository has {})",
                        repo.shard_count()
                    ),
                }
            }
        }
        Request::Meta => Response::Meta {
            shard_count: repo.shard_count() as u64,
            clock_secs: repo.clock().as_secs(),
            len: repo.len() as u64,
            anchors: repo.anchor_count() as u64,
        },
        Request::Stats => Response::Stats(repo.stats()),
        Request::ShardStats => Response::ShardStatsList(repo.shard_stats()),
        Request::Snapshot => Response::Snapshot(repo.save_snapshot_compact()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::mpsc;

    enum Script {
        Bytes(Vec<u8>),
        Panic,
    }

    /// A scriptable session stream: reads arrive over a channel (so a test
    /// can hold a session open, then drive or kill it), writes accumulate
    /// in a shared buffer. Dropping the sender is a clean EOF.
    struct ChanStream {
        rx: mpsc::Receiver<Script>,
        pending: VecDeque<u8>,
        out: Arc<Mutex<Vec<u8>>>,
    }

    impl Read for ChanStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.pending.is_empty() {
                match self.rx.recv() {
                    Ok(Script::Bytes(bytes)) => self.pending.extend(bytes),
                    Ok(Script::Panic) => panic!("injected session panic"),
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.pending.len());
            for slot in buf.iter_mut().take(n) {
                *slot = self.pending.pop_front().expect("pending byte");
            }
            Ok(n)
        }
    }

    impl Write for ChanStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out
                .lock()
                .expect("out buffer poisoned")
                .extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    type Session = (
        mpsc::Sender<Script>,
        Arc<Mutex<Vec<u8>>>,
        std::thread::JoinHandle<()>,
    );

    fn session(shared: &Arc<Shared>) -> Session {
        let (tx, rx) = mpsc::channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        let stream = ChanStream {
            rx,
            pending: VecDeque::new(),
            out: Arc::clone(&out),
        };
        let shared = Arc::clone(shared);
        let thread = std::thread::spawn(move || run_session(shared, stream));
        (tx, out, thread)
    }

    fn hello_frame(tenant: TenantId) -> Vec<u8> {
        let body = Request::Hello { tenant }.encode();
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        bytes
    }

    fn first_response(out: &Arc<Mutex<Vec<u8>>>) -> Response {
        let data = out.lock().expect("out buffer poisoned").clone();
        let mut framed = Framed::new(&data[..]);
        let body = framed
            .recv()
            .expect("response frame")
            .expect("one response written");
        Response::decode(body).expect("response decodes")
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..400 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    /// Admission-counter regression: a session that dies by *panic* — not a
    /// clean disconnect — must still release its admission slot, because the
    /// decrement lives in `SessionGuard::drop` and unwinding runs it. Fill
    /// the cap, panic one session, and a new session must be admitted.
    #[test]
    fn a_panicking_session_releases_its_admission_slot() {
        let repo = Arc::new(SharedSignatureRepository::new(Default::default()));
        let shared = shared_state(repo, ServeConfig { max_sessions: 2 }, None);

        // Fill the cap with two live sessions.
        let (tx_a, out_a, thread_a) = session(&shared);
        tx_a.send(Script::Bytes(hello_frame(0))).expect("hello a");
        let (tx_b, out_b, thread_b) = session(&shared);
        tx_b.send(Script::Bytes(hello_frame(1))).expect("hello b");
        wait_for("both sessions admitted", || {
            !out_a.lock().expect("out a").is_empty() && !out_b.lock().expect("out b").is_empty()
        });
        assert!(matches!(first_response(&out_a), Response::HelloOk { .. }));
        assert!(matches!(first_response(&out_b), Response::HelloOk { .. }));
        assert_eq!(shared.active_sessions.load(Ordering::Acquire), 2);

        // A third session is over the cap: a typed denial, and its own
        // transient increment is released when the thread exits.
        let (tx_c, out_c, thread_c) = session(&shared);
        tx_c.send(Script::Bytes(hello_frame(2))).expect("hello c");
        drop(tx_c);
        thread_c.join().expect("denied session exits cleanly");
        assert!(matches!(first_response(&out_c), Response::Denied { .. }));
        assert_eq!(shared.denied_sessions.get(), 1);
        assert_eq!(shared.active_sessions.load(Ordering::Acquire), 2);

        // Session A dies by panic mid-session.
        tx_a.send(Script::Panic).expect("panic a");
        assert!(thread_a.join().is_err(), "session A should have panicked");
        assert_eq!(
            shared.active_sessions.load(Ordering::Acquire),
            1,
            "a panicked session leaked its admission slot"
        );

        // The freed slot admits a replacement.
        let (tx_d, out_d, thread_d) = session(&shared);
        tx_d.send(Script::Bytes(hello_frame(3))).expect("hello d");
        wait_for("replacement session admitted", || {
            !out_d.lock().expect("out d").is_empty()
        });
        assert!(matches!(first_response(&out_d), Response::HelloOk { .. }));

        drop(tx_b);
        drop(tx_d);
        thread_b.join().expect("session b exits");
        thread_d.join().expect("session d exits");
        assert_eq!(shared.active_sessions.load(Ordering::Acquire), 0);
    }

    /// The count the framing change rests on: over a connection that
    /// delivers every `write` whole, a `Hello` + N `Lookup` exchange costs
    /// each side exactly one `write` per frame it sends and one `read` per
    /// frame it receives. (Two and two with a prefix written and read apart
    /// from its body.)
    #[test]
    fn a_frame_costs_one_write_and_one_read_on_each_side() {
        const LOOKUPS: usize = 25;
        let repo = Arc::new(SharedSignatureRepository::new(Default::default()));
        let signature: Vec<f64> = (0..30).map(|i| 1.0 + i as f64).collect();
        repo.insert(
            0,
            5,
            &signature,
            0,
            dejavu_cloud::ResourceAllocation::large(3),
            dejavu_simcore::SimTime::from_secs(10.0),
        );
        let shared = shared_state(repo, ServeConfig::default(), None);

        let (client_end, server_end) = crate::testing::duplex();
        let (client_calls, server_calls) = (client_end.counts(), server_end.counts());
        let session = std::thread::spawn(move || run_session(shared, server_end));
        let client = crate::RemoteRepository::connect_duplex(client_end, 1).expect("session opens");
        for i in 0..LOOKUPS {
            // Hits and misses alike: one request frame, one reply frame.
            let namespace = if i % 5 == 0 { 6 } else { 5 };
            let now = dejavu_simcore::SimTime::from_secs(20.0 + i as f64);
            let entry = client
                .lookup(1, namespace, &signature, 0, now)
                .expect("lookup");
            assert_eq!(entry.is_some(), namespace == 5);
        }
        drop(client);
        session.join().expect("session exits on hang-up");

        let frames = 1 + LOOKUPS;
        assert_eq!(client_calls.writes(), frames, "client writes");
        assert_eq!(client_calls.reads(), frames, "client reads");
        assert_eq!(server_calls.writes(), frames, "server writes");
        // One more: the read that found the client gone.
        assert_eq!(server_calls.reads(), frames + 1, "server reads");
    }
}
