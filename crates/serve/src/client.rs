//! The remote client: a [`RepositoryClient`] backed by one dejavu-serve
//! connection, so the fleet engine runs against a served repository exactly
//! as it runs against an in-process one (`fleet --repo remote`).
//!
//! Read resolution happens server-side — [`RemoteRepository`] maps
//! [`peek_resolved_cached`](RepositoryClient::peek_resolved_cached) to a
//! wire `Peek` and ignores the caller's memo. That is sound because the
//! memoized path is documented bit-identical to the fresh one: the memo
//! only skips re-deriving an answer, never changes it, so a remote run's
//! [`FleetReport`](dejavu_fleet::FleetReport) bit-matches the in-process
//! run (the wire differential suite pins this).
//!
//! The engine's repository surface is not error-plumbed — an in-process
//! repository cannot fail — so a wire failure mid-run panics with the
//! typed [`WireError`] in the message rather than silently diverging.

use crate::protocol::{Framed, Request, Response, WireError};
use dejavu_fleet::{PendingOp, RepositoryClient, ResolveMemo, ShardStats, SharedEntry, TenantId};
use dejavu_simcore::SimTime;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;

/// The transports a [`RemoteRepository`] can speak over.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
    /// In-memory, call-counting: the syscall-count test's socket.
    #[cfg(test)]
    Duplex(crate::testing::Duplex),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            #[cfg(test)]
            Conn::Duplex(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            #[cfg(test)]
            Conn::Duplex(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            #[cfg(test)]
            Conn::Duplex(s) => s.flush(),
        }
    }
}

/// One tenant session against a dejavu-serve daemon, usable anywhere the
/// engine takes an `Arc<dyn RepositoryClient>`. The connection is
/// serialized behind a mutex — the wire is one request/response stream, so
/// concurrent tenant threads take turns (the served repository's wait-free
/// read path is on the far side).
#[derive(Debug)]
pub struct RemoteRepository {
    conn: Mutex<Framed<Conn>>,
    /// Cached from `HelloOk`: the shard count is immutable for a
    /// repository's lifetime, and shard routing is on every hot path.
    shard_count: usize,
}

impl RemoteRepository {
    /// Connects over TCP and opens a session for `tenant`.
    pub fn connect_tcp(addr: &str, tenant: TenantId) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::handshake(Conn::Tcp(stream), tenant)
    }

    /// Connects over a Unix domain socket and opens a session for `tenant`.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path, tenant: TenantId) -> Result<Self, WireError> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        Self::handshake(Conn::Unix(stream), tenant)
    }

    /// Opens a session for `tenant` over one end of an in-memory duplex.
    #[cfg(test)]
    pub(crate) fn connect_duplex(
        end: crate::testing::Duplex,
        tenant: TenantId,
    ) -> Result<Self, WireError> {
        Self::handshake(Conn::Duplex(end), tenant)
    }

    fn handshake(conn: Conn, tenant: TenantId) -> Result<Self, WireError> {
        let mut conn = Framed::new(conn);
        match Self::round_trip(&mut conn, &Request::Hello { tenant })? {
            Response::HelloOk { shard_count } => Ok(RemoteRepository {
                conn: Mutex::new(conn),
                shard_count: shard_count as usize,
            }),
            Response::Denied { reason } => Err(WireError::Denied { reason }),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends `request` as one frame and decodes the one frame that answers
    /// it.
    fn round_trip(conn: &mut Framed<Conn>, request: &Request) -> Result<Response, WireError> {
        conn.send(|buf| request.encode_into(buf))?;
        let body = conn.recv()?.ok_or(WireError::Truncated {
            context: "response frame",
        })?;
        let response = Response::decode(body);
        // The client idles between calls: hand back what a large reply (a
        // snapshot) grew the read buffer by now, not at the next call.
        conn.release();
        match response? {
            Response::Error { message } => Err(WireError::Remote { message }),
            response => Ok(response),
        }
    }

    /// One request/response round trip.
    fn call(&self, request: &Request) -> Result<Response, WireError> {
        let mut conn = self.conn.lock().expect("remote connection poisoned");
        Self::round_trip(&mut conn, request)
    }

    /// Like [`call`](Self::call), but a failure is fatal: the engine's
    /// repository surface has no error channel.
    fn must(&self, request: &Request) -> Response {
        match self.call(request) {
            Ok(response) => response,
            Err(err) => panic!("remote repository call failed: {err}"),
        }
    }

    /// Hit-accounting lookup over the wire (the serving benchmark's
    /// round-trip path).
    pub fn lookup(
        &self,
        tenant: TenantId,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
    ) -> Result<Option<SharedEntry>, WireError> {
        match self.call(&Request::Lookup {
            tenant,
            namespace,
            signature: signature.to_vec(),
            interference_bucket,
            now,
        })? {
            Response::Entry(entry) => Ok(entry),
            other => Err(unexpected(&other)),
        }
    }

    /// Direct publish over the wire.
    pub fn publish(
        &self,
        tenant: TenantId,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        allocation: dejavu_cloud::ResourceAllocation,
        tuned_at: SimTime,
    ) -> Result<(), WireError> {
        match self.call(&Request::Publish {
            tenant,
            namespace,
            signature: signature.to_vec(),
            interference_bucket,
            allocation,
            tuned_at,
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// The served repository's full snapshot text.
    pub fn snapshot(&self) -> Result<String, WireError> {
        match self.call(&Request::Snapshot)? {
            Response::Snapshot(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> WireError {
    let _ = response;
    WireError::Malformed {
        context: "unexpected response opcode",
    }
}

impl RepositoryClient for RemoteRepository {
    fn peek_resolved_cached(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
        memo: &mut ResolveMemo,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        // The memo caches anchor resolution, which lives server-side here;
        // uncached answers are bit-identical, so skipping it is invisible.
        let _ = memo;
        match self.must(&Request::Peek {
            namespace,
            signature: signature.to_vec(),
            interference_bucket,
            now,
            exclude_owner,
        }) {
            Response::Peeked(result) => result,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn apply_batch(&self, ops: &[PendingOp]) -> Vec<bool> {
        match self.must(&Request::CommitBatch { ops: ops.to_vec() }) {
            Response::Applied(flags) => flags,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn evict_stale(&self, now: SimTime) -> u64 {
        match self.must(&Request::EvictStale { now }) {
            Response::Evicted(n) => n,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn evict_stale_shard(&self, shard: usize, now: SimTime) -> u64 {
        match self.must(&Request::EvictStaleShard {
            shard: shard as u64,
            now,
        }) {
            Response::Evicted(n) => n,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn shard_count(&self) -> usize {
        self.shard_count
    }

    fn clock(&self) -> SimTime {
        match self.must(&Request::Meta) {
            Response::Meta { clock_secs, .. } => SimTime::from_secs(clock_secs),
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn len(&self) -> usize {
        match self.must(&Request::Meta) {
            Response::Meta { len, .. } => len as usize,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn anchor_count(&self) -> usize {
        match self.must(&Request::Meta) {
            Response::Meta { anchors, .. } => anchors as usize,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn stats(&self) -> ShardStats {
        match self.must(&Request::Stats) {
            Response::Stats(stats) => stats,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        match self.must(&Request::ShardStats) {
            Response::ShardStatsList(list) => list,
            other => panic!("remote repository call failed: {}", unexpected(&other)),
        }
    }
}
