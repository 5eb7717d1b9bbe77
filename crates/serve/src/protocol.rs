//! The dejavu-serve wire protocol: length-prefixed frames over a byte
//! stream (TCP or Unix socket), one request frame → one response frame.
//!
//! # Frame layout
//!
//! ```text
//! [len: u32 LE] [version: u8] [opcode: u8] [payload: len-2 bytes]
//! ```
//!
//! `len` counts everything after the prefix (version + opcode + payload) and
//! is bounded by [`MAX_FRAME_LEN`]; a larger prefix is rejected as
//! [`WireError::Oversized`] *before* any allocation, so a hostile or corrupt
//! prefix cannot balloon server memory. Both ends of a connection move
//! their frames through one [`Framed`] — the only code that reads or writes
//! a length prefix: a frame leaves in one `write`, and reads are buffered,
//! so a frame (and any sent right behind it) arrives in one `read` and is
//! decoded in place. All integers are little-endian;
//! floating-point values travel as `f64::to_bits` so a signature or
//! timestamp arrives **bit-exact** — the wire-vs-in-process differential
//! suite depends on remote runs reproducing local runs bit for bit, and a
//! decimal round-trip would quietly break that.
//!
//! # Errors
//!
//! Every malformed input maps to a typed [`WireError`] — truncated frame,
//! bad version, oversized payload, unknown opcode, short payload — never a
//! panic. The server answers a malformed frame with one
//! [`Response::Error`] frame (when the stream is still writable) and closes
//! the connection; the client surfaces the typed error to its caller.

use dejavu_cloud::{InstanceType, ResourceAllocation};
use dejavu_fleet::{PendingOp, ShardStats, SharedEntry, TenantId};
use dejavu_simcore::SimTime;
use std::io::{Read, Write};

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on the post-prefix frame length (16 MiB). Large enough for
/// an epoch's commit batch or a snapshot, small enough that a corrupt
/// length prefix cannot balloon allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Everything that can go wrong on the wire, typed. `Display` renders a
/// one-line diagnostic; none of these ever panic the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (mid-prefix or mid-body).
    Truncated {
        /// What was being read when the stream ran dry.
        context: &'static str,
    },
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The length the prefix claimed.
        len: u32,
    },
    /// The opcode byte names no known request/response.
    BadOpcode {
        /// The opcode received.
        got: u8,
    },
    /// The payload does not decode as the opcode's message.
    Malformed {
        /// What failed to decode.
        context: &'static str,
    },
    /// The server refused the session (admission control).
    Denied {
        /// The server's stated reason.
        reason: String,
    },
    /// The server answered with an error frame.
    Remote {
        /// The server's rendered error.
        message: String,
    },
    /// An underlying socket error.
    Io {
        /// The IO error kind (the error itself is not `Clone`).
        kind: std::io::ErrorKind,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "bad protocol version {got} (expected {PROTOCOL_VERSION})"
                )
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME_LEN})")
            }
            WireError::BadOpcode { got } => write!(f, "unknown opcode {got}"),
            WireError::Malformed { context } => write!(f, "malformed payload: {context}"),
            WireError::Denied { reason } => write!(f, "session denied: {reason}"),
            WireError::Remote { message } => write!(f, "server error: {message}"),
            WireError::Io { kind } => write!(f, "socket error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated {
                context: "frame body",
            },
            kind => WireError::Io { kind },
        }
    }
}

/// A request frame, client → server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a tenant session; must be the first frame on a connection.
    Hello {
        /// The tenant this session acts for (rate accounting key).
        tenant: TenantId,
    },
    /// Hit-accounting lookup ([`lookup`](dejavu_fleet::SharedSignatureRepository::lookup)).
    Lookup {
        /// The reading tenant.
        tenant: TenantId,
        /// Namespace to resolve in.
        namespace: u64,
        /// Full-catalogue class signature.
        signature: Vec<f64>,
        /// Interference bucket.
        interference_bucket: u32,
        /// Read time (global fleet clock).
        now: SimTime,
    },
    /// Side-effect-free resolved read
    /// ([`peek`](dejavu_fleet::SharedSignatureRepository::peek) without a
    /// memo) — the tenant-view read path.
    Peek {
        /// Namespace to resolve in.
        namespace: u64,
        /// Full-catalogue class signature.
        signature: Vec<f64>,
        /// Interference bucket.
        interference_bucket: u32,
        /// Read time (global fleet clock).
        now: SimTime,
        /// Entries owned by this tenant are invisible.
        exclude_owner: Option<TenantId>,
    },
    /// Direct publish ([`insert`](dejavu_fleet::SharedSignatureRepository::insert)).
    Publish {
        /// The publishing tenant.
        tenant: TenantId,
        /// The tenant's namespace.
        namespace: u64,
        /// Full-catalogue class signature.
        signature: Vec<f64>,
        /// Interference bucket.
        interference_bucket: u32,
        /// The tuned allocation.
        allocation: ResourceAllocation,
        /// When it was tuned.
        tuned_at: SimTime,
    },
    /// Ordered epoch commit
    /// ([`apply_batch`](dejavu_fleet::SharedSignatureRepository::apply_batch)).
    CommitBatch {
        /// The buffered operations, in commit order.
        ops: Vec<PendingOp>,
    },
    /// Fleet-wide TTL sweep.
    EvictStale {
        /// Sweep time.
        now: SimTime,
    },
    /// Single-shard TTL sweep (per-shard commit frontiers).
    EvictStaleShard {
        /// The shard to sweep.
        shard: u64,
        /// Sweep time.
        now: SimTime,
    },
    /// Shard count / clock / entry count / anchor count in one round trip.
    Meta,
    /// Fleet-wide counter totals.
    Stats,
    /// Per-shard counter snapshots.
    ShardStats,
    /// The repository's full snapshot text (persistence surface).
    Snapshot,
}

/// A response frame, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session accepted.
    HelloOk {
        /// The repository's (immutable) shard count, cached client-side.
        shard_count: u64,
    },
    /// Session refused (admission control).
    Denied {
        /// Why.
        reason: String,
    },
    /// Answer to [`Request::Lookup`].
    Entry(Option<SharedEntry>),
    /// Answer to [`Request::Peek`]: the entry plus its
    /// `(anchor id, anchor count, distance)` resolution witness.
    Peeked(Option<(SharedEntry, (u32, u32, f64))>),
    /// Answer to [`Request::Publish`].
    Ok,
    /// Answer to [`Request::CommitBatch`]: one applied-flag per op.
    Applied(Vec<bool>),
    /// Answer to the sweep requests: entries evicted.
    Evicted(u64),
    /// Answer to [`Request::Meta`].
    Meta {
        /// Number of shards.
        shard_count: u64,
        /// The repository clock, in seconds.
        clock_secs: f64,
        /// Total committed entries.
        len: u64,
        /// Total anchors.
        anchors: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(ShardStats),
    /// Answer to [`Request::ShardStats`].
    ShardStatsList(Vec<ShardStats>),
    /// Answer to [`Request::Snapshot`].
    Snapshot(String),
    /// The server could not serve the request (protocol violation, internal
    /// refusal). The connection closes after this frame.
    Error {
        /// Rendered diagnostic.
        message: String,
    },
}

// --- request opcodes ---
const OP_HELLO: u8 = 1;
const OP_LOOKUP: u8 = 2;
const OP_PEEK: u8 = 3;
const OP_PUBLISH: u8 = 4;
const OP_COMMIT_BATCH: u8 = 5;
const OP_EVICT_STALE: u8 = 6;
const OP_EVICT_STALE_SHARD: u8 = 7;
const OP_META: u8 = 8;
const OP_STATS: u8 = 9;
const OP_SHARD_STATS: u8 = 10;
const OP_SNAPSHOT: u8 = 11;
// --- response opcodes ---
const OP_HELLO_OK: u8 = 128;
const OP_DENIED: u8 = 129;
const OP_ENTRY: u8 = 130;
const OP_PEEKED: u8 = 131;
const OP_OK: u8 = 132;
const OP_APPLIED: u8 = 133;
const OP_EVICTED: u8 = 134;
const OP_META_R: u8 = 135;
const OP_STATS_R: u8 = 136;
const OP_SHARD_STATS_R: u8 = 137;
const OP_SNAPSHOT_R: u8 = 138;
const OP_ERROR: u8 = 255;

// --- primitive encoders ---

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_time(buf: &mut Vec<u8>, t: SimTime) {
    put_f64(buf, t.as_secs());
}

fn put_sig(buf: &mut Vec<u8>, sig: &[f64]) {
    put_u32(buf, sig.len() as u32);
    for &v in sig {
        put_f64(buf, v);
    }
}

fn put_alloc(buf: &mut Vec<u8>, a: ResourceAllocation) {
    buf.push(match a.instance_type() {
        InstanceType::Large => 0,
        InstanceType::ExtraLarge => 1,
    });
    put_u32(buf, a.count());
}

fn put_entry(buf: &mut Vec<u8>, e: &SharedEntry) {
    put_alloc(buf, e.allocation);
    put_time(buf, e.tuned_at);
    put_u64(buf, e.owner as u64);
    put_u64(buf, e.hits);
    put_u64(buf, e.cross_tenant_hits);
}

fn put_stats(buf: &mut Vec<u8>, s: &ShardStats) {
    for v in [
        s.hits,
        s.misses,
        s.insertions,
        s.evictions,
        s.cross_tenant_hits,
        s.anchors_created,
    ] {
        put_u64(buf, v);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_op(buf: &mut Vec<u8>, op: &PendingOp) {
    match op {
        PendingOp::Publish {
            tenant,
            namespace,
            signature,
            interference_bucket,
            allocation,
            tuned_at,
        } => {
            buf.push(0);
            put_u64(buf, *tenant as u64);
            put_u64(buf, *namespace);
            put_sig(buf, signature);
            put_u32(buf, *interference_bucket);
            put_alloc(buf, *allocation);
            put_time(buf, *tuned_at);
        }
        PendingOp::RecordHit {
            tenant,
            namespace,
            signature,
            interference_bucket,
            resolved,
        } => {
            buf.push(1);
            put_u64(buf, *tenant as u64);
            put_u64(buf, *namespace);
            put_sig(buf, signature);
            put_u32(buf, *interference_bucket);
            match resolved {
                Some((anchor, count, dist)) => {
                    buf.push(1);
                    put_u32(buf, *anchor);
                    put_u32(buf, *count);
                    put_f64(buf, *dist);
                }
                None => buf.push(0),
            }
        }
        PendingOp::RecordMiss { namespace } => {
            buf.push(2);
            put_u64(buf, *namespace);
        }
    }
}

// --- primitive decoder ---

/// A bounds-checked reader over one frame's payload. Every shortfall is a
/// typed [`WireError::Malformed`] naming what was being decoded.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(WireError::Malformed { context })?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// A fleet time: finite and non-negative, as [`SimTime`] requires.
    fn time(&mut self, context: &'static str) -> Result<SimTime, WireError> {
        let secs = self.f64(context)?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(SimTime::from_secs(secs))
        } else {
            Err(WireError::Malformed { context })
        }
    }

    fn sig(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.u32("signature length")? as usize;
        // Bound by the frame itself: a length prefix larger than the
        // remaining payload is malformed, not an allocation request.
        if n > (self.buf.len() - self.at) / 8 {
            return Err(WireError::Malformed {
                context: "signature length",
            });
        }
        // A non-finite component matches no anchor, so every publish of it
        // would mint a new one.
        (0..n)
            .map(|_| match self.f64("signature value")? {
                v if v.is_finite() => Ok(v),
                _ => Err(WireError::Malformed {
                    context: "signature value",
                }),
            })
            .collect()
    }

    fn alloc(&mut self) -> Result<ResourceAllocation, WireError> {
        let ty = match self.u8("instance type")? {
            0 => InstanceType::Large,
            1 => InstanceType::ExtraLarge,
            _ => {
                return Err(WireError::Malformed {
                    context: "instance type",
                })
            }
        };
        let count = self.u32("instance count")?;
        ResourceAllocation::new(ty, count).map_err(|_| WireError::Malformed {
            context: "instance count",
        })
    }

    fn entry(&mut self) -> Result<SharedEntry, WireError> {
        Ok(SharedEntry {
            allocation: self.alloc()?,
            tuned_at: self.time("tuned_at")?,
            owner: self.u64("owner")? as TenantId,
            hits: self.u64("hits")?,
            cross_tenant_hits: self.u64("cross_tenant_hits")?,
        })
    }

    fn stats(&mut self) -> Result<ShardStats, WireError> {
        Ok(ShardStats {
            hits: self.u64("stats.hits")?,
            misses: self.u64("stats.misses")?,
            insertions: self.u64("stats.insertions")?,
            evictions: self.u64("stats.evictions")?,
            cross_tenant_hits: self.u64("stats.cross_tenant_hits")?,
            anchors_created: self.u64("stats.anchors_created")?,
        })
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32("string length")? as usize;
        let bytes = self.take(n, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed {
            context: "string utf-8",
        })
    }

    fn op(&mut self) -> Result<PendingOp, WireError> {
        match self.u8("op tag")? {
            0 => Ok(PendingOp::Publish {
                tenant: self.u64("op tenant")? as TenantId,
                namespace: self.u64("op namespace")?,
                signature: self.sig()?,
                interference_bucket: self.u32("op bucket")?,
                allocation: self.alloc()?,
                tuned_at: self.time("op tuned_at")?,
            }),
            1 => Ok(PendingOp::RecordHit {
                tenant: self.u64("op tenant")? as TenantId,
                namespace: self.u64("op namespace")?,
                signature: self.sig()?,
                interference_bucket: self.u32("op bucket")?,
                resolved: match self.u8("op resolved tag")? {
                    0 => None,
                    1 => Some((
                        self.u32("op anchor")?,
                        self.u32("op anchor count")?,
                        self.f64("op distance")?,
                    )),
                    _ => {
                        return Err(WireError::Malformed {
                            context: "op resolved tag",
                        })
                    }
                },
            }),
            2 => Ok(PendingOp::RecordMiss {
                namespace: self.u64("op namespace")?,
            }),
            _ => Err(WireError::Malformed { context: "op tag" }),
        }
    }

    fn done(self, context: &'static str) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed { context })
        }
    }
}

impl Request {
    /// Serializes into a fresh frame body (version + opcode + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the frame body (version + opcode + payload) to `buf` — the
    /// form [`Framed::send`] uses to encode straight behind the length
    /// prefix in its reusable write buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(PROTOCOL_VERSION);
        match self {
            Request::Hello { tenant } => {
                buf.push(OP_HELLO);
                put_u64(buf, *tenant as u64);
            }
            Request::Lookup {
                tenant,
                namespace,
                signature,
                interference_bucket,
                now,
            } => {
                buf.push(OP_LOOKUP);
                put_u64(buf, *tenant as u64);
                put_u64(buf, *namespace);
                put_sig(buf, signature);
                put_u32(buf, *interference_bucket);
                put_time(buf, *now);
            }
            Request::Peek {
                namespace,
                signature,
                interference_bucket,
                now,
                exclude_owner,
            } => {
                buf.push(OP_PEEK);
                put_u64(buf, *namespace);
                put_sig(buf, signature);
                put_u32(buf, *interference_bucket);
                put_time(buf, *now);
                match exclude_owner {
                    Some(t) => {
                        buf.push(1);
                        put_u64(buf, *t as u64);
                    }
                    None => buf.push(0),
                }
            }
            Request::Publish {
                tenant,
                namespace,
                signature,
                interference_bucket,
                allocation,
                tuned_at,
            } => {
                buf.push(OP_PUBLISH);
                put_u64(buf, *tenant as u64);
                put_u64(buf, *namespace);
                put_sig(buf, signature);
                put_u32(buf, *interference_bucket);
                put_alloc(buf, *allocation);
                put_time(buf, *tuned_at);
            }
            Request::CommitBatch { ops } => {
                buf.push(OP_COMMIT_BATCH);
                put_u32(buf, ops.len() as u32);
                for op in ops {
                    put_op(buf, op);
                }
            }
            Request::EvictStale { now } => {
                buf.push(OP_EVICT_STALE);
                put_time(buf, *now);
            }
            Request::EvictStaleShard { shard, now } => {
                buf.push(OP_EVICT_STALE_SHARD);
                put_u64(buf, *shard);
                put_time(buf, *now);
            }
            Request::Meta => buf.push(OP_META),
            Request::Stats => buf.push(OP_STATS),
            Request::ShardStats => buf.push(OP_SHARD_STATS),
            Request::Snapshot => buf.push(OP_SNAPSHOT),
        }
    }

    /// Decodes a frame body. Typed errors, never a panic.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let (version, opcode, payload) = split_body(body)?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion { got: version });
        }
        let mut c = Cursor::new(payload);
        let req = match opcode {
            OP_HELLO => Request::Hello {
                tenant: c.u64("hello tenant")? as TenantId,
            },
            OP_LOOKUP => Request::Lookup {
                tenant: c.u64("lookup tenant")? as TenantId,
                namespace: c.u64("lookup namespace")?,
                signature: c.sig()?,
                interference_bucket: c.u32("lookup bucket")?,
                now: c.time("lookup now")?,
            },
            OP_PEEK => Request::Peek {
                namespace: c.u64("peek namespace")?,
                signature: c.sig()?,
                interference_bucket: c.u32("peek bucket")?,
                now: c.time("peek now")?,
                exclude_owner: match c.u8("peek exclude tag")? {
                    0 => None,
                    1 => Some(c.u64("peek exclude owner")? as TenantId),
                    _ => {
                        return Err(WireError::Malformed {
                            context: "peek exclude tag",
                        })
                    }
                },
            },
            OP_PUBLISH => Request::Publish {
                tenant: c.u64("publish tenant")? as TenantId,
                namespace: c.u64("publish namespace")?,
                signature: c.sig()?,
                interference_bucket: c.u32("publish bucket")?,
                allocation: c.alloc()?,
                tuned_at: c.time("publish tuned_at")?,
            },
            OP_COMMIT_BATCH => {
                let n = c.u32("batch length")? as usize;
                let mut ops = Vec::new();
                for _ in 0..n {
                    ops.push(c.op()?);
                }
                Request::CommitBatch { ops }
            }
            OP_EVICT_STALE => Request::EvictStale {
                now: c.time("evict now")?,
            },
            OP_EVICT_STALE_SHARD => Request::EvictStaleShard {
                shard: c.u64("evict shard")?,
                now: c.time("evict now")?,
            },
            OP_META => Request::Meta,
            OP_STATS => Request::Stats,
            OP_SHARD_STATS => Request::ShardStats,
            OP_SNAPSHOT => Request::Snapshot,
            got => return Err(WireError::BadOpcode { got }),
        };
        c.done("trailing request bytes")?;
        Ok(req)
    }
}

impl Response {
    /// Serializes into a fresh frame body (version + opcode + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the frame body (version + opcode + payload) to `buf`; see
    /// [`Request::encode_into`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(PROTOCOL_VERSION);
        match self {
            Response::HelloOk { shard_count } => {
                buf.push(OP_HELLO_OK);
                put_u64(buf, *shard_count);
            }
            Response::Denied { reason } => {
                buf.push(OP_DENIED);
                put_str(buf, reason);
            }
            Response::Entry(entry) => {
                buf.push(OP_ENTRY);
                match entry {
                    Some(e) => {
                        buf.push(1);
                        put_entry(buf, e);
                    }
                    None => buf.push(0),
                }
            }
            Response::Peeked(result) => {
                buf.push(OP_PEEKED);
                match result {
                    Some((e, (anchor, count, dist))) => {
                        buf.push(1);
                        put_entry(buf, e);
                        put_u32(buf, *anchor);
                        put_u32(buf, *count);
                        put_f64(buf, *dist);
                    }
                    None => buf.push(0),
                }
            }
            Response::Ok => buf.push(OP_OK),
            Response::Applied(flags) => {
                buf.push(OP_APPLIED);
                put_u32(buf, flags.len() as u32);
                buf.extend(flags.iter().map(|&b| b as u8));
            }
            Response::Evicted(n) => {
                buf.push(OP_EVICTED);
                put_u64(buf, *n);
            }
            Response::Meta {
                shard_count,
                clock_secs,
                len,
                anchors,
            } => {
                buf.push(OP_META_R);
                put_u64(buf, *shard_count);
                put_f64(buf, *clock_secs);
                put_u64(buf, *len);
                put_u64(buf, *anchors);
            }
            Response::Stats(s) => {
                buf.push(OP_STATS_R);
                put_stats(buf, s);
            }
            Response::ShardStatsList(list) => {
                buf.push(OP_SHARD_STATS_R);
                put_u32(buf, list.len() as u32);
                for s in list {
                    put_stats(buf, s);
                }
            }
            Response::Snapshot(text) => {
                buf.push(OP_SNAPSHOT_R);
                put_str(buf, text);
            }
            Response::Error { message } => {
                buf.push(OP_ERROR);
                put_str(buf, message);
            }
        }
    }

    /// Decodes a frame body. Typed errors, never a panic.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let (version, opcode, payload) = split_body(body)?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion { got: version });
        }
        let mut c = Cursor::new(payload);
        let resp = match opcode {
            OP_HELLO_OK => Response::HelloOk {
                shard_count: c.u64("hello shard count")?,
            },
            OP_DENIED => Response::Denied {
                reason: c.string()?,
            },
            OP_ENTRY => Response::Entry(match c.u8("entry tag")? {
                0 => None,
                1 => Some(c.entry()?),
                _ => {
                    return Err(WireError::Malformed {
                        context: "entry tag",
                    })
                }
            }),
            OP_PEEKED => Response::Peeked(match c.u8("peeked tag")? {
                0 => None,
                1 => {
                    let entry = c.entry()?;
                    let anchor = c.u32("peeked anchor")?;
                    let count = c.u32("peeked anchor count")?;
                    let dist = c.f64("peeked distance")?;
                    Some((entry, (anchor, count, dist)))
                }
                _ => {
                    return Err(WireError::Malformed {
                        context: "peeked tag",
                    })
                }
            }),
            OP_OK => Response::Ok,
            OP_APPLIED => {
                let n = c.u32("applied length")? as usize;
                let bytes = c.take(n, "applied flags")?;
                Response::Applied(bytes.iter().map(|&b| b != 0).collect())
            }
            OP_EVICTED => Response::Evicted(c.u64("evicted count")?),
            OP_META_R => Response::Meta {
                shard_count: c.u64("meta shard count")?,
                clock_secs: c.f64("meta clock")?,
                len: c.u64("meta len")?,
                anchors: c.u64("meta anchors")?,
            },
            OP_STATS_R => Response::Stats(c.stats()?),
            OP_SHARD_STATS_R => {
                let n = c.u32("shard stats length")? as usize;
                let mut list = Vec::new();
                for _ in 0..n {
                    list.push(c.stats()?);
                }
                Response::ShardStatsList(list)
            }
            OP_SNAPSHOT_R => Response::Snapshot(c.string()?),
            OP_ERROR => Response::Error {
                message: c.string()?,
            },
            got => return Err(WireError::BadOpcode { got }),
        };
        c.done("trailing response bytes")?;
        Ok(resp)
    }
}

fn split_body(body: &[u8]) -> Result<(u8, u8, &[u8]), WireError> {
    if body.len() < 2 {
        return Err(WireError::Truncated {
            context: "frame header",
        });
    }
    Ok((body[0], body[1], &body[2..]))
}

/// Capacity each of a connection's two framing buffers starts with and
/// returns to after a larger frame. A constant, not a knob: every request
/// and reply of the lookup path is a few hundred bytes, and an idle session
/// pins two of these.
pub const FRAME_BUF_LEN: usize = 16 * 1024;

/// Validates a frame body length against [`MAX_FRAME_LEN`] and narrows it
/// to the prefix type. The comparison is made in `usize`, before narrowing —
/// a ≥ 4 GiB body must not wrap its way under the cap — and the error's
/// `len` saturates.
fn frame_len(body_len: usize) -> Result<u32, WireError> {
    let len = u32::try_from(body_len).unwrap_or(u32::MAX);
    if body_len <= MAX_FRAME_LEN as usize {
        Ok(len)
    } else {
        Err(WireError::Oversized { len })
    }
}

/// The one framing path: a byte stream plus the two reusable buffers every
/// frame of the connection passes through, in either direction.
///
/// # Contract
///
/// - **One `write` per frame.** [`send`](Self::send) encodes the body
///   straight behind four reserved prefix bytes, patches the prefix and
///   hands prefix and body to the stream in a single `write_all`. On a
///   `TCP_NODELAY` socket that is one segment and one peer wake-up per
///   frame instead of a bare prefix followed by its body.
/// - **Buffered reads, in order.** [`recv`](Self::recv) reads into spare
///   buffer space only when the buffered bytes do not already hold a whole
///   frame, so a prefix and its body — and any frames the peer sent behind
///   them — arrive in one `read` and are served from the buffer, in order,
///   before the stream is read again. The body is a slice of the buffer; no
///   per-frame allocation.
/// - **Bounded buffers.** Both buffers hold [`FRAME_BUF_LEN`] bytes. A frame
///   that does not fit grows its buffer to exactly that frame
///   (`4 + len ≤ 4 + MAX_FRAME_LEN`), and the buffer returns to
///   [`FRAME_BUF_LEN`] once the frame is written or consumed. A length
///   prefix over [`MAX_FRAME_LEN`] is [`WireError::Oversized`] as soon as
///   its four bytes are in — before anything grows.
#[derive(Debug)]
pub struct Framed<S> {
    stream: S,
    /// Prefix + body of the frame being sent.
    wbuf: Vec<u8>,
    /// Read buffer, fully initialized; received-but-unserved bytes are
    /// `rbuf[head..tail]`.
    rbuf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl<S> Framed<S> {
    /// Wraps `stream` with empty buffers.
    pub fn new(stream: S) -> Self {
        Framed {
            stream,
            wbuf: Vec::with_capacity(FRAME_BUF_LEN),
            rbuf: vec![0; FRAME_BUF_LEN],
            head: 0,
            tail: 0,
        }
    }

    /// Forgets the frame [`recv`](Self::recv) last returned and gives back
    /// whatever a larger-than-[`FRAME_BUF_LEN`] frame grew the read buffer
    /// by. `recv` does this on entry, before it can block; a caller that
    /// goes idle right after a frame (the client, between calls) does it
    /// itself.
    pub fn release(&mut self) {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        if self.rbuf.len() > FRAME_BUF_LEN && self.tail - self.head <= FRAME_BUF_LEN {
            self.compact();
            self.rbuf.truncate(FRAME_BUF_LEN);
            self.rbuf.shrink_to(FRAME_BUF_LEN);
        }
    }

    /// Moves the buffered bytes to the front of the buffer.
    fn compact(&mut self) {
        self.rbuf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
    }

    /// Ensures `rbuf[head..]` spans at least `need` bytes: compacts, then —
    /// only if the whole buffer is still too small — grows to exactly `need`.
    fn make_room(&mut self, need: usize) {
        if self.rbuf.len() - self.head >= need {
            return;
        }
        self.compact();
        if self.rbuf.len() < need {
            self.rbuf.reserve_exact(need - self.rbuf.len());
            self.rbuf.resize(need, 0);
        }
    }
}

impl<S: Write> Framed<S> {
    /// Sends one frame whose body `encode` appends to the buffer it is
    /// given ([`Request::encode_into`] / [`Response::encode_into`]), in one
    /// `write_all`. Returns the body length. A body over [`MAX_FRAME_LEN`]
    /// is [`WireError::Oversized`] and nothing is written.
    pub fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<usize, WireError> {
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0; 4]);
        encode(&mut self.wbuf);
        let body_len = self.wbuf.len() - 4;
        let sent = frame_len(body_len).and_then(|len| {
            self.wbuf[..4].copy_from_slice(&len.to_le_bytes());
            self.stream.write_all(&self.wbuf)?;
            self.stream.flush()?;
            Ok(body_len)
        });
        if self.wbuf.capacity() > FRAME_BUF_LEN {
            self.wbuf = Vec::with_capacity(FRAME_BUF_LEN);
        }
        sent
    }
}

impl<S: Read> Framed<S> {
    /// Receives one frame body, borrowed from the read buffer until the
    /// next call. `Ok(None)` is a clean end of stream (the peer closed
    /// between frames); a stream that dies mid-frame is
    /// [`WireError::Truncated`] naming the part it died in; a length prefix
    /// over [`MAX_FRAME_LEN`] is [`WireError::Oversized`].
    pub fn recv(&mut self) -> Result<Option<&[u8]>, WireError> {
        self.release();
        self.make_room(4);
        while self.tail - self.head < 4 {
            if self.fill()? == 0 {
                return if self.head == self.tail {
                    Ok(None)
                } else {
                    Err(WireError::Truncated {
                        context: "length prefix",
                    })
                };
            }
        }
        let prefix = &self.rbuf[self.head..self.head + 4];
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized { len });
        }
        let frame = 4 + len as usize;
        self.make_room(frame);
        let end = self.head + frame;
        while self.tail < end {
            if self.fill()? == 0 {
                return Err(WireError::Truncated {
                    context: "frame body",
                });
            }
        }
        let body = self.head + 4..end;
        self.head = end;
        Ok(Some(&self.rbuf[body]))
    }

    /// One `read` into the free space behind the buffered bytes; `Ok(0)` is
    /// end of stream.
    fn fill(&mut self) -> Result<usize, WireError> {
        loop {
            match self.stream.read(&mut self.rbuf[self.tail..]) {
                Ok(n) => {
                    self.tail += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).expect("decodes"), req);
    }

    fn round_trip_response(resp: Response) {
        let body = resp.encode();
        assert_eq!(Response::decode(&body).expect("decodes"), resp);
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        round_trip_request(Request::Hello { tenant: 7 });
        round_trip_request(Request::Lookup {
            tenant: 3,
            namespace: 11,
            signature: vec![1.5, -0.0, f64::MIN_POSITIVE, 1e300],
            interference_bucket: 2,
            now: SimTime::from_secs(3600.25),
        });
        round_trip_request(Request::Peek {
            namespace: 11,
            signature: vec![0.1 + 0.2],
            interference_bucket: 0,
            now: SimTime::ZERO,
            exclude_owner: Some(9),
        });
        round_trip_request(Request::Publish {
            tenant: 1,
            namespace: 2,
            signature: vec![10.0, 20.0],
            interference_bucket: 1,
            allocation: ResourceAllocation::extra_large(6),
            tuned_at: SimTime::from_secs(900.0),
        });
        round_trip_request(Request::CommitBatch {
            ops: vec![
                PendingOp::Publish {
                    tenant: 0,
                    namespace: 1,
                    signature: vec![5.0],
                    interference_bucket: 0,
                    allocation: ResourceAllocation::large(4),
                    tuned_at: SimTime::from_secs(10.0),
                },
                PendingOp::RecordHit {
                    tenant: 1,
                    namespace: 1,
                    signature: vec![5.0],
                    interference_bucket: 0,
                    resolved: Some((0, 1, 0.0123456789)),
                },
                PendingOp::RecordMiss { namespace: 2 },
            ],
        });
        round_trip_request(Request::EvictStale {
            now: SimTime::from_secs(7200.0),
        });
        round_trip_request(Request::EvictStaleShard {
            shard: 5,
            now: SimTime::from_secs(7200.0),
        });
        round_trip_request(Request::Meta);
        round_trip_request(Request::Stats);
        round_trip_request(Request::ShardStats);
        round_trip_request(Request::Snapshot);
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        round_trip_response(Response::HelloOk { shard_count: 16 });
        round_trip_response(Response::Denied {
            reason: "at capacity".into(),
        });
        round_trip_response(Response::Entry(Some(SharedEntry {
            allocation: ResourceAllocation::large(3),
            tuned_at: SimTime::from_secs(123.456),
            owner: 42,
            hits: 17,
            cross_tenant_hits: 5,
        })));
        round_trip_response(Response::Entry(None));
        round_trip_response(Response::Peeked(Some((
            SharedEntry {
                allocation: ResourceAllocation::extra_large(1),
                tuned_at: SimTime::ZERO,
                owner: 0,
                hits: 0,
                cross_tenant_hits: 0,
            },
            (3, 9, 0.07500000000000001),
        ))));
        round_trip_response(Response::Peeked(None));
        round_trip_response(Response::Ok);
        round_trip_response(Response::Applied(vec![true, false, true]));
        round_trip_response(Response::Evicted(99));
        round_trip_response(Response::Meta {
            shard_count: 16,
            clock_secs: 86400.5,
            len: 1000,
            anchors: 128,
        });
        round_trip_response(Response::Stats(ShardStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            cross_tenant_hits: 5,
            anchors_created: 6,
        }));
        round_trip_response(Response::ShardStatsList(vec![ShardStats::default(); 3]));
        round_trip_response(Response::Snapshot("{\"v\":1}".into()));
        round_trip_response(Response::Error {
            message: "bad".into(),
        });
    }

    #[test]
    fn truncated_frames_decode_to_typed_errors() {
        // Empty and one-byte bodies lack even the header.
        assert_eq!(
            Request::decode(&[]),
            Err(WireError::Truncated {
                context: "frame header"
            })
        );
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION]),
            Err(WireError::Truncated {
                context: "frame header"
            })
        );
        // A valid header with a short payload is malformed, not a panic.
        let mut body = Request::Lookup {
            tenant: 3,
            namespace: 11,
            signature: vec![1.0, 2.0],
            interference_bucket: 2,
            now: SimTime::ZERO,
        }
        .encode();
        body.truncate(body.len() - 3);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn bad_version_and_opcode_are_typed_errors() {
        assert_eq!(
            Request::decode(&[9, OP_META]),
            Err(WireError::BadVersion { got: 9 })
        );
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION, 200]),
            Err(WireError::BadOpcode { got: 200 })
        );
        assert_eq!(
            Response::decode(&[PROTOCOL_VERSION, 7]),
            Err(WireError::BadOpcode { got: 7 })
        );
    }

    #[test]
    fn oversized_and_truncated_streams_are_typed_errors() {
        // Prefix claims more than MAX_FRAME_LEN: rejected before allocation.
        let prefix = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut framed = Framed::new(&prefix[..]);
        assert_eq!(
            framed.recv(),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        assert_eq!(framed.rbuf.capacity(), FRAME_BUF_LEN);
        // Stream dies inside the prefix.
        assert_eq!(
            Framed::new(&[1u8, 0][..]).recv(),
            Err(WireError::Truncated {
                context: "length prefix"
            })
        );
        // Stream dies inside the body.
        let mut wire = wire_bytes(&[Request::Meta.encode()]);
        wire.pop();
        assert_eq!(
            Framed::new(&wire[..]).recv(),
            Err(WireError::Truncated {
                context: "frame body"
            })
        );
        // Clean end-of-stream between frames is not an error.
        assert_eq!(Framed::new(&[][..]).recv(), Ok(None));
    }

    /// The bytes an independent peer would put on the wire for `bodies`:
    /// a `u32` little-endian length, then the body, frame after frame.
    fn wire_bytes(bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        wire
    }

    /// A scripted stream: each `read` delivers (at most) the next chunk, the
    /// end of the script is end of stream, and everything written is kept
    /// together with the number of `write` calls it took.
    #[derive(Default)]
    struct Scripted {
        chunks: std::collections::VecDeque<Vec<u8>>,
        written: Vec<u8>,
        writes: usize,
    }

    impl Scripted {
        fn delivering(chunks: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Scripted {
                chunks: chunks.into_iter().filter(|c| !c.is_empty()).collect(),
                ..Scripted::default()
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(chunk) = self.chunks.front_mut() else {
                return Ok(0);
            };
            let n = buf.len().min(chunk.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Receives until the stream ends; the frames decoded so far and how it
    /// ended (`Ok(())` is a clean end between frames).
    fn drain(framed: &mut Framed<Scripted>) -> (Vec<Vec<u8>>, Result<(), WireError>) {
        let mut bodies = Vec::new();
        loop {
            match framed.recv() {
                Ok(Some(body)) => bodies.push(body.to_vec()),
                Ok(None) => return (bodies, Ok(())),
                Err(err) => return (bodies, Err(err)),
            }
        }
    }

    /// Frame bodies of every shape the buffer logic distinguishes: empty,
    /// tiny, typical, one that exactly fills the fixed buffer, one byte
    /// more, and one several buffers long.
    fn sample_bodies() -> Vec<Vec<u8>> {
        let filler = |n: usize| (0..n).map(|i| (i * 31 + n) as u8).collect::<Vec<u8>>();
        vec![
            Request::Hello { tenant: 7 }.encode(),
            Vec::new(),
            Request::Lookup {
                tenant: 3,
                namespace: 11,
                signature: (0..30).map(|i| i as f64 * 1.25).collect(),
                interference_bucket: 2,
                now: SimTime::from_secs(3600.25),
            }
            .encode(),
            filler(FRAME_BUF_LEN - 4),
            Request::Meta.encode(),
            filler(FRAME_BUF_LEN - 3),
            filler(1),
            filler(3 * FRAME_BUF_LEN + 17),
            Response::Entry(None).encode(),
        ]
    }

    #[test]
    fn frames_decode_identically_under_every_delivery_pattern() {
        let bodies = sample_bodies();
        let wire = wire_bytes(&bodies);
        let check = |chunks: Vec<Vec<u8>>, pattern: &str| {
            let mut framed = Framed::new(Scripted::delivering(chunks));
            let (got, end) = drain(&mut framed);
            assert_eq!(end, Ok(()), "{pattern}");
            assert!(got == bodies, "{pattern}: decoded frames differ");
            // The large frame is long consumed: the buffer is back at its
            // constant.
            assert_eq!(framed.rbuf.capacity(), FRAME_BUF_LEN, "{pattern}");
        };
        check(wire.iter().map(|&b| vec![b]).collect(), "a byte per read");
        check(vec![wire.clone()], "everything in one read");
        // Split at every byte offset of the small frames, and at every
        // offset around each frame boundary of the large ones.
        let mut boundaries = vec![0];
        for body in &bodies {
            boundaries.push(boundaries.last().expect("non-empty") + 4 + body.len());
        }
        for split in 1..wire.len() {
            let near_boundary = boundaries.iter().any(|&b| split.abs_diff(b) <= 8);
            let in_small_frame = boundaries
                .windows(2)
                .any(|w| w[0] < split && split < w[1] && w[1] - w[0] <= 512);
            if near_boundary || in_small_frame {
                check(
                    vec![wire[..split].to_vec(), wire[split..].to_vec()],
                    &format!("split at {split}"),
                );
            }
        }
    }

    #[test]
    fn end_of_stream_inside_a_frame_names_the_part_it_died_in() {
        let bodies = vec![
            Request::Meta.encode(),
            Request::Hello { tenant: 1 }.encode(),
        ];
        let wire = wire_bytes(&bodies);
        let second = 4 + bodies[0].len();
        for cut in 0..=wire.len() {
            for one_read in [true, false] {
                let delivered = wire[..cut].to_vec();
                let chunks = if one_read {
                    vec![delivered]
                } else {
                    delivered.iter().map(|&b| vec![b]).collect()
                };
                let (got, end) = drain(&mut Framed::new(Scripted::delivering(chunks)));
                // How far into which frame the stream died.
                let (whole, into) = if cut < second {
                    (0, cut)
                } else if cut < wire.len() {
                    (1, cut - second)
                } else {
                    (2, 0)
                };
                assert!(got == bodies[..whole], "cut at {cut}");
                let expected = match into {
                    0 => Ok(()),
                    1..=3 => Err(WireError::Truncated {
                        context: "length prefix",
                    }),
                    _ => Err(WireError::Truncated {
                        context: "frame body",
                    }),
                };
                assert_eq!(end, expected, "cut at {cut}");
            }
        }
    }

    #[test]
    fn an_oversized_prefix_is_refused_before_the_buffer_grows() {
        // Behind a served frame, with the hostile prefix split across reads
        // and followed by bytes that must never be waited for.
        let mut wire = wire_bytes(&[Request::Meta.encode()]);
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.extend_from_slice(&[0xAB; 64]);
        let split = wire.len() - 66;
        let chunks = vec![wire[..split].to_vec(), wire[split..].to_vec()];
        let mut framed = Framed::new(Scripted::delivering(chunks));
        let (got, end) = drain(&mut framed);
        assert_eq!(got, vec![Request::Meta.encode()]);
        assert_eq!(
            end,
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        assert_eq!(framed.rbuf.len(), FRAME_BUF_LEN);
        assert_eq!(framed.rbuf.capacity(), FRAME_BUF_LEN);
    }

    #[test]
    fn a_maximal_frame_leaves_both_buffers_at_their_constants() {
        let body = vec![0x5A; MAX_FRAME_LEN as usize];
        let mut sender = Framed::new(Scripted::default());
        assert_eq!(
            sender.send(|buf| buf.extend_from_slice(&body)),
            Ok(body.len())
        );
        assert_eq!(sender.stream.writes, 1, "prefix and body in one write");
        assert_eq!(sender.wbuf.capacity(), FRAME_BUF_LEN);
        // A small frame behind it rides the same buffer.
        sender
            .send(|buf| Request::Meta.encode_into(buf))
            .expect("small frame");
        let wire = std::mem::take(&mut sender.stream.written);
        assert!(wire == wire_bytes(&[body.clone(), Request::Meta.encode()]));

        let mut receiver = Framed::new(Scripted::delivering([wire]));
        assert!(receiver.recv().expect("maximal frame") == Some(&body[..]));
        // While the frame is borrowed the buffer holds exactly that frame…
        assert_eq!(receiver.rbuf.len(), 4 + MAX_FRAME_LEN as usize);
        // …and once it is released, the constant again — also when the
        // release is the next `recv`'s own.
        receiver.release();
        assert_eq!(receiver.rbuf.capacity(), FRAME_BUF_LEN);
        assert_eq!(
            receiver.recv().expect("small frame"),
            Some(&Request::Meta.encode()[..])
        );
        assert_eq!(receiver.recv(), Ok(None));
        assert_eq!(receiver.rbuf.capacity(), FRAME_BUF_LEN);
    }

    #[test]
    fn frame_length_is_checked_before_it_is_narrowed() {
        assert_eq!(frame_len(0), Ok(0));
        assert_eq!(frame_len(MAX_FRAME_LEN as usize), Ok(MAX_FRAME_LEN));
        assert_eq!(
            frame_len(MAX_FRAME_LEN as usize + 1),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        // Lengths that wrap to something small as a `u32` — no body of that
        // size is ever materialised here.
        #[cfg(target_pointer_width = "64")]
        for body_len in [1usize << 32, (1 << 32) + 5, (1 << 40) + 2, usize::MAX] {
            assert_eq!(
                frame_len(body_len),
                Err(WireError::Oversized { len: u32::MAX }),
                "{body_len}"
            );
        }
        // End to end: one byte over the cap is refused with nothing written
        // and the write buffer back at its constant.
        let mut framed = Framed::new(Scripted::default());
        assert_eq!(
            framed.send(|buf| buf.resize(buf.len() + MAX_FRAME_LEN as usize + 1, 0)),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        assert_eq!(framed.stream.writes, 0);
        assert_eq!(framed.wbuf.capacity(), FRAME_BUF_LEN);
    }

    #[test]
    fn hostile_signature_lengths_cannot_balloon_allocation() {
        // A signature length prefix far beyond the payload is malformed.
        let mut body = vec![PROTOCOL_VERSION, OP_PEEK];
        body.extend_from_slice(&11u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn hostile_times_and_signature_values_are_malformed() {
        let lookup = |now: f64, value: f64| {
            let mut body = vec![PROTOCOL_VERSION, OP_LOOKUP];
            body.extend_from_slice(&3u64.to_le_bytes());
            body.extend_from_slice(&11u64.to_le_bytes());
            body.extend_from_slice(&1u32.to_le_bytes());
            body.extend_from_slice(&value.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            body.extend_from_slice(&now.to_le_bytes());
            Request::decode(&body)
        };
        assert!(matches!(lookup(3600.0, 1.5), Ok(Request::Lookup { .. })));
        for now in [f64::NAN, -1.0, f64::INFINITY] {
            assert_eq!(
                lookup(now, 1.5),
                Err(WireError::Malformed {
                    context: "lookup now"
                }),
                "now = {now}"
            );
        }
        for value in [f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(
                lookup(0.0, value),
                Err(WireError::Malformed {
                    context: "signature value"
                }),
                "value = {value}"
            );
        }
        // Times inside a response go through the same check.
        let mut body = Response::Entry(Some(SharedEntry {
            allocation: ResourceAllocation::large(2),
            tuned_at: SimTime::from_secs(900.0),
            owner: 1,
            hits: 0,
            cross_tenant_hits: 0,
        }))
        .encode();
        let tuned_at = 900.0f64.to_le_bytes();
        let at = body
            .windows(8)
            .position(|w| w == tuned_at)
            .expect("tuned_at is on the wire");
        body[at..at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(
            Response::decode(&body),
            Err(WireError::Malformed {
                context: "tuned_at"
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Meta.encode();
        body.push(0);
        assert_eq!(
            Request::decode(&body),
            Err(WireError::Malformed {
                context: "trailing request bytes"
            })
        );
    }
}
