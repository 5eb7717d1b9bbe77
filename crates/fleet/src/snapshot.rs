//! Versioned, deterministic persistence for the fleet-shared signature
//! repository.
//!
//! A snapshot captures everything the repository needs to resume **bit
//! identically**: the sharding configuration, every namespace's anchors (in
//! anchor-id order, with full-precision centroid values), every entry with its
//! reuse counters, and the per-shard statistics. The φ-space ball-tree anchor
//! index is *not* serialized — it is a pure acceleration structure whose
//! results are provably identical to a linear scan, so the loader simply
//! rebuilds it.
//!
//! # Format
//!
//! The format is a line-oriented text format. It round-trips `f64`s
//! bit-exactly and emits byte-identical output for identical repositories
//! (floats are written as 16-digit hex IEEE bit patterns, `fb<bits>`). The
//! first line carries the format version and is checked on load:
//!
//! ```text
//! dejavu-fleet-snapshot v1
//! config shards=16 tolerance=fb3fb999999999999a ttl=none clock=fb40f5180000000000
//! namespace 42
//! anchor 0 fb4024000000000000 fb4034000000000000
//! entry 0 0 L 4 fb0000000000000000 7 12 3
//! shard 0 12 3 5 0 3 1
//! end
//! ```
//!
//! * `namespace <id>` starts a namespace block; `anchor <id> <values…>` lines
//!   list its anchors in id order (anchors whose dimensionality differs from
//!   the namespace's first non-empty anchor are the "misfits" of
//!   [`shared_repo`](crate::shared_repo) and are reconstructed as such);
//!   `entry <anchor> <bucket> <type> <count> <tuned_at> <owner> <hits>
//!   <cross_hits>` lines list its entries in key order.
//! * `shard <idx> <hits> <misses> <insertions> <evictions> <cross> <anchors>`
//!   lines restore the per-shard statistics counters.
//! * `end` terminates the snapshot; trailing garbage is rejected.
//!
//! Version policy: the major version (`v1`) changes whenever a change would
//! make an old snapshot decode to a *different* repository state; loaders
//! reject versions they do not understand rather than guessing. New optional
//! trailing fields within a line are **not** allowed — that would break the
//! byte-identical determinism guarantee tests rely on.

use crate::shared_repo::ShardStats;
use dejavu_cloud::{InstanceType, ResourceAllocation};

/// The version string written to (and required of) every snapshot.
pub const SNAPSHOT_VERSION: &str = "dejavu-fleet-snapshot v1";

/// The version string written to (and required of) every **delta** snapshot.
///
/// A delta is the `v1.1` incremental companion of the `v1` full format: it
/// carries the full replacement image of every namespace that changed on one
/// shard during one committed epoch, plus that shard's statistics counters
/// and the global clock high-water mark. Applying the epoch-ordered chain of
/// deltas for a shard onto a `v1` base snapshot reproduces the repository
/// state bit-exactly (namespaces are replaced wholesale, so there are no
/// partial-merge ambiguities and no deletion records — namespaces never
/// disappear, entries within one are replaced with the namespace).
pub const DELTA_SNAPSHOT_VERSION: &str = "dejavu-fleet-snapshot v1.1 delta";

/// Upper bound on the shard count a snapshot may declare. Real repositories
/// use a handful of lock stripes (default 16); the bound exists so a corrupt
/// or hostile `config shards=…` line is rejected with a typed error instead
/// of aborting the process inside a huge allocation.
pub const MAX_SHARDS: usize = 1 << 16;

/// The one statement of the shard-count bound: every snapshot reader and
/// every writer whose output must be readable again goes through it.
pub(crate) fn check_shard_count(shards: usize) -> Result<(), SnapshotError> {
    if (1..=MAX_SHARDS).contains(&shards) {
        Ok(())
    } else {
        Err(SnapshotError::Inconsistent {
            message: format!("shard count {shards} outside 1..={MAX_SHARDS}"),
        })
    }
}

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The version line did not match [`SNAPSHOT_VERSION`].
    Version {
        /// The version line actually found.
        found: String,
    },
    /// A line failed to parse.
    Format {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The decoded data is structurally inconsistent (e.g. anchor ids with
    /// gaps, entries referencing unknown anchors, shard index out of range).
    Inconsistent {
        /// What went wrong.
        message: String,
    },
    /// A delta chain was applied with no base snapshot. Deltas only carry the
    /// namespaces that *changed*; without the full base image the unchanged
    /// namespaces are unrecoverable, so this is always an error.
    MissingBase,
    /// A delta arrived out of epoch order for its shard. Chains must be
    /// applied in strictly consecutive epoch order — skipping an epoch would
    /// silently lose its changes, and replaying backwards would resurrect
    /// overwritten state.
    DeltaOrder {
        /// The shard whose chain broke order.
        shard: usize,
        /// The epoch the chain expected next.
        expected_epoch: usize,
        /// The epoch the delta actually carried.
        found_epoch: usize,
    },
    /// The delta does not belong to the base it was applied to (shard index
    /// out of range, or a namespace routed to a different shard — i.e. the
    /// base was taken with a different shard count).
    BaseMismatch {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Version { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found:?} (expected {SNAPSHOT_VERSION:?})"
                )
            }
            SnapshotError::Format { line, message } => {
                write!(f, "snapshot line {line}: {message}")
            }
            SnapshotError::Inconsistent { message } => {
                write!(f, "inconsistent snapshot: {message}")
            }
            SnapshotError::MissingBase => {
                write!(
                    f,
                    "delta chain has no base snapshot (deltas only carry changed \
                     namespaces; a full base is required)"
                )
            }
            SnapshotError::DeltaOrder {
                shard,
                expected_epoch,
                found_epoch,
            } => {
                write!(
                    f,
                    "delta chain for shard {shard} is out of order: expected epoch \
                     {expected_epoch}, found {found_epoch}"
                )
            }
            SnapshotError::BaseMismatch { message } => {
                write!(f, "delta does not match its base snapshot: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One anchor of a namespace: its id and full-precision centroid values.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorSnapshot {
    /// The anchor id (dense: ids cover `0..count`).
    pub id: u32,
    /// Full-catalogue signature values of the anchor centroid.
    pub values: Vec<f64>,
}

/// One stored entry of a namespace.
#[derive(Debug, Clone, PartialEq)]
pub struct EntrySnapshot {
    /// The anchor the entry is keyed under.
    pub anchor: u32,
    /// The interference bucket the entry is keyed under.
    pub bucket: u32,
    /// The cached allocation decision.
    pub allocation: ResourceAllocation,
    /// When a tuner produced the entry, in **global fleet time** (tenant
    /// views translate their local clocks at the publish boundary, so TTL
    /// staleness is coherent across tenants and across restarts).
    pub tuned_at_secs: f64,
    /// The tenant whose tuning produced the entry.
    pub owner: usize,
    /// Total lookups served from the entry.
    pub hits: u64,
    /// Lookups served to tenants other than the owner.
    pub cross_tenant_hits: u64,
}

/// One namespace: anchors in id order plus entries in key order.
#[derive(Debug, Clone, PartialEq)]
pub struct NamespaceSnapshot {
    /// The namespace id.
    pub id: u64,
    /// All anchors, in strictly increasing id order.
    pub anchors: Vec<AnchorSnapshot>,
    /// All entries, in `(anchor, bucket)` order.
    pub entries: Vec<EntrySnapshot>,
}

/// The complete, plain-data image of a [`crate::SharedSignatureRepository`].
///
/// Obtained from [`crate::SharedSignatureRepository::to_snapshot`] and turned
/// back into a repository by
/// [`crate::SharedSignatureRepository::from_snapshot`]; [`encode`] and
/// [`decode`] convert it to and from the persistent text form.
#[derive(Debug, Clone, PartialEq)]
pub struct RepoSnapshot {
    /// Number of lock-striped shards.
    pub shards: usize,
    /// The anchor match tolerance the repository was built with.
    pub match_tolerance: f64,
    /// TTL in seconds, if entries expire.
    pub ttl_secs: Option<f64>,
    /// The global fleet clock when the snapshot was taken (the high-water
    /// mark of times the repository has seen). A warm start resumes the
    /// fleet clock here, so entry ages — and with them TTL expiry — carry
    /// over restarts instead of resetting to zero.
    pub clock_secs: f64,
    /// Every non-empty namespace, in (shard index, namespace id) order.
    pub namespaces: Vec<NamespaceSnapshot>,
    /// Per-shard statistics counters, one per shard.
    pub shard_stats: Vec<ShardStats>,
}

/// One incremental checkpoint: everything that changed on one shard during
/// one committed epoch.
///
/// Changed namespaces are carried as **full replacement images** (the same
/// [`NamespaceSnapshot`] records the full format uses), so applying a delta
/// is a wholesale swap — no merge logic, no deletion records, and bit-exact
/// by construction. The shard's statistics counters travel with it because
/// they advance on every commit and sweep of the shard.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSnapshot {
    /// The shard the delta belongs to.
    pub shard: usize,
    /// The epoch whose commit (and trailing TTL sweep) the delta captures;
    /// the delta moves the shard from "commits < epoch" to
    /// "commits ≤ epoch".
    pub epoch: usize,
    /// The global fleet clock high-water mark when the delta was captured.
    pub clock_secs: f64,
    /// Full replacement images of every namespace that changed this epoch,
    /// in namespace-id order.
    pub namespaces: Vec<NamespaceSnapshot>,
    /// The shard's statistics counters after the commit.
    pub shard_stats: ShardStats,
}

impl RepoSnapshot {
    /// Compacts the snapshot in place: drops every entry that never served a
    /// lookup (`hits == 0`), the dead weight a long-lived fleet cache
    /// accretes from one-off workloads. Anchors are kept even when their
    /// last entry goes — restore requires dense anchor ids, and a warm
    /// workload may re-publish under an existing anchor. Returns how many
    /// entries were dropped.
    pub fn compact(&mut self) -> usize {
        let mut dropped = 0;
        for ns in &mut self.namespaces {
            let before = ns.entries.len();
            ns.entries.retain(|e| e.hits > 0);
            dropped += before - ns.entries.len();
        }
        dropped
    }
}

/// Encodes an `f64` as its IEEE-754 bit pattern (`fb` + 16 hex digits):
/// bit-exact and byte-deterministic, unlike decimal formatting.
fn write_f64(out: &mut String, v: f64) {
    out.push_str("fb");
    out.push_str(&format!("{:016x}", v.to_bits()));
}

fn parse_f64(tok: &str) -> Option<f64> {
    let hex = tok.strip_prefix("fb")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

/// Serializes a snapshot to the versioned text format. Output is
/// byte-deterministic: identical repositories encode to identical strings.
pub fn encode(snapshot: &RepoSnapshot) -> String {
    let mut out = String::new();
    out.push_str(SNAPSHOT_VERSION);
    out.push('\n');
    out.push_str(&format!("config shards={} tolerance=", snapshot.shards));
    write_f64(&mut out, snapshot.match_tolerance);
    out.push_str(" ttl=");
    match snapshot.ttl_secs {
        Some(secs) => write_f64(&mut out, secs),
        None => out.push_str("none"),
    }
    out.push_str(" clock=");
    write_f64(&mut out, snapshot.clock_secs);
    out.push('\n');
    for ns in &snapshot.namespaces {
        encode_namespace(&mut out, ns);
    }
    for (idx, s) in snapshot.shard_stats.iter().enumerate() {
        out.push_str(&format!("shard {idx} "));
        write_stats_fields(&mut out, s);
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// Writes one namespace block (shared between the full and delta encoders).
fn encode_namespace(out: &mut String, ns: &NamespaceSnapshot) {
    out.push_str(&format!("namespace {}\n", ns.id));
    for anchor in &ns.anchors {
        out.push_str(&format!("anchor {}", anchor.id));
        for &v in &anchor.values {
            out.push(' ');
            write_f64(out, v);
        }
        out.push('\n');
    }
    for e in &ns.entries {
        let ty = match e.allocation.instance_type() {
            InstanceType::Large => 'L',
            InstanceType::ExtraLarge => 'X',
        };
        out.push_str(&format!(
            "entry {} {} {} {} ",
            e.anchor,
            e.bucket,
            ty,
            e.allocation.count()
        ));
        write_f64(out, e.tuned_at_secs);
        out.push_str(&format!(
            " {} {} {}\n",
            e.owner, e.hits, e.cross_tenant_hits
        ));
    }
}

/// Writes the six statistics counters in the order every stats-bearing
/// record uses (`shard` in the full format, `stats` in the delta format).
fn write_stats_fields(out: &mut String, s: &ShardStats) {
    out.push_str(&format!(
        "{} {} {} {} {} {}",
        s.hits, s.misses, s.insertions, s.evictions, s.cross_tenant_hits, s.anchors_created
    ));
}

/// Serializes a delta to the versioned `v1.1` text format. Output is
/// byte-deterministic, like [`encode`].
pub fn encode_delta(delta: &DeltaSnapshot) -> String {
    let mut out = String::new();
    out.push_str(DELTA_SNAPSHOT_VERSION);
    out.push('\n');
    out.push_str(&format!(
        "delta shard={} epoch={} clock=",
        delta.shard, delta.epoch
    ));
    write_f64(&mut out, delta.clock_secs);
    out.push('\n');
    for ns in &delta.namespaces {
        encode_namespace(&mut out, ns);
    }
    out.push_str("stats ");
    write_stats_fields(&mut out, &delta.shard_stats);
    out.push('\n');
    out.push_str("end\n");
    out
}

fn format_err(line: usize, message: impl Into<String>) -> SnapshotError {
    SnapshotError::Format {
        line,
        message: message.into(),
    }
}

fn parse_int<T: std::str::FromStr>(tok: &str, line: usize, what: &str) -> Result<T, SnapshotError> {
    tok.parse()
        .map_err(|_| format_err(line, format!("bad {what} {tok:?}")))
}

fn parse_float(tok: &str, line: usize, what: &str) -> Result<f64, SnapshotError> {
    parse_f64(tok).ok_or_else(|| {
        format_err(
            line,
            format!("bad {what} {tok:?} (expected fb<16 hex digits>)"),
        )
    })
}

/// [`parse_float`] for a time or a duration, which must be finite and
/// non-negative (what `SimTime` and `SimDuration` accept).
fn parse_time(tok: &str, line: usize, what: &str) -> Result<f64, SnapshotError> {
    let secs = parse_float(tok, line, what)?;
    if secs.is_finite() && secs >= 0.0 {
        Ok(secs)
    } else {
        Err(format_err(
            line,
            format!("bad {what} {secs} (expected a finite, non-negative time)"),
        ))
    }
}

/// Parses an `anchor <id> <values…>` record (head token already consumed).
fn parse_anchor(
    toks: &mut std::str::SplitWhitespace,
    line_no: usize,
) -> Result<AnchorSnapshot, SnapshotError> {
    let id = parse_int::<u32>(
        toks.next()
            .ok_or_else(|| format_err(line_no, "anchor needs an id"))?,
        line_no,
        "anchor id",
    )?;
    let values = toks
        .map(|t| parse_float(t, line_no, "anchor value"))
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(AnchorSnapshot { id, values })
}

/// Parses an `entry …` record (head token already consumed).
fn parse_entry(
    toks: &mut std::str::SplitWhitespace,
    line_no: usize,
) -> Result<EntrySnapshot, SnapshotError> {
    let mut next = |what: &str| {
        toks.next()
            .ok_or_else(|| format_err(line_no, format!("entry is missing {what}")))
    };
    let anchor = parse_int::<u32>(next("anchor")?, line_no, "entry anchor")?;
    let bucket = parse_int::<u32>(next("bucket")?, line_no, "entry bucket")?;
    let ty = match next("instance type")? {
        "L" => InstanceType::Large,
        "X" => InstanceType::ExtraLarge,
        other => return Err(format_err(line_no, format!("bad instance type {other:?}"))),
    };
    let count = parse_int::<u32>(next("count")?, line_no, "entry count")?;
    let tuned_at_secs = parse_time(next("tuned_at")?, line_no, "tuned_at")?;
    let owner = parse_int::<usize>(next("owner")?, line_no, "entry owner")?;
    let hits = parse_int::<u64>(next("hits")?, line_no, "entry hits")?;
    let cross = parse_int::<u64>(next("cross hits")?, line_no, "entry cross hits")?;
    if toks.next().is_some() {
        return Err(format_err(line_no, "trailing tokens after entry"));
    }
    let allocation = ResourceAllocation::new(ty, count)
        .map_err(|e| format_err(line_no, format!("bad allocation: {e}")))?;
    Ok(EntrySnapshot {
        anchor,
        bucket,
        allocation,
        tuned_at_secs,
        owner,
        hits,
        cross_tenant_hits: cross,
    })
}

/// Parses the six statistics counters of a `shard`/`stats` record and
/// rejects trailing tokens. `record` names the record kind in errors.
fn parse_stats_fields(
    toks: &mut std::str::SplitWhitespace,
    line_no: usize,
    record: &str,
) -> Result<ShardStats, SnapshotError> {
    let mut next = |what: &str| {
        toks.next()
            .ok_or_else(|| format_err(line_no, format!("{record} is missing {what}")))
    };
    let stats = ShardStats {
        hits: parse_int(next("hits")?, line_no, "shard hits")?,
        misses: parse_int(next("misses")?, line_no, "shard misses")?,
        insertions: parse_int(next("insertions")?, line_no, "shard insertions")?,
        evictions: parse_int(next("evictions")?, line_no, "shard evictions")?,
        cross_tenant_hits: parse_int(next("cross")?, line_no, "shard cross hits")?,
        anchors_created: parse_int(next("anchors")?, line_no, "shard anchors")?,
    };
    if toks.next().is_some() {
        return Err(format_err(
            line_no,
            format!("trailing tokens after {record}"),
        ));
    }
    Ok(stats)
}

/// Parses the versioned text format back into a [`RepoSnapshot`].
pub fn decode(text: &str) -> Result<RepoSnapshot, SnapshotError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (_, version) = lines.next().ok_or_else(|| SnapshotError::Version {
        found: String::new(),
    })?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version {
            found: version.to_string(),
        });
    }

    let (config_line_no, config_line) = lines
        .next()
        .ok_or_else(|| format_err(2, "missing config line"))?;
    let mut shards = None;
    let mut tolerance = None;
    let mut ttl_secs = None;
    let mut clock_secs = None;
    let mut fields = config_line.split_whitespace();
    if fields.next() != Some("config") {
        return Err(format_err(config_line_no, "expected `config ...`"));
    }
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format_err(config_line_no, format!("bad config field {field:?}")))?;
        match key {
            "shards" => shards = Some(parse_int::<usize>(value, config_line_no, "shard count")?),
            "tolerance" => tolerance = Some(parse_float(value, config_line_no, "tolerance")?),
            "ttl" => {
                ttl_secs = Some(if value == "none" {
                    None
                } else {
                    Some(parse_time(value, config_line_no, "ttl")?)
                })
            }
            "clock" => clock_secs = Some(parse_time(value, config_line_no, "clock")?),
            other => {
                return Err(format_err(
                    config_line_no,
                    format!("unknown config key {other:?}"),
                ))
            }
        }
    }
    let shards = shards.ok_or_else(|| format_err(config_line_no, "config is missing `shards`"))?;
    let match_tolerance =
        tolerance.ok_or_else(|| format_err(config_line_no, "config is missing `tolerance`"))?;
    let ttl_secs = ttl_secs.ok_or_else(|| format_err(config_line_no, "config is missing `ttl`"))?;
    let clock_secs =
        clock_secs.ok_or_else(|| format_err(config_line_no, "config is missing `clock`"))?;

    let mut namespaces: Vec<NamespaceSnapshot> = Vec::new();
    let mut shard_stats: Vec<(usize, ShardStats)> = Vec::new();
    let mut ended = false;
    for (line_no, line) in &mut lines {
        let mut toks = line.split_whitespace();
        let Some(head) = toks.next() else {
            return Err(format_err(line_no, "blank line"));
        };
        match head {
            "namespace" => {
                let id = parse_int::<u64>(
                    toks.next()
                        .ok_or_else(|| format_err(line_no, "namespace needs an id"))?,
                    line_no,
                    "namespace id",
                )?;
                if toks.next().is_some() {
                    return Err(format_err(line_no, "trailing tokens after namespace id"));
                }
                namespaces.push(NamespaceSnapshot {
                    id,
                    anchors: Vec::new(),
                    entries: Vec::new(),
                });
            }
            "anchor" => {
                let ns = namespaces
                    .last_mut()
                    .ok_or_else(|| format_err(line_no, "anchor before any namespace"))?;
                if !ns.entries.is_empty() {
                    return Err(format_err(line_no, "anchor after entries in a namespace"));
                }
                ns.anchors.push(parse_anchor(&mut toks, line_no)?);
            }
            "entry" => {
                let ns = namespaces
                    .last_mut()
                    .ok_or_else(|| format_err(line_no, "entry before any namespace"))?;
                ns.entries.push(parse_entry(&mut toks, line_no)?);
            }
            "shard" => {
                let idx = parse_int::<usize>(
                    toks.next()
                        .ok_or_else(|| format_err(line_no, "shard is missing index"))?,
                    line_no,
                    "shard index",
                )?;
                shard_stats.push((idx, parse_stats_fields(&mut toks, line_no, "shard")?));
            }
            "end" => {
                ended = true;
                break;
            }
            other => return Err(format_err(line_no, format!("unknown record {other:?}"))),
        }
    }
    if !ended {
        return Err(SnapshotError::Inconsistent {
            message: "snapshot is truncated (no `end` line)".into(),
        });
    }
    if let Some((line_no, _)) = lines.next() {
        return Err(format_err(line_no, "data after `end`"));
    }

    check_shard_count(shards)?;
    let mut stats = vec![ShardStats::default(); shards];
    let mut seen = vec![false; shards];
    for (idx, s) in shard_stats {
        if idx >= shards {
            return Err(SnapshotError::Inconsistent {
                message: format!("shard index {idx} out of range (shards={shards})"),
            });
        }
        if std::mem::replace(&mut seen[idx], true) {
            return Err(SnapshotError::Inconsistent {
                message: format!("duplicate shard record {idx}"),
            });
        }
        stats[idx] = s;
    }
    // The encoder always writes one record per shard; a gap means the
    // snapshot was truncated or hand-mangled. Reject rather than silently
    // zero that shard's statistics.
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(SnapshotError::Inconsistent {
            message: format!("missing shard record {missing} (shards={shards})"),
        });
    }

    Ok(RepoSnapshot {
        shards,
        match_tolerance,
        ttl_secs,
        clock_secs,
        namespaces,
        shard_stats: stats,
    })
}

/// Parses the `v1.1` delta text format back into a [`DeltaSnapshot`].
///
/// Feeding a full `v1` snapshot (or any other version) here is rejected with
/// [`SnapshotError::Version`], and vice versa for [`decode`] — a chain whose
/// base and deltas disagree on format version can never be silently applied.
pub fn decode_delta(text: &str) -> Result<DeltaSnapshot, SnapshotError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (_, version) = lines.next().ok_or_else(|| SnapshotError::Version {
        found: String::new(),
    })?;
    if version != DELTA_SNAPSHOT_VERSION {
        return Err(SnapshotError::Version {
            found: version.to_string(),
        });
    }

    let (header_no, header) = lines
        .next()
        .ok_or_else(|| format_err(2, "missing delta header line"))?;
    let mut shard = None;
    let mut epoch = None;
    let mut clock_secs = None;
    let mut fields = header.split_whitespace();
    if fields.next() != Some("delta") {
        return Err(format_err(header_no, "expected `delta ...`"));
    }
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format_err(header_no, format!("bad delta field {field:?}")))?;
        match key {
            "shard" => shard = Some(parse_int::<usize>(value, header_no, "delta shard")?),
            "epoch" => epoch = Some(parse_int::<usize>(value, header_no, "delta epoch")?),
            "clock" => clock_secs = Some(parse_time(value, header_no, "delta clock")?),
            other => {
                return Err(format_err(
                    header_no,
                    format!("unknown delta key {other:?}"),
                ))
            }
        }
    }
    let shard = shard.ok_or_else(|| format_err(header_no, "delta is missing `shard`"))?;
    let epoch = epoch.ok_or_else(|| format_err(header_no, "delta is missing `epoch`"))?;
    let clock_secs = clock_secs.ok_or_else(|| format_err(header_no, "delta is missing `clock`"))?;

    let mut namespaces: Vec<NamespaceSnapshot> = Vec::new();
    let mut shard_stats: Option<ShardStats> = None;
    let mut ended = false;
    for (line_no, line) in &mut lines {
        let mut toks = line.split_whitespace();
        let Some(head) = toks.next() else {
            return Err(format_err(line_no, "blank line"));
        };
        match head {
            "namespace" => {
                let id = parse_int::<u64>(
                    toks.next()
                        .ok_or_else(|| format_err(line_no, "namespace needs an id"))?,
                    line_no,
                    "namespace id",
                )?;
                if toks.next().is_some() {
                    return Err(format_err(line_no, "trailing tokens after namespace id"));
                }
                namespaces.push(NamespaceSnapshot {
                    id,
                    anchors: Vec::new(),
                    entries: Vec::new(),
                });
            }
            "anchor" => {
                let ns = namespaces
                    .last_mut()
                    .ok_or_else(|| format_err(line_no, "anchor before any namespace"))?;
                if !ns.entries.is_empty() {
                    return Err(format_err(line_no, "anchor after entries in a namespace"));
                }
                ns.anchors.push(parse_anchor(&mut toks, line_no)?);
            }
            "entry" => {
                let ns = namespaces
                    .last_mut()
                    .ok_or_else(|| format_err(line_no, "entry before any namespace"))?;
                ns.entries.push(parse_entry(&mut toks, line_no)?);
            }
            "stats" => {
                if shard_stats.is_some() {
                    return Err(format_err(line_no, "duplicate stats record"));
                }
                shard_stats = Some(parse_stats_fields(&mut toks, line_no, "stats")?);
            }
            "end" => {
                ended = true;
                break;
            }
            other => return Err(format_err(line_no, format!("unknown record {other:?}"))),
        }
    }
    if !ended {
        return Err(SnapshotError::Inconsistent {
            message: "delta is truncated (no `end` line)".into(),
        });
    }
    if let Some((line_no, _)) = lines.next() {
        return Err(format_err(line_no, "data after `end`"));
    }
    let shard_stats = shard_stats.ok_or_else(|| SnapshotError::Inconsistent {
        message: "delta is missing its `stats` record".into(),
    })?;
    Ok(DeltaSnapshot {
        shard,
        epoch,
        clock_secs,
        namespaces,
        shard_stats,
    })
}

/// Applies one delta onto a base snapshot in place: replaces (or inserts)
/// every namespace the delta carries, overwrites the shard's statistics, and
/// advances the clock high-water mark. Namespace placement preserves the
/// encoder's (shard, namespace id) order, so a materialized snapshot is
/// byte-identical to one taken from a live repository in the same state.
///
/// Epoch ordering is *not* checked here — that is the chain's job
/// ([`apply_chain`]) — but shard routing is: a delta whose namespaces do not
/// route to its declared shard under the base's shard count was taken from a
/// differently-configured repository and is rejected with
/// [`SnapshotError::BaseMismatch`].
pub fn apply_delta(base: &mut RepoSnapshot, delta: &DeltaSnapshot) -> Result<(), SnapshotError> {
    if delta.shard >= base.shards {
        return Err(SnapshotError::BaseMismatch {
            message: format!(
                "delta shard {} out of range (base has {} shards)",
                delta.shard, base.shards
            ),
        });
    }
    let shard_of = |ns: u64| crate::shared_repo::shard_of_namespace(ns, base.shards);
    for ns in &delta.namespaces {
        let routed = shard_of(ns.id);
        if routed != delta.shard {
            return Err(SnapshotError::BaseMismatch {
                message: format!(
                    "namespace {} routes to shard {routed}, not the delta's shard {} \
                     (base taken with a different shard count?)",
                    ns.id, delta.shard
                ),
            });
        }
        let key = (routed, ns.id);
        match base
            .namespaces
            .binary_search_by_key(&key, |existing| (shard_of(existing.id), existing.id))
        {
            Ok(at) => base.namespaces[at] = ns.clone(),
            Err(at) => base.namespaces.insert(at, ns.clone()),
        }
    }
    base.shard_stats[delta.shard] = delta.shard_stats;
    if delta.clock_secs > base.clock_secs {
        base.clock_secs = delta.clock_secs;
    }
    Ok(())
}

/// Applies an epoch-ordered chain of deltas onto its base snapshot and
/// returns the materialized state.
///
/// * `base = None` models a lost (or never-written) base checkpoint:
///   unrecoverable, because deltas only carry *changed* namespaces —
///   [`SnapshotError::MissingBase`].
/// * Per shard, deltas must arrive in strictly consecutive epoch order; the
///   first delta seen for a shard anchors its chain (the base may already
///   fold earlier epochs in, via compaction). A gap or a replay is
///   [`SnapshotError::DeltaOrder`].
pub fn apply_chain(
    base: Option<RepoSnapshot>,
    deltas: &[DeltaSnapshot],
) -> Result<RepoSnapshot, SnapshotError> {
    let mut snapshot = base.ok_or(SnapshotError::MissingBase)?;
    let mut next_epoch: Vec<Option<usize>> = vec![None; snapshot.shards];
    for delta in deltas {
        if delta.shard >= snapshot.shards {
            return Err(SnapshotError::BaseMismatch {
                message: format!(
                    "delta shard {} out of range (base has {} shards)",
                    delta.shard, snapshot.shards
                ),
            });
        }
        if let Some(expected) = next_epoch[delta.shard] {
            if delta.epoch != expected {
                return Err(SnapshotError::DeltaOrder {
                    shard: delta.shard,
                    expected_epoch: expected,
                    found_epoch: delta.epoch,
                });
            }
        }
        apply_delta(&mut snapshot, delta)?;
        next_epoch[delta.shard] = Some(delta.epoch + 1);
    }
    Ok(snapshot)
}

/// The recovery substrate of the fault-tolerant transports: one base
/// snapshot plus a per-shard chain of epoch deltas, with bounded-length
/// compaction.
///
/// The committer [`record`](CheckpointStore::record)s one delta per
/// `(shard, epoch)` commit; recovery [`materialize`](CheckpointStore::materialize)s
/// the repository image at any retained epoch frontier (crash replay, shard
/// re-seed). Chains are kept short by folding deltas into a per-shard
/// *folded* image every `checkpoint_every` records — but never past the
/// shard's [`floor`](CheckpointStore::set_floor): the oldest epoch a pending
/// recovery may still need to replay from. A floor of `usize::MAX` (the
/// default) lets compaction fold everything.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    base: RepoSnapshot,
    chains: Vec<ShardChain>,
    checkpoint_every: usize,
    checkpoints: u64,
    compactions: u64,
    chain_peak: usize,
}

#[derive(Debug, Clone)]
struct ShardChain {
    /// The base with epochs `0..folded_epochs` of this shard folded in
    /// (`None` until the first compaction: read through to the shared base).
    folded: Option<RepoSnapshot>,
    folded_epochs: usize,
    /// Deltas for epochs `folded_epochs..folded_epochs + deltas.len()`,
    /// strictly consecutive.
    deltas: Vec<DeltaSnapshot>,
    /// Compaction never folds epochs `>= floor`.
    floor: usize,
}

impl CheckpointStore {
    /// A store over `base` (the quiescent run-start image), compacting each
    /// shard's chain whenever it exceeds `checkpoint_every` deltas
    /// (`0` = never compact).
    pub fn new(base: RepoSnapshot, checkpoint_every: usize) -> Self {
        let shards = base.shards;
        CheckpointStore {
            base,
            chains: (0..shards)
                .map(|_| ShardChain {
                    folded: None,
                    folded_epochs: 0,
                    deltas: Vec::new(),
                    floor: usize::MAX,
                })
                .collect(),
            checkpoint_every,
            checkpoints: 0,
            compactions: 0,
            chain_peak: 0,
        }
    }

    /// Rebuilds a store from a *recovered* image whose shards already hold
    /// history: `base` is the merged replay result and `chain_starts[shard]`
    /// is the epoch count it already folds in for that shard, so the next
    /// [`record`](CheckpointStore::record) for the shard must carry exactly
    /// that epoch. The durable layer boots through this after replaying its
    /// manifest.
    ///
    /// Each chain starts empty with its folded head at `chain_starts[shard]`
    /// reading through to the shared `base` — correct because the recovered
    /// image *is* every shard's merged prefix, and
    /// [`materialize`](CheckpointStore::materialize) only ever reads the
    /// caller's own shard from it.
    pub fn resume(
        base: RepoSnapshot,
        chain_starts: &[usize],
        checkpoint_every: usize,
    ) -> Result<Self, SnapshotError> {
        if chain_starts.len() != base.shards {
            return Err(SnapshotError::BaseMismatch {
                message: format!(
                    "resume carries {} chain starts, base has {} shards",
                    chain_starts.len(),
                    base.shards
                ),
            });
        }
        Ok(CheckpointStore {
            chains: chain_starts
                .iter()
                .map(|&start| ShardChain {
                    folded: None,
                    folded_epochs: start,
                    deltas: Vec::new(),
                    floor: usize::MAX,
                })
                .collect(),
            base,
            checkpoint_every,
            checkpoints: 0,
            compactions: 0,
            chain_peak: 0,
        })
    }

    /// Declares that epochs `>= epoch` of `shard` must stay individually
    /// replayable (a pending tenant recovery may need them); compaction will
    /// not fold past it. Raising the floor re-enables compaction of the
    /// backlog at the next [`record`](CheckpointStore::record).
    ///
    /// A floor below the shard's already-folded chain head is unhonourable:
    /// those epochs are gone, and a recovery that later trusted the stale
    /// floor would ask [`materialize`](CheckpointStore::materialize) for an
    /// image compaction folded away. The request is clamped to the chain
    /// head instead, and the **effective** floor is returned so callers can
    /// observe the adjustment.
    pub fn set_floor(&mut self, shard: usize, epoch: usize) -> usize {
        match self.chains.get_mut(shard) {
            Some(chain) => {
                let effective = epoch.max(chain.folded_epochs);
                chain.floor = effective;
                effective
            }
            None => epoch,
        }
    }

    /// The current compaction floor of `shard` (`usize::MAX` = unpinned).
    pub fn floor(&self, shard: usize) -> usize {
        self.chains.get(shard).map_or(usize::MAX, |c| c.floor)
    }

    /// Appends one captured delta to its shard's chain. Deltas must arrive
    /// in strictly consecutive epoch order per shard (the committer's commit
    /// order guarantees it).
    pub fn record(&mut self, delta: DeltaSnapshot) -> Result<(), SnapshotError> {
        if delta.shard >= self.chains.len() {
            return Err(SnapshotError::BaseMismatch {
                message: format!(
                    "delta shard {} out of range (store has {} shards)",
                    delta.shard,
                    self.chains.len()
                ),
            });
        }
        let shard = delta.shard;
        let expected = {
            let chain = &self.chains[shard];
            chain.folded_epochs + chain.deltas.len()
        };
        if delta.epoch != expected {
            return Err(SnapshotError::DeltaOrder {
                shard,
                expected_epoch: expected,
                found_epoch: delta.epoch,
            });
        }
        self.chains[shard].deltas.push(delta);
        self.checkpoints += 1;
        let result = self.compact(shard);
        self.chain_peak = self.chain_peak.max(self.chains[shard].deltas.len());
        result
    }

    /// Folds the compactable prefix of `shard`'s chain into its folded image
    /// when the chain has outgrown the cadence.
    fn compact(&mut self, shard: usize) -> Result<(), SnapshotError> {
        if self.checkpoint_every == 0 {
            return Ok(());
        }
        let chain = &mut self.chains[shard];
        if chain.deltas.len() < self.checkpoint_every {
            return Ok(());
        }
        let compactable = chain
            .floor
            .saturating_sub(chain.folded_epochs)
            .min(chain.deltas.len());
        if compactable == 0 {
            return Ok(());
        }
        let mut folded = chain.folded.take().unwrap_or_else(|| self.base.clone());
        for delta in chain.deltas.drain(..compactable) {
            apply_delta(&mut folded, &delta)?;
            chain.folded_epochs += 1;
        }
        chain.folded = Some(folded);
        self.compactions += 1;
        Ok(())
    }

    /// Materializes the repository image of `shard` after `upto` committed
    /// epochs (`upto = 0` is the base). Other shards carry whatever the
    /// folded image holds for them — callers re-seeding or replaying one
    /// shard never read the rest.
    pub fn materialize(&self, shard: usize, upto: usize) -> Result<RepoSnapshot, SnapshotError> {
        let chain = self.chains.get(shard).ok_or(SnapshotError::BaseMismatch {
            message: format!(
                "shard {shard} out of range (store has {} shards)",
                self.chains.len()
            ),
        })?;
        if upto < chain.folded_epochs {
            return Err(SnapshotError::Inconsistent {
                message: format!(
                    "shard {shard} epoch {upto} was compacted away (folded through {})",
                    chain.folded_epochs
                ),
            });
        }
        let keep = upto - chain.folded_epochs;
        if keep > chain.deltas.len() {
            return Err(SnapshotError::Inconsistent {
                message: format!(
                    "shard {shard} chain ends at epoch {}, cannot materialize {upto}",
                    chain.folded_epochs + chain.deltas.len()
                ),
            });
        }
        let mut snapshot = chain.folded.clone().unwrap_or_else(|| self.base.clone());
        for delta in &chain.deltas[..keep] {
            apply_delta(&mut snapshot, delta)?;
        }
        Ok(snapshot)
    }

    /// The retained delta of `(shard, epoch)`, for epoch-by-epoch replay.
    pub fn delta(&self, shard: usize, epoch: usize) -> Result<DeltaSnapshot, SnapshotError> {
        let chain = self.chains.get(shard).ok_or(SnapshotError::BaseMismatch {
            message: format!(
                "shard {shard} out of range (store has {} shards)",
                self.chains.len()
            ),
        })?;
        if epoch < chain.folded_epochs {
            return Err(SnapshotError::Inconsistent {
                message: format!(
                    "shard {shard} epoch {epoch} was compacted away (folded through {})",
                    chain.folded_epochs
                ),
            });
        }
        chain
            .deltas
            .get(epoch - chain.folded_epochs)
            .cloned()
            .ok_or(SnapshotError::Inconsistent {
                message: format!("shard {shard} has no delta for epoch {epoch} yet"),
            })
    }

    /// Deltas recorded so far (compacted ones included).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Compaction passes run so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The longest un-compacted chain any shard reached after a record's
    /// compaction pass — the store's peak memory pressure. Bounded on long
    /// runs only if floors advance as tenancy windows close.
    pub fn chain_peak(&self) -> usize {
        self.chain_peak
    }

    /// Un-compacted chain length of `shard`.
    pub fn chain_len(&self, shard: usize) -> usize {
        self.chains.get(shard).map_or(0, |c| c.deltas.len())
    }

    /// The exclusive end of `shard`'s recorded history: the highest epoch
    /// count [`materialize`](CheckpointStore::materialize) can produce
    /// (folded epochs plus the live chain).
    pub fn chain_end(&self, shard: usize) -> usize {
        self.chains
            .get(shard)
            .map_or(0, |c| c.folded_epochs + c.deltas.len())
    }

    /// How many of `shard`'s epochs compaction has folded into its head
    /// image — the oldest epoch count [`materialize`](CheckpointStore::materialize)
    /// can still produce.
    pub fn folded_epochs(&self, shard: usize) -> usize {
        self.chains.get(shard).map_or(0, |c| c.folded_epochs)
    }

    /// The folded head image of `shard`: the base with its first
    /// [`folded_epochs`](CheckpointStore::folded_epochs) epochs applied
    /// (the shared base itself until the first compaction). Only the
    /// caller's shard is meaningful in it — other shards may carry folds
    /// from their own chains.
    pub fn folded_image(&self, shard: usize) -> &RepoSnapshot {
        self.chains
            .get(shard)
            .and_then(|c| c.folded.as_ref())
            .unwrap_or(&self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RepoSnapshot {
        RepoSnapshot {
            shards: 4,
            match_tolerance: 0.1,
            ttl_secs: Some(86_400.0),
            clock_secs: 7_200.0,
            namespaces: vec![NamespaceSnapshot {
                id: 42,
                anchors: vec![
                    AnchorSnapshot {
                        id: 0,
                        values: vec![10.0, -0.5, 0.0],
                    },
                    AnchorSnapshot {
                        id: 1,
                        values: vec![7.0, 7.0],
                    },
                ],
                entries: vec![EntrySnapshot {
                    anchor: 0,
                    bucket: 2,
                    allocation: ResourceAllocation::extra_large(3),
                    tuned_at_secs: 3600.0,
                    owner: 9,
                    hits: 12,
                    cross_tenant_hits: 4,
                }],
            }],
            shard_stats: vec![ShardStats::default(); 4],
        }
    }

    #[test]
    fn encode_decode_round_trips_and_is_deterministic() {
        let snap = sample();
        let text = encode(&snap);
        assert_eq!(text, encode(&snap), "encoding must be deterministic");
        let back = decode(&text).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(encode(&back), text, "re-encoding is byte-identical");
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e308,
            -2.5e-17,
            f64::NAN,
        ] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse_f64(&s).expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} did not round-trip");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut text = encode(&sample());
        text = text.replace("v1", "v0");
        assert!(matches!(decode(&text), Err(SnapshotError::Version { .. })));
    }

    #[test]
    fn truncated_and_trailing_snapshots_are_rejected() {
        let text = encode(&sample());
        let truncated = text.trim_end_matches("end\n");
        assert!(matches!(
            decode(truncated),
            Err(SnapshotError::Inconsistent { .. })
        ));
        let trailing = format!("{text}junk\n");
        assert!(matches!(
            decode(&trailing),
            Err(SnapshotError::Format { .. })
        ));
    }

    #[test]
    fn hostile_times_are_rejected_with_their_line() {
        let hex = |v: f64| format!("fb{:016x}", v.to_bits());
        let text = encode(&sample());
        let delta = encode_delta(&sample_delta(0));
        for bad in [f64::NAN, -1.0, f64::INFINITY].map(hex) {
            // The config clock and TTL are on line 2; the only entry, tuned
            // at 3600 s, is on line 6.
            for (what, line, hostile) in [
                ("clock", 2, text.replace(&hex(7_200.0), &bad)),
                ("ttl", 2, text.replace(&hex(86_400.0), &bad)),
                ("tuned_at", 6, text.replace(&hex(3600.0), &bad)),
            ] {
                assert_ne!(hostile, text, "{what} was not replaced");
                match decode(&hostile) {
                    Err(SnapshotError::Format { line: got, message }) => {
                        assert_eq!(got, line, "{message}");
                        assert!(message.contains(what), "{message}");
                    }
                    other => panic!("expected a format error for {what}, got {other:?}"),
                }
                assert!(crate::SharedSignatureRepository::load_snapshot(&hostile).is_err());
            }
            let hostile = delta.replace(&hex(9_000.0), &bad);
            assert!(
                matches!(
                    decode_delta(&hostile),
                    Err(SnapshotError::Format { line: 2, .. })
                ),
                "delta clock {bad}"
            );
        }
    }

    #[test]
    fn absurd_shard_counts_are_rejected_not_allocated() {
        let text = encode(&sample()).replace("shards=4", "shards=9000000000000000");
        match decode(&text) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("shard count"), "{message}");
            }
            other => panic!("expected an inconsistency error, got {other:?}"),
        }
        let mut snap = sample();
        snap.shards = MAX_SHARDS + 1;
        assert!(crate::SharedSignatureRepository::from_snapshot(&snap).is_err());
    }

    #[test]
    fn missing_shard_records_are_rejected() {
        let text: String = encode(&sample())
            .lines()
            .filter(|l| !l.starts_with("shard 2 "))
            .map(|l| format!("{l}\n"))
            .collect();
        match decode(&text) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("missing shard record 2"), "{message}");
            }
            other => panic!("expected an inconsistency error, got {other:?}"),
        }
    }

    #[test]
    fn garbled_lines_report_their_line_number() {
        let text = encode(&sample()).replace("entry 0 2 X 3", "entry 0 2 Q 3");
        match decode(&text) {
            Err(SnapshotError::Format { line, message }) => {
                assert!(line > 2, "line {line}");
                assert!(message.contains("instance type"), "{message}");
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// A delta for `sample()`'s namespace 42, on the shard that namespace
    /// actually routes to under 4 shards.
    fn sample_delta(epoch: usize) -> DeltaSnapshot {
        let shard = crate::shared_repo::shard_of_namespace(42, 4);
        DeltaSnapshot {
            shard,
            epoch,
            clock_secs: 9_000.0,
            namespaces: vec![NamespaceSnapshot {
                id: 42,
                anchors: vec![AnchorSnapshot {
                    id: 0,
                    values: vec![10.0, -0.5, 0.0],
                }],
                entries: vec![EntrySnapshot {
                    anchor: 0,
                    bucket: 2,
                    allocation: ResourceAllocation::large(5),
                    tuned_at_secs: 8_000.0,
                    owner: 3,
                    hits: 20,
                    cross_tenant_hits: 6,
                }],
            }],
            shard_stats: ShardStats {
                hits: 20,
                misses: 1,
                insertions: 2,
                evictions: 1,
                cross_tenant_hits: 6,
                anchors_created: 1,
            },
        }
    }

    #[test]
    fn delta_encode_decode_round_trips_and_is_deterministic() {
        let delta = sample_delta(7);
        let text = encode_delta(&delta);
        assert_eq!(text, encode_delta(&delta), "encoding must be deterministic");
        assert!(text.starts_with(DELTA_SNAPSHOT_VERSION));
        let back = decode_delta(&text).expect("decodes");
        assert_eq!(back, delta);
        assert_eq!(encode_delta(&back), text, "re-encoding is byte-identical");
    }

    #[test]
    fn full_and_delta_formats_reject_each_other() {
        // A v1 full snapshot is not a delta…
        match decode_delta(&encode(&sample())) {
            Err(SnapshotError::Version { found }) => {
                assert_eq!(found, SNAPSHOT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // …and a v1.1 delta is not a full snapshot.
        match decode(&encode_delta(&sample_delta(0))) {
            Err(SnapshotError::Version { found }) => {
                assert_eq!(found, DELTA_SNAPSHOT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_deltas_are_rejected() {
        let text = encode_delta(&sample_delta(3));
        let truncated = text.trim_end_matches("end\n");
        match decode_delta(truncated) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("truncated"), "{message}");
            }
            other => panic!("expected an inconsistency error, got {other:?}"),
        }
        // Dropping the stats record truncates the chain's counter state even
        // when `end` survives.
        let no_stats: String = text
            .lines()
            .filter(|l| !l.starts_with("stats "))
            .map(|l| format!("{l}\n"))
            .collect();
        match decode_delta(&no_stats) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("stats"), "{message}");
            }
            other => panic!("expected an inconsistency error, got {other:?}"),
        }
    }

    #[test]
    fn chains_without_a_base_are_rejected() {
        assert!(matches!(
            apply_chain(None, &[sample_delta(0)]),
            Err(SnapshotError::MissingBase)
        ));
    }

    #[test]
    fn out_of_order_deltas_are_rejected() {
        let base = sample();
        // Skipping an epoch…
        match apply_chain(Some(base.clone()), &[sample_delta(3), sample_delta(5)]) {
            Err(SnapshotError::DeltaOrder {
                expected_epoch,
                found_epoch,
                ..
            }) => {
                assert_eq!((expected_epoch, found_epoch), (4, 5));
            }
            other => panic!("expected a delta-order error, got {other:?}"),
        }
        // …and replaying backwards are both order violations.
        match apply_chain(Some(base), &[sample_delta(3), sample_delta(2)]) {
            Err(SnapshotError::DeltaOrder {
                expected_epoch,
                found_epoch,
                ..
            }) => {
                assert_eq!((expected_epoch, found_epoch), (4, 2));
            }
            other => panic!("expected a delta-order error, got {other:?}"),
        }
    }

    #[test]
    fn deltas_from_a_different_shard_layout_are_rejected() {
        // Out-of-range shard index.
        let mut wild = sample_delta(0);
        wild.shard = 99;
        match apply_chain(Some(sample()), &[wild]) {
            Err(SnapshotError::BaseMismatch { message }) => {
                assert!(message.contains("out of range"), "{message}");
            }
            other => panic!("expected a base-mismatch error, got {other:?}"),
        }
        // Right range, wrong routing: the namespace does not live on the
        // declared shard under the base's shard count.
        let mut misrouted = sample_delta(0);
        misrouted.shard = (misrouted.shard + 1) % 4;
        match apply_chain(Some(sample()), &[misrouted]) {
            Err(SnapshotError::BaseMismatch { message }) => {
                assert!(message.contains("routes to shard"), "{message}");
            }
            other => panic!("expected a base-mismatch error, got {other:?}"),
        }
    }

    #[test]
    fn applying_a_chain_replaces_namespaces_and_advances_the_clock() {
        let base = sample();
        let delta = sample_delta(0);
        let out = apply_chain(Some(base.clone()), std::slice::from_ref(&delta)).expect("applies");
        assert_eq!(out.namespaces.len(), 1, "replacement, not duplication");
        assert_eq!(out.namespaces[0], delta.namespaces[0]);
        assert_eq!(out.shard_stats[delta.shard], delta.shard_stats);
        assert_eq!(out.clock_secs, 9_000.0, "clock advanced to the delta's");
        // A second namespace unknown to the base is inserted, keeping the
        // encoder's (shard, id) order — materialized and live snapshots stay
        // byte-comparable.
        let mut insert = sample_delta(1);
        let new_id = (0..u64::MAX)
            .find(|&id| id != 42 && crate::shared_repo::shard_of_namespace(id, 4) == insert.shard)
            .expect("some id routes to the same shard");
        insert.namespaces[0].id = new_id;
        let grown = apply_chain(Some(out), &[insert]).expect("applies");
        assert_eq!(grown.namespaces.len(), 2);
        assert_eq!(encode(&grown), encode(&decode(&encode(&grown)).unwrap()));
    }

    /// A delta for `sample()`'s shard carrying a per-epoch distinguishable
    /// entry, so materializations at different frontiers differ.
    fn chain_delta(epoch: usize) -> DeltaSnapshot {
        let mut delta = sample_delta(epoch);
        delta.namespaces[0].entries[0].hits = 100 + epoch as u64;
        delta.clock_secs = 9_000.0 + epoch as f64;
        delta
    }

    #[test]
    fn checkpoint_store_materializes_every_retained_frontier() {
        let base = sample();
        let shard = chain_delta(0).shard;
        let mut store = CheckpointStore::new(base.clone(), 0);
        for epoch in 0..4 {
            store.record(chain_delta(epoch)).expect("records");
        }
        assert_eq!(store.checkpoints(), 4);
        assert_eq!(store.compactions(), 0, "cadence 0 never compacts");
        // Frontier 0 is the untouched base; frontier e reflects delta e-1.
        assert_eq!(encode(&store.materialize(shard, 0).unwrap()), encode(&base));
        for upto in 1..=4 {
            let image = store.materialize(shard, upto).expect("materializes");
            assert_eq!(image.namespaces[0].entries[0].hits, 100 + upto as u64 - 1);
            let by_chain = apply_chain(
                Some(base.clone()),
                &(0..upto).map(chain_delta).collect::<Vec<_>>(),
            )
            .expect("chain applies");
            assert_eq!(encode(&image), encode(&by_chain));
        }
        // Individual deltas stay retrievable for epoch-by-epoch replay.
        assert_eq!(store.delta(shard, 2).unwrap(), chain_delta(2));
    }

    #[test]
    fn checkpoint_store_compaction_folds_but_preserves_materializations() {
        let shard = chain_delta(0).shard;
        let mut uncompacted = CheckpointStore::new(sample(), 0);
        let mut compacted = CheckpointStore::new(sample(), 2);
        for epoch in 0..7 {
            uncompacted.record(chain_delta(epoch)).expect("records");
            compacted.record(chain_delta(epoch)).expect("records");
        }
        assert!(compacted.compactions() > 0, "cadence 2 folds");
        assert!(compacted.chain_len(shard) < uncompacted.chain_len(shard));
        // The visible frontier is identical wherever both still retain it.
        let image = compacted.materialize(shard, 7).expect("materializes");
        assert_eq!(
            encode(&image),
            encode(&uncompacted.materialize(shard, 7).unwrap())
        );
        // Folded-away frontiers are a typed error, not silent corruption.
        match compacted.materialize(shard, 0) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("compacted away"), "{message}");
            }
            other => panic!("expected an inconsistent error, got {other:?}"),
        }
        match compacted.delta(shard, 0) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("compacted away"), "{message}");
            }
            other => panic!("expected an inconsistent error, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_store_floors_pin_replayable_epochs() {
        let shard = chain_delta(0).shard;
        let mut store = CheckpointStore::new(sample(), 2);
        store.set_floor(shard, 1);
        for epoch in 0..6 {
            store.record(chain_delta(epoch)).expect("records");
        }
        // Only epoch 0 may fold; everything from the floor up stays
        // individually replayable.
        for epoch in 1..6 {
            assert_eq!(store.delta(shard, epoch).unwrap(), chain_delta(epoch));
            store.materialize(shard, epoch).expect("materializes");
        }
        // Raising the floor re-enables compaction of the backlog.
        store.set_floor(shard, usize::MAX);
        store.record(chain_delta(6)).expect("records");
        assert!(store.chain_len(shard) < 6);
        store.materialize(shard, 7).expect("tip still materializes");
    }

    #[test]
    fn set_floor_clamps_below_the_folded_chain_head() {
        let shard = chain_delta(0).shard;
        let mut store = CheckpointStore::new(sample(), 2);
        for epoch in 0..6 {
            store.record(chain_delta(epoch)).expect("records");
        }
        assert!(store.compactions() > 0, "cadence 2 folds the prefix");
        let head = store.chain_end(shard) - store.chain_len(shard);
        assert!(head > 0, "some epochs folded away");
        // Lowering the floor below the folded head cannot resurrect folded
        // epochs: the request clamps to the head and reports the adjustment.
        let effective = store.set_floor(shard, 0);
        assert_eq!(effective, head, "floor clamped to the folded chain head");
        assert_eq!(store.floor(shard), head);
        // The lower-then-recover sequence: a recovery planned against the
        // *effective* floor materializes; the folded epochs it can no longer
        // reach stay a typed error rather than a stale-floor panic path.
        store
            .materialize(shard, effective)
            .expect("head materializes");
        for epoch in effective..6 {
            assert_eq!(store.delta(shard, epoch).unwrap(), chain_delta(epoch));
        }
        match store.materialize(shard, effective - 1) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("compacted away"), "{message}");
            }
            other => panic!("expected an inconsistent error, got {other:?}"),
        }
        // Floors at or above the head pass through unadjusted.
        assert_eq!(store.set_floor(shard, head + 1), head + 1);
    }

    #[test]
    fn checkpoint_store_rejects_gaps_and_unknown_shards() {
        let mut store = CheckpointStore::new(sample(), 0);
        store.record(chain_delta(0)).expect("records");
        match store.record(chain_delta(2)) {
            Err(SnapshotError::DeltaOrder {
                expected_epoch,
                found_epoch,
                ..
            }) => assert_eq!((expected_epoch, found_epoch), (1, 2)),
            other => panic!("expected a delta-order error, got {other:?}"),
        }
        let mut wild = chain_delta(1);
        wild.shard = 99;
        match store.record(wild) {
            Err(SnapshotError::BaseMismatch { message }) => {
                assert!(message.contains("out of range"), "{message}");
            }
            other => panic!("expected a base-mismatch error, got {other:?}"),
        }
        match store.materialize(0, 5) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("chain ends"), "{message}");
            }
            other => panic!("expected an inconsistent error, got {other:?}"),
        }
    }
}
