//! Durable checkpoints: the on-disk mirror of [`CheckpointStore`].
//!
//! [`DurableCheckpointStore`] spills the delta-chain checkpoints of
//! [`crate::snapshot`] to a checkpoint directory, so recovery survives
//! *process* death, not just thread death — the substrate `dejavu-serve`
//! boots from and the fleet's commit point writes through behind
//! `--checkpoint-dir`, on either transport.
//!
//! # Directory layout
//!
//! ```text
//! <dir>/MANIFEST                      versioned index (single source of truth)
//! <dir>/base.snap                     full run-start snapshot (v1 text format)
//! <dir>/seg-<shard>-<epoch>.delta     one v1.1 delta per (shard, epoch) commit
//! <dir>/fold-<shard>-<epochs>.snap    folded whole-shard image (v1.1 delta format)
//! <dir>/*.corrupt                     quarantined files (externally corrupted)
//! ```
//!
//! # Crash safety
//!
//! Every file is written **temp + fsync + atomic rename** (plus a directory
//! fsync), and the manifest is rewritten the same way after the files it
//! references exist. The manifest rename is the commit point: a crash at any
//! other instant leaves the previous manifest, whose files are all still
//! present — obsolete files are only deleted *after* the new manifest is
//! durable, and orphans (renamed in but never referenced) are swept at the
//! next [`DurableCheckpointStore::open`]. Replay therefore always lands on a
//! consistent prefix of the recorded history. [`CrashHook`] injects aborts
//! between these steps so tests can prove it at every boundary.
//!
//! # Compaction
//!
//! The on-disk store mirrors the in-memory cadence/floor rules exactly: it
//! wraps a [`CheckpointStore`] and, whenever a record's compaction pass
//! advances a shard's folded head, writes the folded image as a
//! **whole-shard replacement delta** (`fold-*.snap`) and drops the folded
//! segments from the manifest. A fold file can use the delta format because
//! deltas carry full replacement namespace images and namespaces are never
//! deleted — replaying base + fold + live segments is bit-identical to
//! replaying base + every segment ever recorded.
//!
//! # Recovery
//!
//! [`DurableCheckpointStore::open`] verifies every manifest-listed file
//! (length, then FNV-1a checksum, then decode) before applying it. The base
//! failing is fatal — deltas only carry changes, so nothing is recoverable
//! without it. A segment failing is quarantined to `<name>.corrupt` and the
//! shard's chain stops at the last consistent prefix (later segments cannot
//! apply past the gap); a fold failing quarantines the fold *and* the
//! shard's segments (they anchor above the fold) and the shard falls back to
//! the base image. The manifest is rewritten to the recovered state, so the
//! next record continues the surviving prefix.

use crate::shared_repo::shard_of_namespace;
use crate::snapshot::{
    self, apply_delta, CheckpointStore, DeltaSnapshot, RepoSnapshot, SnapshotError,
};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The manifest file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// The base snapshot file name inside a checkpoint directory.
pub const BASE_FILE: &str = "base.snap";
/// Version line every durable manifest must open with.
pub const DURABLE_MANIFEST_VERSION: &str = "dejavu-durable-manifest v1";

/// FNV-1a 64-bit: the per-file checksum recorded in the manifest. Not
/// cryptographic — it detects torn, truncated and bit-rotted files, which is
/// the failure model here.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What failed, when a durable checkpoint operation did.
#[derive(Debug)]
pub enum DurableError {
    /// A filesystem operation failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The manifest's version line is not [`DURABLE_MANIFEST_VERSION`].
    Version {
        /// The line found instead.
        found: String,
    },
    /// The manifest violates its grammar.
    Format {
        /// 1-based manifest line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A listed file's bytes hash differently than the manifest records —
    /// bit rot, or a write that never reached the platter.
    ChecksumMismatch {
        /// The offending file name (directory-relative).
        file: String,
        /// The checksum the manifest records.
        expected: u64,
        /// The checksum of the bytes on disk.
        found: u64,
    },
    /// A listed file is shorter or longer than the manifest records — a torn
    /// or truncated write.
    Truncated {
        /// The offending file name (directory-relative).
        file: String,
        /// The length the manifest records.
        expected: u64,
        /// The length found on disk.
        found: u64,
    },
    /// The manifest references a file that does not exist.
    MissingSegment {
        /// The missing file name (directory-relative).
        file: String,
    },
    /// A listed file passed its length and checksum but does not decode to
    /// the snapshot/delta the manifest promised, or a recorded delta
    /// violates chain order.
    Snapshot {
        /// The offending file name (empty for order violations caught
        /// before any file was written).
        file: String,
        /// The underlying codec error.
        source: SnapshotError,
    },
    /// A [`CrashHook`] fired (tests only): the write path aborted at `site`,
    /// leaving the directory exactly as a process death there would.
    CrashInjected {
        /// The protocol step the abort hit.
        site: CrashSite,
        /// The file being written when it hit.
        file: String,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io { path, source } => {
                write!(f, "durable checkpoint io error at {}: {source}", path.display())
            }
            DurableError::Version { found } => write!(
                f,
                "unsupported durable manifest version {found:?} (expected {DURABLE_MANIFEST_VERSION:?})"
            ),
            DurableError::Format { line, message } => {
                write!(f, "durable manifest line {line}: {message}")
            }
            DurableError::ChecksumMismatch {
                file,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in {file}: manifest records {expected:016x}, disk holds {found:016x}"
            ),
            DurableError::Truncated {
                file,
                expected,
                found,
            } => write!(
                f,
                "torn or truncated file {file}: manifest records {expected} bytes, disk holds {found}"
            ),
            DurableError::MissingSegment { file } => {
                write!(f, "manifest references missing file {file}")
            }
            DurableError::Snapshot { file, source } => {
                if file.is_empty() {
                    write!(f, "durable checkpoint: {source}")
                } else {
                    write!(f, "durable checkpoint file {file}: {source}")
                }
            }
            DurableError::CrashInjected { site, file } => {
                write!(f, "injected crash at {site:?} while writing {file}")
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Snapshot { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// The atomic-write protocol step a [`CrashHook`] can abort at. Each file
/// write crosses three boundaries, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Mid temp-file write: a torn temp file (half the bytes) is left
    /// behind, nothing was renamed.
    TempWrite,
    /// The temp file is complete and fsynced, but not renamed into place.
    TempSynced,
    /// The target was renamed in (and the directory fsynced), but nothing
    /// after it happened — for a segment or fold, the manifest still
    /// describes the previous state; for the manifest itself, obsolete-file
    /// cleanup is still pending.
    Renamed,
}

/// A deterministic abort plan for the durable write path, for crash-point
/// fuzzing: the hook fires at the `n`-th protocol boundary it is asked
/// about, making the store return [`DurableError::CrashInjected`] with the
/// directory in exactly the state a process death there would leave.
/// Disabled by default (and on every store built outside a test).
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashHook {
    remaining: Option<u64>,
}

impl CrashHook {
    /// The hook that never fires.
    pub const DISABLED: CrashHook = CrashHook { remaining: None };

    /// Fires at the `n`-th boundary crossed from now (`n >= 1`).
    pub fn after_steps(n: u64) -> Self {
        CrashHook {
            remaining: Some(n.max(1)),
        }
    }

    /// Advances one boundary; true when the abort fires (then disarms).
    fn fires(&mut self) -> bool {
        match self.remaining.as_mut() {
            Some(left) => {
                *left -= 1;
                if *left == 0 {
                    self.remaining = None;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }
}

/// Best-effort directory fsync, so a rename is durable, not just ordered.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: a `<name>.tmp` sibling is written
/// and fsynced, then renamed over the target, then the directory is fsynced.
/// A crash at any instant leaves either the old file or the new one — never
/// a torn mix. This is the helper **every** snapshot/checkpoint file write
/// goes through (`fleet --snapshot-out` included).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}

/// One manifest-listed file: name (directory-relative), length, checksum.
#[derive(Debug, Clone)]
struct FileEntry {
    file: String,
    len: u64,
    sum: u64,
}

impl FileEntry {
    fn of(file: String, bytes: &[u8]) -> Self {
        FileEntry {
            len: bytes.len() as u64,
            sum: fnv1a(bytes),
            file,
        }
    }
}

/// A shard's folded head on disk: `epochs` epochs folded into `entry`.
#[derive(Debug, Clone)]
struct ManifestFold {
    epochs: usize,
    entry: FileEntry,
}

/// One live delta segment on disk.
#[derive(Debug, Clone)]
struct ManifestSeg {
    epoch: usize,
    entry: FileEntry,
}

/// The in-memory mirror of the MANIFEST file.
#[derive(Debug, Clone)]
struct Manifest {
    shards: usize,
    base: FileEntry,
    folds: Vec<Option<ManifestFold>>,
    segs: Vec<Vec<ManifestSeg>>,
}

impl Manifest {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(DURABLE_MANIFEST_VERSION);
        out.push('\n');
        out.push_str(&format!("config shards={}\n", self.shards));
        out.push_str(&format!(
            "base file={} len={} sum={:016x}\n",
            self.base.file, self.base.len, self.base.sum
        ));
        for (shard, fold) in self.folds.iter().enumerate() {
            if let Some(fold) = fold {
                out.push_str(&format!(
                    "fold shard={shard} epochs={} file={} len={} sum={:016x}\n",
                    fold.epochs, fold.entry.file, fold.entry.len, fold.entry.sum
                ));
            }
        }
        for (shard, segs) in self.segs.iter().enumerate() {
            for seg in segs {
                out.push_str(&format!(
                    "seg shard={shard} epoch={} file={} len={} sum={:016x}\n",
                    seg.epoch, seg.entry.file, seg.entry.len, seg.entry.sum
                ));
            }
        }
        out.push_str("end\n");
        out
    }

    fn parse(text: &str) -> Result<Manifest, DurableError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let (_, version) = lines.next().ok_or_else(|| DurableError::Version {
            found: String::new(),
        })?;
        if version != DURABLE_MANIFEST_VERSION {
            return Err(DurableError::Version {
                found: version.to_string(),
            });
        }
        let fmt = |line: usize, message: String| DurableError::Format { line, message };
        let (line_no, config) = lines
            .next()
            .ok_or_else(|| fmt(2, "missing config line".into()))?;
        let shards = config
            .strip_prefix("config shards=")
            .and_then(|t| t.parse::<usize>().ok())
            .filter(|s| (1..=snapshot::MAX_SHARDS).contains(s))
            .ok_or_else(|| fmt(line_no, format!("bad config line {config:?}")))?;
        let mut base: Option<FileEntry> = None;
        let mut folds: Vec<Option<ManifestFold>> = vec![None; shards];
        let mut segs: Vec<Vec<ManifestSeg>> = vec![Vec::new(); shards];
        let mut ended = false;
        for (line_no, line) in lines {
            if ended {
                return Err(fmt(line_no, "content after end".into()));
            }
            let mut toks = line.split_whitespace();
            let head = toks
                .next()
                .ok_or_else(|| fmt(line_no, "blank line".into()))?;
            // key=value fields, in fixed order per record kind.
            let mut field = |key: &str| -> Result<String, DurableError> {
                let tok = toks
                    .next()
                    .ok_or_else(|| fmt(line_no, format!("{head} is missing {key}=")))?;
                tok.strip_prefix(key)
                    .and_then(|t| t.strip_prefix('='))
                    .map(str::to_string)
                    .ok_or_else(|| fmt(line_no, format!("expected {key}=, found {tok:?}")))
            };
            let parse_entry =
                |file: String, len: String, sum: String| -> Result<FileEntry, DurableError> {
                    let len = len
                        .parse::<u64>()
                        .map_err(|_| fmt(line_no, format!("bad len {len:?}")))?;
                    let sum = u64::from_str_radix(&sum, 16)
                        .map_err(|_| fmt(line_no, format!("bad sum {sum:?}")))?;
                    if file.contains('/') || file.contains("..") {
                        return Err(fmt(line_no, format!("bad file name {file:?}")));
                    }
                    Ok(FileEntry { file, len, sum })
                };
            match head {
                "base" => {
                    let entry = parse_entry(field("file")?, field("len")?, field("sum")?)?;
                    if base.replace(entry).is_some() {
                        return Err(fmt(line_no, "duplicate base record".into()));
                    }
                }
                "fold" => {
                    let shard = field("shard")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&s| s < shards)
                        .ok_or_else(|| fmt(line_no, "bad fold shard".into()))?;
                    let epochs = field("epochs")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&e| e > 0)
                        .ok_or_else(|| fmt(line_no, "bad fold epochs".into()))?;
                    let entry = parse_entry(field("file")?, field("len")?, field("sum")?)?;
                    if folds[shard]
                        .replace(ManifestFold { epochs, entry })
                        .is_some()
                    {
                        return Err(fmt(line_no, format!("duplicate fold for shard {shard}")));
                    }
                }
                "seg" => {
                    let shard = field("shard")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&s| s < shards)
                        .ok_or_else(|| fmt(line_no, "bad seg shard".into()))?;
                    let epoch = field("epoch")?
                        .parse::<usize>()
                        .map_err(|_| fmt(line_no, "bad seg epoch".into()))?;
                    let entry = parse_entry(field("file")?, field("len")?, field("sum")?)?;
                    segs[shard].push(ManifestSeg { epoch, entry });
                }
                "end" => ended = true,
                other => return Err(fmt(line_no, format!("unknown record {other:?}"))),
            }
            if ended {
                continue;
            }
            if toks.next().is_some() {
                return Err(fmt(line_no, format!("trailing tokens after {head}")));
            }
        }
        if !ended {
            return Err(DurableError::Format {
                line: text.lines().count() + 1,
                message: "missing end record (truncated manifest)".into(),
            });
        }
        let base = base.ok_or_else(|| DurableError::Format {
            line: 2,
            message: "manifest has no base record".into(),
        })?;
        Ok(Manifest {
            shards,
            base,
            folds,
            segs,
        })
    }
}

fn seg_name(shard: usize, epoch: usize) -> String {
    format!("seg-{shard:04}-{epoch:08}.delta")
}

fn fold_name(shard: usize, epochs: usize) -> String {
    format!("fold-{shard:04}-{epochs:08}.snap")
}

/// What one durable [`record`](DurableCheckpointStore::record) wrote —
/// input to the flight recorder's durability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordReceipt {
    /// Bytes of the delta segment written.
    pub segment_bytes: u64,
    /// Bytes of the fold image written (0 when no compaction ran).
    pub fold_bytes: u64,
    /// Whether this record's compaction pass advanced the on-disk fold.
    pub folded: bool,
}

impl RecordReceipt {
    /// Total bytes this record put on disk (segment + fold, manifest
    /// excluded — it is bookkeeping, not payload).
    pub fn bytes(&self) -> u64 {
        self.segment_bytes + self.fold_bytes
    }
}

/// What [`DurableCheckpointStore::open`] recovered — and what it had to give
/// up to land on a consistent prefix.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The merged repository image at the recovered prefix: base + per-shard
    /// fold + live segments. Feed it to
    /// [`crate::SharedSignatureRepository::from_snapshot`] to resume serving
    /// bit-exactly.
    pub resumed: RepoSnapshot,
    /// Per shard: the exclusive end of the recovered chain (the epoch the
    /// next record must carry).
    pub chain_ends: Vec<usize>,
    /// Delta segments (folds included) replayed into `resumed`.
    pub segments_replayed: u64,
    /// Files quarantined to `*.corrupt` (or found missing), with the typed
    /// reason each failed verification. Empty after any crash the atomic
    /// write protocol covers — only external corruption lands here.
    pub quarantined: Vec<(String, DurableError)>,
}

/// The disk-backed [`CheckpointStore`]: same chains, same cadence/floor
/// compaction rules, but every record is durable before it returns.
///
/// Any `Err` from a mutating method leaves the store **fail-stopped**: the
/// in-memory chain and the on-disk manifest may disagree, and the only safe
/// continuation is to drop the store and [`open`](Self::open) the directory
/// again (exactly what a restarted process does).
#[derive(Debug)]
pub struct DurableCheckpointStore {
    dir: PathBuf,
    store: CheckpointStore,
    manifest: Manifest,
    hook: CrashHook,
}

impl DurableCheckpointStore {
    /// Whether `dir` holds a durable checkpoint manifest to resume from.
    pub fn exists(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).is_file()
    }

    /// Initializes `dir` as a fresh checkpoint directory anchored at `base`
    /// (creating it if needed), wiping any previous durable-checkpoint
    /// files so the new manifest can never resolve against stale ones.
    pub fn create(
        dir: &Path,
        base: RepoSnapshot,
        checkpoint_every: usize,
    ) -> Result<Self, DurableError> {
        // Refuse here what every reader refuses, before anything is written:
        // a manifest past the bound would acknowledge writes it can never
        // replay.
        snapshot::check_shard_count(base.shards).map_err(|source| DurableError::Snapshot {
            file: String::new(),
            source,
        })?;
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if Self::recognizes(&name) {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        let shards = base.shards;
        let text = snapshot::encode(&base);
        let store = CheckpointStore::new(base, checkpoint_every);
        let mut durable = DurableCheckpointStore {
            dir: dir.to_path_buf(),
            store,
            manifest: Manifest {
                shards,
                base: FileEntry::of(BASE_FILE.to_string(), text.as_bytes()),
                folds: vec![None; shards],
                segs: vec![Vec::new(); shards],
            },
            hook: CrashHook::DISABLED,
        };
        durable.write_hooked(BASE_FILE, text.as_bytes())?;
        durable.write_manifest()?;
        Ok(durable)
    }

    /// File names this layer owns (and [`create`](Self::create) may wipe).
    fn recognizes(name: &str) -> bool {
        name == MANIFEST_FILE
            || name == BASE_FILE
            || name.ends_with(".tmp")
            || name.ends_with(".corrupt")
            || (name.starts_with("seg-") && name.ends_with(".delta"))
            || (name.starts_with("fold-") && name.ends_with(".snap"))
    }

    /// Replays `dir`'s manifest and resumes the store at the last consistent
    /// prefix. Corrupt, torn or missing segments are quarantined (see
    /// [`RecoveryReport::quarantined`]); an unreadable manifest or base is
    /// fatal, because nothing is recoverable without them. The manifest is
    /// rewritten to the recovered state and unreferenced leftovers (orphan
    /// segments, stale temp files) are swept.
    pub fn open(
        dir: &Path,
        checkpoint_every: usize,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let mut manifest = Manifest::parse(&text)?;
        let base_bytes = read_verified(dir, &manifest.base)?;
        let base_text = String::from_utf8(base_bytes).map_err(|_| DurableError::Snapshot {
            file: manifest.base.file.clone(),
            source: SnapshotError::Format {
                line: 0,
                message: "base snapshot is not UTF-8".into(),
            },
        })?;
        let base = snapshot::decode(&base_text).map_err(|source| DurableError::Snapshot {
            file: manifest.base.file.clone(),
            source,
        })?;
        if base.shards != manifest.shards {
            return Err(DurableError::Snapshot {
                file: manifest.base.file.clone(),
                source: SnapshotError::BaseMismatch {
                    message: format!(
                        "base has {} shards, manifest records {}",
                        base.shards, manifest.shards
                    ),
                },
            });
        }

        let mut merged = base;
        let mut chain_ends = vec![0usize; manifest.shards];
        let mut segments_replayed = 0u64;
        let mut quarantined: Vec<(String, DurableError)> = Vec::new();
        for (shard, chain_end) in chain_ends.iter_mut().enumerate() {
            let mut start = 0usize;
            if let Some(fold) = manifest.folds[shard].clone() {
                match load_delta(
                    dir,
                    &fold.entry,
                    shard,
                    fold.epochs.wrapping_sub(1),
                    &merged,
                ) {
                    Ok(delta) => {
                        apply_delta(&mut merged, &delta)
                            .expect("fold deltas are pre-validated against the base");
                        segments_replayed += 1;
                        start = fold.epochs;
                    }
                    Err(err) => {
                        // The fold is the shard's anchor: without it the
                        // segments above it have nothing to apply to. The
                        // shard's consistent prefix is the base image.
                        quarantine(dir, &fold.entry.file);
                        quarantined.push((fold.entry.file.clone(), err));
                        manifest.folds[shard] = None;
                        manifest.segs[shard].clear();
                        *chain_end = 0;
                        continue;
                    }
                }
            }
            let mut good = 0usize;
            let mut bad: Option<(String, DurableError)> = None;
            for seg in &manifest.segs[shard] {
                if seg.epoch != start + good {
                    bad = Some((
                        seg.entry.file.clone(),
                        DurableError::Snapshot {
                            file: seg.entry.file.clone(),
                            source: SnapshotError::DeltaOrder {
                                shard,
                                expected_epoch: start + good,
                                found_epoch: seg.epoch,
                            },
                        },
                    ));
                    break;
                }
                match load_delta(dir, &seg.entry, shard, seg.epoch, &merged) {
                    Ok(delta) => {
                        apply_delta(&mut merged, &delta)
                            .expect("segments are pre-validated against the base");
                        segments_replayed += 1;
                        good += 1;
                    }
                    Err(err) => {
                        bad = Some((seg.entry.file.clone(), err));
                        break;
                    }
                }
            }
            if let Some((file, err)) = bad {
                quarantine(dir, &file);
                quarantined.push((file, err));
                // Everything past the failure anchors above the gap: the
                // consistent prefix ends here, the tail is unreachable.
                manifest.segs[shard].truncate(good);
            }
            *chain_end = start + good;
        }

        let store = CheckpointStore::resume(merged.clone(), &chain_ends, checkpoint_every)
            .map_err(|source| DurableError::Snapshot {
                file: String::new(),
                source,
            })?;
        let mut durable = DurableCheckpointStore {
            dir: dir.to_path_buf(),
            store,
            manifest,
            hook: CrashHook::DISABLED,
        };
        durable.write_manifest()?;
        durable.sweep_unreferenced();
        Ok((
            durable,
            RecoveryReport {
                resumed: merged,
                chain_ends,
                segments_replayed,
                quarantined,
            },
        ))
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The in-memory store this one mirrors, for reads (`materialize`,
    /// `delta`, `chain_end`, telemetry counters).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Consumes the durable wrapper, keeping the in-memory store (the drive
    /// summary path — disk state stays behind for the next open).
    pub fn into_store(self) -> CheckpointStore {
        self.store
    }

    /// See [`CheckpointStore::set_floor`]. Floors gate *future* compaction
    /// only, so they need no disk write of their own.
    pub fn set_floor(&mut self, shard: usize, epoch: usize) -> usize {
        self.store.set_floor(shard, epoch)
    }

    /// Arms the crash-point hook (tests only; see [`CrashHook`]).
    pub fn set_crash_hook(&mut self, hook: CrashHook) {
        self.hook = hook;
    }

    /// Records one delta durably: the segment file is written (temp, fsync,
    /// rename), the in-memory chain advances (running its compaction pass),
    /// any new fold is written the same way, and the manifest is atomically
    /// rewritten — only then are folded-away files deleted. When `record`
    /// returns `Ok`, the delta survives process death.
    pub fn record(&mut self, delta: DeltaSnapshot) -> Result<RecordReceipt, DurableError> {
        let shard = delta.shard;
        let expected = self.store.chain_end(shard);
        if shard >= self.manifest.shards || delta.epoch != expected {
            // Reject before touching the disk, mirroring the in-memory
            // store's chain-order contract.
            return Err(DurableError::Snapshot {
                file: String::new(),
                source: if shard >= self.manifest.shards {
                    SnapshotError::BaseMismatch {
                        message: format!(
                            "delta shard {shard} out of range (store has {} shards)",
                            self.manifest.shards
                        ),
                    }
                } else {
                    SnapshotError::DeltaOrder {
                        shard,
                        expected_epoch: expected,
                        found_epoch: delta.epoch,
                    }
                },
            });
        }
        let file = seg_name(shard, delta.epoch);
        let text = snapshot::encode_delta(&delta);
        self.write_hooked(&file, text.as_bytes())?;
        let mut receipt = RecordReceipt {
            segment_bytes: text.len() as u64,
            ..RecordReceipt::default()
        };
        let folded_before = self.store.folded_epochs(shard);
        self.store
            .record(delta)
            .map_err(|source| DurableError::Snapshot {
                file: file.clone(),
                source,
            })?;
        self.manifest.segs[shard].push(ManifestSeg {
            epoch: expected,
            entry: FileEntry::of(file, text.as_bytes()),
        });
        let folded_after = self.store.folded_epochs(shard);
        let mut obsolete: Vec<String> = Vec::new();
        if folded_after > folded_before {
            // Mirror the in-memory compaction on disk: the folded image
            // becomes a whole-shard replacement delta, and the segments it
            // swallowed leave the manifest.
            let fold = self.fold_delta(shard);
            let fold_file = fold_name(shard, folded_after);
            let fold_text = snapshot::encode_delta(&fold);
            self.write_hooked(&fold_file, fold_text.as_bytes())?;
            receipt.folded = true;
            receipt.fold_bytes = fold_text.len() as u64;
            if let Some(old) = self.manifest.folds[shard].replace(ManifestFold {
                epochs: folded_after,
                entry: FileEntry::of(fold_file, fold_text.as_bytes()),
            }) {
                obsolete.push(old.entry.file);
            }
            let segs = &mut self.manifest.segs[shard];
            let keep_from = segs
                .iter()
                .position(|s| s.epoch >= folded_after)
                .unwrap_or(segs.len());
            obsolete.extend(segs.drain(..keep_from).map(|s| s.entry.file));
        }
        self.write_manifest()?;
        // The new manifest no longer references these; failure to unlink is
        // harmless (the next open sweeps orphans).
        for file in obsolete {
            let _ = fs::remove_file(self.dir.join(file));
        }
        Ok(receipt)
    }

    /// The folded image of `shard` as a whole-shard replacement delta —
    /// valid because deltas carry full namespace images and namespaces are
    /// never deleted, so replacing every namespace of the shard *is* the
    /// folded state.
    fn fold_delta(&self, shard: usize) -> DeltaSnapshot {
        let image = self.store.folded_image(shard);
        DeltaSnapshot {
            shard,
            epoch: self.store.folded_epochs(shard) - 1,
            clock_secs: image.clock_secs,
            namespaces: image
                .namespaces
                .iter()
                .filter(|ns| shard_of_namespace(ns.id, image.shards) == shard)
                .cloned()
                .collect(),
            shard_stats: image.shard_stats[shard],
        }
    }

    /// Atomically rewrites the MANIFEST to the in-memory state.
    fn write_manifest(&mut self) -> Result<(), DurableError> {
        let text = self.manifest.render();
        self.write_hooked(MANIFEST_FILE, text.as_bytes())
    }

    /// [`write_atomic`] with the crash hook consulted at every protocol
    /// boundary (see [`CrashSite`]).
    fn write_hooked(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        if self.hook.fires() {
            // A death mid-write: a torn temp file survives, the target (and
            // the manifest) are untouched.
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(DurableError::CrashInjected {
                site: CrashSite::TempWrite,
                file: name.to_string(),
            });
        }
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            file.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
            file.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        if self.hook.fires() {
            return Err(DurableError::CrashInjected {
                site: CrashSite::TempSynced,
                file: name.to_string(),
            });
        }
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        sync_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        if self.hook.fires() {
            return Err(DurableError::CrashInjected {
                site: CrashSite::Renamed,
                file: name.to_string(),
            });
        }
        Ok(())
    }

    /// Removes temp files and segment/fold files the manifest no longer
    /// references (crash leftovers). Quarantined `*.corrupt` files are kept
    /// for inspection. Best effort.
    fn sweep_unreferenced(&self) {
        let mut referenced: Vec<&str> = vec![MANIFEST_FILE];
        referenced.push(&self.manifest.base.file);
        for fold in self.manifest.folds.iter().flatten() {
            referenced.push(&fold.entry.file);
        }
        for segs in &self.manifest.segs {
            for seg in segs {
                referenced.push(&seg.entry.file);
            }
        }
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".corrupt") || !Self::recognizes(&name) {
                continue;
            }
            if !referenced.iter().any(|r| *r == name) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Reads a manifest-listed file and verifies length then checksum.
fn read_verified(dir: &Path, entry: &FileEntry) -> Result<Vec<u8>, DurableError> {
    let path = dir.join(&entry.file);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(DurableError::MissingSegment {
                file: entry.file.clone(),
            })
        }
        Err(e) => return Err(io_err(&path, e)),
    };
    if bytes.len() as u64 != entry.len {
        return Err(DurableError::Truncated {
            file: entry.file.clone(),
            expected: entry.len,
            found: bytes.len() as u64,
        });
    }
    let found = fnv1a(&bytes);
    if found != entry.sum {
        return Err(DurableError::ChecksumMismatch {
            file: entry.file.clone(),
            expected: entry.sum,
            found,
        });
    }
    Ok(bytes)
}

/// Reads, verifies and decodes one delta file, checking it is the
/// `(shard, epoch)` the manifest promised and that every namespace it
/// carries routes to that shard — so applying it to `base` cannot fail.
fn load_delta(
    dir: &Path,
    entry: &FileEntry,
    shard: usize,
    epoch: usize,
    base: &RepoSnapshot,
) -> Result<DeltaSnapshot, DurableError> {
    let bytes = read_verified(dir, entry)?;
    let snapshot_err = |source: SnapshotError| DurableError::Snapshot {
        file: entry.file.clone(),
        source,
    };
    let text = String::from_utf8(bytes).map_err(|_| {
        snapshot_err(SnapshotError::Format {
            line: 0,
            message: "delta is not UTF-8".into(),
        })
    })?;
    let delta = snapshot::decode_delta(&text).map_err(snapshot_err)?;
    if delta.shard != shard || delta.epoch != epoch {
        return Err(snapshot_err(SnapshotError::Inconsistent {
            message: format!(
                "file carries (shard {}, epoch {}), manifest promised (shard {shard}, epoch {epoch})",
                delta.shard, delta.epoch
            ),
        }));
    }
    for ns in &delta.namespaces {
        let routed = shard_of_namespace(ns.id, base.shards);
        if routed != shard {
            return Err(snapshot_err(SnapshotError::BaseMismatch {
                message: format!("namespace {} routes to shard {routed}, not {shard}", ns.id),
            }));
        }
    }
    Ok(delta)
}

/// Renames a failed file to `<name>.corrupt`, keeping it for inspection
/// while getting it out of every future replay's way. Best effort — a
/// missing file has nothing to rename.
fn quarantine(dir: &Path, file: &str) {
    let _ = fs::rename(dir.join(file), dir.join(format!("{file}.corrupt")));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{AnchorSnapshot, EntrySnapshot, NamespaceSnapshot};
    use dejavu_cloud::ResourceAllocation;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A fresh per-test directory under the target tmpdir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dejavu-durable-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn ns(id: u64, tuned_at: f64, hits: u64) -> NamespaceSnapshot {
        NamespaceSnapshot {
            id,
            anchors: vec![AnchorSnapshot {
                id: 0,
                values: vec![1.0, 2.0, tuned_at],
            }],
            entries: vec![EntrySnapshot {
                anchor: 0,
                bucket: 0,
                allocation: ResourceAllocation::large(2),
                tuned_at_secs: tuned_at,
                owner: 1,
                hits,
                cross_tenant_hits: 0,
            }],
        }
    }

    const SHARDS: usize = 4;

    fn base() -> RepoSnapshot {
        RepoSnapshot {
            shards: SHARDS,
            match_tolerance: 0.1,
            ttl_secs: Some(86_400.0),
            clock_secs: 100.0,
            namespaces: Vec::new(),
            shard_stats: vec![Default::default(); SHARDS],
        }
    }

    /// A deterministic workload: `per_shard` deltas for every shard, each
    /// touching one namespace routed to that shard.
    fn workload(per_shard: usize) -> Vec<DeltaSnapshot> {
        // Find a namespace id routed to each shard.
        let mut ns_for_shard = [None; SHARDS];
        for id in 0..1024u64 {
            let s = shard_of_namespace(id, SHARDS);
            if ns_for_shard[s].is_none() {
                ns_for_shard[s] = Some(id);
            }
        }
        let mut deltas = Vec::new();
        for epoch in 0..per_shard {
            for (shard, id) in ns_for_shard.iter().enumerate() {
                let id = id.expect("every shard has a namespace id under 1024");
                deltas.push(DeltaSnapshot {
                    shard,
                    epoch,
                    clock_secs: 100.0 + (epoch * SHARDS + shard) as f64,
                    namespaces: vec![ns(id, 50.0 + epoch as f64, epoch as u64)],
                    shard_stats: crate::ShardStats {
                        hits: epoch as u64,
                        insertions: 1 + epoch as u64,
                        ..Default::default()
                    },
                });
            }
        }
        deltas
    }

    /// The expected image after the first `chain_ends[shard]` epochs of
    /// `workload` per shard, computed through the in-memory store alone.
    fn expected_image(deltas: &[DeltaSnapshot], chain_ends: &[usize]) -> RepoSnapshot {
        let mut image = base();
        for delta in deltas {
            if delta.epoch < chain_ends[delta.shard] {
                apply_delta(&mut image, delta).unwrap();
            }
        }
        image
    }

    #[test]
    fn roundtrip_without_compaction() {
        let dir = scratch_dir("roundtrip");
        let deltas = workload(3);
        let mut store = DurableCheckpointStore::create(&dir, base(), 0).unwrap();
        for delta in &deltas {
            store.record(delta.clone()).unwrap();
        }
        drop(store);
        let (reopened, report) = DurableCheckpointStore::open(&dir, 0).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.chain_ends, vec![3; SHARDS]);
        assert_eq!(report.resumed, expected_image(&deltas, &[3; SHARDS]));
        // The resumed in-memory store can still materialize any retained
        // epoch — chains without compaction retain everything.
        for shard in 0..SHARDS {
            assert_eq!(reopened.store().chain_end(shard), 3);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_mirrors_in_memory_cadence_and_drops_folded_segments() {
        let dir = scratch_dir("compact");
        let deltas = workload(7);
        let mut durable = DurableCheckpointStore::create(&dir, base(), 2).unwrap();
        let mut memory = CheckpointStore::new(base(), 2);
        let mut folds = 0u64;
        for delta in &deltas {
            let receipt = durable.record(delta.clone()).unwrap();
            memory.record(delta.clone()).unwrap();
            if receipt.folded {
                folds += 1;
            }
            // The wrapped store mirrors the in-memory one record for record.
            assert_eq!(
                durable.store().folded_epochs(delta.shard),
                memory.folded_epochs(delta.shard)
            );
            assert_eq!(
                durable.store().chain_len(delta.shard),
                memory.chain_len(delta.shard)
            );
        }
        assert_eq!(durable.store().compactions(), memory.compactions());
        assert_eq!(folds, memory.compactions());
        // Folded segment files are gone from disk; the manifest-listed set
        // reopens to the full final image.
        let seg_files = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .count();
        let live: usize = (0..SHARDS).map(|s| memory.chain_len(s)).sum();
        assert_eq!(seg_files, live);
        drop(durable);
        let (_, report) = DurableCheckpointStore::open(&dir, 2).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.resumed, expected_image(&deltas, &[7; SHARDS]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn floors_pin_on_disk_compaction_too() {
        let dir = scratch_dir("floor");
        let deltas = workload(6);
        let mut durable = DurableCheckpointStore::create(&dir, base(), 2).unwrap();
        for shard in 0..SHARDS {
            durable.set_floor(shard, 0); // nothing may fold
        }
        for delta in &deltas {
            durable.record(delta.clone()).unwrap();
        }
        assert_eq!(durable.store().compactions(), 0);
        for shard in 0..SHARDS {
            assert_eq!(durable.store().folded_epochs(shard), 0);
        }
        // Raising the floor re-enables folding at the next record.
        durable.set_floor(0, usize::MAX);
        let receipt = durable
            .record(DeltaSnapshot {
                shard: 0,
                epoch: 6,
                clock_secs: 200.0,
                namespaces: Vec::new(),
                shard_stats: Default::default(),
            })
            .unwrap();
        assert!(receipt.folded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_continues_recording_after_reopen() {
        let dir = scratch_dir("resume");
        let deltas = workload(5);
        let (first, rest) = deltas.split_at(2 * SHARDS);
        let mut store = DurableCheckpointStore::create(&dir, base(), 2).unwrap();
        for delta in first {
            store.record(delta.clone()).unwrap();
        }
        drop(store);
        let (mut reopened, report) = DurableCheckpointStore::open(&dir, 2).unwrap();
        assert_eq!(report.chain_ends, vec![2; SHARDS]);
        for delta in rest {
            reopened.record(delta.clone()).unwrap();
        }
        drop(reopened);
        let (_, report) = DurableCheckpointStore::open(&dir, 2).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.resumed, expected_image(&deltas, &[5; SHARDS]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_record_is_rejected_before_touching_disk() {
        let dir = scratch_dir("order");
        let mut store = DurableCheckpointStore::create(&dir, base(), 0).unwrap();
        let err = store
            .record(DeltaSnapshot {
                shard: 0,
                epoch: 3,
                clock_secs: 1.0,
                namespaces: Vec::new(),
                shard_stats: Default::default(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            DurableError::Snapshot {
                source: SnapshotError::DeltaOrder {
                    shard: 0,
                    expected_epoch: 0,
                    found_epoch: 3
                },
                ..
            }
        ));
        // No segment file leaked.
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .count();
        assert_eq!(segs, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    // --- satellite: typed decode error paths -----------------------------

    /// Records 2 epochs per shard and returns (dir, deltas).
    fn seeded_dir(tag: &str) -> (PathBuf, Vec<DeltaSnapshot>) {
        let dir = scratch_dir(tag);
        let deltas = workload(2);
        let mut store = DurableCheckpointStore::create(&dir, base(), 0).unwrap();
        for delta in &deltas {
            store.record(delta.clone()).unwrap();
        }
        (dir, deltas)
    }

    #[test]
    fn truncated_segment_yields_typed_error_and_prefix_recovery() {
        let (dir, deltas) = seeded_dir("trunc");
        let victim = seg_name(1, 1);
        let bytes = fs::read(dir.join(&victim)).unwrap();
        fs::write(dir.join(&victim), &bytes[..bytes.len() - 7]).unwrap();
        let (_, report) = DurableCheckpointStore::open(&dir, 0).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, victim);
        assert!(matches!(
            report.quarantined[0].1,
            DurableError::Truncated { .. }
        ));
        // Shard 1 stops before the torn epoch; everyone else is whole.
        let mut ends = vec![2; SHARDS];
        ends[1] = 1;
        assert_eq!(report.chain_ends, ends);
        assert_eq!(report.resumed, expected_image(&deltas, &ends));
        assert!(dir.join(format!("{victim}.corrupt")).is_file());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_yields_typed_error_and_prefix_recovery() {
        let (dir, deltas) = seeded_dir("sum");
        let victim = seg_name(2, 0);
        let mut bytes = fs::read(dir.join(&victim)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20; // same length, different bytes
        fs::write(dir.join(&victim), &bytes).unwrap();
        let (_, report) = DurableCheckpointStore::open(&dir, 0).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(matches!(
            report.quarantined[0].1,
            DurableError::ChecksumMismatch { .. }
        ));
        // Epoch 0 fell, so epoch 1 is unreachable too: shard 2 is base-only.
        let mut ends = vec![2; SHARDS];
        ends[2] = 0;
        assert_eq!(report.chain_ends, ends);
        assert_eq!(report.resumed, expected_image(&deltas, &ends));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_yields_typed_error_and_prefix_recovery() {
        let (dir, deltas) = seeded_dir("missing");
        let victim = seg_name(3, 1);
        fs::remove_file(dir.join(&victim)).unwrap();
        let (_, report) = DurableCheckpointStore::open(&dir, 0).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(matches!(
            report.quarantined[0].1,
            DurableError::MissingSegment { .. }
        ));
        let mut ends = vec![2; SHARDS];
        ends[3] = 1;
        assert_eq!(report.chain_ends, ends);
        assert_eq!(report.resumed, expected_image(&deltas, &ends));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_manifest_version_yields_typed_error() {
        let (dir, _) = seeded_dir("version");
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let tampered = manifest.replace(DURABLE_MANIFEST_VERSION, "dejavu-durable-manifest v9");
        fs::write(dir.join(MANIFEST_FILE), tampered).unwrap();
        let err = DurableCheckpointStore::open(&dir, 0).unwrap_err();
        assert!(
            matches!(err, DurableError::Version { ref found } if found.contains("v9")),
            "expected Version error, got {err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fold_falls_back_to_base_prefix() {
        let dir = scratch_dir("foldloss");
        let deltas = workload(5);
        let mut store = DurableCheckpointStore::create(&dir, base(), 2).unwrap();
        for delta in &deltas {
            store.record(delta.clone()).unwrap();
        }
        let folded = store.store().folded_epochs(0);
        assert!(folded > 0, "cadence 2 over 5 epochs must fold shard 0");
        drop(store);
        let fold_file = fold_name(0, folded);
        let bytes = fs::read(dir.join(&fold_file)).unwrap();
        fs::write(dir.join(&fold_file), &bytes[..bytes.len() / 2]).unwrap();
        let (_, report) = DurableCheckpointStore::open(&dir, 2).unwrap();
        assert!(matches!(
            report.quarantined[0].1,
            DurableError::Truncated { .. }
        ));
        // The fold anchored everything above it: shard 0 restarts at base.
        let mut ends = vec![5; SHARDS];
        ends[0] = 0;
        assert_eq!(report.chain_ends, ends);
        assert_eq!(report.resumed, expected_image(&deltas, &ends));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_manifest_is_a_typed_format_error() {
        let (dir, _) = seeded_dir("manifest-trunc");
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let cut = manifest.len() - "end\n".len() - 3;
        fs::write(dir.join(MANIFEST_FILE), &manifest[..cut]).unwrap();
        let err = DurableCheckpointStore::open(&dir, 0).unwrap_err();
        assert!(
            matches!(err, DurableError::Format { .. }),
            "expected Format error, got {err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    // --- satellite regression: the atomic write helper -------------------

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = scratch_dir("atomic");
        let path = dir.join("out.snap");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second, longer payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer payload");
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    // --- crash-point fuzzing ---------------------------------------------

    /// Drives the workload against a store armed to crash at boundary `n`.
    /// Returns how many records landed durably before the crash (or None if
    /// the workload completed without reaching boundary `n`).
    fn run_until_crash(
        dir: &Path,
        deltas: &[DeltaSnapshot],
        every: usize,
        n: u64,
    ) -> Option<usize> {
        let mut store = DurableCheckpointStore::create(dir, base(), every).unwrap();
        store.set_crash_hook(CrashHook::after_steps(n));
        for (i, delta) in deltas.iter().enumerate() {
            match store.record(delta.clone()) {
                Ok(_) => {}
                Err(DurableError::CrashInjected { .. }) => return Some(i),
                Err(other) => panic!("unexpected durable error: {other}"),
            }
        }
        None
    }

    /// The invariant the whole layer exists for: an abort at ANY protocol
    /// boundary leaves a directory that opens cleanly (no quarantines — the
    /// atomic protocol never corrupts listed files), lands on a consistent
    /// prefix of the recorded history, and accepts the remaining workload.
    fn assert_crash_recovery(tag: &str, every: usize, per_shard: usize) {
        let deltas = workload(per_shard);
        let mut boundary = 1u64;
        loop {
            let dir = scratch_dir(tag);
            let crashed_at = run_until_crash(&dir, &deltas, every, boundary);
            let (mut reopened, report) =
                DurableCheckpointStore::open(&dir, every).unwrap_or_else(|e| {
                    panic!("boundary {boundary}: recovery failed: {e}");
                });
            assert!(
                report.quarantined.is_empty(),
                "boundary {boundary}: crash must never corrupt manifest-listed files, \
                 quarantined {:?}",
                report.quarantined
            );
            // The recovered prefix is consistent: per shard, exactly the
            // first chain_ends[s] deltas, bit-for-bit.
            assert_eq!(
                report.resumed,
                expected_image(&deltas, &report.chain_ends),
                "boundary {boundary}: resumed image diverges from its prefix"
            );
            // And the run can finish: replay the not-yet-durable tail.
            for delta in &deltas {
                if delta.epoch >= report.chain_ends[delta.shard] {
                    reopened.record(delta.clone()).unwrap();
                }
            }
            drop(reopened);
            let (_, final_report) = DurableCheckpointStore::open(&dir, every).unwrap();
            assert_eq!(
                final_report.resumed,
                expected_image(&deltas, &[per_shard; SHARDS]),
                "boundary {boundary}: finished run diverges from uninterrupted"
            );
            let _ = fs::remove_dir_all(&dir);
            if crashed_at.is_none() {
                break; // boundary beyond the workload's total steps
            }
            boundary += 1;
        }
        assert!(boundary > 1, "the hook never fired — no boundaries covered");
    }

    #[test]
    fn crash_points_always_recover_without_compaction() {
        assert_crash_recovery("crash-flat", 0, 2);
    }

    #[test]
    fn crash_points_always_recover_with_compaction() {
        assert_crash_recovery("crash-fold", 2, 3);
    }

    /// Nightly knob: `DEJAVU_CRASH_CASES=N` re-runs the exhaustive
    /// boundary sweep over N progressively larger workloads.
    #[test]
    fn crash_points_raised_cases() {
        let cases: usize = std::env::var("DEJAVU_CRASH_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        for case in 0..cases {
            let every = 1 + case % 3;
            let per_shard = 3 + case % 4;
            assert_crash_recovery(&format!("crash-case{case}"), every, per_shard);
        }
    }
}
