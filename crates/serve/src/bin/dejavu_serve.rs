//! The dejavu-serve daemon binary: hosts one shared signature repository
//! behind the wire protocol until interrupted.
//!
//! ```text
//! dejavu-serve --listen 127.0.0.1:7117 --shards 16 --max-sessions 64
//! dejavu-serve --unix /tmp/dejavu.sock --snapshot-in repo.json
//! dejavu-serve --checkpoint-dir /var/lib/dejavu/ckpt --checkpoint-every 64
//! ```

use dejavu_fleet::snapshot::MAX_SHARDS;
use dejavu_fleet::{SharedRepoConfig, SharedSignatureRepository};
use dejavu_serve::{serve_tcp, ServeConfig, ServePersistence};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
dejavu-serve: host a shared signature repository as an online service

USAGE:
    dejavu-serve [OPTIONS]

OPTIONS:
    --listen ADDR          TCP listen address (default 127.0.0.1:7117)
    --unix PATH            serve on a Unix domain socket instead of TCP
    --shards N             shard count for a fresh repository (default 16;
                           1..=65536, the bound snapshots are read under;
                           not with --snapshot-in, whose count wins)
    --max-sessions N       admission cap on concurrent sessions (default 64;
                           at least 1)
    --snapshot-in PATH     seed the repository from a snapshot file
    --checkpoint-dir PATH  durable checkpoints: every acknowledged mutation
                           is on disk before its response, and a restarted
                           daemon replays the directory at boot (resuming
                           the repository bit-exactly instead of resetting)
    --checkpoint-every N   on-disk delta-chain compaction cadence
                           (default 64; 0 keeps every delta; needs
                           --checkpoint-dir)
    --help                 print this help
";

struct Options {
    listen: String,
    unix: Option<String>,
    /// `None` when `--shards` was not given.
    shards: Option<usize>,
    max_sessions: usize,
    snapshot_in: Option<String>,
    checkpoint_dir: Option<String>,
    /// `None` when `--checkpoint-every` was not given.
    checkpoint_every: Option<usize>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        listen: "127.0.0.1:7117".to_string(),
        unix: None,
        shards: None,
        max_sessions: 64,
        snapshot_in: None,
        checkpoint_dir: None,
        checkpoint_every: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        if arg == "--listen" {
            opts.listen = value("--listen")?;
        } else if arg == "--unix" {
            opts.unix = Some(value("--unix")?);
        } else if arg == "--shards" {
            opts.shards = value("--shards")?
                .parse()
                .ok()
                .filter(|n| (1..=MAX_SHARDS).contains(n))
                .map(Some)
                .ok_or(format!("--shards needs a shard count in 1..={MAX_SHARDS}"))?;
        } else if arg == "--max-sessions" {
            opts.max_sessions = value("--max-sessions")?
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--max-sessions needs a session count of at least 1")?;
        } else if arg == "--snapshot-in" {
            opts.snapshot_in = Some(value("--snapshot-in")?);
        } else if arg == "--checkpoint-dir" {
            opts.checkpoint_dir = Some(value("--checkpoint-dir")?);
        } else if arg == "--checkpoint-every" {
            opts.checkpoint_every = Some(
                value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?,
            );
        } else if arg == "--help" || arg == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        } else {
            return Err(format!("unknown argument {arg}"));
        }
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint_dir.is_none() {
        return Err("--checkpoint-every needs --checkpoint-dir".to_string());
    }
    if opts.shards.is_some() && opts.snapshot_in.is_some() {
        return Err(
            "--shards conflicts with --snapshot-in, which sets the shard count".to_string(),
        );
    }
    Ok(opts)
}

/// Builds the repository and its persistence layer per the boot rules: an
/// existing manifest in `--checkpoint-dir` is replayed (and then owns the
/// repository's contents — mixing in `--snapshot-in` would be ambiguous, so
/// it is an error); otherwise the directory is initialized fresh around the
/// (possibly snapshot-seeded) repository.
fn boot(
    opts: &Options,
) -> Result<(Arc<SharedSignatureRepository>, Option<ServePersistence>), String> {
    let checkpoint_every = opts.checkpoint_every.unwrap_or(64);
    if let Some(dir) = &opts.checkpoint_dir {
        let dir = std::path::Path::new(dir);
        if ServePersistence::exists(dir) {
            if opts.snapshot_in.is_some() {
                return Err(format!(
                    "{} already holds a checkpoint manifest; it defines the repository \
                     contents, so --snapshot-in must not also be given (remove the \
                     directory to start fresh from the snapshot)",
                    dir.display()
                ));
            }
            let (repo, persistence, report) = ServePersistence::resume(dir, checkpoint_every)
                .map_err(|e| format!("replaying checkpoint directory: {e}"))?;
            eprintln!(
                "dejavu-serve: resumed {} entries / {} anchors from {} \
                 ({} deltas replayed{})",
                repo.len(),
                repo.anchor_count(),
                dir.display(),
                report.segments_replayed,
                if report.quarantined.is_empty() {
                    String::new()
                } else {
                    format!(", {} files quarantined", report.quarantined.len())
                }
            );
            for (file, reason) in &report.quarantined {
                eprintln!("dejavu-serve: quarantined {file}: {reason}");
            }
            return Ok((repo, Some(persistence)));
        }
    }
    let repo = match &opts.snapshot_in {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let repo = SharedSignatureRepository::load_snapshot(&text)
                .map_err(|e| format!("loading snapshot {path}: {e}"))?;
            eprintln!(
                "dejavu-serve: seeded {} entries / {} anchors from {path}",
                repo.len(),
                repo.anchor_count()
            );
            repo
        }
        None => SharedSignatureRepository::new(SharedRepoConfig {
            shards: opts.shards.unwrap_or(16),
            ..SharedRepoConfig::default()
        }),
    };
    let repo = Arc::new(repo);
    let persistence = match &opts.checkpoint_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let persistence = ServePersistence::create(dir, &repo, checkpoint_every)
                .map_err(|e| format!("initializing checkpoint directory: {e}"))?;
            eprintln!("dejavu-serve: durable checkpoints at {}", dir.display());
            Some(persistence)
        }
        None => None,
    };
    Ok((repo, persistence))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (repo, persistence) = match boot(&opts) {
        Ok(booted) => booted,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServeConfig {
        max_sessions: opts.max_sessions,
    };
    let handle = if let Some(path) = &opts.unix {
        #[cfg(unix)]
        {
            let path = std::path::Path::new(path);
            let bound = match persistence {
                Some(p) => dejavu_serve::serve_unix_persistent(repo, path, config, p),
                None => dejavu_serve::serve_unix(repo, path, config),
            };
            match bound {
                Ok(handle) => handle,
                Err(e) => {
                    eprintln!("error: binding {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        #[cfg(not(unix))]
        {
            eprintln!("error: --unix is unsupported on this platform");
            return ExitCode::FAILURE;
        }
    } else {
        let bound = match persistence {
            Some(p) => dejavu_serve::serve_tcp_persistent(repo, &opts.listen, config, p),
            None => serve_tcp(repo, &opts.listen, config),
        };
        match bound {
            Ok(handle) => handle,
            Err(e) => {
                eprintln!("error: binding {}: {e}", opts.listen);
                return ExitCode::FAILURE;
            }
        }
    };
    eprintln!("dejavu-serve: listening on {}", handle.endpoint());
    // Serve until the process is killed; the accept thread owns the
    // listener, so parking the main thread is all that is left to do.
    loop {
        std::thread::park();
    }
}
