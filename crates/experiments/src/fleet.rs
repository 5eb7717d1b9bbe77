//! The `fleet` experiment: runs the standard mixed fleet twice — once with the
//! shared signature repository, once with per-tenant isolated repositories —
//! and reports what sharing buys: a higher repository hit rate, fewer
//! cold-start tuning runs, and the fleet-wide cost picture against the
//! `FixedMax` and `RightScale` baselines.
//!
//! Persistence, elastic tenancy and the commit transport ride on the same
//! command:
//!
//! ```text
//! cargo run -p dejavu-experiments --release -- fleet --tenants 200
//! # seed a snapshot, then warm-start a newcomer fleet from it:
//! cargo run -p dejavu-experiments --release -- fleet --tenants 40 --snapshot-out fleet.snap
//! cargo run -p dejavu-experiments --release -- fleet --tenants 8 --snapshot-in fleet.snap
//! # elastic tenancy: staggered late joiners + mid-run departures:
//! cargo run -p dejavu-experiments --release -- fleet --tenants 40 --churn
//! # free-running tenants on a 4-thread work-stealing pool, views at most 2 epochs stale:
//! cargo run -p dejavu-experiments --release -- fleet --transport steal --threads 4 --staleness 2
//! # drop never-hit entries when persisting:
//! cargo run -p dejavu-experiments --release -- fleet --snapshot-out fleet.snap --snapshot-compact
//! # flight recorder: lookup latency quantiles, frontier lag, park/steal rates:
//! cargo run -p dejavu-experiments --release -- fleet --obs --obs-out fleet-obs.json
//! # drive the shared fleet against a dejavu-serve daemon over the wire:
//! cargo run -p dejavu-serve --release -- --listen 127.0.0.1:7117 &
//! cargo run -p dejavu-experiments --release -- fleet --repo remote:127.0.0.1:7117
//! ```
//!
//! With `--snapshot-in` the report carries the newcomer-convergence numbers
//! (mean epochs to the first `FleetReuse`) that show a warm-started tenant
//! skipping the learning phase the DejaVu paper sets out to amortize. With
//! `--transport steal` the report additionally carries the observed-staleness
//! telemetry of the asynchronous transport.
//! The `--transport` name goes through the typed
//! [`TransportConfig::parse`], so an unknown backend is a clear error
//! listing the valid choices rather than a panic.

use crate::report::{pct, Report};
use dejavu_fleet::{
    churn_fleet, standard_fleet, FaultSpec, FleetConfig, FleetEngine, FleetReport,
    RepositoryClient, ShardStats, SharedSignatureRepository, SharingMode, TransportConfig,
};
use dejavu_obs::{Event, ObsReport, Recorder};
use dejavu_serve::RemoteRepository;
use std::sync::Arc;

/// Options of one `fleet` experiment invocation.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Master scenario seed.
    pub seed: u64,
    /// Fleet size.
    pub tenants: usize,
    /// Days simulated per tenant.
    pub days: usize,
    /// Run the FixedMax/RightScale baselines alongside.
    pub baselines: bool,
    /// Use the churn scenario (staggered joiners, mid-run departures).
    pub churn: bool,
    /// Warm-start the shared fleet from this snapshot file.
    pub snapshot_in: Option<String>,
    /// Persist the shared repository to this snapshot file afterwards.
    pub snapshot_out: Option<String>,
    /// Drop never-hit entries when persisting the snapshot.
    pub snapshot_compact: bool,
    /// The commit transport driving both fleets (BSP barrier by default).
    pub transport: TransportConfig,
    /// Enable the fleet flight recorder on the shared fleet and append its
    /// report to the experiment output. Off by default: the disabled
    /// recorder's probes compile to null checks, and results are
    /// bit-identical either way.
    pub obs: bool,
    /// Write the flight-recorder report as canonical JSON to this file
    /// (implies nothing about `obs`; the CLI sets both).
    pub obs_out: Option<String>,
    /// Inject a deterministic fault schedule into the shared fleet
    /// (`--faults SEED` or `--faults SEED:kind,...`). Requires the async
    /// transport — the BSP barrier has no report path to fault.
    pub faults: Option<FaultSpec>,
    /// Compact the recovery delta chains every N commits per shard
    /// (`--checkpoint-every N`; 0 keeps every delta). Only meaningful with
    /// the async transport; recording itself is always on during fault runs.
    pub checkpoint_every: usize,
    /// Spill the shared fleet's delta-chain checkpoints to a durable
    /// on-disk store at this directory (`--checkpoint-dir PATH`): every
    /// commit is crash-safe before it acknowledges, and the directory
    /// replays to the final repository state. Requires the async transport
    /// and an in-process repository.
    pub checkpoint_dir: Option<String>,
    /// Drive the shared fleet against a `dejavu-serve` daemon at this TCP
    /// address instead of an in-process repository (`--repo
    /// remote[:ADDR]`). At staleness 0 the report is bit-identical to the
    /// local run; snapshot files and fault injection live with the serving
    /// process, so requesting them here is an error.
    pub repo_remote: Option<String>,
}

/// Result of the fleet comparison.
#[derive(Debug, Clone)]
pub struct FleetFigure {
    /// The fleet with the shared repository.
    pub shared: FleetReport,
    /// The same fleet with isolated per-tenant repositories.
    pub isolated: FleetReport,
    /// The shared fleet's flight-recorder report, when `--obs` ran.
    pub obs: Option<ObsReport>,
}

impl FleetFigure {
    /// Renders the comparison as a text report.
    pub fn report(&self) -> Report {
        let mut r = Report::new("Fleet: shared vs isolated signature repositories");
        r.kv("tenants", self.shared.tenants.len());
        r.kv("epochs", self.shared.epochs);
        r.kv(
            "repository start",
            if self.shared.warm_start {
                "warm (snapshot)"
            } else {
                "cold"
            },
        );
        // The BSP barrier is the byte-stable default; only non-BSP runs
        // announce their transport and staleness telemetry.
        if self.shared.transport.name != "bsp" {
            r.kv("transport", &self.shared.transport.name);
            r.kv(
                "view staleness (epochs)",
                format!(
                    "mean {:.2} / max {} over {} tenant-epochs",
                    self.shared.transport.view_staleness.mean(),
                    self.shared.transport.view_staleness.max(),
                    self.shared.transport.view_staleness.total(),
                ),
            );
            r.kv(
                "reuse staleness (epochs)",
                format!(
                    "mean {:.2} / max {} over {} committed hits",
                    self.shared.transport.reuse_staleness.mean(),
                    self.shared.transport.reuse_staleness.max(),
                    self.shared.transport.reuse_staleness.total(),
                ),
            );
        }
        if let Some(f) = &self.shared.faults {
            r.kv(
                "faults injected",
                format!("{} under spec '{}'", f.injected, f.spec),
            );
            r.kv(
                "recovery",
                format!(
                    "{} crashes replayed over {} epochs, {} committer restarts, \
                     {} shard losses, {} checkpoints",
                    f.tenants_crashed,
                    f.replayed_epochs,
                    f.committer_restarts,
                    f.shard_losses,
                    f.checkpoints
                ),
            );
        }
        r.kv("hit rate (shared)", pct(self.shared.fleet_hit_rate()));
        r.kv("hit rate (isolated)", pct(self.isolated.fleet_hit_rate()));
        r.kv("tuning runs (shared)", self.shared.total_tunings());
        r.kv("tuning runs (isolated)", self.isolated.total_tunings());
        r.kv(
            "tunings avoided via fleet reuse",
            self.shared.total_fleet_reuses(),
        );
        if let Some(mean) = self.shared.mean_epochs_to_first_reuse() {
            r.kv(
                "epochs to first fleet reuse",
                format!(
                    "{:.1} (mean over {} of {} tenants)",
                    mean,
                    self.shared.tenants_with_fleet_reuse(),
                    self.shared.tenants.len()
                ),
            );
        }
        r.kv("cross-tenant hits", self.shared.total_cross_tenant_hits());
        r.kv(
            "SLO violation (shared)",
            pct(self.shared.aggregate_slo_violation()),
        );
        r.kv(
            "SLO violation (isolated)",
            pct(self.isolated.aggregate_slo_violation()),
        );
        r.kv(
            "DejaVu cost (shared)",
            format!("${:.2}", self.shared.total_cost()),
        );
        if let (Some(fixed), Some(right)) = (
            self.shared.total_fixed_max_cost(),
            self.shared.total_rightscale_cost(),
        ) {
            r.kv("FixedMax cost", format!("${fixed:.2}"));
            r.kv("RightScale cost", format!("${right:.2}"));
            r.kv(
                "savings vs FixedMax",
                pct(1.0 - self.shared.total_cost() / fixed.max(f64::MIN_POSITIVE)),
            );
        }
        if let Some(repo) = &self.shared.shared_repo {
            r.kv(
                "shared repo",
                format!(
                    "{} entries / {} anchors / {} shards",
                    repo.entries,
                    repo.anchors,
                    repo.shard_stats.len()
                ),
            );
        }
        r.line("");
        r.line(self.shared.render());
        if let Some(obs) = &self.obs {
            r.line("");
            r.line(obs.render());
        }
        r
    }
}

/// Runs the fleet comparison under `opts`. Reads/writes snapshot files when
/// requested; IO or snapshot-format problems surface as errors.
pub fn run_opts(opts: &FleetOptions) -> Result<FleetFigure, Box<dyn std::error::Error>> {
    // Fault schedules ride the asynchronous report path; reject the
    // combination with the barrier up front, with the same typed error the
    // CLI surfaces.
    if let Some(spec) = &opts.faults {
        opts.transport.check_faults(spec)?;
    }
    // Durable checkpointing rides the same commit-boundary capture path as
    // fault recovery, which the barrier transport doesn't have.
    if opts.checkpoint_dir.is_some() && opts.transport == TransportConfig::Bsp {
        return Err(
            "--checkpoint-dir needs an async transport (--transport steal): the bsp barrier \
             has no commit-boundary capture path"
                .into(),
        );
    }
    let scenario = if opts.churn {
        churn_fleet(opts.tenants, opts.days, opts.seed, 24)
    } else {
        standard_fleet(opts.tenants, opts.days, opts.seed)
    };
    let config = |sharing, run_baselines| FleetConfig {
        sharing,
        run_baselines,
        transport: opts.transport,
        ..Default::default()
    };
    // One recorder instruments the shared fleet (store + transport + engine
    // probes all aggregate into it); the isolated comparison fleet stays
    // unrecorded so the report describes exactly one run.
    let recorder = if opts.obs {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    let mut shared_config = config(SharingMode::Shared, opts.baselines);
    shared_config.recorder = recorder.clone();
    // Faults and checkpointing apply to the shared fleet only: the isolated
    // comparison fleet is the clean reference the shared one is judged
    // against.
    shared_config.faults = opts.faults;
    shared_config.checkpoint_every = opts.checkpoint_every;
    shared_config.checkpoint_dir = opts.checkpoint_dir.clone();
    let engine = FleetEngine::new(scenario.clone(), shared_config);
    let (shared, shard_stats): (FleetReport, Vec<ShardStats>) = match &opts.repo_remote {
        Some(addr) => {
            // Snapshot files and fault schedules belong to the process that
            // owns the repository; over the wire they would silently no-op,
            // so reject them loudly instead.
            if opts.snapshot_in.is_some() || opts.snapshot_out.is_some() {
                return Err("--repo remote cannot read or write snapshot files; \
                     snapshot on the serving side (dejavu-serve --snapshot-in)"
                    .into());
            }
            if opts.faults.is_some() {
                return Err("--repo remote cannot inject faults: crash recovery is the \
                     serving process's business, not its clients'"
                    .into());
            }
            if opts.checkpoint_dir.is_some() {
                return Err(
                    "--repo remote cannot write durable checkpoints; checkpoint \
                     on the serving side (dejavu-serve --checkpoint-dir)"
                        .into(),
                );
            }
            let client: Arc<dyn RepositoryClient> =
                Arc::new(RemoteRepository::connect_tcp(addr, 0)?);
            let shared = engine.run_on_client(Arc::clone(&client));
            let shard_stats = client.shard_stats();
            (shared, shard_stats)
        }
        None => {
            let repo = match &opts.snapshot_in {
                Some(path) => {
                    let text = std::fs::read_to_string(path)?;
                    let loaded = SharedSignatureRepository::load_snapshot(&text)?;
                    recorder.event(|| Event::SnapshotLoad {
                        bytes: text.len() as u64,
                    });
                    loaded
                }
                None => SharedSignatureRepository::new(engine.config().repo.clone()),
            };
            let repo = Arc::new(repo.with_recorder(recorder.clone()));
            let shared = engine.run_on(Arc::clone(&repo));
            if let Some(path) = &opts.snapshot_out {
                let text = if opts.snapshot_compact {
                    repo.save_snapshot_compact()
                } else {
                    repo.save_snapshot()
                };
                // Temp + fsync + rename: a crash mid-write must never leave
                // a torn snapshot a later --snapshot-in would reject.
                dejavu_fleet::write_atomic(std::path::Path::new(path), text.as_bytes())?;
            }
            let shard_stats = repo.shard_stats();
            (shared, shard_stats)
        }
    };

    // Fold the store's per-shard hit/miss/evict counters into the obs report
    // alongside the recorder's own metrics (fetched over the wire for remote
    // runs — the statistics live with the serving process).
    let obs = recorder.report().map(|mut report| {
        for (shard, stats) in shard_stats.iter().enumerate() {
            report.push_counter(&format!("shard{shard}.hits"), stats.hits);
            report.push_counter(&format!("shard{shard}.misses"), stats.misses);
            report.push_counter(&format!("shard{shard}.evictions"), stats.evictions);
        }
        report
    });
    if let (Some(path), Some(report)) = (&opts.obs_out, &obs) {
        std::fs::write(path, report.render_json())?;
    }

    // The baselines ignore the repository, so their runs are identical in both
    // fleets; only the shared fleet pays for them.
    let isolated = FleetEngine::new(scenario, config(SharingMode::Isolated, false)).run();
    Ok(FleetFigure {
        shared,
        isolated,
        obs,
    })
}

/// Runs the fleet comparison for `tenants` tenants over `days` days.
pub fn run_with(seed: u64, tenants: usize, days: usize, baselines: bool) -> FleetFigure {
    run_opts(&FleetOptions {
        seed,
        tenants,
        days,
        baselines,
        ..Default::default()
    })
    .expect("fleet run without snapshot IO cannot fail")
}

/// Runs the default-size fleet comparison (40 tenants, 3 days, baselines on).
pub fn run(seed: u64) -> FleetFigure {
    run_with(seed, 40, 3, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_strictly_beats_isolation_on_hit_rate() {
        let fig = run_with(3, 8, 2, false);
        assert!(
            fig.shared.fleet_hit_rate() > fig.isolated.fleet_hit_rate(),
            "shared {} vs isolated {}",
            fig.shared.fleet_hit_rate(),
            fig.isolated.fleet_hit_rate()
        );
        assert!(fig.shared.total_tunings() < fig.isolated.total_tunings());
        let text = fig.report().into_text();
        assert!(text.contains("hit rate (shared)"));
    }

    #[test]
    fn snapshot_round_trip_warm_starts_a_newcomer_fleet() {
        let dir = std::env::temp_dir().join("dejavu-fleet-exp-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        // Per-process file name: concurrent test invocations (debug + release,
        // parallel CI jobs) must not race on one snapshot path.
        let path = dir
            .join(format!("fleet-{}.snap", std::process::id()))
            .to_string_lossy()
            .into_owned();

        let seeded = run_opts(&FleetOptions {
            seed: 3,
            tenants: 6,
            days: 2,
            snapshot_out: Some(path.clone()),
            ..Default::default()
        })
        .expect("seeding run");
        assert!(!seeded.shared.warm_start);

        let warm = run_opts(&FleetOptions {
            seed: 9,
            tenants: 2,
            days: 1,
            snapshot_in: Some(path.clone()),
            ..Default::default()
        })
        .expect("warm run");
        assert!(warm.shared.warm_start);
        let cold = run_opts(&FleetOptions {
            seed: 9,
            tenants: 2,
            days: 1,
            ..Default::default()
        })
        .expect("cold run");
        let warm_first = warm
            .shared
            .mean_epochs_to_first_reuse()
            .expect("warm fleet reuses");
        if let Some(cold_first) = cold.shared.mean_epochs_to_first_reuse() {
            assert!(
                warm_first <= cold_first,
                "warm {warm_first} vs cold {cold_first}"
            );
        }
        assert!(warm.report().into_text().contains("warm (snapshot)"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn work_stealing_transport_runs_and_reports_staleness() {
        let base = FleetOptions {
            seed: 3,
            tenants: 6,
            days: 1,
            ..Default::default()
        };
        // One worker per tenant, and a capped pool.
        for (threads, staleness) in [(6, 2), (2, 1)] {
            let fig = run_opts(&FleetOptions {
                transport: TransportConfig::WorkStealing { threads, staleness },
                ..base.clone()
            })
            .expect("steal run");
            assert_eq!(
                fig.shared.transport.name,
                format!("steal(threads={threads},staleness={staleness})")
            );
            assert!(fig.shared.transport.view_staleness.max() <= staleness);
            assert!(fig.report().into_text().contains("view staleness"));
        }
        // The BSP report stays free of transport telemetry lines.
        let bsp = run_opts(&base).expect("bsp run");
        assert!(!bsp.report().into_text().contains("view staleness"));
    }

    #[test]
    fn unknown_transport_names_parse_to_a_helpful_error() {
        let err = TransportConfig::parse("tokio", 4, 1).expect_err("unknown backend");
        assert!(err.contains("'tokio'"), "{err}");
        assert!(err.contains("'steal'"), "{err}");
    }

    #[test]
    fn fault_injected_fleet_converges_and_reports_recovery() {
        let base = FleetOptions {
            seed: 3,
            tenants: 6,
            days: 1,
            ..Default::default()
        };
        let clean = run_opts(&base).expect("fault-free run");
        let faulty = run_opts(&FleetOptions {
            transport: TransportConfig::WorkStealing {
                threads: 6,
                staleness: 0,
            },
            faults: Some(FaultSpec::parse("42").expect("valid spec")),
            checkpoint_every: 4,
            ..base
        })
        .expect("fault run");
        let summary = faulty.shared.faults.as_ref().expect("fault summary");
        assert!(summary.injected > 0, "the schedule never fired");
        // At staleness 0 recovery is invisible: the faulty fleet lands on
        // the fault-free barrier's results.
        assert_eq!(
            faulty.shared.fleet_hit_rate(),
            clean.shared.fleet_hit_rate()
        );
        assert_eq!(faulty.shared.total_cost(), clean.shared.total_cost());
        assert_eq!(faulty.shared.hit_rate_curve, clean.shared.hit_rate_curve);
        let text = faulty.report().into_text();
        assert!(text.contains("faults injected"), "{text}");
        assert!(text.contains("recovery"), "{text}");
    }

    #[test]
    fn fault_specs_on_the_bsp_barrier_are_rejected() {
        let err = run_opts(&FleetOptions {
            seed: 3,
            tenants: 2,
            days: 1,
            faults: Some(FaultSpec::parse("7:crash").expect("valid spec")),
            ..Default::default()
        })
        .expect_err("bsp cannot inject faults");
        let message = err.to_string();
        assert!(message.contains("'bsp'"), "{message}");
        assert!(message.contains("cannot inject faults"), "{message}");
    }

    #[test]
    fn malformed_fault_specs_surface_each_typed_rejection() {
        use dejavu_fleet::FaultSpecError;
        // Empty spec.
        let err = FaultSpec::parse("  ").expect_err("empty");
        assert_eq!(err, FaultSpecError::Empty);
        assert!(err.to_string().contains("'crash'"), "{err}");
        // Unparsable seed.
        let err = FaultSpec::parse("banana:crash").expect_err("bad seed");
        assert_eq!(
            err,
            FaultSpecError::BadSeed {
                token: "banana".to_string()
            }
        );
        assert!(err.to_string().contains("banana"), "{err}");
        // Unknown kind, listing the valid ones.
        let err = FaultSpec::parse("7:flood").expect_err("unknown kind");
        assert_eq!(
            err,
            FaultSpecError::UnknownKind {
                kind: "flood".to_string()
            }
        );
        let message = err.to_string();
        for valid in [
            "'crash'",
            "'restart'",
            "'drop'",
            "'dup'",
            "'reorder'",
            "'shard-loss'",
        ] {
            assert!(message.contains(valid), "{message} should list {valid}");
        }
        // A kind list that lists nothing.
        let err = FaultSpec::parse("7:,,").expect_err("no kinds");
        assert_eq!(err, FaultSpecError::NoKinds);
        assert!(err.to_string().contains("valid kinds"), "{err}");
    }

    #[test]
    fn compacted_snapshots_shed_never_hit_entries() {
        let dir = std::env::temp_dir().join("dejavu-fleet-exp-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let full_path = dir
            .join(format!("fleet-full-{}.snap", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let compact_path = dir
            .join(format!("fleet-compact-{}.snap", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let base = FleetOptions {
            seed: 3,
            tenants: 6,
            days: 1,
            ..Default::default()
        };
        run_opts(&FleetOptions {
            snapshot_out: Some(full_path.clone()),
            ..base.clone()
        })
        .expect("full snapshot run");
        run_opts(&FleetOptions {
            snapshot_out: Some(compact_path.clone()),
            snapshot_compact: true,
            ..base
        })
        .expect("compacted snapshot run");
        let full = std::fs::read_to_string(&full_path).expect("full snapshot");
        let compact = std::fs::read_to_string(&compact_path).expect("compacted snapshot");
        assert!(
            compact.len() < full.len(),
            "compaction shed nothing: {} vs {} bytes",
            compact.len(),
            full.len()
        );
        // The compacted snapshot still loads and warm-starts a fleet.
        let warm = run_opts(&FleetOptions {
            seed: 9,
            tenants: 2,
            days: 1,
            snapshot_in: Some(compact_path.clone()),
            ..Default::default()
        })
        .expect("warm run from compacted snapshot");
        assert!(warm.shared.warm_start);
        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&compact_path).ok();
    }

    #[test]
    fn remote_repo_runs_bit_match_local_runs_and_reject_local_only_options() {
        use dejavu_fleet::SharedRepoConfig;
        let base = FleetOptions {
            seed: 3,
            tenants: 6,
            days: 1,
            ..Default::default()
        };
        let local = run_opts(&base).expect("local run");

        let handle = dejavu_serve::serve_tcp(
            Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default())),
            "127.0.0.1:0",
            dejavu_serve::ServeConfig::default(),
        )
        .expect("server binds");
        let addr = handle.tcp_addr().expect("tcp server").to_string();
        let remote = run_opts(&FleetOptions {
            repo_remote: Some(addr.clone()),
            ..base.clone()
        })
        .expect("remote run");
        assert_eq!(
            format!("{:?}", local.shared),
            format!("{:?}", remote.shared),
            "the wire run diverged from the in-process run"
        );

        // Local-only options are rejected loudly, not silently no-oped.
        let err = run_opts(&FleetOptions {
            repo_remote: Some(addr.clone()),
            snapshot_out: Some("unused.snap".into()),
            ..base.clone()
        })
        .expect_err("snapshots over the wire");
        assert!(err.to_string().contains("serving side"), "{err}");
        let err = run_opts(&FleetOptions {
            repo_remote: Some(addr),
            transport: TransportConfig::WorkStealing {
                threads: 6,
                staleness: 0,
            },
            faults: Some(FaultSpec::parse("42").expect("valid spec")),
            ..base
        })
        .expect_err("faults over the wire");
        assert!(err.to_string().contains("serving process"), "{err}");
        handle.stop();
    }

    #[test]
    fn snapshot_out_writes_atomically() {
        let dir = std::env::temp_dir().join("dejavu-fleet-exp-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir
            .join(format!("fleet-atomic-{}.snap", std::process::id()))
            .to_string_lossy()
            .into_owned();
        // Pre-plant garbage at the target: the atomic write must replace it
        // whole (a direct `fs::write` truncates first, so a crash mid-write
        // leaves a torn file a later --snapshot-in rejects).
        std::fs::write(&path, "not a snapshot").expect("plant garbage");
        run_opts(&FleetOptions {
            seed: 3,
            tenants: 4,
            days: 1,
            snapshot_out: Some(path.clone()),
            ..Default::default()
        })
        .expect("snapshot run");
        // The replaced file parses, and the temp sibling is gone.
        let text = std::fs::read_to_string(&path).expect("snapshot file");
        SharedSignatureRepository::load_snapshot(&text).expect("snapshot loads");
        assert!(
            !std::path::Path::new(&format!("{path}.tmp")).exists(),
            "temp file leaked"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_dir_replays_to_the_final_repository_state() {
        use dejavu_fleet::DurableCheckpointStore;
        let ckpt =
            std::env::temp_dir().join(format!("dejavu-fleet-exp-ckpt-{}", std::process::id()));
        let snap = std::env::temp_dir()
            .join(format!("dejavu-fleet-exp-ckpt-{}.snap", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let fig = run_opts(&FleetOptions {
            seed: 3,
            tenants: 6,
            days: 1,
            transport: TransportConfig::WorkStealing {
                threads: 6,
                staleness: 0,
            },
            checkpoint_every: 4,
            checkpoint_dir: Some(ckpt.to_string_lossy().into_owned()),
            snapshot_out: Some(snap.clone()),
            ..Default::default()
        })
        .expect("checkpointed run");
        let summary = fig.shared.faults.as_ref().expect("checkpoint telemetry");
        assert!(summary.checkpoints > 0, "no checkpoints were recorded");
        // The directory replays, unaided, to the run's final repository.
        let (_, report) = DurableCheckpointStore::open(&ckpt, 4).expect("directory replays");
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        let final_snapshot = std::fs::read_to_string(&snap).expect("snapshot file");
        let final_repo =
            SharedSignatureRepository::load_snapshot(&final_snapshot).expect("snapshot loads");
        assert_eq!(
            dejavu_fleet::snapshot::encode(&report.resumed),
            final_repo.save_snapshot(),
            "replayed checkpoint directory diverged from the final repository"
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_dir_all(&ckpt).ok();
    }

    #[test]
    fn checkpoint_dir_on_the_bsp_barrier_is_rejected() {
        let err = run_opts(&FleetOptions {
            seed: 3,
            tenants: 2,
            days: 1,
            checkpoint_dir: Some("unused-dir".into()),
            ..Default::default()
        })
        .expect_err("bsp cannot checkpoint durably");
        assert!(err.to_string().contains("async transport"), "{err}");

        let handle = dejavu_serve::serve_tcp(
            Arc::new(SharedSignatureRepository::new(
                dejavu_fleet::SharedRepoConfig::default(),
            )),
            "127.0.0.1:0",
            dejavu_serve::ServeConfig::default(),
        )
        .expect("server binds");
        let addr = handle.tcp_addr().expect("tcp server").to_string();
        let err = run_opts(&FleetOptions {
            seed: 3,
            tenants: 2,
            days: 1,
            transport: TransportConfig::WorkStealing {
                threads: 2,
                staleness: 0,
            },
            checkpoint_dir: Some("unused-dir".into()),
            repo_remote: Some(addr),
            ..Default::default()
        })
        .expect_err("durable checkpoints over the wire");
        assert!(err.to_string().contains("serving side"), "{err}");
        handle.stop();
    }

    #[test]
    fn churn_scenario_runs_and_reports_late_joiners() {
        let fig = run_opts(&FleetOptions {
            seed: 5,
            tenants: 8,
            days: 2,
            churn: true,
            ..Default::default()
        })
        .expect("churn run");
        assert!(
            fig.shared.tenants.iter().any(|t| t.joined_epoch > 0),
            "no late joiner"
        );
        assert!(
            fig.shared
                .tenants
                .iter()
                .any(|t| t.active_epochs < fig.shared.epochs),
            "no early leaver"
        );
    }
}
