//! The fleet engine: runs every tenant of a [`Scenario`] concurrently over
//! the shared simulated clock, with all DejaVu controllers reading and
//! writing one [`SharedSignatureRepository`].
//!
//! # Transports
//!
//! How tenant-buffered operations reach the shared store — and what
//! consistency tenants observe — is the job of the pluggable
//! [`crate::transport`] layer. The engine prepares tenants (admission
//! windows, clock offsets, outboxes), hands them to a
//! [`CommitTransport`], and turns the driven runs into a [`FleetReport`]:
//!
//! * [`TransportConfig::Bsp`] (default) — the lock-step epoch barrier.
//!   Tenants advance in epochs; at each barrier the transport drains the
//!   outboxes **in tenant order** and applies them, then runs TTL eviction.
//!   Mid-epoch the shared store never changes, so the fleet result is a pure
//!   function of the scenario — independent of thread count or OS scheduling.
//! * [`TransportConfig::WorkStealing`] — a fixed pool of worker threads
//!   pulling per-epoch tenant tasks from a shared deque; a tenant enters an
//!   epoch once its own shard has committed every earlier one. Results
//!   bit-match the barrier at any thread count (fuzzed across scenarios in
//!   `tests/differential.rs`).
//!
//! # Elastic tenancy
//!
//! Tenants may join and leave mid-run ([`crate::TenantSpec::start`] /
//! [`crate::TenantSpec::stop`]). Admission and retirement happen **at epoch
//! boundaries only** — a joining tenant takes its first observation tick in
//! the epoch after the barrier at (or right after) its start time, and a
//! leaving tenant retires at the barrier ending the epoch that reaches its
//! stop time — so churn never perturbs the deterministic commit order. A
//! tenant's trace and local clock begin at its join barrier; because
//! admission is barrier-aligned, a tenant joining an otherwise quiescent
//! fleet behaves bit-identically to a tenant running alone against a
//! repository warm-started from a snapshot of that fleet (property-tested in
//! `tests/properties.rs`).
//!
//! # Warm starts
//!
//! [`FleetEngine::run_on`] runs the fleet against a caller-provided (e.g.
//! snapshot-loaded) repository, and the caller can persist the final state
//! with [`SharedSignatureRepository::save_snapshot`];
//! [`FleetEngine::run_warm`] wires both ends. A warm run **resumes the global
//! fleet clock at the snapshot's clock** (the seeding run's high-water mark),
//! so entry ages — and TTL expiry — carry over restarts rather than letting
//! arbitrarily old entries masquerade as fresh. [`FleetReport`] records
//! per-tenant epochs-to-first-fleet-reuse and the fleet-wide hit-rate curve,
//! which is how warm-start convergence is measured against cold starts.

use crate::faults::FaultSpec;
use crate::repo_client::RepositoryClient;
use crate::report::{FleetReport, SharedRepoSnapshot, TenantOutcome};
use crate::scenario::{EpochWindow, Scenario};
use crate::shared_repo::{SharedRepoConfig, SharedSignatureRepository};
use crate::snapshot::SnapshotError;
use crate::tenant_view::TenantRepoView;
use crate::transport::{CommitTransport, FleetHarness, RespawnFn, TenantRun, TransportConfig};
use dejavu_baselines::{FixedMax, RightScale, RightScaleConfig};
use dejavu_core::{DejaVuConfig, DejaVuController};
use dejavu_obs::{Event, Recorder};
use std::sync::Arc;

/// Whether tenants share one repository or each keep their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// All tenants read/write the fleet-shared repository.
    Shared,
    /// Every tenant keeps a private `SignatureRepository` (the ablation the
    /// fleet experiment compares against).
    Isolated,
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Repository sharing mode.
    pub sharing: SharingMode,
    /// Worker threads for the barrier transport and tenant finalization;
    /// 0 means "one per available core". The work-stealing transport sizes
    /// its pool from its own `threads` field.
    pub workers: usize,
    /// Shared-repository sharding/TTL configuration.
    pub repo: SharedRepoConfig,
    /// Learning-phase length handed to every tenant's DejaVu controller.
    pub learning_hours: u64,
    /// Also run the `FixedMax` and `RightScale` baselines for every tenant
    /// (for the fleet-wide cost comparison). Roughly triples the work.
    pub run_baselines: bool,
    /// The commit transport coordinating tenants and the shared store.
    pub transport: TransportConfig,
    /// The fleet flight recorder. Disabled by default — every probe folds to
    /// a null check, and an enabled recorder never feeds back into the
    /// simulation, so results are bit-identical either way. [`FleetEngine::run`]
    /// and [`FleetEngine::run_warm`] attach it to the repository they build;
    /// callers of [`FleetEngine::run_on`] attach a clone to their own
    /// repository via
    /// [`SharedSignatureRepository::with_recorder`] if they want store-level
    /// probes too (clones share storage).
    pub recorder: Recorder,
    /// Deterministic fault schedule (tenant crashes, shard losses) injected
    /// into the run on either transport (`None` — the default — injects
    /// nothing and costs nothing). Takes effect on a shared-mode fleet with
    /// an in-process repository; elsewhere there is nothing to recover.
    pub faults: Option<FaultSpec>,
    /// Delta-checkpoint chain compaction cadence for fault-injected (or
    /// checkpoint-profiled) runs, on either transport: fold the chain every
    /// N checkpoints per shard. 0 (the default) retains the full chain;
    /// any N > 0 also turns checkpointing on without faults.
    pub checkpoint_every: usize,
    /// Spill the delta chain to a durable on-disk checkpoint store at this
    /// directory (see `dejavu_fleet::durable`), on either transport: every
    /// commit's checkpoint is crash-safe on disk before the next epoch can
    /// read it, and the directory replays to the final repository state.
    /// `None` (the default) keeps checkpoints in memory. Takes effect on a
    /// shared-mode fleet with an in-process repository.
    pub checkpoint_dir: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sharing: SharingMode::Shared,
            workers: 0,
            repo: SharedRepoConfig::default(),
            learning_hours: 24,
            run_baselines: false,
            transport: TransportConfig::Bsp,
            recorder: Recorder::disabled(),
            faults: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
        }
    }
}

/// Test seam: a hook that sabotages prepared tenant runs before the
/// transport drives them (e.g. poisoning an outbox to force a mid-epoch
/// panic). Production runs never install one.
type TamperFn = dyn Fn(&mut [TenantRun]);

/// Runs a whole fleet deterministically.
#[derive(Debug)]
pub struct FleetEngine {
    scenario: Scenario,
    config: FleetConfig,
}

impl FleetEngine {
    /// Creates an engine for `scenario` under `config`.
    pub fn new(scenario: Scenario, config: FleetConfig) -> Self {
        FleetEngine { scenario, config }
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    fn worker_count(&self, tenants: usize) -> usize {
        let configured = if self.config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.workers
        };
        configured.clamp(1, tenants.max(1))
    }

    /// Runs the fleet to completion against a fresh, cold repository.
    pub fn run(&self) -> FleetReport {
        self.run_on(Arc::new(
            SharedSignatureRepository::new(self.config.repo.clone())
                .with_recorder(self.config.recorder.clone()),
        ))
    }

    /// Loads `snapshot` (see [`crate::snapshot`]) and runs the fleet against
    /// the warm repository it describes. The snapshot's own configuration
    /// (sharding, TTL, tolerance) governs the repository, not
    /// [`FleetConfig::repo`]. Returns the report and the repository so the
    /// caller can persist the post-run state.
    pub fn run_warm(
        &self,
        snapshot: &str,
    ) -> Result<(FleetReport, Arc<SharedSignatureRepository>), SnapshotError> {
        let shared = Arc::new(
            SharedSignatureRepository::load_snapshot(snapshot)?
                .with_recorder(self.config.recorder.clone()),
        );
        self.config.recorder.event(|| Event::SnapshotLoad {
            bytes: snapshot.len() as u64,
        });
        let report = self.run_on(Arc::clone(&shared));
        Ok((report, shared))
    }

    /// Runs the fleet against a caller-provided repository (cold or
    /// snapshot-loaded) over the configured transport. Keep a clone of the
    /// `Arc` to call [`SharedSignatureRepository::save_snapshot`] afterwards.
    pub fn run_on(&self, shared: Arc<SharedSignatureRepository>) -> FleetReport {
        self.run_on_with(shared, self.config.transport.backend().as_ref())
    }

    /// Runs the fleet through any [`RepositoryClient`] — the entry point
    /// `dejavu-serve`'s wire client uses to drive a fleet against a
    /// repository living in another process. Works over every transport;
    /// fault injection and checkpointing need the in-process repository's
    /// snapshot/restore surface, so they stay inert here (crash recovery is
    /// the serving process's business, not its clients').
    pub fn run_on_client(&self, client: Arc<dyn RepositoryClient>) -> FleetReport {
        self.run_on_inner(client, None, self.config.transport.backend().as_ref(), None)
    }

    /// [`run_on`](Self::run_on) over an explicit transport — the extension
    /// point for consistency models beyond the built-in pair: implement
    /// [`CommitTransport`] and hand it in here.
    pub fn run_on_with(
        &self,
        shared: Arc<SharedSignatureRepository>,
        transport: &dyn CommitTransport,
    ) -> FleetReport {
        self.run_on_inner(Arc::clone(&shared) as _, Some(&shared), transport, None)
    }

    /// Test seam: runs the fleet but lets the caller tamper with the
    /// prepared tenant runs first (e.g. poison an outbox so a tenant panics
    /// mid-step — the fault the transports must survive by retiring the
    /// tenant instead of aborting the fleet).
    #[cfg(test)]
    pub(crate) fn run_tampered(
        &self,
        shared: Arc<SharedSignatureRepository>,
        transport: &dyn CommitTransport,
        tamper: &TamperFn,
    ) -> FleetReport {
        self.run_on_inner(
            Arc::clone(&shared) as _,
            Some(&shared),
            transport,
            Some(tamper),
        )
    }

    fn run_on_inner(
        &self,
        shared: Arc<dyn RepositoryClient>,
        concrete: Option<&Arc<SharedSignatureRepository>>,
        transport: &dyn CommitTransport,
        tamper: Option<&TamperFn>,
    ) -> FleetReport {
        let warm_start = !shared.is_empty();
        let epoch_secs = self.scenario.epoch.as_secs();
        // A warm-started fleet resumes the global clock where the snapshot
        // left it (the repository's high-water mark): entry ages, and with
        // them TTL expiry, carry over restarts instead of resetting to zero.
        // Cold repositories have a zero clock, so nothing changes for them.
        let origin_secs = shared.clock().as_secs();
        let windows = self.scenario.epoch_windows();
        let epochs = windows.iter().map(|w| w.end).max().unwrap_or(0);
        let shared_view = (self.config.sharing == SharingMode::Shared).then_some(&shared);
        let mut runs: Vec<TenantRun> = (0..self.scenario.tenants.len())
            .map(|index| self.build_run(index, windows[index], shared_view, origin_secs))
            .collect();
        if let Some(tamper) = tamper {
            tamper(&mut runs);
        }

        // The crash-recovery respawn hook: rebuilds tenant `index` from
        // scratch, reading through `repo` (the recovery replay clone).
        // Deterministic — the same spec, seed, tenancy window and clock
        // offset as the original build above — so replaying the same epochs
        // reproduces the pre-crash state bit for bit.
        let respawn_closure = |index: usize, repo: Arc<SharedSignatureRepository>| -> TenantRun {
            let replay: Arc<dyn RepositoryClient> = repo;
            self.build_run(index, windows[index], Some(&replay), origin_secs)
        };
        let respawn: Option<&RespawnFn<'_>> = match self.config.sharing {
            SharingMode::Shared => Some(&respawn_closure),
            SharingMode::Isolated => None,
        };

        let workers = self.worker_count(runs.len());
        let outcome = {
            let mut harness = FleetHarness {
                runs: &mut runs,
                shared: &shared,
                concrete,
                epochs,
                epoch_secs,
                origin_secs,
                workers,
                recorder: &self.config.recorder,
                faults: self.config.faults.map(FaultSpec::plan),
                checkpoint_every: self.config.checkpoint_every,
                checkpoint_dir: self.config.checkpoint_dir.as_deref(),
                respawn,
            };
            transport.drive(&mut harness)
        };
        let finalize_started = self.config.recorder.start();
        let tenants = self.finish(runs, &outcome.cross_tenant_hits, &outcome.failed);
        if let Some(started) = finalize_started {
            let elapsed = started.elapsed().as_nanos() as u64;
            self.config.recorder.with(|m| m.finalize_ns.set(elapsed));
        }

        let shared_repo =
            (self.config.sharing == SharingMode::Shared).then(|| SharedRepoSnapshot {
                entries: shared.len(),
                anchors: shared.anchor_count(),
                stats: shared.stats(),
                shard_stats: shared.shard_stats(),
            });

        FleetReport {
            scenario: self.scenario.name.clone(),
            sharing: self.config.sharing,
            epochs,
            warm_start,
            tenants,
            shared_repo,
            hit_rate_curve: outcome.hit_rate_curve,
            transport: outcome.summary,
            faults: outcome.faults,
        }
    }

    /// Builds one tenant's complete in-flight run — engine, DejaVu
    /// controller, baselines, tenancy window, repository view. Used both by
    /// the initial prepare pass and by crash recovery (which rebuilds a
    /// tenant against a private replay repository); everything here is a
    /// pure function of the scenario and `origin_secs`, so a rebuilt tenant
    /// replayed over the same epochs is bit-identical to the original.
    /// `window` must be the tenant's entry of [`Scenario::epoch_windows`]:
    /// computing that vector is a pass over every tenant, so the caller does
    /// it once per run instead of this function doing it once per tenant.
    fn build_run(
        &self,
        index: usize,
        window: EpochWindow,
        shared: Option<&Arc<dyn RepositoryClient>>,
        origin_secs: f64,
    ) -> TenantRun {
        let epoch_secs = self.scenario.epoch.as_secs();
        let spec = &self.scenario.tenants[index];
        let engine = crate::engine::SimulationEngine::new(spec.run_config(self.scenario.tick));
        let namespace = spec.namespace();
        let space = engine.config().space.clone();
        let dv_config = DejaVuConfig::builder()
            .learning_hours(self.config.learning_hours)
            .seed(spec.seed)
            .build();
        let mut controller = DejaVuController::new(dv_config, spec.service.build(), space.clone())
            .with_name(format!("dejavu-{}", spec.name));
        let outbox = match shared {
            Some(shared) => {
                // The view maps this tenant's local clock onto the global
                // fleet clock (its join barrier), so shared-store
                // timestamps — and with them TTL staleness — stay
                // coherent across tenants that joined at different times.
                let (view, outbox) = TenantRepoView::new_with_offset(
                    Arc::clone(shared),
                    spec.id,
                    namespace,
                    dejavu_simcore::SimDuration::from_secs(
                        origin_secs + epoch_secs * window.start as f64,
                    ),
                );
                controller = controller.with_store(Box::new(view));
                Some(outbox)
            }
            None => None,
        };
        let state = engine.begin();
        let fixed = self
            .config
            .run_baselines
            .then(|| (FixedMax::new(&space), engine.begin()));
        let rightscale = self.config.run_baselines.then(|| {
            (
                RightScale::new(space.clone(), RightScaleConfig::default()),
                engine.begin(),
            )
        });
        TenantRun {
            engine,
            service: spec.service.build(),
            controller,
            state,
            fixed,
            rightscale,
            start_epoch: window.start,
            stop_epoch: window.stop,
            end_epoch: window.end,
            first_reuse_epoch: None,
            active_epochs: 0,
            retired: false,
            namespace,
            outbox,
        }
    }

    /// Finalizes every driven tenant run into its outcome record. On
    /// multi-worker configurations the per-tenant finalization (settling-time
    /// extraction, cost metering) fans out across worker threads; outcomes
    /// are reassembled **by tenant index**, so the report order — and every
    /// value in it — is identical to a serial finalization pass.
    fn finish(
        &self,
        runs: Vec<TenantRun>,
        cross_tenant_hits: &[u64],
        failed: &[Option<usize>],
    ) -> Vec<TenantOutcome> {
        let tenant_count = runs.len();
        let workers = self.worker_count(tenant_count);
        if workers <= 1 || tenant_count <= 1 {
            return runs
                .into_iter()
                .enumerate()
                .map(|(i, run)| self.finalize(i, run, cross_tenant_hits[i], failed[i]))
                .collect();
        }
        let chunk_size = tenant_count.div_ceil(workers);
        let mut rest: Vec<(usize, TenantRun)> = runs.into_iter().enumerate().collect();
        let mut chunks: Vec<Vec<(usize, TenantRun)>> = Vec::new();
        while !rest.is_empty() {
            let tail = rest.split_off(chunk_size.min(rest.len()));
            chunks.push(std::mem::replace(&mut rest, tail));
        }
        let finalized: Vec<Vec<(usize, TenantOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|(i, run)| {
                                (i, self.finalize(i, run, cross_tenant_hits[i], failed[i]))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("finalization worker panicked"))
                .collect()
        });
        let mut outcomes: Vec<Option<TenantOutcome>> = (0..tenant_count).map(|_| None).collect();
        for (i, outcome) in finalized.into_iter().flatten() {
            outcomes[i] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every tenant finalized"))
            .collect()
    }

    /// Turns a finished (or retired) tenant run into its outcome record.
    fn finalize(
        &self,
        index: usize,
        run: TenantRun,
        cross_tenant_hits: u64,
        failed_epoch: Option<usize>,
    ) -> TenantOutcome {
        let TenantRun {
            engine,
            controller,
            state,
            fixed,
            rightscale,
            start_epoch,
            first_reuse_epoch,
            active_epochs,
            ..
        } = run;
        let name = controller.name().to_string();
        let dejavu = engine.finish(state, &name);
        let fixed_max = fixed.map(|(c, s)| {
            let n = c.name().to_string();
            engine.finish(s, &n)
        });
        let rightscale = rightscale.map(|(c, s)| {
            let n = c.name().to_string();
            engine.finish(s, &n)
        });
        let spec = &self.scenario.tenants[index];
        TenantOutcome {
            id: spec.id,
            name: spec.name.clone(),
            namespace: spec.namespace(),
            stats: controller.into_stats(),
            cross_tenant_hits,
            joined_epoch: start_epoch,
            active_epochs,
            first_fleet_reuse_epoch: first_reuse_epoch,
            failed_epoch,
            dejavu,
            fixed_max,
            rightscale,
        }
    }
}

// `ProvisioningController::name` is on the trait; bring the concrete baseline
// types' trait methods into scope for the `finish` calls above.
use dejavu_cloud::ProvisioningController;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use crate::transport::{BspBarrier, BARRIER_BLOCK, REPORT_BATCH_CAP};
    use dejavu_simcore::SimDuration;
    use std::time::Duration;

    fn tiny_scenario(n: usize) -> Scenario {
        ScenarioBuilder::new("tiny", 11, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(n)
            .build()
    }

    /// Far beyond what any fleet below takes, far below a CI job's limit.
    const WATCHDOG: Duration = Duration::from_secs(120);

    /// Runs `body` on a thread of its own and fails the test — instead of
    /// hanging it — if no result arrives within `limit`: the liveness check
    /// for the batched report path, where a withheld report is a fleet that
    /// never finishes. A thread that did hang is left behind; the failing
    /// test process ends it.
    fn within<T: Send + 'static>(
        limit: Duration,
        label: String,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        let result = rx.recv_timeout(limit).unwrap_or_else(|e| {
            panic!("{label}: no result within {limit:?} ({e}): the run stalled or panicked")
        });
        runner.join().expect("the runner already sent its result");
        result
    }

    /// The fields a work-stealing run must share with the barrier, bit for
    /// bit.
    fn assert_matches_barrier(bsp: &FleetReport, other: &FleetReport, label: &str) {
        assert_eq!(other.hit_rate_curve, bsp.hit_rate_curve, "{label}");
        for (a, b) in bsp.tenants.iter().zip(&other.tenants) {
            assert_eq!(a.dejavu.total_cost, b.dejavu.total_cost, "{label}");
            assert_eq!(
                a.dejavu.latency_ms.values(),
                b.dejavu.latency_ms.values(),
                "{label}"
            );
            assert_eq!(a.stats.tunings, b.stats.tunings, "{label}");
            assert_eq!(a.cross_tenant_hits, b.cross_tenant_hits, "{label}");
            assert_eq!(a.joined_epoch, b.joined_epoch, "{label}");
            assert_eq!(a.active_epochs, b.active_epochs, "{label}");
        }
        let (ra, rb) = (bsp.shared_repo.as_ref(), other.shared_repo.as_ref());
        assert_eq!(ra.map(|r| &r.stats), rb.map(|r| &r.stats), "{label}");
    }

    /// A tamper hook that poisons `victim`'s outbox, so the tenant's first
    /// buffered operation panics mid-step.
    fn poison_outbox(victim: usize) -> impl Fn(&mut [TenantRun]) + Copy + Send + 'static {
        move |runs: &mut [TenantRun]| {
            let outbox = Arc::clone(runs[victim].outbox.as_ref().expect("shared-mode outbox"));
            std::thread::spawn(move || {
                let _guard = outbox.lock().unwrap();
                panic!("poison tenant {victim}'s outbox");
            })
            .join()
            .unwrap_err();
        }
    }

    /// Every field of a report the simulation determines: two barrier runs
    /// of one scenario must agree on all of it, whatever stepped the tenants.
    fn assert_same_run(a: &FleetReport, b: &FleetReport, label: &str) {
        assert_matches_barrier(a, b, label);
        assert_eq!(a.epochs, b.epochs, "{label}");
        assert_eq!(a.transport, b.transport, "{label}");
        assert_eq!(a.tenants.len(), b.tenants.len(), "{label}");
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            let label = format!("{label} {}", x.name);
            for (p, q) in [
                (&x.dejavu.load, &y.dejavu.load),
                (&x.dejavu.instance_count, &y.dejavu.instance_count),
                (&x.dejavu.capacity_units, &y.dejavu.capacity_units),
                (&x.dejavu.qos_percent, &y.dejavu.qos_percent),
            ] {
                assert_eq!(p.values(), q.values(), "{label} {}", p.name());
            }
            assert_eq!(x.dejavu.reuse_cost, y.dejavu.reuse_cost, "{label}");
            assert_eq!(
                x.dejavu.slo_violation_fraction, y.dejavu.slo_violation_fraction,
                "{label}"
            );
            assert_eq!(x.dejavu.adaptations, y.dejavu.adaptations, "{label}");
            assert_eq!(
                x.dejavu.settle_times_secs, y.dejavu.settle_times_secs,
                "{label}"
            );
            assert_eq!(x.stats, y.stats, "{label}");
            assert_eq!(
                x.first_fleet_reuse_epoch, y.first_fleet_reuse_epoch,
                "{label}"
            );
            assert_eq!(x.failed_epoch, y.failed_epoch, "{label}");
        }
        let (ra, rb) = (a.shared_repo.as_ref(), b.shared_repo.as_ref());
        assert_eq!(
            ra.map(|r| (r.entries, r.anchors, &r.shard_stats)),
            rb.map(|r| (r.entries, r.anchors, &r.shard_stats)),
            "{label}"
        );
    }

    /// Two days of the mixed standard fleet: learning-day reclusterings and
    /// reuse-day cache hits, laid out family by family, so blocks differ in
    /// cost and workers finish them in a different order every run.
    fn lumpy_scenario(tenants: usize) -> Scenario {
        let mut scenario = crate::scenario::standard_fleet(tenants, 2, 11);
        scenario.tick = SimDuration::from_secs(600.0);
        scenario
    }

    #[test]
    fn block_dealing_is_invisible_for_any_worker_count_around_the_block_size() {
        // One block short of full, exactly full, one tenant spilling into a
        // second block, and several blocks with a ragged last one.
        for tenants in [
            BARRIER_BLOCK - 1,
            BARRIER_BLOCK,
            BARRIER_BLOCK + 1,
            3 * BARRIER_BLOCK + 5,
        ] {
            let run = |workers: usize| {
                let engine = FleetEngine::new(
                    lumpy_scenario(tenants),
                    FleetConfig {
                        workers,
                        ..Default::default()
                    },
                );
                within(
                    WATCHDOG,
                    format!("{tenants} tenants {workers} workers"),
                    move || engine.run(),
                )
            };
            let one = run(1);
            assert_eq!(one.tenants_failed(), 0);
            assert!(
                one.total_fleet_reuses() > 0,
                "{tenants} tenants never reused"
            );
            for workers in [2, 3, 4] {
                assert_same_run(
                    &one,
                    &run(workers),
                    &format!("{tenants} tenants {workers} workers"),
                );
            }
        }
    }

    #[test]
    fn a_poisoned_tenant_fails_alone_and_at_the_same_epoch_for_any_worker_count() {
        let tenants = 3 * BARRIER_BLOCK + 5;
        // A tenant of the first block, of a middle one, and the last tenant
        // of the ragged last block.
        for victim in [3, BARRIER_BLOCK + 4, tenants - 1] {
            let run = |workers: usize| {
                let engine = FleetEngine::new(
                    lumpy_scenario(tenants),
                    FleetConfig {
                        workers,
                        ..Default::default()
                    },
                );
                let shared = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
                within(
                    WATCHDOG,
                    format!("victim {victim} {workers} workers"),
                    move || engine.run_tampered(shared, &BspBarrier, &poison_outbox(victim)),
                )
            };
            let one = run(1);
            assert!(
                one.tenants[victim].failed_epoch.is_some(),
                "victim {victim}"
            );
            assert_eq!(one.tenants_failed(), 1, "victim {victim}");
            for workers in [2, 3, 4] {
                assert_same_run(
                    &one,
                    &run(workers),
                    &format!("victim {victim} {workers} workers"),
                );
            }
        }
    }

    #[test]
    fn batched_reports_keep_the_pool_live_and_in_order_around_the_flush_cap() {
        // Fleets one below, at and one above the report-batch cap, so a
        // worker's buffer ends a run partly filled, exactly full and just
        // flushed; one worker (every report through one buffer) and two.
        // Each run must finish and match the barrier bit for bit.
        for tenants in [REPORT_BATCH_CAP - 1, REPORT_BATCH_CAP, REPORT_BATCH_CAP + 1] {
            let mut scenario = crate::scenario::standard_fleet(tenants, 1, 11);
            scenario.tick = SimDuration::from_secs(600.0);
            let bsp = FleetEngine::new(scenario.clone(), FleetConfig::default()).run();
            for threads in [1, 2] {
                let transport = TransportConfig::WorkStealing { threads };
                let label = format!("{tenants} tenants {transport:?}");
                let engine = FleetEngine::new(
                    scenario.clone(),
                    FleetConfig {
                        transport,
                        ..Default::default()
                    },
                );
                let report = within(WATCHDOG, label.clone(), move || engine.run());
                assert_eq!(report.tenants_failed(), 0, "{label}");
                assert_eq!(report.hit_rate_curve.len(), bsp.epochs, "{label}");
                assert_matches_barrier(&bsp, &report, &label);
            }
        }
    }

    #[test]
    fn crash_recovery_rebuilds_a_churned_tenant_inside_its_own_window() {
        // Tenant 2 joins at hour 6 and leaves at hour 30 of a two-day fleet.
        // `build_run` trusts the window it is handed, so the respawn path
        // must hand it the same one as the original build: a rebuilt tenant
        // with another start would replay against the wrong clock offset,
        // one with another stop would step a different number of epochs.
        let scenario = ScenarioBuilder::new("churn-crash", 5, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .arrive_at(2, SimDuration::from_hours(6.0))
            .depart_at(2, SimDuration::from_hours(30.0))
            .build();
        let window = scenario.epoch_windows()[2];
        assert_eq!((window.start, window.stop, window.end), (6, Some(30), 30));
        // A crash-only plan that crashes the churned tenant after it has
        // history to replay.
        let faults = (0..)
            .map(|seed| FaultSpec::with_kinds(seed, &[crate::faults::FaultKind::TenantCrash]))
            .find(|spec| {
                spec.plan()
                    .crash_epoch(2, window.start, window.end)
                    .is_some_and(|epoch| epoch > window.start + 2)
            })
            .expect("some seed crashes tenant 2 mid-window");
        let bsp = FleetEngine::new(scenario.clone(), FleetConfig::default()).run();
        let crashed = FleetEngine::new(
            scenario,
            FleetConfig {
                transport: TransportConfig::WorkStealing { threads: 2 },
                faults: Some(faults),
                ..Default::default()
            },
        )
        .run();
        let summary = crashed.faults.as_ref().expect("a fault summary");
        assert!(summary.tenants_crashed >= 1 && summary.replayed_epochs > 2);
        let t = &crashed.tenants[2];
        assert_eq!((t.joined_epoch, t.active_epochs), (6, 24));
        assert_eq!(
            t.dejavu.load.len(),
            24 * 6,
            "stepped to its stop, no further"
        );
        assert_matches_barrier(&bsp, &crashed, "crash-recovered churn fleet");
    }

    #[test]
    fn fleet_runs_are_deterministic_across_worker_counts() {
        let mk = |workers| {
            FleetEngine::new(
                tiny_scenario(4),
                FleetConfig {
                    workers,
                    ..Default::default()
                },
            )
            .run()
        };
        let one = mk(1);
        let four = mk(4);
        for (a, b) in one.tenants.iter().zip(&four.tenants) {
            assert_eq!(
                a.dejavu.total_cost, b.dejavu.total_cost,
                "tenant {}",
                a.name
            );
            assert_eq!(
                a.dejavu.slo_violation_fraction,
                b.dejavu.slo_violation_fraction
            );
            assert_eq!(a.stats.tunings, b.stats.tunings);
            assert_eq!(a.cross_tenant_hits, b.cross_tenant_hits);
            assert_eq!(a.dejavu.latency_ms.values(), b.dejavu.latency_ms.values());
        }
        assert_eq!(one.hit_rate_curve, four.hit_rate_curve);
    }

    #[test]
    fn sharing_reduces_cold_start_tunings_and_lifts_hit_rate() {
        let shared = FleetEngine::new(tiny_scenario(6), FleetConfig::default()).run();
        let isolated = FleetEngine::new(
            tiny_scenario(6),
            FleetConfig {
                sharing: SharingMode::Isolated,
                ..Default::default()
            },
        )
        .run();
        assert!(shared.total_fleet_reuses() > 0, "fleet reuse never fired");
        assert!(
            shared.total_tunings() < isolated.total_tunings(),
            "sharing did not avoid tunings: {} vs {}",
            shared.total_tunings(),
            isolated.total_tunings()
        );
        assert!(
            shared.fleet_hit_rate() > isolated.fleet_hit_rate(),
            "sharing did not lift hit rate: {} vs {}",
            shared.fleet_hit_rate(),
            isolated.fleet_hit_rate()
        );
        let snapshot = shared.shared_repo.as_ref().expect("shared snapshot");
        assert!(snapshot.entries > 0);
        assert!(snapshot.stats.cross_tenant_hits > 0);
        assert!(isolated.shared_repo.is_none());
        assert!(!shared.warm_start);
        assert_eq!(shared.hit_rate_curve.len(), shared.epochs);
        assert_eq!(shared.transport.name, "bsp");
    }

    #[test]
    fn baselines_ride_along_when_requested() {
        let report = FleetEngine::new(
            tiny_scenario(2),
            FleetConfig {
                run_baselines: true,
                ..Default::default()
            },
        )
        .run();
        for t in &report.tenants {
            let fixed = t.fixed_max.as_ref().expect("fixed baseline present");
            assert!(fixed.total_cost >= t.dejavu.total_cost * 0.5);
            assert!(t.rightscale.is_some());
        }
        assert!(report.total_fixed_max_cost().unwrap() > 0.0);
    }

    #[test]
    fn a_panicking_tenant_is_retired_and_the_rest_finish() {
        // Poisoning a tenant's outbox makes its first buffered publish panic
        // mid-step. Every transport must catch the unwind, retire just that
        // tenant (surfacing the epoch in the report), and let the survivors
        // run to completion.
        let poison = poison_outbox(1);
        // The larger fleet exceeds the pool's report-batch cap.
        let steal = |threads| TransportConfig::WorkStealing { threads };
        for (tenants, transport) in [
            (3, TransportConfig::Bsp),
            (3, steal(3)),
            (3, steal(2)),
            (REPORT_BATCH_CAP + 3, steal(2)),
        ] {
            let engine = FleetEngine::new(tiny_scenario(tenants), FleetConfig::default());
            let shared = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
            let report = within(
                WATCHDOG,
                format!("{tenants} tenants {transport:?}"),
                move || engine.run_tampered(shared, transport.backend().as_ref(), &poison),
            );
            let label = format!("{tenants} tenants {transport:?}");
            assert_eq!(report.tenants_failed(), 1, "{label}");
            assert!(
                report.tenants[1].failed_epoch.is_some(),
                "{label}: the poisoned tenant never failed"
            );
            for (i, t) in report.tenants.iter().enumerate() {
                if i == 1 {
                    continue;
                }
                assert_eq!(t.failed_epoch, None, "{label}: tenant {i}");
                assert!(
                    t.active_epochs == report.epochs,
                    "{label}: survivor {i} stepped {} of {} epochs",
                    t.active_epochs,
                    report.epochs
                );
            }
            assert!(
                report.render().contains("tenants failed"),
                "{label}: report hides the failure"
            );
        }
    }

    #[test]
    fn staggered_arrivals_and_departures_shape_the_run() {
        let scenario = ScenarioBuilder::new("churn", 5, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .stagger_arrivals(
                2,
                SimDuration::from_hours(6.0),
                SimDuration::from_hours(3.0),
            )
            .depart_at(0, SimDuration::from_hours(12.0))
            .build();
        let report = FleetEngine::new(scenario, FleetConfig::default()).run();
        // 2 days + the latest joiner's 9 h offset = 57 one-hour epochs.
        assert_eq!(report.epochs, 57);
        let t = &report.tenants;
        assert_eq!((t[0].joined_epoch, t[1].joined_epoch), (0, 0));
        assert_eq!((t[2].joined_epoch, t[3].joined_epoch), (6, 9));
        // The departing tenant simulated only 12 of its 48 hours.
        assert_eq!(t[0].active_epochs, 12);
        assert_eq!(t[0].dejavu.load.len(), 12 * 6);
        assert_eq!(t[1].active_epochs, 48);
        // Late joiners still complete their full trace, shifted.
        assert_eq!(t[3].active_epochs, 48);
        assert_eq!(t[3].dejavu.load.len(), 48 * 6);
    }

    #[test]
    fn late_joiner_entries_survive_ttl_sweeps_on_the_global_clock() {
        // Tenant 1 joins at hour 30 with a 24 h TTL in force. Its publishes
        // must carry *global* timestamps: were they tenant-local, the first
        // barrier sweep after its join (global hour 31+) would see them as
        // 30-hours-old and reap them on sight.
        let scenario = ScenarioBuilder::new("ttl-churn", 11, 1)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(2)
            .arrive_at(1, SimDuration::from_hours(30.0))
            .build();
        let engine = FleetEngine::new(
            scenario,
            FleetConfig {
                repo: SharedRepoConfig {
                    ttl: Some(SimDuration::from_hours(24.0)),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let repo = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
        engine.run_on(Arc::clone(&repo));
        let snapshot = repo.to_snapshot();
        let late_entries: Vec<_> = snapshot
            .namespaces
            .iter()
            .flat_map(|ns| &ns.entries)
            .filter(|e| e.owner == 1)
            .collect();
        assert!(
            !late_entries.is_empty(),
            "the late joiner's entries were swept away"
        );
        // Its timestamps are global: at or after its hour-30 join barrier.
        for e in &late_entries {
            assert!(
                e.tuned_at_secs >= 30.0 * 3600.0,
                "tenant-local timestamp {} leaked into the shared store",
                e.tuned_at_secs
            );
        }
        // The founder's day-one entries aged out under the same TTL.
        assert!(repo.stats().evictions > 0, "TTL never evicted anything");
    }

    #[test]
    fn warm_start_resumes_the_fleet_clock_so_ttls_span_restarts() {
        let ttl_config = || FleetConfig {
            repo: SharedRepoConfig {
                ttl: Some(SimDuration::from_hours(24.0)),
                ..Default::default()
            },
            ..Default::default()
        };
        // Seed fleet: 2 days with a 24 h TTL; its clock ends at hour 48.
        let seed = FleetEngine::new(tiny_scenario(3), ttl_config());
        let repo = Arc::new(SharedSignatureRepository::new(seed.config().repo.clone()));
        seed.run_on(Arc::clone(&repo));
        assert_eq!(repo.clock().as_secs(), 48.0 * 3600.0);
        let evictions_at_snapshot = repo.stats().evictions;
        let entries_at_snapshot = repo.len();
        assert!(entries_at_snapshot > 0, "seed fleet left no entries");
        let snapshot = repo.save_snapshot();

        // Warm run: its barrier sweeps continue at hour 49, 50, …, so the
        // seeded day-two entries age past the TTL *during* the warm run
        // instead of being treated as freshly tuned at warm hour zero.
        let newcomer = FleetEngine::new(tiny_scenario(1), ttl_config());
        let (_, warm_repo) = newcomer.run_warm(&snapshot).expect("snapshot loads");
        assert_eq!(warm_repo.clock().as_secs(), (48.0 + 48.0) * 3600.0);
        assert!(
            warm_repo.stats().evictions > evictions_at_snapshot,
            "seeded entries never aged out during the warm run ({} vs {})",
            warm_repo.stats().evictions,
            evictions_at_snapshot
        );
    }

    #[test]
    fn warm_start_round_trips_through_snapshots() {
        let seeding = FleetEngine::new(tiny_scenario(4), FleetConfig::default());
        let repo = Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default()));
        let cold = seeding.run_on(Arc::clone(&repo));
        assert!(!cold.warm_start);
        let snapshot = repo.save_snapshot();

        let newcomer = FleetEngine::new(tiny_scenario(1), FleetConfig::default());
        let (warm, warm_repo) = newcomer.run_warm(&snapshot).expect("snapshot loads");
        assert!(warm.warm_start);
        // The newcomer converges faster than a cold-started twin.
        let cold_single = newcomer.run();
        let warm_first = warm.tenants[0].first_fleet_reuse_epoch.expect("warm reuse");
        // When the cold twin never reused, warm is strictly better already.
        if let Some(cold_first) = cold_single.tenants[0].first_fleet_reuse_epoch {
            assert!(warm_first <= cold_first);
        }
        assert!(warm.total_fleet_reuses() > 0);
        // The repository kept evolving and can be persisted again.
        assert!(warm_repo.save_snapshot().len() >= snapshot.len());
    }

    #[test]
    fn work_stealing_zero_staleness_matches_the_barrier_at_any_thread_cap() {
        // Four threads is one worker per tenant (nobody ever waits for a
        // worker); eight exercises the clamp to the tenant count.
        let bsp = FleetEngine::new(tiny_scenario(4), FleetConfig::default()).run();
        for threads in [1, 3, 4, 8] {
            let steal = FleetEngine::new(
                tiny_scenario(4),
                FleetConfig {
                    transport: TransportConfig::WorkStealing { threads },
                    ..Default::default()
                },
            )
            .run();
            assert_eq!(steal.transport.name, format!("steal(threads={threads})"));
            assert_matches_barrier(&bsp, &steal, &format!("{threads} threads"));
        }
    }
}
