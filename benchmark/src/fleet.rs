//! The two fleet workloads and the fleet side of the per-layer cost model.

use crate::gen;
use crate::json::{obj, Value};
use crate::layers;
use crate::metrics::Outcome;
use crate::proxies::{TimedClient, TimedController, TimedService, TimedStore, TracedBarrier};
use crate::stats;
use crate::trace::{self, Analysis};
use dejavu::cloud::ProvisioningController;
use dejavu::core::{DejaVuConfig, DejaVuController};
use dejavu::fleet::{
    FleetConfig, FleetEngine, FleetReport, RepositoryClient, Scenario, SharedSignatureRepository,
    SimulationEngine, TenantRepoView, TransportConfig,
};
use dejavu::obs::Recorder;
use dejavu::simcore::{SimDuration, SimTime};
use dejavu::traces::Workload;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions an end-to-end figure needs at least.
pub const MIN_REPS: usize = 5;
/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Tenants the replica drive steps one by one with every call timed.
const REPLICA_TENANTS: usize = 64;

/// A fleet workload: the scenario's size and the transport that commits it.
#[derive(Debug, Clone, Copy)]
pub struct FleetWorkload {
    pub name: &'static str,
    pub tenants: usize,
    pub days: usize,
    /// Work-stealing pool at staleness 0 in place of the lock-step barrier.
    pub steal: bool,
}

/// Seven days of a 1000-tenant fleet behind the barrier: six of them reuse.
pub const FLEET_REUSE: FleetWorkload = FleetWorkload {
    name: "fleet_reuse",
    tenants: 1000,
    days: 7,
    steal: false,
};

/// One learning day, six times the tenants, on the work-stealing pool.
pub const FLEET_WIDE: FleetWorkload = FleetWorkload {
    name: "fleet_wide",
    tenants: 6000,
    days: 1,
    steal: true,
};

/// Fleet worker threads: one per core, four at most.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

impl FleetWorkload {
    fn config(&self, recorder: Recorder) -> FleetConfig {
        let transport = if self.steal {
            TransportConfig::parse("steal", workers(), 0).expect("steal is a transport")
        } else {
            TransportConfig::Bsp
        };
        FleetConfig {
            workers: workers(),
            transport,
            recorder,
            ..FleetConfig::default()
        }
    }
}

/// Digest of everything a fleet run simulated: per-tenant results and
/// series, convergence bookkeeping, the hit-rate curve, and the shared
/// repository's final counters (eviction counts included). Two runs with the
/// same digest are the same run; host time is not in it.
pub fn report_digest(report: &FleetReport) -> u64 {
    let mut h = gen::Fnv::default();
    h.u64(report.epochs as u64);
    h.u64(u64::from(report.warm_start));
    h.f64s(&report.hit_rate_curve);
    h.u64(report.tenants.len() as u64);
    for t in &report.tenants {
        h.f64(t.dejavu.total_cost);
        h.f64(t.dejavu.reuse_cost);
        h.f64(t.dejavu.slo_violation_fraction);
        h.f64s(t.dejavu.latency_ms.values());
        h.f64s(t.dejavu.instance_count.values());
        h.u64(t.stats.tunings as u64);
        h.u64(t.stats.fleet_reuses);
        h.u64(t.stats.cache_hits);
        h.u64(t.stats.repository.hits);
        h.u64(t.stats.repository.misses);
        h.u64(t.cross_tenant_hits);
        h.u64(t.joined_epoch as u64);
        h.u64(t.active_epochs as u64);
        h.u64(t.first_fleet_reuse_epoch.map_or(u64::MAX, |e| e as u64));
        h.u64(t.failed_epoch.map_or(u64::MAX, |e| e as u64));
    }
    if let Some(repo) = &report.shared_repo {
        h.u64(repo.entries as u64);
        h.u64(repo.anchors as u64);
        for s in std::iter::once(&repo.stats).chain(&repo.shard_stats) {
            for v in [
                s.hits,
                s.misses,
                s.insertions,
                s.evictions,
                s.cross_tenant_hits,
                s.anchors_created,
            ] {
                h.u64(v);
            }
        }
    }
    h.0
}

fn tenant_epochs(report: &FleetReport) -> u64 {
    report.tenants.iter().map(|t| t.active_epochs as u64).sum()
}

fn fresh_repo(config: &FleetConfig) -> Arc<SharedSignatureRepository> {
    Arc::new(
        SharedSignatureRepository::new(config.repo.clone()).with_recorder(config.recorder.clone()),
    )
}

/// One untraced repetition: the whole fleet through [`FleetEngine::run_on`]
/// on a fresh repository, nothing of the harness in its path.
struct Rep {
    wall_s: f64,
    tenant_epochs: u64,
    digest: u64,
    failed_tenants: usize,
}

fn untraced_rep(engine: &FleetEngine) -> Rep {
    let repo = fresh_repo(engine.config());
    let started = Instant::now();
    let report = engine.run_on(repo);
    let wall_s = started.elapsed().as_secs_f64();
    Rep {
        wall_s,
        tenant_epochs: tenant_epochs(&report),
        digest: report_digest(&report),
        failed_tenants: report.tenants_failed(),
    }
}

/// Set-up, repeated: scenario generation, engine construction, and the
/// untimed barrier run that is both the warm-up repetition and the reference
/// every timed repetition must match bit for bit. The program's lazy,
/// first-use work lands here, which is why the run is part of set-up.
/// Returns the last engine, the reference digest and every repeat's seconds.
fn set_up(
    w: &FleetWorkload,
    seed: u64,
    repeats: usize,
    outcome: &mut Outcome,
) -> (FleetEngine, u64, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last: Option<(FleetEngine, u64)> = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let engine = FleetEngine::new(
            gen::scenario(w.tenants, w.days, seed),
            w.config(Recorder::disabled()),
        );
        let reference = FleetEngine::new(
            engine.scenario().clone(),
            FleetConfig {
                transport: TransportConfig::Bsp,
                ..engine.config().clone()
            },
        )
        .run();
        times.push(started.elapsed().as_secs_f64());
        outcome.check(reference.tenants_failed() == 0, || {
            format!(
                "{} tenants failed in the reference run",
                reference.tenants_failed()
            )
        });
        let digest = report_digest(&reference);
        if let Some((_, earlier)) = &last {
            outcome.check(*earlier == digest, || {
                format!(
                    "two reference runs of one scenario differ: {earlier:#018x} and {digest:#018x}"
                )
            });
        }
        last = Some((engine, digest));
    }
    let (engine, digest) = last.expect("set-up ran at least once");
    (engine, digest, times)
}

fn check_rep(rep: &Rep, index: usize, reference: u64, outcome: &mut Outcome) {
    outcome.ops(rep.tenant_epochs, 0, "tenant-epochs");
    outcome.check(rep.failed_tenants == 0, || {
        format!("repetition {index}: {} tenants failed", rep.failed_tenants)
    });
    outcome.check(rep.digest == reference, || {
        format!(
            "repetition {index}: report digest {:#018x} differs from the barrier reference {reference:#018x}",
            rep.digest
        )
    });
}

/// The end-to-end run of a fleet workload.
pub fn run_end_to_end(w: &FleetWorkload, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let (engine, reference, setup) = set_up(w, seed, SETUP_REPEATS, outcome);
    let window = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < seconds {
        let rep = untraced_rep(&engine);
        check_rep(&rep, reps.len(), reference, outcome);
        reps.push(rep);
    }
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.tenant_epochs as f64 / r.wall_s)
        .collect();
    outcome.set("setup_s", stats::median(&setup));
    outcome.set("ops_per_s", stats::median(&rates));
    let rate = stats::summarize(&rates);
    outcome.detail(
        "ops_per_s",
        obj([
            ("unit_of_work", Value::Str("tenant-epoch".into())),
            ("min", Value::Num(rate.min)),
            ("max", Value::Num(rate.max)),
            ("repetitions", Value::Int(rate.n as i64)),
            ("window_s", Value::Num(window.elapsed().as_secs_f64())),
        ]),
    );
    outcome.detail("workers", Value::Int(workers() as i64));
    outcome.detail(
        crate::agree::REPEATS_EXACTLY,
        obj([
            (
                "scenario_hash",
                Value::Str(format!("{:#018x}", gen::scenario_hash(engine.scenario()))),
            ),
            ("report_digest", Value::Str(format!("{reference:#018x}"))),
            (
                "tenant_epochs_per_repetition",
                Value::Int(reps[0].tenant_epochs as i64),
            ),
        ]),
    );
}

/// What the traced fleet drive hands on to the serve-side probe.
pub struct FleetProbe {
    pub metrics: BTreeMap<&'static str, f64>,
    /// The repository the traced run left behind.
    pub final_snapshot: dejavu::fleet::RepoSnapshot,
    /// Wall seconds of the run traced through the program's own transport.
    pub traced_wall_s: f64,
    pub unattributed_frac: f64,
}

/// The fleet side of the cost model on `engine`'s scenario: one run through
/// the program's own transport with every repository call timed, one run
/// through [`TracedBarrier`], a replica drive of sampled tenants with every
/// engine, service, controller and store call timed, and standalone loops on
/// what the replica saw. `reference`, when given, is the digest both traced
/// fleet runs must reproduce.
pub fn probe(
    engine: &FleetEngine,
    reference: Option<u64>,
    seed: u64,
    span_cost_ns: f64,
    outcome: &mut Outcome,
) -> FleetProbe {
    let mut metrics = BTreeMap::new();
    let mut unattributed: f64 = 0.0;

    // Run A: the program's own transport, repository calls timed, the flight
    // recorder on for the counters only it has.
    let recorder = Recorder::enabled();
    let traced_engine = FleetEngine::new(
        engine.scenario().clone(),
        FleetConfig {
            recorder: recorder.clone(),
            ..engine.config().clone()
        },
    );
    let repo = fresh_repo(traced_engine.config());
    let client = Arc::new(TimedClient::new(
        Arc::clone(&repo) as Arc<dyn RepositoryClient>
    ));
    trace::set_enabled(true);
    let started = Instant::now();
    let report = traced_engine.run_on_client(Arc::clone(&client) as Arc<dyn RepositoryClient>);
    let traced_wall_s = started.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let spans = trace::drain();
    let analysis = trace::analyze(&spans, span_cost_ns);
    outcome
        .traces
        .push(trace::to_json("fleet.own_transport", &spans, &analysis));
    drop(spans);
    if let Some(reference) = reference {
        let digest = report_digest(&report);
        outcome.check(digest == reference, || {
            format!("traced run through the program's transport: digest {digest:#018x} differs from the reference")
        });
    }
    let peek = analysis.get("shared_repo.peek");
    let apply = analysis.get("shared_repo.apply_batch");
    let evict = analysis.get("shared_repo.evict_stale");
    let applied_ops = client.applied_ops.load(Ordering::Relaxed);
    metrics.insert("shared_repo.peek_ns_per_call", peek.mean_ns());
    metrics.insert("shared_repo.peek_p50_ns", peek.p50_ns);
    metrics.insert("shared_repo.peek_p99_ns", peek.tail_ns);
    metrics.insert("shared_repo.peek_calls", peek.count as f64);
    metrics.insert(
        "shared_repo.peek_hit_ratio",
        client.peek_hits.load(Ordering::Relaxed) as f64 / peek.count.max(1) as f64,
    );
    metrics.insert(
        "shared_repo.apply_ns_per_op",
        apply.total_ns as f64 / applied_ops.max(1) as f64,
    );
    metrics.insert("shared_repo.apply_ops", applied_ops as f64);
    metrics.insert("shared_repo.evict_ns_per_sweep", evict.mean_ns());
    metrics.insert(
        "shared_repo.evicted",
        client.evicted.load(Ordering::Relaxed) as f64,
    );
    metrics.insert("shared_repo.anchors", repo.anchor_count() as f64);
    metrics.insert("shared_repo.entries", repo.len() as f64);
    let obs = recorder.metrics().expect("an enabled recorder has metrics");
    metrics.insert(
        "shared_repo.tree_visits_per_resolve",
        obs.tree_visits.mean(),
    );
    let (memo_hits, memo_misses) = (obs.memo_hits.get(), obs.memo_misses.get());
    metrics.insert(
        "shared_repo.memo_hit_ratio",
        memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
    );
    metrics.insert("transport.parks", obs.parks.get() as f64);
    metrics.insert("transport.steals", obs.steals.get() as f64);
    let tenants = report.tenants.len().max(1) as f64;
    metrics.insert(
        "controller.tunings_per_tenant",
        report.total_tunings() as f64 / tenants,
    );
    let (cache_hits, classified) = report.tenants.iter().fold((0u64, 0u64), |(h, c), t| {
        (
            h + t.stats.cache_hits,
            c + t.stats.cache_hits + t.stats.unforeseen + t.stats.repository_misses,
        )
    });
    metrics.insert(
        "controller.cache_hit_ratio",
        cache_hits as f64 / classified.max(1) as f64,
    );
    let final_snapshot = repo.to_snapshot();
    drop(report);

    // Run B: the barrier re-expressed in the harness, every phase a span.
    let barrier = TracedBarrier::default();
    let repo = fresh_repo(engine.config());
    trace::set_enabled(true);
    let (run_start, run_id, report) = {
        let root = trace::span("trace.fleet_run");
        (
            trace::now_ns(),
            root.id(),
            engine.run_on_with(repo, &barrier),
        )
    };
    let run_end = trace::now_ns();
    let (drive_start, drive_end) = barrier
        .drive_window
        .lock()
        .expect("drive window poisoned")
        .expect("the traced barrier drove the run");
    trace::record("fleet_engine.prepare", run_id, run_start, drive_start);
    trace::record("fleet_engine.finalize", run_id, drive_end, run_end);
    trace::set_enabled(false);
    let spans = trace::drain();
    let analysis = trace::analyze(&spans, span_cost_ns);
    outcome
        .traces
        .push(trace::to_json("fleet.traced_barrier", &spans, &analysis));
    if let Some(reference) = reference {
        let digest = report_digest(&report);
        outcome.check(digest == reference, || {
            format!("traced barrier: digest {digest:#018x} differs from the reference")
        });
    }
    unattributed = unattributed.max(analysis.unattributed_frac());
    let epochs = report.epochs.max(1) as f64;
    let step = analysis.get("tenant.step_epoch");
    metrics.insert(
        "fleet_engine.prepare_s",
        analysis.get("fleet_engine.prepare").total_ns as f64 / 1e9,
    );
    metrics.insert(
        "fleet_engine.finalize_s",
        analysis.get("fleet_engine.finalize").total_ns as f64 / 1e9,
    );
    metrics.insert(
        "transport.step_ns_per_tenant_epoch",
        step.total_ns as f64 / tenant_epochs(&report).max(1) as f64,
    );
    metrics.insert("transport.step_p99_ns", step.tail_ns);
    for (metric, span) in [
        ("transport.drain_ns_per_epoch", "transport.drain"),
        ("transport.commit_ns_per_epoch", "transport.commit"),
        ("transport.sweep_ns_per_epoch", "transport.sweep"),
        (
            "transport.bookkeeping_ns_per_epoch",
            "transport.bookkeeping",
        ),
    ] {
        metrics.insert(metric, analysis.get(span).total_ns as f64 / epochs);
    }
    // Every worker could have worked for the whole of each step phase.
    let offered = analysis.get("transport.step_wait").total_ns as f64 * workers() as f64;
    let worked = analysis.get("trace.worker").total_ns as f64;
    metrics.insert(
        "transport.worker_idle_frac",
        (1.0 - worked / offered.max(1.0)).max(0.0),
    );
    outcome.detail("fleet.traced_barrier.layer_shares", shares_json(&analysis));
    drop((spans, report));

    let (replica, workloads) = replica_drive(
        engine.scenario(),
        engine.config(),
        seed,
        span_cost_ns,
        outcome,
    );
    unattributed = unattributed.max(replica.unattributed_frac());
    let ticks = replica.get("engine.step").count.max(1) as f64;
    metrics.insert(
        "engine.step_self_ns_per_tick",
        replica.get("engine.step").self_ns as f64 / ticks,
    );
    metrics.insert(
        "engine.finish_ns_per_tenant",
        replica.get("engine.finish").mean_ns(),
    );
    metrics.insert(
        "services.evaluate_ns_per_call",
        replica.get("services.evaluate").mean_ns(),
    );
    metrics.insert(
        "services.evaluate_calls_per_tick",
        replica.get("services.evaluate").count as f64 / ticks,
    );
    metrics.insert(
        "controller.decide_self_ns_per_tick",
        replica.get("controller.decide").self_ns as f64 / ticks,
    );
    metrics.insert(
        "controller.decide_p99_ns",
        replica.get("controller.decide").tail_ns,
    );
    metrics.insert(
        "tenant_view.get_ns_per_call",
        replica.get("tenant_view.get").mean_self_ns(),
    );
    metrics.insert(
        "tenant_view.put_ns_per_call",
        replica.get("tenant_view.put").mean_self_ns(),
    );
    outcome.detail("fleet.replica.layer_shares", shares_json(&replica));

    metrics.extend(layers::controller_pipeline(
        &workloads,
        engine.scenario(),
        seed,
    ));
    metrics.extend(layers::kernels());

    FleetProbe {
        metrics,
        final_snapshot,
        traced_wall_s,
        unattributed_frac: unattributed,
    }
}

fn shares_json(analysis: &Analysis) -> Value {
    obj(analysis
        .layer_shares()
        .into_iter()
        .map(|(layer, share)| (layer, Value::Num(share))))
}

/// Steps [`REPLICA_TENANTS`] seed-sampled tenants of `scenario` on one
/// thread, built from the same public parts `FleetEngine` builds its tenants
/// from, with the service, controller and store behind timing proxies and
/// their own shared repository behind a timed client. Returns the span
/// analysis and, per sampled tenant index, the hourly learning-day workloads
/// its controller saw.
fn replica_drive(
    scenario: &Scenario,
    config: &FleetConfig,
    seed: u64,
    span_cost_ns: f64,
    outcome: &mut Outcome,
) -> (Analysis, Vec<(usize, Vec<Workload>)>) {
    struct Tenant {
        engine: SimulationEngine,
        service: TimedService,
        controller: TimedController,
        state: Option<dejavu::fleet::RunState>,
        outbox: dejavu::fleet::Outbox,
        start_epoch: usize,
    }

    let mut rng = gen::SplitMix64::new(seed ^ 0x5EED_0F5A_3B1E);
    let mut picked: Vec<usize> = (0..scenario.tenants.len()).collect();
    for i in 0..picked.len().min(REPLICA_TENANTS) {
        let j = i + rng.below(picked.len() - i);
        picked.swap(i, j);
    }
    picked.truncate(REPLICA_TENANTS);
    picked.sort_unstable();

    let shared: Arc<dyn RepositoryClient> = Arc::new(TimedClient::new(Arc::new(
        SharedSignatureRepository::new(config.repo.clone()),
    )));
    let epoch_secs = scenario.epoch.as_secs();
    let windows = scenario.epoch_windows();
    let mut tenants: Vec<Tenant> = picked
        .iter()
        .map(|&index| {
            let spec = &scenario.tenants[index];
            let engine = SimulationEngine::new(spec.run_config(scenario.tick));
            let space = engine.config().space.clone();
            let (view, outbox) = TenantRepoView::new_with_offset(
                Arc::clone(&shared),
                spec.id,
                spec.namespace(),
                SimDuration::from_secs(epoch_secs * windows[index].start as f64),
            );
            let controller = DejaVuController::new(
                DejaVuConfig::builder()
                    .learning_hours(config.learning_hours)
                    .seed(spec.seed)
                    .build(),
                Box::new(TimedService(spec.service.build())),
                space,
            )
            .with_name(format!("dejavu-{}", spec.name))
            .with_store(Box::new(TimedStore(view)));
            let state = Some(engine.begin());
            Tenant {
                engine,
                service: TimedService(spec.service.build()),
                controller: TimedController::new(controller),
                state,
                outbox,
                start_epoch: windows[index].start,
            }
        })
        .collect();
    let epochs = picked.iter().map(|&i| windows[i].end).max().unwrap_or(0);

    trace::set_enabled(true);
    {
        let _root = trace::span("trace.replica");
        for epoch in 0..epochs {
            for (slot, tenant) in tenants.iter_mut().enumerate() {
                if epoch < tenant.start_epoch {
                    continue;
                }
                trace::set_req((epoch * REPLICA_TENANTS + slot) as u32 + 1);
                let state = tenant.state.as_mut().expect("state lives until finish");
                let local_end = epoch_secs * (epoch + 1 - tenant.start_epoch) as f64;
                while state
                    .next_tick_time()
                    .is_some_and(|t| t.as_secs() < local_end)
                {
                    let _step = trace::span("engine.step");
                    tenant
                        .engine
                        .step(state, &tenant.service, &mut tenant.controller);
                }
            }
            trace::set_req(0);
            let ops: Vec<_> = tenants
                .iter()
                .flat_map(|t| std::mem::take(&mut *t.outbox.lock().expect("outbox poisoned")))
                .collect();
            if !ops.is_empty() {
                shared.apply_batch(&ops);
            }
            shared.evict_stale(SimTime::from_secs(epoch_secs * (epoch + 1) as f64));
        }
        for tenant in &mut tenants {
            let _finish = trace::span("engine.finish");
            let name = tenant.controller.name().to_string();
            let state = tenant.state.take().expect("finished once");
            std::hint::black_box(tenant.engine.finish(state, &name));
        }
    }
    trace::set_enabled(false);
    let spans = trace::drain();
    let analysis = trace::analyze(&spans, span_cost_ns);
    outcome
        .traces
        .push(trace::to_json("fleet.replica", &spans, &analysis));
    let workloads = picked
        .into_iter()
        .zip(tenants)
        .map(|(index, t)| (index, t.controller.hourly_workloads))
        .collect();
    (analysis, workloads)
}

/// The traced run of a fleet workload: an untraced baseline, the fleet
/// probe on the workload's own scenario, and a small serve probe on the
/// repository that run left behind so the serve-side layers are priced on
/// this workload's data too.
pub fn run_traced(w: &FleetWorkload, seed: u64, outcome: &mut Outcome) {
    let span_cost_ns = layers::span_cost_ns();
    outcome.set("trace.span_cost_ns", span_cost_ns);
    let (engine, reference, _) = set_up(w, seed, 1, outcome);
    let baseline: Vec<f64> = (0..2)
        .map(|i| {
            let rep = untraced_rep(&engine);
            check_rep(&rep, i, reference, outcome);
            rep.wall_s
        })
        .collect();
    let fleet = probe(&engine, Some(reference), seed, span_cost_ns, outcome);
    outcome.set(
        "trace.overhead_frac",
        fleet.traced_wall_s / stats::median(&baseline) - 1.0,
    );
    outcome.fill_from(fleet.metrics);
    let (serve, serve_unattributed) =
        crate::serve::side_probe(&fleet.final_snapshot, seed, span_cost_ns, outcome);
    outcome.set(
        "trace.unattributed_frac",
        fleet.unattributed_frac.max(serve_unattributed),
    );
    outcome.fill_from(serve);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu::fleet::BspBarrier;

    #[test]
    fn traced_barrier_reproduces_the_program_barrier_on_a_forty_tenant_fleet() {
        let config = FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        };
        let engine = FleetEngine::new(gen::scenario(40, 1, 11), config);
        let run = |transport: &dyn dejavu::fleet::CommitTransport| {
            engine.run_on_with(fresh_repo(engine.config()), transport)
        };
        let program = run(&BspBarrier);
        let traced = run(&TracedBarrier::default());
        assert_eq!(report_digest(&traced), report_digest(&program));
        assert_eq!(traced.hit_rate_curve, program.hit_rate_curve);
        assert_eq!(traced.transport, program.transport);
        assert_eq!(
            traced.total_cross_tenant_hits(),
            program.total_cross_tenant_hits()
        );
        assert!(
            program.total_fleet_reuses() > 0,
            "the fleet never reused anything"
        );
        // The digest sees a different run as different.
        let other = FleetEngine::new(gen::scenario(40, 1, 12), engine.config().clone()).run();
        assert_ne!(report_digest(&other), report_digest(&program));
    }

    #[test]
    fn timed_client_is_invisible_to_results_and_a_wrong_reference_is_refused() {
        let engine = FleetEngine::new(
            gen::scenario(24, 1, 11),
            FLEET_REUSE.config(Recorder::disabled()),
        );
        let client = Arc::new(TimedClient::new(fresh_repo(engine.config())));
        let timed = engine.run_on_client(Arc::clone(&client) as Arc<dyn RepositoryClient>);
        assert!(client.applied_ops.load(Ordering::Relaxed) > 0);
        let rep = untraced_rep(&engine);
        assert_eq!(rep.digest, report_digest(&timed));
        assert_eq!(rep.tenant_epochs, 24 * 24);

        let mut outcome = Outcome::default();
        check_rep(&rep, 0, rep.digest, &mut outcome);
        assert!(outcome.correct() && outcome.attempted == 24 * 24 + 2);
        // Held against another seed's reference, the repetition is refused.
        let other = FleetEngine::new(gen::scenario(24, 1, 12), engine.config().clone()).run();
        check_rep(&rep, 0, report_digest(&other), &mut outcome);
        assert!(!outcome.correct(), "a wrong reference must fail the run");
    }
}
