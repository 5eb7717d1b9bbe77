//! Cross-transport differential scenario fuzzer.
//!
//! The fleet has two commit transports — the lock-step BSP barrier and the
//! work-stealing pool — and the pool promises that a run is
//! **bit-identical** to the barrier, for any thread count (one worker per
//! tenant included), on any scenario. The only way to
//! trust that promise is the Anvil discipline:
//! generate scenarios covering the whole configuration space (tenant counts,
//! family mixes, churn windows, TTLs, shard counts, snapshot warm-starts),
//! run every transport over each one, and check the invariant.
//!
//! The fuzzer here is seeded and deterministic (the same hand-rolled `cases`
//! harness as `tests/properties.rs`): every failure reproduces exactly from
//! its case index. `DEJAVU_PROPTEST_CASES` raises the per-property case
//! count — the nightly CI job runs it at 256.
//!
//! Invariants pinned, per fuzzed scenario:
//!
//! * **Bit-match.** BSP at 1 worker and `WorkStealing` at one worker per
//!   tenant and at thread caps 1/2/4 produce byte-identical reports, and so
//!   does BSP at 2 and 4 workers on the two fuzzed cases in six that exceed
//!   one 16-tenant barrier block (so several barrier workers read one
//!   shard; below that the barrier clamps to one worker) — every per-tenant
//!   result, the hit-rate curve, and the shared repository's entry/anchor
//!   counts and statistics (hits, misses, insertions, **evictions** — the
//!   eviction equality is what pins the frontier-aware per-shard TTL sweep).
//! * **Thread-cap invariance.** The work-stealing caps are compared to each
//!   other, not just to BSP, so a cap-dependent divergence cannot hide
//!   behind a loose reference.
//! * **Warm starts.** All of the above also holds when every transport
//!   resumes from the same snapshot of a seed fleet — including TTL expiry
//!   of seeded entries in shards the fuzzed tenants never touch, which only
//!   the per-shard sweep schedule keeps identical to the barrier's.
//! * **Observability is invisible.** Running any transport with the fleet
//!   flight recorder enabled produces the bit-identical report of the same
//!   run with the recorder disabled — the probes only ever write obs state —
//!   and the recorder's simulation-determined report subset is itself
//!   deterministic for a fixed seed.

use dejavu::fleet::{
    standard_fleet, FleetConfig, FleetEngine, FleetReport, Scenario, ScenarioBuilder,
    SharedRepoConfig, SharedSignatureRepository, TransportConfig,
};
use dejavu::obs::Recorder;
use dejavu::simcore::SimDuration;
use std::cell::Cell;
use std::sync::Arc;

mod common;
use common::{
    assert_reports_bit_match, cases, fuzz_repo, fuzz_scenario, fuzz_scenario_grown, THREAD_CAPS,
};

fn run(scenario: &Scenario, repo: &SharedRepoConfig, transport: TransportConfig) -> FleetReport {
    FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            transport,
            ..Default::default()
        },
    )
    .run()
}

fn run_warm(
    scenario: &Scenario,
    repo: &SharedRepoConfig,
    transport: TransportConfig,
    snapshot: &str,
) -> FleetReport {
    let engine = FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            transport,
            ..Default::default()
        },
    );
    let (report, _) = engine.run_warm(snapshot).expect("fuzzer snapshot loads");
    report
}

/// Every transport — the barrier and the work-stealing pool at one worker
/// per tenant and at each cap — produces a bit-identical run on every
/// fuzzed scenario.
fn assert_transport_family_matches(
    bsp: &FleetReport,
    scenario: &Scenario,
    runner: impl Fn(TransportConfig) -> FleetReport,
    label: &str,
) {
    let per_tenant = runner(TransportConfig::WorkStealing {
        threads: scenario.tenants.len(),
    });
    assert_reports_bit_match(bsp, &per_tenant, &format!("{label} per_tenant"));
    let mut steal_runs = Vec::new();
    for threads in THREAD_CAPS {
        let steal = runner(TransportConfig::WorkStealing { threads });
        assert_reports_bit_match(bsp, &steal, &format!("{label} steal{threads}T"));
        steal_runs.push((threads, steal));
    }
    // Thread-cap invariance checked pairwise, not just against the (already
    // matching) reference — a cap-dependent divergence cannot hide.
    for window in steal_runs.windows(2) {
        let (ta, a) = &window[0];
        let (tb, b) = &window[1];
        assert_reports_bit_match(a, b, &format!("{label} steal {ta}T vs {tb}T"));
    }
}

#[test]
fn fuzzed_scenarios_bit_match_across_transports_at_zero_staleness() {
    cases(6, |rng, case| {
        // Two cases in six append 17–40 diurnal tenants: the barrier deals
        // one worker per 16-tenant block, so only these put several barrier
        // workers on one shard's reads at once.
        let extra_diurnal = if case % 3 == 1 {
            17 + rng.uniform_usize(24)
        } else {
            0
        };
        let scenario = fuzz_scenario_grown(rng, case, extra_diurnal);
        let repo = fuzz_repo(rng);
        let barrier = |workers: usize| {
            let recorder = Recorder::enabled();
            let report = FleetEngine::new(
                scenario.clone(),
                FleetConfig {
                    repo: repo.clone(),
                    workers,
                    recorder: recorder.clone(),
                    ..Default::default()
                },
            )
            .run();
            let dealt = recorder.metrics().expect("enabled").barrier_workers.get();
            let blocks = scenario.tenants.len().div_ceil(16);
            assert_eq!(dealt, workers.min(blocks) as u64, "case {case}");
            report
        };
        let bsp = barrier(1);
        assert_eq!(bsp.epochs, scenario.horizon_epochs(), "case {case}");
        // With one block, 2 and 4 workers clamp to the 1-worker run.
        if scenario.tenants.len().div_ceil(16) > 1 {
            for workers in [2, 4] {
                let label = format!("case {case} barrier {workers}W");
                assert_reports_bit_match(&bsp, &barrier(workers), &label);
            }
        }
        assert_transport_family_matches(
            &bsp,
            &scenario,
            |transport| run(&scenario, &repo, transport),
            &format!("case {case}"),
        );
    });
}

#[test]
fn fuzzed_warm_starts_bit_match_across_transports_at_zero_staleness() {
    cases(4, |rng, case| {
        // A seed fleet tunes a repository (TTL always on, so seeded entries
        // age out *during* the warm run — including in shards the fuzzed
        // tenants never touch, whose sweeps only the per-shard frontier
        // schedule keeps on time); every transport then resumes from the
        // same snapshot.
        let seed_repo = SharedRepoConfig {
            shards: 1 + rng.uniform_usize(16),
            ttl: Some(SimDuration::from_hours(rng.uniform(20.0, 40.0))),
            ..Default::default()
        };
        let seed_scenario = ScenarioBuilder::new(format!("fuzz-seed-{case}"), 91 ^ case, 1)
            .tick(SimDuration::from_secs(900.0))
            .diurnal_fleet(2)
            .specweb_fleet(1)
            .build();
        let seeding = FleetEngine::new(
            seed_scenario,
            FleetConfig {
                repo: seed_repo.clone(),
                ..Default::default()
            },
        );
        let shared = Arc::new(SharedSignatureRepository::new(seed_repo.clone()));
        seeding.run_on(Arc::clone(&shared));
        let snapshot = shared.save_snapshot();

        let scenario = fuzz_scenario(rng, case);
        let bsp = run_warm(&scenario, &seed_repo, TransportConfig::Bsp, &snapshot);
        assert!(bsp.warm_start, "case {case}: seed fleet left no entries");
        assert_transport_family_matches(
            &bsp,
            &scenario,
            |transport| run_warm(&scenario, &seed_repo, transport, &snapshot),
            &format!("warm case {case}"),
        );
    });
}

/// Regression pin for the frontier-aware TTL sweep: with per-shard commit
/// frontiers, a shard whose epoch batch commits ahead of the fleet must be
/// swept at **its own** epoch's timestamp. Were the sweep still fleet-wide
/// per whole epoch, a deferred-stale entry in a leading shard would survive
/// into that shard's next commit, where a buffered `RecordHit` would land on
/// it and diverge the hit/eviction statistics from the barrier's. The
/// scenarios here force the failure shape: a short TTL (entries expire
/// mid-run), skewed namespaces (a big diurnal family and a small SPECweb one
/// in different shards, so frontiers genuinely decouple), and churn.
#[test]
fn frontier_aware_ttl_sweep_cannot_resurrect_deferred_stale_entries() {
    cases(4, |rng, case| {
        let days = 2;
        let mut builder = ScenarioBuilder::new(format!("ttl-skew-{case}"), 7 ^ case, days)
            .tick(SimDuration::from_secs(900.0))
            .diurnal_fleet(3 + rng.uniform_usize(2))
            .specweb_fleet(1);
        if rng.uniform01() < 0.5 {
            builder = builder.stagger_arrivals(
                2,
                SimDuration::from_hours(4.0),
                SimDuration::from_hours(3.0),
            );
        }
        let scenario = builder.build();
        let repo = SharedRepoConfig {
            shards: 1 + rng.uniform_usize(16),
            ttl: Some(SimDuration::from_hours(rng.uniform(8.0, 16.0))),
            ..Default::default()
        };
        let bsp = run(&scenario, &repo, TransportConfig::Bsp);
        let evictions = bsp
            .shared_repo
            .as_ref()
            .expect("shared run")
            .stats
            .evictions;
        assert!(
            evictions > 0,
            "case {case}: the TTL never fired — the regression scenario is vacuous"
        );
        assert_transport_family_matches(
            &bsp,
            &scenario,
            |transport| run(&scenario, &repo, transport),
            &format!("ttl case {case}"),
        );
    });
}

/// Runs a fleet with the flight recorder explicitly enabled or disabled on
/// both the repository and the transport layer — the obs-invisibility
/// fuzzing hook.
fn run_with_obs(
    scenario: &Scenario,
    repo: &SharedRepoConfig,
    transport: TransportConfig,
    obs: bool,
) -> (FleetReport, Recorder) {
    let recorder = if obs {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let engine = FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            transport,
            recorder: recorder.clone(),
            ..Default::default()
        },
    );
    let report = engine.run_on(Arc::new(
        SharedSignatureRepository::new(repo.clone()).with_recorder(recorder.clone()),
    ));
    (report, recorder)
}

/// The flight recorder never perturbs results: an obs-on run bit-matches the
/// obs-off barrier reference for every transport, on
/// fuzzed scenarios, with the toggle itself randomized per family member so
/// both recorder paths keep getting exercised across the whole matrix.
#[test]
fn obs_recording_is_invisible_to_results_across_transports() {
    cases(4, |rng, case| {
        let scenario = fuzz_scenario(rng, case);
        let repo = fuzz_repo(rng);
        let bsp = run(&scenario, &repo, TransportConfig::Bsp);
        let (bsp_obs, recorder) = run_with_obs(&scenario, &repo, TransportConfig::Bsp, true);
        assert_reports_bit_match(&bsp, &bsp_obs, &format!("obs case {case} bsp"));
        let report = recorder.report().expect("enabled recorder reports");
        assert!(
            report.render().contains("epoch_commit"),
            "obs case {case}: the enabled recorder saw no epochs"
        );
        // Deterministically alternate the toggle across the family members
        // (per_tenant, steal at each thread cap), seeded by the case index.
        let draws = Cell::new(0u64);
        assert_transport_family_matches(
            &bsp,
            &scenario,
            |transport| {
                let i = draws.get();
                draws.set(i + 1);
                run_with_obs(&scenario, &repo, transport, (case + i).is_multiple_of(2)).0
            },
            &format!("obs case {case}"),
        );
    });
    // The fuzzed fleets are a handful of tenants. One fleet larger than the
    // work-stealing pool's report-batch cap (32 reports) puts whole batches —
    // and the `report_batches` probe on every send — on the path: obs on
    // must still bit-match obs off, and the counter must show that fewer
    // messages than reports reached the committer.
    let mut scenario = standard_fleet(48, 1, 11);
    scenario.tick = SimDuration::from_secs(900.0);
    let repo = SharedRepoConfig::default();
    let steal = TransportConfig::WorkStealing { threads: 2 };
    let (off, _) = run_with_obs(&scenario, &repo, steal, false);
    let (on, recorder) = run_with_obs(&scenario, &repo, steal, true);
    assert_reports_bit_match(&off, &on, "obs on a batching steal pool");
    let batches = recorder
        .metrics()
        .expect("enabled recorder")
        .report_batches
        .get();
    let reports: u64 = on.tenants.iter().map(|t| t.active_epochs as u64).sum();
    assert!(
        batches > 0 && batches < reports,
        "{batches} batches carried {reports} reports"
    );
    // The same fleet behind the barrier is three blocks dealt to two
    // workers, with a clock read around every worker's block loop and every
    // epoch's step phase: obs on must still bit-match obs off, and the probes
    // must add up — no worker can be busy for longer than the phase lasted.
    let barrier = |recorder: Recorder| {
        FleetEngine::new(
            scenario.clone(),
            FleetConfig {
                workers: 2,
                recorder,
                ..Default::default()
            },
        )
        .run()
    };
    let recorder = Recorder::enabled();
    let off = barrier(Recorder::disabled());
    let on = barrier(recorder.clone());
    assert_reports_bit_match(&off, &on, "obs on a block-dealing barrier");
    let metrics = recorder.metrics().expect("enabled recorder");
    let (busy, wall) = (metrics.barrier_busy_ns.get(), metrics.barrier_wall_ns.get());
    assert_eq!(metrics.barrier_workers.get(), 2);
    assert!(
        busy > 0 && busy <= 2 * wall,
        "busy {busy} ns inside 2 x {wall} ns"
    );
    let report = recorder.report().expect("enabled recorder reports");
    assert!(report.render().contains("barrier worker idle"));
    assert!(!report.render_stable().contains("barrier"));
}

/// The simulation-determined subset of the obs report (`render_stable`) is
/// bit-stable for a fixed seed under the BSP transport: two identical runs
/// render identical stable reports, and the report actually has content.
#[test]
fn obs_stable_report_is_deterministic_for_a_fixed_seed() {
    let scenario = ScenarioBuilder::new("obs-det", 11, 1)
        .tick(SimDuration::from_secs(900.0))
        .diurnal_fleet(3)
        .specweb_fleet(1)
        .build();
    let repo = SharedRepoConfig {
        ttl: Some(SimDuration::from_hours(12.0)),
        ..Default::default()
    };
    let render = || {
        let (_, recorder) = run_with_obs(&scenario, &repo, TransportConfig::Bsp, true);
        recorder
            .report()
            .expect("enabled recorder reports")
            .render_stable()
    };
    let first = render();
    let second = render();
    assert_eq!(first, second, "stable obs report drifted between runs");
    assert!(first.contains("epoch_commit"), "{first}");
    assert!(first.contains("tree_visits"), "{first}");
    assert!(first.contains("peek_ns"), "{first}");
}
