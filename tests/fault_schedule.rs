//! Seeded fault-schedule fuzzer for the fleet's fault model.
//!
//! PR 7 gave the async transport a deterministic fault injector
//! ([`dejavu::fleet::FaultSpec`]) and the recovery machinery to survive it:
//! delta-chain checkpoints between epoch barriers, tenant restart with
//! deterministic epoch replay, committer failover that re-assembles
//! un-committed batches from re-sent reports, and shard-loss warm re-seeds.
//! The promise mirrors the differential fuzzer's: **recovery is invisible**.
//! A run under *any* injected fault schedule converges bit-identical to the
//! fault-free BSP barrier — down to the shared repository's eviction
//! counts.
//!
//! Every test here is seeded and deterministic (the shared `cases` harness
//! from `tests/common`); `DEJAVU_PROPTEST_CASES` raises the case count —
//! the nightly CI job runs the fuzzer at 32 cases, i.e. hundreds of
//! distinct fault schedules.
//!
//! Invariants pinned, per fuzzed scenario:
//!
//! * **Convergence under faults.** For ≥ 64 distinct seeded schedules
//!   (every fault kind alone, all kinds together, and a crash/restart/loss
//!   mix — across cases and both pool shapes), the faulty run
//!   bit-matches the fault-free barrier: per-tenant results, the hit-rate
//!   curve, and the repository's entries/anchors/stats/shard stats
//!   (evictions included).
//! * **The fault summary tells the truth.** Injection tallies are consistent
//!   with the per-kind breakdown, enabled-kind subsets only inject their
//!   kinds, and the all-kinds schedules actually fire (non-vacuous).
//! * **Checkpoint profiling is invisible too.** `checkpoint_every > 0`
//!   without any fault spec records deltas and compactions but changes no
//!   result bit.
//! * **Observability stays invisible under faults.** An obs-on faulty run
//!   bit-matches the obs-off faulty run, and the enabled recorder actually
//!   sees the recovery counters.

use dejavu::fleet::{
    FaultKind, FaultSpec, FleetConfig, FleetEngine, FleetReport, Scenario, ScenarioBuilder,
    SharedRepoConfig, TransportConfig,
};
use dejavu::obs::Recorder;
use dejavu::simcore::SimDuration;

mod common;
use common::{assert_reports_bit_match, cases, fuzz_repo, fuzz_scenario, D_SEED};

/// Runs `scenario` with fault injection (and the delta-checkpoint cadence
/// that recovery replays from) over `transport`.
fn run_faulty(
    scenario: &Scenario,
    repo: &SharedRepoConfig,
    transport: TransportConfig,
    faults: Option<FaultSpec>,
    checkpoint_every: usize,
    recorder: Option<Recorder>,
) -> FleetReport {
    FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            transport,
            faults,
            checkpoint_every,
            recorder: recorder.unwrap_or_default(),
            ..Default::default()
        },
    )
    .run()
}

/// The schedule battery for one fuzz case: all kinds together, each kind
/// alone, and a state-loss mix — eight distinct seeded schedules per case.
fn fault_specs(case: u64) -> Vec<FaultSpec> {
    let seed = D_SEED ^ (case << 16);
    let mut specs = vec![FaultSpec::all(seed)];
    for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
        specs.push(FaultSpec::with_kinds(seed ^ (i as u64 + 1), &[kind]));
    }
    specs.push(FaultSpec::with_kinds(
        seed ^ 0xFF,
        &[
            FaultKind::TenantCrash,
            FaultKind::CommitterRestart,
            FaultKind::ShardLoss,
        ],
    ));
    specs
}

/// The two pool shapes every schedule is driven through: one worker per
/// tenant (nobody ever waits for a worker) and a pool of two.
fn async_transports(tenants: usize) -> [TransportConfig; 2] {
    [tenants, 2].map(|threads| TransportConfig::WorkStealing { threads })
}

/// Checks the summary's internal consistency: the injected total covers the
/// per-kind tallies, and disabled kinds never fire.
fn assert_summary_consistent(report: &FleetReport, spec: FaultSpec, label: &str) {
    let f = report
        .faults
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: fault run lost its summary"));
    assert_eq!(f.spec, spec.render(), "{label}: spec round-trip");
    let by_kind = [
        (FaultKind::TenantCrash, f.tenants_crashed),
        (FaultKind::CommitterRestart, f.committer_restarts),
        (FaultKind::DropReport, f.reports_dropped),
        (FaultKind::DupReport, f.reports_duplicated),
        (FaultKind::ReorderReport, f.reports_reordered),
        (FaultKind::ShardLoss, f.shard_losses),
    ];
    let mut total = 0;
    for (kind, count) in by_kind {
        assert!(
            spec.enables(kind) || count == 0,
            "{label}: disabled kind {kind:?} fired {count} times"
        );
        total += count;
    }
    assert_eq!(f.injected, total, "{label}: injected total vs breakdown");
    // Replay only ever happens in service of a crash recovery. (The reverse
    // need not hold: a tenant crashing at the first epoch of its tenancy
    // window has nothing to replay.)
    assert!(
        f.replayed_epochs == 0 || f.tenants_crashed > 0,
        "{label}: replay without a crash"
    );
    assert!(
        f.checkpoints > 0,
        "{label}: fault run recorded no delta checkpoints"
    );
}

/// Every run under every injected fault schedule converges
/// bit-identical to the fault-free BSP barrier — the tentpole invariant.
/// 4 cases × 8 schedules × 2 transports = 64 distinct schedule runs at the
/// default case count.
#[test]
fn k0_fault_schedules_converge_bit_identical_to_fault_free_bsp() {
    cases(4, |rng, case| {
        let scenario = fuzz_scenario(rng, case);
        let repo = fuzz_repo(rng);
        let bsp = FleetEngine::new(
            scenario.clone(),
            FleetConfig {
                repo: repo.clone(),
                ..Default::default()
            },
        )
        .run();
        // Rotate the checkpoint cadence so compaction (> 0) and the
        // record-only floor cadence (0 disables compaction, not recording)
        // both keep getting exercised.
        let checkpoint_every = [0, 2, 5, 8][case as usize % 4];
        let mut injected_all_kinds = 0;
        for (s, spec) in fault_specs(case).into_iter().enumerate() {
            for transport in async_transports(scenario.tenants.len()) {
                let label = format!("case {case} spec {s} ({}) {transport:?}", spec.render());
                let faulty = run_faulty(
                    &scenario,
                    &repo,
                    transport,
                    Some(spec),
                    checkpoint_every,
                    None,
                );
                assert_reports_bit_match(&bsp, &faulty, &label);
                assert_summary_consistent(&faulty, spec, &label);
                if s == 0 {
                    injected_all_kinds += faulty.faults.as_ref().unwrap().injected;
                }
            }
        }
        assert!(
            injected_all_kinds > 0,
            "case {case}: the all-kinds schedules never injected anything — vacuous"
        );
    });
}

/// `checkpoint_every > 0` with no fault spec is pure profiling: deltas and
/// compactions are recorded, the summary says so, and not a single result
/// bit moves.
#[test]
fn checkpointing_without_faults_is_invisible_and_summarized() {
    cases(2, |rng, case| {
        let scenario = fuzz_scenario(rng, case);
        let repo = fuzz_repo(rng);
        let bsp = FleetEngine::new(
            scenario.clone(),
            FleetConfig {
                repo: repo.clone(),
                ..Default::default()
            },
        )
        .run();
        for transport in async_transports(scenario.tenants.len()) {
            let label = format!("ckpt case {case} {transport:?}");
            let report = run_faulty(&scenario, &repo, transport, None, 3, None);
            assert_reports_bit_match(&bsp, &report, &label);
            let f = report
                .faults
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: no summary"));
            assert_eq!(f.injected, 0, "{label}");
            assert_eq!(f.spec, "", "{label}");
            assert!(f.checkpoints > 0, "{label}: nothing recorded");
            assert!(f.compactions > 0, "{label}: nothing compacted");
        }
    });
}

/// The dynamic compaction floor: on a long run whose tenancy windows all
/// *close*, the delta chain compacts past each crash-scheduled window as its
/// window ends instead of pinning the whole run at the earliest one — the
/// chain's peak length is bounded by the window span, not the horizon.
#[test]
fn long_churn_runs_keep_delta_chains_bounded() {
    let days = 5;
    let tenants = 12;
    // Staggered 24-epoch tenancy windows across a 120-epoch horizon: every
    // window closes long before the run does.
    let mut builder = ScenarioBuilder::new("floor-churn", D_SEED, days).diurnal_fleet(tenants);
    for t in 0..tenants {
        builder = builder
            .arrive_at(t, SimDuration::from_hours(6.0 * t as f64))
            .depart_at(t, SimDuration::from_hours(6.0 * t as f64 + 24.0));
    }
    let scenario = builder.build();
    let repo = SharedRepoConfig::default();
    let bsp = FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            ..Default::default()
        },
    )
    .run();
    let spec = FaultSpec::with_kinds(D_SEED ^ 0xC0FFEE, &[FaultKind::TenantCrash]);
    for transport in async_transports(scenario.tenants.len()) {
        let label = format!("bounded chain {transport:?}");
        let faulty = run_faulty(&scenario, &repo, transport, Some(spec), 2, None);
        assert_reports_bit_match(&bsp, &faulty, &label);
        let f = faulty.faults.as_ref().expect("fault summary");
        assert!(
            f.tenants_crashed > 0,
            "{label}: no crash ever scheduled — the floor was never exercised"
        );
        let horizon = faulty.epochs;
        assert!(horizon >= 90, "long run expected, got {horizon} epochs");
        // A 24-epoch window plus compaction-cadence slack. A static floor
        // pinned at the earliest crash window would grow the chain toward
        // the full horizon instead.
        assert!(
            (f.chain_peak as usize) < horizon / 2,
            "{label}: chain peak {} of a {horizon}-epoch run — the floor never advanced",
            f.chain_peak
        );
    }
}

/// The flight recorder stays invisible under fault injection: an obs-on
/// faulty run bit-matches the obs-off faulty run of the same schedule, and
/// the enabled recorder actually observes the recovery counters.
#[test]
fn obs_recording_is_invisible_to_fault_runs() {
    cases(2, |rng, case| {
        let scenario = fuzz_scenario(rng, case);
        let repo = fuzz_repo(rng);
        let spec = FaultSpec::all(D_SEED ^ (case << 32));
        for transport in async_transports(scenario.tenants.len()) {
            let label = format!("obs fault case {case} {transport:?}");
            let off = run_faulty(&scenario, &repo, transport, Some(spec), 3, None);
            let recorder = Recorder::enabled();
            let on = run_faulty(
                &scenario,
                &repo,
                transport,
                Some(spec),
                3,
                Some(recorder.clone()),
            );
            assert_reports_bit_match(&off, &on, &label);
            assert_eq!(off.faults, on.faults, "{label}: summaries diverged");
            let injected = off.faults.as_ref().expect("summary").injected;
            if injected > 0 {
                let rendered = recorder.report().expect("enabled recorder").render();
                assert!(
                    rendered.contains("faults_injected"),
                    "{label}: recorder missed the fault counters"
                );
                assert!(
                    rendered.contains("checkpoints"),
                    "{label}: recorder missed the checkpoint counter"
                );
            }
        }
    });
}
