//! Helpers shared by the cross-transport differential fuzzer
//! (`tests/differential.rs`) and the fault-schedule fuzzer
//! (`tests/fault_schedule.rs`): the seeded case harness, the scenario /
//! repository generators, and the bit-match assertion both fuzzers pin
//! their invariants with.

#![allow(dead_code)] // each test binary uses its own subset

use dejavu::fleet::{FleetReport, Scenario, ScenarioBuilder, SharedRepoConfig};
use dejavu::simcore::{SimDuration, SimRng};

pub const D_SEED: u64 = 0xD1FF_0FF5_7EA1_CA5E;

/// Runs `body` for `n` deterministic random cases (the `DEJAVU_PROPTEST_CASES`
/// environment variable overrides `n`), labelling failures with the case
/// index so they can be replayed.
pub fn cases(n: u64, mut body: impl FnMut(&mut SimRng, u64)) {
    let n = std::env::var("DEJAVU_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(n);
    for case in 0..n {
        let mut rng = SimRng::seed_from_u64(D_SEED ^ case);
        body(&mut rng, case);
    }
}

/// Generates a random fleet scenario: 1–10 tenants drawn from the scenario
/// families (diurnal / spike / sine / interference / SPECweb mixes — i.e.
/// several namespaces, hence several shards, with skewed tenant counts),
/// random observation ticks, and random churn windows (staggered arrivals,
/// a mid-run departure).
pub fn fuzz_scenario(rng: &mut SimRng, case: u64) -> Scenario {
    fuzz_scenario_grown(rng, case, 0)
}

/// [`fuzz_scenario`] with `extra_diurnal` more diurnal tenants appended,
/// present from the start: past 16 tenants the barrier deals its blocks to
/// more than one worker.
pub fn fuzz_scenario_grown(rng: &mut SimRng, case: u64, extra_diurnal: usize) -> Scenario {
    let days = 1 + rng.uniform_usize(2);
    let tick = [600.0, 900.0, 1200.0][rng.uniform_usize(3)];
    let mut builder = ScenarioBuilder::new(format!("fuzz-{case}"), D_SEED ^ (case << 8), days)
        .tick(SimDuration::from_secs(tick));
    let diurnal = 1 + rng.uniform_usize(3);
    builder = builder.diurnal_fleet(diurnal);
    let mut total = diurnal;
    if rng.uniform01() < 0.5 {
        let n = 1 + rng.uniform_usize(2);
        builder = builder.sine_sweep(n);
        total += n;
    }
    if rng.uniform01() < 0.35 {
        let n = 1 + rng.uniform_usize(2);
        builder = builder.spike_storm(n);
        total += n;
    }
    if rng.uniform01() < 0.3 {
        let n = 1 + rng.uniform_usize(2);
        builder = builder.specweb_fleet(n);
        total += n;
    }
    if rng.uniform01() < 0.25 {
        builder = builder.interference_heavy(1);
        total += 1;
    }
    // Churn: a random suffix of the fleet joins staggered…
    if total >= 2 && rng.uniform01() < 0.6 {
        let from = 1 + rng.uniform_usize(total - 1);
        builder = builder.stagger_arrivals(
            from,
            SimDuration::from_hours(1.0 + rng.uniform(0.0, 10.0)),
            SimDuration::from_hours(1.0 + rng.uniform(0.0, 4.0)),
        );
    }
    // …and a random tenant leaves mid-run (possibly one that joined late —
    // EpochWindow clamps the degenerate stop-before-start case).
    if rng.uniform01() < 0.5 {
        let tenant = rng.uniform_usize(total);
        builder = builder.depart_at(
            tenant,
            SimDuration::from_hours(6.0 + rng.uniform(0.0, 18.0)),
        );
    }
    builder.diurnal_fleet(extra_diurnal).build()
}

/// Random repository configuration: shard counts from the degenerate 1 up
/// to 16 (shard routing skew is what the per-shard frontiers react to) and
/// a TTL short enough to expire entries mid-run about half the time.
pub fn fuzz_repo(rng: &mut SimRng) -> SharedRepoConfig {
    SharedRepoConfig {
        shards: 1 + rng.uniform_usize(16),
        ttl: (rng.uniform01() < 0.5).then(|| SimDuration::from_hours(rng.uniform(8.0, 36.0))),
        ..Default::default()
    }
}

/// The thread caps every fuzzed scenario is driven at.
pub const THREAD_CAPS: [usize; 3] = [1, 2, 4];

/// Asserts that two fleet reports describe bit-identical runs: every
/// per-tenant result, the convergence bookkeeping, the hit-rate curve, and
/// the shared repository's final state and statistics (the eviction counts
/// are what pin the frontier-aware per-shard TTL sweep).
pub fn assert_reports_bit_match(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_eq!(a.epochs, b.epochs, "{label}: epochs");
    assert_eq!(a.warm_start, b.warm_start, "{label}: warm flag");
    assert_eq!(a.hit_rate_curve, b.hit_rate_curve, "{label}: curve");
    assert_eq!(a.tenants.len(), b.tenants.len(), "{label}: tenant count");
    for (x, y) in a.tenants.iter().zip(&b.tenants) {
        let t = &x.name;
        assert_eq!(x.dejavu.total_cost, y.dejavu.total_cost, "{label} {t}");
        assert_eq!(x.dejavu.reuse_cost, y.dejavu.reuse_cost, "{label} {t}");
        assert_eq!(
            x.dejavu.slo_violation_fraction, y.dejavu.slo_violation_fraction,
            "{label} {t}"
        );
        assert_eq!(
            x.dejavu.latency_ms.values(),
            y.dejavu.latency_ms.values(),
            "{label} {t}"
        );
        assert_eq!(
            x.dejavu.instance_count.values(),
            y.dejavu.instance_count.values(),
            "{label} {t}"
        );
        assert_eq!(x.stats.tunings, y.stats.tunings, "{label} {t}");
        assert_eq!(x.stats.fleet_reuses, y.stats.fleet_reuses, "{label} {t}");
        assert_eq!(
            x.stats.repository.hits, y.stats.repository.hits,
            "{label} {t}"
        );
        assert_eq!(
            x.stats.repository.misses, y.stats.repository.misses,
            "{label} {t}"
        );
        assert_eq!(x.cross_tenant_hits, y.cross_tenant_hits, "{label} {t}");
        assert_eq!(x.joined_epoch, y.joined_epoch, "{label} {t}");
        assert_eq!(x.active_epochs, y.active_epochs, "{label} {t}");
        assert_eq!(
            x.first_fleet_reuse_epoch, y.first_fleet_reuse_epoch,
            "{label} {t}"
        );
        assert_eq!(x.failed_epoch, y.failed_epoch, "{label} {t}");
    }
    let (ra, rb) = (a.shared_repo.as_ref(), b.shared_repo.as_ref());
    assert_eq!(ra.is_some(), rb.is_some(), "{label}: repo snapshot");
    if let (Some(ra), Some(rb)) = (ra, rb) {
        assert_eq!(ra.entries, rb.entries, "{label}: repo entries");
        assert_eq!(ra.anchors, rb.anchors, "{label}: repo anchors");
        assert_eq!(ra.stats, rb.stats, "{label}: repo stats");
        assert_eq!(ra.shard_stats, rb.shard_stats, "{label}: shard stats");
    }
}
