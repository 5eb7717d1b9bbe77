//! Benchmarks of the fleet-shared signature repository's hot path and of a
//! small end-to-end fleet run.
//!
//! Run with `cargo bench -p dejavu-bench --bench repository_benchmarks`.

use criterion::{criterion_group, criterion_main, Criterion};
use dejavu_cloud::ResourceAllocation;
use dejavu_fleet::{
    FleetConfig, FleetEngine, ScenarioBuilder, SharedRepoConfig, SharedSignatureRepository,
};
use dejavu_simcore::{SimDuration, SimTime};
use std::hint::black_box;

/// Populates `namespaces × anchors` entries with well-separated signatures.
fn populated(namespaces: u64, anchors: usize) -> SharedSignatureRepository {
    let repo = SharedSignatureRepository::new(SharedRepoConfig::default());
    for ns in 0..namespaces {
        for a in 0..anchors {
            let sig = signature(a);
            repo.insert(
                0,
                ns,
                &sig,
                0,
                ResourceAllocation::large(1 + (a % 9) as u32),
                SimTime::ZERO,
            );
        }
    }
    repo
}

fn signature(anchor: usize) -> [f64; 8] {
    let base = 10.0 * 1.5f64.powi(anchor as i32 % 16);
    [
        base,
        base * 0.5,
        base * 2.0,
        base * 0.1,
        base * 4.0,
        base * 0.25,
        base * 8.0,
        base * 0.75,
    ]
}

fn bench_shared_repo(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_repo");

    group.bench_function("lookup_hit_8_anchors", |b| {
        let repo = populated(4, 8);
        let sig = signature(3);
        b.iter(|| black_box(repo.lookup(1, 2, &sig, 0, SimTime::ZERO)))
    });

    group.bench_function("lookup_miss_8_anchors", |b| {
        let repo = populated(4, 8);
        let sig = [1.0; 8];
        b.iter(|| black_box(repo.lookup(1, 2, &sig, 0, SimTime::ZERO)))
    });

    group.bench_function("peek_read_only", |b| {
        let repo = populated(4, 8);
        let sig = signature(3);
        b.iter(|| black_box(repo.peek(2, &sig, 0, SimTime::ZERO, Some(7))))
    });

    group.bench_function("insert_with_anchor_resolution", |b| {
        let repo = populated(4, 8);
        let sig = signature(5);
        b.iter(|| {
            repo.insert(1, 3, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
            black_box(repo.len())
        })
    });

    group.bench_function("concurrent_lookups_8_threads", |b| {
        let repo = populated(16, 8);
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let repo = &repo;
                    scope.spawn(move || {
                        let sig = signature((t % 8) as usize);
                        for ns in 0..16 {
                            black_box(repo.lookup(t as usize, ns, &sig, 0, SimTime::ZERO));
                        }
                    });
                }
            })
        })
    });

    group.finish();
}

fn bench_fleet_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(3);
    group.bench_function("fleet_8_tenants_2_days", |b| {
        b.iter(|| {
            let scenario = ScenarioBuilder::new("bench", 5, 2)
                .tick(SimDuration::from_secs(600.0))
                .diurnal_fleet(8)
                .build();
            black_box(FleetEngine::new(scenario, FleetConfig::default()).run())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shared_repo, bench_fleet_run);
criterion_main!(benches);
