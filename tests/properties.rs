//! Property-based tests over the core invariants, spanning crates.
//!
//! The properties are exercised with a small hand-rolled harness (`cases`)
//! driven by the workspace's own deterministic [`SimRng`] rather than an
//! external property-testing crate: the build is hermetic, and determinism
//! matters more here than shrinking — every failure reproduces exactly.

use dejavu::cloud::{AllocationSpace, CostMeter, ResourceAllocation};
use dejavu::core::{DejaVuConfig, DejaVuController};
use dejavu::fleet::{
    FleetConfig, FleetEngine, FleetReport, ResolveMemo, ScenarioBuilder, SharedRepoConfig,
    SharedSignatureRepository, SimulationEngine, TransportConfig,
};
use dejavu::metrics::WorkloadSignature;
use dejavu::ml::kmeans::{KMeans, KMeansConfig};
use dejavu::ml::Dataset;
use dejavu::services::service::EvalContext;
use dejavu::services::{CassandraService, ServiceModel};
use dejavu::simcore::{SimDuration, SimRng, SimTime, TimeSeries};
use dejavu::traces::LoadTrace;

/// Runs `body` for `n` deterministic random cases, labelling failures with the
/// case index so they can be replayed. `DEJAVU_PROPTEST_CASES` (the
/// `PROPTEST_CASES` equivalent of this hand-rolled harness) overrides the
/// per-property default — the nightly CI job raises it.
fn cases(n: u64, mut body: impl FnMut(&mut SimRng, u64)) {
    let n = std::env::var("DEJAVU_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(n);
    for case in 0..n {
        let mut rng = SimRng::seed_from_u64(P_SEED ^ case);
        body(&mut rng, case);
    }
}

const P_SEED: u64 = 0x5EED_0F20_7E57_CA5E;

/// Signature normalization makes signatures invariant to how long the
/// profiler sampled.
#[test]
fn signature_is_sampling_duration_invariant() {
    cases(64, |rng, case| {
        let len = 1 + rng.uniform_usize(19);
        let values: Vec<f64> = (0..len).map(|_| rng.uniform(0.0, 10_000.0)).collect();
        let short = rng.uniform(1.0, 100.0);
        let factor = rng.uniform(1.1, 50.0);
        let names: Vec<String> = (0..len).map(|i| format!("m{i}")).collect();
        let long_values: Vec<f64> = values.iter().map(|v| v * factor).collect();
        let a = WorkloadSignature::from_raw(names.clone(), values, SimDuration::from_secs(short));
        let b =
            WorkloadSignature::from_raw(names, long_values, SimDuration::from_secs(short * factor));
        let tolerance = 1e-6 * (1.0 + a.values().iter().sum::<f64>().abs());
        assert!(
            a.distance(&b) < tolerance,
            "case {case}: distance {}",
            a.distance(&b)
        );
    });
}

/// The queueing model is monotone: more load never reduces latency, more
/// capacity never increases it.
#[test]
fn latency_is_monotone() {
    let svc = CassandraService::update_heavy();
    let ctx = |cap| EvalContext::steady(SimTime::ZERO, cap);
    cases(64, |rng, case| {
        let load_a = rng.uniform(0.05, 1.2);
        let load_b = rng.uniform(0.05, 1.2);
        let cap_a = rng.uniform(1.0, 12.0);
        let cap_b = rng.uniform(1.0, 12.0);
        let (lo_load, hi_load) = if load_a <= load_b {
            (load_a, load_b)
        } else {
            (load_b, load_a)
        };
        let (lo_cap, hi_cap) = if cap_a <= cap_b {
            (cap_a, cap_b)
        } else {
            (cap_b, cap_a)
        };
        assert!(
            svc.evaluate(hi_load, &ctx(5.0)).latency_ms
                >= svc.evaluate(lo_load, &ctx(5.0)).latency_ms - 1e-9,
            "case {case}: latency not monotone in load"
        );
        assert!(
            svc.evaluate(0.7, &ctx(lo_cap)).latency_ms
                >= svc.evaluate(0.7, &ctx(hi_cap)).latency_ms - 1e-9,
            "case {case}: latency not antitone in capacity"
        );
    });
}

/// Cost metering is additive over adjacent time windows.
#[test]
fn cost_meter_is_additive() {
    cases(64, |rng, case| {
        let n = 1 + rng.uniform_usize(7);
        let counts: Vec<u32> = (0..n).map(|_| 1 + rng.uniform_usize(9) as u32).collect();
        let split = rng.uniform(0.1, 0.9);
        let mut meter = CostMeter::new();
        for (i, &c) in counts.iter().enumerate() {
            meter.record(SimTime::from_hours(i as f64), ResourceAllocation::large(c));
        }
        let end = SimTime::from_hours(counts.len() as f64);
        let mid = SimTime::from_hours(counts.len() as f64 * split);
        let total = meter.cost_between(SimTime::ZERO, end);
        let parts = meter.cost_between(SimTime::ZERO, mid) + meter.cost_between(mid, end);
        assert!(
            (total - parts).abs() < 1e-9,
            "case {case}: {total} != {parts}"
        );
        assert!(total >= 0.0);
    });
}

/// The allocation space's cheapest_with_capacity always returns an allocation
/// that actually provides the requested capacity (or the maximum available).
#[test]
fn cheapest_with_capacity_is_sufficient() {
    let space = AllocationSpace::scale_out(1, 10).unwrap();
    cases(64, |rng, case| {
        let capacity = rng.uniform(0.0, 15.0);
        let chosen = space.cheapest_with_capacity(capacity);
        if capacity <= 10.0 {
            assert!(chosen.capacity_units() >= capacity - 1e-9, "case {case}");
        } else {
            assert_eq!(chosen, space.full_capacity(), "case {case}");
        }
    });
}

/// k-means assignments always point at the nearest centroid.
#[test]
fn kmeans_assignments_are_nearest() {
    cases(24, |rng, case| {
        let n = 8 + rng.uniform_usize(32);
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)))
            .collect();
        let k = (2 + rng.uniform_usize(3)).min(points.len());
        let mut data = Dataset::new(vec!["x".into(), "y".into()]);
        for (x, y) in &points {
            data.push_unlabeled(vec![*x, *y]);
        }
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        for (i, inst) in data.instances().iter().enumerate() {
            let assigned = model.assignments()[i];
            let d_assigned =
                dejavu::ml::dataset::distance(&inst.features, &model.centroids()[assigned]);
            for c in model.centroids() {
                assert!(
                    d_assigned <= dejavu::ml::dataset::distance(&inst.features, c) + 1e-9,
                    "case {case}: point {i} not assigned to nearest centroid"
                );
            }
        }
    });
}

/// `KMeans::fit_auto_k` and `KMeans::fit` against the textbook sweep they
/// optimise: per `(k, restart)` a fresh k-means++ seeding from
/// `seed ^ r·0x9E37_79B9`, Lloyd until the centroid movement falls below the
/// tolerance (with the farthest-point re-seed of empty clusters), a final
/// assignment pass, an allocating silhouette and the 0.12 near-tie rule.
/// Every output bit must agree — on tiny datasets, ranges reaching past the
/// data and duplicated points (which force the all-coincident seeding branch
/// and empty clusters).
#[test]
fn fit_auto_k_matches_the_textbook_sweep_bit_for_bit() {
    use dejavu::ml::dataset::{distance, squared_distance};
    use dejavu::ml::MlError;

    struct Fit {
        centroids: Vec<Vec<f64>>,
        assignments: Vec<usize>,
        inertia: f64,
        iterations: usize,
    }

    fn nearest(centroids: &[Vec<f64>], p: &[f64]) -> (usize, f64) {
        let mut best = (0, f64::INFINITY);
        for (c, centroid) in centroids.iter().enumerate() {
            let d = squared_distance(p, centroid);
            if d < best.1 {
                best = (c, d);
            }
        }
        best
    }

    fn kmeanspp(points: &[Vec<f64>], k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
        let n = points.len();
        let mut centroids = vec![points[rng.uniform_usize(n)].clone()];
        while centroids.len() < k {
            let weights: Vec<f64> = points
                .iter()
                .map(|p| {
                    centroids
                        .iter()
                        .map(|c| squared_distance(p, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let chosen = if total <= 0.0 {
                rng.uniform_usize(n)
            } else {
                let mut target = rng.uniform01() * total;
                let mut chosen = n - 1;
                for (i, w) in weights.iter().enumerate() {
                    target -= w;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.push(points[chosen].clone());
        }
        centroids
    }

    fn lloyd(points: &[Vec<f64>], cfg: &KMeansConfig, rng: &mut SimRng) -> Fit {
        let dims = points[0].len();
        let mut centroids = kmeanspp(points, cfg.k, rng);
        let mut assignments = vec![0; points.len()];
        let mut iterations = 0;
        for _ in 0..cfg.max_iterations {
            iterations += 1;
            for (a, p) in assignments.iter_mut().zip(points) {
                *a = nearest(&centroids, p).0;
            }
            let mut next = vec![vec![0.0; dims]; cfg.k];
            let mut counts = vec![0usize; cfg.k];
            for (&c, p) in assignments.iter().zip(points) {
                counts[c] += 1;
                for (acc, x) in next[c].iter_mut().zip(p) {
                    *acc += x;
                }
            }
            for c in 0..cfg.k {
                if counts[c] == 0 {
                    let anchor = &centroids[assignments[0]];
                    let far = points
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            squared_distance(a, anchor)
                                .partial_cmp(&squared_distance(b, anchor))
                                .unwrap()
                        })
                        .unwrap()
                        .0;
                    next[c] = points[far].clone();
                } else {
                    for acc in next[c].iter_mut() {
                        *acc /= counts[c] as f64;
                    }
                }
            }
            let movement: f64 = centroids
                .iter()
                .zip(&next)
                .map(|(a, b)| distance(a, b))
                .sum();
            centroids = next;
            if movement < cfg.tolerance {
                break;
            }
        }
        let mut inertia = 0.0;
        for (a, p) in assignments.iter_mut().zip(points) {
            let (c, d2) = nearest(&centroids, p);
            *a = c;
            inertia += d2;
        }
        Fit {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    fn textbook_fit(points: &[Vec<f64>], cfg: &KMeansConfig, seed: u64) -> Fit {
        let mut best: Option<Fit> = None;
        for r in 0..cfg.restarts.max(1) {
            let mut rng = SimRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9E37_79B9));
            let fit = lloyd(points, cfg, &mut rng);
            if best.as_ref().is_none_or(|b| fit.inertia < b.inertia) {
                best = Some(fit);
            }
        }
        best.unwrap()
    }

    fn silhouette(points: &[Vec<f64>], fit: &Fit) -> f64 {
        let k = fit.centroids.len();
        let mut total = 0.0;
        let mut counted = 0usize;
        for (i, p) in points.iter().enumerate() {
            let own = fit.assignments[i];
            let mut sums = vec![Vec::new(); k];
            for (j, q) in points.iter().enumerate() {
                if i != j {
                    sums[fit.assignments[j]].push(distance(p, q));
                }
            }
            let mean = |v: &Vec<f64>| v.iter().fold(0.0, |acc, d| acc + d) / v.len() as f64;
            if sums[own].is_empty() {
                continue;
            }
            let a = mean(&sums[own]);
            let b = (0..k)
                .filter(|&c| c != own && !sums[c].is_empty())
                .map(|c| mean(&sums[c]))
                .fold(f64::INFINITY, f64::min);
            if !b.is_finite() {
                continue;
            }
            total += (b - a) / a.max(b);
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    fn textbook_auto_k(
        points: &[Vec<f64>],
        lo: usize,
        hi: usize,
        base: &KMeansConfig,
        seed: u64,
    ) -> Fit {
        let mut fits: Vec<(f64, Fit)> = (lo..=hi.min(points.len()))
            .map(|k| {
                let fit = textbook_fit(points, &KMeansConfig { k, ..base.clone() }, seed);
                let score = if k == 1 {
                    0.0
                } else {
                    silhouette(points, &fit)
                };
                (score, fit)
            })
            .collect();
        let best = fits
            .iter()
            .map(|(s, _)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        let chosen = fits.iter().rposition(|(s, _)| *s >= best - 0.12).unwrap();
        fits.swap_remove(chosen).1
    }

    fn assert_same(model: &KMeans, fit: &Fit, label: &str) {
        assert_eq!(model.k(), fit.centroids.len(), "{label}: k");
        let got: Vec<Vec<u64>> = model
            .centroids()
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect();
        let want: Vec<Vec<u64>> = fit
            .centroids
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(got, want, "{label}: centroids");
        assert_eq!(model.assignments(), fit.assignments, "{label}: assignments");
        assert_eq!(
            model.inertia().to_bits(),
            fit.inertia.to_bits(),
            "{label}: inertia"
        );
        assert_eq!(
            model.iterations_run(),
            fit.iterations,
            "{label}: iterations"
        );
    }

    cases(32, |rng, case| {
        let n = 1 + rng.uniform_usize(47);
        let dims = [1, 2, 8, 27][rng.uniform_usize(4)];
        // Half the cases draw their points from a small pool, so points
        // repeat and clusters can come up empty.
        let pool = if case % 2 == 0 {
            1 + rng.uniform_usize(4)
        } else {
            n
        };
        let distinct: Vec<Vec<f64>> = (0..pool)
            .map(|_| (0..dims).map(|_| rng.normal(0.0, 10.0)).collect())
            .collect();
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                distinct[if pool == n {
                    i
                } else {
                    rng.uniform_usize(pool)
                }]
                .clone()
            })
            .collect();
        let mut data = Dataset::new((0..dims).map(|d| format!("m{d}")).collect());
        for p in &points {
            data.push_unlabeled(p.clone());
        }
        // A zero tolerance is never met, so every fit runs to the cap; a
        // loose one stops fits before their assignments settle.
        let base = KMeansConfig {
            restarts: 1 + rng.uniform_usize(4),
            max_iterations: 1 + rng.uniform_usize(12),
            tolerance: [1e-9, 0.0, 1.0][rng.uniform_usize(3)],
            ..Default::default()
        };
        let seed = rng.uniform_usize(1 << 40) as u64;
        let label = format!("case {case}: n {n}, dims {dims}, pool {pool}");

        let (lo, hi) = match case % 4 {
            0 => (1, 1),
            1 => (2, 8),
            2 => (1, n + 3),
            _ => {
                let lo = 1 + rng.uniform_usize(n + 1);
                (lo, lo + rng.uniform_usize(6))
            }
        };
        let range = format!("{label}, range {lo}..={hi}");
        match KMeans::fit_auto_k(&data, lo..=hi, &base, seed) {
            Ok(model) => {
                let fit = textbook_auto_k(&points, lo, hi, &base, seed);
                assert_same(&model, &fit, &range);
            }
            Err(e) => {
                assert!(lo > n, "{range}: {e}");
                assert_eq!(
                    e,
                    MlError::InvalidK {
                        requested: lo,
                        available: n
                    },
                    "{range}"
                );
            }
        }

        let k = 1 + rng.uniform_usize(n.min(9));
        let cfg = KMeansConfig { k, ..base };
        let model = KMeans::fit(&data, &cfg, seed).unwrap();
        assert_same(
            &model,
            &textbook_fit(&points, &cfg, seed),
            &format!("{label}, k {k}"),
        );
    });
}

/// Shard routing of the fleet-shared repository is stable: the same namespace
/// always lands in the same in-range shard, across repository instances.
#[test]
fn shared_repo_shard_routing_is_stable() {
    let a = SharedSignatureRepository::new(SharedRepoConfig::default());
    let b = SharedSignatureRepository::new(SharedRepoConfig::default());
    let mut populated = vec![false; a.shard_count()];
    cases(64, |rng, case| {
        for _ in 0..64 {
            let ns = rng.uniform01().to_bits();
            let shard = a.shard_index(ns);
            assert!(shard < a.shard_count(), "case {case}: shard out of range");
            assert_eq!(shard, a.shard_index(ns), "case {case}: routing not stable");
            assert_eq!(
                shard,
                b.shard_index(ns),
                "case {case}: routing differs per instance"
            );
            populated[shard] = true;
        }
    });
    assert!(
        populated.iter().all(|&p| p),
        "4096 random namespaces should touch every one of {} shards",
        a.shard_count()
    );
}

/// Concurrent inserts and lookups from many threads never lose entries: after
/// the threads join, every inserted signature is retrievable and the entry
/// count matches what was inserted.
#[test]
fn shared_repo_concurrent_inserts_lose_nothing() {
    let repo = SharedSignatureRepository::new(SharedRepoConfig {
        shards: 8,
        ..Default::default()
    });
    let threads = 8usize;
    let per_thread = 200usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let repo = &repo;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let ns = (t * per_thread + i) as u64;
                    // Signatures far apart so every insert is its own anchor.
                    let sig = [1000.0 * (i + 1) as f64, 10.0 * (t + 1) as f64];
                    repo.insert(
                        t,
                        ns,
                        &sig,
                        0,
                        ResourceAllocation::large(1 + (i % 9) as u32),
                        SimTime::ZERO,
                    );
                    // Interleave lookups of our own writes while others write.
                    assert!(repo.lookup(t, ns, &sig, 0, SimTime::ZERO).is_some());
                }
            });
        }
    });
    assert_eq!(repo.len(), threads * per_thread, "entries were lost");
    for t in 0..threads {
        for i in 0..per_thread {
            let ns = (t * per_thread + i) as u64;
            let sig = [1000.0 * (i + 1) as f64, 10.0 * (t + 1) as f64];
            let entry = repo
                .lookup(0, ns, &sig, 0, SimTime::ZERO)
                .unwrap_or_else(|| panic!("entry of thread {t} op {i} lost"));
            assert_eq!(
                entry.allocation,
                ResourceAllocation::large(1 + (i % 9) as u32)
            );
        }
    }
}

/// A single-tenant fleet bit-matches a stand-alone `SimulationEngine` run with
/// the same seed: the shared repository degenerates to the tenant's private
/// overlay, the epoch loop to plain sequential stepping.
#[test]
fn single_tenant_fleet_bit_matches_single_controller_run() {
    let scenario = ScenarioBuilder::new("solo", 21, 2)
        .tick(SimDuration::from_secs(300.0))
        .diurnal_fleet(1)
        .build();
    let spec = scenario.tenants[0].clone();

    // Stand-alone run, exactly as the classic experiments drive it.
    let engine = SimulationEngine::new(spec.run_config(scenario.tick));
    let service = CassandraService::update_heavy();
    let mut controller = DejaVuController::new(
        DejaVuConfig::builder()
            .learning_hours(24)
            .seed(spec.seed)
            .build(),
        Box::new(service),
        engine.config().space.clone(),
    );
    let solo = engine.run(&service, &mut controller);

    // The same tenant as a one-member fleet, shared repository enabled.
    let report = FleetEngine::new(scenario, FleetConfig::default()).run();
    let fleet = &report.tenants[0];

    assert_eq!(fleet.dejavu.load.values(), solo.load.values());
    assert_eq!(
        fleet.dejavu.instance_count.values(),
        solo.instance_count.values()
    );
    assert_eq!(fleet.dejavu.latency_ms.values(), solo.latency_ms.values());
    assert_eq!(fleet.dejavu.total_cost, solo.total_cost);
    assert_eq!(fleet.dejavu.reuse_cost, solo.reuse_cost);
    assert_eq!(
        fleet.dejavu.slo_violation_fraction,
        solo.slo_violation_fraction
    );
    assert_eq!(fleet.dejavu.adaptations.len(), solo.adaptations.len());
    assert_eq!(fleet.stats.tunings, controller.stats().tunings);
    assert_eq!(fleet.cross_tenant_hits, 0);
}

/// The indexed anchor resolution of the shared repository returns exactly
/// what a brute-force linear scan over all anchors would: the nearest anchor
/// within tolerance, ties broken toward the lowest anchor id. The reference
/// model below mirrors anchor accretion (a signature farther than the
/// tolerance from every anchor becomes a new anchor) with plain linear
/// scans, while the repository exercises its φ-space ball tree, linear tail
/// and early-exit distance over hundreds of anchors and rebuilds.
#[test]
fn indexed_anchor_resolution_matches_brute_force() {
    use dejavu::fleet::shared_repo::normalized_distance;

    struct RefModel {
        anchors: Vec<Vec<f64>>,
        tolerance: f64,
    }
    impl RefModel {
        fn resolve(&self, sig: &[f64]) -> Option<u32> {
            let mut best: Option<(u32, f64)> = None;
            for (id, anchor) in self.anchors.iter().enumerate() {
                let d = normalized_distance(anchor, sig);
                if d <= self.tolerance && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((id as u32, d));
                }
            }
            best.map(|(id, _)| id)
        }
        fn resolve_or_create(&mut self, sig: &[f64]) -> u32 {
            match self.resolve(sig) {
                Some(id) => id,
                None => {
                    self.anchors.push(sig.to_vec());
                    (self.anchors.len() - 1) as u32
                }
            }
        }
    }

    cases(12, |rng, case| {
        let tolerance = rng.uniform(0.02, 0.5);
        let dims = 1 + rng.uniform_usize(34);
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            match_tolerance: tolerance,
            ..Default::default()
        });
        let mut reference = RefModel {
            anchors: Vec::new(),
            tolerance,
        };
        let namespace = case;
        let sig = |rng: &mut SimRng| -> Vec<f64> {
            (0..dims)
                .map(|_| {
                    // Mixed magnitudes, signs and exact zeros stress the
                    // log-magnitude mapping underneath the index.
                    match rng.uniform_usize(8) {
                        0 => 0.0,
                        1 => -rng.uniform(0.0, 10.0),
                        2 => rng.uniform(0.0, 1e-8),
                        3 => rng.uniform(0.0, 1e6),
                        _ => rng.uniform(0.1, 100.0),
                    }
                })
                .collect()
        };
        let mut bases: Vec<Vec<f64>> = Vec::new();
        for step in 0..400 {
            // Mostly perturbations of earlier signatures (to land near
            // existing anchors and exercise tie-breaking in dense regions),
            // sometimes brand-new points.
            let q: Vec<f64> = if bases.is_empty() || rng.uniform_usize(4) == 0 {
                sig(rng)
            } else {
                let base = &bases[rng.uniform_usize(bases.len())];
                let scale = rng.uniform(0.0, 2.5 * tolerance);
                base.iter()
                    .map(|&v| v * (1.0 + rng.uniform(-scale, scale)))
                    .collect()
            };
            assert_eq!(
                repo.resolve_anchor(namespace, &q),
                reference.resolve(&q),
                "case {case} step {step}: indexed resolve diverged from brute force"
            );
            repo.insert(
                0,
                namespace,
                &q,
                0,
                ResourceAllocation::large(1),
                SimTime::ZERO,
            );
            reference.resolve_or_create(&q);
            assert_eq!(
                repo.anchor_count(),
                reference.anchors.len(),
                "case {case} step {step}: anchor accretion diverged"
            );
            bases.push(q);
        }
    });
}

/// Exact distance ties resolve toward the lowest anchor id through the index,
/// just as the brute-force scan's strict-`<` comparison does.
#[test]
fn anchor_resolution_ties_break_toward_lowest_id() {
    let repo = SharedSignatureRepository::new(SharedRepoConfig {
        match_tolerance: 0.4,
        ..Default::default()
    });
    // Anchors at [2.0] and [4.5]: the query [3.0] is exactly 1/3 away
    // (relative) from both — IEEE division rounds both quotients from the
    // same real value, so the distances are bit-equal.
    repo.insert(0, 1, &[2.0], 0, ResourceAllocation::large(1), SimTime::ZERO);
    repo.insert(7, 1, &[4.5], 0, ResourceAllocation::large(2), SimTime::ZERO);
    assert_eq!(repo.anchor_count(), 2, "anchors must not merge");
    assert_eq!(repo.resolve_anchor(1, &[3.0]), Some(0));
}

/// The read path is genuinely read-only: concurrent lookups and peeks from
/// many threads proceed under the shard read lock, and the relaxed-atomic
/// statistics lose no updates. (Before the read-only read path, every lookup
/// took the shard write lock and serialized all readers.)
#[test]
fn concurrent_lookups_and_peeks_lose_no_statistics() {
    let repo = SharedSignatureRepository::new(SharedRepoConfig::default());
    let sig = [100.0, 5.0, 0.3];
    repo.insert(0, 1, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
    let threads = 8;
    let per_thread = 500;
    std::thread::scope(|scope| {
        for t in 1..=threads {
            let repo = &repo;
            let sig = &sig;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let hit = repo
                        .lookup(t, 1, sig, 0, SimTime::ZERO)
                        .expect("entry stays visible under concurrency");
                    assert!(hit.hits > 0);
                    // Peeks interleave with the lookups on the same shard;
                    // they must see the entry and move no statistics.
                    if i % 3 == 0 {
                        assert!(repo.peek(1, sig, 0, SimTime::ZERO, Some(99)).is_some());
                    }
                }
            });
        }
    });
    let stats = repo.stats();
    let expected = (threads * per_thread) as u64;
    assert_eq!(stats.hits, expected, "relaxed counters must not lose hits");
    assert_eq!(stats.cross_tenant_hits, expected);
    assert_eq!(stats.misses, 0);
}

/// Snapshot round-trip: after an arbitrary operation sequence, saving and
/// loading the shared repository yields a repository that behaves **bit
/// identically** — every subsequent resolve/lookup/insert/eviction produces
/// the same results and statistics on both, and after those subsequent
/// operations the two repositories still serialize to byte-identical
/// snapshots.
#[test]
fn shared_repo_snapshot_round_trip_is_bit_identical() {
    use dejavu::fleet::SharedRepoConfig;

    cases(16, |rng, case| {
        let ttl = if rng.uniform01() < 0.5 {
            Some(SimDuration::from_hours(rng.uniform(12.0, 72.0)))
        } else {
            None
        };
        let tolerance = rng.uniform(0.05, 0.3);
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(16),
            ttl,
            match_tolerance: tolerance,
        });
        let dims = 2 + rng.uniform_usize(6);
        let mut bases: Vec<Vec<f64>> = Vec::new();
        let mut op = |rng: &mut SimRng,
                      repo: &SharedSignatureRepository,
                      probe_twin: Option<&SharedSignatureRepository>| {
            let sig: Vec<f64> = if bases.is_empty() || rng.uniform_usize(3) == 0 {
                (0..dims).map(|_| rng.uniform(0.1, 1e4)).collect()
            } else {
                let base = &bases[rng.uniform_usize(bases.len())];
                let scale = rng.uniform(0.0, 2.0 * tolerance);
                base.iter()
                    .map(|&v| v * (1.0 + rng.uniform(-scale, scale)))
                    .collect()
            };
            bases.push(sig.clone());
            let ns = rng.uniform_usize(5) as u64;
            let bucket = rng.uniform_usize(3) as u32;
            let tenant = rng.uniform_usize(4);
            let now = SimTime::from_hours(rng.uniform(0.0, 96.0));
            match rng.uniform_usize(4) {
                0 => {
                    let alloc = ResourceAllocation::large(1 + rng.uniform_usize(9) as u32);
                    repo.insert(tenant, ns, &sig, bucket, alloc, now);
                    if let Some(twin) = probe_twin {
                        twin.insert(tenant, ns, &sig, bucket, alloc, now);
                    }
                }
                1 => {
                    let got = repo.lookup(tenant, ns, &sig, bucket, now);
                    if let Some(twin) = probe_twin {
                        assert_eq!(got, twin.lookup(tenant, ns, &sig, bucket, now));
                    }
                }
                2 => {
                    let got = repo.peek(ns, &sig, bucket, now, Some(tenant));
                    if let Some(twin) = probe_twin {
                        assert_eq!(got, twin.peek(ns, &sig, bucket, now, Some(tenant)));
                    }
                }
                _ => {
                    let got = repo.resolve_anchor(ns, &sig);
                    if let Some(twin) = probe_twin {
                        assert_eq!(got, twin.resolve_anchor(ns, &sig));
                    }
                }
            }
        };
        for _ in 0..120 {
            op(rng, &repo, None);
        }
        let text = repo.save_snapshot();
        let loaded = SharedSignatureRepository::load_snapshot(&text)
            .unwrap_or_else(|e| panic!("case {case}: snapshot failed to load: {e}"));
        assert_eq!(loaded.save_snapshot(), text, "case {case}: re-save differs");
        assert_eq!(loaded.stats(), repo.stats(), "case {case}");
        assert_eq!(loaded.shard_stats(), repo.shard_stats(), "case {case}");
        // All subsequent operations behave identically on both repositories…
        for _ in 0..80 {
            op(rng, &repo, Some(&loaded));
        }
        let sweep_at = SimTime::from_hours(rng.uniform(0.0, 120.0));
        assert_eq!(
            repo.evict_stale(sweep_at),
            loaded.evict_stale(sweep_at),
            "case {case}: TTL sweeps diverged"
        );
        assert_eq!(loaded.stats(), repo.stats(), "case {case}: stats diverged");
        // …and the evolved repositories still serialize identically.
        assert_eq!(
            loaded.save_snapshot(),
            repo.save_snapshot(),
            "case {case}: snapshots diverged after subsequent ops"
        );
    });
}

/// Snapshot **error paths** return the right typed error on arbitrary
/// repositories — not just the hand-written samples in `snapshot.rs`'s unit
/// tests. For every randomly built repository the property corrupts the
/// serialized text four ways and checks the decoder's verdict:
///
/// * **Truncation** (dropping a random number of trailing lines, losing the
///   `end` terminator) → `SnapshotError::Inconsistent` naming truncation;
/// * **A wrong version line** → `SnapshotError::Version` carrying what was
///   found;
/// * **A shard-bound violation** (`config shards=` beyond `MAX_SHARDS`) →
///   `SnapshotError::Inconsistent` naming the shard count;
/// * **A corrupted IEEE hex float** (a random `fb…` token mangled) →
///   `SnapshotError::Format` pointing at the exact line.
#[test]
fn snapshot_error_paths_return_typed_errors() {
    use dejavu::fleet::snapshot::{decode, SnapshotError, MAX_SHARDS};

    cases(16, |rng, case| {
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ttl: (rng.uniform01() < 0.5).then(|| SimDuration::from_hours(24.0)),
            match_tolerance: 0.1,
        });
        let n = 1 + rng.uniform_usize(20);
        for i in 0..n {
            let sig = vec![1000.0 * 1.5f64.powi(i as i32), rng.uniform(0.1, 1e4)];
            repo.insert(
                i % 3,
                rng.uniform_usize(4) as u64,
                &sig,
                (i % 2) as u32,
                ResourceAllocation::large(1 + (i % 9) as u32),
                SimTime::from_hours(rng.uniform(0.0, 48.0)),
            );
        }
        let text = repo.save_snapshot();
        let lines: Vec<&str> = text.lines().collect();

        // Truncation: drop 1..n trailing lines (always at least the `end`
        // terminator), keeping the version and config lines intact.
        let keep = 2 + rng.uniform_usize(lines.len() - 2);
        let truncated: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        match decode(&truncated) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("truncated"), "case {case}: {message}");
            }
            other => panic!("case {case}: truncation decoded to {other:?}"),
        }

        // Wrong version line: the error carries what was actually found.
        let mangled_version = format!(
            "dejavu-fleet-snapshot v999\n{}",
            &text[lines[0].len() + 1..]
        );
        match decode(&mangled_version) {
            Err(SnapshotError::Version { found }) => {
                assert_eq!(found, "dejavu-fleet-snapshot v999", "case {case}");
            }
            other => panic!("case {case}: version mismatch decoded to {other:?}"),
        }

        // Shard-bound violation: a huge `config shards=` is rejected before
        // any allocation, as an inconsistency naming the count.
        let bound = MAX_SHARDS + 1 + rng.uniform_usize(1000);
        let shard_bomb = text.replacen(
            &format!("config shards={}", repo.shard_count()),
            &format!("config shards={bound}"),
            1,
        );
        match decode(&shard_bomb) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("shard count"), "case {case}: {message}");
            }
            other => panic!("case {case}: shard bomb decoded to {other:?}"),
        }

        // Corrupted IEEE hex float: pick a random data line holding an
        // `fb<16 hex>` token and mangle the token; the error is a Format
        // error pointing at exactly that line.
        let float_lines: Vec<usize> = lines
            .iter()
            .enumerate()
            .skip(2) // leave the config line to the dedicated checks above
            .filter(|(_, l)| l.split_whitespace().any(|tok| tok.starts_with("fb")))
            .map(|(i, _)| i)
            .collect();
        if let Some(&line_idx) = float_lines.get(rng.uniform_usize(float_lines.len().max(1))) {
            let victim = lines[line_idx];
            let token = victim
                .split_whitespace()
                .find(|tok| tok.starts_with("fb") && tok.len() == 18)
                .expect("a float token on the chosen line");
            let corrupted_line = match rng.uniform_usize(3) {
                0 => victim.replacen(token, "fbZZ", 1), // bad length + bad hex
                1 => victim.replacen(token, &token[..17], 1), // 15 hex digits
                _ => victim.replacen(token, &format!("fbx{}", &token[3..]), 1), // non-hex
            };
            let corrupted: String = lines
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    if i == line_idx {
                        format!("{corrupted_line}\n")
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            match decode(&corrupted) {
                Err(SnapshotError::Format { line, message }) => {
                    assert_eq!(line, line_idx + 1, "case {case}: wrong line in {message}");
                    assert!(
                        message.contains("fb<16 hex digits>"),
                        "case {case}: {message}"
                    );
                }
                other => panic!("case {case}: corrupted float decoded to {other:?}"),
            }
        }

        // The untouched text still decodes — the corruptions above, not some
        // latent strictness, produced the errors.
        assert!(decode(&text).is_ok(), "case {case}");
    });
}

/// Elastic-tenancy determinism: a scenario with staggered joins and mid-run
/// departures is bit-identical across 1, 2 and 8 worker threads.
#[test]
fn churn_scenarios_are_deterministic_across_worker_counts() {
    let scenario = || {
        ScenarioBuilder::new("churn-prop", 17, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(5)
            .stagger_arrivals(
                3,
                SimDuration::from_hours(5.0),
                SimDuration::from_hours(2.0),
            )
            .depart_at(1, SimDuration::from_hours(13.0))
            .build()
    };
    let run = |workers| {
        FleetEngine::new(
            scenario(),
            FleetConfig {
                workers,
                ..Default::default()
            },
        )
        .run()
    };
    let one = run(1);
    for workers in [2, 8] {
        let other = run(workers);
        assert_eq!(one.epochs, other.epochs);
        assert_eq!(
            one.hit_rate_curve, other.hit_rate_curve,
            "{workers} workers"
        );
        for (a, b) in one.tenants.iter().zip(&other.tenants) {
            assert_eq!(a.joined_epoch, b.joined_epoch, "{workers} workers");
            assert_eq!(a.active_epochs, b.active_epochs, "{workers} workers");
            assert_eq!(
                a.first_fleet_reuse_epoch, b.first_fleet_reuse_epoch,
                "{workers} workers"
            );
            assert_eq!(
                a.dejavu.total_cost, b.dejavu.total_cost,
                "{workers} workers"
            );
            assert_eq!(a.dejavu.latency_ms.values(), b.dejavu.latency_ms.values());
            assert_eq!(a.stats.tunings, b.stats.tunings);
            assert_eq!(a.cross_tenant_hits, b.cross_tenant_hits);
        }
    }
}

/// A tenant that joins a fleet whose other members have already retired
/// behaves bit-identically to a fresh tenant running alone against a
/// repository warm-started from a snapshot of that fleet: admission is
/// epoch-barrier-aligned and tenant clocks are local, so the late joiner sees
/// exactly the snapshot state.
#[test]
fn rejoining_tenant_matches_fresh_tenant_warm_started_from_snapshot() {
    use std::sync::Arc;

    for seed in [21u64, 33] {
        // Fleet F: tenants 0–2 run day one (tenant 0 departs early at 12 h);
        // tenant 3 "rejoins" at hour 24, once everyone else is gone.
        let full = ScenarioBuilder::new("rejoin", seed, 1)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .depart_at(0, SimDuration::from_hours(12.0))
            .arrive_at(3, SimDuration::from_hours(24.0))
            .build();
        let full_report = FleetEngine::new(full.clone(), FleetConfig::default()).run();

        // Prefix fleet G: the same first day without tenant 3; snapshot it.
        let mut prefix = ScenarioBuilder::new("rejoin", seed, 1)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .depart_at(0, SimDuration::from_hours(12.0))
            .build();
        prefix.tenants.truncate(3);
        let engine = FleetEngine::new(prefix, FleetConfig::default());
        let repo = Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default()));
        engine.run_on(Arc::clone(&repo));
        let snapshot = repo.save_snapshot();

        // Warm fleet H: tenant 3 alone (same spec, immediate start) against
        // the loaded snapshot.
        let mut solo = full.clone();
        solo.tenants = vec![{
            let mut spec = full.tenants[3].clone();
            spec.start = SimDuration::from_secs(0.0);
            spec
        }];
        let (warm_report, _) = FleetEngine::new(solo, FleetConfig::default())
            .run_warm(&snapshot)
            .expect("snapshot loads");

        let rejoined = &full_report.tenants[3];
        let fresh = &warm_report.tenants[0];
        assert_eq!(
            rejoined.dejavu.total_cost, fresh.dejavu.total_cost,
            "seed {seed}"
        );
        assert_eq!(
            rejoined.dejavu.latency_ms.values(),
            fresh.dejavu.latency_ms.values(),
            "seed {seed}"
        );
        assert_eq!(
            rejoined.dejavu.instance_count.values(),
            fresh.dejavu.instance_count.values(),
            "seed {seed}"
        );
        assert_eq!(rejoined.stats.tunings, fresh.stats.tunings, "seed {seed}");
        assert_eq!(
            rejoined.stats.fleet_reuses, fresh.stats.fleet_reuses,
            "seed {seed}"
        );
        assert_eq!(
            rejoined.first_fleet_reuse_epoch, fresh.first_fleet_reuse_epoch,
            "seed {seed}"
        );
        assert_eq!(
            rejoined.cross_tenant_hits, fresh.cross_tenant_hits,
            "seed {seed}"
        );
    }
}

/// The TTL sweep reclaims exactly the entries that lookups and peeks deferred
/// as stale (the PR 2 read-only read path defers eviction to the sweep), and
/// every counter stays consistent: misses accrue at lookup time, evictions
/// only at sweep time.
#[test]
fn ttl_sweep_reclaims_deferred_stale_entries_with_consistent_counters() {
    use dejavu::fleet::SharedRepoConfig;

    cases(32, |rng, case| {
        let ttl_hours = rng.uniform(6.0, 48.0);
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ttl: Some(SimDuration::from_hours(ttl_hours)),
            ..Default::default()
        });
        let n = 1 + rng.uniform_usize(40);
        let mut tuned: Vec<(u64, Vec<f64>, SimTime)> = Vec::new();
        for i in 0..n {
            // One namespace per entry keeps the reference model trivial.
            let sig = vec![100.0 + i as f64, 55.0];
            let at = SimTime::from_hours(rng.uniform(0.0, 72.0));
            repo.insert(0, i as u64, &sig, 0, ResourceAllocation::large(2), at);
            tuned.push((i as u64, sig, at));
        }
        let now = SimTime::from_hours(rng.uniform(0.0, 120.0));
        let stale = |at: SimTime| now.saturating_since(at).as_secs() > ttl_hours * 3600.0;
        let expected_stale = tuned.iter().filter(|(_, _, at)| stale(*at)).count() as u64;

        // Lookups and peeks defer staleness: they miss but evict nothing.
        for (ns, sig, at) in &tuned {
            let hit = repo.lookup(1, *ns, sig, 0, now);
            assert_eq!(hit.is_none(), stale(*at), "case {case} ns {ns}");
            assert_eq!(
                repo.peek(*ns, sig, 0, now, None).is_none(),
                stale(*at),
                "case {case} ns {ns}"
            );
        }
        assert_eq!(repo.len(), n, "case {case}: lookups must not evict");
        let stats = repo.stats();
        assert_eq!(stats.misses, expected_stale, "case {case}");
        assert_eq!(stats.hits, n as u64 - expected_stale, "case {case}");
        assert_eq!(stats.evictions, 0, "case {case}");

        // The sweep reclaims exactly the deferred entries.
        assert_eq!(repo.evict_stale(now), expected_stale, "case {case}");
        assert_eq!(repo.len(), n - expected_stale as usize, "case {case}");
        let stats = repo.stats();
        assert_eq!(stats.evictions, expected_stale, "case {case}");
        assert_eq!(
            stats.misses, expected_stale,
            "case {case}: the sweep must not count misses"
        );
        // Evicted entries are really gone; fresh ones still hit.
        for (ns, sig, at) in &tuned {
            assert_eq!(
                repo.lookup(1, *ns, sig, 0, now).is_none(),
                stale(*at),
                "case {case} ns {ns} after sweep"
            );
        }
        // A second sweep at the same time is a no-op.
        assert_eq!(repo.evict_stale(now), 0, "case {case}");
    });
}

/// Asserts that two fleet reports describe bit-identical runs: every
/// per-tenant result, the convergence bookkeeping and the hit-rate curve.
fn assert_reports_bit_match(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_eq!(a.epochs, b.epochs, "{label}: epochs");
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

/// The churn scenario both transport properties run: staggered joiners, a
/// mid-run departure, mixed service families.
fn transport_scenario(seed: u64) -> dejavu::fleet::Scenario {
    ScenarioBuilder::new("transport-prop", seed, 2)
        .tick(SimDuration::from_secs(600.0))
        .diurnal_fleet(4)
        .sine_sweep(2)
        .stagger_arrivals(
            4,
            SimDuration::from_hours(6.0),
            SimDuration::from_hours(4.0),
        )
        .depart_at(1, SimDuration::from_hours(20.0))
        .build()
}

/// The work-stealing pool at one worker per tenant, so no tenant ever waits
/// for a worker — the freest schedule the staleness bound allows.
fn pool_per_tenant(scenario: &dejavu::fleet::Scenario, staleness: usize) -> TransportConfig {
    TransportConfig::WorkStealing {
        threads: scenario.tenants.len(),
        staleness,
    }
}

/// Bounded staleness at `K = 0` bit-matches the BSP barrier: with a zero bound no
/// tenant may enter an epoch before every prior epoch is fully committed, so
/// the store is frozen whenever anyone reads it — exactly the barrier's
/// schedule, modulo which threads execute it.
#[test]
fn bounded_staleness_zero_bit_matches_the_bsp_barrier() {
    for seed in [13u64, 29] {
        let run = |transport| {
            FleetEngine::new(
                transport_scenario(seed),
                FleetConfig {
                    transport,
                    ..Default::default()
                },
            )
            .run()
        };
        let bsp = run(TransportConfig::Bsp);
        let async0 = run(pool_per_tenant(&transport_scenario(seed), 0));
        assert_reports_bit_match(&bsp, &async0, &format!("seed {seed}"));
        // The zero-bound schedule also never observed a stale view.
        assert_eq!(async0.transport.view_staleness.max(), 0, "seed {seed}");
        assert_eq!(
            async0.transport.view_staleness.total(),
            bsp.transport.view_staleness.total(),
            "seed {seed}"
        );
    }
}

/// Bounded staleness at `K` never serves a view staler than `K` epochs: the
/// observed-staleness histogram (one observation per tenant-epoch, recorded
/// when the tenant enters the epoch) never exceeds the bound, and neither
/// does the staleness of any view that produced a committed reuse.
#[test]
fn bounded_staleness_never_exceeds_its_bound() {
    for k in [0usize, 1, 3] {
        let scenario = transport_scenario(13);
        let transport = pool_per_tenant(&scenario, k);
        let report = FleetEngine::new(
            scenario,
            FleetConfig {
                transport,
                ..Default::default()
            },
        )
        .run();
        assert!(
            report.transport.view_staleness.max() <= k,
            "k = {k}: view staleness {} exceeded the bound",
            report.transport.view_staleness.max()
        );
        assert!(
            report.transport.reuse_staleness.max() <= k,
            "k = {k}: reuse staleness {} exceeded the bound",
            report.transport.reuse_staleness.max()
        );
        // One observation per tenant-epoch actually stepped: every tenant
        // covers its whole window (tenant 1 departs at hour 20).
        let expected: u64 = report.tenants.iter().map(|t| t.active_epochs as u64).sum();
        assert_eq!(report.transport.view_staleness.total(), expected, "k = {k}");
        // The run still produces a working fleet.
        assert!(report.total_fleet_reuses() > 0, "k = {k}");
        assert_eq!(report.hit_rate_curve.len(), report.epochs, "k = {k}");
    }
}

/// The BSP backend's fleet output is pinned to the pre-transport engine
/// (PR 3): these constants were produced by the epoch-barrier loop before
/// the commit path moved into `dejavu_fleet::transport`, so any behavioural
/// drift in the refactored barrier — stepping, commit order, sweep timing,
/// bookkeeping — fails this test. The integer bookkeeping (tunings, reuses,
/// hits, windows, repository stats) is pinned everywhere; the exact f64 bit
/// patterns flow through platform-`libm` transcendentals (`sin`/`ln`/`exp`
/// in the trace, RNG and service models) and so are pinned only on the
/// platform that recorded them — elsewhere a last-ulp `libm` difference
/// would fail them without any behavioural change.
#[test]
fn bsp_fleet_output_is_byte_identical_to_the_pre_transport_engine() {
    let report = FleetEngine::new(
        ScenarioBuilder::new("golden", 13, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .sine_sweep(2)
            .stagger_arrivals(
                4,
                SimDuration::from_hours(6.0),
                SimDuration::from_hours(4.0),
            )
            .depart_at(1, SimDuration::from_hours(20.0))
            .build(),
        FleetConfig::default(),
    )
    .run();
    assert_eq!(report.epochs, 58);
    struct GoldenTenant {
        cost_bits: u64,
        slo_bits: u64,
        tunings: usize,
        reuses: u64,
        hits: u64,
        misses: u64,
        cross: u64,
        first_reuse: Option<usize>,
        joined: usize,
        active: usize,
    }
    #[rustfmt::skip]
    let golden = [
        GoldenTenant { cost_bits: 0x4054bd32beb109c9, slo_bits: 0x3fa8e38e38e38e39, tunings: 16, reuses: 8, hits: 31, misses: 16, cross: 8, first_reuse: Some(3), joined: 0, active: 48 },
        GoldenTenant { cost_bits: 0x405fb7d5acb6f467, slo_bits: 0x3fbc71c71c71c71c, tunings: 13, reuses: 7, hits: 7, misses: 13, cross: 7, first_reuse: Some(6), joined: 0, active: 20 },
        GoldenTenant { cost_bits: 0x4054a54adda39cca, slo_bits: 0x3fa71c71c71c71c7, tunings: 20, reuses: 4, hits: 27, misses: 20, cross: 4, first_reuse: Some(3), joined: 0, active: 48 },
        GoldenTenant { cost_bits: 0x40587597530eca87, slo_bits: 0x3fb471c71c71c71c, tunings: 14, reuses: 10, hits: 34, misses: 14, cross: 10, first_reuse: Some(8), joined: 0, active: 48 },
        GoldenTenant { cost_bits: 0x405a8119b6ba23f6, slo_bits: 0x3fa0000000000000, tunings: 23, reuses: 1, hits: 7, misses: 23, cross: 1, first_reuse: Some(14), joined: 6, active: 48 },
        GoldenTenant { cost_bits: 0x405cbf0cf87d9c56, slo_bits: 0x3fb0e38e38e38e39, tunings: 28, reuses: 2, hits: 16, misses: 22, cross: 2, first_reuse: Some(10), joined: 10, active: 48 },
    ];
    // The bit-exact pins: recorded on x86_64 Linux (the CI platform).
    let pin_bits = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    for (t, g) in report.tenants.iter().zip(&golden) {
        if pin_bits {
            assert_eq!(
                t.dejavu.total_cost.to_bits(),
                g.cost_bits,
                "{} cost",
                t.name
            );
            assert_eq!(
                t.dejavu.slo_violation_fraction.to_bits(),
                g.slo_bits,
                "{} slo",
                t.name
            );
        }
        assert_eq!(t.stats.tunings, g.tunings, "{} tunings", t.name);
        assert_eq!(t.stats.fleet_reuses, g.reuses, "{} reuses", t.name);
        assert_eq!(t.stats.repository.hits, g.hits, "{} hits", t.name);
        assert_eq!(t.stats.repository.misses, g.misses, "{} misses", t.name);
        assert_eq!(t.cross_tenant_hits, g.cross, "{} cross", t.name);
        assert_eq!(t.first_fleet_reuse_epoch, g.first_reuse, "{} first", t.name);
        assert_eq!(t.joined_epoch, g.joined, "{} joined", t.name);
        assert_eq!(t.active_epochs, g.active, "{} active", t.name);
    }
    if pin_bits {
        let curve_xor = report
            .hit_rate_curve
            .iter()
            .fold(0u64, |acc, v| acc ^ v.to_bits().rotate_left(17));
        assert_eq!(curve_xor, 0x6e803bd257300001, "hit-rate curve drifted");
    }
    let repo = report.shared_repo.as_ref().expect("shared snapshot");
    assert_eq!((repo.entries, repo.anchors), (55, 55));
    assert_eq!(repo.stats.hits, 32);
    assert_eq!(repo.stats.misses, 108);
    assert_eq!(repo.stats.insertions, 132);
    assert_eq!(repo.stats.cross_tenant_hits, 32);
}

/// The memoized peek path serves bit-identical answers — entries *and*
/// resolution witnesses — to the uncached path, across anchor accretion:
/// a memo recorded against `n` anchors is revalidated against only the
/// anchors created since, which must never change the outcome.
#[test]
fn memoized_peek_resolution_matches_uncached_peeks() {
    cases(12, |rng, case| {
        let tolerance = rng.uniform(0.05, 0.4);
        let ttl = if rng.uniform01() < 0.5 {
            Some(SimDuration::from_hours(rng.uniform(12.0, 72.0)))
        } else {
            None
        };
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ttl,
            match_tolerance: tolerance,
        });
        let namespace = case;
        let dims = 2 + rng.uniform_usize(10);
        let mut memo = ResolveMemo::default();
        // A small recurring pool plays the role of class medoids: the same
        // signatures are peeked over and over while anchors accrete.
        let mut pool: Vec<Vec<f64>> = Vec::new();
        for step in 0..300 {
            let sig: Vec<f64> = if pool.is_empty() || rng.uniform_usize(3) == 0 {
                let fresh: Vec<f64> = (0..dims).map(|_| rng.uniform(0.1, 1e4)).collect();
                pool.push(fresh.clone());
                fresh
            } else {
                pool[rng.uniform_usize(pool.len())].clone()
            };
            let bucket = rng.uniform_usize(3) as u32;
            let tenant = rng.uniform_usize(4);
            let now = SimTime::from_hours(rng.uniform(0.0, 96.0));
            let exclude = if rng.uniform01() < 0.5 {
                Some(tenant)
            } else {
                None
            };
            let cached =
                repo.peek_resolved_cached(namespace, &sig, bucket, now, exclude, &mut memo);
            let plain = repo.peek_resolved(namespace, &sig, bucket, now, exclude);
            assert_eq!(
                cached, plain,
                "case {case} step {step}: memoized peek diverged"
            );
            // Keep anchors accreting underneath the memo.
            if rng.uniform_usize(2) == 0 {
                let publish: Vec<f64> = if rng.uniform01() < 0.5 {
                    sig.iter()
                        .map(|&v| v * (1.0 + rng.uniform(-2.0 * tolerance, 2.0 * tolerance)))
                        .collect()
                } else {
                    (0..dims).map(|_| rng.uniform(0.1, 1e4)).collect()
                };
                repo.insert(
                    tenant,
                    namespace,
                    &publish,
                    bucket,
                    ResourceAllocation::large(1 + rng.uniform_usize(9) as u32),
                    now,
                );
            }
        }
        assert!(!memo.is_empty(), "case {case}: the memo never filled");
    });
}

/// Compacted snapshots drop exactly the never-hit entries, keep every anchor
/// (resolution is untouched), and the loaded repository equals what a
/// straight save of the compacted state would produce.
#[test]
fn compacted_snapshots_drop_only_never_hit_entries() {
    cases(16, |rng, case| {
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ..Default::default()
        });
        let n = 5 + rng.uniform_usize(30);
        let mut inserted: Vec<(u64, Vec<f64>, bool)> = Vec::new();
        for i in 0..n {
            let ns = rng.uniform_usize(4) as u64;
            // Exponentially spaced signatures: consecutive magnitudes differ
            // by 50%, far beyond the match tolerance, so every insert is its
            // own anchor × entry.
            let sig = vec![1000.0 * 1.5f64.powi(i as i32), 55.0 + ns as f64];
            repo.insert(
                0,
                ns,
                &sig,
                0,
                ResourceAllocation::large(1 + (i % 9) as u32),
                SimTime::ZERO,
            );
            let hit = rng.uniform01() < 0.5;
            if hit {
                assert!(repo.lookup(1, ns, &sig, 0, SimTime::ZERO).is_some());
            }
            inserted.push((ns, sig, hit));
        }
        let hit_count = inserted.iter().filter(|(_, _, hit)| *hit).count();
        let compacted = repo.save_snapshot_compact();
        let loaded = SharedSignatureRepository::load_snapshot(&compacted)
            .unwrap_or_else(|e| panic!("case {case}: compacted snapshot failed to load: {e}"));
        assert_eq!(loaded.len(), hit_count, "case {case}: wrong entries kept");
        assert_eq!(
            loaded.anchor_count(),
            repo.anchor_count(),
            "case {case}: compaction must keep anchors"
        );
        assert_eq!(loaded.stats(), repo.stats(), "case {case}: stats drifted");
        for (ns, sig, hit) in &inserted {
            assert_eq!(
                loaded.resolve_anchor(*ns, sig),
                repo.resolve_anchor(*ns, sig),
                "case {case}: resolution drifted"
            );
            assert_eq!(
                loaded.peek(*ns, sig, 0, SimTime::ZERO, None).is_some(),
                *hit,
                "case {case}: entry survival mismatched its hit state"
            );
        }
        // A loaded compacted repository re-saves to the same bytes: every
        // surviving entry has hits, so compaction is idempotent.
        assert_eq!(loaded.save_snapshot(), compacted, "case {case}");
        assert_eq!(loaded.save_snapshot_compact(), compacted, "case {case}");
    });
}

/// The explicit `(t, v)` series the uniform-grid [`TimeSeries`] replaced, as
/// the reference its reductions are compared to bit for bit.
struct PointSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl PointSeries {
    fn integral_until(&self, end: SimTime) -> f64 {
        let mut total = 0.0;
        for i in 0..self.times.len() {
            let t0 = self.times[i];
            let t1 = match self.times.get(i + 1) {
                Some(&next) => next,
                None => end.as_secs().max(t0),
            };
            total += self.values[i] * (t1 - t0);
        }
        total
    }

    fn hourly_means(&self, hours: usize) -> Vec<f64> {
        let mut sums = vec![0.0; hours];
        let mut counts = vec![0usize; hours];
        for (&t, &v) in self.times.iter().zip(&self.values) {
            let h = (t / 3600.0) as usize;
            if h < hours {
                sums[h] += v;
                counts[h] += 1;
            }
        }
        let mut last = 0.0;
        (0..hours)
            .map(|h| {
                if counts[h] > 0 {
                    last = sums[h] / counts[h] as f64;
                }
                last
            })
            .collect()
    }

    fn value_at(&self, time: SimTime) -> Option<f64> {
        let idx = self.times.partition_point(|&x| x <= time.as_secs());
        idx.checked_sub(1).map(|i| self.values[i])
    }
}

/// A grid series is the explicit-timestamp series whose timestamps are
/// `step * i`: the same points, and every reduction the same bits — at the
/// fleet's ticks, at a step longer than an hour (so `hourly_means` has hours
/// to forward-fill) and at arbitrary ones.
#[test]
fn grid_series_matches_the_explicit_timestamp_series_bit_for_bit() {
    let bits = |v: f64| v.to_bits();
    cases(64, |rng, case| {
        let step = match case % 6 {
            0 => 30.0,
            1 => 120.0,
            2 => 600.0,
            3 => 5400.0,
            4 => 3.0 * 3600.0 + rng.uniform(0.0, 3600.0),
            _ => rng.uniform(0.5, 2000.0),
        };
        let n = rng.uniform_usize(400);
        let mut grid = TimeSeries::with_capacity("prop", SimDuration::from_secs(step), n);
        let mut points = PointSeries {
            times: Vec::new(),
            values: Vec::new(),
        };
        for i in 0..n {
            let v = rng.uniform(-50.0, 150.0);
            grid.push(v);
            points.times.push(step * i as f64);
            points.values.push(v);
        }
        let label = format!("case {case}: step {step}, {n} points");
        assert_eq!(grid.len(), n, "{label}");
        assert_eq!(grid.is_empty(), n == 0, "{label}");
        assert_eq!(grid.values(), points.values, "{label}");
        let times: Vec<u64> = grid.iter().map(|(t, _)| bits(t.as_secs())).collect();
        let expected: Vec<u64> = points.times.iter().map(|&t| bits(t)).collect();
        assert_eq!(times, expected, "{label}: iter() times");
        let iter_values: Vec<f64> = grid.iter().map(|(_, v)| v).collect();
        assert_eq!(iter_values, points.values, "{label}: iter() values");

        let span = step * n as f64;
        // Ends inside the series, on its last point, just past it, far out.
        for end in [
            0.0,
            span * 0.5,
            step * n.saturating_sub(1) as f64,
            span,
            span * 3.0 + 1.0,
        ] {
            let end = SimTime::from_secs(end);
            assert_eq!(
                bits(grid.integral_until(end)),
                bits(points.integral_until(end)),
                "{label}: integral until {end:?}"
            );
        }
        // Fewer hours than the series spans, exactly enough, and more.
        let spanned = (span / 3600.0).ceil() as usize;
        for hours in [0, spanned / 2, spanned, spanned + 5] {
            let got: Vec<u64> = grid.hourly_means(hours).into_iter().map(bits).collect();
            let want: Vec<u64> = points.hourly_means(hours).into_iter().map(bits).collect();
            assert_eq!(got, want, "{label}: {hours} hourly means");
        }
        // An empty series has no first point to be at or after; otherwise
        // time zero is the first point. Then: on a point, between two, on
        // the last, past the end.
        let mut probes = vec![0.0, span, span * 2.0 + 7.0];
        for _ in 0..8 {
            let i = rng.uniform_usize(n.max(1));
            probes.push(step * i as f64);
            probes.push(step * i as f64 + rng.uniform(0.0, step));
        }
        for t in probes {
            let t = SimTime::from_secs(t);
            assert_eq!(
                grid.value_at(t).map(bits),
                points.value_at(t).map(bits),
                "{label}: value at {t:?}"
            );
        }
        if n == 0 {
            assert_eq!(grid.value_at(SimTime::from_secs(1.0)), None, "{label}");
        }

        let values = &points.values;
        let mean = if n == 0 {
            0.0
        } else {
            values.iter().sum::<f64>() / n as f64
        };
        assert_eq!(bits(grid.mean()), bits(mean), "{label}: mean");
        assert_eq!(
            grid.max(),
            values.iter().copied().reduce(f64::max),
            "{label}"
        );
        assert_eq!(
            grid.min(),
            values.iter().copied().reduce(f64::min),
            "{label}"
        );
        let threshold = rng.uniform(-50.0, 150.0);
        let share = |keep: &dyn Fn(f64) -> bool| {
            if n == 0 {
                0.0
            } else {
                values.iter().filter(|&&v| keep(v)).count() as f64 / n as f64
            }
        };
        assert_eq!(
            grid.fraction_above(threshold),
            share(&|v| v > threshold),
            "{label}"
        );
        assert_eq!(
            grid.fraction_below(threshold),
            share(&|v| v < threshold),
            "{label}"
        );
    });
}

/// Load traces never produce levels outside the valid range, under any
/// rescaling.
#[test]
fn trace_rescaling_stays_in_range() {
    cases(64, |rng, case| {
        let n = 1 + rng.uniform_usize(47);
        let levels: Vec<f64> = (0..n).map(|_| rng.uniform01()).collect();
        let new_peak = rng.uniform(0.05, 1.5);
        let trace = LoadTrace::hourly("prop", levels).unwrap();
        let rescaled = trace.rescaled_to_peak(new_peak);
        assert!(
            rescaled.levels().iter().all(|&l| (0.0..=1.5).contains(&l)),
            "case {case}: level out of range"
        );
        assert!((rescaled.peak() - new_peak).abs() < 1e-9, "case {case}");
    });
}

/// The chunked (lane-parallel) distance kernels against the textbook serial
/// loops they replaced. Below one block — the paper's 8-metric signature
/// included — a kernel never leaves its scalar tail and must be the serial
/// loop bit for bit, bounded or not; that is why no exact-order fallback
/// exists. From one block up (30 is the full metric catalogue, the rest
/// straddle block and lane boundaries) they agree to 1e-9 relative error,
/// and the early-exit variants agree on *whether* a bound is exceeded
/// whenever the margin is clear.
#[test]
fn chunked_kernels_agree_with_exact_order_within_1e9_relative() {
    use dejavu::ml::kernels::{self, BLOCK, LANES};

    fn serial_sq(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        let mut sum = 0.0;
        for (x, y) in a.iter().zip(b) {
            let d = x - y;
            sum += d * d;
            if sum > bound {
                return None;
            }
        }
        Some(sum)
    }
    fn serial_norm(a: &[f64], b: &[f64], floor: f64, bound: f64) -> Option<f64> {
        let mut sum = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            let d = (x - y) / x.abs().max(y.abs()).max(floor);
            sum += d * d;
            if sum > bound {
                return None;
            }
        }
        Some(sum)
    }
    let rel_close = |a: f64, b: f64| {
        let scale = a.abs().max(b.abs()).max(1e-300);
        (a - b).abs() / scale <= 1e-9
    };
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let floor = 1e-9;

    let mut lens: Vec<usize> = (0..BLOCK).collect();
    lens.extend([BLOCK, BLOCK + 1, 30, 3 * BLOCK, 3 * BLOCK + LANES - 1]);
    cases(24, |rng, case| {
        for &len in &lens {
            let mut a = Vec::with_capacity(len);
            let mut b = Vec::with_capacity(len);
            for _ in 0..len {
                let mag = 10f64.powi(rng.uniform_usize(7) as i32 - 3);
                let x = rng.uniform(-1.0, 1.0) * mag;
                a.push(x);
                b.push(x + rng.uniform(-0.5, 0.5) * mag);
            }
            let label = format!("case {case} len {len}");
            let sq = serial_sq(&a, &b, f64::INFINITY).expect("infinite bound");
            let nm = serial_norm(&a, &b, floor, f64::INFINITY).expect("infinite bound");

            if len < BLOCK {
                assert_eq!(
                    kernels::squared_distance(&a, &b).to_bits(),
                    sq.to_bits(),
                    "{label}"
                );
                for (sq_bound, nm_bound) in [
                    (f64::INFINITY, f64::INFINITY),
                    (sq, nm),
                    (sq * 0.5, nm * 0.5),
                ] {
                    assert_eq!(
                        bits(kernels::squared_distance_within(&a, &b, sq_bound)),
                        bits(serial_sq(&a, &b, sq_bound)),
                        "{label} bound {sq_bound}"
                    );
                    assert_eq!(
                        bits(kernels::normalized_sq_sum(&a, &b, floor, nm_bound)),
                        bits(serial_norm(&a, &b, floor, nm_bound)),
                        "{label} bound {nm_bound}"
                    );
                }
                continue;
            }

            let chunked = kernels::squared_distance(&a, &b);
            assert!(rel_close(sq, chunked), "{label}: {sq} vs {chunked}");
            // Early-exit variants: with a bound clearly above the true sum
            // both must return it; clearly below, both must bail.
            let above = kernels::squared_distance_within(&a, &b, sq * 2.0 + 1.0);
            assert!(
                above.is_some_and(|v| rel_close(sq, v)),
                "{label}: {above:?}"
            );
            let above = kernels::normalized_sq_sum(&a, &b, floor, nm * 2.0 + 1.0);
            assert!(
                above.is_some_and(|v| rel_close(nm, v)),
                "{label}: {above:?}"
            );
            if sq > 2.0 {
                let bound = sq * 0.5 - 1.0;
                assert_eq!(serial_sq(&a, &b, bound), None, "{label}");
                assert_eq!(
                    kernels::squared_distance_within(&a, &b, bound),
                    None,
                    "{label}"
                );
            }
            if nm > 2.0 {
                let bound = nm * 0.5 - 1.0;
                assert_eq!(serial_norm(&a, &b, floor, bound), None, "{label}");
                assert_eq!(
                    kernels::normalized_sq_sum(&a, &b, floor, bound),
                    None,
                    "{label}"
                );
            }
        }
    });
}
