//! Seeded input generators. Everything here is a pure function of its
//! arguments: the same seed gives the same scenario and the same request
//! streams, and the programs under test see only what is generated here.

use dejavu::cloud::ResourceAllocation;
use dejavu::fleet::{standard_fleet, PendingOp, RepoSnapshot, Scenario};
use dejavu::simcore::SimTime;

/// SplitMix64: the harness's own generator, so request streams do not change
/// when the simulator's random-number code does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a stream of words: the digest the tests pin generators with
/// and the run compares fleet reports by.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        vs.iter().for_each(|&v| self.f64(v));
    }
}

/// The fleet scenario of a workload: the program's own standard mixed fleet,
/// as the issue fixes it; the seed is the only input.
pub fn scenario(tenants: usize, days: usize, seed: u64) -> Scenario {
    standard_fleet(tenants, days, seed)
}

/// Digest of what a scenario feeds the simulator.
pub fn scenario_hash(scenario: &Scenario) -> u64 {
    let mut h = Fnv::default();
    h.f64(scenario.tick.as_secs());
    h.f64(scenario.epoch.as_secs());
    for t in &scenario.tenants {
        h.u64(t.id as u64);
        h.u64(t.seed);
        h.u64(t.namespace());
        h.f64(t.start.as_secs());
        h.f64(t.trace.step().as_secs());
        h.f64s(t.trace.levels());
    }
    h.0
}

/// One wire request of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Lookup {
        tenant: usize,
        namespace: u64,
        signature: Vec<f64>,
        bucket: u32,
        now: SimTime,
    },
    Publish {
        tenant: usize,
        namespace: u64,
        signature: Vec<f64>,
        bucket: u32,
        allocation: ResourceAllocation,
        tuned_at: SimTime,
    },
    Batch {
        ops: Vec<PendingOp>,
    },
    EvictShard {
        shard: usize,
        now: SimTime,
    },
}

impl Op {
    /// Bytes of caller data in a mutation: signatures, allocations, ids and
    /// times, before any framing. Lookups and sweeps carry none to store.
    pub fn user_bytes(&self) -> u64 {
        let publish = |sig: &[f64]| 8 * sig.len() as u64 + 8 + 8 + 4 + 8 + 8;
        match self {
            Op::Lookup { .. } | Op::EvictShard { .. } => 0,
            Op::Publish { signature, .. } => publish(signature),
            Op::Batch { ops } => ops
                .iter()
                .map(|op| match op {
                    PendingOp::Publish { signature, .. } => publish(signature),
                    PendingOp::RecordHit { signature, .. } => {
                        8 * signature.len() as u64 + 8 + 8 + 4
                    }
                    PendingOp::RecordMiss { .. } => 8,
                })
                .sum(),
        }
    }
}

/// What the stream generators know about the seeded repository: every
/// namespace's anchors and entries, and the settings lookups depend on.
#[derive(Debug, Clone)]
pub struct Catalog {
    namespaces: Vec<CatalogNamespace>,
    pub shards: usize,
    pub tolerance: f64,
    pub clock_secs: f64,
}

#[derive(Debug, Clone)]
struct CatalogNamespace {
    id: u64,
    anchors: Vec<Vec<f64>>,
    /// `(anchor index, interference bucket, owner)` per entry.
    entries: Vec<(usize, u32, usize)>,
}

impl Catalog {
    /// Reads the catalog out of the seeding fleet's snapshot. Namespaces
    /// without entries cannot be looked up and are left out.
    pub fn of(snapshot: &RepoSnapshot) -> Catalog {
        let namespaces = snapshot
            .namespaces
            .iter()
            .map(|ns| {
                let anchors: Vec<Vec<f64>> = ns.anchors.iter().map(|a| a.values.clone()).collect();
                let entries = ns
                    .entries
                    .iter()
                    .filter_map(|e| {
                        let index = ns.anchors.iter().position(|a| a.id == e.anchor)?;
                        Some((index, e.bucket, e.owner))
                    })
                    .collect();
                CatalogNamespace {
                    id: ns.id,
                    anchors,
                    entries,
                }
            })
            .filter(|ns: &CatalogNamespace| !ns.entries.is_empty())
            .collect();
        Catalog {
            namespaces,
            shards: snapshot.shards,
            tolerance: snapshot.match_tolerance,
            clock_secs: snapshot.clock_secs,
        }
    }

    pub fn namespace_count(&self) -> usize {
        self.namespaces.len()
    }

    pub fn entry_count(&self) -> usize {
        self.namespaces.iter().map(|ns| ns.entries.len()).sum()
    }
}

/// Which serve workload a stream is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Lookups only: 90 % hits, 10 % misses.
    Read,
    /// 70 % lookups, 20 % publishes, 10 % batches of [`BATCH_OPS`], and one
    /// single-shard sweep per [`EVICT_EVERY`] requests.
    DurableWrite,
}

pub const BATCH_OPS: usize = 16;
pub const EVICT_EVERY: usize = 500;

struct StreamGen<'a> {
    rng: SplitMix64,
    /// The namespaces this connection owns, with cumulative entry counts so
    /// namespace popularity is proportional to entries.
    mine: Vec<(&'a CatalogNamespace, usize)>,
    total_entries: usize,
    catalog: &'a Catalog,
    tick: f64,
}

impl<'a> StreamGen<'a> {
    fn pick(&mut self) -> (&'a CatalogNamespace, (usize, u32, usize)) {
        let target = self.rng.below(self.total_entries);
        let slot = self
            .mine
            .partition_point(|&(_, cumulative)| cumulative <= target);
        let ns = self.mine[slot].0;
        let entry = ns.entries[self.rng.below(ns.entries.len())];
        (ns, entry)
    }

    /// The anchor's signature moved by at most a quarter of the match
    /// tolerance in every dimension: still resolves to an anchor.
    fn near(&mut self, anchor: &[f64]) -> Vec<f64> {
        let reach = self.catalog.tolerance / 4.0;
        anchor
            .iter()
            .map(|v| v * (1.0 + (2.0 * self.rng.unit() - 1.0) * reach))
            .collect()
    }

    /// A signature no anchor lies near: neighbouring dimensions pulled in
    /// opposite directions by far more than the tolerance.
    fn far(&mut self, anchor: &[f64]) -> Vec<f64> {
        let swing = 1.5 + self.rng.unit();
        anchor
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let base = if *v == 0.0 { 1.0 } else { *v };
                if i % 2 == 0 {
                    base * (1.0 + swing)
                } else {
                    base / (1.0 + swing)
                }
            })
            .collect()
    }

    /// Stream times run on from the seeded repository's clock.
    fn time(&mut self) -> SimTime {
        self.tick += 1.0;
        SimTime::from_secs(self.catalog.clock_secs + self.tick)
    }

    fn lookup(&mut self, hit: bool) -> Op {
        let (ns, (anchor, bucket, owner)) = self.pick();
        let signature = if hit {
            self.near(&ns.anchors[anchor])
        } else {
            self.far(&ns.anchors[anchor])
        };
        Op::Lookup {
            // Half the reads come from the owner, half from a peer.
            tenant: owner + self.rng.below(2),
            namespace: ns.id,
            signature,
            bucket,
            now: SimTime::from_secs(self.catalog.clock_secs),
        }
    }

    fn publish_parts(&mut self) -> (usize, u64, Vec<f64>, u32, ResourceAllocation, SimTime) {
        let (ns, (anchor, bucket, owner)) = self.pick();
        // Half re-confirm a known class, half bring a new one.
        let signature = if self.rng.below(2) == 0 {
            self.near(&ns.anchors[anchor])
        } else {
            self.far(&ns.anchors[anchor])
        };
        let allocation = ResourceAllocation::large(1 + self.rng.below(9) as u32);
        (owner, ns.id, signature, bucket, allocation, self.time())
    }

    fn publish(&mut self) -> Op {
        let (tenant, namespace, signature, bucket, allocation, tuned_at) = self.publish_parts();
        Op::Publish {
            tenant,
            namespace,
            signature,
            bucket,
            allocation,
            tuned_at,
        }
    }

    fn batch(&mut self) -> Op {
        let ops = (0..BATCH_OPS)
            .map(|i| {
                if i % 2 == 0 {
                    let (tenant, namespace, signature, interference_bucket, allocation, tuned_at) =
                        self.publish_parts();
                    PendingOp::Publish {
                        tenant,
                        namespace,
                        signature,
                        interference_bucket,
                        allocation,
                        tuned_at,
                    }
                } else {
                    let (ns, (anchor, bucket, owner)) = self.pick();
                    PendingOp::RecordHit {
                        tenant: owner + 1,
                        namespace: ns.id,
                        signature: self.near(&ns.anchors[anchor]),
                        interference_bucket: bucket,
                        resolved: None,
                    }
                }
            })
            .collect();
        Op::Batch { ops }
    }
}

/// Connection `conn` of `conns`' request stream: `n` requests of `mix` over
/// the namespaces that connection owns (every `conns`th one), so replies
/// never depend on how connections interleave.
pub fn stream(
    catalog: &Catalog,
    mix: Mix,
    seed: u64,
    n: usize,
    conn: usize,
    conns: usize,
) -> Vec<Op> {
    let mut cumulative = 0;
    let mine: Vec<_> = catalog
        .namespaces
        .iter()
        .enumerate()
        .filter(|(i, _)| i % conns == conn)
        .map(|(_, ns)| {
            cumulative += ns.entries.len();
            (ns, cumulative)
        })
        .collect();
    assert!(
        cumulative > 0,
        "connection {conn} of {conns} owns no entries"
    );
    let mut gen = StreamGen {
        rng: SplitMix64::new(seed ^ (conn as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
        mine,
        total_entries: cumulative,
        catalog,
        tick: 0.0,
    };
    (0..n)
        .map(|i| match mix {
            Mix::Read => {
                let hit = gen.rng.below(10) != 0;
                gen.lookup(hit)
            }
            Mix::DurableWrite if i % EVICT_EVERY == EVICT_EVERY - 1 => Op::EvictShard {
                shard: gen.rng.below(catalog.shards),
                now: gen.time(),
            },
            Mix::DurableWrite => match gen.rng.below(10) {
                0..=6 => gen.lookup(true),
                7..=8 => gen.publish(),
                _ => gen.batch(),
            },
        })
        .collect()
}

/// Digest of a request stream.
pub fn stream_hash(ops: &[Op]) -> u64 {
    fn publish(
        h: &mut Fnv,
        tenant: usize,
        namespace: u64,
        signature: &[f64],
        bucket: u32,
        allocation: ResourceAllocation,
        tuned_at: SimTime,
    ) {
        h.u64(11);
        h.u64(tenant as u64);
        h.u64(namespace);
        h.f64s(signature);
        h.u64(u64::from(bucket));
        h.u64(u64::from(allocation.count()));
        h.f64(tuned_at.as_secs());
    }
    let mut h = Fnv::default();
    for op in ops {
        match op {
            Op::Lookup {
                tenant,
                namespace,
                signature,
                bucket,
                now,
            } => {
                h.u64(1);
                h.u64(*tenant as u64);
                h.u64(*namespace);
                h.f64s(signature);
                h.u64(u64::from(*bucket));
                h.f64(now.as_secs());
            }
            Op::Publish {
                tenant,
                namespace,
                signature,
                bucket,
                allocation,
                tuned_at,
            } => publish(
                &mut h,
                *tenant,
                *namespace,
                signature,
                *bucket,
                *allocation,
                *tuned_at,
            ),
            Op::Batch { ops } => {
                h.u64(3);
                for op in ops {
                    match op {
                        PendingOp::Publish {
                            tenant,
                            namespace,
                            signature,
                            interference_bucket,
                            allocation,
                            tuned_at,
                        } => publish(
                            &mut h,
                            *tenant,
                            *namespace,
                            signature,
                            *interference_bucket,
                            *allocation,
                            *tuned_at,
                        ),
                        PendingOp::RecordHit {
                            tenant,
                            namespace,
                            signature,
                            interference_bucket,
                            ..
                        } => {
                            h.u64(12);
                            h.u64(*tenant as u64);
                            h.u64(*namespace);
                            h.f64s(signature);
                            h.u64(u64::from(*interference_bucket));
                        }
                        PendingOp::RecordMiss { namespace } => {
                            h.u64(13);
                            h.u64(*namespace);
                        }
                    }
                }
            }
            Op::EvictShard { shard, now } => {
                h.u64(4);
                h.u64(*shard as u64);
                h.f64(now.as_secs());
            }
        }
    }
    h.0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dejavu::fleet::{SharedRepoConfig, SharedSignatureRepository};

    /// A small hand-built repository snapshot: two namespaces, a few anchors.
    pub(crate) fn toy_snapshot() -> RepoSnapshot {
        let repo = SharedSignatureRepository::new(SharedRepoConfig::default());
        for (ns, base) in [(7u64, 10.0), (9u64, 400.0)] {
            for a in 0..5 {
                let sig: Vec<f64> = (0..12)
                    .map(|d| base * (1.0 + a as f64) + d as f64)
                    .collect();
                repo.insert(
                    a,
                    ns,
                    &sig,
                    (a % 2) as u32,
                    ResourceAllocation::large(1 + a as u32),
                    SimTime::from_secs(60.0 * a as f64),
                );
            }
        }
        repo.to_snapshot()
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        // Pinned for seed 11: a change here changes every workload's inputs
        // and so needs the baseline measured again.
        assert_eq!(
            scenario_hash(&scenario(40, 1, 11)),
            scenario_hash(&scenario(40, 1, 11))
        );
        assert_eq!(
            scenario_hash(&scenario(40, 1, 11)),
            0x0198_5d04_f6c9_5634,
            "{:#x}",
            scenario_hash(&scenario(40, 1, 11))
        );
        assert_ne!(
            scenario_hash(&scenario(40, 1, 11)),
            scenario_hash(&scenario(40, 1, 12))
        );

        let catalog = Catalog::of(&toy_snapshot());
        assert_eq!((catalog.namespace_count(), catalog.entry_count()), (2, 10));
        for mix in [Mix::Read, Mix::DurableWrite] {
            let a = stream(&catalog, mix, 11, 1200, 0, 1);
            assert_eq!(a, stream(&catalog, mix, 11, 1200, 0, 1));
            assert_ne!(
                stream_hash(&a),
                stream_hash(&stream(&catalog, mix, 12, 1200, 0, 1))
            );
        }
        let read = stream_hash(&stream(&catalog, Mix::Read, 11, 1200, 0, 1));
        let durable = stream_hash(&stream(&catalog, Mix::DurableWrite, 11, 1200, 0, 1));
        assert_eq!(
            (read, durable),
            (0x60d6_d521_b16f_546d, 0xa5b3_a04b_1355_4a8f),
            "{read:#x} {durable:#x}"
        );
    }

    #[test]
    fn streams_have_the_stated_mix_and_connections_own_disjoint_namespaces() {
        let catalog = Catalog::of(&toy_snapshot());
        let read = stream(&catalog, Mix::Read, 5, 4000, 0, 1);
        assert!(read.iter().all(|op| matches!(op, Op::Lookup { .. })));
        let durable = stream(&catalog, Mix::DurableWrite, 5, 4000, 0, 1);
        let count = |f: fn(&Op) -> bool| durable.iter().filter(|op| f(op)).count();
        assert_eq!(
            count(|op| matches!(op, Op::EvictShard { .. })),
            4000 / EVICT_EVERY
        );
        let lookups = count(|op| matches!(op, Op::Lookup { .. })) as f64 / 4000.0;
        let publishes = count(|op| matches!(op, Op::Publish { .. })) as f64 / 4000.0;
        let batches = count(|op| matches!(op, Op::Batch { .. })) as f64 / 4000.0;
        assert!((lookups - 0.7).abs() < 0.03, "{lookups}");
        assert!((publishes - 0.2).abs() < 0.03, "{publishes}");
        assert!((batches - 0.1).abs() < 0.03, "{batches}");
        assert!(durable.iter().any(|op| op.user_bytes() > 0));
        assert!(read.iter().all(|op| op.user_bytes() == 0));

        let namespaces = |conn| -> std::collections::BTreeSet<u64> {
            stream(&catalog, Mix::Read, 5, 500, conn, 2)
                .iter()
                .map(|op| match op {
                    Op::Lookup { namespace, .. } => *namespace,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert!(namespaces(0).is_disjoint(&namespaces(1)));
    }

    #[test]
    fn read_streams_hit_nine_times_in_ten() {
        let snapshot = toy_snapshot();
        let repo = SharedSignatureRepository::from_snapshot(&snapshot).expect("loads");
        let ops = stream(&Catalog::of(&snapshot), Mix::Read, 3, 5000, 0, 1);
        let hits = ops
            .iter()
            .filter(|op| match op {
                Op::Lookup {
                    tenant,
                    namespace,
                    signature,
                    bucket,
                    now,
                } => repo
                    .lookup(*tenant, *namespace, signature, *bucket, *now)
                    .is_some(),
                _ => false,
            })
            .count();
        let ratio = hits as f64 / ops.len() as f64;
        assert!((ratio - 0.9).abs() < 0.02, "hit ratio {ratio}");
    }
}
