//! Multi-tenant fleet simulation with a shared, sharded signature repository.
//!
//! The DejaVu paper (ASPLOS 2012) amortizes tuning cost by caching allocation
//! decisions per workload class — for one service. This crate scales that idea
//! to a fleet: hundreds of tenants, each owning a
//! `dejavu_core::DejaVuController`, all reading and writing one
//! [`SharedSignatureRepository`], so one tenant's tuning pays off for every
//! recurring workload in the fleet.
//!
//! * [`arena`] — bump-arena slabs for signature payloads: contiguous
//!   dim-major storage with `(offset, len)` handles and capacity-retaining
//!   reset, backing the resolve memo and the anchor-set misfit store.
//! * [`engine`] — the single-tenant simulation engine (moved here from
//!   `dejavu-experiments`), now steppable one observation tick at a time.
//! * [`shared_repo`] — the lock-striped, sharded store. Entries are keyed by
//!   *anchor* (a canonical class signature matched by normalized distance),
//!   not by tenant-local class id, with per-shard statistics, TTL eviction
//!   and cross-tenant hit accounting.
//! * [`tenant_view`] — the `AllocationStore` adapter a tenant's controller
//!   uses: immediate local overlay, transport-buffered publishes.
//! * [`transport`] — the pluggable commit-transport layer: the
//!   [`CommitTransport`] trait with the lock-step [`BspBarrier`] backend
//!   (bit-deterministic for any worker count) and the asynchronous
//!   [`WorkStealing`] pool (a fixed number of workers over a shared deque,
//!   per-shard commit frontiers, bit-matching the barrier at any thread
//!   count).
//! * [`scenario`] — fleet descriptions: diurnal Cassandra fleets, spike
//!   storms, sine sweeps, interference-heavy co-location, SPECweb
//!   contingents — plus each tenant's barrier-aligned [`EpochWindow`].
//! * [`fleet_engine`] — prepares tenants (admission windows, clock offsets,
//!   outboxes), hands them to the configured transport, and finalizes the
//!   driven runs (in parallel on multi-worker configs) into the report.
//! * [`report`] — fleet-wide aggregation (SLO violations, cost vs. baselines,
//!   cold-start tunings avoided, hit rates, shard balance).
//!
//! # Example
//!
//! ```
//! use dejavu_fleet::{FleetConfig, FleetEngine, ScenarioBuilder};
//! use dejavu_simcore::SimDuration;
//!
//! let scenario = ScenarioBuilder::new("demo", 7, 2)
//!     .tick(SimDuration::from_secs(900.0))
//!     .diurnal_fleet(3)
//!     .build();
//! let report = FleetEngine::new(scenario, FleetConfig::default()).run();
//! assert_eq!(report.tenants.len(), 3);
//! ```

pub mod arena;
pub mod durable;
pub mod engine;
pub mod faults;
pub mod fleet_engine;
pub mod repo_client;
pub mod report;
pub mod scenario;
pub mod shared_repo;
pub mod snapshot;
pub mod tenant_view;
pub mod transport;

pub use arena::{SigRef, SignatureArena};
pub use durable::{
    write_atomic, CrashHook, CrashSite, DurableCheckpointStore, DurableError, RecordReceipt,
    RecoveryReport, BASE_FILE, DURABLE_MANIFEST_VERSION, MANIFEST_FILE,
};
pub use engine::{RunConfig, RunResult, RunState, SimulationEngine};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultSpecError};
pub use fleet_engine::{FleetConfig, FleetEngine, SharingMode};
pub use repo_client::RepositoryClient;
pub use report::{FleetReport, SharedRepoSnapshot, TenantOutcome};
pub use scenario::{
    churn_fleet, standard_fleet, EpochWindow, Scenario, ScenarioBuilder, ServiceSpec, SpaceKind,
    TenantSpec,
};
pub use shared_repo::{
    namespace_for, shard_of_namespace, DeltaCursor, PendingOp, ResolveMemo, ShardStats,
    SharedEntry, SharedRepoConfig, SharedSignatureRepository, TenantId,
};
pub use snapshot::{
    CheckpointStore, DeltaSnapshot, RepoSnapshot, SnapshotError, DELTA_SNAPSHOT_VERSION,
    SNAPSHOT_VERSION,
};
pub use tenant_view::TenantRepoView;
pub use transport::{
    BspBarrier, CommitTransport, FaultSummary, FleetContext, FleetHarness, Outbox,
    StalenessHistogram, TenantHandle, TransportConfig, TransportOutcome, TransportSummary,
    WorkStealing,
};
