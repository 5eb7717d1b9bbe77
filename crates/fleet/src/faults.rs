//! Deterministic fault injection for the asynchronous transports.
//!
//! A [`FaultSpec`] is the operator-facing configuration (`--faults
//! "SEED[:kind,...]"`): a seed plus the subset of fault kinds to inject. It
//! compiles into a [`FaultPlan`] — a **pure, stateless schedule**: every
//! query (`does tenant t crash, and when?`, `is tenant t's epoch-e report
//! dropped?`) is a hash of the seed and the query coordinates, never of
//! wall-clock time, thread identity or arrival order. Two runs with the same
//! seed therefore inject byte-identical fault schedules, which is what lets
//! `tests/fault_schedule.rs` assert that a faulted `K = 0` run converges
//! bit-identical to the fault-free BSP golden.
//!
//! The fault kinds:
//!
//! * **crash** ([`FaultKind::TenantCrash`]) — a tenant loses its entire
//!   in-memory state mid-epoch, after stepping but before its report is
//!   sent. Recovery respawns the tenant and replays its epochs against
//!   checkpoint materializations (see `transport.rs`).
//! * **restart** ([`FaultKind::CommitterRestart`]) — the committer loses its
//!   volatile assembly state (pending, un-committed batches) and re-assembles
//!   it from retained report copies.
//! * **drop** ([`FaultKind::DropReport`]) — an epoch report is lost in
//!   flight and retransmitted after a deterministic delay.
//! * **dup** ([`FaultKind::DupReport`]) — an epoch report is delivered a
//!   second time later; idempotent commit (per-tenant epoch sequence
//!   numbers) makes the duplicate a no-op.
//! * **reorder** ([`FaultKind::ReorderReport`]) — an epoch report is delayed
//!   past later arrivals; commit order is by `(epoch, tenant)`, never by
//!   arrival, so reordering is safe by construction.
//! * **shard-loss** ([`FaultKind::ShardLoss`]) — a whole repository shard is
//!   wiped at a commit boundary and warm re-seeded from the delta chain.
//!
//! Injection lives entirely inside the async transport's report path; the
//! BSP barrier has no report path to fault, so a spec aimed at it is a
//! configuration error ([`FaultSpecError::BackendUnsupported`]).

use std::fmt;

/// One category of injected fault. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A tenant loses its in-memory state mid-epoch.
    TenantCrash,
    /// The committer loses its volatile (un-committed) assembly state.
    CommitterRestart,
    /// An epoch report is lost in flight and retransmitted later.
    DropReport,
    /// An epoch report is delivered twice.
    DupReport,
    /// An epoch report is delayed past later arrivals.
    ReorderReport,
    /// A repository shard is wiped and warm re-seeded from its delta chain.
    ShardLoss,
}

impl FaultKind {
    /// Every kind, in canonical (spec-rendering) order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::TenantCrash,
        FaultKind::CommitterRestart,
        FaultKind::DropReport,
        FaultKind::DupReport,
        FaultKind::ReorderReport,
        FaultKind::ShardLoss,
    ];

    /// The spec label (`--faults "SEED:crash,drop"`).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TenantCrash => "crash",
            FaultKind::CommitterRestart => "restart",
            FaultKind::DropReport => "drop",
            FaultKind::DupReport => "dup",
            FaultKind::ReorderReport => "reorder",
            FaultKind::ShardLoss => "shard-loss",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        FaultKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Domain-separation salt: queries about different kinds never correlate.
    fn salt(self) -> u64 {
        match self {
            FaultKind::TenantCrash => 0x43_52_41_53_48,   // "CRASH"
            FaultKind::CommitterRestart => 0x52_45_53_54, // "REST"
            FaultKind::DropReport => 0x44_52_4f_50,       // "DROP"
            FaultKind::DupReport => 0x44_55_50,           // "DUP"
            FaultKind::ReorderReport => 0x52_45_4f_52_44, // "REORD"
            FaultKind::ShardLoss => 0x53_4c_4f_53_53,     // "SLOSS"
        }
    }

    fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind listed in ALL")
    }
}

/// The comma-separated list of valid labels, for error messages.
fn valid_labels() -> String {
    FaultKind::ALL
        .iter()
        .map(|k| format!("'{}'", k.label()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Why a fault spec was rejected — the typed front door mirroring the
/// `--transport` error path: every rejection names the offending token and
/// lists the valid fault kinds instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The spec string was empty.
    Empty,
    /// The seed was not an unsigned 64-bit integer (decimal or `0x` hex).
    BadSeed {
        /// The token that failed to parse as a seed.
        token: String,
    },
    /// A kind label was not one of the valid fault kinds.
    UnknownKind {
        /// The unrecognized label.
        kind: String,
    },
    /// The spec named a kind list but listed nothing (`"7:"`).
    NoKinds,
    /// The configured transport backend cannot inject faults.
    BackendUnsupported {
        /// The backend label (`"bsp"`).
        backend: String,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::Empty => write!(
                f,
                "empty fault spec: expected \"SEED\" or \"SEED:kind,...\" with kinds from {}",
                valid_labels()
            ),
            FaultSpecError::BadSeed { token } => write!(
                f,
                "bad fault seed '{token}': expected an unsigned 64-bit integer \
                 (decimal or 0x-hex)"
            ),
            FaultSpecError::UnknownKind { kind } => write!(
                f,
                "unknown fault kind '{kind}': valid kinds are {}",
                valid_labels()
            ),
            FaultSpecError::NoKinds => write!(
                f,
                "fault spec names a kind list but lists no kinds: valid kinds are {}",
                valid_labels()
            ),
            FaultSpecError::BackendUnsupported { backend } => write!(
                f,
                "transport '{backend}' cannot inject faults: fault injection lives in the \
                 asynchronous report path; use 'steal'"
            ),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// The operator-facing fault configuration: a seed plus the kinds to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    enabled: [bool; 6],
}

impl FaultSpec {
    /// A spec injecting every fault kind.
    pub fn all(seed: u64) -> Self {
        FaultSpec {
            seed,
            enabled: [true; 6],
        }
    }

    /// A spec injecting only `kinds` (empty slices enable nothing).
    pub fn with_kinds(seed: u64, kinds: &[FaultKind]) -> Self {
        let mut enabled = [false; 6];
        for kind in kinds {
            enabled[kind.index()] = true;
        }
        FaultSpec { seed, enabled }
    }

    /// Parses `"SEED"` (all kinds) or `"SEED:kind,kind,..."` (a subset).
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(FaultSpecError::Empty);
        }
        let (seed_token, kinds) = match spec.split_once(':') {
            Some((seed, kinds)) => (seed, Some(kinds)),
            None => (spec, None),
        };
        let seed_token = seed_token.trim();
        let seed = match seed_token
            .strip_prefix("0x")
            .or(seed_token.strip_prefix("0X"))
        {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => seed_token.parse::<u64>(),
        }
        .map_err(|_| FaultSpecError::BadSeed {
            token: seed_token.to_string(),
        })?;
        let Some(kinds) = kinds else {
            return Ok(FaultSpec::all(seed));
        };
        let mut enabled = [false; 6];
        let mut any = false;
        for token in kinds.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let kind = FaultKind::from_label(token).ok_or_else(|| FaultSpecError::UnknownKind {
                kind: token.to_string(),
            })?;
            enabled[kind.index()] = true;
            any = true;
        }
        if !any {
            return Err(FaultSpecError::NoKinds);
        }
        Ok(FaultSpec { seed, enabled })
    }

    /// Whether `kind` is injected under this spec.
    pub fn enables(self, kind: FaultKind) -> bool {
        self.enabled[kind.index()]
    }

    /// The enabled kinds, in canonical order.
    pub fn kinds(self) -> Vec<FaultKind> {
        FaultKind::ALL
            .into_iter()
            .filter(|k| self.enables(*k))
            .collect()
    }

    /// Canonical textual form (`"7:crash,drop"`); parses back to `self`.
    pub fn render(self) -> String {
        if self.enabled == [true; 6] {
            return self.seed.to_string();
        }
        let kinds = self
            .kinds()
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
            .join(",");
        format!("{}:{kinds}", self.seed)
    }

    /// Compiles the spec into its deterministic schedule.
    pub fn plan(self) -> FaultPlan {
        FaultPlan { spec: self }
    }
}

/// `splitmix64` finalizer: the avalanche permutation behind every schedule
/// query. Statelessness is the point — a query's answer depends only on the
/// seed and the query coordinates.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The compiled, stateless fault schedule. Injection *rates* are fixed
/// design constants (per-query probabilities, below); which concrete
/// `(tenant, epoch)` / `(shard, epoch)` coordinates fire is a pure function
/// of the seed.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    spec: FaultSpec,
}

/// One in `DROP_RATE` reports is dropped (then retransmitted).
const DROP_RATE: u64 = 8;
/// One in `DUP_RATE` reports is delivered twice.
const DUP_RATE: u64 = 8;
/// One in `REORDER_RATE` reports is delayed past later arrivals.
const REORDER_RATE: u64 = 8;
/// One in `CRASH_RATE` tenants crashes (once, at a seeded epoch).
const CRASH_RATE: u64 = 3;
/// One in `RESTART_RATE` committed epochs triggers a committer restart.
const RESTART_RATE: u64 = 8;
/// One in `SHARD_LOSS_RATE` `(shard, epoch)` commits wipes the shard.
const SHARD_LOSS_RATE: u64 = 16;

impl FaultPlan {
    /// The spec this plan was compiled from.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    fn roll(&self, kind: FaultKind, a: u64, b: u64) -> u64 {
        // Two chained finalizer rounds decorrelate (a, b) from (a', b') pairs
        // that collide additively; the kind salt separates the domains.
        mix(mix(self.spec.seed ^ kind.salt().rotate_left(17)) ^ mix(a).wrapping_add(mix(b ^ 0xB)))
    }

    fn fires(&self, kind: FaultKind, a: u64, b: u64, rate: u64) -> bool {
        self.spec.enables(kind) && self.roll(kind, a, b).is_multiple_of(rate)
    }

    /// The epoch (within `[start, end)`) at which `tenant` crashes, if it
    /// does. At most one crash per tenant per run: recovery replays the
    /// tenant's whole history, so a second crash would only re-exercise the
    /// same path at more cost.
    pub fn crash_epoch(&self, tenant: usize, start: usize, end: usize) -> Option<usize> {
        if end <= start || !self.fires(FaultKind::TenantCrash, tenant as u64, 0, CRASH_RATE) {
            return None;
        }
        let span = (end - start) as u64;
        Some(start + (self.roll(FaultKind::TenantCrash, tenant as u64, 1) % span) as usize)
    }

    /// How many later deliveries `tenant`'s epoch-`epoch` report is withheld
    /// for before being retransmitted, if it is dropped.
    pub fn drop_delay(&self, tenant: usize, epoch: usize) -> Option<usize> {
        self.fires(
            FaultKind::DropReport,
            tenant as u64,
            epoch as u64,
            DROP_RATE,
        )
        .then(|| 1 + (self.roll(FaultKind::DropReport, epoch as u64, tenant as u64) % 2) as usize)
    }

    /// Whether `tenant`'s epoch-`epoch` report is delivered a second time.
    pub fn duplicate(&self, tenant: usize, epoch: usize) -> bool {
        self.fires(FaultKind::DupReport, tenant as u64, epoch as u64, DUP_RATE)
    }

    /// How many later deliveries `tenant`'s epoch-`epoch` report is delayed
    /// past, if it is reordered.
    pub fn reorder_delay(&self, tenant: usize, epoch: usize) -> Option<usize> {
        self.fires(
            FaultKind::ReorderReport,
            tenant as u64,
            epoch as u64,
            REORDER_RATE,
        )
        .then(|| {
            1 + (self.roll(FaultKind::ReorderReport, epoch as u64, tenant as u64) % 3) as usize
        })
    }

    /// Whether the committer restarts after folding global epoch `epoch`.
    pub fn committer_restart(&self, epoch: usize) -> bool {
        self.fires(FaultKind::CommitterRestart, epoch as u64, 0, RESTART_RATE)
    }

    /// Whether `shard` is wiped (and warm re-seeded) right after committing
    /// epoch `epoch`.
    pub fn shard_loss(&self, shard: usize, epoch: usize) -> bool {
        self.fires(
            FaultKind::ShardLoss,
            shard as u64,
            epoch as u64,
            SHARD_LOSS_RATE,
        )
    }
}

/// The transports' injection handle: a [`FaultPlan`] when fault injection is
/// configured, or an always-benign no-op (the production path) otherwise.
/// Kept separate from the plan so every injection site reads as one cheap
/// `Option` check — the same discipline as the obs recorder's null check.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultInjector {
    plan: Option<FaultPlan>,
}

impl FaultInjector {
    /// The no-op injector (no faults configured).
    pub fn disabled() -> Self {
        FaultInjector { plan: None }
    }

    /// An injector driven by `spec`, or the no-op one for `None`.
    pub fn from_spec(spec: Option<FaultSpec>) -> Self {
        FaultInjector {
            plan: spec.map(FaultSpec::plan),
        }
    }

    /// Whether any fault kind is being injected.
    pub fn enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// The spec this injector was built from, if any.
    pub fn spec(&self) -> Option<FaultSpec> {
        self.plan.map(|p| p.spec())
    }

    /// See [`FaultPlan::crash_epoch`].
    pub fn crash_epoch(&self, tenant: usize, start: usize, end: usize) -> Option<usize> {
        self.plan.and_then(|p| p.crash_epoch(tenant, start, end))
    }

    /// See [`FaultPlan::drop_delay`].
    pub fn drop_delay(&self, tenant: usize, epoch: usize) -> Option<usize> {
        self.plan.and_then(|p| p.drop_delay(tenant, epoch))
    }

    /// See [`FaultPlan::duplicate`].
    pub fn duplicate(&self, tenant: usize, epoch: usize) -> bool {
        self.plan.is_some_and(|p| p.duplicate(tenant, epoch))
    }

    /// See [`FaultPlan::reorder_delay`].
    pub fn reorder_delay(&self, tenant: usize, epoch: usize) -> Option<usize> {
        self.plan.and_then(|p| p.reorder_delay(tenant, epoch))
    }

    /// See [`FaultPlan::committer_restart`].
    pub fn committer_restart(&self, epoch: usize) -> bool {
        self.plan.is_some_and(|p| p.committer_restart(epoch))
    }

    /// See [`FaultPlan::shard_loss`].
    pub fn shard_loss(&self, shard: usize, epoch: usize) -> bool {
        self.plan.is_some_and(|p| p.shard_loss(shard, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_only_specs_enable_every_kind() {
        let spec = FaultSpec::parse("42").expect("seed-only spec");
        assert_eq!(spec.seed, 42);
        for kind in FaultKind::ALL {
            assert!(spec.enables(kind), "{}", kind.label());
        }
        assert_eq!(spec.render(), "42");
        assert_eq!(FaultSpec::parse(&spec.render()), Ok(spec));
    }

    #[test]
    fn hex_seeds_and_kind_subsets_parse() {
        let spec = FaultSpec::parse("0xBEEF:crash, drop ,shard-loss").expect("subset spec");
        assert_eq!(spec.seed, 0xBEEF);
        assert!(spec.enables(FaultKind::TenantCrash));
        assert!(spec.enables(FaultKind::DropReport));
        assert!(spec.enables(FaultKind::ShardLoss));
        assert!(!spec.enables(FaultKind::DupReport));
        assert!(!spec.enables(FaultKind::CommitterRestart));
        assert!(!spec.enables(FaultKind::ReorderReport));
        assert_eq!(spec.render(), "48879:crash,drop,shard-loss");
        assert_eq!(FaultSpec::parse(&spec.render()), Ok(spec));
    }

    #[test]
    fn empty_specs_are_rejected() {
        assert_eq!(FaultSpec::parse(""), Err(FaultSpecError::Empty));
        assert_eq!(FaultSpec::parse("   "), Err(FaultSpecError::Empty));
        let message = FaultSpecError::Empty.to_string();
        assert!(message.contains("'crash'"), "{message}");
    }

    #[test]
    fn bad_seeds_are_rejected() {
        for bad in ["x", "-3", "1.5", "0xZZ", ":crash"] {
            let err = FaultSpec::parse(bad).expect_err(bad);
            assert!(
                matches!(err, FaultSpecError::BadSeed { .. }),
                "{bad}: {err:?}"
            );
            assert!(err.to_string().contains("bad fault seed"), "{err}");
        }
    }

    #[test]
    fn unknown_kinds_are_rejected_with_the_valid_list() {
        let err = FaultSpec::parse("7:crash,flood").expect_err("unknown kind");
        assert_eq!(
            err,
            FaultSpecError::UnknownKind {
                kind: "flood".to_string()
            }
        );
        let message = err.to_string();
        assert!(message.contains("'flood'"), "{message}");
        for kind in FaultKind::ALL {
            assert!(
                message.contains(&format!("'{}'", kind.label())),
                "{message} should list '{}'",
                kind.label()
            );
        }
    }

    #[test]
    fn empty_kind_lists_are_rejected() {
        for bad in ["7:", "7: ,, "] {
            assert_eq!(FaultSpec::parse(bad), Err(FaultSpecError::NoKinds), "{bad}");
        }
        assert!(FaultSpecError::NoKinds.to_string().contains("'reorder'"));
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = FaultSpec::all(7).plan();
        let b = FaultSpec::all(7).plan();
        let c = FaultSpec::all(8).plan();
        let mut differs = false;
        for tenant in 0..32 {
            for epoch in 0..32 {
                assert_eq!(a.drop_delay(tenant, epoch), b.drop_delay(tenant, epoch));
                assert_eq!(a.duplicate(tenant, epoch), b.duplicate(tenant, epoch));
                assert_eq!(
                    a.reorder_delay(tenant, epoch),
                    b.reorder_delay(tenant, epoch)
                );
                assert_eq!(a.shard_loss(tenant, epoch), b.shard_loss(tenant, epoch));
                differs |= a.drop_delay(tenant, epoch) != c.drop_delay(tenant, epoch)
                    || a.duplicate(tenant, epoch) != c.duplicate(tenant, epoch);
            }
            assert_eq!(a.crash_epoch(tenant, 0, 48), b.crash_epoch(tenant, 0, 48));
        }
        assert!(differs, "seeds 7 and 8 produced identical schedules");
    }

    #[test]
    fn every_kind_fires_somewhere_at_its_rate() {
        let plan = FaultSpec::all(3).plan();
        let coords = || (0..64usize).flat_map(|a| (0..64usize).map(move |e| (a, e)));
        assert!(coords().any(|(t, e)| plan.drop_delay(t, e).is_some()));
        assert!(coords().any(|(t, e)| plan.duplicate(t, e)));
        assert!(coords().any(|(t, e)| plan.reorder_delay(t, e).is_some()));
        assert!(coords().any(|(s, e)| plan.shard_loss(s, e)));
        assert!((0..64).any(|e| plan.committer_restart(e)));
        assert!((0..64).any(|t| plan.crash_epoch(t, 0, 48).is_some()));
    }

    #[test]
    fn crash_epochs_stay_inside_the_tenancy_window() {
        for seed in 0..16 {
            let plan = FaultSpec::all(seed).plan();
            for tenant in 0..64 {
                if let Some(epoch) = plan.crash_epoch(tenant, 5, 17) {
                    assert!((5..17).contains(&epoch), "seed {seed} tenant {tenant}");
                }
                assert_eq!(plan.crash_epoch(tenant, 9, 9), None, "empty window");
            }
        }
    }

    #[test]
    fn disabled_kinds_never_fire() {
        let plan = FaultSpec::with_kinds(3, &[FaultKind::DupReport]).plan();
        for t in 0..64 {
            for e in 0..64 {
                assert_eq!(plan.drop_delay(t, e), None);
                assert_eq!(plan.reorder_delay(t, e), None);
                assert!(!plan.shard_loss(t, e));
            }
            assert_eq!(plan.crash_epoch(t, 0, 48), None);
            assert!(!plan.committer_restart(t));
        }
        assert!((0..4096).any(|i| plan.duplicate(i % 64, i / 64)));
    }

    #[test]
    fn the_disabled_injector_is_always_benign() {
        let injector = FaultInjector::disabled();
        assert!(!injector.enabled());
        assert_eq!(injector.crash_epoch(0, 0, 100), None);
        assert_eq!(injector.drop_delay(0, 0), None);
        assert!(!injector.duplicate(0, 0));
        assert_eq!(injector.reorder_delay(0, 0), None);
        assert!(!injector.committer_restart(0));
        assert!(!injector.shard_loss(0, 0));
        let armed = FaultInjector::from_spec(Some(FaultSpec::all(3)));
        assert!(armed.enabled());
    }
}
