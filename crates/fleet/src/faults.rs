//! Deterministic fault injection for both commit transports.
//!
//! A [`FaultSpec`] is the operator-facing configuration (`--faults
//! "SEED[:kind,...]"`): a seed plus the subset of fault kinds to inject. It
//! compiles into a [`FaultPlan`] — a **pure, stateless schedule**: every
//! query (`does tenant t crash, and when?`, `is shard s lost after epoch
//! e?`) is a hash of the seed, the kind and the query coordinates, never of
//! wall-clock time, thread identity or arrival order. Two runs with the same
//! seed therefore inject byte-identical fault schedules, on the barrier and
//! on the pool alike, which is what lets `tests/fault_schedule.rs` assert
//! that every faulted run converges bit-identical to the fault-free barrier.
//!
//! The fault kinds are the two losses of state a fleet can recover from:
//!
//! * **crash** ([`FaultKind::TenantCrash`]) — a tenant loses its entire
//!   in-memory state mid-epoch, after stepping but before its publishes
//!   reach the commit. Recovery respawns the tenant and replays its epochs
//!   against checkpoint materializations (see `transport/recovery.rs`).
//! * **shard-loss** ([`FaultKind::ShardLoss`]) — a whole repository shard is
//!   wiped at a commit boundary and warm re-seeded from the delta chain.

use std::fmt;

/// One category of injected fault. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A tenant loses its in-memory state mid-epoch.
    TenantCrash,
    /// A repository shard is wiped and warm re-seeded from its delta chain.
    ShardLoss,
}

impl FaultKind {
    /// Every kind, in canonical (spec-rendering) order.
    pub const ALL: [FaultKind; 2] = [FaultKind::TenantCrash, FaultKind::ShardLoss];

    /// The spec label (`--faults "SEED:crash,shard-loss"`).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TenantCrash => "crash",
            FaultKind::ShardLoss => "shard-loss",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        FaultKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Domain-separation salt: queries about different kinds never correlate.
    fn salt(self) -> u64 {
        match self {
            FaultKind::TenantCrash => 0x43_52_41_53_48, // "CRASH"
            FaultKind::ShardLoss => 0x53_4c_4f_53_53,   // "SLOSS"
        }
    }

    fn index(self) -> usize {
        self as usize
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
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// The operator-facing fault configuration: a seed plus the kinds to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    enabled: [bool; 2],
}

impl FaultSpec {
    /// A spec injecting every fault kind.
    pub fn all(seed: u64) -> Self {
        FaultSpec {
            seed,
            enabled: [true; 2],
        }
    }

    /// A spec injecting only `kinds` (empty slices enable nothing).
    pub fn with_kinds(seed: u64, kinds: &[FaultKind]) -> Self {
        let mut enabled = [false; 2];
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
        let mut enabled = [false; 2];
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

    /// Canonical textual form (`"7:crash"`); parses back to `self`.
    pub fn render(self) -> String {
        if self.enabled == [true; 2] {
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

/// One in `CRASH_RATE` tenants crashes (once, at a seeded epoch).
const CRASH_RATE: u64 = 3;
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
        assert_eq!(FaultSpec::parse("42:crash,shard-loss"), Ok(spec));
    }

    #[test]
    fn hex_seeds_and_kind_subsets_parse() {
        let spec = FaultSpec::parse("0xBEEF: shard-loss ,").expect("subset spec");
        assert_eq!(spec.seed, 0xBEEF);
        assert!(spec.enables(FaultKind::ShardLoss));
        assert!(!spec.enables(FaultKind::TenantCrash));
        assert_eq!(spec.render(), "48879:shard-loss");
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
        // The report-channel kinds and the committer restart were removed:
        // their labels are unknown like any other.
        for kind in ["flood", "drop", "dup", "reorder", "restart"] {
            let err = FaultSpec::parse(&format!("7:crash,{kind}")).expect_err(kind);
            assert_eq!(
                err,
                FaultSpecError::UnknownKind {
                    kind: kind.to_string()
                }
            );
            // Every quoted name in the message: the offender, then exactly
            // the valid kinds.
            let message = err.to_string();
            let quoted: Vec<&str> = message.split('\'').skip(1).step_by(2).collect();
            assert_eq!(quoted, [kind, "crash", "shard-loss"], "{message}");
        }
    }

    #[test]
    fn empty_kind_lists_are_rejected() {
        for bad in ["7:", "7: ,, "] {
            assert_eq!(FaultSpec::parse(bad), Err(FaultSpecError::NoKinds), "{bad}");
        }
        assert!(FaultSpecError::NoKinds.to_string().contains("'shard-loss'"));
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = FaultSpec::all(7).plan();
        let b = FaultSpec::all(7).plan();
        let c = FaultSpec::all(8).plan();
        let mut differs = false;
        for tenant in 0..32 {
            for epoch in 0..32 {
                assert_eq!(a.shard_loss(tenant, epoch), b.shard_loss(tenant, epoch));
                differs |= a.shard_loss(tenant, epoch) != c.shard_loss(tenant, epoch);
            }
            assert_eq!(a.crash_epoch(tenant, 0, 48), b.crash_epoch(tenant, 0, 48));
        }
        assert!(differs, "seeds 7 and 8 produced identical schedules");
    }

    #[test]
    fn a_seed_keeps_its_schedule() {
        // The schedule hashes the seed and each kind's salt, never the
        // kind's position in `FaultKind::ALL`: these are seed 42's crashes
        // and shard losses from before the kind list shrank to two.
        let plan = FaultSpec::all(42).plan();
        let crashes: Vec<(usize, usize)> = (0..24)
            .filter_map(|t| plan.crash_epoch(t, 0, 24).map(|e| (t, e)))
            .collect();
        assert_eq!(
            format!("{crashes:?}"),
            "[(0, 1), (1, 9), (3, 17), (5, 18), (6, 5), (9, 17), (10, 9), (11, 18), (14, 12), \
             (15, 18), (17, 1), (22, 8)]"
        );
        let losses: Vec<(usize, usize)> = (0..16)
            .flat_map(|s| (0..24).map(move |e| (s, e)))
            .filter(|&(s, e)| plan.shard_loss(s, e))
            .collect();
        assert_eq!(
            format!("{losses:?}"),
            "[(0, 12), (1, 3), (2, 2), (2, 16), (3, 6), (3, 13), (4, 18), (5, 4), (6, 8), (7, 1), \
             (7, 11), (8, 10), (9, 9), (10, 12), (13, 8), (14, 21), (15, 14)]"
        );
    }

    #[test]
    fn every_kind_fires_somewhere_at_its_rate() {
        let plan = FaultSpec::all(3).plan();
        assert!((0..64usize).any(|s| (0..64usize).any(|e| plan.shard_loss(s, e))));
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
        let losses = FaultSpec::with_kinds(3, &[FaultKind::ShardLoss]).plan();
        let crashes = FaultSpec::with_kinds(3, &[FaultKind::TenantCrash]).plan();
        for t in 0..64 {
            assert_eq!(losses.crash_epoch(t, 0, 48), None);
            for e in 0..64 {
                assert!(!crashes.shard_loss(t, e));
            }
        }
        assert!((0..4096).any(|i| losses.shard_loss(i % 64, i / 64)));
        assert!((0..64).any(|t| crashes.crash_epoch(t, 0, 48).is_some()));
    }
}
