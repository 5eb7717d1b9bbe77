//! Aggregated results of a fleet run.

use crate::engine::RunResult;
use crate::fleet_engine::SharingMode;
use crate::shared_repo::{ShardStats, TenantId};
use crate::transport::{FaultSummary, TransportSummary};
use dejavu_core::DejaVuStats;

/// Snapshot of the shared repository at the end of a run.
#[derive(Debug, Clone)]
pub struct SharedRepoSnapshot {
    /// Entries held at the end of the run (post-eviction).
    pub entries: usize,
    /// Distinct workload-class anchors.
    pub anchors: usize,
    /// Aggregate statistics.
    pub stats: ShardStats,
    /// Per-shard statistics (lock-stripe balance).
    pub shard_stats: Vec<ShardStats>,
}

/// Everything recorded for one tenant.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Fleet-wide tenant id.
    pub id: TenantId,
    /// Tenant label.
    pub name: String,
    /// The namespace the tenant shared entries under.
    pub namespace: u64,
    /// The tenant's DejaVu run.
    pub dejavu: RunResult,
    /// The tenant controller's statistics (tunings, hits, repository stats).
    pub stats: DejaVuStats,
    /// Lookups this tenant served from other tenants' tuning decisions.
    pub cross_tenant_hits: u64,
    /// Global epoch at whose barrier the tenant was admitted (0 = fleet
    /// start; elastic tenants join later).
    pub joined_epoch: usize,
    /// Epochs the tenant was actually simulated for (fewer than the fleet
    /// total for late joiners and early leavers).
    pub active_epochs: usize,
    /// Epochs after joining until the tenant's first `FleetReuse` decision
    /// (1-based), if it ever reused a fleet entry. This is the newcomer
    /// convergence metric: warm-started fleets reach it in fewer epochs.
    pub first_fleet_reuse_epoch: Option<usize>,
    /// Global epoch at which the tenant panicked and was retired by the
    /// transport (the rest of the fleet finished without it). `None` for a
    /// healthy tenant.
    pub failed_epoch: Option<usize>,
    /// The always-full-capacity baseline, when baselines were enabled.
    pub fixed_max: Option<RunResult>,
    /// The RightScale-style baseline, when baselines were enabled.
    pub rightscale: Option<RunResult>,
}

/// The aggregated result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Scenario label.
    pub scenario: String,
    /// Whether the repository was shared.
    pub sharing: SharingMode,
    /// Number of epochs simulated.
    pub epochs: usize,
    /// Whether the run started from a non-empty (snapshot-loaded) repository.
    pub warm_start: bool,
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// Shared-repository snapshot (None for isolated runs).
    pub shared_repo: Option<SharedRepoSnapshot>,
    /// Fleet-wide cumulative repository hit rate after each epoch barrier —
    /// the convergence curve warm starts bend upward.
    pub hit_rate_curve: Vec<f64>,
    /// Which commit transport drove the run.
    pub transport: TransportSummary,
    /// Fault-injection and recovery tallies, when the run injected faults or
    /// profiled checkpointing; `None` for ordinary runs.
    pub faults: Option<FaultSummary>,
}

impl FleetReport {
    /// Mean SLO-violation fraction across tenants.
    pub fn aggregate_slo_violation(&self) -> f64 {
        if self.tenants.is_empty() {
            return 0.0;
        }
        self.tenants
            .iter()
            .map(|t| t.dejavu.slo_violation_fraction)
            .sum::<f64>()
            / self.tenants.len() as f64
    }

    /// Total DejaVu deployment cost over the fleet (USD).
    pub fn total_cost(&self) -> f64 {
        self.tenants.iter().map(|t| t.dejavu.total_cost).sum()
    }

    /// Total cost had every tenant provisioned at full capacity, when the
    /// baselines were run.
    pub fn total_fixed_max_cost(&self) -> Option<f64> {
        self.tenants
            .iter()
            .map(|t| t.fixed_max.as_ref().map(|r| r.total_cost))
            .sum()
    }

    /// Total cost under the RightScale-style baseline, when run.
    pub fn total_rightscale_cost(&self) -> Option<f64> {
        self.tenants
            .iter()
            .map(|t| t.rightscale.as_ref().map(|r| r.total_cost))
            .sum()
    }

    /// Total tuning runs executed fleet-wide — the cold-start cost the shared
    /// repository exists to amortize.
    pub fn total_tunings(&self) -> usize {
        self.tenants.iter().map(|t| t.stats.tunings).sum()
    }

    /// Learning-phase tunings skipped thanks to another tenant's entry.
    pub fn total_fleet_reuses(&self) -> u64 {
        self.tenants.iter().map(|t| t.stats.fleet_reuses).sum()
    }

    /// Cross-tenant repository hits fleet-wide.
    pub fn total_cross_tenant_hits(&self) -> u64 {
        self.tenants.iter().map(|t| t.cross_tenant_hits).sum()
    }

    /// Fleet-wide repository hit rate: total hits over total lookups, across
    /// every tenant's repository view (learning-phase lookups included).
    pub fn fleet_hit_rate(&self) -> f64 {
        let hits: u64 = self.tenants.iter().map(|t| t.stats.repository.hits).sum();
        let misses: u64 = self.tenants.iter().map(|t| t.stats.repository.misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Mean epochs-after-join until the first `FleetReuse`, across tenants
    /// that ever reused a fleet entry (`None` when no tenant did). The
    /// headline newcomer-convergence number: a tenant joining a warm fleet
    /// reaches its first reuse in measurably fewer epochs than a cold start.
    pub fn mean_epochs_to_first_reuse(&self) -> Option<f64> {
        let epochs: Vec<f64> = self
            .tenants
            .iter()
            .filter_map(|t| t.first_fleet_reuse_epoch)
            .map(|e| e as f64)
            .collect();
        if epochs.is_empty() {
            None
        } else {
            Some(epochs.iter().sum::<f64>() / epochs.len() as f64)
        }
    }

    /// Tenants that reached at least one `FleetReuse`.
    pub fn tenants_with_fleet_reuse(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.first_fleet_reuse_epoch.is_some())
            .count()
    }

    /// Tenants that panicked mid-run and were retired by the transport.
    pub fn tenants_failed(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.failed_epoch.is_some())
            .count()
    }

    /// Mean reuse-phase adaptation time across tenants that adapted.
    pub fn mean_adaptation_secs(&self) -> f64 {
        let times: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.stats.mean_adaptation_secs())
            .filter(|&s| s > 0.0)
            .collect();
        if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        }
    }

    /// Renders a plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(&mut out, format!("fleet scenario '{}'", self.scenario));
        push(
            &mut out,
            format!(
                "  tenants: {}  sharing: {:?}  epochs: {}  start: {}",
                self.tenants.len(),
                self.sharing,
                self.epochs,
                if self.warm_start { "warm" } else { "cold" }
            ),
        );
        // The barrier transport is the byte-stable default; only non-BSP
        // runs announce their transport.
        if self.transport.name != "bsp" {
            push(
                &mut out,
                format!("  transport                : {}", self.transport.name),
            );
        }
        // The recovery section exists only on fault-injected (or
        // checkpoint-profiled) runs, so ordinary reports stay byte-stable.
        if let Some(faults) = &self.faults {
            push(
                &mut out,
                format!(
                    "  recovery                 : spec '{}', {} faults injected",
                    faults.spec, faults.injected
                ),
            );
            push(
                &mut out,
                format!(
                    "    crashes {} (replayed {} epochs)  drops {}  dups {}  reorders {}",
                    faults.tenants_crashed,
                    faults.replayed_epochs,
                    faults.reports_dropped,
                    faults.reports_duplicated,
                    faults.reports_reordered,
                ),
            );
            push(
                &mut out,
                format!(
                    "    committer restarts {}  shard losses {}  checkpoints {} ({} compactions, chain peak {})",
                    faults.committer_restarts,
                    faults.shard_losses,
                    faults.checkpoints,
                    faults.compactions,
                    faults.chain_peak,
                ),
            );
        }
        if self.tenants_failed() > 0 {
            push(
                &mut out,
                format!(
                    "  tenants failed           : {} (panicked and retired; survivors finished)",
                    self.tenants_failed()
                ),
            );
        }
        if let Some(mean) = self.mean_epochs_to_first_reuse() {
            push(
                &mut out,
                format!(
                    "  epochs to first reuse    : {:.1} (mean over {} tenants)",
                    mean,
                    self.tenants_with_fleet_reuse()
                ),
            );
        }
        push(
            &mut out,
            format!(
                "  aggregate SLO violation  : {:.2}%",
                self.aggregate_slo_violation() * 100.0
            ),
        );
        push(
            &mut out,
            format!("  total DejaVu cost        : ${:.2}", self.total_cost()),
        );
        if let Some(fixed) = self.total_fixed_max_cost() {
            push(
                &mut out,
                format!(
                    "  total FixedMax cost      : ${:.2} (savings {:.1}%)",
                    fixed,
                    (1.0 - self.total_cost() / fixed) * 100.0
                ),
            );
        }
        if let Some(rs) = self.total_rightscale_cost() {
            push(&mut out, format!("  total RightScale cost    : ${:.2}", rs));
        }
        push(
            &mut out,
            format!(
                "  fleet repository hit rate: {:.2}%",
                self.fleet_hit_rate() * 100.0
            ),
        );
        push(
            &mut out,
            format!(
                "  tuning runs (cold starts): {} ({} avoided via fleet reuse)",
                self.total_tunings(),
                self.total_fleet_reuses()
            ),
        );
        push(
            &mut out,
            format!(
                "  cross-tenant hits        : {}",
                self.total_cross_tenant_hits()
            ),
        );
        push(
            &mut out,
            format!(
                "  mean adaptation          : {:.1} s",
                self.mean_adaptation_secs()
            ),
        );
        if let Some(repo) = &self.shared_repo {
            push(
                &mut out,
                format!(
                    "  shared repo              : {} entries, {} anchors, {} shards",
                    repo.entries,
                    repo.anchors,
                    repo.shard_stats.len()
                ),
            );
            push(
                &mut out,
                format!(
                    "  shared repo activity     : {} inserts, {} evictions, {} cross-tenant hits",
                    repo.stats.insertions, repo.stats.evictions, repo.stats.cross_tenant_hits
                ),
            );
            let busiest = repo
                .shard_stats
                .iter()
                .map(|s| s.hits + s.misses + s.insertions)
                .max()
                .unwrap_or(0);
            push(&mut out, format!("  busiest shard ops        : {busiest}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report(sharing: SharingMode) -> FleetReport {
        FleetReport {
            scenario: "t".into(),
            sharing,
            epochs: 0,
            warm_start: false,
            tenants: Vec::new(),
            shared_repo: None,
            hit_rate_curve: Vec::new(),
            transport: TransportSummary::bsp(),
            faults: None,
        }
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let r = empty_report(SharingMode::Shared);
        assert_eq!(r.aggregate_slo_violation(), 0.0);
        assert_eq!(r.fleet_hit_rate(), 0.0);
        assert_eq!(r.mean_adaptation_secs(), 0.0);
        assert_eq!(r.total_cost(), 0.0);
        assert_eq!(r.total_fixed_max_cost(), Some(0.0));
        assert_eq!(r.mean_epochs_to_first_reuse(), None);
        assert_eq!(r.tenants_with_fleet_reuse(), 0);
        assert!(r.render().contains("tenants: 0"));
        assert!(r.render().contains("cold"));
    }

    #[test]
    fn only_non_bsp_reports_announce_their_transport() {
        let mut r = empty_report(SharingMode::Shared);
        assert!(!r.render().contains("transport"));
        r.transport.name = "steal(threads=4)".into();
        let text = r.render();
        assert!(text.contains("transport"));
        assert!(text.contains("steal(threads=4)"));
    }

    #[test]
    fn fault_runs_render_a_recovery_section() {
        let mut r = empty_report(SharingMode::Shared);
        assert!(!r.render().contains("recovery"));
        r.faults = Some(FaultSummary {
            spec: "7:crash,drop".into(),
            injected: 3,
            tenants_crashed: 1,
            reports_dropped: 2,
            replayed_epochs: 4,
            checkpoints: 9,
            ..FaultSummary::default()
        });
        let text = r.render();
        assert!(text.contains("recovery"));
        assert!(text.contains("7:crash,drop"));
        assert!(text.contains("3 faults injected"));
        assert!(text.contains("replayed 4 epochs"));
    }

    #[test]
    fn failed_tenants_are_counted_and_rendered() {
        use dejavu_simcore::{SimDuration, SimTime, TimeSeries};
        let zero_run = RunResult {
            name: "t0".into(),
            controller: "c".into(),
            load: TimeSeries::new("load", SimDuration::ZERO),
            instance_count: TimeSeries::new("instances", SimDuration::ZERO),
            capacity_units: TimeSeries::new("capacity", SimDuration::ZERO),
            latency_ms: TimeSeries::new("latency", SimDuration::ZERO),
            qos_percent: TimeSeries::new("qos", SimDuration::ZERO),
            slo_violation_fraction: 0.0,
            total_cost: 0.0,
            reuse_cost: 0.0,
            adaptations: Vec::new(),
            settle_times_secs: Vec::new(),
            end: SimTime::default(),
        };
        let mut r = empty_report(SharingMode::Shared);
        assert_eq!(r.tenants_failed(), 0);
        r.tenants.push(TenantOutcome {
            id: 0,
            name: "t0".into(),
            namespace: 0,
            dejavu: zero_run,
            stats: DejaVuStats::default(),
            cross_tenant_hits: 0,
            joined_epoch: 0,
            active_epochs: 2,
            first_fleet_reuse_epoch: None,
            failed_epoch: Some(2),
            fixed_max: None,
            rightscale: None,
        });
        assert_eq!(r.tenants_failed(), 1);
        assert!(r.render().contains("tenants failed           : 1"));
    }
}
