//! The simulated hosting platform: applies allocations with realistic delays,
//! reports effective capacity, and meters cost.

use crate::allocation::{AllocationSpace, ResourceAllocation};
use crate::cost::CostMeter;
use crate::error::CloudError;
use crate::interference::InterferenceSchedule;
use dejavu_simcore::{SimDuration, SimTime};

/// Platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Delay before pre-created instances become available after a scale-out /
    /// scale-up request (the paper pre-creates stopped VMs, so this is short).
    pub boot_delay: SimDuration,
    /// Additional warm-up during which newly added capacity is only half
    /// effective (cold caches, state rebalancing handled separately by the
    /// service models).
    pub warmup_delay: SimDuration,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            boot_delay: SimDuration::from_secs(30.0),
            warmup_delay: SimDuration::from_secs(60.0),
        }
    }
}

/// A pending reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingChange {
    target: ResourceAllocation,
    effective_at: SimTime,
}

/// The simulated virtualized platform a service is deployed on.
///
/// # Example
///
/// ```
/// use dejavu_cloud::{AllocationSpace, CloudPlatform, PlatformConfig, ResourceAllocation};
/// use dejavu_cloud::InterferenceSchedule;
/// use dejavu_simcore::{SimDuration, SimTime};
///
/// let space = AllocationSpace::scale_out(1, 10)?;
/// let mut platform = CloudPlatform::new(
///     PlatformConfig::default(),
///     space,
///     ResourceAllocation::large(2),
///     InterferenceSchedule::none(),
/// );
/// platform.request(SimTime::ZERO, ResourceAllocation::large(4), SimDuration::from_secs(10.0));
/// // Before the change takes effect the old allocation still serves.
/// assert_eq!(platform.allocation_at(SimTime::from_secs(5.0)).count(), 2);
/// assert_eq!(platform.allocation_at(SimTime::from_secs(120.0)).count(), 4);
/// # Ok::<(), dejavu_cloud::CloudError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CloudPlatform {
    config: PlatformConfig,
    space: AllocationSpace,
    interference: InterferenceSchedule,
    current: ResourceAllocation,
    current_since: SimTime,
    pending: Option<PendingChange>,
    cost: CostMeter,
    reconfigurations: usize,
}

impl CloudPlatform {
    /// Creates a platform with an initial allocation already running.
    pub fn new(
        config: PlatformConfig,
        space: AllocationSpace,
        initial: ResourceAllocation,
        interference: InterferenceSchedule,
    ) -> Self {
        let mut cost = CostMeter::new();
        cost.record(SimTime::ZERO, initial);
        CloudPlatform {
            config,
            space,
            interference,
            current: initial,
            current_since: SimTime::ZERO,
            pending: None,
            cost,
            reconfigurations: 0,
        }
    }

    /// The allocation search space this platform supports.
    pub fn space(&self) -> &AllocationSpace {
        &self.space
    }

    /// The cost meter (records every applied allocation).
    pub fn cost_meter(&self) -> &CostMeter {
        &self.cost
    }

    /// Number of reconfigurations applied so far.
    pub fn reconfigurations(&self) -> usize {
        self.reconfigurations
    }

    /// Requests that `target` be deployed. The reconfiguration takes effect
    /// after `decision_latency` plus the platform boot delay (when capacity is
    /// added or the instance type changes). Requests targeting the current
    /// allocation are ignored; a new request replaces any pending one.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidAllocation`] if `target` is not in the
    /// platform's allocation space.
    pub fn try_request(
        &mut self,
        now: SimTime,
        target: ResourceAllocation,
        decision_latency: SimDuration,
    ) -> Result<(), CloudError> {
        if self.space.index_of(target).is_none() {
            return Err(CloudError::InvalidAllocation {
                reason: format!("{target} is not in the allocation space"),
            });
        }
        self.apply_pending(now);
        if target == self.current && self.pending.is_none() {
            return Ok(());
        }
        let needs_boot = target.capacity_units() > self.current.capacity_units()
            || target.instance_type() != self.current.instance_type();
        let delay = if needs_boot {
            decision_latency + self.config.boot_delay
        } else {
            decision_latency
        };
        self.pending = Some(PendingChange {
            target,
            effective_at: now + delay,
        });
        Ok(())
    }

    /// Like [`try_request`](Self::try_request) but panics on an allocation
    /// outside the platform's space (a controller bug).
    pub fn request(
        &mut self,
        now: SimTime,
        target: ResourceAllocation,
        decision_latency: SimDuration,
    ) {
        self.try_request(now, target, decision_latency)
            .expect("controllers must only request allocations from the platform's space");
    }

    fn apply_pending(&mut self, now: SimTime) {
        if let Some(p) = self.pending {
            if now >= p.effective_at {
                if p.target != self.current {
                    self.current = p.target;
                    self.current_since = p.effective_at;
                    self.cost.record(p.effective_at, p.target);
                    self.reconfigurations += 1;
                }
                self.pending = None;
            }
        }
    }

    /// The allocation serving traffic at `time` (applies any due pending change).
    pub fn allocation_at(&mut self, time: SimTime) -> ResourceAllocation {
        self.apply_pending(time);
        self.current
    }

    /// When a pending reconfiguration (if any) will take effect.
    pub fn pending_effective_at(&self) -> Option<SimTime> {
        self.pending.map(|p| p.effective_at)
    }

    /// Effective capacity (in capacity units) available to the service at
    /// `time`: the deployed allocation, reduced while freshly added capacity is
    /// warming up, and reduced by interference.
    pub fn effective_capacity(&mut self, time: SimTime) -> f64 {
        self.apply_pending(time);
        let mut capacity = self.current.capacity_units();
        let warm_until = self.current_since + self.config.warmup_delay;
        if time < warm_until && self.reconfigurations > 0 {
            // Newly reconfigured: run at 75% effectiveness while warming up.
            capacity *= 0.75;
        }
        capacity * self.interference.level_at(time).capacity_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::InterferenceLevel;

    fn platform(initial: u32) -> CloudPlatform {
        CloudPlatform::new(
            PlatformConfig::default(),
            AllocationSpace::scale_out(1, 10).unwrap(),
            ResourceAllocation::large(initial),
            InterferenceSchedule::none(),
        )
    }

    #[test]
    fn scale_out_takes_boot_delay() {
        let mut p = platform(2);
        p.request(
            SimTime::ZERO,
            ResourceAllocation::large(6),
            SimDuration::from_secs(10.0),
        );
        assert_eq!(p.allocation_at(SimTime::from_secs(20.0)).count(), 2);
        assert_eq!(p.allocation_at(SimTime::from_secs(41.0)).count(), 6);
        assert_eq!(p.reconfigurations(), 1);
    }

    #[test]
    fn scale_down_skips_boot_delay() {
        let mut p = platform(8);
        p.request(
            SimTime::ZERO,
            ResourceAllocation::large(4),
            SimDuration::from_secs(10.0),
        );
        assert_eq!(p.allocation_at(SimTime::from_secs(11.0)).count(), 4);
    }

    #[test]
    fn requesting_current_allocation_is_a_noop() {
        let mut p = platform(5);
        p.request(
            SimTime::ZERO,
            ResourceAllocation::large(5),
            SimDuration::from_secs(10.0),
        );
        assert!(p.pending_effective_at().is_none());
        assert_eq!(p.reconfigurations(), 0);
        assert_eq!(p.cost_meter().num_changes(), 1);
    }

    #[test]
    fn invalid_allocation_is_rejected() {
        let mut p = platform(2);
        let err = p
            .try_request(
                SimTime::ZERO,
                ResourceAllocation::extra_large(3),
                SimDuration::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, CloudError::InvalidAllocation { .. }));
    }

    #[test]
    fn warmup_reduces_effective_capacity() {
        let mut p = platform(2);
        p.request(
            SimTime::ZERO,
            ResourceAllocation::large(8),
            SimDuration::ZERO,
        );
        // Boot delay 30 s, then warm-up 60 s at reduced effectiveness.
        let during_warmup = p.effective_capacity(SimTime::from_secs(40.0));
        assert!((during_warmup - 6.0).abs() < 1e-9, "75% of 8 units");
        let after = p.effective_capacity(SimTime::from_secs(120.0));
        assert!((after - 8.0).abs() < 1e-9);
    }

    #[test]
    fn interference_reduces_capacity() {
        let mut p = CloudPlatform::new(
            PlatformConfig::default(),
            AllocationSpace::scale_out(1, 10).unwrap(),
            ResourceAllocation::large(10),
            InterferenceSchedule::constant(InterferenceLevel::new(0.2)),
        );
        assert!((p.effective_capacity(SimTime::from_hours(1.0)) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cost_meter_tracks_changes() {
        let mut p = platform(2);
        p.request(
            SimTime::ZERO,
            ResourceAllocation::large(10),
            SimDuration::ZERO,
        );
        let _ = p.allocation_at(SimTime::from_hours(1.0));
        assert_eq!(p.cost_meter().num_changes(), 2);
        let cost = p.cost_meter().total_cost(SimTime::from_hours(1.0));
        assert!(cost > 2.0 * 0.34 * 0.9 && cost < 10.0 * 0.34 * 1.1);
    }

    #[test]
    fn newer_request_replaces_pending() {
        let mut p = platform(2);
        p.request(
            SimTime::ZERO,
            ResourceAllocation::large(10),
            SimDuration::from_secs(100.0),
        );
        p.request(
            SimTime::from_secs(10.0),
            ResourceAllocation::large(4),
            SimDuration::from_secs(1.0),
        );
        // The second (cheaper, faster) request wins.
        assert_eq!(p.allocation_at(SimTime::from_secs(200.0)).count(), 4);
    }
}
