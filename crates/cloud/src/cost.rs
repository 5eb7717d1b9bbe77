//! Instance-hour cost metering.

use crate::allocation::ResourceAllocation;
use dejavu_simcore::SimTime;

/// Accumulates deployment cost as allocations change over simulated time.
///
/// # Example
///
/// ```
/// use dejavu_cloud::{CostMeter, ResourceAllocation};
/// use dejavu_simcore::SimTime;
///
/// let mut m = CostMeter::new();
/// m.record(SimTime::ZERO, ResourceAllocation::large(2));
/// m.record(SimTime::from_hours(1.0), ResourceAllocation::large(4));
/// let cost = m.total_cost(SimTime::from_hours(2.0));
/// assert!((cost - (2.0 * 0.34 + 4.0 * 0.34)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostMeter {
    /// (time_secs, allocation) change points, in time order.
    changes: Vec<(f64, ResourceAllocation)>,
}

impl CostMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        CostMeter {
            changes: Vec::new(),
        }
    }

    /// Records that `allocation` is deployed from `time` onwards.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous record.
    pub fn record(&mut self, time: SimTime, allocation: ResourceAllocation) {
        if let Some(&(last, _)) = self.changes.last() {
            assert!(
                time.as_secs() >= last,
                "cost meter records must be in time order"
            );
        }
        self.changes.push((time.as_secs(), allocation));
    }

    /// Number of recorded allocation changes.
    pub fn num_changes(&self) -> usize {
        self.changes.len()
    }

    /// Total cost in USD from the first record until `end`.
    pub fn total_cost(&self, end: SimTime) -> f64 {
        self.cost_between(SimTime::ZERO, end)
    }

    /// Cost in USD accumulated within `[from, to]`.
    pub fn cost_between(&self, from: SimTime, to: SimTime) -> f64 {
        let from = from.as_secs();
        let to = to.as_secs();
        let mut total = 0.0;
        for (i, &(t0, alloc)) in self.changes.iter().enumerate() {
            let t1 = self
                .changes
                .get(i + 1)
                .map(|&(t, _)| t)
                .unwrap_or(to)
                .min(to);
            let start = t0.max(from);
            if t1 > start {
                total += alloc.hourly_cost() * (t1 - start) / 3_600.0;
            }
        }
        total
    }

    /// The allocation in effect at `time`, if any has been recorded yet.
    pub fn allocation_at(&self, time: SimTime) -> Option<ResourceAllocation> {
        let t = time.as_secs();
        self.changes
            .iter()
            .rev()
            .find(|&&(t0, _)| t0 <= t)
            .map(|&(_, a)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_accumulates_by_segment() {
        let mut m = CostMeter::new();
        m.record(SimTime::ZERO, ResourceAllocation::large(10));
        m.record(SimTime::from_hours(2.0), ResourceAllocation::large(5));
        let total = m.total_cost(SimTime::from_hours(4.0));
        assert!((total - (10.0 * 0.34 * 2.0 + 5.0 * 0.34 * 2.0)).abs() < 1e-9);
        assert_eq!(m.num_changes(), 2);
    }

    #[test]
    fn windowed_cost() {
        let mut m = CostMeter::new();
        m.record(SimTime::ZERO, ResourceAllocation::large(4));
        let c = m.cost_between(SimTime::from_hours(1.0), SimTime::from_hours(2.0));
        assert!((c - 4.0 * 0.34).abs() < 1e-9);
    }

    #[test]
    fn allocation_lookup() {
        let mut m = CostMeter::new();
        assert_eq!(m.allocation_at(SimTime::ZERO), None);
        m.record(SimTime::from_hours(1.0), ResourceAllocation::large(3));
        assert_eq!(m.allocation_at(SimTime::from_secs(0.0)), None);
        assert_eq!(
            m.allocation_at(SimTime::from_hours(5.0)),
            Some(ResourceAllocation::large(3))
        );
    }

    #[test]
    #[should_panic]
    fn out_of_order_record_panics() {
        let mut m = CostMeter::new();
        m.record(SimTime::from_hours(2.0), ResourceAllocation::large(1));
        m.record(SimTime::from_hours(1.0), ResourceAllocation::large(2));
    }

    #[test]
    fn empty_meter_costs_nothing() {
        let m = CostMeter::new();
        assert_eq!(m.total_cost(SimTime::from_hours(10.0)), 0.0);
    }
}
