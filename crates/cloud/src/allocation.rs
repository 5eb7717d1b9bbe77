//! Resource allocations and the allocation search space.

use crate::error::CloudError;
use crate::instance::InstanceType;
use std::fmt;

/// A resource allocation: how many instances of which type serve the workload.
///
/// # Example
///
/// ```
/// use dejavu_cloud::{InstanceType, ResourceAllocation};
/// let a = ResourceAllocation::new(InstanceType::Large, 4)?;
/// assert_eq!(a.capacity_units(), 4.0);
/// assert!((a.hourly_cost() - 4.0 * 0.34).abs() < 1e-12);
/// # Ok::<(), dejavu_cloud::CloudError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceAllocation {
    instance_type: InstanceType,
    count: u32,
}

impl ResourceAllocation {
    /// Creates an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidAllocation`] if `count` is zero.
    pub fn new(instance_type: InstanceType, count: u32) -> Result<Self, CloudError> {
        if count == 0 {
            return Err(CloudError::InvalidAllocation {
                reason: "instance count must be at least 1".into(),
            });
        }
        Ok(ResourceAllocation {
            instance_type,
            count,
        })
    }

    /// `count` Large instances (panics only if `count` is 0, which is a caller bug).
    pub fn large(count: u32) -> Self {
        ResourceAllocation::new(InstanceType::Large, count).expect("count validated by caller")
    }

    /// `count` ExtraLarge instances.
    pub fn extra_large(count: u32) -> Self {
        ResourceAllocation::new(InstanceType::ExtraLarge, count).expect("count validated by caller")
    }

    /// The instance type.
    pub fn instance_type(self) -> InstanceType {
        self.instance_type
    }

    /// The number of instances.
    pub fn count(self) -> u32 {
        self.count
    }

    /// Total normalized compute capacity.
    pub fn capacity_units(self) -> f64 {
        self.count as f64 * self.instance_type.capacity_units()
    }

    /// Total hourly cost in USD.
    pub fn hourly_cost(self) -> f64 {
        self.count as f64 * self.instance_type.hourly_price()
    }
}

impl fmt::Display for ResourceAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.count, self.instance_type)
    }
}

/// The discrete set of allocations a deployment may choose from, ordered from
/// cheapest to most expensive. The paper's two provisioning schemes map to the
/// two constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationSpace {
    candidates: Vec<ResourceAllocation>,
}

impl AllocationSpace {
    /// Horizontal scaling: `min_instances..=max_instances` Large instances.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidConfig`] if the range is empty or starts at zero.
    pub fn scale_out(min_instances: u32, max_instances: u32) -> Result<Self, CloudError> {
        if min_instances == 0 || min_instances > max_instances {
            return Err(CloudError::InvalidConfig(format!(
                "invalid scale-out range {min_instances}..={max_instances}"
            )));
        }
        Ok(AllocationSpace {
            candidates: (min_instances..=max_instances)
                .map(ResourceAllocation::large)
                .collect(),
        })
    }

    /// Vertical scaling: a fixed number of instances, Large or ExtraLarge.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidConfig`] if `instances` is zero.
    pub fn scale_up(instances: u32) -> Result<Self, CloudError> {
        if instances == 0 {
            return Err(CloudError::InvalidConfig(
                "scale-up needs at least one instance".into(),
            ));
        }
        Ok(AllocationSpace {
            candidates: vec![
                ResourceAllocation::large(instances),
                ResourceAllocation::extra_large(instances),
            ],
        })
    }

    /// The candidates, cheapest first.
    pub fn candidates(&self) -> &[ResourceAllocation] {
        &self.candidates
    }

    /// Number of candidate allocations.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Returns true if the space has no candidates (never true when constructed).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The cheapest allocation.
    pub fn minimal(&self) -> ResourceAllocation {
        self.candidates[0]
    }

    /// The most expensive (full-capacity) allocation — what DejaVu deploys for
    /// unforeseen workloads and what the savings baseline always uses.
    pub fn full_capacity(&self) -> ResourceAllocation {
        *self.candidates.last().expect("space is never empty")
    }

    /// The next larger allocation after `current`, saturating at full capacity.
    pub fn step_up(&self, current: ResourceAllocation, steps: usize) -> ResourceAllocation {
        let idx = self.index_of(current).unwrap_or(0);
        self.candidates[(idx + steps).min(self.candidates.len() - 1)]
    }

    /// The next smaller allocation below `current`, saturating at the minimum.
    pub fn step_down(&self, current: ResourceAllocation, steps: usize) -> ResourceAllocation {
        let idx = self.index_of(current).unwrap_or(0);
        self.candidates[idx.saturating_sub(steps)]
    }

    /// Position of `allocation` in the space, if present.
    pub fn index_of(&self, allocation: ResourceAllocation) -> Option<usize> {
        self.candidates.iter().position(|&c| c == allocation)
    }

    /// The cheapest candidate with at least `capacity_units` of capacity, or
    /// full capacity if none suffices.
    pub fn cheapest_with_capacity(&self, capacity_units: f64) -> ResourceAllocation {
        self.candidates
            .iter()
            .copied()
            .find(|c| c.capacity_units() >= capacity_units)
            .unwrap_or_else(|| self.full_capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_basics() {
        let a = ResourceAllocation::large(3);
        assert_eq!(a.count(), 3);
        assert_eq!(a.instance_type(), InstanceType::Large);
        assert_eq!(a.capacity_units(), 3.0);
        assert!((a.hourly_cost() - 1.02).abs() < 1e-12);
        assert_eq!(a.to_string(), "3xL");
        let xl = ResourceAllocation::extra_large(5);
        assert_eq!(xl.capacity_units(), 10.0);
        assert!((xl.hourly_cost() - 3.40).abs() < 1e-12);
    }

    #[test]
    fn zero_count_rejected() {
        assert!(ResourceAllocation::new(InstanceType::Large, 0).is_err());
    }

    #[test]
    fn scale_out_space() {
        let s = AllocationSpace::scale_out(1, 10).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.minimal(), ResourceAllocation::large(1));
        assert_eq!(s.full_capacity(), ResourceAllocation::large(10));
        assert_eq!(s.cheapest_with_capacity(6.5), ResourceAllocation::large(7));
        assert_eq!(
            s.cheapest_with_capacity(99.0),
            ResourceAllocation::large(10)
        );
        assert!(AllocationSpace::scale_out(0, 5).is_err());
        assert!(AllocationSpace::scale_out(5, 2).is_err());
    }

    #[test]
    fn scale_up_space() {
        let s = AllocationSpace::scale_up(5).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.minimal(), ResourceAllocation::large(5));
        assert_eq!(s.full_capacity(), ResourceAllocation::extra_large(5));
        assert!(AllocationSpace::scale_up(0).is_err());
    }

    #[test]
    fn stepping_saturates() {
        let s = AllocationSpace::scale_out(1, 10).unwrap();
        let a = ResourceAllocation::large(9);
        assert_eq!(s.step_up(a, 2), ResourceAllocation::large(10));
        assert_eq!(
            s.step_down(ResourceAllocation::large(2), 5),
            ResourceAllocation::large(1)
        );
        assert_eq!(
            s.step_up(ResourceAllocation::large(3), 2),
            ResourceAllocation::large(5)
        );
        assert_eq!(s.index_of(ResourceAllocation::large(4)), Some(3));
        assert_eq!(s.index_of(ResourceAllocation::extra_large(4)), None);
    }
}
