//! EC2-style instance types and VM lifecycle.

use dejavu_simcore::SimTime;
use std::fmt;

/// The instance types used in the paper's evaluation (July 2011 EC2 pricing).
///
/// Scale-out experiments vary the *number* of [`Large`](InstanceType::Large)
/// instances; scale-up experiments switch between
/// [`Large`](InstanceType::Large) and [`ExtraLarge`](InstanceType::ExtraLarge)
/// at a fixed instance count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstanceType {
    /// EC2 m1.large-class instance.
    Large,
    /// EC2 m1.xlarge-class instance: twice the capacity and price of Large.
    ExtraLarge,
}

impl InstanceType {
    /// Normalized compute capacity (Large = 1.0).
    pub fn capacity_units(self) -> f64 {
        match self {
            InstanceType::Large => 1.0,
            InstanceType::ExtraLarge => 2.0,
        }
    }

    /// On-demand hourly price in USD (July 2011, as cited in §4.5).
    pub fn hourly_price(self) -> f64 {
        match self {
            InstanceType::Large => 0.34,
            InstanceType::ExtraLarge => 0.68,
        }
    }

    /// Short label used in figures ("L" / "XL").
    pub fn label(self) -> &'static str {
        match self {
            InstanceType::Large => "L",
            InstanceType::ExtraLarge => "XL",
        }
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Lifecycle state of a VM instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VmState {
    /// Pre-created but not running (the paper pre-creates and stops instances).
    Stopped,
    /// Booting; becomes warm at the contained time.
    Booting {
        /// When the boot completes.
        ready_at: SimTime,
    },
    /// Running but still warming up (caches cold, state rebalancing).
    WarmingUp {
        /// When the warm-up completes.
        ready_at: SimTime,
    },
    /// Fully operational.
    Running,
}

/// A single VM instance.
#[derive(Debug, Clone, PartialEq)]
pub struct VmInstance {
    /// Identifier unique within the platform.
    pub id: u32,
    /// Instance type.
    pub instance_type: InstanceType,
    /// Lifecycle state.
    pub state: VmState,
}

impl VmInstance {
    /// Creates a stopped (pre-created) instance.
    pub fn stopped(id: u32, instance_type: InstanceType) -> Self {
        VmInstance {
            id,
            instance_type,
            state: VmState::Stopped,
        }
    }

    /// Effective capacity contribution at `now`: full when running, half while
    /// warming up (cold caches), zero while booted or stopped.
    pub fn effective_capacity(&self, now: SimTime) -> f64 {
        match self.state {
            VmState::Running => self.instance_type.capacity_units(),
            VmState::Booting { ready_at } => {
                if now >= ready_at {
                    self.instance_type.capacity_units()
                } else {
                    0.0
                }
            }
            VmState::WarmingUp { ready_at } => {
                if now >= ready_at {
                    self.instance_type.capacity_units()
                } else {
                    self.instance_type.capacity_units() * 0.5
                }
            }
            VmState::Stopped => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pricing_and_capacity_ratio() {
        assert_eq!(InstanceType::Large.hourly_price(), 0.34);
        assert_eq!(InstanceType::ExtraLarge.hourly_price(), 0.68);
        assert_eq!(
            InstanceType::ExtraLarge.capacity_units(),
            2.0 * InstanceType::Large.capacity_units()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(InstanceType::Large.to_string(), "L");
        assert_eq!(InstanceType::ExtraLarge.to_string(), "XL");
    }

    #[test]
    fn lifecycle_capacity() {
        let now = SimTime::from_secs(100.0);
        let later = SimTime::from_secs(200.0);
        let stopped = VmInstance::stopped(0, InstanceType::Large);
        assert_eq!(stopped.effective_capacity(now), 0.0);

        let booting = VmInstance {
            id: 1,
            instance_type: InstanceType::Large,
            state: VmState::Booting { ready_at: later },
        };
        assert_eq!(booting.effective_capacity(now), 0.0);
        assert_eq!(booting.effective_capacity(later), 1.0);

        let warming = VmInstance {
            id: 2,
            instance_type: InstanceType::ExtraLarge,
            state: VmState::WarmingUp { ready_at: later },
        };
        assert_eq!(warming.effective_capacity(now), 1.0);
        assert_eq!(warming.effective_capacity(later), 2.0);

        let running = VmInstance {
            id: 3,
            instance_type: InstanceType::Large,
            state: VmState::Running,
        };
        assert_eq!(running.effective_capacity(now), 1.0);
    }
}
