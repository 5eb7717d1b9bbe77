//! The Cassandra-like key-value store model.
//!
//! The paper's scale-out experiments run Cassandra under a YCSB-style
//! update-heavy workload (95% writes / 5% reads) with a 60 ms latency SLO, and
//! note that Cassandra "takes a long time to stabilize (e.g., tens of minutes)"
//! after the number of instances changes because of data re-partitioning.

use crate::perf::{PerfSample, QueueingModel};
use crate::service::{EvalContext, ServiceModel};
use crate::slo::Slo;
use dejavu_simcore::SimDuration;
use dejavu_traces::{RequestMix, ServiceKind};

/// Configuration of the Cassandra model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CassandraConfig {
    /// The underlying queueing model.
    pub queueing: QueueingModel,
    /// Latency SLO in milliseconds.
    pub slo_latency_ms: f64,
    /// How long re-partitioning degrades performance after a reconfiguration.
    pub repartition_duration: SimDuration,
    /// Latency multiplier while re-partitioning.
    pub repartition_penalty: f64,
    /// Request mix offered by the client emulator.
    pub mix: RequestMix,
}

impl Default for CassandraConfig {
    fn default() -> Self {
        CassandraConfig {
            queueing: QueueingModel {
                base_latency_ms: 15.0,
                ..QueueingModel::default()
            },
            slo_latency_ms: 60.0,
            repartition_duration: SimDuration::from_mins(10.0),
            repartition_penalty: 1.5,
            mix: RequestMix::update_heavy(),
        }
    }
}

/// The Cassandra-like key-value store.
///
/// # Example
///
/// ```
/// use dejavu_services::{CassandraService, ServiceModel};
/// use dejavu_services::service::EvalContext;
/// use dejavu_simcore::SimTime;
///
/// let svc = CassandraService::update_heavy();
/// let sample = svc.evaluate(0.5, &EvalContext::steady(SimTime::ZERO, 10.0));
/// assert!(svc.slo().is_met(&sample));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CassandraService {
    config: CassandraConfig,
}

impl CassandraService {
    /// Creates a Cassandra model with the given configuration.
    pub fn new(config: CassandraConfig) -> Self {
        CassandraService { config }
    }

    /// The paper's update-heavy configuration (95% writes, 60 ms SLO).
    pub fn update_heavy() -> Self {
        CassandraService::new(CassandraConfig::default())
    }

    /// The model configuration.
    pub fn config(&self) -> &CassandraConfig {
        &self.config
    }
}

impl Default for CassandraService {
    fn default() -> Self {
        CassandraService::update_heavy()
    }
}

impl ServiceModel for CassandraService {
    fn kind(&self) -> ServiceKind {
        ServiceKind::Cassandra
    }

    fn default_mix(&self) -> RequestMix {
        self.config.mix
    }

    fn slo(&self) -> Slo {
        Slo::LatencyMs(self.config.slo_latency_ms)
    }

    fn evaluate(&self, intensity: f64, ctx: &EvalContext) -> PerfSample {
        // Writes are a little more expensive than reads: shift the effective
        // intensity by up to 6% depending on the write fraction.
        let write_factor = 1.0 + 0.06 * (self.config.mix.write_fraction() - 0.5);
        let multiplier = match ctx.since_reconfig {
            Some(d) if d < self.config.repartition_duration => self.config.repartition_penalty,
            _ => 1.0,
        };
        self.config
            .queueing
            .sample(intensity * write_factor, ctx.capacity_units, multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_simcore::SimTime;

    #[test]
    fn meets_slo_with_adequate_capacity() {
        let svc = CassandraService::update_heavy();
        let ok = svc.evaluate(0.5, &EvalContext::steady(SimTime::ZERO, 6.0));
        assert!(svc.slo().is_met(&ok), "latency {}", ok.latency_ms);
        let bad = svc.evaluate(0.9, &EvalContext::steady(SimTime::ZERO, 4.0));
        assert!(!svc.slo().is_met(&bad));
    }

    #[test]
    fn required_capacity_tracks_intensity_roughly_linearly() {
        let svc = CassandraService::update_heavy();
        let c_half = svc.required_capacity(0.5);
        let c_full = svc.required_capacity(1.0);
        assert!(c_full > 1.7 * c_half && c_full < 2.4 * c_half);
        // Full capacity of the paper's deployment is 10 large instances.
        assert!(
            c_full <= 10.5,
            "peak must be servable by 10 instances, got {c_full}"
        );
    }

    #[test]
    fn repartitioning_degrades_latency_temporarily() {
        let svc = CassandraService::update_heavy();
        let during = svc.evaluate(
            0.5,
            &EvalContext {
                time: SimTime::from_secs(60.0),
                capacity_units: 6.0,
                since_reconfig: Some(SimDuration::from_mins(2.0)),
            },
        );
        let after = svc.evaluate(
            0.5,
            &EvalContext {
                time: SimTime::from_secs(60.0),
                capacity_units: 6.0,
                since_reconfig: Some(SimDuration::from_mins(30.0)),
            },
        );
        assert!(during.latency_ms > after.latency_ms * 1.3);
    }

    #[test]
    fn update_heavy_mix_is_write_dominated() {
        let svc = CassandraService::update_heavy();
        assert!(svc.default_mix().write_fraction() > 0.9);
        assert_eq!(svc.kind(), ServiceKind::Cassandra);
        assert_eq!(svc.slo(), Slo::LatencyMs(60.0));
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let write_heavy = CassandraService::update_heavy();
        let read_heavy = CassandraService::new(CassandraConfig {
            mix: RequestMix::new(0.95),
            ..CassandraConfig::default()
        });
        let ctx = EvalContext::steady(SimTime::ZERO, 6.0);
        assert!(
            write_heavy.evaluate(0.7, &ctx).latency_ms > read_heavy.evaluate(0.7, &ctx).latency_ms
        );
    }
}
