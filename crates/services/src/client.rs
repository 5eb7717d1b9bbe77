//! Client emulators: turn a trace level into offered load and measure the
//! resulting performance with realistic measurement noise.

use crate::perf::PerfSample;
use crate::service::{EvalContext, ServiceModel};
use dejavu_simcore::SimRng;

/// A client emulator for a service deployment.
///
/// The paper's benchmarks ship client emulators that generate requests and
/// collect throughput/latency statistics; this emulator adds the small
/// measurement noise a real emulator would observe on top of the service
/// model's steady-state prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientEmulator {
    /// Number of emulated clients at the trace peak (intensity 1.0).
    pub peak_clients: u32,
    /// Relative measurement noise (standard deviation as a fraction of the value).
    pub measurement_noise: f64,
}

impl Default for ClientEmulator {
    fn default() -> Self {
        ClientEmulator {
            peak_clients: 1_000,
            measurement_noise: 0.03,
        }
    }
}

impl ClientEmulator {
    /// Creates an emulator with the given peak client population.
    ///
    /// # Panics
    ///
    /// Panics if `peak_clients` is zero or the noise fraction is negative.
    pub fn new(peak_clients: u32, measurement_noise: f64) -> Self {
        assert!(peak_clients > 0, "need at least one client");
        assert!(measurement_noise >= 0.0, "noise must be non-negative");
        ClientEmulator {
            peak_clients,
            measurement_noise,
        }
    }

    /// Number of active clients at the given intensity.
    pub fn active_clients(&self, intensity: f64) -> u32 {
        (intensity.max(0.0) * self.peak_clients as f64).round() as u32
    }

    /// Measures the service at `intensity` under `ctx`, adding measurement noise.
    pub fn measure<S: ServiceModel + ?Sized>(
        &self,
        service: &S,
        intensity: f64,
        ctx: &EvalContext,
        rng: &mut SimRng,
    ) -> PerfSample {
        let ideal = service.evaluate(intensity, ctx);
        let noise = |rng: &mut SimRng, v: f64| {
            if self.measurement_noise == 0.0 {
                v
            } else {
                (rng.normal(v, v.abs() * self.measurement_noise)).max(0.0)
            }
        };
        PerfSample {
            latency_ms: noise(rng, ideal.latency_ms),
            qos_percent: noise(rng, ideal.qos_percent).min(100.0),
            throughput_rps: noise(rng, ideal.throughput_rps),
            utilization: ideal.utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cassandra::CassandraService;
    use dejavu_simcore::SimTime;

    #[test]
    fn client_count_scales_with_intensity() {
        let c = ClientEmulator::new(500, 0.0);
        assert_eq!(c.active_clients(0.0), 0);
        assert_eq!(c.active_clients(0.5), 250);
        assert_eq!(c.active_clients(1.0), 500);
    }

    #[test]
    fn measurement_noise_is_bounded_and_unbiased() {
        let c = ClientEmulator::new(500, 0.03);
        let svc = CassandraService::update_heavy();
        let ctx = EvalContext::steady(SimTime::ZERO, 8.0);
        let ideal = svc.evaluate(0.6, &ctx);
        let mut rng = SimRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..200)
            .map(|_| c.measure(&svc, 0.6, &ctx, &mut rng).latency_ms)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - ideal.latency_ms).abs() / ideal.latency_ms < 0.02);
        assert!(samples.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn zero_noise_reproduces_model() {
        let c = ClientEmulator::new(500, 0.0);
        let svc = CassandraService::update_heavy();
        let ctx = EvalContext::steady(SimTime::ZERO, 8.0);
        let mut rng = SimRng::seed_from_u64(2);
        let m = c.measure(&svc, 0.6, &ctx, &mut rng);
        let ideal = svc.evaluate(0.6, &ctx);
        assert_eq!(m.latency_ms, ideal.latency_ms);
        assert_eq!(m.utilization, ideal.utilization);
    }

    #[test]
    #[should_panic]
    fn zero_clients_rejected() {
        let _ = ClientEmulator::new(0, 0.01);
    }
}
