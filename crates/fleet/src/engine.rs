//! The simulation engine: drives a trace through a service model, a simulated
//! cloud platform and a provisioning controller, recording everything the
//! figures need.
//!
//! Historically this lived in `dejavu-experiments`; it moved here so that the
//! fleet simulator can drive many tenant engines in lock-step. The classic
//! one-shot [`SimulationEngine::run`] is unchanged; the fleet uses the
//! incremental [`SimulationEngine::begin`] / [`SimulationEngine::step`] /
//! [`SimulationEngine::finish`] decomposition, which produces bit-identical
//! results (`run` is implemented on top of it).

use dejavu_cloud::{
    AdaptationEvent, AllocationSpace, CloudPlatform, InterferenceSchedule, Observation,
    PlatformConfig, ProvisioningController, ResourceAllocation,
};
use dejavu_services::service::EvalContext;
use dejavu_services::{ClientEmulator, ServiceModel};
use dejavu_simcore::{SimDuration, SimRng, SimTime, TimeSeries};
use dejavu_traces::{LoadTrace, RequestMix, Workload};

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Label used in reports.
    pub name: String,
    /// The load trace driving the run.
    pub trace: LoadTrace,
    /// Request mix offered by the clients.
    pub mix: RequestMix,
    /// The allocation space the controller may choose from.
    pub space: AllocationSpace,
    /// Platform timing parameters.
    pub platform: PlatformConfig,
    /// Interference injected by co-located tenants.
    pub interference: InterferenceSchedule,
    /// Allocation deployed at time zero.
    pub initial_allocation: ResourceAllocation,
    /// Evaluation/observation interval.
    pub tick: SimDuration,
    /// Seed for client measurement noise.
    pub seed: u64,
}

impl RunConfig {
    /// A scale-out configuration (1–10 large instances) for the given trace,
    /// matching the paper's Cassandra experiments.
    pub fn scale_out(
        name: impl Into<String>,
        trace: LoadTrace,
        mix: RequestMix,
        seed: u64,
    ) -> Self {
        let space = AllocationSpace::scale_out(1, 10).expect("static range is valid");
        RunConfig {
            name: name.into(),
            trace,
            mix,
            initial_allocation: space.full_capacity(),
            space,
            platform: PlatformConfig {
                boot_delay: SimDuration::from_secs(5.0),
                warmup_delay: SimDuration::from_secs(60.0),
            },
            interference: InterferenceSchedule::none(),
            tick: SimDuration::from_secs(30.0),
            seed,
        }
    }

    /// A scale-up configuration (5 instances, large ↔ extra-large) matching the
    /// paper's SPECweb experiments.
    pub fn scale_up(name: impl Into<String>, trace: LoadTrace, mix: RequestMix, seed: u64) -> Self {
        let space = AllocationSpace::scale_up(5).expect("static count is valid");
        RunConfig {
            name: name.into(),
            trace,
            mix,
            initial_allocation: space.full_capacity(),
            space,
            platform: PlatformConfig {
                boot_delay: SimDuration::from_secs(5.0),
                warmup_delay: SimDuration::from_secs(60.0),
            },
            interference: InterferenceSchedule::none(),
            tick: SimDuration::from_secs(30.0),
            seed,
        }
    }

    /// Sets the interference schedule.
    pub fn with_interference(mut self, schedule: InterferenceSchedule) -> Self {
        self.interference = schedule;
        self
    }

    /// Sets the evaluation tick.
    pub fn with_tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }
}

/// Everything recorded during one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The run label.
    pub name: String,
    /// The controller that produced the run.
    pub controller: String,
    /// Offered load (normalized) over time.
    pub load: TimeSeries,
    /// Deployed instance count over time.
    pub instance_count: TimeSeries,
    /// Deployed capacity units over time.
    pub capacity_units: TimeSeries,
    /// Measured latency over time (ms).
    pub latency_ms: TimeSeries,
    /// Measured QoS over time (percent).
    pub qos_percent: TimeSeries,
    /// Fraction of observation ticks violating the SLO.
    pub slo_violation_fraction: f64,
    /// Total deployment cost in USD over the whole run.
    pub total_cost: f64,
    /// Deployment cost in USD restricted to the reuse period (after the first day).
    pub reuse_cost: f64,
    /// All reconfigurations that took place.
    pub adaptations: Vec<AdaptationEvent>,
    /// Per-workload-change settling times in seconds (0 when no
    /// reconfiguration was needed).
    pub settle_times_secs: Vec<f64>,
    /// End of the simulated period.
    pub end: SimTime,
}

impl RunResult {
    /// Mean settling time across workload changes that required an adaptation.
    pub fn mean_adaptation_secs(&self) -> f64 {
        let nonzero: Vec<f64> = self
            .settle_times_secs
            .iter()
            .copied()
            .filter(|&s| s > 0.0)
            .collect();
        if nonzero.is_empty() {
            0.0
        } else {
            nonzero.iter().sum::<f64>() / nonzero.len() as f64
        }
    }

    /// Standard error of the non-zero settling times.
    pub fn adaptation_std_error(&self) -> f64 {
        let nonzero: Vec<f64> = self
            .settle_times_secs
            .iter()
            .copied()
            .filter(|&s| s > 0.0)
            .collect();
        if nonzero.len() < 2 {
            return 0.0;
        }
        let mean = nonzero.iter().sum::<f64>() / nonzero.len() as f64;
        let var = nonzero.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / nonzero.len() as f64;
        (var / nonzero.len() as f64).sqrt()
    }

    /// Cost savings of this run relative to `baseline` over the reuse period.
    pub fn reuse_savings_vs(&self, baseline: &RunResult) -> f64 {
        if baseline.reuse_cost <= 0.0 {
            0.0
        } else {
            1.0 - self.reuse_cost / baseline.reuse_cost
        }
    }
}

/// The in-flight state of one run, stepped one observation tick at a time.
///
/// Produced by [`SimulationEngine::begin`], advanced by
/// [`SimulationEngine::step`], consumed by [`SimulationEngine::finish`].
#[derive(Debug, Clone)]
pub struct RunState {
    platform: CloudPlatform,
    client: ClientEmulator,
    rng: SimRng,
    load: TimeSeries,
    instance_count: TimeSeries,
    capacity_units: TimeSeries,
    latency_ms: TimeSeries,
    qos_percent: TimeSeries,
    adaptations: Vec<AdaptationEvent>,
    change_points: Vec<SimTime>,
    tick_secs: f64,
    ticks: usize,
    tick_index: usize,
    violated_ticks: usize,
    last_level: f64,
    last_reconfig: Option<SimTime>,
    prev_allocation: ResourceAllocation,
    end: SimTime,
}

impl RunState {
    /// The time of the next observation tick, or `None` when the run is over.
    pub fn next_tick_time(&self) -> Option<SimTime> {
        if self.tick_index < self.ticks {
            Some(SimTime::from_secs(self.tick_secs * self.tick_index as f64))
        } else {
            None
        }
    }

    /// Returns true when every tick has been simulated.
    pub fn is_done(&self) -> bool {
        self.tick_index >= self.ticks
    }

    /// Ticks simulated so far.
    pub fn ticks_completed(&self) -> usize {
        self.tick_index
    }
}

/// The simulation engine.
#[derive(Debug, Clone)]
pub struct SimulationEngine {
    config: RunConfig,
}

impl SimulationEngine {
    /// Creates an engine for one run configuration.
    pub fn new(config: RunConfig) -> Self {
        SimulationEngine { config }
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Starts a run: platform, client emulator and bookkeeping at time zero.
    pub fn begin(&self) -> RunState {
        let cfg = &self.config;
        let platform = CloudPlatform::new(
            cfg.platform.clone(),
            cfg.space.clone(),
            cfg.initial_allocation,
            cfg.interference.clone(),
        );
        let end = SimTime::ZERO + cfg.trace.duration();
        let ticks = (cfg.trace.duration().as_secs() / cfg.tick.as_secs()).round() as usize;
        RunState {
            platform,
            client: ClientEmulator::default(),
            rng: SimRng::seed_from_u64(cfg.seed),
            load: TimeSeries::with_capacity("load", cfg.tick, ticks),
            instance_count: TimeSeries::with_capacity("instances", cfg.tick, ticks),
            capacity_units: TimeSeries::with_capacity("capacity", cfg.tick, ticks),
            latency_ms: TimeSeries::with_capacity("latency_ms", cfg.tick, ticks),
            qos_percent: TimeSeries::with_capacity("qos_percent", cfg.tick, ticks),
            adaptations: Vec::new(),
            change_points: Vec::new(),
            tick_secs: cfg.tick.as_secs(),
            ticks,
            tick_index: 0,
            violated_ticks: 0,
            last_level: f64::NAN,
            last_reconfig: None,
            prev_allocation: cfg.initial_allocation,
            end,
        }
    }

    /// Simulates one observation tick: measure the service, let `controller`
    /// decide, apply the decision to the platform. Returns false once the run
    /// is complete (in which case nothing was simulated).
    pub fn step(
        &self,
        state: &mut RunState,
        service: &dyn ServiceModel,
        controller: &mut dyn ProvisioningController,
    ) -> bool {
        let cfg = &self.config;
        if state.tick_index >= state.ticks {
            return false;
        }
        let t = SimTime::from_secs(state.tick_secs * state.tick_index as f64);
        state.tick_index += 1;

        let level = cfg.trace.level_at(t);
        if state.last_level.is_nan() || (level - state.last_level).abs() > 0.02 {
            if !state.last_level.is_nan() {
                state.change_points.push(t);
            }
            state.last_level = level;
        }
        let allocation = state.platform.allocation_at(t);
        if allocation != state.prev_allocation {
            state.last_reconfig = Some(t);
            state.prev_allocation = allocation;
        }
        let capacity = state.platform.effective_capacity(t).max(0.05);
        let ctx = EvalContext {
            time: t,
            capacity_units: capacity,
            since_reconfig: state.last_reconfig.map(|r| t.saturating_since(r)),
        };
        let perf = state.client.measure(service, level, &ctx, &mut state.rng);
        let slo_violated = !service.slo().is_met(&perf);
        if slo_violated {
            state.violated_ticks += 1;
        }

        state.load.push(level);
        state.instance_count.push(allocation.count() as f64);
        state.capacity_units.push(allocation.capacity_units());
        state.latency_ms.push(perf.latency_ms);
        state.qos_percent.push(perf.qos_percent);

        let observation = Observation {
            time: t,
            workload: Workload::with_intensity(service.kind(), level, cfg.mix),
            latency_ms: Some(perf.latency_ms),
            qos_percent: Some(perf.qos_percent),
            utilization: perf.utilization.min(1.0),
            slo_violated,
            current_allocation: allocation,
        };
        let decision = controller.decide(&observation);
        if let Some(target) = decision.target {
            if target != allocation {
                state.platform.request(t, target, decision.decision_latency);
                let completed_at = state.platform.pending_effective_at().unwrap_or(t);
                state.adaptations.push(AdaptationEvent {
                    started_at: t,
                    completed_at,
                    from: allocation,
                    to: target,
                    reason: decision.reason,
                });
            }
        }
        true
    }

    /// Finalizes a completed (or truncated) run into a [`RunResult`].
    pub fn finish(&self, state: RunState, controller_name: &str) -> RunResult {
        let cfg = &self.config;
        let RunState {
            platform,
            load,
            instance_count,
            capacity_units,
            latency_ms,
            qos_percent,
            adaptations,
            change_points,
            ticks,
            violated_ticks,
            end,
            ..
        } = state;

        // Settling time per workload change: the completion of the last
        // adaptation started before the next change.
        let mut settle_times_secs = Vec::with_capacity(change_points.len());
        for (i, &change) in change_points.iter().enumerate() {
            let window_end = change_points
                .get(i + 1)
                .copied()
                .unwrap_or(end)
                .min(change + SimDuration::from_mins(45.0));
            let settle = adaptations
                .iter()
                .filter(|a| a.started_at >= change && a.started_at < window_end)
                .map(|a| a.completed_at.saturating_since(change).as_secs())
                .fold(0.0f64, f64::max);
            settle_times_secs.push(settle);
        }

        let reuse_start = SimTime::from_hours(24.0).min(end);
        RunResult {
            name: cfg.name.clone(),
            controller: controller_name.to_string(),
            load,
            instance_count,
            capacity_units,
            latency_ms,
            qos_percent,
            slo_violation_fraction: violated_ticks as f64 / ticks.max(1) as f64,
            total_cost: platform.cost_meter().total_cost(end),
            reuse_cost: platform.cost_meter().cost_between(reuse_start, end),
            adaptations,
            settle_times_secs,
            end,
        }
    }

    /// Runs `controller` over the configured trace against `service`.
    pub fn run(
        &self,
        service: &dyn ServiceModel,
        controller: &mut dyn ProvisioningController,
    ) -> RunResult {
        let mut state = self.begin();
        while self.step(&mut state, service, controller) {}
        let name = controller.name().to_string();
        self.finish(state, &name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_baselines::{FixedMax, Oracle};
    use dejavu_services::CassandraService;
    use dejavu_traces::messenger_week;

    fn short_trace() -> LoadTrace {
        messenger_week(1).days(0, 2)
    }

    #[test]
    fn fixed_max_never_violates_and_costs_the_most() {
        let cfg = RunConfig::scale_out("test", short_trace(), RequestMix::update_heavy(), 1)
            .with_tick(SimDuration::from_secs(120.0));
        let engine = SimulationEngine::new(cfg);
        let svc = CassandraService::update_heavy();
        let space = engine.config().space.clone();
        let mut fixed = FixedMax::new(&space);
        let fixed_result = engine.run(&svc, &mut fixed);
        assert!(fixed_result.slo_violation_fraction < 0.01);

        let mut oracle = Oracle::new(Box::new(svc), engine.config().space.clone());
        let oracle_result = engine.run(&svc, &mut oracle);
        assert!(oracle_result.total_cost < fixed_result.total_cost);
        assert!(oracle_result.reuse_savings_vs(&fixed_result) > 0.2);
        assert!(oracle_result.slo_violation_fraction < 0.1);
        assert!(!oracle_result.adaptations.is_empty());
    }

    #[test]
    fn series_cover_the_whole_run() {
        let cfg = RunConfig::scale_out("cover", short_trace(), RequestMix::update_heavy(), 2)
            .with_tick(SimDuration::from_secs(300.0));
        let engine = SimulationEngine::new(cfg);
        let svc = CassandraService::update_heavy();
        let mut fixed = FixedMax::new(&engine.config().space.clone());
        let r = engine.run(&svc, &mut fixed);
        assert_eq!(r.load.len(), r.latency_ms.len());
        assert_eq!(r.load.len(), (48.0 * 3600.0 / 300.0) as usize);
        assert!(r.total_cost > 0.0);
        assert_eq!(r.controller, "fixed-max");
    }

    #[test]
    fn a_run_holds_one_value_per_tick_per_series_and_never_regrows() {
        let cfg = RunConfig::scale_out("grid", short_trace(), RequestMix::update_heavy(), 4)
            .with_tick(SimDuration::from_secs(120.0));
        let engine = SimulationEngine::new(cfg);
        let svc = CassandraService::update_heavy();
        let mut fixed = FixedMax::new(&engine.config().space.clone());
        let mut state = engine.begin();
        let ticks = state.ticks;
        assert_eq!(ticks, 2 * 24 * 30);
        let buffers = |s: &RunState| {
            [
                &s.load,
                &s.instance_count,
                &s.capacity_units,
                &s.latency_ms,
                &s.qos_percent,
            ]
            .map(|series| series.values().as_ptr())
        };
        assert!(engine.step(&mut state, &svc, &mut fixed));
        let allocated_at_begin = buffers(&state);
        while engine.step(&mut state, &svc, &mut fixed) {}
        // The buffers `begin` sized for `ticks` values are the ones the run
        // ends with: no series outgrew its allocation.
        assert_eq!(buffers(&state), allocated_at_begin);
        let r = engine.finish(state, "fixed-max");
        for series in [
            &r.load,
            &r.instance_count,
            &r.capacity_units,
            &r.latency_ms,
            &r.qos_percent,
        ] {
            assert_eq!(series.len(), ticks, "{}", series.name());
            let (last, _) = series.iter().last().expect("a two-day run has points");
            assert_eq!(last.as_secs(), 120.0 * (ticks - 1) as f64);
        }
        // A series is its name, its grid step and one vector — no second
        // vector of timestamps.
        assert_eq!(
            std::mem::size_of::<TimeSeries>(),
            std::mem::size_of::<String>()
                + std::mem::size_of::<f64>()
                + std::mem::size_of::<Vec<f64>>()
        );
    }

    #[test]
    fn incremental_stepping_matches_one_shot_run() {
        let cfg = RunConfig::scale_out("step", short_trace(), RequestMix::update_heavy(), 3)
            .with_tick(SimDuration::from_secs(300.0));
        let engine = SimulationEngine::new(cfg);
        let svc = CassandraService::update_heavy();

        let mut fixed_a = FixedMax::new(&engine.config().space.clone());
        let one_shot = engine.run(&svc, &mut fixed_a);

        // Step in irregular bursts, as the fleet's epoch loop does.
        let mut fixed_b = FixedMax::new(&engine.config().space.clone());
        let mut state = engine.begin();
        let mut burst = 1;
        while !state.is_done() {
            for _ in 0..burst {
                if !engine.step(&mut state, &svc, &mut fixed_b) {
                    break;
                }
            }
            burst = burst % 7 + 1;
        }
        let stepped = engine.finish(state, "fixed-max");

        assert_eq!(one_shot.load.len(), stepped.load.len());
        assert_eq!(one_shot.total_cost, stepped.total_cost);
        assert_eq!(
            one_shot.slo_violation_fraction,
            stepped.slo_violation_fraction
        );
        let a: Vec<f64> = one_shot.latency_ms.values().to_vec();
        let b: Vec<f64> = stepped.latency_ms.values().to_vec();
        assert_eq!(a, b);
    }
}
