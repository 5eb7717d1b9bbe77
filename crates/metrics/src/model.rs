//! A generative model of how low-level metrics respond to a workload.
//!
//! The paper validates empirically (Figure 4) that hardware counters and
//! xentop metrics respond smoothly and distinctly to changes in workload
//! intensity and type, with small trial-to-trial variance — that is the only
//! property DejaVu requires of them. This module encodes that property
//! directly: every metric's expected per-second rate is a deterministic
//! function of the workload (service kind, intensity, read/write mix), with
//! the coefficients chosen so that
//!
//! * the Table-1 events are strongly informative for RUBiS-like workloads,
//! * a FLOPS-rate-style counter cleanly separates SPECweb workload volumes
//!   (Figure 4(a)),
//! * a few counters are deliberately uninformative (noise), which is what the
//!   CFS feature-selection stage must learn to discard, and
//! * xentop metrics track utilization and the read/write mix.

use crate::counter::{MetricCatalog, MetricId, MetricKind};
use dejavu_traces::{ServiceKind, Workload};

/// The workload operating point a metric value is generated for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadPoint {
    /// Which service is exercised.
    pub service: ServiceKind,
    /// Normalized intensity (fraction of full-capacity peak, `[0, 1.5]`).
    pub intensity: f64,
    /// Fraction of read requests in `[0, 1]`.
    pub read_fraction: f64,
}

impl WorkloadPoint {
    /// Creates a workload point.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is negative/not finite or `read_fraction` is
    /// outside `[0, 1]`.
    pub fn new(service: ServiceKind, intensity: f64, read_fraction: f64) -> Self {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "invalid intensity"
        );
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction must be in [0, 1]"
        );
        WorkloadPoint {
            service,
            intensity,
            read_fraction,
        }
    }
}

impl From<&Workload> for WorkloadPoint {
    fn from(w: &Workload) -> Self {
        WorkloadPoint {
            service: w.service,
            intensity: w.intensity.value(),
            read_fraction: w.mix.read_fraction(),
        }
    }
}

impl From<Workload> for WorkloadPoint {
    fn from(w: Workload) -> Self {
        WorkloadPoint::from(&w)
    }
}

/// The response coefficients of one metric: expected rate =
/// `base + per_intensity * intensity + per_read * read_fraction
///  + interaction * intensity * read_fraction`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricResponse {
    /// Rate at zero load.
    pub base: f64,
    /// Sensitivity to workload intensity.
    pub per_intensity: f64,
    /// Sensitivity to the read fraction.
    pub per_read: f64,
    /// Intensity × read-fraction interaction term.
    pub interaction: f64,
    /// Relative trial-to-trial noise (fraction of the expected value).
    pub relative_noise: f64,
}

/// The generative metric model over a [`MetricCatalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricModel {
    catalog: MetricCatalog,
    /// Response coefficients precomputed per `(service, metric)`. `response`
    /// is a pure function of the catalogue, so this is a lookup table of the
    /// values `compute_response` derives — the samplers call it for every
    /// metric of every profile, fleet-wide.
    responses: Vec<MetricResponse>,
}

impl Default for MetricModel {
    fn default() -> Self {
        MetricModel::new(MetricCatalog::standard())
    }
}

impl MetricModel {
    /// Creates a model over the given catalogue.
    pub fn new(catalog: MetricCatalog) -> Self {
        let mut model = MetricModel {
            catalog,
            responses: Vec::new(),
        };
        model.responses = ServiceKind::ALL
            .iter()
            .flat_map(|&service| {
                model
                    .catalog
                    .descriptors()
                    .iter()
                    .map(move |d| (service, d.id))
                    .collect::<Vec<_>>()
            })
            .map(|(service, id)| model.compute_response(id, service))
            .collect();
        model
    }

    fn service_index(service: ServiceKind) -> usize {
        ServiceKind::ALL
            .iter()
            .position(|&s| s == service)
            .expect("every service kind is in ALL")
    }

    /// The catalogue this model generates values for.
    pub fn catalog(&self) -> &MetricCatalog {
        &self.catalog
    }

    /// How strongly this service exercises the CPU/cache counters.
    fn service_factor(service: ServiceKind) -> f64 {
        match service {
            // RUBiS: CPU + cache heavy dynamic content.
            ServiceKind::Rubis => 1.0,
            // Cassandra: memory/write intensive.
            ServiceKind::Cassandra => 0.7,
            // SPECweb support: mostly I/O.
            ServiceKind::SpecWeb => 0.5,
        }
    }

    /// The response coefficients of metric `id` for `service`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the catalogue.
    pub fn response(&self, id: MetricId, service: ServiceKind) -> MetricResponse {
        self.responses[Self::service_index(service) * self.catalog.len() + id.0]
    }

    fn compute_response(&self, id: MetricId, service: ServiceKind) -> MetricResponse {
        let desc = self
            .catalog
            .get(id)
            .expect("metric id must come from this catalogue");
        let sf = Self::service_factor(service);
        let idx = id.0 as f64;
        match (desc.kind, desc.name.as_str()) {
            // Table-1 events (ids 0..8): strongly informative, especially for RUBiS.
            (MetricKind::Hpc, _) if id.0 < 8 => MetricResponse {
                base: 50.0 + 5.0 * idx,
                per_intensity: (200.0 + 40.0 * idx) * sf,
                per_read: if id.0.is_multiple_of(2) { 60.0 } else { -45.0 } * (1.0 + 0.2 * idx),
                interaction: 25.0 * sf,
                relative_noise: 0.02,
            },
            // FLOPS rate: the Figure-4(a) counter; dominant for SPECweb.
            (MetricKind::Hpc, "flops_rate") => MetricResponse {
                base: 30.0,
                per_intensity: match service {
                    ServiceKind::SpecWeb => 900.0,
                    ServiceKind::Rubis => 350.0,
                    ServiceKind::Cassandra => 250.0,
                },
                per_read: 120.0,
                interaction: 40.0,
                relative_noise: 0.015,
            },
            // Deliberately uninformative counters: almost pure noise.
            (MetricKind::Hpc, "prefetch_hits" | "simd_inst" | "bus_trans_io") => MetricResponse {
                base: 500.0,
                per_intensity: 4.0,
                per_read: 2.0,
                interaction: 0.0,
                relative_noise: 0.25,
            },
            // Remaining HPC events: moderately informative, partially redundant
            // with the Table-1 set.
            (MetricKind::Hpc, _) => MetricResponse {
                base: 80.0 + 3.0 * idx,
                per_intensity: (90.0 + 15.0 * (idx % 5.0)) * sf,
                per_read: if id.0.is_multiple_of(3) { 35.0 } else { -20.0 },
                interaction: 10.0 * sf,
                relative_noise: 0.05,
            },
            // xentop metrics.
            (MetricKind::Xentop, "xentop_cpu_pct") => MetricResponse {
                base: 4.0,
                per_intensity: 82.0 * sf.max(0.7),
                per_read: -6.0,
                interaction: 0.0,
                relative_noise: 0.03,
            },
            (MetricKind::Xentop, "xentop_mem_mb") => MetricResponse {
                base: 750.0,
                per_intensity: 600.0,
                per_read: -120.0,
                interaction: 0.0,
                relative_noise: 0.02,
            },
            (MetricKind::Xentop, "xentop_net_rx_kbps") => MetricResponse {
                base: 20.0,
                per_intensity: 1_800.0,
                per_read: -150.0,
                interaction: 0.0,
                relative_noise: 0.04,
            },
            (MetricKind::Xentop, "xentop_net_tx_kbps") => MetricResponse {
                base: 25.0,
                per_intensity: 9_000.0,
                per_read: 2_500.0,
                interaction: 500.0,
                relative_noise: 0.04,
            },
            (MetricKind::Xentop, "xentop_vbd_rd") => MetricResponse {
                base: 5.0,
                per_intensity: 150.0,
                per_read: 40.0,
                interaction: 700.0,
                relative_noise: 0.05,
            },
            (MetricKind::Xentop, _) => MetricResponse {
                base: 5.0,
                per_intensity: 200.0,
                per_read: -30.0,
                interaction: -600.0,
                relative_noise: 0.05,
            },
        }
    }

    /// Expected per-second rate of metric `id` at workload `point`.
    pub fn expected_rate(&self, id: MetricId, point: &WorkloadPoint) -> f64 {
        let r = self.response(id, point.service);
        (r.base
            + r.per_intensity * point.intensity
            + r.per_read * point.read_fraction
            + r.interaction * point.intensity * point.read_fraction)
            .max(0.0)
    }

    /// Relative noise of metric `id` for the given service.
    pub fn relative_noise(&self, id: MetricId, service: ServiceKind) -> f64 {
        self.response(id, service).relative_noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_traces::RequestMix;

    #[test]
    fn rates_increase_with_intensity() {
        let model = MetricModel::default();
        for &service in &ServiceKind::ALL {
            let lo = WorkloadPoint::new(service, 0.2, 0.5);
            let hi = WorkloadPoint::new(service, 0.9, 0.5);
            // The FLOPS counter must separate volumes for every service (Fig. 4).
            let flops = model.catalog().find("flops_rate").unwrap().id;
            assert!(model.expected_rate(flops, &hi) > model.expected_rate(flops, &lo));
            // xentop CPU must track utilization.
            let cpu = model.catalog().find("xentop_cpu_pct").unwrap().id;
            assert!(model.expected_rate(cpu, &hi) > model.expected_rate(cpu, &lo));
        }
    }

    #[test]
    fn read_write_mix_shifts_signature() {
        let model = MetricModel::default();
        let update_heavy = WorkloadPoint::new(
            ServiceKind::Cassandra,
            0.6,
            RequestMix::update_heavy().read_fraction(),
        );
        let read_mostly = WorkloadPoint::new(ServiceKind::Cassandra, 0.6, 0.95);
        let wr = model.catalog().find("xentop_vbd_wr").unwrap().id;
        let rd = model.catalog().find("xentop_vbd_rd").unwrap().id;
        assert!(model.expected_rate(wr, &update_heavy) > model.expected_rate(wr, &read_mostly));
        assert!(model.expected_rate(rd, &read_mostly) > model.expected_rate(rd, &update_heavy));
    }

    #[test]
    fn table1_metrics_respond_strongly_for_rubis() {
        let model = MetricModel::default();
        let lo = WorkloadPoint::new(ServiceKind::Rubis, 0.2, 0.8);
        let hi = WorkloadPoint::new(ServiceKind::Rubis, 0.8, 0.8);
        for i in 0..8 {
            let id = MetricId(i);
            let delta = model.expected_rate(id, &hi) - model.expected_rate(id, &lo);
            assert!(delta > 50.0, "table-1 metric {i} must respond to load");
        }
    }

    #[test]
    fn noise_metrics_barely_respond() {
        let model = MetricModel::default();
        let id = model.catalog().find("prefetch_hits").unwrap().id;
        let lo = WorkloadPoint::new(ServiceKind::Rubis, 0.1, 0.5);
        let hi = WorkloadPoint::new(ServiceKind::Rubis, 1.0, 0.5);
        let delta = (model.expected_rate(id, &hi) - model.expected_rate(id, &lo)).abs();
        assert!(delta < 10.0);
        assert!(model.relative_noise(id, ServiceKind::Rubis) > 0.1);
    }

    #[test]
    fn rates_are_never_negative() {
        let model = MetricModel::default();
        for &service in &ServiceKind::ALL {
            for intensity in [0.0, 0.3, 0.7, 1.0, 1.4] {
                for read in [0.0, 0.5, 1.0] {
                    let p = WorkloadPoint::new(service, intensity, read);
                    assert!(model
                        .catalog
                        .descriptors()
                        .iter()
                        .all(|d| model.expected_rate(d.id, &p) >= 0.0));
                }
            }
        }
    }

    #[test]
    fn workload_conversion() {
        let w = Workload::with_intensity(ServiceKind::SpecWeb, 0.4, RequestMix::read_only());
        let p = WorkloadPoint::from(&w);
        assert_eq!(p.service, ServiceKind::SpecWeb);
        assert_eq!(p.intensity, 0.4);
        assert_eq!(p.read_fraction, 1.0);
        let p2: WorkloadPoint = w.into();
        assert_eq!(p, p2);
    }

    #[test]
    #[should_panic]
    fn invalid_point_rejected() {
        let _ = WorkloadPoint::new(ServiceKind::Rubis, 0.5, 1.5);
    }
}
