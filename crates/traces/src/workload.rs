//! Workload descriptions: which service is exercised, how hard, and with what
//! request mix.

use std::fmt;

/// The benchmark services used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Cassandra-like distributed key-value store stressed by YCSB-style clients.
    Cassandra,
    /// SPECweb2009-like multi-tier web service (support/banking/e-commerce).
    SpecWeb,
    /// RUBiS-like three-tier auction site (26 client interaction types).
    Rubis,
}

impl ServiceKind {
    /// All modelled services.
    pub const ALL: [ServiceKind; 3] = [
        ServiceKind::Cassandra,
        ServiceKind::SpecWeb,
        ServiceKind::Rubis,
    ];

    /// A short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Cassandra => "cassandra",
            ServiceKind::SpecWeb => "specweb",
            ServiceKind::Rubis => "rubis",
        }
    }
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The read/write composition of the offered requests.
///
/// The paper distinguishes workloads both by intensity and by *type*
/// (e.g. Cassandra's update-heavy 95%-write mix vs. a read-mostly mix, or the
/// SPECweb support workload being read-only); the mix shifts the low-level
/// metric signature even at identical intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMix {
    /// Fraction of read requests in `[0, 1]`; the rest are writes/updates.
    read_fraction: f64,
}

impl RequestMix {
    /// Creates a mix with the given read fraction.
    ///
    /// # Panics
    ///
    /// Panics if `read_fraction` is outside `[0, 1]` or not finite.
    pub fn new(read_fraction: f64) -> Self {
        assert!(
            read_fraction.is_finite() && (0.0..=1.0).contains(&read_fraction),
            "read fraction must be within [0, 1]"
        );
        RequestMix { read_fraction }
    }

    /// YCSB-style update-heavy mix used for the Cassandra experiments
    /// (95% writes, 5% reads).
    pub fn update_heavy() -> Self {
        RequestMix::new(0.05)
    }

    /// A read-only mix (the SPECweb support workload).
    pub fn read_only() -> Self {
        RequestMix::new(1.0)
    }

    /// A balanced mix.
    pub fn balanced() -> Self {
        RequestMix::new(0.5)
    }

    /// Fraction of reads in `[0, 1]`.
    pub fn read_fraction(self) -> f64 {
        self.read_fraction
    }

    /// Fraction of writes in `[0, 1]`.
    pub fn write_fraction(self) -> f64 {
        1.0 - self.read_fraction
    }
}

impl Default for RequestMix {
    fn default() -> Self {
        RequestMix::balanced()
    }
}

/// Normalized workload intensity: the offered load as a fraction of the peak
/// load the service can sustain at full capacity.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct WorkloadIntensity(f64);

impl WorkloadIntensity {
    /// Zero load.
    pub const ZERO: WorkloadIntensity = WorkloadIntensity(0.0);

    /// Creates an intensity, clamping to `[0, 1.5]` (values above 1.0 represent
    /// unforeseen overload beyond the provisioned peak).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or is negative.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "intensity must be finite and non-negative"
        );
        WorkloadIntensity(value.min(1.5))
    }

    /// The normalized value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts to an absolute client count given the clients served at peak.
    pub fn to_clients(self, peak_clients: u32) -> u32 {
        (self.0 * peak_clients as f64).round() as u32
    }
}

impl Default for WorkloadIntensity {
    fn default() -> Self {
        WorkloadIntensity::ZERO
    }
}

/// A workload observed at one point in time: the service being exercised, the
/// normalized intensity and the request mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The service this workload targets.
    pub service: ServiceKind,
    /// Normalized offered load.
    pub intensity: WorkloadIntensity,
    /// Read/write composition.
    pub mix: RequestMix,
}

impl Workload {
    /// Creates a workload description.
    pub fn new(service: ServiceKind, intensity: WorkloadIntensity, mix: RequestMix) -> Self {
        Workload {
            service,
            intensity,
            mix,
        }
    }

    /// Convenience constructor from a raw intensity value.
    pub fn with_intensity(service: ServiceKind, intensity: f64, mix: RequestMix) -> Self {
        Workload::new(service, WorkloadIntensity::new(intensity), mix)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {:.0}% ({}R/{}W)",
            self.service,
            self.intensity.value() * 100.0,
            (self.mix.read_fraction() * 100.0).round(),
            (self.mix.write_fraction() * 100.0).round()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_constructors() {
        assert_eq!(RequestMix::update_heavy().write_fraction(), 0.95);
        assert_eq!(RequestMix::read_only().read_fraction(), 1.0);
        assert_eq!(RequestMix::balanced().read_fraction(), 0.5);
        assert_eq!(RequestMix::default(), RequestMix::balanced());
    }

    #[test]
    #[should_panic]
    fn request_mix_rejects_out_of_range() {
        let _ = RequestMix::new(1.5);
    }

    #[test]
    fn intensity_clamps_overload() {
        assert_eq!(WorkloadIntensity::new(0.5).value(), 0.5);
        assert_eq!(WorkloadIntensity::new(3.0).value(), 1.5);
        assert_eq!(WorkloadIntensity::new(0.5).to_clients(1000), 500);
    }

    #[test]
    #[should_panic]
    fn intensity_rejects_negative() {
        let _ = WorkloadIntensity::new(-0.1);
    }

    #[test]
    fn workload_display_mentions_service_and_load() {
        let w = Workload::with_intensity(ServiceKind::Cassandra, 0.75, RequestMix::update_heavy());
        let s = w.to_string();
        assert!(s.contains("cassandra"));
        assert!(s.contains("75"));
    }

    #[test]
    fn service_kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ServiceKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), ServiceKind::ALL.len());
    }
}
