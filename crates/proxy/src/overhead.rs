//! Network and latency overhead accounting for the proxy (§4.4 of the paper).

/// Network overhead of duplicating one service instance's inbound traffic to
/// the profiling environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkOverhead {
    /// Number of instances the service runs on.
    pub num_instances: u32,
    /// Ratio of inbound (client request) to outbound (response) traffic;
    /// the paper assumes 1:10 for typical services.
    pub inbound_outbound_ratio: f64,
}

impl NetworkOverhead {
    /// Creates the overhead model.
    ///
    /// # Panics
    ///
    /// Panics if `num_instances` is zero or the ratio is not positive.
    pub fn new(num_instances: u32, inbound_outbound_ratio: f64) -> Self {
        assert!(num_instances > 0, "need at least one instance");
        assert!(inbound_outbound_ratio > 0.0, "ratio must be positive");
        NetworkOverhead {
            num_instances,
            inbound_outbound_ratio,
        }
    }

    /// The paper's running example: 100 instances, 1:10 inbound/outbound.
    pub fn paper_example() -> Self {
        NetworkOverhead::new(100, 0.1)
    }

    /// Fraction of the service's *inbound* traffic that is duplicated
    /// (continuously profiling a single instance duplicates `1/n` of it).
    pub fn duplicated_inbound_fraction(&self) -> f64 {
        1.0 / self.num_instances as f64
    }

    /// Fraction of the service's *total* (inbound + outbound) traffic that the
    /// duplication adds.
    pub fn total_traffic_fraction(&self) -> f64 {
        let inbound_share = self.inbound_outbound_ratio / (1.0 + self.inbound_outbound_ratio);
        self.duplicated_inbound_fraction() * inbound_share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_is_about_a_tenth_of_a_percent() {
        let o = NetworkOverhead::paper_example();
        assert!((o.duplicated_inbound_fraction() - 0.01).abs() < 1e-12);
        let total = o.total_traffic_fraction();
        assert!(total < 0.001 + 1e-6, "total fraction {total}");
        assert!(total > 0.0005, "total fraction {total}");
    }

    #[test]
    fn fewer_instances_mean_more_overhead() {
        let few = NetworkOverhead::new(2, 0.1);
        let many = NetworkOverhead::new(50, 0.1);
        assert!(few.total_traffic_fraction() > many.total_traffic_fraction());
    }

    #[test]
    #[should_panic]
    fn zero_instances_rejected() {
        let _ = NetworkOverhead::new(0, 0.1);
    }
}
