//! The DejaVu proxy: duplicates a sampled subset of client requests to the
//! profiling environment, at client-session granularity, while adding only a
//! small latency overhead to the production path.

/// Proxy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyConfig {
    /// Fraction of client sessions whose requests are duplicated to the
    /// profiler (the paper duplicates the traffic of one service instance,
    /// i.e. roughly `1/n` of the sessions for an `n`-instance service).
    pub session_sample_fraction: f64,
    /// Latency added to every production request that traverses the proxy,
    /// in milliseconds (§4.4 measures ≈ 3 ms).
    pub added_latency_ms: f64,
    /// Whether duplication is currently enabled (profiling can be periodic or
    /// on-demand).
    pub enabled: bool,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            session_sample_fraction: 0.1,
            added_latency_ms: 3.0,
            enabled: true,
        }
    }
}

/// Statistics accumulated by the proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DuplicatorStats {
    /// Requests forwarded to production.
    pub total_requests: u64,
    /// Requests additionally duplicated to the profiler.
    pub duplicated_requests: u64,
    /// Distinct sessions observed.
    pub sessions_seen: u64,
    /// Distinct sessions selected for duplication.
    pub sessions_sampled: u64,
}

/// The request duplicator.
///
/// Sampling is decided per *session* (a deterministic hash of the session id),
/// never per request, so that a sampled session's cookies and state stay
/// consistent on the clone — the pitfall §3.2.1 calls out.
///
/// # Example
///
/// ```
/// use dejavu_proxy::{ProxyConfig, RequestDuplicator};
///
/// let mut proxy = RequestDuplicator::new(ProxyConfig { session_sample_fraction: 0.5, ..Default::default() });
/// let duplicated = proxy.forward(42, 10);
/// // Either the whole session is duplicated or none of it.
/// assert!(duplicated == 0 || duplicated == 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestDuplicator {
    config: ProxyConfig,
    stats: DuplicatorStats,
    seen_sessions: std::collections::BTreeSet<u64>,
}

impl RequestDuplicator {
    /// Creates a duplicator.
    ///
    /// # Panics
    ///
    /// Panics if the sample fraction is outside `[0, 1]` or the added latency
    /// is negative.
    pub fn new(config: ProxyConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.session_sample_fraction),
            "sample fraction must be in [0, 1]"
        );
        assert!(
            config.added_latency_ms >= 0.0,
            "latency overhead must be non-negative"
        );
        RequestDuplicator {
            config,
            stats: DuplicatorStats::default(),
            seen_sessions: std::collections::BTreeSet::new(),
        }
    }

    /// The proxy configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// Enables or disables duplication (production forwarding is unaffected).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.config.enabled = enabled;
    }

    /// Whether requests from `session_id` are duplicated.
    pub fn samples_session(&self, session_id: u64) -> bool {
        if !self.config.enabled || self.config.session_sample_fraction <= 0.0 {
            return false;
        }
        // Deterministic per-session hash mapped to [0, 1).
        let mut h = session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        (h as f64 / u64::MAX as f64) < self.config.session_sample_fraction
    }

    /// Forwards `requests` requests of one session to production and, if the
    /// session is sampled, duplicates them to the profiler. Returns the number
    /// of duplicated requests.
    pub fn forward(&mut self, session_id: u64, requests: u64) -> u64 {
        self.stats.total_requests += requests;
        if self.seen_sessions.insert(session_id) {
            self.stats.sessions_seen += 1;
        }
        if self.samples_session(session_id) {
            if self.seen_sessions.contains(&session_id)
                && self.stats.sessions_sampled < self.stats.sessions_seen
            {
                self.stats.sessions_sampled += 1;
            }
            self.stats.duplicated_requests += requests;
            requests
        } else {
            0
        }
    }

    /// Latency added to production requests by the proxy, in milliseconds.
    pub fn production_overhead_ms(&self) -> f64 {
        self.config.added_latency_ms
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DuplicatorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_per_session_and_deterministic() {
        let proxy = RequestDuplicator::new(ProxyConfig {
            session_sample_fraction: 0.3,
            ..Default::default()
        });
        for s in 0..100u64 {
            assert_eq!(proxy.samples_session(s), proxy.samples_session(s));
        }
    }

    #[test]
    fn sampled_fraction_roughly_matches_config() {
        let proxy = RequestDuplicator::new(ProxyConfig {
            session_sample_fraction: 0.2,
            ..Default::default()
        });
        let sampled = (0..10_000u64).filter(|&s| proxy.samples_session(s)).count();
        let frac = sampled as f64 / 10_000.0;
        assert!((frac - 0.2).abs() < 0.03, "fraction {frac}");
    }

    #[test]
    fn forward_tracks_stats() {
        let mut proxy = RequestDuplicator::new(ProxyConfig {
            session_sample_fraction: 1.0,
            ..Default::default()
        });
        proxy.forward(1, 5);
        proxy.forward(2, 5);
        let stats = proxy.stats();
        assert_eq!(stats.total_requests, 10);
        assert_eq!(stats.duplicated_requests, 10);
        assert_eq!(stats.sessions_seen, 2);
    }

    #[test]
    fn disabled_proxy_duplicates_nothing() {
        let mut proxy = RequestDuplicator::new(ProxyConfig {
            session_sample_fraction: 1.0,
            enabled: false,
            ..Default::default()
        });
        assert_eq!(proxy.forward(7, 100), 0);
        assert_eq!(proxy.stats().duplicated_requests, 0);
        assert_eq!(proxy.stats().total_requests, 100);
        proxy.set_enabled(true);
        assert_eq!(proxy.forward(7, 100), 100);
    }

    #[test]
    fn overhead_defaults_to_three_ms() {
        let proxy = RequestDuplicator::new(ProxyConfig::default());
        assert!((proxy.production_overhead_ms() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_rejected() {
        let _ = RequestDuplicator::new(ProxyConfig {
            session_sample_fraction: 1.2,
            ..Default::default()
        });
    }
}
