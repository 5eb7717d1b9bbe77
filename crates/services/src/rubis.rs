//! The RUBiS-like three-tier auction service model.
//!
//! RUBiS drives the paper's motivating experiment (Figure 1) and the proxy
//! overhead study (§4.4). It defines 26 client interaction types (browsing,
//! bidding, selling, …) whose frequencies are given by a transition table; the
//! mix shifts how expensive the average request is.

use crate::perf::{PerfSample, QueueingModel};
use crate::service::{EvalContext, ServiceModel};
use crate::slo::Slo;
use dejavu_traces::{RequestMix, ServiceKind};

/// Number of client interaction types RUBiS defines.
pub const NUM_INTERACTIONS: usize = 26;

/// The names of the 26 RUBiS client interactions.
pub const INTERACTION_NAMES: [&str; NUM_INTERACTIONS] = [
    "Home",
    "Register",
    "RegisterUser",
    "Browse",
    "BrowseCategories",
    "SearchItemsInCategory",
    "BrowseRegions",
    "BrowseCategoriesInRegion",
    "SearchItemsInRegion",
    "ViewItem",
    "ViewUserInfo",
    "ViewBidHistory",
    "BuyNowAuth",
    "BuyNow",
    "StoreBuyNow",
    "PutBidAuth",
    "PutBid",
    "StoreBid",
    "PutCommentAuth",
    "PutComment",
    "StoreComment",
    "Sell",
    "SelectCategoryToSellItem",
    "SellItemForm",
    "RegisterItem",
    "AboutMe",
];

/// A RUBiS interaction mix: the probability of each interaction type.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionMix {
    probabilities: Vec<f64>,
}

impl InteractionMix {
    /// The default browsing-dominated mix (read-mostly), normalized to sum to 1.
    pub fn browsing() -> Self {
        // Browsing/viewing interactions dominate; write interactions
        // (bids, comments, registrations) are rare.
        let mut p = vec![0.0; NUM_INTERACTIONS];
        let heavy = [3usize, 4, 5, 9, 10];
        let medium = [0usize, 6, 7, 8, 11, 25];
        for &i in &heavy {
            p[i] = 0.12;
        }
        for &i in &medium {
            p[i] = 0.05;
        }
        let assigned: f64 = p.iter().sum();
        let rest = (1.0 - assigned) / (NUM_INTERACTIONS - heavy.len() - medium.len()) as f64;
        for (i, prob) in p.iter_mut().enumerate() {
            if *prob == 0.0 {
                *prob = rest;
            }
            debug_assert!(i < NUM_INTERACTIONS);
        }
        InteractionMix { probabilities: p }
    }

    /// A bidding-heavy mix (more writes).
    pub fn bidding() -> Self {
        let mut base = Self::browsing();
        for &i in &[15usize, 16, 17, 13, 14] {
            base.probabilities[i] += 0.05;
        }
        let sum: f64 = base.probabilities.iter().sum();
        for prob in &mut base.probabilities {
            *prob /= sum;
        }
        base
    }

    /// Per-interaction probabilities (sums to 1).
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The fraction of read-only interactions in the mix.
    pub fn read_fraction(&self) -> f64 {
        // Interactions that store data (writes).
        const WRITES: [usize; 7] = [2, 14, 17, 20, 24, 12, 15];
        1.0 - WRITES.iter().map(|&i| self.probabilities[i]).sum::<f64>()
    }
}

/// The RUBiS service model.
///
/// # Example
///
/// ```
/// use dejavu_services::{RubisService, ServiceModel};
/// use dejavu_services::service::EvalContext;
/// use dejavu_simcore::SimTime;
///
/// let svc = RubisService::default_browsing();
/// let s = svc.evaluate(0.4, &EvalContext::steady(SimTime::ZERO, 6.0));
/// assert!(svc.slo().is_met(&s));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RubisService {
    mix: InteractionMix,
    queueing: QueueingModel,
    slo_latency_ms: f64,
}

impl RubisService {
    /// Creates the service with the default browsing mix and the Figure-1 SLO.
    pub fn default_browsing() -> Self {
        RubisService {
            mix: InteractionMix::browsing(),
            queueing: QueueingModel {
                base_latency_ms: 25.0,
                ..QueueingModel::default()
            },
            slo_latency_ms: 100.0,
        }
    }
}

impl ServiceModel for RubisService {
    fn kind(&self) -> ServiceKind {
        ServiceKind::Rubis
    }

    fn default_mix(&self) -> RequestMix {
        RequestMix::new(self.mix.read_fraction().clamp(0.0, 1.0))
    }

    fn slo(&self) -> Slo {
        Slo::LatencyMs(self.slo_latency_ms)
    }

    fn evaluate(&self, intensity: f64, ctx: &EvalContext) -> PerfSample {
        // Write interactions hit the database tier and cost slightly more.
        let write_cost = 1.0 + 0.2 * (1.0 - self.mix.read_fraction());
        self.queueing
            .sample(intensity * write_cost, ctx.capacity_units, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu_simcore::SimTime;

    #[test]
    fn interaction_mix_is_a_distribution() {
        for mix in [InteractionMix::browsing(), InteractionMix::bidding()] {
            let sum: f64 = mix.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert_eq!(mix.probabilities().len(), NUM_INTERACTIONS);
            assert!(mix.probabilities().iter().all(|&p| p >= 0.0));
        }
        assert_eq!(INTERACTION_NAMES.len(), NUM_INTERACTIONS);
    }

    #[test]
    fn bidding_mix_has_more_writes() {
        assert!(
            InteractionMix::bidding().read_fraction() < InteractionMix::browsing().read_fraction()
        );
    }

    #[test]
    fn bidding_service_needs_more_capacity() {
        let browse = RubisService::default_browsing();
        let bid = RubisService {
            mix: InteractionMix::bidding(),
            ..RubisService::default_browsing()
        };
        assert!(bid.required_capacity(0.8) >= browse.required_capacity(0.8));
    }

    #[test]
    fn slo_and_kind() {
        let svc = RubisService::default_browsing();
        assert_eq!(svc.kind(), ServiceKind::Rubis);
        assert_eq!(svc.slo(), Slo::LatencyMs(100.0));
        assert!(svc.default_mix().read_fraction() > 0.7);
    }

    #[test]
    fn latency_grows_under_load() {
        let svc = RubisService::default_browsing();
        let low = svc.evaluate(0.2, &EvalContext::steady(SimTime::ZERO, 5.0));
        let high = svc.evaluate(0.9, &EvalContext::steady(SimTime::ZERO, 5.0));
        assert!(high.latency_ms > low.latency_ms * 1.5);
    }
}
