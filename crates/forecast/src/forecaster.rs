//! Per-market forecaster: the excursion model plus the adaptive bid rule.
//!
//! A [`MarketForecaster`] is fed the market's price history incrementally
//! (each segment exactly once, in order) and answers the scheduler's
//! question at a billing boundary: *what is the cheapest bid that is
//! predicted to survive the next hour with probability ≥ 1 − risk
//! budget?* Bidding lower than the paper's fixed cap cannot reduce the
//! price paid (spot bills at the hour-start price regardless of the bid),
//! but it converts price spikes into *revocations*, whose partial final
//! hour is free — provided they stay rare enough that forced on-demand
//! fallback doesn't eat the savings. Hence a small risk budget and a
//! conservative fallback to the cap whenever the model lacks data.

use crate::excursion::ExcursionModel;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::trace::Segment;

/// Tuning knobs for a [`MarketForecaster`]. The defaults are sized for
/// the workspace's generated traces (multi-week horizons, hour-scale
/// price dynamics).
#[derive(Debug, Clone, Copy)]
pub struct ForecastParams {
    /// Trailing window for the excursion-frequency model.
    pub excursion_window: SimDuration,
    /// Excursion lookahead — "within the next hour" per the bid question.
    pub lookahead: SimDuration,
    /// Minimum observed history before the model's answers are trusted;
    /// until then the adaptive rule bids the provider cap.
    pub warmup: SimDuration,
    /// Headroom the chosen bid must keep over the highest price observed
    /// in the excursion window. The window is short, and a spike that
    /// beats its recent record is exactly the event that forces a
    /// migration — the excursion frequency alone cannot see it coming,
    /// so the margin buys tail room the history cannot testify to.
    pub tail_margin: f64,
    /// Hard cap on the runs the excursion model stores.
    pub max_runs: usize,
}

impl Default for ForecastParams {
    fn default() -> Self {
        ForecastParams {
            excursion_window: SimDuration::days(3),
            lookahead: SimDuration::hours(1),
            warmup: SimDuration::days(1),
            tail_margin: 1.5,
            max_runs: 4096,
        }
    }
}

/// The adaptive bid rule's answer for one market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidDecision {
    /// The bid to place (≤ the provider cap).
    pub bid: f64,
    /// Predicted P(revocation within the lookahead) at that bid; `None`
    /// while the model is still warming up (the bid is then the cap).
    pub predicted_risk: Option<f64>,
}

/// Candidate bids tried by [`MarketForecaster::decide_bid`], as multiples
/// of the on-demand price, cheapest first. The provider cap is always
/// appended as the last resort, so the rule degrades to the paper's
/// fixed-cap policy when nothing cheaper clears the risk budget.
pub const BID_LADDER: [f64; 7] = [1.1, 1.3, 1.6, 2.0, 2.5, 3.0, 4.0];

/// Online forecaster for one spot market.
#[derive(Debug, Clone)]
pub struct MarketForecaster {
    params: ForecastParams,
    excursion: ExcursionModel,
}

impl MarketForecaster {
    pub fn new(params: ForecastParams) -> Self {
        MarketForecaster {
            excursion: ExcursionModel::new(
                params.excursion_window,
                params.lookahead,
                params.max_runs,
            ),
            params,
        }
    }

    /// Reinitialise in place to the state of `MarketForecaster::new(params)`,
    /// keeping the model's grown buffers. A reset forecaster answers
    /// every query bit-identically to a fresh one, which is what lets
    /// sweep workers reuse forecaster scratch across simulation runs.
    pub fn reset(&mut self, params: ForecastParams) {
        self.excursion
            .reset(params.excursion_window, params.lookahead, params.max_runs);
        self.params = params;
    }

    /// Fold one constant-price segment into the model. Segments must
    /// arrive in time order and must not overlap previously fed history
    /// (each observation counts once).
    pub fn feed(&mut self, seg: Segment) {
        self.excursion.feed(seg);
    }

    /// End of the fed history; the caller owes the span `[fed_to, now)`.
    pub fn fed_to(&self) -> SimTime {
        self.excursion.frontier()
    }

    pub fn params(&self) -> &ForecastParams {
        &self.params
    }

    /// Has enough history accumulated to trust the model?
    pub fn warmed_up(&self) -> bool {
        self.excursion.observed() >= self.params.warmup
    }

    /// Estimated P(price > bid within the next lookahead).
    pub fn prob_above(&mut self, bid: f64) -> f64 {
        self.excursion.prob_above(bid)
    }

    /// Adaptive bid rule: the cheapest ladder bid whose predicted
    /// revocation probability is within `risk_budget` *and* that keeps
    /// `tail_margin` headroom over the window's observed maximum price,
    /// clamped to `max_bid`; the cap itself is the last resort. Until the
    /// model is warmed up, bids the cap outright (matching the paper's
    /// fixed policy) and reports no risk estimate.
    pub fn decide_bid(
        &mut self,
        on_demand_price: f64,
        max_bid: f64,
        risk_budget: f64,
    ) -> BidDecision {
        if !self.warmed_up() {
            return BidDecision {
                bid: max_bid,
                predicted_risk: None,
            };
        }
        let floor = self
            .excursion
            .max_price()
            .map_or(0.0, |m| m * self.params.tail_margin);
        let mut prev = f64::NAN;
        for mult in BID_LADDER {
            let bid = (mult * on_demand_price).min(max_bid);
            if bid == prev {
                continue; // clamped duplicates collapse onto the cap
            }
            prev = bid;
            if bid < floor {
                continue; // not enough headroom over the recent record
            }
            let risk = self.prob_above(bid);
            if risk <= risk_budget {
                return BidDecision {
                    bid,
                    predicted_risk: Some(risk),
                };
            }
        }
        BidDecision {
            bid: max_bid,
            predicted_risk: Some(self.prob_above(max_bid)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start_s: u64, end_s: u64, price: f64) -> Segment {
        Segment {
            start: SimTime::secs(start_s),
            end: SimTime::secs(end_s),
            price,
        }
    }

    fn warmed_calm() -> MarketForecaster {
        let mut f = MarketForecaster::new(ForecastParams::default());
        // Two days of a flat 0.25 price: fully warmed, zero risk above it.
        f.feed(seg(0, 2 * 24 * 3600, 0.25));
        f
    }

    #[test]
    fn cold_model_bids_the_cap() {
        let mut f = MarketForecaster::new(ForecastParams::default());
        let d = f.decide_bid(1.0, 4.0, 0.01);
        assert_eq!(d.bid, 4.0);
        assert_eq!(d.predicted_risk, None);
    }

    #[test]
    fn calm_market_gets_the_cheapest_ladder_bid() {
        let mut f = warmed_calm();
        assert!(f.warmed_up());
        let d = f.decide_bid(1.0, 4.0, 0.01);
        assert_eq!(d.bid, 1.1);
        assert_eq!(d.predicted_risk, Some(0.0));
    }

    #[test]
    fn risky_ladder_rungs_are_skipped() {
        let spiky = |params: ForecastParams| {
            let mut f = MarketForecaster::new(params);
            // Two days at 0.25 with hourly spikes to 1.4 every 6 hours:
            // low bids are frequently exceeded.
            let mut t = 0u64;
            while t < 2 * 24 * 3600 {
                f.feed(seg(t, t + 5 * 3600, 0.25));
                f.feed(seg(t + 5 * 3600, t + 6 * 3600, 1.4));
                t += 6 * 3600;
            }
            f
        };
        // With the default 1.5x tail margin, the bid must clear
        // 1.5 * 1.4 = 2.1: the first tall-enough rung is 2.5.
        let d = spiky(ForecastParams::default()).decide_bid(1.0, 4.0, 0.01);
        assert_eq!(d.bid, 2.5);
        assert_eq!(d.predicted_risk, Some(0.0));
        // With the margin disabled, the excursion frequency alone
        // decides: 1.6 clears the spikes, and a generous budget even
        // tolerates the frequently-exceeded cheapest rung.
        let mut flat = spiky(ForecastParams {
            tail_margin: 0.0,
            ..ForecastParams::default()
        });
        let d = flat.decide_bid(1.0, 4.0, 0.01);
        assert_eq!(d.bid, 1.6);
        assert_eq!(d.predicted_risk, Some(0.0));
        let loose = flat.decide_bid(1.0, 4.0, 0.5);
        assert_eq!(loose.bid, 1.1);
    }

    #[test]
    fn ladder_clamps_to_a_low_provider_cap() {
        let mut f = MarketForecaster::new(ForecastParams::default());
        // Constant price just above every affordable rung.
        f.feed(seg(0, 2 * 24 * 3600, 1.7));
        let d = f.decide_bid(1.0, 1.5, 0.01);
        assert_eq!(d.bid, 1.5);
        assert_eq!(d.predicted_risk, Some(1.0));
    }

    #[test]
    fn fed_to_tracks_the_frontier() {
        let mut f = MarketForecaster::new(ForecastParams::default());
        assert_eq!(f.fed_to(), SimTime::ZERO);
        f.feed(seg(0, 3600, 0.2));
        assert_eq!(f.fed_to(), SimTime::secs(3600));
        f.feed(seg(3600, 3600, 0.2)); // zero-length: ignored
        assert_eq!(f.fed_to(), SimTime::secs(3600));
    }

    #[test]
    fn reset_matches_fresh_bit_for_bit() {
        let mut reused = MarketForecaster::new(ForecastParams::default());
        // Dirty it with an arbitrary history and tracked bids, then reset.
        let mut t = 0u64;
        while t < 3 * 24 * 3600 {
            reused.feed(seg(t, t + 3600, 0.2 + (t % 7) as f64 * 0.1));
            t += 3600;
        }
        reused.decide_bid(1.0, 4.0, 0.01);
        reused.prob_above(0.4);
        reused.reset(ForecastParams::default());
        let mut fresh = MarketForecaster::new(ForecastParams::default());
        assert_eq!(reused.fed_to(), fresh.fed_to());
        assert!(!reused.warmed_up());
        // Feed both the same history and compare every estimate bitwise.
        let mut t = 0u64;
        while t < 2 * 24 * 3600 {
            let s = seg(t, t + 1800, 0.1 + ((t / 1800) % 5) as f64 * 0.3);
            reused.feed(s);
            fresh.feed(s);
            t += 1800;
        }
        for bid in [0.1, 0.4, 0.9, 1.3] {
            assert_eq!(
                reused.prob_above(bid).to_bits(),
                fresh.prob_above(bid).to_bits(),
                "bid {bid}"
            );
        }
        assert_eq!(
            reused.decide_bid(1.0, 4.0, 0.01),
            fresh.decide_bid(1.0, 4.0, 0.01)
        );
    }

    #[test]
    fn decide_is_deterministic() {
        let (mut a, mut b) = (warmed_calm(), warmed_calm());
        assert_eq!(a.decide_bid(1.0, 4.0, 0.01), b.decide_bid(1.0, 4.0, 0.01));
    }
}
