//! Property-based tests of the forecast estimators: whatever price
//! history is drawn, the quantile estimator must be monotone in `q` and
//! bounded by the observed extremes, the excursion model must be
//! monotone in the bid and a proper probability, both must be
//! deterministic, and feeding a history in one pass must equal feeding
//! it cut at arbitrary points (the scheduler feeds incrementally; the
//! backtest feeds in bulk — they must agree). The excursion model's
//! tracked answers, its cached window maximum and the bid rule must
//! equal the same quantities recomputed by plain scans, whatever feeds
//! and queries interleave.

use proptest::prelude::*;
use spothost_forecast::forecaster::BID_LADDER;
use spothost_forecast::{
    BidDecision, ExcursionModel, ForecastParams, MarketForecaster, WindowQuantile,
};
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::trace::Segment;

/// A price history as (duration seconds, price) runs starting at t=0.
fn arb_history() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((60u64..20_000, 0.01f64..5.0), 1..40)
}

/// Materialize a history into contiguous segments.
fn segments(history: &[(u64, f64)]) -> Vec<Segment> {
    let mut t = 0u64;
    history
        .iter()
        .map(|&(d, p)| {
            let s = Segment {
                start: SimTime::secs(t),
                end: SimTime::secs(t + d),
                price: p,
            };
            t += d;
            s
        })
        .collect()
}

/// Split every segment at `frac` of its length (where that makes a
/// non-degenerate cut), yielding a different segmentation of the same
/// price function.
fn resegment(segs: &[Segment], frac: f64) -> Vec<Segment> {
    let mut out = Vec::new();
    for s in segs {
        let d = s.duration().as_millis();
        let cut = (d as f64 * frac) as u64;
        if cut == 0 || cut >= d {
            out.push(*s);
        } else {
            let mid = s.start + SimDuration::millis(cut);
            out.push(Segment {
                start: s.start,
                end: mid,
                price: s.price,
            });
            out.push(Segment {
                start: mid,
                end: s.end,
                price: s.price,
            });
        }
    }
    out
}

fn quantile_window() -> SimDuration {
    SimDuration::hours(6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantile_monotone_and_bounded(history in arb_history()) {
        let mut w = WindowQuantile::new(quantile_window(), 4096);
        for s in segments(&history) {
            w.feed(s);
        }
        let lo = w.min().expect("fed");
        let hi = w.max().expect("fed");
        prop_assert!(lo <= hi);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = w.quantile(q).expect("fed");
            prop_assert!(v >= last, "q={} gave {} after {}", q, v, last);
            prop_assert!((lo..=hi).contains(&v), "q={} gave {} outside [{}, {}]", q, v, lo, hi);
            last = v;
        }
    }

    #[test]
    fn quantile_one_pass_equals_split_feed(history in arb_history(), frac in 0.05f64..0.95) {
        let segs = segments(&history);
        let mut one = WindowQuantile::new(quantile_window(), 4096);
        let mut two = WindowQuantile::new(quantile_window(), 4096);
        for s in &segs {
            one.feed(*s);
        }
        for s in resegment(&segs, frac) {
            two.feed(s);
        }
        prop_assert_eq!(one.len(), two.len(), "storage must be canonical");
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            prop_assert_eq!(one.quantile(q), two.quantile(q), "q={}", q);
        }
    }

    #[test]
    fn excursion_monotone_probability(history in arb_history()) {
        let mut m = ExcursionModel::new(SimDuration::hours(6), SimDuration::hours(1), 4096);
        for s in segments(&history) {
            m.feed(s);
        }
        let mut last = f64::INFINITY;
        for i in 0..=25 {
            let bid = i as f64 * 0.2;
            let p = m.prob_above(bid);
            prop_assert!((0.0..=1.0).contains(&p), "bid {} gave {}", bid, p);
            prop_assert!(p <= last, "bid {} gave {} after {}", bid, p, last);
            last = p;
        }
        // Above the global maximum nothing is ever at risk; at zero the
        // whole (positive-priced) window is.
        prop_assert_eq!(m.prob_above(5.1), 0.0);
        prop_assert_eq!(m.prob_above(0.0), 1.0);
    }

    #[test]
    fn excursion_one_pass_equals_split_feed(history in arb_history(), frac in 0.05f64..0.95) {
        let segs = segments(&history);
        let mut one = ExcursionModel::new(SimDuration::hours(6), SimDuration::hours(1), 4096);
        let mut two = ExcursionModel::new(SimDuration::hours(6), SimDuration::hours(1), 4096);
        for s in &segs {
            one.feed(*s);
        }
        for s in resegment(&segs, frac) {
            two.feed(s);
        }
        for i in 0..=25 {
            let bid = i as f64 * 0.2;
            prop_assert_eq!(one.prob_above(bid), two.prob_above(bid), "bid {}", bid);
        }
    }

    #[test]
    fn forecaster_is_deterministic(history in arb_history()) {
        let build = || {
            let mut f = MarketForecaster::new(ForecastParams::default());
            for s in segments(&history) {
                f.feed(s);
            }
            f
        };
        let (mut a, mut b) = (build(), build());
        prop_assert_eq!(a.prob_above(1.0), b.prob_above(1.0));
        prop_assert_eq!(
            a.decide_bid(1.0, 4.0, 0.01),
            b.decide_bid(1.0, 4.0, 0.01)
        );
    }

    #[test]
    fn window_quantile_is_deterministic(history in arb_history()) {
        let build = || {
            let mut w = WindowQuantile::new(SimDuration::days(2), 4096);
            for s in segments(&history) {
                w.feed(s);
            }
            w
        };
        let (a, b) = (build(), build());
        prop_assert_eq!(a.median(), b.median());
        prop_assert_eq!(a.quantile(0.9), b.quantile(0.9));
    }
}

/// Prices a drawn history takes: some equal to ladder rungs at an
/// on-demand price of 1.0, so a run can sit exactly on an asked bid.
const PRICES: [f64; 9] = [0.1, 0.2, 0.5, 1.0, 1.1, 1.3, 2.0, 2.6, 4.5];

/// Bids asked about: every price above, between and beyond them.
const BIDS: [f64; 14] = [
    0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 1.1, 1.3, 1.6, 2.0, 2.5, 3.0, 4.0, 5.0,
];

/// One step of an interleaved history: feed a segment (after a gap,
/// sometimes), ask about a bid, or run the bid rule.
#[derive(Debug, Clone)]
enum Op {
    Feed { gap_s: u64, len_s: u64, price: f64 },
    Ask(f64),
    Decide { cap: f64, budget: f64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..10, 1u64..7_200, 60u64..21_600, 0usize..126).prop_map(|(kind, gap_s, len_s, i)| {
        match kind {
            0 => Op::Feed {
                gap_s,
                len_s,
                price: PRICES[i % PRICES.len()],
            },
            1..=5 => Op::Feed {
                gap_s: 0,
                len_s,
                price: PRICES[i % PRICES.len()],
            },
            6 | 7 => Op::Ask(BIDS[i % BIDS.len()]),
            _ => Op::Decide {
                cap: [1.5, 2.0, 4.0][i % 3],
                budget: [0.0, 0.01, 0.1, 0.5, 1.0, 0.2][i % 6],
            },
        }
    })
}

fn arb_params() -> impl Strategy<Value = ForecastParams> {
    (
        1u64..72,
        1u64..180,
        prop_oneof![1usize..9, Just(4096usize)],
        0u64..24,
        0usize..3,
    )
        .prop_map(
            |(window_h, lookahead_m, max_runs, warmup_h, m)| ForecastParams {
                excursion_window: SimDuration::hours(window_h),
                lookahead: SimDuration::minutes(lookahead_m),
                warmup: SimDuration::hours(warmup_h),
                tail_margin: [0.0, 1.0, 1.5][m],
                max_runs,
            },
        )
}

/// The excursion model and the bid rule restated as plain scans over a
/// list of runs, recomputed from scratch on every call.
struct Reference {
    params: ForecastParams,
    /// `(start, end, price)` of each retained constant-price run.
    runs: Vec<(SimTime, SimTime, f64)>,
    first_fed: Option<SimTime>,
    frontier: SimTime,
}

impl Reference {
    fn new(params: ForecastParams) -> Self {
        Reference {
            params,
            runs: Vec::new(),
            first_fed: None,
            frontier: SimTime::ZERO,
        }
    }

    fn feed(&mut self, s: Segment) {
        if s.end <= s.start {
            return;
        }
        self.first_fed.get_or_insert(s.start);
        self.frontier = self.frontier.max(s.end);
        match self.runs.last_mut() {
            Some(last) if last.1 == s.start && last.2 == s.price => last.1 = s.end,
            _ => self.runs.push((s.start, s.end, s.price)),
        }
        let cutoff = self.frontier.saturating_sub(self.params.excursion_window);
        self.runs.retain(|r| r.1 > cutoff);
        let excess = self.runs.len().saturating_sub(self.params.max_runs);
        self.runs.drain(..excess);
    }

    fn observed(&self) -> SimDuration {
        self.first_fed.map_or(SimDuration::ZERO, |first| {
            self.frontier.since(first).min(self.params.excursion_window)
        })
    }

    fn max_price(&self) -> Option<f64> {
        self.runs.iter().map(|r| r.2).reduce(f64::max)
    }

    /// Measure of ∪ [start − lookahead, end) over the runs above `bid`,
    /// clipped to the observed window, over the observed span.
    fn prob_above(&self, bid: f64) -> f64 {
        let span = self.observed();
        if span == SimDuration::ZERO {
            return 1.0;
        }
        let mut at_risk = 0u64;
        let mut covered = self.frontier.saturating_sub(span);
        for &(start, end, price) in &self.runs {
            if price <= bid {
                continue;
            }
            let s = start.saturating_sub(self.params.lookahead).max(covered);
            let e = end.min(self.frontier);
            if e > s {
                at_risk += (e - s).as_millis();
                covered = e;
            } else if e > covered {
                covered = e;
            }
        }
        (at_risk as f64 / span.as_millis() as f64).clamp(0.0, 1.0)
    }

    fn decide_bid(&self, pon: f64, cap: f64, budget: f64) -> BidDecision {
        if self.observed() < self.params.warmup {
            return BidDecision {
                bid: cap,
                predicted_risk: None,
            };
        }
        let floor = self
            .max_price()
            .map_or(0.0, |m| m * self.params.tail_margin);
        let mut prev = f64::NAN;
        for mult in BID_LADDER {
            let bid = (mult * pon).min(cap);
            if bid == prev {
                continue;
            }
            prev = bid;
            if bid < floor {
                continue;
            }
            let risk = self.prob_above(bid);
            if risk <= budget {
                return BidDecision {
                    bid,
                    predicted_risk: Some(risk),
                };
            }
        }
        BidDecision {
            bid: cap,
            predicted_risk: Some(self.prob_above(cap)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Feeds and queries interleave over random histories (with gaps and
    /// merging runs), windows, lookaheads and run caps down to 1: every
    /// answer equals the sweep bit for bit, the window maximum equals a
    /// scan, and the bid rule equals the one rebuilt from the sweep.
    #[test]
    fn tracked_answers_equal_the_sweep(
        params in arb_params(),
        ops in prop::collection::vec(arb_op(), 1..240),
    ) {
        let mut model =
            ExcursionModel::new(params.excursion_window, params.lookahead, params.max_runs);
        let mut forecaster = MarketForecaster::new(params);
        let mut reference = Reference::new(params);
        let mut t = 0u64;
        for op in ops {
            match op {
                Op::Feed { gap_s, len_s, price } => {
                    let seg = Segment {
                        start: SimTime::secs(t + gap_s),
                        end: SimTime::secs(t + gap_s + len_s),
                        price,
                    };
                    t += gap_s + len_s;
                    model.feed(seg);
                    forecaster.feed(seg);
                    reference.feed(seg);
                }
                Op::Ask(bid) => {
                    let want = reference.prob_above(bid).to_bits();
                    prop_assert_eq!(model.prob_above(bid).to_bits(), want, "bid {}", bid);
                    prop_assert_eq!(forecaster.prob_above(bid).to_bits(), want, "bid {}", bid);
                }
                Op::Decide { cap, budget } => {
                    let got = forecaster.decide_bid(1.0, cap, budget);
                    let want = reference.decide_bid(1.0, cap, budget);
                    prop_assert_eq!(got.bid.to_bits(), want.bid.to_bits());
                    prop_assert_eq!(
                        got.predicted_risk.map(f64::to_bits),
                        want.predicted_risk.map(f64::to_bits)
                    );
                }
            }
            prop_assert_eq!(model.max_price(), reference.max_price());
        }
    }
}
