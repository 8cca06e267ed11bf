//! Excursion-frequency model: how often does the price exceed a candidate
//! bid "soon"?
//!
//! For a candidate bid `b`, the quantity the scheduler cares about is the
//! probability that the spot price rises above `b` at some point within
//! the next lookahead (one hour by default — one billing period), because
//! that is what revokes the instance. The empirical analogue over the
//! trailing window: the fraction of instants `t` for which some
//! above-`b` excursion intersects `(t, t + lookahead]`. An instant `t` is
//! "at risk" exactly when `t ∈ [run.start − lookahead, run.end)` for some
//! stored run with `price > b`, so the estimate is the measure of the
//! union of those shifted intervals, clipped to the observed window.
//!
//! Runs are stored canonically (adjacent equal-price segments merge), so
//! one-pass and segment-by-segment feeding give identical state, and the
//! estimate is a deterministic function of the fed history.
//!
//! Each bid asked about is tracked from its first query on, so that an
//! answer costs O(1) instead of a sweep over the window. The runs priced
//! above `b` are time-ordered and disjoint, so the union's measure is a
//! sum with one term per such run: `end − max(start − lookahead, end of
//! the previous such run)`, where the oldest run has no predecessor and
//! its term starts at `start − lookahead`. Feeding a run adds its term;
//! a run that leaves the window (or the run cap) takes its term with it
//! and re-bases its successor's term to `start − lookahead`. The answer
//! is that sum, less the part of the oldest term before the observed
//! window's start, over the observed span: the same integer milliseconds
//! the sweep adds, divided the same way.

use spothost_market::time::{SimDuration, SimTime};
use spothost_market::trace::Segment;
use std::collections::VecDeque;

/// One maximal constant-price run kept in the window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Run {
    start: SimTime,
    end: SimTime,
    price: f64,
}

/// The running at-risk measure of one bid that has been asked about.
#[derive(Debug, Clone)]
struct Tracked {
    bid: f64,
    /// `(start − lookahead, end)` of every retained run priced above
    /// `bid`, oldest first.
    runs: VecDeque<(SimTime, SimTime)>,
    /// Milliseconds of the union of those intervals, the oldest counted
    /// from its own start (not clipped to the observed window).
    at_risk: u64,
}

impl Tracked {
    /// A new run above the bid: add the part of its interval that its
    /// predecessor does not already cover.
    fn push(&mut self, from: SimTime, end: SimTime) {
        let covered = self.runs.back().map_or(from, |&(_, last)| from.max(last));
        self.at_risk += end.since(covered).as_millis();
        self.runs.push_back((from, end));
    }

    /// The newest run above the bid grew to `end`.
    fn extend(&mut self, end: SimTime) {
        if let Some(last) = self.runs.back_mut() {
            self.at_risk += end.since(last.1).as_millis();
            last.1 = end;
        }
    }

    /// The oldest run above the bid left: drop its term, and count its
    /// successor's interval from the successor's own start.
    fn pop_front(&mut self) {
        if let Some((from, end)) = self.runs.pop_front() {
            self.at_risk -= end.since(from).as_millis();
            if let Some(&(next, _)) = self.runs.front() {
                self.at_risk += end.since(next).as_millis();
            }
        }
    }
}

/// Sliding-window estimator of P(price > b within the next `lookahead`).
#[derive(Debug, Clone)]
pub struct ExcursionModel {
    window: SimDuration,
    lookahead: SimDuration,
    max_runs: usize,
    runs: VecDeque<Run>,
    /// Start of the first fed segment (for clipping the observed span).
    first_fed: Option<SimTime>,
    /// End of the last fed segment (the observation frontier).
    frontier: SimTime,
    /// Highest price among `runs`; recounted only when a run at that
    /// price leaves.
    max: Option<f64>,
    /// Every bid asked about since the last reset, in ascending order, so
    /// that a run below the lowest one touches none of them.
    tracked: Vec<Tracked>,
    /// Run buffers of the bids a reset dropped, for reuse.
    spare: Vec<VecDeque<(SimTime, SimTime)>>,
}

impl ExcursionModel {
    /// Model over a trailing `window`, asking about excursions within
    /// `lookahead`, holding at most `max_runs` runs (oldest dropped first).
    pub fn new(window: SimDuration, lookahead: SimDuration, max_runs: usize) -> Self {
        let mut m = ExcursionModel {
            window,
            lookahead,
            max_runs,
            runs: VecDeque::new(),
            first_fed: None,
            frontier: SimTime::ZERO,
            max: None,
            tracked: Vec::new(),
            spare: Vec::new(),
        };
        m.reset(window, lookahead, max_runs);
        m
    }

    /// Reinitialise in place to the state of `new(window, lookahead,
    /// max_runs)`, keeping the grown run buffers. Observably identical to
    /// a fresh model.
    pub fn reset(&mut self, window: SimDuration, lookahead: SimDuration, max_runs: usize) {
        assert!(window > SimDuration::ZERO, "window must be positive");
        assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
        assert!(max_runs > 0, "need room for at least one run");
        self.window = window;
        self.lookahead = lookahead;
        self.max_runs = max_runs;
        self.runs.clear();
        self.first_fed = None;
        self.frontier = SimTime::ZERO;
        self.max = None;
        for mut t in self.tracked.drain(..) {
            t.runs.clear();
            self.spare.push(t.runs);
        }
    }

    /// Fold one constant-price segment in. Segments must arrive in time
    /// order; contiguous equal-price segments extend the last run.
    pub fn feed(&mut self, seg: Segment) {
        if seg.end <= seg.start {
            return;
        }
        if self.first_fed.is_none() {
            self.first_fed = Some(seg.start);
        }
        self.frontier = self.frontier.max(seg.end);
        let above = |t: &&mut Tracked| t.bid < seg.price;
        match self.runs.back_mut() {
            Some(last) if last.end == seg.start && last.price == seg.price => {
                last.end = seg.end;
                for t in self.tracked.iter_mut().take_while(above) {
                    t.extend(seg.end);
                }
            }
            _ => {
                self.runs.push_back(Run {
                    start: seg.start,
                    end: seg.end,
                    price: seg.price,
                });
                self.max = Some(self.max.map_or(seg.price, |m| m.max(seg.price)));
                let from = seg.start.saturating_sub(self.lookahead);
                for t in self.tracked.iter_mut().take_while(above) {
                    t.push(from, seg.end);
                }
            }
        }
        // A run whose end fell out of the window can no longer put any
        // instant at risk (its risk interval ends at run.end); past the
        // run cap, the oldest runs go too.
        let cutoff = self.frontier.saturating_sub(self.window);
        while let Some(front) = self.runs.front() {
            if front.end > cutoff && self.runs.len() <= self.max_runs {
                break;
            }
            let price = front.price;
            self.runs.pop_front();
            for t in self.tracked.iter_mut().take_while(|t| t.bid < price) {
                t.pop_front();
            }
            if self.max == Some(price) {
                self.max = self.scan_max();
            }
        }
    }

    /// Has anything been fed yet?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The observation frontier (end of the last fed segment).
    pub fn frontier(&self) -> SimTime {
        self.frontier
    }

    /// How much history the estimate currently rests on (capped at the
    /// window length).
    pub fn observed(&self) -> SimDuration {
        match self.first_fed {
            Some(first) => self.frontier.since(first).min(self.window),
            None => SimDuration::ZERO,
        }
    }

    /// Highest price observed in the trailing window; `None` with no
    /// data. Every retained run intersects the window (eviction keeps
    /// exactly those), so the retained maximum is the window maximum.
    pub fn max_price(&self) -> Option<f64> {
        debug_assert_eq!(self.max, self.scan_max(), "cached window maximum");
        self.max
    }

    fn scan_max(&self) -> Option<f64> {
        self.runs.iter().map(|r| r.price).reduce(f64::max)
    }

    /// Estimated probability that the price exceeds `bid` at some point
    /// within the next `lookahead`. Monotone non-increasing in `bid`.
    /// With no observations yet, returns 1.0 — "don't know" must read as
    /// risky, never as safe. The first query of a bid starts tracking it
    /// (until the next reset), so later answers cost O(1).
    pub fn prob_above(&mut self, bid: f64) -> f64 {
        let span = self.observed();
        if span == SimDuration::ZERO {
            return 1.0;
        }
        let lo = self.frontier.saturating_sub(span);
        let at_risk = if bid.is_nan() {
            // No order to track it in; every run counts as above it.
            self.sweep(bid, lo)
        } else {
            let i = self.track(bid);
            let t = &self.tracked[i];
            // Only the oldest run's interval can reach back before `lo`.
            let before_lo = t
                .runs
                .front()
                .map_or(0, |&(from, _)| lo.since(from).as_millis());
            t.at_risk - before_lo
        };
        debug_assert_eq!(at_risk, self.sweep(bid, lo), "tracked bid {bid}");
        (at_risk as f64 / span.as_millis() as f64).clamp(0.0, 1.0)
    }

    /// Index of `bid` in `tracked`, building its state with the sweep
    /// the first time it is asked about.
    fn track(&mut self, bid: f64) -> usize {
        let i = self.tracked.partition_point(|t| t.bid < bid);
        if self.tracked.get(i).is_some_and(|t| t.bid == bid) {
            return i;
        }
        let mut runs = self.spare.pop().unwrap_or_default();
        runs.extend(
            self.runs
                .iter()
                .filter(|r| r.price > bid)
                .map(|r| (r.start.saturating_sub(self.lookahead), r.end)),
        );
        let at_risk = self.sweep(bid, SimTime::ZERO);
        self.tracked.insert(i, Tracked { bid, runs, at_risk });
        i
    }

    /// Milliseconds of ∪ [run.start − lookahead, run.end) over the runs
    /// priced above `bid`, clipped below at `lo`, by one pass over the
    /// window. Runs are time-ordered and the shift is uniform, so a
    /// covered-watermark sweep suffices. It builds a tracked bid's state
    /// and checks every tracked answer in debug builds.
    fn sweep(&self, bid: f64, lo: SimTime) -> u64 {
        let mut at_risk = 0u64;
        let mut covered = lo;
        for r in &self.runs {
            if r.price <= bid {
                continue;
            }
            let s = r.start.saturating_sub(self.lookahead).max(covered);
            let e = r.end.min(self.frontier);
            if e > s {
                at_risk += (e - s).as_millis();
                covered = e;
            } else if e > covered {
                covered = e;
            }
        }
        at_risk
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

    fn model() -> ExcursionModel {
        ExcursionModel::new(SimDuration::hours(10), SimDuration::hours(1), 256)
    }

    #[test]
    fn no_data_is_maximally_risky() {
        let mut m = model();
        assert_eq!(m.prob_above(100.0), 1.0);
        assert_eq!(m.observed(), SimDuration::ZERO);
    }

    #[test]
    fn calm_history_is_safe_above_the_price() {
        let mut m = model();
        m.feed(seg(0, 10 * 3600, 0.2));
        assert_eq!(m.prob_above(0.3), 0.0);
        // Bidding below the constant price is always at risk.
        assert_eq!(m.prob_above(0.1), 1.0);
    }

    #[test]
    fn spike_exposure_includes_the_lookahead_approach() {
        let mut m = model();
        // 10h observed: a single 1h spike to 1.0 in hours [5, 6).
        m.feed(seg(0, 5 * 3600, 0.2));
        m.feed(seg(5 * 3600, 6 * 3600, 1.0));
        m.feed(seg(6 * 3600, 10 * 3600, 0.2));
        // At risk for bid 0.5: [4h, 6h) → 2 of 10 observed hours.
        let p = m.prob_above(0.5);
        assert!((p - 0.2).abs() < 1e-9, "{p}");
        // Above the spike, nothing is at risk.
        assert_eq!(m.prob_above(1.5), 0.0);
    }

    #[test]
    fn overlapping_risk_intervals_are_not_double_counted() {
        let mut m = model();
        // Two spikes 30 min apart: their shifted intervals overlap.
        m.feed(seg(0, 5 * 3600, 0.2));
        m.feed(seg(5 * 3600, 5 * 3600 + 600, 1.0));
        m.feed(seg(5 * 3600 + 600, 5 * 3600 + 1800, 0.2));
        m.feed(seg(5 * 3600 + 1800, 5 * 3600 + 2400, 1.0));
        m.feed(seg(5 * 3600 + 2400, 10 * 3600, 0.2));
        // Union of [4h, 5h10m) and [4h30m, 5h40m) = [4h, 5h40m) = 100 min.
        let p = m.prob_above(0.5);
        let want = 100.0 * 60.0 / (10.0 * 3600.0);
        assert!((p - want).abs() < 1e-9, "{p} vs {want}");
    }

    #[test]
    fn monotone_non_increasing_in_bid() {
        let mut m = model();
        for (i, p) in [0.3, 0.9, 0.2, 1.4, 0.5, 0.2].iter().enumerate() {
            let s = i as u64 * 3600;
            m.feed(seg(s, s + 3600, *p));
        }
        let mut last = f64::INFINITY;
        for b in [0.0, 0.1, 0.25, 0.4, 0.6, 1.0, 1.5, 2.0] {
            let p = m.prob_above(b);
            assert!(p <= last, "bid {b}: {p} > {last}");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn split_feed_equals_one_pass() {
        let mut one = model();
        let mut two = model();
        one.feed(seg(0, 7200, 0.3));
        one.feed(seg(7200, 9000, 0.7));
        two.feed(seg(0, 1000, 0.3));
        two.feed(seg(1000, 7200, 0.3));
        two.feed(seg(7200, 8000, 0.7));
        two.feed(seg(8000, 9000, 0.7));
        for b in [0.1, 0.3, 0.5, 0.7, 0.9] {
            assert_eq!(one.prob_above(b), two.prob_above(b), "bid {b}");
        }
    }

    #[test]
    fn old_spikes_age_out() {
        let mut m = ExcursionModel::new(SimDuration::hours(2), SimDuration::hours(1), 256);
        m.feed(seg(0, 3600, 9.0));
        m.feed(seg(3600, 4 * 3600, 0.2));
        // The spike ended 3h before the frontier; window is 2h.
        assert_eq!(m.prob_above(0.5), 0.0);
        // ...and it no longer counts towards the window maximum either.
        assert_eq!(m.max_price(), Some(0.2));
    }

    #[test]
    fn max_price_tracks_the_window() {
        let mut m = model();
        assert_eq!(m.max_price(), None);
        m.feed(seg(0, 3600, 0.2));
        assert_eq!(m.max_price(), Some(0.2));
        m.feed(seg(3600, 7200, 1.3));
        m.feed(seg(7200, 9000, 0.4));
        assert_eq!(m.max_price(), Some(1.3));
    }
}
