//! Walk-forward backtest: how well do online window quantiles calibrate
//! on a price trace?
//!
//! The harness feeds a [`WindowQuantile`] the way an online consumer
//! would see the trace: feed the training prefix, then march an
//! evaluation grid across the suffix — at each grid point predict the
//! price quantiles, score them against the price realized one step later,
//! and only then reveal that step's history to the estimator. No future
//! data ever reaches it before it is scored against it. No bid decision
//! reads a quantile: the adaptive bid rule reads the excursion model, so
//! this estimator lives here, fed only by the backtest.
//!
//! Scoring follows standard quantile-forecast practice: pinball loss
//! (the proper scoring rule for quantiles) plus empirical coverage (a
//! `q`-quantile forecast should cover the target a `q` fraction of the
//! time when calibrated).

use crate::quantile::WindowQuantile;
use spothost_analysis::{empirical_coverage, mean, pinball_loss};
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::trace::PriceTrace;

/// Walk-forward evaluation settings.
#[derive(Debug, Clone)]
pub struct BacktestParams {
    /// Trailing window of the quantile estimator under test.
    pub quantile_window: SimDuration,
    /// Hard cap on the runs the estimator stores.
    pub max_runs: usize,
    /// Trace prefix fed to the estimator before any scoring.
    pub train: SimDuration,
    /// Evaluation grid spacing; also the prediction horizon (predict at
    /// `t`, score against the price at `t + step`).
    pub step: SimDuration,
    /// Quantile levels to score.
    pub quantiles: Vec<f64>,
}

impl Default for BacktestParams {
    fn default() -> Self {
        BacktestParams {
            quantile_window: SimDuration::days(2),
            max_runs: 4096,
            train: SimDuration::days(3),
            step: SimDuration::hours(1),
            quantiles: vec![0.5, 0.9, 0.99],
        }
    }
}

/// Calibration of one quantile level over the evaluation suffix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileScore {
    /// The quantile level scored.
    pub q: f64,
    /// Mean pinball loss (lower is better; comparable across models on
    /// the same trace, not across traces).
    pub mean_pinball: f64,
    /// Fraction of targets at or below the forecast; calibrated ≈ `q`.
    pub coverage: f64,
}

/// Result of one walk-forward run.
#[derive(Debug, Clone, PartialEq)]
pub struct BacktestReport {
    /// Number of scored grid points.
    pub samples: usize,
    /// One entry per requested quantile level, in request order.
    pub scores: Vec<QuantileScore>,
}

impl BacktestReport {
    /// Worst absolute calibration gap `|coverage − q|` across levels.
    pub fn worst_coverage_gap(&self) -> f64 {
        self.scores
            .iter()
            .map(|s| (s.coverage - s.q).abs())
            .fold(0.0, f64::max)
    }
}

/// Run a walk-forward backtest of the window quantile over `trace`.
///
/// Returns `None` when the trace is too short to score even one grid
/// point after the training prefix.
pub fn walk_forward(trace: &PriceTrace, params: &BacktestParams) -> Option<BacktestReport> {
    let mut model = WindowQuantile::new(params.quantile_window, params.max_runs);
    let train_end = SimTime::ZERO + params.train;
    if train_end + params.step > trace.end() {
        return None;
    }
    for seg in trace.segments_in_iter(SimTime::ZERO, train_end) {
        model.feed(seg);
    }
    // Per quantile level: pinball losses and (target, prediction) pairs.
    let mut losses: Vec<Vec<f64>> = vec![Vec::new(); params.quantiles.len()];
    let mut pairs: Vec<Vec<(f64, f64)>> = vec![Vec::new(); params.quantiles.len()];
    let mut samples = 0usize;
    let mut t = train_end;
    while t + params.step <= trace.end() {
        let horizon = t + params.step;
        let target = trace.price_at(horizon);
        for (i, &q) in params.quantiles.iter().enumerate() {
            // The training prefix is non-empty, so estimates exist.
            if let Some(pred) = model.quantile(q) {
                losses[i].push(pinball_loss(target, pred, q));
                pairs[i].push((target, pred));
            }
        }
        samples += 1;
        // Only now reveal the step we just scored against.
        for seg in trace.segments_in_iter(t, horizon) {
            model.feed(seg);
        }
        t = horizon;
    }
    let scores = params
        .quantiles
        .iter()
        .enumerate()
        .map(|(i, &q)| QuantileScore {
            q,
            mean_pinball: mean(&losses[i]),
            coverage: empirical_coverage(&pairs[i]),
        })
        .collect();
    Some(BacktestReport { samples, scores })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::trace::PricePoint;

    fn pt(t_s: u64, price: f64) -> PricePoint {
        PricePoint {
            at: SimTime::secs(t_s),
            price,
        }
    }

    /// A week alternating 4h at 0.2 and 4h at 0.6.
    fn square_wave() -> PriceTrace {
        let mut points = Vec::new();
        let mut t = 0u64;
        while t < 7 * 24 * 3600 {
            points.push(pt(t, 0.2));
            points.push(pt(t + 4 * 3600, 0.6));
            t += 8 * 3600;
        }
        PriceTrace::new(points, SimTime::secs(7 * 24 * 3600))
    }

    #[test]
    fn too_short_a_trace_yields_nothing() {
        let trace = PriceTrace::constant(0.3, SimTime::secs(3600));
        assert_eq!(walk_forward(&trace, &BacktestParams::default()), None);
    }

    #[test]
    fn constant_price_is_perfectly_calibrated() {
        let trace = PriceTrace::constant(0.3, SimTime::secs(7 * 24 * 3600));
        let report = walk_forward(&trace, &BacktestParams::default()).expect("long enough");
        assert!(report.samples > 90);
        for s in &report.scores {
            assert!(s.mean_pinball < 1e-12, "q={}: {}", s.q, s.mean_pinball);
            // Every forecast equals the constant price, so every target
            // is covered at every level.
            assert_eq!(s.coverage, 1.0);
        }
    }

    #[test]
    fn square_wave_quantiles_calibrate_roughly() {
        let report = walk_forward(&square_wave(), &BacktestParams::default()).expect("long");
        // The p99 forecast sits at the high level (0.6), covering every
        // target; the median covers only the low half.
        let p99 = report.scores.last().expect("levels");
        assert_eq!(p99.q, 0.99);
        assert!(p99.coverage > 0.95, "{}", p99.coverage);
        let p50 = &report.scores[0];
        assert!(
            (0.3..=0.7).contains(&p50.coverage),
            "median coverage {}",
            p50.coverage
        );
        assert!(report.worst_coverage_gap() <= 0.25);
    }

    #[test]
    fn backtest_is_deterministic() {
        let trace = square_wave();
        let a = walk_forward(&trace, &BacktestParams::default());
        let b = walk_forward(&trace, &BacktestParams::default());
        assert_eq!(a, b);
    }
}
