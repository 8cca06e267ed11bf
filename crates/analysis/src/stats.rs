//! Scalar sample statistics.

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Mean and sample standard deviation in one pass over the data
/// (Welford's algorithm — numerically stable for long accumulations).
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let mut n = 0.0f64;
    let mut m = 0.0f64;
    let mut m2 = 0.0f64;
    for &x in xs {
        n += 1.0;
        let d = x - m;
        m += d / n;
        m2 += d * (x - m);
    }
    if n < 2.0 {
        (m, 0.0)
    } else {
        (m, (m2 / (n - 1.0)).sqrt())
    }
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. Selects the two
/// order statistics it reads from a copy, in linear time, instead of
/// sorting it.
///
/// NaN handling: inputs are ordered by IEEE 754 `totalOrder` (`total_cmp`),
/// which places NaN above every finite value (and -NaN below), so the
/// function never panics on NaN — a NaN in the sample surfaces as the top
/// percentiles going NaN rather than as a crash mid-report. Callers that
/// must exclude NaN should filter before calling. `total_cmp` calls two
/// values equal only when their bits are, so the result does not depend
/// on which of equal values the selection picks.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    if xs.is_empty() {
        return 0.0;
    }
    if xs.len() == 1 {
        return xs[0];
    }
    let mut v = xs.to_vec();
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let (_, &mut at_lo, above) = v.select_nth_unstable_by(lo, f64::total_cmp);
    // `hi` is `lo` or `lo + 1`; order statistic `lo + 1` is the least
    // value above `lo`.
    let at_hi = if hi == lo {
        at_lo
    } else {
        *above
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .expect("hi < len, so values lie above lo")
    };
    at_lo + (at_hi - at_lo) * frac
}

/// Pinball (quantile) loss of predicting `pred` for quantile level `q`
/// when `target` is realized. The proper scoring rule for quantile
/// forecasts: under-prediction is weighted by `q`, over-prediction by
/// `1 - q`, so the expected loss is minimized by the true `q`-quantile.
pub fn pinball_loss(target: f64, pred: f64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let d = target - pred;
    if d >= 0.0 {
        q * d
    } else {
        (q - 1.0) * d
    }
}

/// Fraction of `(target, pred)` pairs with `target <= pred` — the
/// empirical coverage of a `q`-quantile forecast, which should be close
/// to `q` when the forecaster is calibrated. 0 for an empty sample.
pub fn empirical_coverage(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let covered = pairs.iter().filter(|(t, p)| t <= p).count();
    covered as f64 / pairs.len() as f64
}

/// First `x` at which a sampled curve `(xs, ys)` reaches `threshold`,
/// linearly interpolated between adjacent samples; `None` if it never
/// does. `xs` must be sorted ascending and the same length as `ys`.
/// Used by sensitivity sweeps to answer "at what fault rate does the SLO
/// break" without re-running the sweep at finer granularity.
pub fn first_crossing(xs: &[f64], ys: &[f64], threshold: f64) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "first_crossing needs paired samples");
    for i in 0..xs.len() {
        if ys[i] >= threshold {
            if i == 0 {
                return Some(xs[0]);
            }
            let (x0, y0) = (xs[i - 1], ys[i - 1]);
            let (x1, y1) = (xs[i], ys[i]);
            if y1 <= y0 {
                return Some(x1);
            }
            return Some(x0 + (threshold - y0) / (y1 - y0) * (x1 - x0));
        }
    }
    None
}

/// First `x` past which a sampled curve `(xs, ys)` stays at or above
/// `threshold` for the rest of the sweep — the *sustained* counterpart
/// of [`first_crossing`], robust to a single noisy sample poking above
/// the bar and dipping back. Linearly interpolated off the last
/// below-threshold sample; `Some(xs[0])` if the whole curve sits at or
/// above; `None` if the curve ends below (it never breaks for good).
/// `xs` must be sorted ascending and the same length as `ys`.
pub fn first_sustained_crossing(xs: &[f64], ys: &[f64], threshold: f64) -> Option<f64> {
    assert_eq!(
        xs.len(),
        ys.len(),
        "first_sustained_crossing needs paired samples"
    );
    if *ys.last()? < threshold {
        return None;
    }
    match ys.iter().rposition(|&y| y < threshold) {
        None => Some(xs[0]),
        Some(i) => {
            let (x0, y0) = (xs[i], ys[i]);
            let (x1, y1) = (xs[i + 1], ys[i + 1]);
            Some(x0 + (threshold - y0) / (y1 - y0) * (x1 - x0))
        }
    }
}

/// Trapezoidal area under a sampled curve `(xs, ys)`. `xs` must be
/// sorted ascending and the same length as `ys`; fewer than two samples
/// have no area. Sensitivity sweeps use the area *difference* between
/// two curves over the same grid as a single scalar for "how much better
/// is strategy A than B across the whole sweep" (e.g. the diversification
/// win in `repro storms`).
pub fn auc(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "auc needs paired samples");
    xs.windows(2)
        .zip(ys.windows(2))
        .map(|(x, y)| (x[1] - x[0]) * 0.5 * (y[0] + y[1]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std of this classic set is ~2.138.
        assert!((std_dev(&xs) - 2.138089935).abs() < 1e-6);
        let (m, s) = mean_std(&xs);
        assert!((m - mean(&xs)).abs() < 1e-12);
        assert!((s - std_dev(&xs)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn auc_is_trapezoidal() {
        // Unit square under y=1, then a triangle under y=x.
        assert_eq!(auc(&[0.0, 1.0], &[1.0, 1.0]), 1.0);
        assert!((auc(&[0.0, 0.5, 1.0], &[0.0, 0.5, 1.0]) - 0.5).abs() < 1e-12);
        assert_eq!(auc(&[3.0], &[9.0]), 0.0);
        assert_eq!(auc(&[], &[]), 0.0);
        // Non-uniform grid.
        assert!((auc(&[0.0, 1.0, 4.0], &[2.0, 2.0, 2.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn sustained_crossing_ignores_transient_spikes() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        // A transient spike above the bar at x=1 dips back at x=2: the
        // sustained crossing interpolates between x=2 and x=3, where
        // `first_crossing` would report the noise at x<1.
        let ys = [0.0, 5.0, 1.0, 3.0];
        let sustained = first_sustained_crossing(&xs, &ys, 2.0).unwrap();
        assert!((sustained - 2.5).abs() < 1e-12, "got {sustained}");
        assert!(first_crossing(&xs, &ys, 2.0).unwrap() < 1.0);
        // Ends below the bar: never breaks for good.
        assert_eq!(
            first_sustained_crossing(&xs, &[0.0, 5.0, 1.0, 1.9], 2.0),
            None
        );
        // Entirely above: breaks from the start.
        assert_eq!(
            first_sustained_crossing(&xs, &[3.0, 4.0, 5.0, 6.0], 2.0),
            Some(0.0)
        );
        assert_eq!(first_sustained_crossing(&[], &[], 2.0), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // Unsorted input is handled.
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_tolerates_nan_without_panicking() {
        // Regression: `partial_cmp().expect(..)` used to panic here.
        let xs = [2.0, f64::NAN, 1.0, 3.0];
        // total_cmp sorts NaN above the finite values: low/mid percentiles
        // stay finite, the max percentile reads NaN.
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&xs, 100.0).is_nan());
        // An all-NaN sample is NaN at every level, still no panic.
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
    }

    #[test]
    fn percentile_single_element_and_extreme_p() {
        let one = [42.5];
        assert_eq!(percentile(&one, 0.0), 42.5);
        assert_eq!(percentile(&one, 50.0), 42.5);
        assert_eq!(percentile(&one, 100.0), 42.5);
        // Extreme p on a larger sample pins to min/max exactly.
        let xs = [5.0, -1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), -1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    /// The percentile as it was computed before order-statistic
    /// selection: from a fully sorted copy.
    fn sorted_percentile(xs: &[f64], p: f64) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        if v.len() == 1 {
            return v[0];
        }
        let rank = p / 100.0 * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn percentile_is_bit_identical_to_the_sorted_reference(
            picks in prop::collection::vec((0..16usize, -1e3..1e3f64), 1..40),
            whole_p in 0..101u32,
            any_p in 0.0..100.0f64,
            use_whole in prop::bool::ANY,
        ) {
            // Specials, repeated freely, so samples hold NaN of both signs,
            // both zeros, both infinities and duplicates.
            const SPECIAL: [f64; 8] = [
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.0,
                f64::MIN_POSITIVE,
            ];
            let xs: Vec<f64> = picks
                .iter()
                .map(|&(i, x)| SPECIAL.get(i).copied().unwrap_or(x))
                .collect();
            let p = if use_whole { f64::from(whole_p) } else { any_p };
            prop_assert_eq!(
                percentile(&xs, p).to_bits(),
                sorted_percentile(&xs, p).to_bits(),
                "p = {}, xs = {:?}",
                p,
                xs
            );
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0,100]")]
    fn percentile_rejects_out_of_range_p() {
        percentile(&[1.0], 100.5);
    }

    #[test]
    fn first_crossing_interpolates() {
        let xs = [0.0, 0.1, 0.2, 0.5];
        let ys = [0.0, 0.0, 0.4, 1.0];
        // Crosses 0.2 halfway between x=0.1 (y=0) and x=0.2 (y=0.4).
        let x = first_crossing(&xs, &ys, 0.2).expect("crosses");
        assert!((x - 0.15).abs() < 1e-12);
        // Never reaches 2.0.
        assert_eq!(first_crossing(&xs, &ys, 2.0), None);
        // Already at/above threshold at the first sample.
        assert_eq!(first_crossing(&xs, &ys, 0.0), Some(0.0));
        // Flat segment at the threshold: report the sample itself.
        let ys = [0.0, 0.3, 0.3, 0.3];
        assert_eq!(first_crossing(&xs, &ys, 0.3), Some(0.1));
    }

    #[test]
    fn first_crossing_empty_series() {
        assert_eq!(first_crossing(&[], &[], 0.5), None);
    }

    #[test]
    fn first_crossing_never_reached() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.1, 0.2, 0.3];
        assert_eq!(first_crossing(&xs, &ys, 0.4), None);
    }

    #[test]
    fn first_crossing_at_first_point() {
        // At-or-above at index 0 returns the first x, even when the
        // series later dips back below the threshold.
        let xs = [3.0, 4.0, 5.0];
        let ys = [0.9, 0.1, 0.95];
        assert_eq!(first_crossing(&xs, &ys, 0.5), Some(3.0));
    }

    #[test]
    fn first_crossing_on_descending_series() {
        // A step down *onto* the threshold (y1 <= y0 with y1 >= t) must
        // report the sample itself, not extrapolate through the step.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.2, 0.1, 0.8, 0.6];
        // First at-or-above sample is i=2; rising segment interpolates.
        let x = first_crossing(&xs, &ys, 0.8).expect("crosses");
        assert!((x - 2.0).abs() < 1e-12);
        // Threshold below the whole descending tail: crossing happens on
        // the rising edge into i=2, interpolated between 0.1 and 0.8.
        let x = first_crossing(&xs, &ys, 0.45).expect("crosses");
        assert!((x - 1.5).abs() < 1e-12);
        // A strictly descending series that starts above the threshold
        // crosses at its first sample.
        let ys = [0.9, 0.7, 0.5, 0.3];
        assert_eq!(first_crossing(&xs, &ys, 0.6), Some(0.0));
        // ...and never crosses a threshold above its start.
        assert_eq!(first_crossing(&xs, &ys, 1.0), None);
    }

    #[test]
    #[should_panic(expected = "paired samples")]
    fn first_crossing_rejects_mismatched_lengths() {
        first_crossing(&[0.0, 1.0], &[0.5], 0.2);
    }

    #[test]
    fn pinball_loss_is_a_proper_quantile_score() {
        // Exact prediction costs nothing.
        assert_eq!(pinball_loss(2.0, 2.0, 0.9), 0.0);
        // Under-prediction weighted by q, over-prediction by 1-q.
        assert!((pinball_loss(3.0, 2.0, 0.9) - 0.9).abs() < 1e-12);
        assert!((pinball_loss(1.0, 2.0, 0.9) - 0.1).abs() < 1e-12);
        // For q=0.9 on U{1..10}, loss over the sample is minimized near
        // the 9th value, not the median.
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        let loss_at =
            |p: f64| -> f64 { sample.iter().map(|&t| pinball_loss(t, p, 0.9)).sum::<f64>() };
        assert!(loss_at(9.0) < loss_at(5.0));
        assert!(loss_at(9.0) < loss_at(8.0));
        assert!(loss_at(9.0) <= loss_at(10.0));
    }

    #[test]
    fn empirical_coverage_counts_covered_targets() {
        assert_eq!(empirical_coverage(&[]), 0.0);
        let pairs = [(1.0, 2.0), (3.0, 2.0), (2.0, 2.0), (0.5, 2.0)];
        assert!((empirical_coverage(&pairs) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_naive_on_large_sample() {
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 100.0).collect();
        let (m, s) = mean_std(&xs);
        assert!((m - mean(&xs)).abs() < 1e-9);
        assert!((s - std_dev(&xs)).abs() < 1e-9);
    }
}
