//! Cross-trace statistics: correlations (Figures 8(b), 9(b)) and price
//! volatility (Figure 10).

use crate::gen::TraceSet;
use crate::time::SimDuration;
use crate::trace::PriceTrace;
use crate::types::{MarketId, Zone};

/// Pearson correlation of two equal-length samples. Returns 0 for
/// degenerate inputs (fewer than two points or zero variance) — for price
/// series a constant trace genuinely carries no correlation signal.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "samples must be aligned");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Correlation of two price traces, sampled on a common grid.
pub fn trace_correlation(a: &PriceTrace, b: &PriceTrace, dt: SimDuration) -> f64 {
    let sa = a.sample(dt);
    let sb = b.sample(dt);
    let n = sa.len().min(sb.len());
    pearson(&sa[..n], &sb[..n])
}

/// Grid used for all correlation figures: 5-minute sampling, matching the
/// generator's grid so no information is aliased away.
pub const CORRELATION_GRID: SimDuration = SimDuration(5 * 60 * 1000);

/// Average pairwise correlation among the markets of one zone that the
/// set holds, each pair sampled every `dt` (Figure 8(b) uses
/// [`CORRELATION_GRID`]).
pub fn avg_intra_zone_correlation(set: &TraceSet, zone: Zone, dt: SimDuration) -> f64 {
    let markets: Vec<MarketId> = MarketId::all_in_zone(zone)
        .into_iter()
        .filter(|&m| set.trace(m).is_some())
        .collect();
    let mut acc = 0.0;
    let mut n = 0usize;
    for (i, &a) in markets.iter().enumerate() {
        for &b in &markets[i + 1..] {
            acc += trace_correlation(
                set.trace(a).expect("filtered to present markets"),
                set.trace(b).expect("filtered to present markets"),
                dt,
            );
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

/// Average correlation between same-size markets across two zones
/// (Figure 9(b)).
pub fn avg_cross_zone_correlation(set: &TraceSet, a: Zone, b: Zone) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for ma in MarketId::all_in_zone(a) {
        let mb = MarketId::new(b, ma.itype);
        if let (Some(ta), Some(tb)) = (set.trace(ma), set.trace(mb)) {
            acc += trace_correlation(ta, tb, CORRELATION_GRID);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

/// Time-weighted price standard deviation per market (Figure 10).
pub fn price_std(set: &TraceSet, market: MarketId) -> Option<f64> {
    set.trace(market).map(|t| t.time_weighted_std())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::time::SimTime;
    use crate::trace::PricePoint;
    use crate::types::InstanceType;

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_inputs() {
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn trace_correlation_of_identical_traces_is_one() {
        let t = PriceTrace::new(
            vec![
                PricePoint {
                    at: SimTime::ZERO,
                    price: 1.0,
                },
                PricePoint {
                    at: SimTime::minutes(30),
                    price: 2.0,
                },
                PricePoint {
                    at: SimTime::minutes(60),
                    price: 0.5,
                },
            ],
            SimTime::hours(2),
        );
        assert!((trace_correlation(&t, &t, SimDuration::minutes(5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generated_correlations_are_weak_but_structured() {
        // Intra-zone correlation should exceed cross-zone correlation, and
        // both should be modest — the factor-model structure behind the
        // paper's Figures 8(b) and 9(b).
        let c = Catalog::ec2_2015();
        let set = TraceSet::generate(&c, &MarketId::all(), 31, SimDuration::days(45));
        let intra = avg_intra_zone_correlation(&set, Zone::UsEast1a, CORRELATION_GRID);
        let cross = avg_cross_zone_correlation(&set, Zone::UsEast1a, Zone::EuWest1a);
        assert!(intra > cross, "intra {intra} <= cross {cross}");
        assert!(intra < 0.7, "intra-zone correlation too strong: {intra}");
        assert!(cross < 0.4, "cross-zone correlation too strong: {cross}");
    }

    #[test]
    fn us_east_prices_more_volatile_than_eu_west() {
        // Figure 10's claim is statistical: a single 60-day sample can be
        // dominated by one heavy-tailed spike (eu-west spikes are rare but
        // cap at 15x a *pricier* on-demand base), so average the std over
        // several independent trace sets, as the paper averages over runs.
        let c = Catalog::ec2_2015();
        let markets = [
            MarketId::new(Zone::UsEast1a, InstanceType::XLarge),
            MarketId::new(Zone::EuWest1a, InstanceType::XLarge),
        ];
        let (mut east, mut west) = (0.0, 0.0);
        let seeds = 8;
        for seed in 0..seeds {
            let set = TraceSet::generate(&c, &markets, seed, SimDuration::days(60));
            east += price_std(&set, markets[0]).unwrap();
            west += price_std(&set, markets[1]).unwrap();
        }
        let (east, west) = (east / seeds as f64, west / seeds as f64);
        assert!(
            east > west,
            "us-east avg std {east} <= eu-west avg std {west}"
        );
    }
}
