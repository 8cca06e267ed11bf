//! Market-scope arbitrage: how widening the bidding scope from one market
//! to a zone to a pair of regions lowers cost — and when chasing cheap
//! volatile markets backfires on availability (the paper's §4.4–4.5).
//!
//! ```text
//! cargo run --release --example multi_region_arbitrage
//! ```

use spothost::core::prelude::*;
use spothost::market::prelude::*;
use spothost::market::stats;

fn main() {
    let horizon = SimDuration::days(60);
    let seeds = 8;
    let units = 8; // an xlarge-equivalent service

    // --- price correlations: why arbitrage works ----------------------------
    let catalog = Catalog::ec2_2015();
    let set = TraceSet::generate(&catalog, &MarketId::all(), 7, horizon);
    println!("why arbitrage works: spot markets move independently\n");
    for zone in Zone::ALL {
        println!(
            "  intra-zone correlation {:<12} {:>6.3}",
            zone.name(),
            stats::avg_intra_zone_correlation(&set, zone, stats::CORRELATION_GRID)
        );
    }
    println!(
        "  cross-region us-east-1a/eu-west-1a {:>6.3}\n",
        stats::avg_cross_zone_correlation(&set, Zone::UsEast1a, Zone::EuWest1a)
    );

    // --- widening the scope --------------------------------------------------
    println!("scope                                   cost%   unavail%  migrations/hr");
    let run_scope = |label: &str, scope: MarketScope| {
        let cfg = SchedulerConfig::multi(scope).with_capacity_units(units);
        let agg = run_many(&cfg, 0, seeds, horizon);
        println!(
            "{:<38} {:>6.1}   {:>8.5}   {:.4}",
            label,
            agg.normalized_cost_pct(),
            agg.unavailability_pct(),
            agg.forced_per_hour.mean + agg.planned_reverse_per_hour.mean
        );
        agg
    };

    run_scope(
        "single market (us-east-1a xlarge)",
        MarketScope::Single(MarketId::new(Zone::UsEast1a, InstanceType::XLarge)),
    );
    run_scope(
        "multi-market (us-east-1a, all sizes)",
        MarketScope::MultiMarket(Zone::UsEast1a),
    );
    run_scope(
        "multi-region (us-east-1a + us-east-1b)",
        MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsEast1b]),
    );
    let stable = run_scope(
        "multi-region (eu-west-1a alone)",
        MarketScope::MultiMarket(Zone::EuWest1a),
    );
    let chased = run_scope(
        "multi-region (us-east-1b + eu-west-1a)",
        MarketScope::MultiRegion(vec![Zone::UsEast1b, Zone::EuWest1a]),
    );

    println!("\nthe catch: pairing stable eu-west with cheap-but-volatile us-east-1b");
    println!(
        "cut cost but raised unavailability {:.5}% -> {:.5}% — the greedy scheduler",
        stable.unavailability_pct(),
        chased.unavailability_pct()
    );
    println!("chases the cheapest market regardless of its stability (Figure 9(c));");
    println!("the paper leaves stability-aware bidding as future work.");
}
