//! Figure 8: multi-market bidding within a zone vs the average of the
//! four single-market schemes — cost (a), intra-zone price correlation
//! (b), unavailability (c).

use crate::settings::ExpSettings;
use spothost_analysis::series::{LabeledSeries, SeriesSet};
use spothost_core::prelude::*;
use spothost_market::prelude::*;
use spothost_market::stats;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Fig8Row {
    pub zone: Zone,
    pub avg_single_cost_pct: f64,
    pub multi_cost_pct: f64,
    pub avg_single_unavail_pct: f64,
    pub multi_unavail_pct: f64,
    pub intra_zone_correlation: f64,
}

impl Fig8Row {
    /// Cost reduction of multi-market over the average single-market.
    pub fn cost_reduction_pct(&self) -> f64 {
        (1.0 - self.multi_cost_pct / self.avg_single_cost_pct) * 100.0
    }
}

#[derive(Debug, Clone)]
pub struct Fig8 {
    pub rows: Vec<Fig8Row>,
}

pub fn run(settings: &ExpSettings) -> Fig8 {
    let catalog = Catalog::ec2_2015();
    // One flat grid: every zone's four single-market runs (same mechanism
    // combo as multi-market, so the comparison isolates bidding scope)
    // plus its multi-market run, all in a single parallel sweep. Results
    // are bit-identical to the per-cell `run_many` calls.
    let mut cfgs = Vec::new();
    for &zone in &Zone::ALL {
        for size in InstanceType::ALL {
            cfgs.push(
                SchedulerConfig::single_market(MarketId::new(zone, size))
                    .with_mechanism(MechanismCombo::CKPT_LR_LIVE),
            );
        }
        cfgs.push(SchedulerConfig::multi(MarketScope::MultiMarket(zone)));
    }
    let aggs = run_grid(&cfgs, settings.seed0, settings.seeds, settings.horizon);
    let per_zone = InstanceType::ALL.len() + 1;
    let rows = Zone::ALL
        .iter()
        .zip(aggs.chunks(per_zone))
        .map(|(&zone, chunk)| {
            let (singles, multi) = chunk.split_at(InstanceType::ALL.len());
            let avg_cost =
                singles.iter().map(|a| a.normalized_cost_pct()).sum::<f64>() / singles.len() as f64;
            let avg_unavail =
                singles.iter().map(|a| a.unavailability_pct()).sum::<f64>() / singles.len() as f64;
            // Correlation measured on one representative trace set.
            let set = TraceSet::generate(
                &catalog,
                &MarketId::all_in_zone(zone),
                settings.seed0,
                settings.horizon,
            );
            Fig8Row {
                zone,
                avg_single_cost_pct: avg_cost,
                multi_cost_pct: multi[0].normalized_cost_pct(),
                avg_single_unavail_pct: avg_unavail,
                multi_unavail_pct: multi[0].unavailability_pct(),
                intra_zone_correlation: stats::avg_intra_zone_correlation(
                    &set,
                    zone,
                    stats::CORRELATION_GRID,
                ),
            }
        })
        .collect();
    Fig8 { rows }
}

impl Fig8 {
    pub fn row(&self, zone: Zone) -> &Fig8Row {
        self.rows.iter().find(|r| r.zone == zone).unwrap()
    }

    pub fn as_series(&self) -> SeriesSet {
        let mut s = SeriesSet::new(self.rows.iter().map(|r| r.zone.name()));
        s.push(LabeledSeries::new(
            "Average Single-Market",
            self.rows.iter().map(|r| r.avg_single_cost_pct).collect(),
        ));
        s.push(LabeledSeries::new(
            "Multi-Market",
            self.rows.iter().map(|r| r.multi_cost_pct).collect(),
        ));
        s
    }

    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "zone,avg_single_cost_pct,multi_cost_pct,avg_single_unavail_pct,multi_unavail_pct,intra_zone_correlation\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.zone.name(),
                r.avg_single_cost_pct,
                r.multi_cost_pct,
                r.avg_single_unavail_pct,
                r.multi_unavail_pct,
                r.intra_zone_correlation
            ));
        }
        out
    }

    pub fn render(&self) -> String {
        let mut out = String::from("Figure 8: multi-market bidding within a zone\n\n");
        let _ = writeln!(out, "(a) Normalized cost (% of on-demand baseline):");
        out.push_str(&self.as_series().to_text(|v| format!("{v:.1}")));
        let _ = writeln!(out, "\n(b) Average intra-zone price correlation:");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<12} {:.3}",
                r.zone.name(),
                r.intra_zone_correlation
            );
        }
        let _ = writeln!(out, "\n(c) Unavailability (%):");
        let mut s = SeriesSet::new(self.rows.iter().map(|r| r.zone.name()));
        s.push(LabeledSeries::new(
            "Average Single-Market",
            self.rows.iter().map(|r| r.avg_single_unavail_pct).collect(),
        ));
        s.push(LabeledSeries::new(
            "Multi-Market",
            self.rows.iter().map(|r| r.multi_unavail_pct).collect(),
        ));
        out.push_str(&s.to_text(|v| format!("{v:.5}")));
        let _ = writeln!(
            out,
            "\ncost reduction vs avg single-market: {}",
            self.rows
                .iter()
                .map(|r| format!("{} {:.0}%", r.zone.name(), r.cost_reduction_pct()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str(
            "paper: reductions of 8% (us-west-1a) to 52% (us-east-1b); low correlations\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig8 {
        run(&ExpSettings::quick())
    }

    #[test]
    fn multi_market_cheaper_everywhere() {
        let f = fig();
        for r in &f.rows {
            assert!(
                r.multi_cost_pct < r.avg_single_cost_pct,
                "{}: multi {} vs single {}",
                r.zone,
                r.multi_cost_pct,
                r.avg_single_cost_pct
            );
        }
    }

    #[test]
    fn reduction_band_roughly_matches_paper() {
        // Paper: 8%..52%. Allow headroom for the quick settings.
        let f = fig();
        for r in &f.rows {
            let red = r.cost_reduction_pct();
            assert!((4.0..65.0).contains(&red), "{}: {red}%", r.zone);
        }
        // us-east-1b (most uneven size pricing) gains the most.
        let east_b = f.row(Zone::UsEast1b).cost_reduction_pct();
        for r in &f.rows {
            assert!(east_b >= r.cost_reduction_pct() - 1e-9, "{}", r.zone);
        }
    }

    #[test]
    fn intra_zone_correlation_low() {
        let f = fig();
        for r in &f.rows {
            assert!(
                (-0.05..0.7).contains(&r.intra_zone_correlation),
                "{}: {}",
                r.zone,
                r.intra_zone_correlation
            );
        }
    }

    #[test]
    fn multi_market_unavailability_not_worse_in_busy_zones() {
        // Figure 8(c): multi-market lowers unavailability; the effect is
        // strongest where elevated-price regimes make escape valuable.
        let f = fig();
        let r = f.row(Zone::UsEast1a);
        assert!(
            r.multi_unavail_pct <= r.avg_single_unavail_pct * 1.25,
            "us-east-1a: multi {} vs single {}",
            r.multi_unavail_pct,
            r.avg_single_unavail_pct
        );
    }
}
