//! `spothost analyze` — statistics over a trace directory.

use crate::args::{Args, Flag};
use spothost_analysis::table::TextTable;
use spothost_market::io::read_trace_set;
use spothost_market::prelude::*;
use spothost_market::stats::{avg_intra_zone_correlation, trace_correlation};
use std::fmt::Write as _;
use std::path::Path;

pub const FLAGS: &[Flag] = &[
    Flag::value("traces", "DIR", "trace directory, as gen-traces writes it"),
    Flag::value("sample-mins", "M", "correlation sampling step, in minutes"),
];

pub fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let dir = args
        .get("traces")
        .ok_or("analyze requires --traces DIR (see gen-traces)")?;
    let dt = args.get_duration("sample-mins", 5, SimDuration::minutes(1))?;
    let catalog = Catalog::ec2_2015();
    let set =
        read_trace_set(&catalog, Path::new(dir)).map_err(|e| format!("--traces {dir}: {e}"))?;
    // A Pearson correlation of two samples is ±1 by construction, and of
    // one is no number at all: the step must fit twice into the horizon.
    let minute = SimDuration::minutes(1).as_millis();
    let max_step = set.horizon().as_millis().saturating_sub(1) / (2 * minute);
    let step = dt.as_millis() / minute;
    if step > max_step {
        return Err(format!(
            "--sample-mins must be <= {max_step} to take three samples of the {:.1}-day horizon, got {step}",
            set.horizon().as_days_f64()
        ));
    }

    let _ = writeln!(
        out,
        "{} markets over {:.1} days\n",
        set.len(),
        set.horizon().as_days_f64()
    );
    let mut t = TextTable::new([
        "market",
        "mean $/h",
        "std $/h",
        "max $/h",
        "spot/od",
        "% above od",
    ]);
    for (market, trace) in set.iter() {
        let pon = catalog.on_demand_price(market);
        t.row([
            market.to_string(),
            format!("{:.4}", trace.time_weighted_mean()),
            format!("{:.4}", trace.time_weighted_std()),
            format!("{:.3}", trace.max_price()),
            format!("{:.2}", trace.time_weighted_mean() / pon),
            format!("{:.2}%", trace.fraction_above(pon) * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    // Correlations where we have whole zones.
    for zone in Zone::ALL {
        let markets: Vec<MarketId> = MarketId::all_in_zone(zone)
            .into_iter()
            .filter(|m| set.trace(*m).is_some())
            .collect();
        if markets.len() >= 2 {
            let _ = writeln!(
                out,
                "avg intra-zone correlation {zone}: {:.3}",
                avg_intra_zone_correlation(&set, zone, dt)
            );
        }
    }
    // Pairwise correlation of the first two markets (example diagnostic).
    let loaded: Vec<(MarketId, &PriceTrace)> = set.iter().collect();
    if loaded.len() >= 2 {
        let (ma, ta) = loaded[0];
        let (mb, tb) = loaded[1];
        let _ = writeln!(
            out,
            "correlation {ma} vs {mb}: {:.3}",
            trace_correlation(ta, tb, dt)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use spothost_market::io::write_trace_set;

    fn run(items: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        super::run(&parse(&[FLAGS], &argv).unwrap(), &mut out).map(|()| out)
    }

    #[test]
    fn analyzes_a_generated_directory() {
        let dir = std::env::temp_dir().join(format!("spothost-cli-an-{}", std::process::id()));
        let catalog = Catalog::ec2_2015();
        let set = TraceSet::generate(
            &catalog,
            &MarketId::all_in_zone(Zone::UsWest1a),
            3,
            SimDuration::days(2),
        );
        write_trace_set(&set, &dir).unwrap();
        run(&["--traces", dir.to_str().unwrap()]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn requires_traces_flag() {
        assert!(run(&[]).is_err());
    }
}
