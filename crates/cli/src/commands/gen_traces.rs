//! `spothost gen-traces` — generate calibrated traces and export CSV.

use crate::args::{Args, Flag};
use crate::commands::simulate::parse_zone;
use crate::commands::SEED;
use spothost_market::io::write_trace_set;
use spothost_market::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

pub const FLAGS: &[Flag] = &[
    SEED,
    Flag::value("days", "D", "days of price history"),
    Flag::value("out", "DIR", "directory to write one CSV per market to"),
    Flag::value("zone", "Z", "only the markets of zone Z"),
];

pub fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let seed = args.get_u64("seed", 0)?;
    let horizon = args.get_duration("days", 28, SimDuration::days(1))?;
    let dir = args.get_or("out", "traces");
    let markets = match args.get("zone") {
        None => MarketId::all(),
        Some(z) => MarketId::all_in_zone(parse_zone(z)?),
    };
    let catalog = Catalog::ec2_2015();
    let set = TraceSet::generate(&catalog, &markets, seed, horizon);
    write_trace_set(&set, Path::new(dir)).map_err(|e| format!("--out {dir}: {e}"))?;
    let _ = writeln!(
        out,
        "wrote {} traces ({} days, seed {}) to {}/",
        set.len(),
        horizon.as_days_f64(),
        seed,
        dir
    );
    for (market, trace) in set.iter() {
        let _ = writeln!(
            out,
            "  {:<22} {:>6} price changes, mean ${:.4}/h",
            market.to_string(),
            trace.num_changes(),
            trace.time_weighted_mean()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(items: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        super::run(&parse(&[FLAGS], &argv).unwrap(), &mut out).map(|()| out)
    }

    #[test]
    fn generates_zone_traces_to_temp_dir() {
        let dir = std::env::temp_dir().join(format!("spothost-cli-gen-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap();
        run(&["--zone", "eu-west-1a", "--days", "2", "--out", dir_s]).unwrap();
        let n = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(n, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_unknown_zone() {
        assert_eq!(
            run(&["--zone", "atlantis-1"]).unwrap_err(),
            "unknown zone 'atlantis-1'"
        );
    }
}
