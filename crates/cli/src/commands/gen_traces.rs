//! `spothost gen-traces` — generate calibrated traces and export CSV.

use crate::args::Args;
use spothost_market::io::write_trace_set;
use spothost_market::prelude::*;
use std::path::Path;

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 0)?;
    let days = args.get_positive("days", 28)?;
    let out = args.get_or("out", "traces");
    let markets = match args.get("zone") {
        None => MarketId::all(),
        Some(z) => {
            let zone = Zone::ALL
                .into_iter()
                .find(|zone| zone.name() == z)
                .ok_or_else(|| format!("unknown zone '{z}'"))?;
            MarketId::all_in_zone(zone)
        }
    };
    let catalog = Catalog::ec2_2015();
    let set = TraceSet::generate(&catalog, &markets, seed, SimDuration::days(days));
    write_trace_set(&set, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} traces ({} days, seed {}) to {}/",
        set.len(),
        days,
        seed,
        out
    );
    for (market, trace) in set.iter() {
        println!(
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

    #[test]
    fn generates_zone_traces_to_temp_dir() {
        let dir = std::env::temp_dir().join(format!("spothost-cli-gen-{}", std::process::id()));
        let argv: Vec<String> = [
            "--zone",
            "eu-west-1a",
            "--days",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&parse(&argv).unwrap()).unwrap();
        let n = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(n, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_unknown_zone() {
        let argv: Vec<String> = ["--zone", "atlantis-1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&parse(&argv).unwrap()).is_err());
    }
}
