//! `spothost timeline` — record one seed into a columnar store and
//! render its event stream as an ASCII Gantt chart: lease occupancy per
//! market, outage/degraded windows, migration markers.

use crate::args::{Args, Flag};
use crate::commands::simulate::{build_cfg, decode, imported_traces, record_run};
use crate::commands::{DAYS, SEED, WIDTH};
use spothost_core::telemetry::render_timeline;
use spothost_market::prelude::*;
use spothost_market::time::SimTime;
use std::fmt::Write as _;

pub const FLAGS: &[Flag] = &[DAYS, SEED, WIDTH];

pub fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let cfg = build_cfg(args)?;
    let seed = args.get_u64("seed", 0)?;
    let width = args.get_u64("width", 96)? as usize;
    if !(10..=500).contains(&width) {
        return Err(format!("--width must be in [10, 500], got {width}"));
    }

    let set = match imported_traces(args)? {
        Some(set) => set,
        None => {
            let horizon = args.get_duration("days", 14, SimDuration::days(1))?;
            TraceSet::generate(&Catalog::ec2_2015(), &cfg.candidates(), seed, horizon)
        }
    };
    let (report, store) = record_run(&set, &cfg, seed)?;
    let events: Vec<_> = decode(&store)?
        .into_iter()
        .map(|se| (se.at, se.event))
        .collect();
    let end = SimTime::ZERO + set.horizon();
    out.push_str(&render_timeline(&events, SimTime::ZERO, end, width));
    let _ = writeln!(
        out,
        "\n{} events | cost {:.1}% of on-demand | unavailability {:.5}% | {} migrations",
        events.len(),
        report.normalized_cost_pct(),
        report.unavailability_pct(),
        report.total_migrations()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use crate::commands::simulate::SCENARIO;

    fn run(items: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        super::run(&parse(&[SCENARIO, FLAGS], &argv).unwrap(), &mut out).map(|()| out)
    }

    #[test]
    fn renders_a_short_timeline() {
        run(&["--days", "3", "--width", "40"]).unwrap();
    }

    #[test]
    fn rejects_out_of_range_width() {
        assert!(run(&["--days", "1", "--width", "5"]).is_err());
    }
}
