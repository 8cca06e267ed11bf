//! `spothost timeline` — record one seed into a columnar store and
//! render its event stream as an ASCII Gantt chart: lease occupancy per
//! market, outage/degraded windows, migration markers.

use crate::args::Args;
use crate::commands::simulate::{build_cfg, decode, load_traces, record_run};
use spothost_core::telemetry::render_timeline;
use spothost_market::prelude::*;
use spothost_market::time::SimTime;

pub fn run(args: &Args) -> Result<(), String> {
    let cfg = build_cfg(args)?;
    let days = args.get_positive("days", 14)?;
    let seed = args.get_u64("seed", 0)?;
    let width = args.get_u64("width", 96)? as usize;
    if !(10..=500).contains(&width) {
        return Err(format!("--width must be in [10, 500], got {width}"));
    }

    let horizon = SimDuration::days(days);
    let set = load_traces(args, &cfg, seed, horizon)?;
    let (report, store) = record_run(&set, &cfg, seed)?;
    let events: Vec<_> = decode(&store)?
        .into_iter()
        .map(|se| (se.at, se.event))
        .collect();
    let end = SimTime::ZERO + horizon;
    print!("{}", render_timeline(&events, SimTime::ZERO, end, width));
    println!(
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

    fn argv(items: &[&str]) -> Args {
        parse(&items.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn renders_a_short_timeline() {
        run(&argv(&["--days", "3", "--width", "40"])).unwrap();
    }

    #[test]
    fn rejects_out_of_range_width() {
        assert!(run(&argv(&["--days", "1", "--width", "5"])).is_err());
    }
}
