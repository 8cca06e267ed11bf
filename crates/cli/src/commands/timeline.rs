//! `spothost timeline` — run one seed with the telemetry recorder and
//! render the event stream as an ASCII Gantt chart: lease occupancy per
//! market, outage/degraded windows, migration markers.

use crate::args::Args;
use crate::commands::simulate::{build_cfg, load_traces, plan_run};
use spothost_core::prelude::*;
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
    let mut rec = Recorder::new();
    let report = plan_run(&set, &cfg, seed)?.with_sink(&mut rec).run();
    let dropped = rec.dropped();

    let end = SimTime::ZERO + horizon;
    let events = rec.into_events();
    if dropped > 0 {
        println!(
            "WARNING: timeline truncated — the ring buffer evicted the {dropped} oldest \
             events; the Gantt below starts mid-run (first kept event at {}).\n\
             Re-run with `spothost simulate --trace out.jsonl` (streams the full \
             timeline) or record to a columnar store with `--store out.col`.\n",
            events.first().map(|(t, _)| *t).unwrap_or(SimTime::ZERO)
        );
    }
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
