//! `spothost fleet-sim` — autoscaled fleet simulation with an ASCII
//! fleet-size / latency timeline.
//!
//! Runs `spothost_fleet::sim`: N per-VM schedulers sharing one market
//! history, a least-loaded balancer, a diurnal + flash-crowd traffic
//! model, and a target-tracking autoscaler closing the MVA loop every
//! control interval. The output charts the fleet size and the p99
//! response time over simulated time, then prints the cost/availability
//! summary. Fixed seed → byte-identical output.

use crate::args::{Args, Flag};
use crate::commands::simulate::{parse_mechanism, parse_policy, parse_scope};
use crate::commands::{DAYS, MECHANISM, POLICY, SCOPE, SEED, STORM_INTENSITY, WIDTH};
use spothost_faults::StormConfig;
use spothost_fleet::{run_fleet_sim, run_fleet_sim_with, FleetSample, FleetSimConfig};
use spothost_market::time::SimDuration;
use spothost_workload::TrafficConfig;
use std::fmt::Write as _;

pub const FLAGS: &[Flag] = &[
    Flag::value("vms", "MAX", "most VMs the autoscaler may run"),
    Flag::value("min-vms", "MIN", "fewest VMs the autoscaler keeps"),
    Flag::value("seconds", "S", "autoscaler control interval, in seconds"),
    DAYS,
    SEED,
    Flag::value("users", "U", "base population of the diurnal user load"),
    SCOPE,
    POLICY,
    MECHANISM,
    STORM_INTENSITY,
    Flag::value("target-util", "T", "per-VM utilisation to provision for"),
    WIDTH,
    Flag::value("store", "FILE", "record every VM's stream as a .col store"),
];

/// Downsample a series to `width` columns, keeping each bucket's max
/// (autoscaler charts are about peaks, not averages).
fn buckets(vals: &[f64], width: usize) -> Vec<f64> {
    if vals.is_empty() {
        return Vec::new();
    }
    let cols = width.min(vals.len());
    (0..cols)
        .map(|c| {
            let lo = c * vals.len() / cols;
            let hi = (((c + 1) * vals.len()) / cols).max(lo + 1);
            vals[lo..hi].iter().copied().fold(f64::MIN, f64::max)
        })
        .collect()
}

/// Plain-ASCII column chart: `height` rows of '#' bars over a zero
/// baseline, with the series maximum labelled on the top row.
fn chart(title: &str, unit: &str, vals: &[f64], width: usize, height: usize) -> String {
    let cols = buckets(vals, width);
    let max = cols.iter().copied().fold(0.0f64, f64::max);
    let mut out = format!("{title} (peak {max:.0} {unit})\n");
    let scale = if max > 0.0 { max } else { 1.0 };
    for row in (1..=height).rev() {
        let threshold = row as f64 / height as f64;
        let label = if row == height {
            format!("{max:>8.0}")
        } else {
            " ".repeat(8)
        };
        let bars: String = cols
            .iter()
            .map(|&v| {
                if v / scale + 1e-12 >= threshold {
                    '#'
                } else {
                    ' '
                }
            })
            .collect();
        let _ = writeln!(out, "{label} |{bars}");
    }
    let _ = writeln!(out, "{:>8} +{}", 0, "-".repeat(cols.len()));
    out
}

/// X-axis day labels under a chart of `cols` columns spanning `days`.
fn day_axis(cols: usize, days: f64) -> String {
    let mut axis = " ".repeat(9);
    axis.push_str(&format!("day 0{:>w$.0}", days, w = cols.saturating_sub(5)));
    axis.push('\n');
    axis
}

pub fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let max_vms = args.get_u32("vms", 200)?;
    let min_vms = args.get_u32("min-vms", 2)?;
    let control_interval = args.get_duration("seconds", 300, SimDuration::secs(1))?;
    let horizon = args.get_duration("days", 7, SimDuration::days(1))?;
    let seed = args.get_u64("seed", 0)?;
    let target_util = args.get_f64("target-util", 0.6)?;
    let storm = args.get_f64("storm-intensity", 0.0)?;
    let base_users = args.get_f64("users", TrafficConfig::diurnal_default().base_users)?;
    let width = args.get_u64("width", 96)? as usize;
    if !(10..=500).contains(&width) {
        return Err(format!("--width must be in [10, 500], got {width}"));
    }

    let mut cfg = FleetSimConfig {
        policy: parse_policy(args.get_or("policy", "proactive"))?,
        mechanism: parse_mechanism(args.get_or("mechanism", "ckpt-lr-live"))?,
        storms: StormConfig::intensity(storm),
        traffic: TrafficConfig {
            base_users,
            ..TrafficConfig::diurnal_default()
        },
        min_vms,
        max_vms,
        control_interval,
        target_utilization: target_util,
        ..FleetSimConfig::default()
    };
    if let Some(scope) = args.get("scope") {
        cfg.zones = parse_scope(scope)?.zones();
    }
    cfg.validate()?;

    // With --store, every spawned VM streams its telemetry into the
    // columnar store tagged by spawn index; the sink only observes, so
    // the report is identical to the uninstrumented run (test-pinned in
    // spothost-fleet).
    let report = match args.get("store") {
        Some(path) => {
            let store = spothost_eventstore::ColumnarStore::create(path)
                .map_err(|e| format!("--store {path}: {e}"))?;
            let report = run_fleet_sim_with(&cfg, seed, horizon, store.clone());
            store.finish().map_err(|e| format!("--store {path}: {e}"))?;
            let _ = writeln!(
                out,
                "store: {} events from {} VM streams in {} blocks -> {path}",
                store.events_written(),
                report.spawned_vms,
                store.blocks_written()
            );
            let _ = writeln!(
                out,
                "       (per-VM queries: `spothost query --store {path} --vm N`)\n"
            );
            report
        }
        None => run_fleet_sim(&cfg, seed, horizon),
    };

    let sizes: Vec<f64> = report.samples.iter().map(|s| s.live as f64).collect();
    let p99_ms: Vec<f64> = report
        .samples
        .iter()
        .map(|s: &FleetSample| 1_000.0 * s.p99_response_s)
        .collect();
    let days_f = horizon.as_hours_f64() / 24.0;
    out.push_str(&chart("fleet size", "VMs", &sizes, width, 8));
    out.push_str(&day_axis(width.min(sizes.len()), days_f));
    out.push('\n');
    out.push_str(&chart("p99 response", "ms", &p99_ms, width, 6));
    out.push_str(&day_axis(width.min(p99_ms.len()), days_f));
    out.push('\n');
    out.push_str(&report.render());
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
    fn runs_a_small_fleet() {
        run(&[
            "--vms",
            "10",
            "--users",
            "600",
            "--days",
            "2",
            "--seconds",
            "900",
            "--width",
            "40",
        ])
        .unwrap();
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(run(&["--width", "4"]).is_err());
        assert!(run(&["--seconds", "0"]).is_err());
        assert!(run(&["--scope", "zone:nowhere"]).is_err());
        assert!(run(&["--vms", "1", "--min-vms", "5"]).is_err());
    }

    #[test]
    fn chart_is_plain_ascii_and_bounded() {
        let c = chart("t", "u", &[0.0, 1.0, 5.0, 2.0], 40, 8);
        assert!(c.is_ascii());
        assert!(c.lines().count() == 10); // title + 8 rows + baseline
    }
}
