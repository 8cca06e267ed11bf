//! `trajectory` — record the repo's end-to-end performance trajectory.
//!
//! Runs every experiment in-process (the same work as `repro all`, on
//! the same concurrent driver), measures wall-clock and peak RSS, times
//! the two kernel benches (`billing_hot`, `sweep_grid`) with a
//! hand-rolled median, and appends one JSON entry to
//! `BENCH_trajectory.json`. The committed file is the
//! performance history of the codebase, one entry per recorded point.
//!
//! ```text
//! trajectory --label pr6            # full settings, append an entry
//! trajectory --quick --label pr6    # quick settings (CI-sized)
//! trajectory --quick --check        # no write: fail if the quick
//!                                   # wall-clock regressed >20% vs the
//!                                   # last committed quick entry
//! ```

use spothost_analysis::stdout;
use spothost_bench::{experiments, ExpSettings};
use std::time::Instant;

const DEFAULT_OUT: &str = "BENCH_trajectory.json";
/// `--check` fails when measured wall-clock exceeds baseline by this factor.
const REGRESSION_FACTOR: f64 = 1.2;
/// `--check` fails when attaching a `ColumnarStore` to the small fleet
/// run costs more than this percentage of wall-clock.
const STORE_OVERHEAD_LIMIT_PCT: f64 = 20.0;

/// Peak resident set size (VmHWM) in kB from `/proc/self/status`;
/// 0 where the proc file is unavailable (non-Linux).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Run every experiment the way `repro all` does (concurrently, through
/// [`experiments::run_suite`]) and return its wall-clock, then the fleet
/// and jobs experiments' wall-clocks, in seconds. The fleet simulator is
/// the single heaviest experiment and the jobs sweep drives a separate
/// simulator core, so their shares are tracked (and regression-gated)
/// separately from the aggregate. Each of the two is timed alone after
/// the suite, with the pool to itself, so its time does not depend on
/// which experiments happened to run beside it. Rendered reports are
/// black-boxed, not printed.
fn run_all_experiments(settings: &ExpSettings) -> (f64, f64, f64) {
    let start = Instant::now();
    let runs = experiments::run_suite(&experiments::ALL.map(|(n, _)| n), settings)
        .expect("ALL lists known experiments");
    let wall_s = start.elapsed().as_secs_f64();
    for run in &runs {
        std::hint::black_box(run.report.len());
        eprintln!("[{} done in {:.1}s]", run.name, run.wall.as_secs_f64());
    }
    let alone = |name: &str| {
        let runs = experiments::run_suite(&[name], settings).expect("known experiment");
        std::hint::black_box(runs[0].report.len());
        eprintln!("[{name} alone done in {:.1}s]", runs[0].wall.as_secs_f64());
        runs[0].wall.as_secs_f64()
    };
    (wall_s, alone("fleet"), alone("jobs"))
}

/// The `billing_hot` meter kernel: settle one long spot lease with hourly
/// `advance_to` calls over a dense 60-day calibrated trace. Median of 15.
fn bench_billing_hot_ns() -> u128 {
    use spothost_cloudsim::billing::SpotLeaseMeter;
    use spothost_market::prelude::*;

    let catalog = Catalog::ec2_2015();
    let market = MarketId::new(Zone::UsEast1a, InstanceType::Small);
    let traces = TraceSet::generate(&catalog, &[market], 0, SimDuration::days(60));
    let trace = traces.trace(market).expect("trace generated");
    let start = SimTime::minutes(7);
    let end = SimTime::days(59);

    let samples = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let mut meter = SpotLeaseMeter::new(trace, start);
            let mut t = start;
            while t < end {
                meter.advance_to(t);
                t += SimDuration::hours(1);
            }
            std::hint::black_box(meter.close(end, false));
            t0.elapsed().as_nanos()
        })
        .collect();
    median_ns(samples)
}

/// The `sweep_grid` kernel: the flattened `run_grid` over the scaled-down
/// Figure 6 grid (4 sizes x 2 policies, 4 seeds, 10 days). Median of 5.
fn bench_sweep_grid_ns() -> u128 {
    use spothost_core::prelude::*;
    use spothost_market::prelude::*;

    let mut cfgs = Vec::new();
    for size in InstanceType::ALL {
        let market = MarketId::new(Zone::UsEast1a, size);
        for policy in [BiddingPolicy::Reactive, BiddingPolicy::proactive_default()] {
            cfgs.push(SchedulerConfig::single_market(market).with_policy(policy));
        }
    }
    let horizon = SimDuration::days(10);

    let samples = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let aggs = run_grid(std::hint::black_box(&cfgs), 0, 4, horizon);
            std::hint::black_box(aggs.iter().map(|a| a.normalized_cost.mean).sum::<f64>());
            t0.elapsed().as_nanos()
        })
        .collect();
    median_ns(samples)
}

/// Columnar-sink overhead on a small fleet run: wall-clock of the same
/// `(config, seed, horizon)` fleet simulation with a `ColumnarStore`
/// factory (writing to a discarding stream) versus the uninstrumented
/// `NullSinkFactory` run, as a percentage. Median of 5 each; alternated
/// so ambient noise hits both sides. The ISSUE's acceptance bar is <10%;
/// `--check` gates at 20% to leave headroom for shared-runner noise.
fn bench_store_overhead_pct() -> f64 {
    use spothost_eventstore::ColumnarStore;
    use spothost_fleet::sim::{run_fleet_sim, run_fleet_sim_with, FleetSimConfig};
    use spothost_market::time::SimDuration;
    use spothost_workload::traffic::TrafficConfig;

    let cfg = FleetSimConfig {
        min_vms: 2,
        max_vms: 12,
        control_interval: SimDuration::minutes(15),
        traffic: TrafficConfig {
            base_users: 600.0,
            ..TrafficConfig::diurnal_default()
        },
        ..FleetSimConfig::default()
    };
    let horizon = SimDuration::days(3);
    // Warm the trace arena so neither side pays generation.
    std::hint::black_box(run_fleet_sim(&cfg, 17, horizon));

    let mut null_ns = Vec::new();
    let mut col_ns = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        std::hint::black_box(run_fleet_sim(&cfg, 17, horizon));
        null_ns.push(t0.elapsed().as_nanos());

        // `finish` is inside the timing: a block sealed there is part of
        // the write path too.
        let store = ColumnarStore::to_writer(Box::new(std::io::sink()));
        let t0 = Instant::now();
        std::hint::black_box(run_fleet_sim_with(&cfg, 17, horizon, store.clone()));
        store.finish().expect("discarding writer cannot fail");
        col_ns.push(t0.elapsed().as_nanos());
    }
    let (null, col) = (median_ns(null_ns) as f64, median_ns(col_ns) as f64);
    100.0 * (col - null) / null
}

/// Render one trajectory entry as a single JSON line (no serde — the
/// schema is flat and the file must stay trivially greppable).
#[allow(clippy::too_many_arguments)]
fn entry_json(
    label: &str,
    mode: &str,
    wall_s: f64,
    fleet_s: f64,
    jobs_s: f64,
    rss_kb: u64,
    bill_ns: u128,
    grid_ns: u128,
    store_pct: f64,
) -> String {
    format!(
        "{{\"label\":\"{}\",\"mode\":\"{}\",\"repro_all_wall_s\":{:.3},\"fleet_wall_s\":{:.3},\"jobs_wall_s\":{:.3},\"peak_rss_kb\":{},\"billing_hot_median_ns\":{},\"sweep_grid_median_ms\":{:.3},\"store_overhead_pct\":{:.2}}}",
        label.replace(['"', '\\'], "_"),
        mode,
        wall_s,
        fleet_s,
        jobs_s,
        rss_kb,
        bill_ns,
        grid_ns as f64 / 1e6,
        store_pct,
    )
}

/// Append an entry to the trajectory file, keeping the format "JSON array,
/// one entry per line" so `--check` can scan it without a JSON parser. A
/// file that cannot be written is an error naming it.
fn append_entry(path: &str, entry: &str) -> Result<(), String> {
    let mut entries: Vec<String> = match std::fs::read_to_string(path) {
        Ok(s) => s
            .lines()
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .filter(|l| !l.is_empty() && l != "[" && l != "]")
            .collect(),
        Err(_) => Vec::new(),
    };
    entries.push(entry.to_string());
    let body = entries.join(",\n");
    std::fs::write(path, format!("[\n{body}\n]\n")).map_err(|e| format!("--out {path}: {e}"))
}

/// Numeric `field` of the last committed entry for `mode`, scanned
/// textually. `None` when no entry for the mode exists or the entry
/// predates the field (older entries lack `fleet_wall_s`).
fn last_field(path: &str, mode: &str, field: &str) -> Option<f64> {
    let s = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"mode\":\"{mode}\"");
    s.lines()
        .rfind(|l| l.contains(&needle))?
        .split(&format!("\"{field}\":"))
        .nth(1)?
        .split([',', '}'])
        .next()?
        .parse()
        .ok()
}

/// One wall-clock gate of `--check`: `what` took `secs` against its
/// committed `baseline`. Returns the report line and, when `secs`
/// exceeds the limit, the failure line naming `failing`. Times print
/// with enough decimals to tell `secs` from the limit.
fn wall_gate(
    mode: &str,
    what: &str,
    failing: &str,
    secs: f64,
    baseline: f64,
) -> (String, Option<String>) {
    let limit = baseline * REGRESSION_FACTOR;
    // The fewest decimals, at least two, that print `secs` and `limit`
    // differently (17 where `f64` runs out of digits).
    let d = (2..17)
        .find(|&d| format!("{secs:.d$}") != format!("{limit:.d$}"))
        .unwrap_or(17);
    let report = format!(
        "trajectory --check ({mode}): {what} {secs:.d$}s vs baseline {baseline:.d$}s (limit {limit:.d$}s)\n"
    );
    let failure = (secs > limit).then(|| {
        format!(
            "FAIL: {failing} regressed >{:.0}% ({secs:.d$}s > {limit:.d$}s)",
            (REGRESSION_FACTOR - 1.0) * 100.0
        )
    });
    (report, failure)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check = false;
    let mut label = String::from("dev");
    let mut out = String::from(DEFAULT_OUT);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--label" => match it.next() {
                Some(l) => label = l.clone(),
                None => {
                    eprintln!("--label expects a value");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: trajectory [--quick] [--check] [--label L] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let (settings, mode) = if quick {
        (ExpSettings::quick(), "quick")
    } else {
        (ExpSettings::full(), "full")
    };
    eprintln!(
        "trajectory: running all experiments ({mode}: {} seeds x {})",
        settings.seeds, settings.horizon
    );
    let (wall_s, fleet_s, jobs_s) = run_all_experiments(&settings);

    if check {
        // Regression gate only: compare against the committed baseline,
        // skip the kernel benches, write nothing. The aggregate plus the
        // fleet and jobs experiments' own wall-clocks are gated (the
        // per-experiment gates only once a committed entry carries the
        // corresponding field).
        if last_field(&out, mode, "repro_all_wall_s").is_none() {
            eprintln!("trajectory --check: no committed {mode} entry in {out}");
            std::process::exit(2);
        }
        let suite = format!("repro --{mode} all");
        for (what, failing, secs, field) in [
            ("wall", suite.as_str(), wall_s, "repro_all_wall_s"),
            ("fleet", "fleet experiment", fleet_s, "fleet_wall_s"),
            ("jobs", "jobs experiment", jobs_s, "jobs_wall_s"),
        ] {
            let Some(baseline) = last_field(&out, mode, field) else {
                continue;
            };
            let (report, failure) = wall_gate(mode, what, failing, secs, baseline);
            stdout::write(&report);
            if let Some(failure) = failure {
                eprintln!("{failure}");
                std::process::exit(1);
            }
        }
        // Columnar-sink overhead is gated absolutely (not vs baseline):
        // instrumentation must stay cheap relative to the simulation.
        let store_pct = bench_store_overhead_pct();
        stdout::write(&format!("trajectory --check ({mode}): columnar store overhead {store_pct:.1}% (limit {STORE_OVERHEAD_LIMIT_PCT:.0}%)\n"));
        if store_pct > STORE_OVERHEAD_LIMIT_PCT {
            eprintln!(
                "FAIL: ColumnarStore fleet instrumentation overhead {store_pct:.1}% > {STORE_OVERHEAD_LIMIT_PCT:.0}%"
            );
            std::process::exit(1);
        }
        stdout::write("OK: within budget\n");
        return;
    }

    eprintln!("trajectory: timing billing_hot kernel");
    let bill_ns = bench_billing_hot_ns();
    eprintln!("trajectory: timing sweep_grid kernel");
    let grid_ns = bench_sweep_grid_ns();
    eprintln!("trajectory: measuring columnar store overhead");
    let store_pct = bench_store_overhead_pct();
    let rss_kb = peak_rss_kb();

    let entry = entry_json(
        &label, mode, wall_s, fleet_s, jobs_s, rss_kb, bill_ns, grid_ns, store_pct,
    );
    if let Err(e) = append_entry(&out, &entry) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    stdout::write(&format!("{entry}\n[appended to {out}]\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries shaped like the committed history: `pr6`–`pr9` predate
    /// `jobs_wall_s`, and `pr6` predates `fleet_wall_s` too.
    const OLD: [&str; 4] = [
        r#"{"label":"pr6","mode":"quick","repro_all_wall_s":0.290,"peak_rss_kb":9148}"#,
        r#"{"label":"pr6","mode":"full","repro_all_wall_s":2.143,"peak_rss_kb":43476}"#,
        r#"{"label":"pr9","mode":"quick","repro_all_wall_s":0.692,"fleet_wall_s":0.206}"#,
        r#"{"label":"pr9","mode":"full","repro_all_wall_s":8.541,"fleet_wall_s":3.276}"#,
    ];

    /// A trajectory file in the temp dir holding `entries` in the
    /// committed one-entry-per-line shape; unique per test and process.
    fn history(name: &str, entries: &[&str]) -> String {
        let path = std::env::temp_dir()
            .join(format!("trajectory-{}-{name}.json", std::process::id()))
            .to_str()
            .expect("utf-8 temp dir")
            .to_string();
        let _ = std::fs::remove_file(&path);
        for entry in entries {
            append_entry(&path, entry).expect("append to temp history");
        }
        path
    }

    #[test]
    fn a_failing_gate_prints_two_different_times() {
        // A jobs baseline of 0.017 s has a limit of 0.0204 s, which two
        // decimals print as 0.02 s, as they do a time of 0.0205 s.
        let (report, failure) = wall_gate("quick", "jobs", "jobs experiment", 0.0205, 0.017);
        assert_eq!(
            failure.as_deref(),
            Some("FAIL: jobs experiment regressed >20% (0.021s > 0.020s)")
        );
        assert!(report.contains("jobs 0.021s vs baseline 0.017s (limit 0.020s)"));
        let (report, failure) = wall_gate("quick", "wall", "repro --quick all", 0.45, 0.45);
        assert_eq!(failure, None);
        assert_eq!(
            report,
            "trajectory --check (quick): wall 0.45s vs baseline 0.45s (limit 0.54s)\n"
        );
        for (secs, baseline) in [(1.0 + 1e-9, 1.0 / 1.2), (0.0205, 0.017), (3.0, 1.0)] {
            let (_, failure) = wall_gate("full", "fleet", "fleet experiment", secs, baseline);
            let failure = failure.expect("over the limit");
            let times = failure.rsplit('(').next().expect("a parenthesis");
            let (a, b) = times
                .trim_end_matches(')')
                .split_once(" > ")
                .expect("a > b");
            assert_ne!(a, b, "{failure}");
        }
    }

    #[test]
    fn last_entry_of_the_requested_mode_wins() {
        let newer =
            r#"{"label":"pr10","mode":"full","repro_all_wall_s":12.209,"jobs_wall_s":2.089}"#;
        let path = history("last", &[&OLD[..], &[newer]].concat());
        assert_eq!(last_field(&path, "quick", "repro_all_wall_s"), Some(0.692));
        assert_eq!(last_field(&path, "full", "repro_all_wall_s"), Some(12.209));
        assert_eq!(last_field(&path, "full", "jobs_wall_s"), Some(2.089));
        std::fs::remove_file(path).expect("remove temp history");
    }

    #[test]
    fn a_field_the_last_entry_lacks_is_none() {
        let path = history("lacks", &OLD);
        assert_eq!(last_field(&path, "quick", "fleet_wall_s"), Some(0.206));
        assert_eq!(last_field(&path, "quick", "jobs_wall_s"), None);
        assert_eq!(last_field(&path, "full", "jobs_wall_s"), None);
        std::fs::remove_file(path).expect("remove temp history");
    }

    #[test]
    fn an_absent_mode_or_file_is_none() {
        let path = history("absent", &OLD[1..2]);
        assert_eq!(last_field(&path, "quick", "repro_all_wall_s"), None);
        std::fs::remove_file(&path).expect("remove temp history");
        assert_eq!(last_field(&path, "full", "repro_all_wall_s"), None);
    }

    #[test]
    fn an_unwritable_file_is_an_error_naming_it() {
        let file = history("unwritable", &OLD[..1]);
        let under_file = format!("{file}/sub.json");
        assert_eq!(
            append_entry(&under_file, OLD[1])
                .map_err(|e| e.starts_with(&format!("--out {under_file}: "))),
            Err(true)
        );
        std::fs::remove_file(file).expect("remove temp history");
    }

    #[test]
    fn append_keeps_every_line_in_the_array_shape() {
        let path = history("append", &OLD[..2]);
        let created = std::fs::read_to_string(&path).expect("read history");
        assert_eq!(created, format!("[\n{},\n{}\n]\n", OLD[0], OLD[1]));

        // The committed history gains one line and keeps the rest.
        let committed = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_trajectory.json"
        ));
        std::fs::write(&path, committed).expect("write temp history");
        append_entry(&path, OLD[2]).expect("append to temp history");
        let appended = std::fs::read_to_string(&path).expect("read history");
        let body = committed.strip_suffix("\n]\n").expect("committed shape");
        assert_eq!(appended, format!("{body},\n{}\n]\n", OLD[2]));
        std::fs::remove_file(path).expect("remove temp history");
    }
}
