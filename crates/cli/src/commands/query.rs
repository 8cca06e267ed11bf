//! `spothost query` — aggregate a columnar telemetry store.
//!
//! Reads a `.col` file written by `simulate --store` / `fleet-sim
//! --store` (or any [`spothost_eventstore::ColumnarStore`] user), applies
//! a time/kind/market/zone/VM predicate — pruning whole blocks on their
//! headers before decoding anything — and prints counts, sums, means,
//! percentiles or histograms of a chosen field, optionally grouped.
//! `--perfetto` exports the selection as a Chrome/Perfetto trace instead.

use crate::args::{Args, Flag};
use crate::commands::simulate::parse_zone;
use spothost_eventstore::query::{
    group_counts, grouped_values, histogram_of, percentile_of, Field, GroupBy, Predicate,
};
use spothost_eventstore::{perfetto, ColReader, EventKind};
use spothost_market::io::parse_market;
use spothost_market::time::SimTime;
use std::fmt::Write as _;

pub const FLAGS: &[Flag] = &[
    Flag::value("store", "FILE", "columnar store to read"),
    Flag::value("from-h", "H", "only events at or after hour H"),
    Flag::value("to-h", "H", "only events before hour H"),
    Flag::value("kind", "K,..", "only events of these kinds, such as outage"),
    Flag::value("market", "M", "only events of market M, zone/size"),
    Flag::value("zone", "Z", "only events of zone Z"),
    Flag::value("vm", "N", "only events of the N-th VM spawned"),
    Flag::value("agg", "A", "count, sum, mean, p50, p90, p99 or hist"),
    Flag::value("field", "F", "field --agg reads, such as cost or outage_s"),
    Flag::value("group-by", "G", "none, kind, market, zone or vm"),
    Flag::value("buckets", "N", "buckets of --agg hist"),
    Flag::switch("stats", "print each block's header"),
    Flag::value("perfetto", "OUT", "write the selection as a Perfetto trace"),
];

fn field_names() -> String {
    Field::ALL
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn kind_names() -> String {
    EventKind::ALL
        .iter()
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Build the predicate from the CLI flags.
fn build_predicate(args: &Args) -> Result<Predicate, String> {
    let mut pred = Predicate::any();
    let from_h = args.get_f64("from-h", 0.0)?;
    let to_h = args.get_f64("to-h", f64::INFINITY)?;
    // `--to-h inf` is the open end; NaN fails every comparison, so it is
    // rejected by name rather than slipping through as "no bound".
    if !from_h.is_finite() || from_h < 0.0 || to_h.is_nan() || to_h < from_h {
        return Err(format!("bad time range: --from-h {from_h} --to-h {to_h}"));
    }
    if from_h > 0.0 || to_h.is_finite() {
        let from = SimTime::millis((from_h * 3_600_000.0) as u64);
        let to = if to_h.is_finite() {
            SimTime::millis((to_h * 3_600_000.0) as u64)
        } else {
            SimTime::MAX
        };
        pred = pred.with_time_range(from, to);
    }
    if let Some(kinds) = args.get("kind") {
        for name in kinds.split(',') {
            let kind = EventKind::parse(name)
                .ok_or_else(|| format!("unknown kind '{name}' (one of: {})", kind_names()))?;
            pred = pred.with_kind(kind);
        }
    }
    if let Some(m) = args.get("market") {
        pred = pred.with_market(parse_market(m).map_err(|e| e.to_string())?);
    }
    if let Some(z) = args.get("zone") {
        pred = pred.with_zone(parse_zone(z)?);
    }
    if args.get("vm").is_some() {
        pred = pred.with_vm(args.get_u32("vm", 0)?);
    }
    Ok(pred)
}

pub fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let path = args.get("store").ok_or("--store FILE is required")?;
    let reader = ColReader::open(path).map_err(|e| format!("--store {path}: {e}"))?;
    let pred = build_predicate(args)?;
    let group_by = args.get_or("group-by", "none");
    let group = GroupBy::parse(group_by).ok_or_else(|| {
        format!("--group-by must be one of none, kind, market, zone, vm, got '{group_by}'")
    })?;
    // An export replaces the aggregation, and each aggregation reads
    // only some of the flags that shape it.
    for flag in ["agg", "field", "group-by", "buckets"] {
        args.reject_beside(flag, "perfetto")?;
    }
    let agg = args.get_or("agg", "count");
    if agg == "count" && args.given("field") {
        return Err("--field applies only to an --agg other than count".to_string());
    }
    if agg != "hist" && args.given("buckets") {
        return Err(format!("--buckets applies only to --agg hist, not {agg}"));
    }
    let buckets = args.get_positive("buckets", 10)? as usize;

    let sel = reader.select(&pred).map_err(|e| format!("{path}: {e}"))?;
    let vms = reader.vms();
    let tagged = vms.iter().filter(|v| v.is_some()).count();
    let _ = writeln!(
        out,
        "store:      {path} ({} blocks, {} events, {})",
        reader.block_count(),
        reader.event_count(),
        if tagged > 0 {
            format!("{tagged} tagged VM streams")
        } else {
            "1 untagged stream".to_string()
        }
    );
    let _ = writeln!(
        out,
        "selection:  {} events; decoded {}/{} blocks (pruned {})",
        sel.events.len(),
        sel.blocks_decoded,
        sel.blocks_total,
        sel.blocks_total - sel.blocks_decoded
    );

    if args.has("stats") {
        let _ = writeln!(
            out,
            "\nblocks (VM streams, events, time span, kinds bitmap):"
        );
        for meta in reader.metas() {
            let _ = writeln!(
                out,
                "  {:>6} vms  {:>6} ev  [{:>10.3} h, {:>10.3} h]  kinds {:#08x}",
                meta.vms().len(),
                meta.count,
                meta.min_t_ms as f64 / 3_600_000.0,
                meta.max_t_ms as f64 / 3_600_000.0,
                meta.kinds
            );
        }
    }

    if let Some(file) = args.get("perfetto") {
        let json = perfetto::to_perfetto_json(&sel.events);
        std::fs::write(file, &json).map_err(|e| format!("--perfetto {file}: {e}"))?;
        let _ = writeln!(
            out,
            "perfetto:   {} events -> {file} ({} bytes; open in ui.perfetto.dev)",
            sel.events.len(),
            json.len()
        );
        return Ok(());
    }

    match agg {
        "count" => {
            let _ = writeln!(out, "\ncount by {group:?}:");
            for (key, n) in group_counts(&sel.events, group) {
                let _ = writeln!(out, "  {key:<24} {n}");
            }
        }
        "sum" | "mean" | "p50" | "p90" | "p99" | "hist" => {
            let field_name = args
                .get("field")
                .ok_or_else(|| format!("--agg {agg} needs --field (one of: {})", field_names()))?;
            let field = Field::parse(field_name).ok_or_else(|| {
                format!("unknown field '{field_name}' (one of: {})", field_names())
            })?;
            let groups = grouped_values(&sel.events, field, group);
            if groups.is_empty() {
                let _ = writeln!(
                    out,
                    "\nno events in the selection carry field '{field_name}'"
                );
                return Ok(());
            }
            let _ = writeln!(out, "\n{agg} of {field_name} by {group:?}:");
            for (key, values) in &groups {
                let value = match agg {
                    "sum" => values.iter().sum::<f64>(),
                    "mean" => values.iter().sum::<f64>() / values.len() as f64,
                    "p50" => percentile_of(values, 50.0),
                    "p90" => percentile_of(values, 90.0),
                    "p99" => percentile_of(values, 99.0),
                    "hist" => {
                        let _ = writeln!(out, "  {key} ({} samples):", values.len());
                        out.push_str(&histogram_of(values, buckets).render(40));
                        continue;
                    }
                    _ => unreachable!("matched above"),
                };
                let _ = writeln!(out, "  {key:<24} {value:.6}");
            }
        }
        other => {
            return Err(format!(
                "unknown aggregation '{other}' (count, sum, mean, p50, p90, p99, hist)"
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use spothost_core::prelude::*;
    use spothost_core::SimRun;
    use spothost_eventstore::ColumnarStore;
    use spothost_market::gen::TraceSet;
    use spothost_market::prelude::*;
    use spothost_market::time::SimDuration;
    use spothost_market::types::{InstanceType, MarketId};

    fn run(items: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        super::run(&parse(&[FLAGS], &argv).unwrap(), &mut out).map(|()| out)
    }

    /// Record a short chaotic run into a temp `.col` file.
    fn fixture(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("spothost-query-test-{name}.col"));
        let mut faults = FaultConfig::none();
        faults.spot_capacity_rate = 0.2;
        let cfg =
            SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, InstanceType::Small))
                .with_policy(BiddingPolicy::Reactive)
                .with_faults(faults);
        let catalog = Catalog::ec2_2015();
        let traces = TraceSet::generate(&catalog, &cfg.candidates(), 7, SimDuration::days(7));
        let store = ColumnarStore::create(&path).unwrap().with_block_events(128);
        {
            let sink = store.sink();
            SimRun::new(&traces, &cfg, 7).with_sink(sink).run();
        }
        store.finish().unwrap();
        path
    }

    #[test]
    fn counts_sums_and_histograms_run() {
        let path = fixture("basic");
        let store = path.to_str().unwrap();
        run(&["--store", store]).unwrap();
        run(&["--store", store, "--group-by", "kind"]).unwrap();
        run(&[
            "--store",
            store,
            "--agg",
            "sum",
            "--field",
            "cost",
            "--group-by",
            "market",
        ])
        .unwrap();
        run(&["--store", store, "--agg", "p99", "--field", "lease_hours"]).unwrap();
        run(&[
            "--store",
            store,
            "--agg",
            "hist",
            "--field",
            "cost",
            "--buckets",
            "5",
        ])
        .unwrap();
        run(&["--store", store, "--stats"]).unwrap();
        run(&[
            "--store",
            store,
            "--from-h",
            "0",
            "--to-h",
            "24",
            "--kind",
            "lease_closed",
        ])
        .unwrap();
    }

    #[test]
    fn perfetto_export_writes_json() {
        let path = fixture("perfetto");
        let out = std::env::temp_dir().join("spothost-query-test-perfetto.json");
        run(&[
            "--store",
            path.to_str().unwrap(),
            "--perfetto",
            out.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\""));
    }

    #[test]
    fn empty_and_zero_block_stores_query_cleanly() {
        // A store that never sealed a block writes zero bytes ("a run
        // that emitted no events"); querying it must succeed with empty
        // output, not panic — including aggregations over no values.
        let path = std::env::temp_dir().join("spothost-query-test-zeroblock.col");
        let store = ColumnarStore::create(&path).unwrap();
        drop(store.sink()); // no events emitted -> no block sealed
        store.finish().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let p = path.to_str().unwrap();
        run(&["--store", p]).unwrap();
        run(&["--store", p, "--agg", "sum", "--field", "cost"]).unwrap();
        run(&["--store", p, "--agg", "hist", "--field", "cost"]).unwrap();
        run(&["--store", p, "--stats"]).unwrap();
    }

    #[test]
    fn truncated_and_corrupt_stores_are_errors_not_panics() {
        // Cut a healthy multi-block store mid-frame: the reader must
        // report truncation as a clean error up front.
        let whole = std::fs::read(fixture("truncate-src")).unwrap();
        assert!(whole.len() > 64, "fixture store too small to truncate");
        let cut = std::env::temp_dir().join("spothost-query-test-truncated.col");
        std::fs::write(&cut, &whole[..whole.len() - 11]).unwrap();
        let err = run(&["--store", cut.to_str().unwrap()]).unwrap_err();
        assert!(
            err.contains("truncated") || err.contains("corrupt"),
            "unhelpful truncation error: {err}"
        );

        // A frame header with nothing after it.
        let headless = std::env::temp_dir().join("spothost-query-test-headless.col");
        let mut bytes = spothost_eventstore::MAGIC.to_vec();
        bytes.extend_from_slice(&[0xFF, 0x00]); // partial frame length
        std::fs::write(&headless, &bytes).unwrap();
        let err = run(&["--store", headless.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("truncated"), "unhelpful error: {err}");

        // Not a columnar file at all.
        let garbage = std::env::temp_dir().join("spothost-query-test-garbage.col");
        std::fs::write(&garbage, b"this is not a columnar store").unwrap();
        let err = run(&["--store", garbage.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("bad magic"), "unhelpful error: {err}");
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        let path = fixture("errors");
        let store = path.to_str().unwrap();
        assert!(run(&[]).is_err()); // no --store
        assert!(run(&["--store", "/nonexistent.col"]).is_err());
        assert!(run(&["--store", store, "--kind", "nope"]).is_err());
        assert!(run(&["--store", store, "--agg", "median"]).is_err());
        assert!(run(&["--store", store, "--agg", "sum"]).is_err()); // no field
        assert!(run(&["--store", store, "--agg", "sum", "--field", "nope"]).is_err());
        assert!(run(&["--store", store, "--group-by", "planet"]).is_err());
        assert!(run(&["--store", store, "--from-h", "5", "--to-h", "1"]).is_err());
        // Non-finite bounds: NaN is no bound at all, and an infinite
        // start selects nothing; both are bad ranges, not silent answers.
        for bounds in [["--from-h", "nan"], ["--to-h", "nan"], ["--from-h", "inf"]] {
            let err = run(&["--store", store, bounds[0], bounds[1]]).unwrap_err();
            assert!(err.starts_with("bad time range"), "{bounds:?}: {err}");
        }
        assert!(run(&["--store", store, "--zone", "mars"]).is_err());
    }
}
