//! `spothost simulate` — run the cloud scheduler and report.

use crate::args::{Args, Flag};
use crate::commands::{DAYS, FAULT_RATE, MECHANISM, POLICY, SCOPE, STORM_INTENSITY};
use spothost_analysis::mean;
use spothost_core::prelude::*;
use spothost_core::telemetry::export::write_jsonl;
use spothost_core::{RunPlan, SimRun, SimScratch};
use spothost_eventstore::query::{group_counts, percentile_of, reacquire_seconds, Field, GroupBy};
use spothost_eventstore::{ColReader, ColumnarStore, StoredEvent};
use spothost_market::gen::TraceSet;
use spothost_market::io::{parse_market, read_trace_set};
use spothost_market::prelude::*;
use spothost_workload::slo;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// The scenario flags `simulate` and `timeline` both take: what
/// [`build_cfg`] reads, plus the imported history of `--traces`.
pub const SCENARIO: &[Flag] = &[
    Flag::value("market", "M", "one spot market, zone/size"),
    SCOPE,
    POLICY,
    Flag::value("bid-mult", "X", "proactive bid / on-demand price, >= 1"),
    Flag::value("risk-budget", "P", "adaptive bids' hourly revocation risk"),
    MECHANISM,
    Flag::switch("pessimistic", "use the pessimistic migration parameters"),
    Flag::value("stability", "W", "penalty weight on volatile markets"),
    Flag::value("units", "U", "capacity units of the service: 1, 2, 4 or 8"),
    FAULT_RATE,
    STORM_INTENSITY,
    Flag::value("traces", "DIR", "imported price history (sets the horizon)"),
];

pub const FLAGS: &[Flag] = &[
    DAYS,
    Flag::value("seeds", "N", "runs, with seeds from --seed on"),
    Flag::value("seed", "N", "seed of the first run"),
    Flag::value("trace", "FILE", "write the first run's events as JSONL"),
    Flag::value("store", "FILE", "record the first run as a columnar store"),
    Flag::switch("metrics", "print histograms of the first run's events"),
    Flag::switch("cache-stats", "print the trace arena's counters"),
];

pub(crate) fn parse_policy(s: &str) -> Result<BiddingPolicy, String> {
    Ok(match s {
        "proactive" => BiddingPolicy::proactive_default(),
        "adaptive" => BiddingPolicy::adaptive_default(),
        "reactive" => BiddingPolicy::Reactive,
        "pure-spot" => BiddingPolicy::PureSpot,
        "on-demand" => BiddingPolicy::OnDemandOnly,
        other => return Err(format!("unknown policy '{other}'")),
    })
}

pub(crate) fn parse_mechanism(s: &str) -> Result<MechanismCombo, String> {
    Ok(match s {
        "ckpt" => MechanismCombo::CKPT,
        "ckpt-lr" => MechanismCombo::CKPT_LR,
        "ckpt-live" => MechanismCombo::CKPT_LIVE,
        "ckpt-lr-live" => MechanismCombo::CKPT_LR_LIVE,
        other => return Err(format!("unknown mechanism '{other}'")),
    })
}

pub(crate) fn parse_zone(s: &str) -> Result<Zone, String> {
    Zone::ALL
        .into_iter()
        .find(|z| z.name() == s)
        .ok_or_else(|| format!("unknown zone '{s}'"))
}

/// A `--scope` value: `zone:Z` or `regions:Z1,Z2`.
pub(crate) fn parse_scope(scope: &str) -> Result<MarketScope, String> {
    let (kind, rest) = scope
        .split_once(':')
        .ok_or_else(|| format!("--scope must be 'zone:Z' or 'regions:Z1,Z2', got '{scope}'"))?;
    Ok(match kind {
        "zone" => MarketScope::MultiMarket(parse_zone(rest)?),
        "regions" => MarketScope::MultiRegion(
            rest.split(',')
                .map(parse_zone)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        other => return Err(format!("unknown scope kind '{other}'")),
    })
}

/// The scope of `--scope` or `--market`, which exclude each other, and
/// its capacity units.
fn scope_and_units(args: &Args) -> Result<(MarketScope, u32), String> {
    args.reject_beside("market", "scope")?;
    if let Some(scope) = args.get("scope") {
        return Ok((parse_scope(scope)?, args.get_u32("units", 8)?));
    }
    let market =
        parse_market(args.get_or("market", "us-east-1a/small")).map_err(|e| e.to_string())?;
    let units = args.get_u32("units", market.itype.capacity_units())?;
    Ok((MarketScope::Single(market), units))
}

/// Build the scheduler configuration shared by `simulate` and `timeline`.
pub(crate) fn build_cfg(args: &Args) -> Result<SchedulerConfig, String> {
    let (scope, units) = scope_and_units(args)?;
    let name = args.get_or("policy", "proactive");
    let mut policy = parse_policy(name)?;
    // Each tuning knob belongs to one policy; beside another it would be
    // dropped.
    for (knob, owner) in [("bid-mult", "proactive"), ("risk-budget", "adaptive")] {
        if name != owner && args.given(knob) {
            return Err(format!(
                "--{knob} applies only to --policy {owner}, not {name}"
            ));
        }
    }
    // Per-policy tuning knobs. Out-of-range values surface through
    // `cfg.validate()` below as errors, never as panics.
    if let BiddingPolicy::Proactive { bid_mult } = &mut policy {
        *bid_mult = args.get_f64("bid-mult", *bid_mult)?;
    }
    if let BiddingPolicy::Adaptive { risk_budget } = &mut policy {
        *risk_budget = args.get_f64("risk-budget", *risk_budget)?;
    }
    let mechanism = parse_mechanism(args.get_or("mechanism", "ckpt-lr-live"))?;
    let stability = args.get_f64("stability", 0.0)?;
    let fault_rate = args.get_f64("fault-rate", 0.0)?;
    let storm_intensity = args.get_f64("storm-intensity", 0.0)?;

    let mut cfg = match &scope {
        MarketScope::Single(m) => SchedulerConfig::single_market(*m),
        other => SchedulerConfig::multi(other.clone()),
    };
    cfg = cfg
        .with_capacity_units(units)
        .with_policy(policy)
        .with_mechanism(mechanism)
        .with_stability_weight(stability)
        .with_faults(FaultConfig::uniform(fault_rate))
        .with_storms(StormConfig::intensity(storm_intensity));
    if args.has("pessimistic") {
        cfg = cfg.with_regime(ParamRegime::Pessimistic);
    }
    cfg.validate()?;
    Ok(cfg)
}

/// The imported price history of `--traces DIR`, or `None` without the
/// flag. The imported set fixes the horizon, so `--days` beside it is an
/// error.
pub(crate) fn imported_traces(args: &Args) -> Result<Option<TraceSet>, String> {
    let Some(dir) = args.get("traces") else {
        return Ok(None);
    };
    args.reject_beside("days", "traces")?;
    read_trace_set(&Catalog::ec2_2015(), Path::new(dir))
        .map(Some)
        .map_err(|e| format!("--traces {dir}: {e}"))
}

/// A run of `cfg` over `set` with run seed `seed`. An imported trace set
/// that lacks one of the config's candidate markets is an error, not a
/// panic.
fn plan_run<'t>(set: &'t TraceSet, cfg: &SchedulerConfig, seed: u64) -> Result<SimRun<'t>, String> {
    let plan = RunPlan::new(set, cfg).map_err(|e| e.to_string())?;
    Ok(SimRun::from_plan(Arc::new(plan), seed, SimScratch::new()))
}

/// Run `cfg` over `set` with run seed `seed`, recording its telemetry
/// into an in-memory columnar store.
pub(crate) fn record_run(
    set: &TraceSet,
    cfg: &SchedulerConfig,
    seed: u64,
) -> Result<(RunReport, ColumnarStore), String> {
    let store = ColumnarStore::in_memory();
    let report = plan_run(set, cfg, seed)?.with_sink(store.sink()).run();
    Ok((report, store))
}

/// The recorded stream of an in-memory store, in emission order.
pub(crate) fn decode(store: &ColumnarStore) -> Result<Vec<StoredEvent>, String> {
    ColReader::from_bytes(&store.bytes())
        .and_then(|r| r.decode_all())
        .map_err(|e| e.to_string())
}

/// `--metrics`: n, mean, min, max and exact p99 of five observables of
/// the recorded run, then its event count per kind.
fn render_metrics(events: &[StoredEvent]) -> String {
    let values = |field: Field| -> Vec<f64> {
        events
            .iter()
            .filter_map(|se| field.extract(&se.event))
            .collect()
    };
    // Effective $/hour of each closed lease; zero-length leases are skipped.
    let lease_cost: Vec<f64> = events
        .iter()
        .filter_map(|se| {
            let hours = Field::LeaseHours.extract(&se.event)?;
            let cost = Field::Cost.extract(&se.event)?;
            (hours > 0.0).then(|| cost / hours)
        })
        .collect();
    let reacquire = reacquire_seconds(events)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let mut out = String::new();
    for (title, values, unit) in [
        ("outage duration", values(Field::OutageSeconds), "s"),
        (
            "migration latency",
            values(Field::MigrationDowntimeSeconds),
            "s",
        ),
        ("lease length", values(Field::LeaseHours), "h"),
        ("time to reacquire", reacquire, "s"),
        ("lease cost", lease_cost, "$/h"),
    ] {
        let stat = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}{unit}"));
        let some = !values.is_empty();
        out.push_str(&format!(
            "{title}: n={} mean={} min={} max={} p99={}\n",
            values.len(),
            stat(some.then(|| mean(&values))),
            stat(values.iter().copied().reduce(f64::min)),
            stat(values.iter().copied().reduce(f64::max)),
            stat(some.then(|| percentile_of(&values, 99.0))),
        ));
    }
    out.push_str("events:");
    for (kind, n) in group_counts(events, GroupBy::Kind) {
        out.push_str(&format!(" {kind}={n}"));
    }
    out.push('\n');
    out
}

pub fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let cfg = build_cfg(args)?;
    let policy = cfg.policy;
    let seed0 = args.get_u64("seed", 0)?;
    let stability = args.get_f64("stability", 0.0)?;
    let fault_rate = args.get_f64("fault-rate", 0.0)?;
    let storm_intensity = args.get_f64("storm-intensity", 0.0)?;

    // Imported history: a single deterministic run against it.
    args.reject_beside("seeds", "traces")?;
    let imported = imported_traces(args)?;
    let (agg, horizon) = match &imported {
        Some(set) => {
            let report = plan_run(set, &cfg, seed0)?.run();
            (AggregateReport::of(vec![report]), set.horizon())
        }
        None => {
            let horizon = args.get_duration("days", 60, SimDuration::days(1))?;
            let seeds = args.get_positive("seeds", 1)?;
            (run_many(&cfg, seed0, seeds, horizon), horizon)
        }
    };

    let _ = writeln!(out, "scope:      {}", cfg.scope.label());
    let _ = writeln!(
        out,
        "policy:     {policy}   mechanism: {mechanism}",
        mechanism = cfg.mechanism
    );
    if stability > 0.0 {
        let _ = writeln!(out, "stability:  weight {stability}");
    }
    if cfg.faults.enabled() {
        let _ = writeln!(out, "faults:     uniform rate {fault_rate}");
    }
    if cfg.storms.enabled() {
        let _ = writeln!(out, "storms:     intensity {storm_intensity}");
    }
    let _ = writeln!(
        out,
        "runs:       {} x {} days\n",
        agg.runs.len(),
        horizon.as_days_f64()
    );
    let _ = writeln!(
        out,
        "normalized cost:   {:.1}% of on-demand  (min {:.1}%, max {:.1}%)",
        agg.normalized_cost_pct(),
        agg.normalized_cost.min * 100.0,
        agg.normalized_cost.max * 100.0
    );
    let _ = writeln!(
        out,
        "unavailability:    {:.5}%  (~{:.1} s downtime/month)",
        agg.unavailability_pct(),
        slo::downtime_per_month(agg.unavailability.mean)
    );
    let _ = writeln!(
        out,
        "four nines:        {}",
        if slo::meets_nines(agg.unavailability.mean, 4) {
            "met"
        } else {
            "MISSED"
        }
    );
    let _ = writeln!(
        out,
        "migrations/hour:   {:.4} forced, {:.4} planned+reverse",
        agg.forced_per_hour.mean, agg.planned_reverse_per_hour.mean
    );
    let _ = writeln!(
        out,
        "time on spot:      {:.1}%",
        agg.spot_fraction.mean * 100.0
    );
    if cfg.faults.enabled() {
        let sum = |f: fn(&RunReport) -> u32| agg.runs.iter().map(f).sum::<u32>();
        let _ = writeln!(
            out,
            "injected faults:   {} refused requests, {} unwarned revocations,",
            sum(|r| r.request_faults),
            sum(|r| r.unwarned_revocations)
        );
        let _ = writeln!(
            out,
            "                   {} checkpoint failures, {} live-migration aborts",
            sum(|r| r.ckpt_faults),
            sum(|r| r.live_aborts)
        );
    }

    // Telemetry views: re-run the first seed once, into a columnar store
    // that `--trace`, `--store` and `--metrics` all read. The recorded run
    // is bit-identical to the aggregate's first member (the sink only
    // observes), so the numbers above still describe it.
    let (trace, store_path, metrics) = (args.get("trace"), args.get("store"), args.has("metrics"));
    if trace.is_some() || store_path.is_some() || metrics {
        let set = match imported {
            Some(set) => set,
            None => TraceSet::generate(&Catalog::ec2_2015(), &cfg.candidates(), seed0, horizon),
        };
        let (_, store) = record_run(&set, &cfg, seed0)?;
        let events = decode(&store)?;
        if let Some(path) = trace {
            let file = std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
            let mut file = BufWriter::new(file);
            write_jsonl(&mut file, events.iter().map(|se| (se.at, &se.event)))
                .and_then(|()| file.flush())
                .map_err(|e| format!("--trace {path}: {e}"))?;
            let _ = writeln!(
                out,
                "\ntrace:             {} events -> {path} (seed {seed0}, JSONL)",
                events.len()
            );
        }
        if let Some(path) = store_path {
            std::fs::write(path, store.bytes()).map_err(|e| format!("--store {path}: {e}"))?;
            let _ = writeln!(
                out,
                "\nstore:             {} events in {} columnar blocks -> {path} \
                 (seed {seed0}; aggregate with `spothost query --store {path}`)",
                store.events_written(),
                store.blocks_written()
            );
        }
        if metrics {
            let _ = writeln!(out, "\nevent histograms (seed {seed0}):");
            out.push_str(&render_metrics(&events));
        }
    }
    if args.has("cache-stats") {
        let s = spothost_market::TraceArena::global().stats();
        let _ = writeln!(out, "\ntrace arena (process-global cache):");
        let _ = writeln!(
            out,
            "  traces:   {} hits, {} misses ({} resident, {:.1} MB, {} evicted, cap {})",
            s.trace_hits,
            s.trace_misses,
            s.resident_traces,
            s.resident_bytes as f64 / 1e6,
            s.trace_evictions,
            if s.trace_capacity == 0 {
                "unbounded".to_string()
            } else {
                s.trace_capacity.to_string()
            }
        );
        let _ = writeln!(
            out,
            "  factors:  {} hits, {} misses",
            s.factor_hits, s.factor_misses
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(items: &[&str]) -> Args {
        parse(
            &[SCENARIO, FLAGS],
            &items.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn run(args: &Args) -> Result<String, String> {
        let mut out = String::new();
        super::run(args, &mut out).map(|()| out)
    }

    #[test]
    fn parses_all_policies_and_mechanisms() {
        for p in [
            "proactive",
            "adaptive",
            "reactive",
            "pure-spot",
            "on-demand",
        ] {
            parse_policy(p).unwrap();
        }
        assert!(parse_policy("yolo").is_err());
        for m in ["ckpt", "ckpt-lr", "ckpt-live", "ckpt-lr-live"] {
            parse_mechanism(m).unwrap();
        }
        assert!(parse_mechanism("magic").is_err());
    }

    #[test]
    fn scope_parsing() {
        let (s, u) = scope_and_units(&argv(&["--market", "us-west-1a/large"])).unwrap();
        assert_eq!(
            s,
            MarketScope::Single(MarketId::new(Zone::UsWest1a, InstanceType::Large))
        );
        assert_eq!(u, 4);
        let (s, u) = scope_and_units(&argv(&["--scope", "zone:us-east-1b"])).unwrap();
        assert_eq!(s, MarketScope::MultiMarket(Zone::UsEast1b));
        assert_eq!(u, 8);
        assert_eq!(
            parse_scope("regions:us-east-1a,eu-west-1a").unwrap(),
            MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::EuWest1a])
        );
        assert!(parse_scope("nope").is_err());
        assert!(parse_scope("zone:mars").is_err());
        assert!(parse_scope("regions:us-east-1a,mars").is_err());
    }

    #[test]
    fn short_simulation_runs() {
        run(&argv(&[
            "--market",
            "us-east-1a/small",
            "--days",
            "3",
            "--seeds",
            "1",
        ]))
        .unwrap();
    }

    #[test]
    fn cache_stats_flag_accepted() {
        run(&argv(&["--days", "2", "--cache-stats"])).unwrap();
    }

    #[test]
    fn pessimistic_switch_accepted() {
        run(&argv(&["--days", "2", "--pessimistic"])).unwrap();
    }

    #[test]
    fn full_fault_rate_terminates_cleanly() {
        // Acceptance bar: a run where every request is refused must still
        // terminate and report the outage rather than hang or panic.
        run(&argv(&[
            "--days",
            "2",
            "--policy",
            "on-demand",
            "--fault-rate",
            "1.0",
        ]))
        .unwrap();
    }

    #[test]
    fn fault_rate_out_of_range_rejected() {
        assert!(run(&argv(&["--days", "1", "--fault-rate", "1.5"])).is_err());
    }

    #[test]
    fn storm_intensity_flag_runs_and_validates() {
        // A storm-laden short run terminates and reports.
        run(&argv(&["--days", "2", "--storm-intensity", "0.7"])).unwrap();
        // Out-of-range intensity surfaces through cfg.validate().
        assert!(build_cfg(&argv(&["--storm-intensity", "1.5"])).is_err());
        assert!(build_cfg(&argv(&["--storm-intensity", "-0.1"])).is_err());
        // Zero intensity is the storm-free default (no schedule at all).
        let cfg = build_cfg(&argv(&["--days", "2"])).unwrap();
        assert!(!cfg.storms.enabled());
    }

    #[test]
    fn adaptive_policy_simulation_runs() {
        run(&argv(&[
            "--market",
            "us-east-1a/small",
            "--policy",
            "adaptive",
            "--days",
            "3",
            "--seeds",
            "1",
        ]))
        .unwrap();
    }

    #[test]
    fn policy_knobs_apply_and_validate() {
        // A tame proactive multiple flows into the config...
        let cfg = build_cfg(&argv(&["--bid-mult", "2.0"])).unwrap();
        assert_eq!(cfg.policy, BiddingPolicy::Proactive { bid_mult: 2.0 });
        let cfg = build_cfg(&argv(&["--policy", "adaptive", "--risk-budget", "0.01"])).unwrap();
        assert_eq!(cfg.policy, BiddingPolicy::Adaptive { risk_budget: 0.01 });
        // ...and out-of-range values are errors, not panics.
        assert!(build_cfg(&argv(&["--bid-mult", "0.5"])).is_err());
        assert!(build_cfg(&argv(&["--policy", "adaptive", "--risk-budget", "0"])).is_err());
        assert!(build_cfg(&argv(&["--policy", "adaptive", "--risk-budget", "1.5"])).is_err());
    }
}
