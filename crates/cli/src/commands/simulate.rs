//! `spothost simulate` — run the cloud scheduler and report.

use crate::args::Args;
use spothost_core::prelude::*;
use spothost_core::{RunPlan, SimRun, SimScratch};
use spothost_market::gen::TraceSet;
use spothost_market::io::{parse_market, read_trace_set};
use spothost_market::prelude::*;
use spothost_workload::slo;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;

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

fn parse_scope(args: &Args) -> Result<(MarketScope, u32), String> {
    if let Some(scope) = args.get("scope") {
        let (kind, rest) = scope
            .split_once(':')
            .ok_or("scope must be 'zone:Z' or 'regions:Z1,Z2'")?;
        let scope = match kind {
            "zone" => MarketScope::MultiMarket(parse_zone(rest)?),
            "regions" => {
                let zones = rest
                    .split(',')
                    .map(parse_zone)
                    .collect::<Result<Vec<_>, _>>()?;
                MarketScope::MultiRegion(zones)
            }
            other => return Err(format!("unknown scope kind '{other}'")),
        };
        let units = args.get_u32("units", 8)?;
        return Ok((scope, units));
    }
    let market =
        parse_market(args.get_or("market", "us-east-1a/small")).map_err(|e| e.to_string())?;
    let units = args.get_u32("units", market.itype.capacity_units())?;
    Ok((MarketScope::Single(market), units))
}

/// Build the scheduler configuration shared by `simulate` and `timeline`.
pub(crate) fn build_cfg(args: &Args) -> Result<SchedulerConfig, String> {
    let (scope, units) = parse_scope(args)?;
    let mut policy = parse_policy(args.get_or("policy", "proactive"))?;
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

/// The trace set `simulate`/`timeline` run against: imported price
/// history when `--traces DIR` is given, the calibrated generator
/// otherwise.
pub(crate) fn load_traces(
    args: &Args,
    cfg: &SchedulerConfig,
    seed: u64,
    horizon: SimDuration,
) -> Result<TraceSet, String> {
    let catalog = Catalog::ec2_2015();
    match args.get("traces") {
        Some(dir) => read_trace_set(&catalog, Path::new(dir)).map_err(|e| e.to_string()),
        None => Ok(TraceSet::generate(
            &catalog,
            &cfg.candidates(),
            seed,
            horizon,
        )),
    }
}

/// A run of `cfg` over `set` with run seed `seed`. An imported trace set
/// that lacks one of the config's candidate markets is an error, not a
/// panic.
pub(crate) fn plan_run<'t>(
    set: &'t TraceSet,
    cfg: &SchedulerConfig,
    seed: u64,
) -> Result<SimRun<'t>, String> {
    let plan = RunPlan::new(set, cfg).map_err(|e| e.to_string())?;
    Ok(SimRun::from_plan(Arc::new(plan), seed, SimScratch::new()))
}

pub fn run(args: &Args) -> Result<(), String> {
    let cfg = build_cfg(args)?;
    let policy = cfg.policy;
    let days = args.get_positive("days", 60)?;
    let seeds = args.get_positive("seeds", 1)?;
    let seed0 = args.get_u64("seed", 0)?;
    let stability = args.get_f64("stability", 0.0)?;
    let fault_rate = args.get_f64("fault-rate", 0.0)?;
    let storm_intensity = args.get_f64("storm-intensity", 0.0)?;

    let agg = match args.get("traces") {
        Some(dir) => {
            // Imported history: single deterministic run against it.
            let catalog = Catalog::ec2_2015();
            let set = read_trace_set(&catalog, Path::new(dir)).map_err(|e| e.to_string())?;
            let report = plan_run(&set, &cfg, seed0)?.run();
            AggregateReport::of(vec![report])
        }
        None => run_many(&cfg, seed0, seeds, SimDuration::days(days)),
    };

    println!("scope:      {}", cfg.scope.label());
    println!(
        "policy:     {policy}   mechanism: {mechanism}",
        mechanism = cfg.mechanism
    );
    if stability > 0.0 {
        println!("stability:  weight {stability}");
    }
    if cfg.faults.enabled() {
        println!("faults:     uniform rate {fault_rate}");
    }
    if cfg.storms.enabled() {
        println!("storms:     intensity {storm_intensity}");
    }
    println!("runs:       {} x {} days\n", agg.runs.len(), days);
    println!(
        "normalized cost:   {:.1}% of on-demand  (min {:.1}%, max {:.1}%)",
        agg.normalized_cost_pct(),
        agg.normalized_cost.min * 100.0,
        agg.normalized_cost.max * 100.0
    );
    println!(
        "unavailability:    {:.5}%  (~{:.1} s downtime/month)",
        agg.unavailability_pct(),
        slo::downtime_per_month(agg.unavailability.mean)
    );
    println!(
        "four nines:        {}",
        if slo::meets_nines(agg.unavailability.mean, 4) {
            "met"
        } else {
            "MISSED"
        }
    );
    println!(
        "migrations/hour:   {:.4} forced, {:.4} planned+reverse",
        agg.forced_per_hour.mean, agg.planned_reverse_per_hour.mean
    );
    println!("time on spot:      {:.1}%", agg.spot_fraction.mean * 100.0);
    if cfg.faults.enabled() {
        let sum = |f: fn(&RunReport) -> u32| agg.runs.iter().map(f).sum::<u32>();
        println!(
            "injected faults:   {} refused requests, {} unwarned revocations,",
            sum(|r| r.request_faults),
            sum(|r| r.unwarned_revocations)
        );
        println!(
            "                   {} checkpoint failures, {} live-migration aborts",
            sum(|r| r.ckpt_faults),
            sum(|r| r.live_aborts)
        );
    }

    // Telemetry extras: re-run the first seed with a sink attached. The
    // recorded run is bit-identical to the aggregate's first member (the
    // sink only observes), so the numbers above still describe it.
    if let Some(path) = args.get("trace") {
        let set = load_traces(args, &cfg, seed0, SimDuration::days(days))?;
        let file = std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        let mut rec = Recorder::new().with_writer(Box::new(BufWriter::new(file)));
        plan_run(&set, &cfg, seed0)?.with_sink(&mut rec).run();
        rec.finish().map_err(|e| format!("--trace {path}: {e}"))?;
        println!(
            "\ntrace:             {} events -> {path} (seed {seed0}, JSONL)",
            rec.len() as u64 + rec.dropped()
        );
        if rec.dropped() > 0 {
            println!(
                "WARNING: the in-memory ring buffer evicted the {} oldest events; \
                 the JSONL file is complete (streamed), but in-process consumers \
                 of this recorder only see the newest {}.",
                rec.dropped(),
                rec.len()
            );
        }
    }
    if let Some(path) = args.get("store") {
        let set = load_traces(args, &cfg, seed0, SimDuration::days(days))?;
        let store = spothost_eventstore::ColumnarStore::create(path)
            .map_err(|e| format!("--store {path}: {e}"))?;
        {
            let sink = store.sink();
            plan_run(&set, &cfg, seed0)?.with_sink(sink).run();
        }
        store.finish().map_err(|e| format!("--store {path}: {e}"))?;
        println!(
            "\nstore:             {} events in {} columnar blocks -> {path} \
             (seed {seed0}; aggregate with `spothost query --store {path}`)",
            store.events_written(),
            store.blocks_written()
        );
    }
    if args.has("metrics") {
        let set = load_traces(args, &cfg, seed0, SimDuration::days(days))?;
        let mut metrics = Metrics::new();
        plan_run(&set, &cfg, seed0)?.with_sink(&mut metrics).run();
        println!("\nevent histograms (seed {seed0}):");
        print!("{}", metrics.render());
    }
    if args.has("cache-stats") {
        let s = spothost_market::TraceArena::global().stats();
        println!("\ntrace arena (process-global cache):");
        println!(
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
        println!(
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

    fn argv(items: &[&str]) -> crate::args::Args {
        parse(&items.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
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
        let (s, u) = parse_scope(&argv(&["--market", "us-west-1a/large"])).unwrap();
        assert_eq!(
            s,
            MarketScope::Single(MarketId::new(Zone::UsWest1a, InstanceType::Large))
        );
        assert_eq!(u, 4);
        let (s, u) = parse_scope(&argv(&["--scope", "zone:us-east-1b"])).unwrap();
        assert_eq!(s, MarketScope::MultiMarket(Zone::UsEast1b));
        assert_eq!(u, 8);
        let (s, _) = parse_scope(&argv(&["--scope", "regions:us-east-1a,eu-west-1a"])).unwrap();
        assert_eq!(
            s,
            MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::EuWest1a])
        );
        assert!(parse_scope(&argv(&["--scope", "nope"])).is_err());
        assert!(parse_scope(&argv(&["--scope", "zone:mars"])).is_err());
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
