//! `spothost jobs` — deadline batch scheduling on spot markets.
//!
//! Runs the `spothost-jobs` simulator: a seeded queue of deadline jobs
//! scheduled onto spot worker slots under one of the policy rungs
//! (greedy restart, risk-driven checkpointing, or on-demand fallback),
//! or all three side by side for comparison. Prints the per-policy
//! report ($/job, deadline misses, wasted work, makespan) and, with
//! `--outcomes`, the worst per-job lines. `--store` records the run's
//! job lifecycle events (started/checkpointed/restarted/finished, with
//! per-job cost on finish) into a columnar event store for
//! `spothost query`.

use crate::args::Args;
use spothost_core::telemetry::NullSink;
use spothost_faults::{FaultConfig, StormConfig};
use spothost_jobs::{try_run_jobs_on, JobPolicy, JobsConfig, JobsRunResult, JobsScratch};
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::io::parse_market;
use spothost_market::time::SimDuration;

fn parse_policies(s: &str) -> Result<Vec<JobPolicy>, String> {
    if s == "all" {
        return Ok(JobPolicy::ALL.to_vec());
    }
    JobPolicy::parse(s).map(|p| vec![p]).ok_or_else(|| {
        format!("unknown policy '{s}' (expected greedy-spot, checkpoint-spot, on-demand-fallback, or all)")
    })
}

fn config_from(args: &Args) -> Result<JobsConfig, String> {
    let mut cfg = JobsConfig::new(JobPolicy::GreedySpot);
    cfg.market =
        parse_market(args.get_or("market", "us-east-1a/large")).map_err(|e| e.to_string())?;
    cfg.workers = args.get_u32("workers", cfg.workers)?;
    cfg.slack_factor = args.get_f64("slack", cfg.slack_factor)?;
    let runtime_h = args.get_f64("mean-runtime-h", cfg.mean_runtime.as_hours_f64())?;
    let arrival_h = args.get_f64("mean-arrival-h", cfg.mean_interarrival.as_hours_f64())?;
    // `is_sign_positive` alone would admit NaN; this rejects NaN, zero,
    // and negatives in one shot.
    if runtime_h.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || arrival_h.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err("--mean-runtime-h and --mean-arrival-h must be > 0".into());
    }
    cfg.mean_runtime = SimDuration::hours(1).mul_f64(runtime_h);
    cfg.mean_interarrival = SimDuration::hours(1).mul_f64(arrival_h);
    let rate = args.get_f64("fault-rate", 0.0)?;
    if rate > 0.0 {
        cfg.faults = FaultConfig::uniform(rate);
    }
    let storm = args.get_f64("storm-intensity", 0.0)?;
    if storm > 0.0 {
        cfg.storms = StormConfig::intensity(storm);
    }
    cfg.validate()?;
    Ok(cfg)
}

fn print_worst_outcomes(run: &JobsRunResult, n: usize) {
    let mut worst: Vec<_> = run.outcomes.iter().collect();
    worst.sort_by(|a, b| {
        (b.missed, b.cost)
            .partial_cmp(&(a.missed, a.cost))
            .expect("job costs are finite")
    });
    println!(
        "  worst {} jobs (missed first, then by cost):",
        n.min(worst.len())
    );
    for o in worst.iter().take(n) {
        println!(
            "    arrival {:>7.1}h runtime {:>5.1}h deadline {:>7.1}h -> {} at {:>7.1}h, \
             ${:.3}, {} revocations, {} checkpoints{}{}",
            o.spec.arrival.as_hours_f64(),
            o.spec.runtime.as_hours_f64(),
            o.spec.deadline.as_hours_f64(),
            if o.missed { "MISSED" } else { "met" },
            o.completion.as_hours_f64(),
            o.cost,
            o.revocations,
            o.checkpoints,
            if o.escalated { ", escalated" } else { "" },
            if o.finished { "" } else { ", unfinished" },
        );
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let policies = parse_policies(args.get_or("policy", "all"))?;
    let days = args.get_positive("days", 14)?;
    let seed = args.get_u64("seed", 0)?;
    let outcomes = args.has("outcomes");
    let base = config_from(args)?;

    let horizon = SimDuration::days(days);
    let traces = TraceSet::generate(&Catalog::ec2_2015(), &[base.market], seed, horizon);
    let mut scratch = JobsScratch::new();

    let store = args
        .get("store")
        .map(|path| {
            spothost_eventstore::ColumnarStore::create(path)
                .map(|s| (s, path.to_string()))
                .map_err(|e| format!("--store {path}: {e}"))
        })
        .transpose()?;

    println!(
        "batch jobs on {} over {days} simulated days (seed {seed}, {} workers):\n",
        base.market, base.workers
    );
    for policy in policies {
        let cfg = JobsConfig {
            policy,
            ..base.clone()
        };
        let run = match &store {
            // All policies share one store, each as its own sealed
            // stream (the sink drops, and seals, per policy).
            Some((store, _)) => {
                let mut sink = store.sink();
                try_run_jobs_on(&cfg, &traces, seed, &mut sink, &mut scratch)
            }
            None => try_run_jobs_on(&cfg, &traces, seed, &mut NullSink, &mut scratch),
        }
        .map_err(|e| e.to_string())?;
        println!("{}", run.report);
        if outcomes {
            print_worst_outcomes(&run, 5);
        }
    }
    if let Some((sink, path)) = store {
        sink.finish().map_err(|e| format!("--store {path}: {e}"))?;
        println!(
            "store: {} events in {} blocks -> {path} (aggregate with `spothost query`)",
            sink.events_written(),
            sink.blocks_written()
        );
    }
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
    fn runs_all_policies_quickly() {
        run(&argv(&["--days", "4", "--workers", "2", "--outcomes"])).unwrap();
    }

    #[test]
    fn runs_one_policy_with_faults() {
        run(&argv(&[
            "--policy",
            "on-demand-fallback",
            "--days",
            "4",
            "--fault-rate",
            "0.1",
            "--storm-intensity",
            "0.5",
        ]))
        .unwrap();
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(run(&argv(&["--policy", "nope"])).is_err());
        assert!(run(&argv(&["--days", "0"])).is_err());
        assert!(run(&argv(&["--market", "nowhere/huge"])).is_err());
        assert!(run(&argv(&["--mean-runtime-h", "0"])).is_err());
        assert!(run(&argv(&["--slack", "-2"])).is_err());
    }

    #[test]
    fn writes_a_columnar_store() {
        let dir = std::env::temp_dir().join("spothost-jobs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.col");
        let path_s = path.to_str().unwrap();
        run(&argv(&[
            "--policy",
            "checkpoint-spot",
            "--days",
            "4",
            "--store",
            path_s,
        ]))
        .unwrap();
        assert!(path.exists() && std::fs::metadata(&path).unwrap().len() > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
