//! High-level run helpers: generate traces, run the scheduler, aggregate
//! Monte-Carlo repetitions (the paper: "we sampled the empirically observed
//! distributions and used a different sample for each simulation run").

use crate::config::SchedulerConfig;
use crate::report::RunReport;
use crate::scheduler::{SimRun, SimScratch};
use spothost_analysis::mc::{mc_run, par_map_chunks, Summary};
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::SimDuration;
use spothost_market::types::MarketId;
use spothost_telemetry::Recorder;

/// Run one configuration against freshly generated calibrated traces.
pub fn run_one(cfg: &SchedulerConfig, seed: u64, horizon: SimDuration) -> RunReport {
    let catalog = Catalog::ec2_2015();
    let markets = cfg.candidates();
    let traces = TraceSet::generate(&catalog, &markets, seed, horizon);
    SimRun::new(&traces, cfg, seed).run()
}

/// [`run_one`], recording the full telemetry event stream, however long
/// the run: the recorder is unbounded, so it drops no event.
///
/// The simulation itself is bit-identical to [`run_one`] — the recorder
/// only observes — so the returned [`RunReport`] matches the unrecorded
/// run exactly.
pub fn run_one_recorded(
    cfg: &SchedulerConfig,
    seed: u64,
    horizon: SimDuration,
) -> (RunReport, Recorder) {
    let catalog = Catalog::ec2_2015();
    let markets = cfg.candidates();
    let traces = TraceSet::generate(&catalog, &markets, seed, horizon);
    let mut rec = Recorder::with_capacity(usize::MAX);
    let report = SimRun::new(&traces, cfg, seed).with_sink(&mut rec).run();
    (report, rec)
}

/// Monte-Carlo aggregate over seeds.
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// Summary of per-run normalized cost (fraction of on-demand).
    pub normalized_cost: Summary,
    /// Summary of per-run unavailability (fraction of the span).
    pub unavailability: Summary,
    /// Summary of forced migrations per service-hour.
    pub forced_per_hour: Summary,
    /// Summary of planned + reverse migrations per service-hour.
    pub planned_reverse_per_hour: Summary,
    /// Summary of the fraction of lease time spent on spot.
    pub spot_fraction: Summary,
    /// Summary of the fraction of the span run degraded.
    pub degraded_fraction: Summary,
    /// The individual runs the summaries are computed over.
    pub runs: Vec<RunReport>,
}

impl AggregateReport {
    /// Summarize a batch of runs.
    pub fn of(runs: Vec<RunReport>) -> Self {
        let pick = |f: fn(&RunReport) -> f64| {
            let xs: Vec<f64> = runs.iter().map(f).collect();
            Summary::of(&xs)
        };
        AggregateReport {
            normalized_cost: pick(|r| r.normalized_cost),
            unavailability: pick(|r| r.unavailability),
            forced_per_hour: pick(|r| r.forced_per_hour),
            planned_reverse_per_hour: pick(|r| r.planned_reverse_per_hour),
            spot_fraction: pick(|r| r.spot_fraction),
            degraded_fraction: pick(|r| r.degraded_fraction),
            runs,
        }
    }

    /// Mean unavailability as a percent, the unit of the paper's figures.
    pub fn unavailability_pct(&self) -> f64 {
        self.unavailability.mean * 100.0
    }

    /// Mean normalized cost as a percent of the on-demand baseline.
    pub fn normalized_cost_pct(&self) -> f64 {
        self.normalized_cost.mean * 100.0
    }
}

/// Run `n_seeds` Monte-Carlo repetitions of a configuration in parallel
/// (rayon) and aggregate. Deterministic in `(cfg, seed0, n_seeds,
/// horizon)`.
pub fn run_many(
    cfg: &SchedulerConfig,
    seed0: u64,
    n_seeds: u64,
    horizon: SimDuration,
) -> AggregateReport {
    let runs = mc_run(seed0, n_seeds, |seed| run_one(cfg, seed, horizon));
    AggregateReport::of(runs)
}

/// Run a whole grid of configurations over the same seed range in **one**
/// flat parallel sweep, returning one aggregate per configuration (in
/// input order).
///
/// Equivalent to calling [`run_many`] once per configuration — results
/// are bit-identical — but substantially faster for figure sweeps:
///
/// * the seed x configuration grid is flattened into one chunked parallel
///   pass, so the thread pool never idles at a fork/join barrier between
///   grid cells (a cell with a slow seed no longer serialises the sweep);
/// * configurations that share a candidate-market set (e.g. the paper's
///   per-size runs against the same zone, or policy A/B comparisons on
///   one market) share one [`TraceSet`] per seed — and the per-seed union
///   pool comes out of the process-global trace arena, so traces shared
///   *across* grids and experiments are generated once per process;
/// * per-set trace views are [`TraceSet::subset`] slices of the union
///   pool (`Arc`-shared, no price data copied), and each worker carries
///   one [`SimScratch`] across every run in its chunk of seeds, so event
///   queues and forecaster buffers are reset in place instead of
///   reallocated per run.
pub fn run_grid(
    cfgs: &[SchedulerConfig],
    seed0: u64,
    n_seeds: u64,
    horizon: SimDuration,
) -> Vec<AggregateReport> {
    let catalog = Catalog::ec2_2015();
    // Group configurations by candidate-market set; each distinct set's
    // traces are generated once per seed and shared by its members.
    let mut sets: Vec<Vec<MarketId>> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (ci, cfg) in cfgs.iter().enumerate() {
        let markets = cfg.candidates();
        match sets.iter().position(|s| *s == markets) {
            Some(si) => members[si].push(ci),
            None => {
                sets.push(markets);
                members.push(vec![ci]);
            }
        }
    }
    // The union of every candidate set, deduplicated through a membership
    // set (16 possible markets). A market's generated trace depends only
    // on (master seed, market) — zone factors and spike schedules derive
    // from dedicated streams, not from which other markets share the set —
    // so the union pool can be generated once per seed and sliced into
    // per-set views that are bit-identical to sets generated alone.
    let mut in_union = [false; 16];
    let mut union: Vec<MarketId> = Vec::new();
    for &m in sets.iter().flatten() {
        if !std::mem::replace(&mut in_union[m.dense_index()], true) {
            union.push(m);
        }
    }
    // One job per seed, processed in chunks so a worker's scratch state
    // survives across the seeds of its chunk; the chunk size only affects
    // amortisation, never results (scratch is reset per run). Workers
    // claim chunks one at a time, so about four chunks per thread lets a
    // worker that drew cheap seeds take more while another finishes a
    // slow one, without giving up the scratch reuse within a chunk.
    let seeds: Vec<u64> = (seed0..seed0 + n_seeds).collect();
    let chunk = seeds
        .len()
        .div_ceil(4 * rayon::current_num_threads())
        .max(1);
    let ran: Vec<Vec<Vec<RunReport>>> = par_map_chunks(seeds, chunk, |chunk_seeds| {
        let mut scratch = SimScratch::new();
        chunk_seeds
            .iter()
            .map(|&seed| {
                let pool = TraceSet::generate(&catalog, &union, seed, horizon);
                sets.iter()
                    .zip(&members)
                    .map(|(set, ms)| {
                        let traces = pool.subset(set);
                        ms.iter()
                            .map(|&ci| {
                                let run = SimRun::with_scratch(
                                    &traces,
                                    &cfgs[ci],
                                    seed,
                                    std::mem::take(&mut scratch),
                                );
                                let (report, reclaimed) = run.run_reclaim();
                                scratch = reclaimed;
                                report
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    });
    // Regroup per configuration; `par_map_chunks` preserves seed order, so
    // each configuration receives its reports in seed order — exactly as
    // `run_many` produces them.
    let mut per_cfg: Vec<Vec<RunReport>> = vec![Vec::with_capacity(n_seeds as usize); cfgs.len()];
    for per_seed in ran {
        for (ms, reports) in members.iter().zip(per_seed) {
            for (&ci, report) in ms.iter().zip(reports) {
                per_cfg[ci].push(report);
            }
        }
    }
    per_cfg.into_iter().map(AggregateReport::of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BiddingPolicy;
    use spothost_market::types::{InstanceType, MarketId, Zone};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, InstanceType::Small))
    }

    #[test]
    fn run_one_is_deterministic() {
        let a = run_one(&cfg(), 3, SimDuration::days(14));
        let b = run_one(&cfg(), 3, SimDuration::days(14));
        assert_eq!(a, b);
    }

    #[test]
    fn run_many_aggregates_all_seeds() {
        let agg = run_many(&cfg(), 0, 4, SimDuration::days(14));
        assert_eq!(agg.runs.len(), 4);
        assert_eq!(agg.normalized_cost.n, 4);
        assert!(agg.normalized_cost.mean > 0.0);
        assert!(agg.normalized_cost.min <= agg.normalized_cost.mean);
        assert!(agg.normalized_cost.mean <= agg.normalized_cost.max);
    }

    #[test]
    fn run_grid_matches_run_many_per_config() {
        // The grid sweep shares trace sets between configurations with the
        // same candidate markets and flattens the parallelism, but every
        // per-seed run must stay bit-identical to the per-config path.
        let m = MarketId::new(Zone::UsEast1a, InstanceType::Small);
        let cfgs = [
            SchedulerConfig::single_market(m),
            SchedulerConfig::single_market(m).with_policy(BiddingPolicy::Reactive),
            SchedulerConfig::single_market(MarketId::new(Zone::EuWest1a, InstanceType::Large)),
        ];
        let grid = run_grid(&cfgs, 5, 3, SimDuration::days(14));
        assert_eq!(grid.len(), cfgs.len());
        for (cfg, agg) in cfgs.iter().zip(&grid) {
            let solo = run_many(cfg, 5, 3, SimDuration::days(14));
            assert_eq!(agg.runs, solo.runs);
        }
    }

    #[test]
    fn calibrated_proactive_beats_on_demand_substantially() {
        // The headline claim at small scale: proactive hosting on the
        // calibrated us-east-1a small market costs a small fraction of
        // on-demand.
        let agg = run_many(&cfg(), 0, 4, SimDuration::days(30));
        assert!(
            agg.normalized_cost.mean < 0.5,
            "normalized cost {}",
            agg.normalized_cost.mean
        );
        assert!(
            agg.unavailability.mean < 0.005,
            "unavailability {}",
            agg.unavailability.mean
        );
    }

    #[test]
    fn pure_spot_cheap_but_unavailable() {
        let pure = run_many(
            &cfg().with_policy(BiddingPolicy::PureSpot),
            0,
            4,
            SimDuration::days(30),
        );
        let pro = run_many(&cfg(), 0, 4, SimDuration::days(30));
        // Pure spot is at most as expensive as proactive (it never pays
        // on-demand prices) but far less available.
        assert!(pure.normalized_cost.mean <= pro.normalized_cost.mean * 1.1);
        assert!(pure.unavailability.mean > pro.unavailability.mean);
    }
}
