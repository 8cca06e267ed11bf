//! `jobs`: the `repro jobs` ladder at full settings, 3 policies x 7 fault
//! rates x 2 storm levels x 12 seeds, one `run_jobs_on` call per cell.

use crate::digest::Digest;
use crate::probe::Stopwatch;
use crate::trace::{maybe_span, Counts, Ctx, Tracer};
use crate::{PassOut, TracedOut, Workload};
use spothost_analysis::mc::par_map_chunks;
use spothost_bench::experiments::jobs as jobs_exp;
use spothost_core::telemetry::NullSink;
use spothost_faults::{FaultConfig, StormConfig};
use spothost_jobs::{
    generate_jobs, run_jobs_on, JobPolicy, JobsConfig, JobsRunResult, JobsScratch,
};
use spothost_market::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

const SEEDS: u64 = 12;
const HORIZON_DAYS: u64 = 60;

/// The experiment's cells in its own order: storm level, policy, rate.
pub fn cells() -> Vec<JobsConfig> {
    let mut cells = Vec::new();
    for storm in jobs_exp::STORM_LEVELS {
        for policy in JobPolicy::ALL {
            for rate in jobs_exp::RATES {
                let cfg = JobsConfig::new(policy).with_faults(FaultConfig::uniform(rate));
                cells.push(if storm > 0.0 {
                    cfg.with_storms(StormConfig::intensity(storm))
                } else {
                    cfg
                });
            }
        }
    }
    cells
}

/// Check a run's invariants and fold every field into the digest.
fn absorb_jobs(d: &mut Digest, run: &JobsRunResult) -> bool {
    let r = &run.report;
    for x in [
        r.jobs,
        r.finished,
        r.missed,
        r.revocations,
        r.checkpoints,
        r.escalations,
    ] {
        d.u64(u64::from(x));
    }
    d.f64(r.total_cost);
    for x in [r.useful, r.wasted, r.makespan] {
        d.u64(x.as_millis());
    }
    let mut ok = r.total_cost.is_finite() && r.total_cost >= 0.0;
    for o in &run.outcomes {
        d.u64(o.completion.as_millis());
        d.u64(o.started.map_or(u64::MAX, |t| t.as_millis()));
        for x in [o.cost, o.useful_cost] {
            d.f64(x);
        }
        for x in [o.useful, o.wasted, o.compute] {
            d.u64(x.as_millis());
        }
        for x in [o.revocations, o.checkpoints] {
            d.u64(u64::from(x));
        }
        d.u64(u64::from(o.finished) | u64::from(o.missed) << 1 | u64::from(o.escalated) << 2);
        ok &= o.useful.as_millis() + o.wasted.as_millis() == o.compute.as_millis()
            && o.cost.is_finite()
            && o.cost >= 0.0;
    }
    ok
}

pub struct Jobs {
    runs: Vec<(JobsConfig, u64)>,
    horizon: SimDuration,
}

impl Jobs {
    /// Every (cell, seed) run, seed-major within a cell as the experiment
    /// orders them, in chunks of one cell that share a scratch.
    fn run_all<S, F>(&self, tr: Ctx, sink: F) -> Vec<JobsRunResult>
    where
        S: spothost_core::telemetry::Sink,
        F: Fn() -> S + Sync,
    {
        let catalog = Catalog::ec2_2015();
        let horizon = self.horizon;
        maybe_span(tr, "analysis.par_map_chunks", |tr| {
            par_map_chunks(self.runs.clone(), SEEDS as usize, |chunk| {
                let mut scratch = JobsScratch::new();
                chunk
                    .iter()
                    .map(|(cfg, seed)| {
                        let traces = maybe_span(tr, "market.generate", |_| {
                            TraceSet::generate(&catalog, &[cfg.market], *seed, horizon)
                        });
                        maybe_span(tr, "jobs.run", |_| {
                            run_jobs_on(cfg, &traces, *seed, &mut sink(), &mut scratch)
                        })
                    })
                    .collect()
            })
        })
    }

    fn tally(results: &[JobsRunResult], work: Stopwatch) -> PassOut {
        let mut out = PassOut {
            work,
            ..PassOut::default()
        };
        for run in results {
            let ok = absorb_jobs(&mut out.digest, run);
            out.op(ok);
            out.sim_hours += (run.report.useful + run.report.wasted).as_hours_f64();
        }
        out
    }
}

impl Workload for Jobs {
    const PARALLEL: bool = true;
    const SLOTS: usize = 1;

    fn setup(seed: u64, generate_s: &mut f64) -> Jobs {
        let seed0 = seed * SEEDS;
        let horizon = SimDuration::days(HORIZON_DAYS);
        let runs: Vec<(JobsConfig, u64)> = cells()
            .into_iter()
            .flat_map(|cfg| (seed0..seed0 + SEEDS).map(move |s| (cfg.clone(), s)))
            .collect();
        let catalog = Catalog::ec2_2015();
        let t0 = Instant::now();
        for s in seed0..seed0 + SEEDS {
            TraceSet::generate(&catalog, &[runs[0].0.market], s, horizon);
        }
        *generate_s += t0.elapsed().as_secs_f64();
        // Build every run's job queue once, as the runs themselves will.
        let queued: usize = runs
            .iter()
            .map(|(cfg, s)| generate_jobs(cfg, *s, SimTime::ZERO + horizon).len())
            .sum();
        assert!(queued > 0, "the job ladder has jobs to run");
        Jobs { runs, horizon }
    }

    fn pass(&mut self, _slot: usize) -> PassOut {
        let mut work = Stopwatch::default();
        let (results, _) = work.time(|| self.run_all(None, || NullSink));
        Jobs::tally(&results, work)
    }

    fn traced_pass(&mut self, _slot: usize, tr: &Tracer, parent: u32) -> TracedOut {
        let counts = Mutex::new(Counts::default());
        let mut work = Stopwatch::default();
        let (results, _) =
            work.time(|| self.run_all(Some((tr, parent)), CountOnDrop::factory(&counts)));
        let mut out = TracedOut::new(Jobs::tally(&results, work));
        let counts = counts.into_inner().expect("no panic while counting");
        counts.export(&mut out.counts);
        let (useful, compute) = results.iter().fold((0.0, 0.0), |(u, c), r| {
            let useful = r.report.useful.as_hours_f64();
            (u + useful, c + useful + r.report.wasted.as_hours_f64())
        });
        out.counts.insert("jobs.runs", results.len() as f64);
        out.counts.insert("jobs.useful_h", useful);
        out.counts.insert("jobs.compute_h", compute);
        let reported: u64 = results
            .iter()
            .map(|r| u64::from(r.report.checkpoints))
            .sum();
        if reported != counts.job_checkpoints {
            out.pass.op(false);
        }
        out
    }
}

/// A per-run counting sink that adds its tally to a shared total when the
/// run drops it (runs execute on the analysis thread pool).
struct CountOnDrop<'a> {
    counts: Counts,
    total: &'a Mutex<Counts>,
}

impl<'a> CountOnDrop<'a> {
    fn factory(total: &'a Mutex<Counts>) -> impl Fn() -> CountOnDrop<'a> + Sync {
        move || CountOnDrop {
            counts: Counts::default(),
            total,
        }
    }
}

impl spothost_core::telemetry::Sink for CountOnDrop<'_> {
    const ENABLED: bool = true;

    fn emit(&mut self, at: SimTime, event: spothost_core::telemetry::TelemetryEvent) {
        self.counts.emit(at, event);
    }
}

impl Drop for CountOnDrop<'_> {
    fn drop(&mut self) {
        if let Ok(mut t) = self.total.lock() {
            t.add(&self.counts);
        }
    }
}
