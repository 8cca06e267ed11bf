//! `sweep`: one `run_grid` call over the union of the scheduler grids the
//! simulation-backed experiments sweep, at the paper's 12 seeds x 60 days.

use crate::digest::Digest;
use crate::probe::Stopwatch;
use crate::trace::{Counts, Tracer};
use crate::{PassOut, TracedOut, Workload};
use spothost_analysis::mc::par_map_chunks;
use spothost_bench::experiments::{adaptive, faults, fig6, stability, storms};
use spothost_core::prelude::*;
use spothost_core::{SimRun, SimScratch};
use spothost_market::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

const SEEDS: u64 = 12;
const HORIZON_DAYS: u64 = 60;

/// The grids of fig6–fig9, stability, faults, adaptive and storms, built
/// exactly as those experiments build them (experiment-private constants
/// are restated), deduplicated into one union.
pub fn grid() -> Vec<SchedulerConfig> {
    let small = MarketId::new(Zone::UsEast1a, InstanceType::Small);
    let mut cfgs = Vec::new();
    // fig6: reactive vs proactive, four sizes on one zone.
    for size in InstanceType::ALL {
        for policy in [BiddingPolicy::Reactive, BiddingPolicy::proactive_default()] {
            cfgs.push(
                SchedulerConfig::single_market(MarketId::new(fig6::ZONE, size)).with_policy(policy),
            );
        }
    }
    // fig7: the four mechanism combos, typical and pessimistic.
    for combo in MechanismCombo::ALL {
        for regime in [ParamRegime::Typical, ParamRegime::Pessimistic] {
            cfgs.push(
                SchedulerConfig::single_market(small)
                    .with_mechanism(combo)
                    .with_regime(regime),
            );
        }
    }
    // fig8: every zone's single markets plus its multi-market scope.
    for zone in Zone::ALL {
        for size in InstanceType::ALL {
            cfgs.push(
                SchedulerConfig::single_market(MarketId::new(zone, size))
                    .with_mechanism(MechanismCombo::CKPT_LR_LIVE),
            );
        }
        cfgs.push(SchedulerConfig::multi(MarketScope::MultiMarket(zone)));
    }
    // fig9: single-region schemes plus every multi-region pair.
    for zone in Zone::ALL {
        cfgs.push(SchedulerConfig::multi(MarketScope::MultiMarket(zone)));
    }
    for (a, b) in Zone::all_pairs() {
        cfgs.push(SchedulerConfig::multi(MarketScope::MultiRegion(vec![a, b])));
    }
    // stability: the weight sweep on us-east-1b + eu-west-1a, and the
    // stable zone alone.
    let pair = MarketScope::MultiRegion(vec![Zone::UsEast1b, Zone::EuWest1a]);
    for weight in stability::WEIGHTS {
        cfgs.push(SchedulerConfig::multi(pair.clone()).with_stability_weight(weight));
    }
    cfgs.push(SchedulerConfig::multi(MarketScope::MultiMarket(
        Zone::EuWest1a,
    )));
    // faults: fault-rate sweep per combo (proactive) and per policy (CKPT LR).
    for combo in MechanismCombo::ALL {
        for rate in faults::RATES {
            cfgs.push(
                SchedulerConfig::single_market(small)
                    .with_policy(BiddingPolicy::proactive_default())
                    .with_mechanism(combo)
                    .with_faults(FaultConfig::uniform(rate)),
            );
        }
    }
    for policy in [
        BiddingPolicy::Reactive,
        BiddingPolicy::proactive_default(),
        BiddingPolicy::OnDemandOnly,
    ] {
        for rate in faults::RATES {
            cfgs.push(
                SchedulerConfig::single_market(small)
                    .with_policy(policy)
                    .with_mechanism(MechanismCombo::CKPT_LR)
                    .with_faults(FaultConfig::uniform(rate)),
            );
        }
    }
    // adaptive: the fixed-bid ladder and the forecast-driven policy.
    for size in InstanceType::ALL {
        for (_, policy) in adaptive::POLICIES {
            cfgs.push(
                SchedulerConfig::single_market(MarketId::new(adaptive::ZONE, size))
                    .with_policy(policy),
            );
        }
    }
    // storms: intensity sweep per combo, and per scope at CKPT LR+Live.
    let storm_base = || {
        SchedulerConfig::single_market(small)
            .with_policy(BiddingPolicy::proactive_default())
            .with_faults(FaultConfig::uniform(storms::BASE_FAULT_RATE))
    };
    for combo in MechanismCombo::ALL {
        for x in storms::INTENSITIES {
            cfgs.push(
                storm_base()
                    .with_mechanism(combo)
                    .with_storms(StormConfig::intensity(x)),
            );
        }
    }
    for scope in [
        MarketScope::Single(small),
        MarketScope::MultiMarket(Zone::UsEast1a),
        MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsWest1a, Zone::EuWest1a]),
    ] {
        for x in storms::INTENSITIES {
            cfgs.push(
                SchedulerConfig::multi(scope.clone())
                    .with_capacity_units(1)
                    .with_policy(BiddingPolicy::proactive_default())
                    .with_mechanism(MechanismCombo::CKPT_LR_LIVE)
                    .with_faults(FaultConfig::uniform(storms::BASE_FAULT_RATE))
                    .with_storms(StormConfig::intensity(x)),
            );
        }
    }
    // Configurations have no equality; their debug form is complete.
    let mut seen = std::collections::HashSet::new();
    cfgs.retain(|c| seen.insert(format!("{c:?}")));
    cfgs
}

/// `run_grid`'s grouping: distinct candidate sets, the configurations
/// sharing each, and the union of all sets in first-seen order.
struct Layout {
    sets: Vec<Vec<MarketId>>,
    members: Vec<Vec<usize>>,
    union: Vec<MarketId>,
}

impl Layout {
    fn of(cfgs: &[SchedulerConfig]) -> Layout {
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
        let mut union: Vec<MarketId> = Vec::new();
        for &m in sets.iter().flatten() {
            if !union.contains(&m) {
                union.push(m);
            }
        }
        Layout {
            sets,
            members,
            union,
        }
    }
}

pub struct Sweep {
    cfgs: Vec<SchedulerConfig>,
    layout: Layout,
    seed0: u64,
    horizon: SimDuration,
}

/// Check a run's invariants and fold every field into the digest.
pub fn absorb_run(d: &mut Digest, r: &RunReport) -> bool {
    for x in [
        r.normalized_cost,
        r.unavailability,
        r.degraded_fraction,
        r.forced_per_hour,
        r.planned_reverse_per_hour,
        r.spot_fraction,
        r.cost,
        r.baseline_cost,
    ] {
        d.f64(x);
    }
    for x in [r.downtime.as_millis(), r.active_span.as_millis()] {
        d.u64(x);
    }
    for x in [
        r.forced_migrations,
        r.planned_migrations,
        r.reverse_migrations,
        r.request_faults,
        r.unwarned_revocations,
        r.ckpt_faults,
        r.live_aborts,
    ] {
        d.u64(u64::from(x));
    }
    r.cost.is_finite()
        && r.cost >= 0.0
        && (0.0..=1.0).contains(&r.unavailability)
        && (0.0..=1.0).contains(&r.spot_fraction)
}

impl Sweep {
    /// Digest, simulated hours and failures over per-configuration runs.
    fn tally(&self, per_cfg: &[Vec<RunReport>], work: Stopwatch) -> PassOut {
        let mut out = PassOut {
            work,
            ..PassOut::default()
        };
        for runs in per_cfg {
            for r in runs {
                let ok = absorb_run(&mut out.digest, r);
                out.op(ok);
                out.sim_hours += r.active_span.as_hours_f64();
            }
        }
        out
    }
}

impl Workload for Sweep {
    const PARALLEL: bool = true;
    const SLOTS: usize = 1;

    fn setup(seed: u64, generate_s: &mut f64) -> Sweep {
        let cfgs = grid();
        let layout = Layout::of(&cfgs);
        let seed0 = seed * SEEDS;
        let horizon = SimDuration::days(HORIZON_DAYS);
        let catalog = Catalog::ec2_2015();
        let t0 = Instant::now();
        for s in seed0..seed0 + SEEDS {
            TraceSet::generate(&catalog, &layout.union, s, horizon);
        }
        *generate_s += t0.elapsed().as_secs_f64();
        Sweep {
            cfgs,
            layout,
            seed0,
            horizon,
        }
    }

    fn pass(&mut self, _slot: usize) -> PassOut {
        let mut work = Stopwatch::default();
        let (aggs, _) = work.time(|| run_grid(&self.cfgs, self.seed0, SEEDS, self.horizon));
        let per_cfg: Vec<Vec<RunReport>> = aggs.into_iter().map(|a| a.runs).collect();
        self.tally(&per_cfg, work)
    }

    /// `run_grid` restated through its public parts, so each trace
    /// generation and each scheduler run gets a span and a counting sink.
    /// The digest proves the reports are the ones `run_grid` returns.
    fn traced_pass(&mut self, _slot: usize, tr: &Tracer, parent: u32) -> TracedOut {
        let catalog = Catalog::ec2_2015();
        let Layout {
            sets,
            members,
            union,
        } = &self.layout;
        let (cfgs, horizon) = (&self.cfgs, self.horizon);
        let seeds: Vec<u64> = (self.seed0..self.seed0 + SEEDS).collect();
        let chunk = seeds
            .len()
            .div_ceil(4 * rayon::current_num_threads())
            .max(1);
        let counts = Mutex::new(Counts::default());
        let mut work = Stopwatch::default();
        let (ran, _) = work.time(|| {
            tr.span("analysis.par_map_chunks", parent, |par| {
                par_map_chunks(seeds, chunk, |chunk_seeds| {
                    let mut scratch = SimScratch::new();
                    let mut local = Counts::default();
                    let out: Vec<Vec<Vec<RunReport>>> = chunk_seeds
                        .iter()
                        .map(|&seed| {
                            let pool = tr.span("market.generate", par, |_| {
                                TraceSet::generate(&catalog, union, seed, horizon)
                            });
                            sets.iter()
                                .zip(members)
                                .map(|(set, ms)| {
                                    let traces = pool.subset(set);
                                    ms.iter()
                                        .map(|&ci| {
                                            tr.span("core.run", par, |_| {
                                                let run = SimRun::with_scratch(
                                                    &traces,
                                                    &cfgs[ci],
                                                    seed,
                                                    std::mem::take(&mut scratch),
                                                )
                                                .with_sink(&mut local);
                                                let (report, reclaimed) = run.run_reclaim();
                                                scratch = reclaimed;
                                                report
                                            })
                                        })
                                        .collect()
                                })
                                .collect()
                        })
                        .collect();
                    counts.lock().expect("no panic while counting").add(&local);
                    out
                })
            })
        });
        let mut per_cfg: Vec<Vec<RunReport>> = vec![Vec::new(); cfgs.len()];
        for per_seed in ran {
            for (ms, reports) in members.iter().zip(per_seed) {
                for (&ci, report) in ms.iter().zip(reports) {
                    per_cfg[ci].push(report);
                }
            }
        }
        let mut out = TracedOut::new(self.tally(&per_cfg, work));
        let counts = counts.into_inner().expect("no panic while counting");
        counts.export(&mut out.counts);
        out.counts
            .insert("core.runs", (cfgs.len() as u64 * SEEDS) as f64);
        out
    }
}
