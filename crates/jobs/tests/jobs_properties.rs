//! Property suite for the batch-job simulator:
//!
//! (a) determinism — the same `(config, seed)` yields bit-identical
//!     reports whether the scratch is fresh or dirtied by a different
//!     chaotic run (no forecaster or buffer residue);
//! (b) conservation — per job, `useful + wasted == compute` exactly,
//!     dollars charged are finite, non-negative, and at least the
//!     dollars attributable to useful compute, and a finished job's
//!     useful time is exactly its runtime;
//! (c) the zero-fault floor — on a constant price below the bid with no
//!     injected faults or storms, GreedySpot never revokes, and never
//!     misses a deadline whose slack covers its wait for a server;
//! (d) replay — the `JobFinished` costs of the event stream, folded in
//!     job order, equal the report's `total_cost` bit for bit, and
//!     recording the stream does not change the report;
//! (e) zero-intensity neutrality — `StormConfig::intensity(0.0)`, and
//!     any storm config whose episodes never start, run byte-identically
//!     to no storms: the same report, outcomes and event stream.

use proptest::prelude::*;
use spothost_faults::{FaultConfig, StormConfig};
use spothost_jobs::sim::DEFAULT_HORIZON;
use spothost_jobs::{run_jobs_on, JobPolicy, JobsConfig, JobsReport, JobsScratch};
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::trace::PriceTrace;
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_telemetry::{NullSink, Sink, TelemetryEvent};

fn market() -> MarketId {
    MarketId::new(Zone::UsEast1a, InstanceType::Large)
}

fn rate() -> impl Strategy<Value = f64> {
    (0u32..8, 0.0f64..0.4).prop_map(|(k, x)| if k == 0 { 0.0 } else { x })
}

fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (rate(), rate(), rate(), rate(), rate()).prop_map(|(spot, od, boot, warn, ckpt)| {
        let mut f = FaultConfig::none();
        f.spot_capacity_rate = spot;
        f.od_capacity_rate = od;
        f.startup_failure_rate = boot;
        f.warning_miss_rate = warn;
        f.ckpt_failure_rate = ckpt;
        f
    })
}

fn arb_storms() -> impl Strategy<Value = StormConfig> {
    (0u32..6, 0.0f64..1.0).prop_map(|(k, x)| {
        StormConfig::intensity(match k {
            0 => 0.0,
            1 => 1.0,
            _ => x,
        })
    })
}

fn arb_policy() -> impl Strategy<Value = JobPolicy> {
    prop_oneof![
        Just(JobPolicy::GreedySpot),
        Just(JobPolicy::CheckpointSpot),
        Just(JobPolicy::OnDemandFallback),
    ]
}

fn arb_cfg() -> impl Strategy<Value = JobsConfig> {
    (arb_policy(), arb_faults(), arb_storms(), 1u32..4).prop_map(|(p, f, s, w)| {
        JobsConfig::new(p)
            .with_faults(f)
            .with_storms(s)
            .with_workers(w)
    })
}

/// Small seed pool so the arena-backed traces are generated once and
/// shared across cases.
fn arb_seed() -> impl Strategy<Value = u64> {
    0u64..3
}

fn traces(seed: u64) -> TraceSet {
    TraceSet::generate(&Catalog::ec2_2015(), &[market()], seed, DEFAULT_HORIZON)
}

/// A storm config that can never fire: no spontaneous episodes, no
/// spike coupling and no jitter, with every knob that acts only inside
/// an episode set at random.
fn arb_dormant_storms() -> impl Strategy<Value = StormConfig> {
    (1.0f64..10.0, 0.0f64..48.0, 0.0f64..1.0, 1u64..12).prop_map(|(mult, mass, crunch, h)| {
        let mut s = StormConfig::none();
        s.fault_multiplier = mult;
        s.mass_revocations_per_day = mass;
        s.capacity_crunch_rate = crunch;
        s.mean_episode = SimDuration::hours(h);
        s
    })
}

/// Keeps a run's whole event stream.
#[derive(Default)]
struct Events(Vec<(SimTime, TelemetryEvent)>);

impl Sink for Events {
    const ENABLED: bool = true;

    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        self.0.push((at, event));
    }
}

/// Bitwise comparison: `JobsReport`'s derived `PartialEq` compares the
/// cost with `f64 ==`, which would call `-0.0 == 0.0` equal; compare
/// the bit pattern instead.
fn reports_bits_equal(a: &JobsReport, b: &JobsReport) -> bool {
    a.policy == b.policy
        && a.jobs == b.jobs
        && a.finished == b.finished
        && a.missed == b.missed
        && a.total_cost.to_bits() == b.total_cost.to_bits()
        && a.useful == b.useful
        && a.wasted == b.wasted
        && a.revocations == b.revocations
        && a.checkpoints == b.checkpoints
        && a.escalations == b.escalations
        && a.makespan == b.makespan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reports_bitwise_deterministic_across_scratch_reuse(
        cfg in arb_cfg(),
        dirty_cfg in arb_cfg(),
        seed in arb_seed(),
    ) {
        let ts = traces(seed);
        let fresh = run_jobs_on(&cfg, &ts, seed, &mut NullSink, &mut JobsScratch::new());

        // Dirty a scratch with a different chaotic run, then reuse it.
        let mut scratch = JobsScratch::new();
        run_jobs_on(&dirty_cfg, &ts, seed.wrapping_add(1), &mut NullSink, &mut scratch);
        let reused = run_jobs_on(&cfg, &ts, seed, &mut NullSink, &mut scratch);

        prop_assert!(
            reports_bits_equal(&fresh.report, &reused.report),
            "scratch reuse changed the report:\n fresh: {:?}\nreused: {:?}",
            fresh.report,
            reused.report
        );
        prop_assert_eq!(fresh.outcomes.len(), reused.outcomes.len());
        for (a, b) in fresh.outcomes.iter().zip(&reused.outcomes) {
            prop_assert!(
                a.cost.to_bits() == b.cost.to_bits() && a.completion == b.completion,
                "outcome diverged: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn accounting_is_conserved(cfg in arb_cfg(), seed in arb_seed()) {
        let ts = traces(seed);
        let run = run_jobs_on(&cfg, &ts, seed, &mut NullSink, &mut JobsScratch::new());
        for o in &run.outcomes {
            prop_assert!(o.cost.is_finite() && o.cost >= 0.0, "bad cost: {o:?}");
            prop_assert!(
                o.useful + o.wasted == o.compute,
                "useful {} + wasted {} != compute {} in {o:?}",
                o.useful, o.wasted, o.compute
            );
            prop_assert!(
                o.useful_cost <= o.cost + 1e-9,
                "useful dollars {} exceed charged {} in {o:?}",
                o.useful_cost, o.cost
            );
            if o.finished {
                prop_assert!(o.useful == o.spec.runtime, "finished but useful != runtime: {o:?}");
                prop_assert!(o.completion >= o.spec.arrival + o.spec.runtime);
                prop_assert_eq!(o.missed, o.completion > o.spec.deadline);
            } else {
                prop_assert!(o.missed, "unfinished jobs must count as missed: {o:?}");
                prop_assert!(o.useful == SimDuration::ZERO);
            }
        }
        let agg = &run.report;
        prop_assert_eq!(agg.jobs as usize, run.outcomes.len());
        prop_assert!(agg.finished + agg.missed >= agg.jobs,
            "every job is finished-in-time or missed");
    }

    #[test]
    fn zero_fault_greedy_never_misses_a_fitting_deadline(
        seed in arb_seed(),
        workers in 1u32..4,
    ) {
        let cfg = JobsConfig::new(JobPolicy::GreedySpot).with_workers(workers);
        let catalog = Catalog::ec2_2015();
        let pon = catalog.on_demand_price(market());
        let end = SimTime::ZERO + DEFAULT_HORIZON;
        let ts = TraceSet::from_traces(
            &catalog,
            vec![(market(), PriceTrace::constant(pon * 0.3, end))],
            DEFAULT_HORIZON,
        );
        let run = run_jobs_on(&cfg, &ts, seed, &mut NullSink, &mut JobsScratch::new());
        prop_assert_eq!(run.report.revocations, 0);
        prop_assert_eq!(run.report.escalations, 0);
        for o in &run.outcomes {
            // `started` is the ready time, so the wait includes the
            // allocation latency.
            let Some(started) = o.started else { continue };
            let wait = started.since(o.spec.arrival);
            if wait <= o.spec.slack() && o.finished {
                prop_assert!(
                    !o.missed,
                    "job with covering slack missed: wait {wait}, slack {}, {o:?}",
                    o.spec.slack()
                );
            }
            if o.finished {
                // No revocations: exactly one lease, all of it useful.
                prop_assert!(o.compute == o.spec.runtime, "lease shape wrong: {o:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn job_finished_costs_fold_to_total_cost(cfg in arb_cfg(), seed in arb_seed()) {
        let ts = traces(seed);
        let mut events = Events::default();
        let run = run_jobs_on(&cfg, &ts, seed, &mut events, &mut JobsScratch::new());
        // The stream is in time order; the report folds in job order.
        let mut finished: Vec<(u32, f64)> = events
            .0
            .iter()
            .filter_map(|(_, ev)| match *ev {
                TelemetryEvent::JobFinished { job, cost, .. } => Some((job, cost)),
                _ => None,
            })
            .collect();
        finished.sort_by_key(|&(job, _)| job);
        prop_assert!(
            finished.windows(2).all(|w| w[0].0 < w[1].0),
            "a job finished twice"
        );
        for &(job, cost) in &finished {
            prop_assert_eq!(cost.to_bits(), run.outcomes[job as usize].cost.to_bits());
        }
        // Jobs without a `JobFinished` never started and cost nothing.
        let silent = run
            .outcomes
            .iter()
            .enumerate()
            .filter(|&(i, _)| finished.binary_search_by_key(&(i as u32), |&(j, _)| j).is_err());
        for (_, o) in silent {
            prop_assert!(o.started.is_none() && o.cost == 0.0, "unreported job: {o:?}");
        }
        let folded = finished.iter().fold(0.0, |sum, &(_, cost)| sum + cost);
        prop_assert_eq!(folded.to_bits(), run.report.total_cost.to_bits());

        let quiet = run_jobs_on(&cfg, &ts, seed, &mut NullSink, &mut JobsScratch::new());
        prop_assert!(
            reports_bits_equal(&run.report, &quiet.report),
            "recording changed the report:\nrecorded: {:?}\n   quiet: {:?}",
            run.report,
            quiet.report
        );
    }

    #[test]
    fn zero_intensity_storms_are_byte_identical_to_none(
        cfg in arb_cfg(),
        dormant in arb_dormant_storms(),
        seed in arb_seed(),
    ) {
        let ts = traces(seed);
        let run = |storms: StormConfig| {
            let mut events = Events::default();
            let cfg = cfg.clone().with_storms(storms);
            let r = run_jobs_on(&cfg, &ts, seed, &mut events, &mut JobsScratch::new());
            (r, events.0)
        };
        let (none, none_events) = run(StormConfig::none());
        for storms in [StormConfig::intensity(0.0), dormant] {
            let (r, events) = run(storms.clone());
            prop_assert!(
                reports_bits_equal(&none.report, &r.report),
                "{storms:?} changed the report:\n none: {:?}\nstorm: {:?}",
                none.report,
                r.report
            );
            prop_assert_eq!(format!("{:?}", none.outcomes), format!("{:?}", r.outcomes));
            prop_assert_eq!(format!("{none_events:?}"), format!("{events:?}"));
        }
    }
}
