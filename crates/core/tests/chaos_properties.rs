//! Chaos invariant harness: the scheduler must survive ANY storm.
//!
//! For randomized grids of storm configs x fault plans x policies x
//! mechanisms x stability weights x seeds, with the naive restart on or
//! off, a run must:
//!
//! (a) terminate with conserved accounting — downtime and degraded time
//!     fit inside the measured span, cost stays finite, non-negative and
//!     within a constant factor of the on-demand baseline;
//! (b) stay deterministic — the same inputs give the same report;
//! (c) not leak state across [`SimScratch`] reuse — a run on a scratch
//!     dirtied by a *different* chaotic run is bit-identical to a fresh
//!     one (no event-queue residue, no forecaster residue);
//! (d) replay exactly through telemetry — summing the recorded stream
//!     reproduces cost and downtime bitwise even with storm events
//!     interleaved, the storm edges themselves are well-formed, and every
//!     granted lease is settled exactly once;
//! (e) collapse to the storm-free baseline at zero intensity — a
//!     zero-intensity config, and even a *built* but effect-free
//!     schedule, never advances any RNG stream, so the report is
//!     bit-identical to a run with no storms configured at all;
//! (f) not care where its storm schedule came from — a run handed a
//!     shared schedule built from storm seed S is bitwise-identical to
//!     the same run building its own from S, event stream included;
//! (g) not notice skipped steps — a run stepped only when
//!     [`SimRun::next_due`] says a step would act is bitwise-identical to
//!     one stepped at every tick, event stream included.

use proptest::prelude::*;
use spothost_core::prelude::*;
use spothost_core::scheduler::{SimRun, SimScratch};
use spothost_core::telemetry::recorder::DEFAULT_CAPACITY;
use spothost_core::telemetry::TimedEvent;
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_virt::MechanismCombo;
use std::collections::BTreeMap;

fn rate() -> impl Strategy<Value = f64> {
    (0u32..10, 0.0f64..0.5).prop_map(|(k, x)| if k == 0 { 0.0 } else { x })
}

fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (rate(), rate(), rate(), rate()).prop_map(|(spot, od, warn, ckpt)| {
        let mut f = FaultConfig::none();
        f.spot_capacity_rate = spot;
        f.od_capacity_rate = od;
        f.warning_miss_rate = warn;
        f.ckpt_failure_rate = ckpt;
        f
    })
}

fn arb_storms() -> impl Strategy<Value = StormConfig> {
    // Weight zero intensity (must be a perfect no-op) and full intensity
    // (the worst case), and sweep the on-demand quota independently —
    // a tight quota is the regime where backpressure deadlocks would hide.
    (0u32..8, 0.0f64..1.0, 0u32..4).prop_map(|(k, x, q)| {
        let mut s = StormConfig::intensity(match k {
            0 => 0.0,
            1 => 1.0,
            _ => x,
        });
        s.od_quota = match q {
            0 => 0,
            1 => 1,
            2 => 4,
            _ => 16,
        };
        s
    })
}

/// A stability weight, zero (the greedy path) half the time.
fn arb_stability() -> impl Strategy<Value = f64> {
    (0usize..6).prop_map(|k| [0.0, 0.0, 0.0, 2.0, 8.0, 32.0][k])
}

fn arb_policy() -> impl Strategy<Value = BiddingPolicy> {
    prop_oneof![
        Just(BiddingPolicy::OnDemandOnly),
        Just(BiddingPolicy::PureSpot),
        Just(BiddingPolicy::Reactive),
        Just(BiddingPolicy::proactive_default()),
        Just(BiddingPolicy::adaptive_default()),
    ]
}

fn arb_mechanism() -> impl Strategy<Value = MechanismCombo> {
    prop_oneof![
        Just(MechanismCombo::ALL[0]),
        Just(MechanismCombo::ALL[1]),
        Just(MechanismCombo::ALL[2]),
        Just(MechanismCombo::ALL[3]),
    ]
}

fn arb_scope() -> impl Strategy<Value = MarketScope> {
    prop_oneof![
        Just(MarketScope::Single(MarketId::new(
            Zone::UsEast1a,
            InstanceType::Small
        ))),
        Just(MarketScope::MultiMarket(Zone::UsEast1a)),
        Just(MarketScope::MultiRegion(vec![
            Zone::UsEast1a,
            Zone::UsWest1a
        ])),
    ]
}

/// Every scope kind, with multi-region scopes of 2–4 distinct zones in
/// any order (zone-index order or not): permutation `p` of the four
/// zones (its Lehmer code), cut to the first `n`.
fn arb_any_scope() -> impl Strategy<Value = MarketScope> {
    prop_oneof![
        arb_scope(),
        (0usize..24, 2usize..5).prop_map(|(mut p, n)| {
            let mut pool = Zone::ALL.to_vec();
            let mut zones = Vec::new();
            while !pool.is_empty() {
                let len = pool.len();
                zones.push(pool.remove(p % len));
                p /= len;
            }
            zones.truncate(n);
            MarketScope::MultiRegion(zones)
        }),
    ]
}

/// Every field of a report as raw bits. The exhaustive destructuring
/// fails to compile when a field is added without being listed here.
fn report_bits(r: &RunReport) -> Vec<u64> {
    let RunReport {
        normalized_cost,
        unavailability,
        degraded_fraction,
        forced_per_hour,
        planned_reverse_per_hour,
        spot_fraction,
        cost,
        baseline_cost,
        downtime,
        active_span,
        forced_migrations,
        planned_migrations,
        reverse_migrations,
        request_faults,
        unwarned_revocations,
        ckpt_faults,
        live_aborts,
    } = *r;
    let floats = [
        normalized_cost,
        unavailability,
        degraded_fraction,
        forced_per_hour,
        planned_reverse_per_hour,
        spot_fraction,
        cost,
        baseline_cost,
    ];
    let counts = [
        forced_migrations,
        planned_migrations,
        reverse_migrations,
        request_faults,
        unwarned_revocations,
        ckpt_faults,
        live_aborts,
    ];
    floats
        .iter()
        .map(|x| x.to_bits())
        .chain([downtime.as_millis(), active_span.as_millis()])
        .chain(counts.iter().map(|&n| u64::from(n)))
        .collect()
}

fn base_cfg(
    scope: MarketScope,
    policy: BiddingPolicy,
    mechanism: MechanismCombo,
    stability: f64,
    naive: bool,
) -> SchedulerConfig {
    let cfg = match &scope {
        MarketScope::Single(m) => SchedulerConfig::single_market(*m),
        _ => SchedulerConfig::multi(scope),
    }
    .with_policy(policy)
    .with_mechanism(mechanism)
    .with_stability_weight(stability);
    if naive {
        cfg.with_naive_restart()
    } else {
        cfg
    }
}

const HORIZON_DAYS: u64 = 7;

/// Run `cfg` from `start` through `ticks` the way a fleet steps a VM,
/// finishing right after tick `release`, or at the horizon when `release`
/// is past the last tick. With `skip`, a tick calls `step_until` only
/// when `next_due` is before the tick. Returns the report's bits and the
/// event stream.
fn run_ticked(
    traces: &TraceSet,
    cfg: &SchedulerConfig,
    seed: u64,
    start: SimTime,
    ticks: &[SimTime],
    release: usize,
    skip: bool,
) -> (Vec<u64>, Vec<TimedEvent>) {
    let mut rec = Recorder::new();
    let mut run = SimRun::new(traces, cfg, seed)
        .with_sink(&mut rec)
        .with_start(start);
    run.begin();
    let mut finish = None;
    for (k, &t) in ticks.iter().enumerate() {
        if !skip || run.next_due() < t {
            run.step_until(t);
        }
        if k == release {
            finish = Some(t);
            break;
        }
    }
    let finish = finish.unwrap_or_else(|| {
        run.step_until(SimTime::MAX);
        run.horizon()
    });
    let (report, _) = run.finish_at(finish);
    (report_bits(&report), rec.into_events())
}

/// An event stream rendered for bitwise comparison: `{:?}` prints every
/// float in its shortest round-trip form, so equal renderings are equal
/// bits.
/// (d) Replay a recorded stream: ordered sums reproduce the report's
/// cost and downtime bitwise, storm edges are balanced per zone (at
/// most one episode left open at the horizon, since a zone's episodes
/// never overlap), and every granted lease is settled exactly once, by a
/// `LeaseClosed` or, when it never came up, an `ActivationFailed`.
fn replay<'a>(
    report: &RunReport,
    events: impl Iterator<Item = &'a TimedEvent>,
) -> Result<(), String> {
    let mut cost = 0.0f64;
    let mut downtime_ms = 0u64;
    let mut open = [0i64; 4];
    // Per lease id: (grants, settlements).
    let mut leases: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    for (_, ev) in events {
        match ev {
            TelemetryEvent::LeaseGranted { id, .. } => leases.entry(id.0).or_default().0 += 1,
            TelemetryEvent::ActivationFailed { id, .. } => leases.entry(id.0).or_default().1 += 1,
            TelemetryEvent::LeaseClosed { id, cost: c, .. } => {
                cost += c;
                leases.entry(id.0).or_default().1 += 1;
            }
            TelemetryEvent::Outage { start, end } => {
                downtime_ms += (*end - *start).as_millis();
            }
            TelemetryEvent::StormStarted { zone } => open[zone.index()] += 1,
            TelemetryEvent::StormEnded { zone } => {
                open[zone.index()] -= 1;
                if open[zone.index()] < 0 {
                    return Err(format!("zone {zone:?}: storm ended before it started"));
                }
            }
            _ => {}
        }
    }
    if cost.to_bits() != report.cost.to_bits() {
        return Err(format!(
            "replayed cost {cost} != report cost {}",
            report.cost
        ));
    }
    if downtime_ms != report.downtime.as_millis() {
        return Err(format!(
            "replayed downtime {downtime_ms} ms != report {:?}",
            report.downtime
        ));
    }
    if let Some(z) = open.iter().position(|n| !(0..=1).contains(n)) {
        return Err(format!("zone {z}: {} unbalanced storm edges", open[z]));
    }
    match leases.iter().find(|(_, &n)| n != (1, 1)) {
        Some((id, (granted, settled))) => Err(format!(
            "lease {id}: granted {granted} times, settled {settled} times"
        )),
        None => Ok(()),
    }
}

fn rendered(stream: &[TimedEvent]) -> Vec<String> {
    stream.iter().map(|e| format!("{e:?}")).collect()
}

fn traces_for(cfg: &SchedulerConfig, seed: u64) -> TraceSet {
    let catalog = Catalog::ec2_2015();
    TraceSet::generate(
        &catalog,
        &cfg.candidates(),
        seed,
        SimDuration::days(HORIZON_DAYS),
    )
}

/// A revocation 70 s before the horizon: the forced migration queues the
/// replacement's `Ready` and the old lease's `Terminate`, both past the
/// horizon. Neither is dispatched, by a VM stepped every second or by one
/// that skips the steps with nothing due, and the run released just
/// before the horizon settles the revoked lease in its final sweep. A
/// lease granted an hour before the horizon owes nothing for its revoked
/// partial hour; one granted three hours before owes its full hours.
#[test]
fn a_skipped_step_keeps_the_terminal_event_rule() {
    use spothost_cloudsim::TerminationReason;
    use spothost_market::trace::{PricePoint, PriceTrace};
    let market = MarketId::new(Zone::UsEast1a, InstanceType::Small);
    let days = SimDuration::days(2);
    let horizon = SimTime::ZERO + days;
    let spike = horizon - SimDuration::secs(70);
    let trace = PriceTrace::new(
        vec![
            PricePoint {
                at: SimTime::ZERO,
                price: 0.01,
            },
            PricePoint {
                at: spike,
                price: 1.0,
            },
        ],
        horizon,
    );
    let traces = TraceSet::from_traces(&Catalog::ec2_2015(), vec![(market, trace)], days);
    let cfg = SchedulerConfig::single_market(market).with_policy(BiddingPolicy::Reactive);
    for lead_h in [1, 3] {
        let start = horizon - SimDuration::hours(lead_h);
        let ticks: Vec<SimTime> =
            std::iter::successors(Some(start), |&t| Some(t + SimDuration::secs(1)))
                .take_while(|&t| t < horizon)
                .collect();
        let release = ticks.len() - 1;
        let every = run_ticked(&traces, &cfg, 3, start, &ticks, release, false);
        let skipping = run_ticked(&traces, &cfg, 3, start, &ticks, release, true);
        assert_eq!(every.0, skipping.0);
        assert_eq!(rendered(&every.1), rendered(&skipping.1));
        let revoked: Vec<f64> = every
            .1
            .iter()
            .filter_map(|&(_, e)| match e {
                TelemetryEvent::LeaseClosed {
                    reason: TerminationReason::Revoked,
                    cost,
                    ..
                } => Some(cost),
                _ => None,
            })
            .collect();
        assert_eq!(revoked.len(), 1, "lead {lead_h} h: {revoked:?}");
        assert_eq!(revoked[0] > 0.0, lead_h > 1, "lead {lead_h} h: {revoked:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chaos_conserves_accounting_and_stays_deterministic(
        storms in arb_storms(),
        faults in arb_faults(),
        scope in arb_scope(),
        policy in arb_policy(),
        mechanism in arb_mechanism(),
        seed in 0u64..1_000,
        stability in arb_stability(),
        naive in prop::bool::ANY,
    ) {
        let cfg = base_cfg(scope, policy, mechanism, stability, naive)
            .with_faults(faults)
            .with_storms(storms);
        cfg.validate().expect("chaos grid configs must validate");
        let horizon = SimDuration::days(HORIZON_DAYS);
        let a = run_one(&cfg, seed, horizon);

        // (a) Conservation: no accounting time lost or invented, cost
        // finite and bounded by a constant factor of the baseline.
        prop_assert!(a.downtime <= a.active_span,
            "downtime {:?} exceeds span {:?}", a.downtime, a.active_span);
        prop_assert!(a.active_span <= horizon);
        prop_assert!((0.0..=1.0).contains(&a.unavailability));
        prop_assert!(a.degraded_fraction >= 0.0 && a.degraded_fraction.is_finite());
        prop_assert!(a.cost.is_finite() && a.cost >= 0.0);
        prop_assert!(a.cost <= 3.0 * a.baseline_cost + 1.0,
            "cost {} vs baseline {}", a.cost, a.baseline_cost);

        // (b) Determinism under re-run.
        let b = run_one(&cfg, seed, horizon);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_leaks_nothing_across_chaotic_runs(
        storms in arb_storms(),
        faults in arb_faults(),
        policy in arb_policy(),
        seed in 0u64..1_000,
        stability in arb_stability(),
        naive in prop::bool::ANY,
    ) {
        // Dirty a scratch with a violent, unrelated run (full-intensity
        // storms, a different scope, a different seed, the other naive
        // restart setting), then reuse it:
        // the report must be bit-identical to a fresh-scratch run.
        let dirty_cfg = base_cfg(
            MarketScope::MultiMarket(Zone::EuWest1a),
            BiddingPolicy::Reactive,
            MechanismCombo::ALL[0],
            32.0,
            !naive,
        )
        .with_faults(FaultConfig::uniform(0.4))
        .with_storms(StormConfig::intensity(1.0));
        let dirty_traces = traces_for(&dirty_cfg, seed.wrapping_add(17));
        let (_, scratch) = SimRun::with_scratch(
            &dirty_traces,
            &dirty_cfg,
            seed.wrapping_add(17),
            SimScratch::new(),
        )
        .run_reclaim();

        let cfg = base_cfg(
            MarketScope::Single(MarketId::new(Zone::UsEast1a, InstanceType::Small)),
            policy,
            MechanismCombo::ALL[3],
            stability,
            naive,
        )
        .with_faults(faults)
        .with_storms(storms);
        let traces = traces_for(&cfg, seed);
        let fresh = SimRun::new(&traces, &cfg, seed).run();
        let (reused, _) = SimRun::with_scratch(&traces, &cfg, seed, scratch).run_reclaim();
        prop_assert_eq!(fresh, reused);
    }

    #[test]
    fn telemetry_replays_storm_runs_bitwise(
        storms in arb_storms(),
        faults in arb_faults(),
        policy in arb_policy(),
        seed in 0u64..1_000,
        stability in arb_stability(),
        naive in prop::bool::ANY,
    ) {
        let cfg = base_cfg(
            MarketScope::MultiMarket(Zone::UsEast1a),
            policy,
            MechanismCombo::ALL[2],
            stability,
            naive,
        )
        .with_faults(faults)
        .with_storms(storms);
        let horizon = SimDuration::days(HORIZON_DAYS);
        let plain = run_one(&cfg, seed, horizon);
        let (report, rec) = run_one_recorded(&cfg, seed, horizon);

        // Observation stays free with storm events in the stream.
        prop_assert_eq!(plain, report.clone());
        let replayed = replay(&report, rec.events());
        prop_assert!(replayed.is_ok(), "{}", replayed.unwrap_err());
    }

    #[test]
    fn zero_intensity_storms_never_advance_any_rng(
        faults in arb_faults(),
        scope in arb_scope(),
        policy in arb_policy(),
        mechanism in arb_mechanism(),
        seed in 0u64..1_000,
        stability in arb_stability(),
        naive in prop::bool::ANY,
    ) {
        let horizon = SimDuration::days(HORIZON_DAYS);
        let base = base_cfg(scope, policy, mechanism, stability, naive).with_faults(faults);
        let plain = run_one(&base, seed, horizon);
        // A zero-intensity config builds no schedule at all...
        let zero = run_one(
            &base.clone().with_storms(StormConfig::intensity(0.0)),
            seed,
            horizon,
        );
        prop_assert_eq!(plain.clone(), zero);
        // ...and a *built* but effect-free schedule (enabled via an
        // unreachable quota, everything else zero) must not advance any
        // stream either: still bit-identical.
        let mut neutral = StormConfig::none();
        neutral.od_quota = u32::MAX;
        let built = run_one(&base.clone().with_storms(neutral), seed, horizon);
        prop_assert_eq!(plain, built);
    }

    #[test]
    fn a_shared_storm_schedule_matches_one_built_per_run(
        intensity in prop_oneof![Just(1.0), 0.05f64..1.0],
        faults in arb_faults(),
        scope in arb_any_scope(),
        policy in arb_policy(),
        mechanism in arb_mechanism(),
        start_min in prop_oneof![Just(0u64), 0u64..HORIZON_DAYS * 24 * 60],
        seed in 0u64..1_000,
        stability in arb_stability(),
        naive in prop::bool::ANY,
    ) {
        // (f) A fleet builds one schedule from its seed and hands it to
        // every run; a single-service run builds its own from its run
        // seed. With both seeds equal the two runs must not differ by a
        // bit, from any start (a mid-run spawn seeks the edge cursors).
        let own = base_cfg(scope, policy, mechanism, stability, naive)
            .with_faults(faults)
            .with_storms(StormConfig::intensity(intensity));
        let traces = traces_for(&own, seed);
        let shared = own.clone().with_shared_storms(&traces, seed);
        prop_assert!(shared.storm_schedule.is_some());
        shared.validate().expect("a shared schedule of its own storms validates");
        let start = SimTime::ZERO + SimDuration::minutes(start_min);
        let run = |cfg: &SchedulerConfig| {
            let mut rec = Recorder::new();
            let report = SimRun::new(&traces, cfg, seed)
                .with_sink(&mut rec)
                .with_start(start)
                .run();
            // `{:?}` prints every float in its shortest round-trip form,
            // so equal renderings are equal bits.
            let stream: Vec<String> = rec.events().map(|e| format!("{e:?}")).collect();
            (report_bits(&report), stream)
        };
        let (own_bits, own_stream) = run(&own);
        let (shared_bits, shared_stream) = run(&shared);
        prop_assert_eq!(&own_bits, &shared_bits);
        prop_assert_eq!(&own_stream, &shared_stream);
        // A run draws from its own clone of the shared streams, never
        // from the config's: a second run of the same config repeats.
        let (again_bits, again_stream) = run(&shared);
        prop_assert_eq!(own_bits, again_bits);
        prop_assert_eq!(own_stream, again_stream);
    }

    #[test]
    fn steps_skipped_by_next_due_change_nothing(
        storms in arb_storms(),
        faults in arb_faults(),
        scope in arb_scope(),
        policy in arb_policy(),
        mechanism in arb_mechanism(),
        start_min in prop_oneof![
            Just(0u64),
            0u64..HORIZON_DAYS * 24 * 60,
            HORIZON_DAYS * 24 * 60 - 180..HORIZON_DAYS * 24 * 60,
        ],
        tick_s in prop_oneof![1u64..60, 60u64..900],
        release_frac in prop_oneof![Just(1.0f64), 0.0f64..1.0, 0.99f64..1.0],
        seed in 0u64..1_000,
        stability in arb_stability(),
        naive in prop::bool::ANY,
    ) {
        // (g) Two twins tick every few seconds or minutes from the same
        // start, sometimes in the run's last three hours; one steps at
        // every tick, the other only when something is due. Both finish
        // at the same release tick, or at the horizon.
        let cfg = base_cfg(scope, policy, mechanism, stability, naive)
            .with_faults(faults)
            .with_storms(storms);
        let traces = traces_for(&cfg, seed);
        let horizon = SimTime::ZERO + SimDuration::days(HORIZON_DAYS);
        let start = SimTime::ZERO + SimDuration::minutes(start_min);
        let ticks: Vec<SimTime> =
            std::iter::successors(Some(start), |&t| Some(t + SimDuration::secs(tick_s)))
                .take_while(|&t| t < horizon)
                .collect();
        let release = (release_frac * ticks.len() as f64) as usize;
        let every = run_ticked(&traces, &cfg, seed, start, &ticks, release, false);
        let skipping = run_ticked(&traces, &cfg, seed, start, &ticks, release, true);
        prop_assert_eq!(every.0, skipping.0);
        prop_assert_eq!(rendered(&every.1), rendered(&skipping.1));
    }
}

/// (d) holds when a revocation warning interrupts a planned move to
/// on-demand under the naive restart: the move's target is settled, not
/// left pending to the end of the run. Each of these 60-day storm runs
/// has such a move.
#[test]
fn naive_restart_settles_an_interrupted_moves_target() {
    let cfg = SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, InstanceType::Small))
        .with_policy(BiddingPolicy::proactive_default())
        .with_storms(StormConfig::intensity(0.6))
        .with_naive_restart();
    for seed in 0..3 {
        let (report, rec) = run_one_recorded(&cfg, seed, SimDuration::days(60));
        if let Err(e) = replay(&report, rec.events()) {
            panic!("seed {seed}: {e}");
        }
    }
}

/// (d) holds however long the run: `run_one_recorded` keeps the whole
/// stream, not just the newest `DEFAULT_CAPACITY` events a default
/// `Recorder` holds. This chaotic 450-day run emits about 75k events.
#[test]
fn recorded_runs_longer_than_the_ring_replay_whole() {
    let mut faults = FaultConfig::none();
    faults.spot_capacity_rate = 0.5;
    faults.od_capacity_rate = 0.5;
    faults.warning_miss_rate = 0.5;
    faults.ckpt_failure_rate = 0.5;
    let cfg = SchedulerConfig::multi(MarketScope::MultiMarket(Zone::UsEast1a))
        .with_policy(BiddingPolicy::proactive_default())
        .with_faults(faults)
        .with_storms(StormConfig::intensity(1.0));
    let (report, rec) = run_one_recorded(&cfg, 7, SimDuration::days(450));
    assert_eq!(rec.dropped(), 0, "the recording lost its oldest events");
    assert!(
        rec.len() > DEFAULT_CAPACITY,
        "only {} events: too short to outgrow the ring",
        rec.len()
    );
    replay(&report, rec.events()).unwrap();
}
