//! Property tests for the telemetry layer's core guarantees.
//!
//! For arbitrary fault plans, policies, mechanisms, and seeds:
//! (a) attaching a `Recorder` must not perturb the simulation — the
//!     report is identical to the `NullSink` run;
//! (b) the event stream is deterministic per seed;
//! (c) timestamps are monotone non-decreasing;
//! (d) the stream *replays* the run exactly: summing `LeaseClosed.cost`
//!     in order reproduces the report's cost bitwise, and summing
//!     `Outage` intervals reproduces downtime and unavailability
//!     bitwise.

use proptest::prelude::*;
use spothost_core::prelude::*;
use spothost_core::scheduler::SimRun;
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::SimDuration;
use spothost_virt::MechanismCombo;

fn rate() -> impl Strategy<Value = f64> {
    (0u32..10, 0.0f64..0.6).prop_map(|(k, x)| if k == 0 { 0.0 } else { x })
}

fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (
        (rate(), rate(), rate(), rate()),
        (rate(), rate(), rate(), rate(), rate()),
    )
        .prop_map(|(provider, mech)| {
            let mut f = FaultConfig::none();
            (
                f.spot_capacity_rate,
                f.od_capacity_rate,
                f.startup_failure_rate,
                f.warning_miss_rate,
            ) = provider;
            (
                f.warning_delay_rate,
                f.volume_delay_rate,
                f.ckpt_failure_rate,
                f.live_abort_rate,
                f.lazy_storm_rate,
            ) = mech;
            f
        })
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

fn base_cfg(policy: BiddingPolicy, mechanism: MechanismCombo) -> SchedulerConfig {
    use spothost_market::types::{InstanceType, MarketId, Zone};
    SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, InstanceType::Small))
        .with_policy(policy)
        .with_mechanism(mechanism)
}

/// Run `cfg` once with a large-capacity recorder attached.
fn recorded(cfg: &SchedulerConfig, seed: u64, horizon: SimDuration) -> (RunReport, Recorder) {
    let catalog = Catalog::ec2_2015();
    let markets = cfg.candidates();
    let traces = TraceSet::generate(&catalog, &markets, seed, horizon);
    let mut rec = Recorder::with_capacity(1 << 20);
    let report = SimRun::new(&traces, cfg, seed).with_sink(&mut rec).run();
    (report, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recorder_observes_without_perturbing_and_replays_exactly(
        faults in arb_faults(),
        policy in arb_policy(),
        mechanism in arb_mechanism(),
        seed in 0u64..1_000,
    ) {
        let cfg = base_cfg(policy, mechanism).with_faults(faults);
        let horizon = SimDuration::days(7);

        let plain = run_one(&cfg, seed, horizon);
        let (report, rec) = recorded(&cfg, seed, horizon);
        prop_assert_eq!(rec.dropped(), 0, "recorder capacity exceeded");

        // (a) Observation is free: identical report with and without
        // the recorder attached.
        prop_assert_eq!(plain, report);

        // (b) Determinism: a second recorded run yields the same stream.
        let (_, rec2) = recorded(&cfg, seed, horizon);
        let events = rec.into_events();
        prop_assert_eq!(&events, &rec2.into_events());

        // (c) Monotone non-decreasing timestamps.
        for w in events.windows(2) {
            prop_assert!(w[0].0 <= w[1].0,
                "timestamps regressed: {} then {}", w[0].0, w[1].0);
        }

        // (d) Exact replay. Cost: the stream's LeaseClosed events carry
        // each settlement in accumulation order, so the ordered f64 sum
        // is bitwise equal to the report's total.
        let mut cost = 0.0f64;
        let mut downtime_ms = 0u64;
        for (_, ev) in &events {
            match ev {
                TelemetryEvent::LeaseClosed { cost: c, .. } => cost += c,
                TelemetryEvent::Outage { start, end } => {
                    downtime_ms += (*end - *start).as_millis();
                }
                _ => {}
            }
        }
        prop_assert_eq!(cost.to_bits(), report.cost.to_bits(),
            "replayed cost {} != report cost {}", cost, report.cost);
        prop_assert_eq!(downtime_ms, report.downtime.as_millis());

        // Unavailability recomputed from the replayed downtime matches
        // bitwise too (same f64 division the report performs).
        let span_ms = report.active_span.as_millis() as f64;
        let unavail = if span_ms == 0.0 { 0.0 } else { downtime_ms as f64 / span_ms };
        prop_assert_eq!(unavail.to_bits(), report.unavailability.to_bits());
    }
}
