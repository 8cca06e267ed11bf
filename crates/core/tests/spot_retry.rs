//! A down pure-spot service comes back as soon as any of its candidate
//! markets is affordable, not when one particular market is.
//!
//! In fault-free, storm-free pure-spot runs of a multi-market and a
//! multi-region scope, each down-waiting spell's next `lease_granted`
//! must come at the first instant at or after the spell's retry origin at
//! which some candidate trades at or below the policy's bid for it, or
//! never if no candidate does before the horizon. The retry origin is the
//! lost lease's termination time after a warned loss (the service
//! suspends at the warning, but no replacement can run before the server
//! dies), and the spell's start otherwise. The instants are read from the
//! traces with the stateless `PriceTrace::next_time_at_or_below`.

use spothost_core::prelude::*;
use spothost_core::telemetry::SchedulerState;
use spothost_core::SimRun;
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::Zone;

/// The first instant at or after `from`, before the horizon, at which
/// some candidate of `cfg` trades at or below the policy's bid for it.
fn first_affordable(cfg: &SchedulerConfig, traces: &TraceSet, from: SimTime) -> Option<SimTime> {
    let catalog = traces.catalog();
    cfg.candidates()
        .into_iter()
        .filter_map(|m| {
            let bid = cfg
                .policy
                .bid(catalog.on_demand_price(m), catalog.max_bid(m))?;
            let trace = traces.trace(m).expect("generated for every candidate");
            trace.next_time_at_or_below(from, bid)
        })
        .min()
        .filter(|&at| at < SimTime::ZERO + traces.horizon())
}

#[test]
fn a_down_pure_spot_service_retries_at_the_first_affordable_candidate() {
    let scopes = [
        MarketScope::MultiMarket(Zone::UsEast1a),
        MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsWest1a]),
    ];
    let (mut spells, mut warned) = (0, 0);
    for scope in scopes {
        let cfg = SchedulerConfig::multi(scope).with_policy(BiddingPolicy::PureSpot);
        for seed in 0..4 {
            let traces = TraceSet::generate(
                &Catalog::ec2_2015(),
                &cfg.candidates(),
                seed,
                SimDuration::days(45),
            );
            let mut rec = Recorder::with_capacity(usize::MAX);
            SimRun::new(&traces, &cfg, seed).with_sink(&mut rec).run();
            // The termination time of a warning since the last state
            // change, and the open spell's retry origin.
            let mut warning: Option<SimTime> = None;
            let mut origin: Option<SimTime> = None;
            let mut check = |origin: SimTime, granted: Option<SimTime>| {
                let want = first_affordable(&cfg, &traces, origin);
                assert_eq!(
                    granted,
                    want,
                    "{} seed {seed}: spell with retry origin {origin:?}",
                    cfg.scope.label()
                );
                spells += 1;
            };
            for (at, ev) in rec.events() {
                match ev {
                    TelemetryEvent::RevocationWarning { terminate_at, .. } => {
                        warning = Some(*terminate_at);
                    }
                    TelemetryEvent::StateChange { state } => {
                        if *state == SchedulerState::DownWaiting {
                            warned += usize::from(warning.is_some());
                            origin = Some(warning.unwrap_or(*at));
                        }
                        warning = None;
                    }
                    TelemetryEvent::LeaseGranted { .. } => {
                        if let Some(from) = origin.take() {
                            check(from, Some(*at));
                        }
                    }
                    _ => {}
                }
            }
            if let Some(from) = origin {
                check(from, None);
            }
        }
    }
    eprintln!("{spells} down spells checked, {warned} after a warned loss");
    assert!(spells >= 50, "too few down spells to check: {spells}");
    assert!(warned > 0 && warned < spells, "both origins must occur");
}
