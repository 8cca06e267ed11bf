//! Cross-crate integration: traces -> provider -> scheduler -> report,
//! checking consistency between layers and the paper's headline claims.

use spothost::cloudsim::{CloudProvider, StartupModel, TerminationReason};
use spothost::core::prelude::*;
use spothost::market::prelude::*;
use spothost::workload::slo;

fn small_east() -> MarketId {
    MarketId::new(Zone::UsEast1a, InstanceType::Small)
}

#[test]
fn headline_claim_one_third_to_one_fifth_of_on_demand_cost() {
    // Abstract: "one-third to one-fifth the cost of hosting the same
    // service ... using dedicated non-revocable servers".
    let horizon = SimDuration::days(45);
    for size in InstanceType::ALL {
        let cfg = SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, size));
        let agg = run_many(&cfg, 0, 6, horizon);
        assert!(
            (0.12..0.40).contains(&agg.normalized_cost.mean),
            "{size}: normalized cost {}",
            agg.normalized_cost.mean
        );
    }
}

#[test]
fn headline_claim_four_nines_with_best_mechanism() {
    let cfg =
        SchedulerConfig::single_market(small_east()).with_mechanism(MechanismCombo::CKPT_LR_LIVE);
    let agg = run_many(&cfg, 0, 6, SimDuration::days(45));
    assert!(
        slo::meets_nines(agg.unavailability.mean, 4),
        "unavailability {} misses four nines",
        agg.unavailability.mean
    );
}

#[test]
fn scheduler_cost_matches_provider_ledger() {
    // The scheduler's accounted cost must equal the provider's charges
    // scaled by the service's server count (1x for single-market).
    let catalog = Catalog::ec2_2015();
    let traces = TraceSet::generate(&catalog, &[small_east()], 3, SimDuration::days(30));
    let cfg = SchedulerConfig::single_market(small_east());
    let report = spothost::core::SimRun::new(&traces, &cfg, 3).run();
    // Re-run, extracting accounting directly.
    let run = spothost::core::SimRun::new(&traces, &cfg, 3);
    let report2 = run.run();
    assert_eq!(report, report2, "deterministic replay");
    assert!(report.cost > 0.0);
    // Sanity: cost per hour bounded by the on-demand price.
    let pon = catalog.on_demand_price(small_east());
    let max_possible = pon * 4.0 * report.active_span.as_hours_f64() * 1.2;
    assert!(report.cost < max_possible);
}

#[test]
fn provider_and_scheduler_agree_on_prices() {
    let catalog = Catalog::ec2_2015();
    let traces = TraceSet::generate(&catalog, &[small_east()], 9, SimDuration::days(7));
    let provider = CloudProvider::new(&traces, 9);
    let trace = traces.trace(small_east()).unwrap();
    for hour in 0..(7 * 24) {
        let t = SimTime::hours(hour);
        assert_eq!(
            provider.spot_price(small_east(), t).unwrap(),
            trace.price_at(t)
        );
    }
}

#[test]
fn revocation_grace_is_two_minutes_end_to_end() {
    // Build a provider over a trace guaranteed to spike, and check the
    // warning-to-termination gap equals the paper's two minutes.
    let catalog = Catalog::ec2_2015();
    let traces = TraceSet::generate(&catalog, &[small_east()], 1, SimDuration::days(30));
    let mut provider =
        CloudProvider::new(&traces, 1).with_startup_model(StartupModel::deterministic());
    let pon = provider.on_demand_price(small_east());
    let (id, ready) = provider
        .request_spot(small_east(), pon, SimTime::ZERO)
        .unwrap();
    if provider.activate(id, ready) {
        if let Some(sched) = provider.revocation_schedule(id, ready) {
            let warning_at = sched.warning_at.expect("no faults: warning always sent");
            assert_eq!(sched.terminate_at - warning_at, SimDuration::secs(120));
            let charge = provider.terminate(id, sched.terminate_at, TerminationReason::Revoked);
            assert!(charge >= 0.0);
        }
    }
}

#[test]
fn on_demand_only_is_the_baseline() {
    let cfg = SchedulerConfig::single_market(small_east()).with_policy(BiddingPolicy::OnDemandOnly);
    let report = run_one(&cfg, 5, SimDuration::days(30));
    assert!((report.normalized_cost - 1.0).abs() < 0.01);
    assert_eq!(report.unavailability, 0.0);
    assert_eq!(report.forced_migrations, 0);
}

#[test]
fn policies_order_as_the_paper_says() {
    // Cost: pure-spot <= proactive <= reactive <= on-demand.
    // Unavailability: proactive <= reactive <= pure-spot.
    let horizon = SimDuration::days(45);
    let run = |p: BiddingPolicy| {
        let cfg = SchedulerConfig::single_market(small_east()).with_policy(p);
        run_many(&cfg, 0, 6, horizon)
    };
    let od = run(BiddingPolicy::OnDemandOnly);
    let pure = run(BiddingPolicy::PureSpot);
    let reactive = run(BiddingPolicy::Reactive);
    let proactive = run(BiddingPolicy::proactive_default());

    assert!(pure.normalized_cost.mean <= proactive.normalized_cost.mean * 1.05);
    assert!(proactive.normalized_cost.mean <= reactive.normalized_cost.mean * 1.05);
    assert!(reactive.normalized_cost.mean < od.normalized_cost.mean);

    assert!(proactive.unavailability.mean < reactive.unavailability.mean);
    assert!(reactive.unavailability.mean < pure.unavailability.mean);
}

#[test]
fn widening_scope_reduces_cost() {
    let horizon = SimDuration::days(45);
    let single = run_many(
        &SchedulerConfig::single_market(MarketId::new(Zone::UsEast1a, InstanceType::XLarge))
            .with_mechanism(MechanismCombo::CKPT_LR_LIVE),
        0,
        6,
        horizon,
    );
    let multi_market = run_many(
        &SchedulerConfig::multi(MarketScope::MultiMarket(Zone::UsEast1a)),
        0,
        6,
        horizon,
    );
    let multi_region = run_many(
        &SchedulerConfig::multi(MarketScope::MultiRegion(vec![
            Zone::UsEast1a,
            Zone::UsEast1b,
        ])),
        0,
        6,
        horizon,
    );
    assert!(multi_market.normalized_cost.mean < single.normalized_cost.mean);
    assert!(multi_region.normalized_cost.mean < multi_market.normalized_cost.mean);
}

#[test]
fn identical_traces_for_shared_markets_across_scopes() {
    // The paired-comparison property: a market's trace is identical no
    // matter which scope generated it.
    let catalog = Catalog::ec2_2015();
    let horizon = SimDuration::days(10);
    let solo = TraceSet::generate(&catalog, &[small_east()], 77, horizon);
    let zone = TraceSet::generate(
        &catalog,
        &MarketId::all_in_zone(Zone::UsEast1a),
        77,
        horizon,
    );
    assert_eq!(
        solo.trace(small_east()).unwrap(),
        zone.trace(small_east()).unwrap()
    );
}
