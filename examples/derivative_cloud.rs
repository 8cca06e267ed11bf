//! A SpotCheck-style derivative cloud: a provider hosts 40 tenants'
//! nested VMs on spot servers, sells them "always-on" hosting, and pockets
//! the difference to on-demand pricing (the system the paper's §7 assumes).
//!
//! The tenants' VMs are packed first-fit-decreasing into placement groups
//! of at most one xlarge server's worth of capacity. Each group runs under
//! one cloud scheduler and migrates as one unit — its VMs share a market,
//! a bid, and a fate, the packing §4, footnote 2 describes. A group buys
//! its demand rounded up to a server size, so padding is capacity lost to
//! fragmentation.
//!
//! ```text
//! cargo run --release --example derivative_cloud
//! ```

use spothost::analysis::mc::par_map;
use spothost::core::prelude::*;
use spothost::core::SimRun;
use spothost::market::prelude::*;
use spothost::workload::slo;

/// A placement group's capacity cap: one xlarge server, in units.
const GROUP_CAP: u32 = 8;

/// 40 tenants' capacity demands in units (small = 1): web shops, APIs, a
/// few fat databases.
fn tenants() -> Vec<u32> {
    (0..40)
        .map(|i| match i % 10 {
            0..=5 => 1, // small web heads
            6..=7 => 2, // mid-tier services
            8 => 4,     // databases
            _ => 8,     // one whale per ten tenants
        })
        .collect()
}

/// First-fit-decreasing packing of VM demands into placement groups.
fn pack(demands: &[u32]) -> Vec<Vec<u32>> {
    let mut sorted = demands.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for d in sorted {
        match groups
            .iter_mut()
            .find(|g| g.iter().sum::<u32>() + d <= GROUP_CAP)
        {
            Some(g) => g.push(d),
            None => groups.push(vec![d]),
        }
    }
    groups
}

/// The capacity a group must buy: its demand rounded up to a server size
/// (1, 2, 4 or 8 units).
fn allocated(group: &[u32]) -> u32 {
    group.iter().sum::<u32>().next_power_of_two()
}

fn main() {
    let horizon = SimDuration::days(60);
    let seed = 42;
    let groups = pack(&tenants());
    let vms: usize = groups.iter().map(Vec::len).sum();
    let demanded: u32 = groups.iter().flatten().sum();
    let bought: u32 = groups.iter().map(|g| allocated(g)).sum();
    let waste = (bought - demanded) as f64 / bought as f64;

    println!("derivative cloud: {vms} tenant VMs, {demanded} capacity units, 60 days\n");

    let proactive = BiddingPolicy::proactive_default();
    for (label, policy, scope, stability_weight) in [
        (
            "on-demand fleet (what tenants would pay AWS)",
            BiddingPolicy::OnDemandOnly,
            MarketScope::MultiMarket(Zone::UsEast1a),
            0.0,
        ),
        (
            "spot fleet, greedy multi-market",
            proactive,
            MarketScope::MultiMarket(Zone::UsEast1a),
            0.0,
        ),
        (
            "spot fleet, multi-region + stability-aware",
            proactive,
            MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsEast1b]),
            8.0,
        ),
    ] {
        // All groups trade in the same markets at the same time, so they
        // share one price history.
        let markets: Vec<MarketId> = scope
            .zones()
            .into_iter()
            .flat_map(MarketId::all_in_zone)
            .collect();
        let traces = TraceSet::generate(&Catalog::ec2_2015(), &markets, seed, horizon);
        let cfg = SchedulerConfig::multi(scope)
            .with_policy(policy)
            .with_stability_weight(stability_weight);
        // One scheduler per group, each with its own provider stream
        // (startup jitter) over the shared price history.
        let reports: Vec<RunReport> = par_map(groups.iter().enumerate().collect(), |(i, g)| {
            let cfg = cfg.clone().with_capacity_units(allocated(g));
            SimRun::new(&traces, &cfg, seed + i as u64).run()
        });

        let cost: f64 = reports.iter().map(|r| r.cost).sum();
        let baseline: f64 = reports.iter().map(|r| r.baseline_cost).sum();
        // Every VM in a group shares its group's downtime.
        let mean_unavailability = reports
            .iter()
            .zip(&groups)
            .map(|(r, g)| r.unavailability * g.len() as f64)
            .sum::<f64>()
            / vms as f64;
        let worst = reports.iter().map(|r| r.unavailability).fold(0.0, f64::max);
        let forced: u32 = reports.iter().map(|r| r.forced_migrations).sum();
        let planned: u32 = reports.iter().map(|r| r.planned_migrations).sum();
        let reverse: u32 = reports.iter().map(|r| r.reverse_migrations).sum();

        println!("{label}:");
        println!(
            "  groups: {} ({}% capacity lost to fragmentation)",
            groups.len(),
            (waste * 100.0).round()
        );
        println!(
            "  cost: ${cost:.0} vs ${baseline:.0} on-demand ({:.0}%)",
            cost / baseline * 100.0
        );
        println!(
            "  tenant unavailability: mean {:.5}%, worst group {:.5}% -> {}",
            mean_unavailability * 100.0,
            worst * 100.0,
            if slo::meets_nines(worst, 3) {
                "every tenant gets 3+ nines"
            } else {
                "some tenants below 3 nines"
            }
        );
        println!("  migrations: {forced} forced, {planned} planned, {reverse} reverse\n");
    }

    println!("the margin between the on-demand fleet and the spot fleets is the");
    println!("derivative cloud's gross profit — the business case the paper opens.");
}
