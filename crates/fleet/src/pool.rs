//! The pool manager: pack, schedule each group, aggregate.

use crate::packing::pack;
use crate::report::{FleetReport, GroupOutcome};
use crate::vm::CustomerVm;
use rayon::prelude::*;
use spothost_core::config::SchedulerConfig;
use spothost_core::policy::BiddingPolicy;
use spothost_core::scheduler::SimRun;
use spothost_core::strategy::MarketScope;
use spothost_faults::StormConfig;
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::SimDuration;
use spothost_market::types::Zone;
use spothost_virt::MechanismCombo;

/// Pool-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Zone(s) the pool operates in.
    pub zones: Vec<Zone>,
    /// Bidding policy of every placement group's scheduler.
    pub policy: BiddingPolicy,
    /// Migration mechanism combo of every placement group's scheduler.
    pub mechanism: MechanismCombo,
    /// Stability weight passed through to each group's scheduler.
    pub stability_weight: f64,
    /// Correlated-failure storms. One timeline is shared by every
    /// placement group (seeded from the fleet seed, not the per-group
    /// jittered seed): a storm hits all tenants in the zone at once,
    /// which is exactly the thundering-herd regime the pool must absorb.
    pub storms: StormConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            zones: vec![Zone::UsEast1a],
            policy: BiddingPolicy::proactive_default(),
            mechanism: MechanismCombo::CKPT_LR_LIVE,
            stability_weight: 0.0,
            storms: StormConfig::none(),
        }
    }
}

impl FleetConfig {
    fn scope(&self) -> MarketScope {
        match self.zones.as_slice() {
            [zone] => MarketScope::MultiMarket(*zone),
            zones => MarketScope::MultiRegion(zones.to_vec()),
        }
    }

    /// The scheduler configuration every group shares but for its size.
    /// One storm schedule is built here from the fleet seed and pinned, so
    /// every group sees the same episodes and mass revocations, whatever
    /// its jittered run seed.
    fn scheduler_config(&self, traces: &TraceSet, fleet_seed: u64) -> SchedulerConfig {
        SchedulerConfig::multi(self.scope())
            .with_policy(self.policy)
            .with_mechanism(self.mechanism)
            .with_stability_weight(self.stability_weight)
            .with_storms(self.storms.clone())
            .with_shared_storms(traces, fleet_seed)
    }
}

/// Host a set of customer VMs for `horizon`, returning fleet-level
/// accounting. All groups share one generated price history (they trade
/// in the same markets at the same time), and groups are simulated on the
/// rayon pool.
pub fn run_fleet(
    vms: &[CustomerVm],
    cfg: &FleetConfig,
    seed: u64,
    horizon: SimDuration,
) -> FleetReport {
    assert!(!vms.is_empty(), "fleet needs at least one VM");
    assert!(!cfg.zones.is_empty(), "fleet needs at least one zone");
    let groups = pack(vms);
    let catalog = Catalog::ec2_2015();
    // One trace set covers every market any group can bid in.
    let markets: Vec<_> = cfg
        .zones
        .iter()
        .flat_map(|&z| spothost_market::types::MarketId::all_in_zone(z))
        .collect();
    let traces = TraceSet::generate(&catalog, &markets, seed, horizon);
    let base_cfg = cfg.scheduler_config(&traces, seed);

    let outcomes: Vec<GroupOutcome> = groups
        .par_iter()
        .enumerate()
        .map(|(i, group)| {
            let sched_cfg = base_cfg
                .clone()
                .with_capacity_units(group.allocated_units());
            // Distinct provider streams per group (startup jitter), same
            // shared price history.
            let report = SimRun::new(&traces, &sched_cfg, seed.wrapping_add(i as u64)).run();
            GroupOutcome {
                group: group.clone(),
                report,
            }
        })
        .collect();

    FleetReport::aggregate(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vms(n: u64) -> Vec<CustomerVm> {
        // A realistic mixed tenant population: many smalls, some mediums,
        // a few larges.
        (0..n)
            .map(|i| {
                let units = match i % 7 {
                    0..=3 => 1,
                    4 | 5 => 2,
                    _ => 4,
                };
                CustomerVm::new(i, units)
            })
            .collect()
    }

    #[test]
    fn fleet_hosts_everyone_cheaply() {
        let report = run_fleet(&vms(20), &FleetConfig::default(), 7, SimDuration::days(21));
        assert_eq!(report.total_vms(), 20);
        assert!(
            report.normalized_cost() < 0.5,
            "{}",
            report.normalized_cost()
        );
        assert!(report.vm_weighted_unavailability() < 0.01);
        assert!(report.waste_fraction() < 0.5);
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = run_fleet(&vms(10), &FleetConfig::default(), 3, SimDuration::days(7));
        let b = run_fleet(&vms(10), &FleetConfig::default(), 3, SimDuration::days(7));
        assert_eq!(a.total_cost(), b.total_cost());
        assert_eq!(
            a.vm_weighted_unavailability(),
            b.vm_weighted_unavailability()
        );
    }

    #[test]
    fn on_demand_fleet_is_the_expensive_baseline() {
        let cfg = FleetConfig {
            policy: BiddingPolicy::OnDemandOnly,
            ..FleetConfig::default()
        };
        let od = run_fleet(&vms(10), &cfg, 3, SimDuration::days(14));
        let spot = run_fleet(&vms(10), &FleetConfig::default(), 3, SimDuration::days(14));
        assert!(spot.total_cost() < od.total_cost() * 0.5);
        assert_eq!(od.vm_weighted_unavailability(), 0.0);
    }

    #[test]
    fn storms_hit_the_whole_fleet_and_zero_intensity_is_free() {
        // Zero intensity builds no schedule: bit-identical to the
        // storm-free default, even with the storm seed pinned.
        let calm = run_fleet(&vms(10), &FleetConfig::default(), 3, SimDuration::days(14));
        let zero = FleetConfig {
            storms: StormConfig::intensity(0.0),
            ..FleetConfig::default()
        };
        let zero = run_fleet(&vms(10), &zero, 3, SimDuration::days(14));
        assert_eq!(calm.total_cost(), zero.total_cost());
        assert_eq!(
            calm.vm_weighted_unavailability(),
            zero.vm_weighted_unavailability()
        );

        // Full-intensity storms share one timeline across all groups
        // (mass revocations land fleet-wide), and the pool degrades but
        // still terminates deterministically.
        let stormy_cfg = FleetConfig {
            storms: StormConfig::intensity(1.0),
            ..FleetConfig::default()
        };
        let stormy = run_fleet(&vms(10), &stormy_cfg, 3, SimDuration::days(14));
        let again = run_fleet(&vms(10), &stormy_cfg, 3, SimDuration::days(14));
        assert_eq!(stormy.total_cost(), again.total_cost());
        assert!(
            stormy.vm_weighted_unavailability() > calm.vm_weighted_unavailability(),
            "storms {} vs calm {}",
            stormy.vm_weighted_unavailability(),
            calm.vm_weighted_unavailability()
        );
    }

    #[test]
    fn multi_zone_fleet_works() {
        let cfg = FleetConfig {
            zones: vec![Zone::UsEast1a, Zone::UsEast1b],
            ..FleetConfig::default()
        };
        let report = run_fleet(&vms(6), &cfg, 5, SimDuration::days(7));
        assert!(report.total_cost() > 0.0);
    }
}
