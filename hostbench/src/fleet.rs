//! `fleet`: the four paper-scale `repro fleet` variants, single-zone and
//! cross-region, each calm and stormy, over 30 simulated days.

use crate::digest::Digest;
use crate::trace::{CountFactory, Tracer};
use crate::{PassOut, TracedOut, Workload};
use spothost_bench::experiments::fleet_sim;
use spothost_bench::ExpSettings;
use spothost_fleet::{run_fleet_sim, FleetSim, FleetSimConfig, FleetSimReport};
use spothost_market::prelude::*;
use spothost_workload::fleet_response;
use std::rc::Rc;
use std::time::Instant;

/// How many variants [`variants`] returns.
pub const VARIANTS: usize = 4;

/// The experiment's variants at full settings, in its own order: calm
/// then stormy, each single-zone then cross-region.
pub fn variants() -> Vec<(bool, FleetSimConfig)> {
    let settings = ExpSettings::full();
    let scopes = [
        vec![Zone::UsEast1a],
        vec![Zone::UsEast1a, Zone::UsWest1a, Zone::EuWest1a],
    ];
    let mut out = Vec::new();
    for storm in [0.0, fleet_sim::STORM_INTENSITY] {
        for zones in &scopes {
            out.push((
                storm > 0.0,
                fleet_sim::config_for(&settings, zones.clone(), storm),
            ));
        }
    }
    out
}

pub fn horizon() -> SimDuration {
    fleet_sim::horizon_for(&ExpSettings::full())
}

pub fn markets(cfg: &FleetSimConfig) -> Vec<MarketId> {
    cfg.zones
        .iter()
        .flat_map(|&z| MarketId::all_in_zone(z))
        .collect()
}

/// Check a fleet report's invariants and fold every field into the digest.
pub fn absorb_fleet(d: &mut Digest, r: &FleetSimReport) -> bool {
    for s in &r.samples {
        d.u64(s.t.as_millis());
        for x in [s.users, s.utilization, s.mean_response_s, s.p99_response_s] {
            d.f64(x);
        }
        for x in [s.desired, s.live, s.serving] {
            d.u64(u64::from(x));
        }
    }
    d.u64(r.horizon.as_millis());
    for x in [
        r.total_cost,
        r.od_equivalent_cost,
        r.static_peak_cost,
        r.vm_hours,
        r.offered_user_seconds,
        r.unserved_user_seconds,
        r.outage_seconds,
        r.mean_response_s,
        r.worst_p99_s,
        r.mean_utilization,
        r.slo_violation_frac,
        r.vm_unavailability,
        r.spot_fraction,
    ] {
        d.f64(x);
    }
    for x in [
        r.peak_vms,
        r.spawned_vms,
        r.released_vms,
        r.scale_ups,
        r.scale_downs,
    ] {
        d.u64(u64::from(x));
    }
    for x in [
        r.forced_migrations,
        r.planned_migrations,
        r.reverse_migrations,
    ] {
        d.u64(x);
    }
    r.total_cost.is_finite()
        && r.total_cost >= 0.0
        && (0.0..=1.0).contains(&r.service_availability())
        && (0.0..=1.0).contains(&r.vm_unavailability)
        && (0.0..=1.0).contains(&r.spot_fraction)
}

/// `step_until` calls a run made: one per live VM per control tick, plus
/// the final settle of every VM alive at the horizon.
pub fn step_calls(r: &FleetSimReport) -> u64 {
    let ticks: u64 = r.samples.iter().map(|s| u64::from(s.live)).sum();
    ticks + u64::from(r.spawned_vms - r.released_vms)
}

/// Fleet seeds per benchmark seed. One seed's fleet is a single draw of
/// traffic, storms and markets, and runs with different draws differ by
/// tens of percent in work, and still by about a tenth in work per second;
/// a run cycles through a block of seeds.
pub const SEEDS_PER_RUN: u64 = 8;

/// The fleet seeds of benchmark seed `seed`: a block of its own.
pub fn seeds(seed: u64) -> Vec<u64> {
    (seed * SEEDS_PER_RUN..(seed + 1) * SEEDS_PER_RUN).collect()
}

/// Passes cycle through every (fleet seed, variant) pair, one fleet run
/// per pass. A pass of its own for each run keeps the stretch of time that
/// one slowdown measurement covers short (see `probe::Reference`).
pub struct Fleet {
    seeds: Vec<u64>,
    variants: Vec<(bool, FleetSimConfig)>,
}

impl Fleet {
    fn slot(&self, slot: usize) -> (u64, &(bool, FleetSimConfig)) {
        (self.seeds[slot / VARIANTS], &self.variants[slot % VARIANTS])
    }
}

impl Workload for Fleet {
    const PARALLEL: bool = false;
    const SLOTS: usize = SEEDS_PER_RUN as usize * VARIANTS;

    fn setup(seed: u64, generate_s: &mut f64) -> Fleet {
        let seeds = seeds(seed);
        let variants = variants();
        assert_eq!(variants.len(), VARIANTS);
        let catalog = Catalog::ec2_2015();
        let t0 = Instant::now();
        for &s in &seeds {
            for (_, cfg) in &variants {
                TraceSet::generate(&catalog, &markets(cfg), s, horizon());
            }
        }
        *generate_s += t0.elapsed().as_secs_f64();
        Fleet { seeds, variants }
    }

    fn pass(&mut self, slot: usize) -> PassOut {
        let (seed, (_, cfg)) = self.slot(slot);
        let mut out = PassOut::default();
        let (report, _) = out.work.time(|| run_fleet_sim(cfg, seed, horizon()));
        let ok = absorb_fleet(&mut out.digest, &report);
        out.op(ok);
        out.sim_hours += report.vm_hours;
        out
    }

    /// The variant as trace lookup, fleet run with a counting sink per VM,
    /// and a replay of the per-tick MVA solves from the report's samples
    /// (which must reproduce the sampled response times).
    fn traced_pass(&mut self, slot: usize, tr: &Tracer, parent: u32) -> TracedOut {
        let (seed, (stormy, cfg)) = self.slot(slot);
        let catalog = Catalog::ec2_2015();
        let mut out = TracedOut::new(PassOut::default());
        let counts = CountFactory::default();
        let (report, run_s) = out.pass.work.time(|| {
            let traces = tr.span("market.generate", parent, |_| {
                TraceSet::generate(&catalog, &markets(cfg), seed, horizon())
            });
            tr.span("fleet.run", parent, |_| {
                let sinks = CountFactory(Rc::clone(&counts.0));
                FleetSim::with_sinks(cfg.clone(), &traces, seed, sinks).run()
            })
        });
        let ok = absorb_fleet(&mut out.pass.digest, &report);
        out.pass.sim_hours += report.vm_hours;
        let t0 = Instant::now();
        let (replayed, solves) = tr.span("workload.mva", parent, |_| replay_mva(cfg, &report));
        let mva_s = t0.elapsed().as_secs_f64();
        out.pass.op(ok && replayed);
        for (k, v) in [
            ("fleet.step_calls", step_calls(&report) as f64),
            ("fleet.spawns", f64::from(report.spawned_vms)),
            ("fleet.ticks", report.samples.len() as f64),
            ("workload.mva_solves", solves as f64),
        ] {
            out.counts.insert(k, v);
        }
        for (k, v) in [
            ("fleet.run_s", run_s),
            ("fleet.storm_s", if *stormy { run_s } else { 0.0 }),
            ("workload.mva_s", mva_s),
        ] {
            out.timings.insert(k, v);
        }
        counts.0.borrow().export(&mut out.counts);
        out
    }
}

/// Solve the fleet's MVA model again for every serving tick of a report;
/// true if each solve reproduces the sampled utilisation and p99 exactly.
fn replay_mva(cfg: &FleetSimConfig, report: &FleetSimReport) -> (bool, u64) {
    let mut ok = true;
    let mut solves = 0;
    for s in report.samples.iter().filter(|s| s.serving > 0) {
        let users = s.users.round().max(0.0) as u64;
        let load = fleet_response(
            &cfg.per_vm_network,
            users,
            u64::from(s.serving),
            cfg.slo_response_s,
        );
        solves += 1;
        ok &= load.utilization.to_bits() == s.utilization.to_bits()
            && load.p99_response_s.to_bits() == s.p99_response_s.to_bits();
    }
    (ok, solves)
}
