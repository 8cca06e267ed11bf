//! `spothost chaos` — bounded chaos sweep over the storm/fault grid.
//!
//! The CLI face of the chaos invariant harness
//! (`crates/core/tests/chaos_properties.rs`): burn a wall-clock budget
//! running randomized-but-reproducible storm x fault x policy x
//! mechanism x scope x stability-weight configurations and verify, for
//! every trial, that the scheduler
//!
//! * terminates with conserved accounting (downtime fits inside the
//!   measured span, cost finite and within a constant factor of the
//!   on-demand baseline),
//! * is deterministic (a re-run with the same inputs is bit-identical),
//! * replays exactly through telemetry (summing the recorded stream
//!   reproduces cost and downtime bitwise, storm edges balance), and
//! * collapses to the storm-free baseline at zero intensity.
//!
//! Trials derive from `--seed` via splitmix64, so a failing trial number
//! reproduces exactly: `spothost chaos --seed N` re-runs the same grid
//! in the same order regardless of how many trials the budget admitted.

use crate::args::{Args, Flag};
use crate::commands::SEED;
use spothost_core::prelude::*;
use spothost_market::time::SimDuration;
use spothost_market::types::{InstanceType, MarketId, Zone};
use std::fmt::Write as _;
use std::time::Instant;

pub const FLAGS: &[Flag] = &[
    Flag::value("seconds", "S", "wall-clock budget of the sweep"),
    SEED,
    Flag::value("days", "D", "simulated days per trial"),
];

/// splitmix64 — tiny, seedable, and good enough to scatter trial knobs.
/// Using it (rather than the simulator's ChaCha streams) keeps the
/// harness's randomness visibly separate from the randomness under test.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One trial's configuration, derived entirely from the trial stream.
fn trial_cfg(state: &mut u64) -> SchedulerConfig {
    let scope = match splitmix64(state) % 3 {
        0 => MarketScope::Single(MarketId::new(Zone::UsEast1a, InstanceType::Small)),
        1 => MarketScope::MultiMarket(Zone::UsEast1a),
        _ => MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsWest1a]),
    };
    let policy = match splitmix64(state) % 4 {
        0 => BiddingPolicy::OnDemandOnly,
        1 => BiddingPolicy::PureSpot,
        2 => BiddingPolicy::Reactive,
        _ => BiddingPolicy::proactive_default(),
    };
    let mechanism = MechanismCombo::ALL[(splitmix64(state) % 4) as usize];
    // Weight the endpoints: zero intensity must be a perfect no-op and
    // full intensity is where termination and backpressure bugs live.
    let mut storms = StormConfig::intensity(match splitmix64(state) % 8 {
        0 => 0.0,
        1 => 1.0,
        _ => unit(state),
    });
    storms.od_quota = [0, 1, 4, 16][(splitmix64(state) % 4) as usize];
    let mut faults = FaultConfig::none();
    faults.spot_capacity_rate = unit(state) * 0.5;
    faults.od_capacity_rate = unit(state) * 0.5;
    faults.warning_miss_rate = unit(state) * 0.5;
    faults.ckpt_failure_rate = unit(state) * 0.5;
    // Zero weight half the time (the greedy path); otherwise the
    // stability penalty's trailing windows run under storms and faults.
    let stability = [0.0, 0.0, 0.0, 2.0, 8.0, 32.0][(splitmix64(state) % 6) as usize];
    let cfg = match &scope {
        MarketScope::Single(m) => SchedulerConfig::single_market(*m),
        _ => SchedulerConfig::multi(scope),
    };
    cfg.with_policy(policy)
        .with_mechanism(mechanism)
        .with_faults(faults)
        .with_storms(storms)
        .with_stability_weight(stability)
}

fn check_conservation(r: &RunReport, horizon: SimDuration) -> Result<(), String> {
    if r.downtime > r.active_span {
        return Err(format!(
            "downtime {:?} exceeds span {:?}",
            r.downtime, r.active_span
        ));
    }
    if r.active_span > horizon {
        return Err(format!(
            "span {:?} exceeds horizon {horizon:?}",
            r.active_span
        ));
    }
    if !(0.0..=1.0).contains(&r.unavailability) {
        return Err(format!("unavailability {} outside [0,1]", r.unavailability));
    }
    if !(r.cost.is_finite() && r.cost >= 0.0) {
        return Err(format!("cost {} not finite and non-negative", r.cost));
    }
    if r.cost > 3.0 * r.baseline_cost + 1.0 {
        return Err(format!(
            "cost {} blows past 3x on-demand baseline {}",
            r.cost, r.baseline_cost
        ));
    }
    Ok(())
}

fn check_replay(cfg: &SchedulerConfig, seed: u64, horizon: SimDuration) -> Result<(), String> {
    let plain = run_one(cfg, seed, horizon);
    let (report, rec) = run_one_recorded(cfg, seed, horizon);
    if plain != report {
        return Err("recorded run diverged from plain run".to_string());
    }
    let mut cost = 0.0f64;
    let mut downtime_ms = 0u64;
    let mut open = [0i64; 4];
    for (_, ev) in rec.events() {
        match ev {
            TelemetryEvent::LeaseClosed { cost: c, .. } => cost += c,
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
    if open.iter().any(|n| !(0..=1).contains(n)) {
        return Err(format!("unbalanced storm edges at horizon: {open:?}"));
    }
    Ok(())
}

fn check_zero_intensity(
    cfg: &SchedulerConfig,
    seed: u64,
    horizon: SimDuration,
) -> Result<(), String> {
    let mut storm_free = cfg.clone();
    storm_free.storms = StormConfig::none();
    let mut zero = cfg.clone();
    zero.storms = StormConfig::intensity(0.0);
    if run_one(&storm_free, seed, horizon) != run_one(&zero, seed, horizon) {
        return Err("zero-intensity storms are not bit-identical to no storms".to_string());
    }
    Ok(())
}

pub fn run(args: &Args, out: &mut String) -> Result<(), String> {
    let budget_s = args.get_f64("seconds", 30.0)?;
    if !(budget_s > 0.0 && budget_s.is_finite()) {
        return Err(format!("--seconds must be positive, got {budget_s}"));
    }
    let seed = args.get_u64("seed", 0)?;
    let horizon = args.get_duration("days", 7, SimDuration::days(1))?;
    let days = horizon.as_days_f64();

    let _ = writeln!(
        out,
        "spothost chaos — storm/fault grid, {budget_s:.0}s budget, \
         {days}-day runs, seed {seed}"
    );
    let start = Instant::now();
    let mut state = seed ^ 0x5eed_0fc4_a050_0000;
    let mut trials = 0u64;
    let mut checks = 0u64;
    while start.elapsed().as_secs_f64() < budget_s {
        let cfg = trial_cfg(&mut state);
        cfg.validate()
            .map_err(|e| format!("trial {trials}: grid produced an invalid config: {e}"))?;
        let run_seed = splitmix64(&mut state) % 10_000;

        let fail = |what: &str, e: String| {
            format!(
                "FAIL at trial {trials} ({what}): {e}\n  \
                 reproduce with: spothost chaos --seed {seed} (trial {trials})\n  \
                 config: {cfg:?} run_seed {run_seed}"
            )
        };

        let a = run_one(&cfg, run_seed, horizon);
        check_conservation(&a, horizon).map_err(|e| fail("conservation", e))?;
        let b = run_one(&cfg, run_seed, horizon);
        if a != b {
            return Err(fail(
                "determinism",
                "re-run with identical inputs diverged".to_string(),
            ));
        }
        checks += 2;
        // The recorded and baseline runs cost a full extra simulation
        // each; sample them so most of the budget goes to grid breadth.
        if trials.is_multiple_of(4) {
            check_replay(&cfg, run_seed, horizon).map_err(|e| fail("telemetry replay", e))?;
            checks += 1;
        }
        if trials.is_multiple_of(8) {
            check_zero_intensity(&cfg, run_seed, horizon)
                .map_err(|e| fail("zero-intensity neutrality", e))?;
            checks += 1;
        }
        trials += 1;
    }
    let _ = writeln!(
        out,
        "PASS — {trials} chaotic configurations, {checks} invariant checks, \
         {:.1}s",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(items: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        super::run(&parse(&[FLAGS], &argv).unwrap(), &mut out).map(|()| out)
    }

    #[test]
    fn bounded_chaos_passes_within_a_small_budget() {
        assert!(run(&["--seconds", "2", "--days", "2"])
            .unwrap()
            .contains("PASS"));
    }

    #[test]
    fn rejects_nonpositive_budget() {
        assert!(run(&["--seconds", "0"]).is_err());
        assert!(run(&["--seconds", "-3"]).is_err());
    }

    #[test]
    fn trial_stream_is_reproducible() {
        let mut s1 = 42u64;
        let mut s2 = 42u64;
        for _ in 0..32 {
            assert_eq!(
                format!("{:?}", trial_cfg(&mut s1)),
                format!("{:?}", trial_cfg(&mut s2))
            );
        }
    }
}
