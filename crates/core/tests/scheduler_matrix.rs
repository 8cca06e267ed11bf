//! Every scheduler path, pinned by a committed golden.
//!
//! `tests/golden/scheduler_matrix.txt` holds one line per (config, seed)
//! pair of a grid that crosses 3 scopes, 5 policies, the naive restart
//! on and off, fault rate 0 and 0.2, and storm intensity 0 and 0.6 (with
//! an on-demand quota of 1), at 2 seeds of 30 days. The four mechanisms
//! and the pessimistic regime are cycled across the grid. Three more
//! rows run the naive restart under proactive bidding and storms for 60
//! days, where a revocation warning interrupts planned moves to
//! on-demand.
//!
//! Each line holds the config, the run's `RunReport` (`{:?}` prints every
//! float in its shortest round-trip form, so equal text is equal bits),
//! the event count of the recorded stream and a 64-bit FNV-1a digest of
//! its `event_to_json` lines. A rewrite of the scheduler that keeps every
//! line keeps every report and every event of these runs.
//!
//! On a mismatch the test names the first line that differs and writes
//! the new text to `target/tmp/scheduler_matrix.txt`; to accept a
//! deliberate change, copy that file over the golden.

use spothost_core::prelude::*;
use spothost_core::telemetry::{
    event_to_json, EventKind, FaultKind, MigrationPhase, SchedulerState,
};
use spothost_market::time::SimDuration;
use spothost_market::types::{InstanceType, MarketId, Zone};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/scheduler_matrix.txt"
);

/// One run of the matrix.
struct Row {
    cfg: SchedulerConfig,
    seed: u64,
    days: u64,
}

fn scopes() -> [MarketScope; 3] {
    [
        MarketScope::Single(MarketId::new(Zone::UsEast1a, InstanceType::Small)),
        MarketScope::MultiMarket(Zone::UsEast1a),
        MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsWest1a]),
    ]
}

fn policies() -> [BiddingPolicy; 5] {
    [
        BiddingPolicy::OnDemandOnly,
        BiddingPolicy::PureSpot,
        BiddingPolicy::Reactive,
        BiddingPolicy::proactive_default(),
        BiddingPolicy::adaptive_default(),
    ]
}

/// The scope's default config: one server of a single market's type, or
/// an xlarge-equivalent service.
fn base(scope: &MarketScope) -> SchedulerConfig {
    match scope {
        MarketScope::Single(m) => SchedulerConfig::single_market(*m),
        _ => SchedulerConfig::multi(scope.clone()),
    }
}

/// A config as its line names it. `FaultConfig::uniform(r)` sets every
/// fault rate to `r` and `StormConfig::intensity(x)` sets the spike
/// coupling to `x`, so these name the grid cell.
fn label(cfg: &SchedulerConfig) -> String {
    format!(
        "{} | {} | naive {} | faults {} | storms {} quota {} | {} | {:?}",
        cfg.scope.label(),
        cfg.policy.name(),
        u8::from(cfg.naive_restart),
        cfg.faults.spot_capacity_rate,
        cfg.storms.spike_coupling,
        cfg.storms.od_quota,
        cfg.mechanism,
        cfg.regime,
    )
}

fn rows() -> Vec<Row> {
    let mut cfgs: Vec<SchedulerConfig> = Vec::new();
    for scope in &scopes() {
        for policy in policies() {
            for naive in [false, true] {
                for fault_rate in [0.0, 0.2] {
                    for intensity in [0.0, 0.6] {
                        // Intensity 0 builds no storms; the storm rows
                        // allow one on-demand server.
                        let mut storms = StormConfig::intensity(intensity);
                        storms.od_quota = u32::from(intensity > 0.0);
                        let i = cfgs.len();
                        let regime = if i % 3 == 2 {
                            ParamRegime::Pessimistic
                        } else {
                            ParamRegime::Typical
                        };
                        let mut cfg = base(scope)
                            .with_policy(policy)
                            .with_mechanism(MechanismCombo::ALL[i % 4])
                            .with_regime(regime)
                            .with_faults(FaultConfig::uniform(fault_rate))
                            .with_storms(storms);
                        cfg.naive_restart = naive;
                        cfgs.push(cfg);
                    }
                }
            }
        }
    }
    let mut rows: Vec<Row> = cfgs
        .into_iter()
        .flat_map(|cfg| {
            (0..2).map(move |seed| Row {
                cfg: cfg.clone(),
                seed,
                days: 30,
            })
        })
        .collect();
    // A warning that interrupts a planned move to on-demand, under the
    // naive restart.
    let cfg = base(&scopes()[0])
        .with_policy(BiddingPolicy::proactive_default())
        .with_storms(StormConfig::intensity(0.6))
        .with_naive_restart();
    rows.extend((0..3).map(|seed| Row {
        cfg: cfg.clone(),
        seed,
        days: 60,
    }));
    rows
}

/// 64-bit FNV-1a, folded over `bytes` from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What the matrix reached, by name.
#[derive(Default)]
struct Reach {
    states: BTreeSet<&'static str>,
    faults: BTreeSet<&'static str>,
    phases: BTreeSet<&'static str>,
    kinds: BTreeSet<&'static str>,
}

fn run_matrix() -> (String, Reach) {
    let mut text = String::new();
    let mut reach = Reach::default();
    for row in rows() {
        let (report, rec) = run_one_recorded(&row.cfg, row.seed, SimDuration::days(row.days));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut events = 0usize;
        for (at, ev) in rec.events() {
            digest = fnv1a(digest, event_to_json(*at, ev).as_bytes());
            digest = fnv1a(digest, b"\n");
            events += 1;
            reach.kinds.insert(ev.kind().name());
            match ev {
                TelemetryEvent::StateChange { state } => {
                    reach.states.insert(state.name());
                }
                TelemetryEvent::FaultInjected { kind } => {
                    reach.faults.insert(kind.name());
                }
                TelemetryEvent::MigrationPhase { phase, .. } => {
                    reach.phases.insert(phase.name());
                }
                _ => {}
            }
        }
        let _ = writeln!(
            text,
            "{} | seed {} | {} days | {report:?} | {events} events | {digest:016x}",
            label(&row.cfg),
            row.seed,
            row.days
        );
    }
    (text, reach)
}

#[test]
fn scheduler_matrix_matches_its_golden() {
    let (text, reach) = run_matrix();

    let states = [
        SchedulerState::Boot,
        SchedulerState::Active,
        SchedulerState::Migrating,
        SchedulerState::Evacuating,
        SchedulerState::DownWaiting,
        SchedulerState::Restoring,
        SchedulerState::Reacquiring,
    ];
    let faults = [
        FaultKind::SpotCapacity,
        FaultKind::OdCapacity,
        FaultKind::StartupFailure,
        FaultKind::WarningMiss,
        FaultKind::WarningDelay,
        FaultKind::VolumeDelay,
        FaultKind::CkptWriteFail,
        FaultKind::LiveAbort,
        FaultKind::LazyStorm,
    ];
    let phases = [
        MigrationPhase::Prepare,
        MigrationPhase::LivePrecopy,
        MigrationPhase::CkptFlush,
        MigrationPhase::Restore,
        MigrationPhase::LazyFaultIn,
    ];
    for s in states {
        assert!(
            reach.states.contains(s.name()),
            "no run enters {}",
            s.name()
        );
    }
    for f in faults {
        assert!(
            reach.faults.contains(f.name()),
            "no run injects {}",
            f.name()
        );
    }
    for p in phases {
        assert!(
            reach.phases.contains(p.name()),
            "no run has phase {}",
            p.name()
        );
    }
    // Every kind the scheduler emits; the job kinds come from `jobs::sim`
    // and an on-demand quota refusal needs two on-demand servers at once,
    // which one service never holds.
    for k in EventKind::ALL {
        let name = k.name();
        if name.starts_with("job_") || k == EventKind::QuotaExhausted {
            continue;
        }
        assert!(reach.kinds.contains(name), "no run emits {name}");
    }

    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if text != golden {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scheduler_matrix.txt");
        std::fs::write(&out, &text).expect("write the new matrix text");
        let first = text
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("<missing>")))
            .position(|(new, old)| new != old)
            .unwrap_or(text.lines().count());
        panic!(
            "line {} of the scheduler matrix differs:\n  golden: {}\n  now:    {}\n\
             the new text is in {}; copy it over tests/golden/scheduler_matrix.txt \
             to accept it",
            first + 1,
            golden.lines().nth(first).unwrap_or("<missing>"),
            text.lines().nth(first).unwrap_or("<missing>"),
            out.display()
        );
    }
}
