//! # spothost-faults
//!
//! Deterministic, seeded fault injection for the spothost simulator.
//!
//! The paper's four-nines claim rests on EC2 semantics the simulator
//! otherwise treats as infallible: every on-demand request succeeds,
//! every revocation warning arrives exactly two minutes early, and every
//! checkpoint/restore/live-migration completes. This crate provides a
//! *fault plan* — a set of per-fault-type probabilities plus independent
//! ChaCha-derived random streams — that the provider (`spothost-cloudsim`)
//! and the scheduler (`spothost-core`) consult to decide whether a given
//! operation fails, and how.
//!
//! Two properties the rest of the workspace depends on:
//!
//! * **Determinism** — every fault type draws from its own named stream
//!   derived from the run seed ([`spothost_market::gen::derive_seed`]), so
//!   a run is a pure function of `(config, seed)` and Monte-Carlo sweeps
//!   stay reproducible. Enabling one fault type never perturbs the draw
//!   sequence of another.
//! * **Zero-fault neutrality** — a draw whose configured rate is zero
//!   returns "no fault" *without advancing any stream*, so the all-zero
//!   plan (the default) is bit-identical to not having a plan at all.

pub mod config;
pub mod plan;
pub mod storm;

pub use config::FaultConfig;
pub use plan::{FaultPlan, WarningFault};
pub use storm::{StormConfig, StormEpisode, StormSchedule};

use spothost_market::time::SimDuration;

/// The backoff before retrying a denied server request, after `attempts`
/// consecutive denials, which it counts up by one: 60 s doubling to a
/// one-hour cap. Bounded, so every retry loop makes real progress toward
/// the horizon even at a 100% fault rate. Under a storm schedule the
/// delay gains its seeded jitter, so correlated victims de-synchronise
/// instead of stampeding the market in lockstep.
pub fn acquire_backoff(attempts: &mut u32, storms: Option<&mut StormSchedule>) -> SimDuration {
    let delay = SimDuration::secs(60u64 << (*attempts).min(6)).min(SimDuration::hours(1));
    *attempts = attempts.saturating_add(1);
    match storms {
        Some(s) => s.jittered_backoff(delay),
        None => delay,
    }
}

/// The injectable fault types, one per [`FaultConfig`] rate knob. Used by
/// consumers (telemetry, reports) to attribute an observed failure to the
/// fault stream that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Spot request rejected with `InsufficientCapacity`.
    SpotCapacity,
    /// On-demand request rejected with `InsufficientCapacity`.
    OdCapacity,
    /// A granted server never comes up (activation fails, closed unbilled).
    StartupFailure,
    /// A revocation warning was never delivered.
    WarningMiss,
    /// A revocation warning arrived late, eating into the grace window.
    WarningDelay,
    /// Extra delay attaching the checkpoint volume to a replacement.
    VolumeDelay,
    /// The final bounded-checkpoint flush failed (or no longer fit the
    /// remaining grace window); recovery cold-boots.
    CkptWriteFail,
    /// A live pre-copy aborted mid-flight and downgraded to a restore.
    LiveAbort,
    /// A lazy restore hit a page-fault storm, inflating its degraded window.
    LazyStorm,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SpotCapacity => "spot-capacity",
            FaultKind::OdCapacity => "od-capacity",
            FaultKind::StartupFailure => "startup-failure",
            FaultKind::WarningMiss => "warning-miss",
            FaultKind::WarningDelay => "warning-delay",
            FaultKind::VolumeDelay => "volume-delay",
            FaultKind::CkptWriteFail => "ckpt-write-fail",
            FaultKind::LiveAbort => "live-abort",
            FaultKind::LazyStorm => "lazy-storm",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_a_minute_to_an_hour() {
        let mut attempts = 0;
        let ladder: Vec<u64> = (0..9)
            .map(|_| acquire_backoff(&mut attempts, None).as_millis() / 1000)
            .collect();
        assert_eq!(ladder, [60, 120, 240, 480, 960, 1920, 3600, 3600, 3600]);
        assert_eq!(attempts, 9);
    }

    #[test]
    fn backoff_is_jittered_only_by_a_jittery_schedule() {
        let spans = [const { Vec::new() }; 4];
        let horizon = SimDuration::days(1);
        let mut calm = StormSchedule::new(StormConfig::none(), 3, horizon, &spans);
        let mut jittery = StormConfig::none();
        jittery.backoff_jitter = 0.5;
        let mut jittery = StormSchedule::new(jittery, 3, horizon, &spans);
        for attempt in 0..8 {
            let plain = acquire_backoff(&mut attempt.clone(), None);
            assert_eq!(
                acquire_backoff(&mut attempt.clone(), Some(&mut calm)),
                plain
            );
            let j = acquire_backoff(&mut attempt.clone(), Some(&mut jittery));
            assert!(
                plain <= j && j <= plain + plain.mul_f64(0.5),
                "{j} vs {plain}"
            );
        }
    }
}
