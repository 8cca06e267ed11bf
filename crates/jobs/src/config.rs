//! Configuration of a batch-job simulation: the policy ladder, the
//! workload shape, and the fault/storm environment.

use spothost_core::BiddingPolicy;
use spothost_faults::{FaultConfig, StormConfig};
use spothost_market::time::SimDuration;
use spothost_market::types::{InstanceType, MarketId, Zone};

/// The batch-scheduling policy ladder (Voorsluys & Buyya regime): how a
/// job's spot leases are bid for and what happens when one is revoked.
///
/// All three rungs reuse [`BiddingPolicy`] for bid selection rather than
/// forking it — see [`JobPolicy::bidding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPolicy {
    /// Bid the cheapest ladder bid and restart revoked jobs from
    /// scratch. Cheapest per compute-hour, but every revocation throws
    /// away all progress.
    GreedySpot,
    /// Periodic checkpoints to a network volume, with the interval
    /// chosen from the forecaster's predicted revocation risk (Young's
    /// formula). Revocations lose only the progress since the last
    /// successful checkpoint; warned revocations flush a final bounded
    /// increment inside the grace window.
    CheckpointSpot,
    /// Greedy spot bidding, but a job escalates to an on-demand server
    /// the moment its remaining deadline slack no longer covers its
    /// predicted restart loss.
    OnDemandFallback,
}

impl JobPolicy {
    /// Every rung, ladder order.
    pub const ALL: [JobPolicy; 3] = [
        JobPolicy::GreedySpot,
        JobPolicy::CheckpointSpot,
        JobPolicy::OnDemandFallback,
    ];

    /// Short lowercase label used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            JobPolicy::GreedySpot => "greedy-spot",
            JobPolicy::CheckpointSpot => "checkpoint-spot",
            JobPolicy::OnDemandFallback => "on-demand-fallback",
        }
    }

    /// Parse a CLI label (inverse of [`JobPolicy::name`]).
    pub fn parse(s: &str) -> Option<JobPolicy> {
        JobPolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The [`BiddingPolicy`] this rung places its spot bids with.
    ///
    /// Greedy rungs bid the cheapest rung of the forecast bid ladder (a
    /// low bid converts price spikes into revocations, whose partial
    /// final hour is free); the checkpointing rung uses the adaptive
    /// forecast policy so the bid itself already reflects predicted
    /// revocation risk.
    pub fn bidding(self) -> BiddingPolicy {
        match self {
            JobPolicy::GreedySpot | JobPolicy::OnDemandFallback => {
                BiddingPolicy::Proactive { bid_mult: 1.1 }
            }
            JobPolicy::CheckpointSpot => BiddingPolicy::Adaptive { risk_budget: 0.02 },
        }
    }
}

impl std::fmt::Display for JobPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one batch-job simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobsConfig {
    /// The spot market the worker fleet bids in.
    pub market: MarketId,
    /// The policy rung under test.
    pub policy: JobPolicy,
    /// Concurrent worker slots (one running job per slot).
    pub workers: u32,
    /// Mean job inter-arrival time (exponential; arrivals stop at half
    /// the horizon so late jobs can still finish inside it).
    pub mean_interarrival: SimDuration,
    /// Mean job runtime (exponential, clamped to `[10 min, 48 h]`).
    pub mean_runtime: SimDuration,
    /// Mean deadline slack as a fraction of the job's runtime: the
    /// deadline is `arrival + runtime * (1 + slack_factor * u)` with
    /// `u ~ U[0.5, 1.5]`.
    pub slack_factor: f64,
    /// Fraction of jobs that can be checkpointed at all; the rest always
    /// restart from scratch regardless of policy.
    pub checkpointable_fraction: f64,
    /// Injected fault rates (capacity denials, boot failures, warning
    /// and checkpoint-write faults).
    pub faults: FaultConfig,
    /// Correlated-failure storm model (fault-rate modulation, capacity
    /// crunches, mass revocations and backoff jitter).
    pub storms: StormConfig,
}

impl JobsConfig {
    /// Default single-market configuration for a policy rung:
    /// 4 workers, ~4 h jobs arriving every ~2 h, slack of one runtime,
    /// 75% checkpointable, no injected faults, no storms.
    pub fn new(policy: JobPolicy) -> Self {
        JobsConfig {
            market: MarketId::new(Zone::UsEast1a, InstanceType::Large),
            policy,
            workers: 4,
            mean_interarrival: SimDuration::hours(2),
            mean_runtime: SimDuration::hours(4),
            slack_factor: 1.0,
            checkpointable_fraction: 0.75,
            faults: FaultConfig::none(),
            storms: StormConfig::none(),
        }
    }

    /// Builder: replace the fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: replace the storm configuration.
    pub fn with_storms(mut self, storms: StormConfig) -> Self {
        self.storms = storms;
        self
    }

    /// Builder: replace the market.
    pub fn with_market(mut self, market: MarketId) -> Self {
        self.market = market;
        self
    }

    /// Builder: replace the worker-slot count.
    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = workers;
        self
    }

    /// Check every parameter, returning a human-readable error for
    /// out-of-range values (mirrors `SchedulerConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("at least one worker slot required".into());
        }
        if self.mean_interarrival == SimDuration::ZERO {
            return Err("mean inter-arrival must be positive".into());
        }
        if self.mean_runtime == SimDuration::ZERO {
            return Err("mean runtime must be positive".into());
        }
        if !self.slack_factor.is_finite() || self.slack_factor < 0.0 {
            return Err(format!(
                "slack factor must be finite and >= 0, got {}",
                self.slack_factor
            ));
        }
        if !(0.0..=1.0).contains(&self.checkpointable_fraction) {
            return Err(format!(
                "checkpointable fraction must be in [0, 1], got {}",
                self.checkpointable_fraction
            ));
        }
        self.policy.bidding().validate()?;
        self.faults.validate()?;
        self.storms.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_roundtrip() {
        for p in JobPolicy::ALL {
            assert_eq!(JobPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(JobPolicy::parse("nope"), None);
    }

    #[test]
    fn default_config_validates() {
        for p in JobPolicy::ALL {
            assert!(JobsConfig::new(p).validate().is_ok());
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut c = JobsConfig::new(JobPolicy::GreedySpot);
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = JobsConfig::new(JobPolicy::GreedySpot);
        c.slack_factor = -1.0;
        assert!(c.validate().is_err());
        let mut c = JobsConfig::new(JobPolicy::GreedySpot);
        c.checkpointable_fraction = 1.5;
        assert!(c.validate().is_err());
    }
}
