//! Aggregate results of one batch-job simulation run.

use spothost_market::time::{SimDuration, SimTime};

use crate::config::JobPolicy;
use crate::sim::JobOutcome;

/// Aggregate metrics over every job of one run: the paper-style
/// cost/availability trade-off restated for batch work as $/job,
/// deadline-miss rate, and the wasted-work fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct JobsReport {
    /// Policy rung the run was made under.
    pub policy: JobPolicy,
    /// Jobs submitted.
    pub jobs: u32,
    /// Jobs that completed all their work before the horizon.
    pub finished: u32,
    /// Jobs that missed their deadline (including any cut off by the
    /// horizon before finishing).
    pub missed: u32,
    /// Total dollars billed across every lease of every job.
    pub total_cost: f64,
    /// Compute that counted toward job completion.
    pub useful: SimDuration,
    /// Leased compute thrown away: checkpoint/restore overhead, grace
    /// windows, and progress lost to revocations. Allocation latency is
    /// not leased, so it is in neither this nor `useful`.
    pub wasted: SimDuration,
    /// Spot leases revoked, by a price crossing or a storm mass
    /// revocation. Capacity faults deny requests; they never end a lease.
    pub revocations: u32,
    /// Successful checkpoints written (periodic and final flushes).
    pub checkpoints: u32,
    /// Jobs that escalated to an on-demand server.
    pub escalations: u32,
    /// First arrival to last completion.
    pub makespan: SimDuration,
}

impl JobsReport {
    /// Fold per-job outcomes into the aggregate report.
    pub fn from_outcomes(policy: JobPolicy, outcomes: &[JobOutcome]) -> Self {
        let mut r = JobsReport {
            policy,
            jobs: outcomes.len() as u32,
            finished: 0,
            missed: 0,
            total_cost: 0.0,
            useful: SimDuration::ZERO,
            wasted: SimDuration::ZERO,
            revocations: 0,
            checkpoints: 0,
            escalations: 0,
            makespan: SimDuration::ZERO,
        };
        let mut first_arrival = SimTime::MAX;
        let mut last_completion = SimTime::ZERO;
        for o in outcomes {
            r.finished += u32::from(o.finished);
            r.missed += u32::from(o.missed);
            r.total_cost += o.cost;
            r.useful += o.useful;
            r.wasted += o.wasted;
            r.revocations += o.revocations;
            r.checkpoints += o.checkpoints;
            r.escalations += u32::from(o.escalated);
            first_arrival = first_arrival.min(o.spec.arrival);
            last_completion = last_completion.max(o.completion);
        }
        if !outcomes.is_empty() {
            r.makespan = last_completion.since(first_arrival);
        }
        r
    }

    /// Dollars billed per submitted job.
    pub fn cost_per_job(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_cost / f64::from(self.jobs)
        }
    }

    /// Percentage of jobs that missed their deadline.
    pub fn miss_rate_pct(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            100.0 * f64::from(self.missed) / f64::from(self.jobs)
        }
    }

    /// Fraction of billed compute that was thrown away.
    pub fn wasted_fraction(&self) -> f64 {
        let total = self.useful + self.wasted;
        if total == SimDuration::ZERO {
            0.0
        } else {
            self.wasted.as_secs_f64() / total.as_secs_f64()
        }
    }
}

impl std::fmt::Display for JobsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<18} jobs={:<3} $/job={:<7.3} miss={:>5.1}% wasted={:>4.1}% revocations={:<3} \
             checkpoints={:<4} escalations={:<3} makespan={:.1}h",
            self.policy.name(),
            self.jobs,
            self.cost_per_job(),
            self.miss_rate_pct(),
            100.0 * self.wasted_fraction(),
            self.revocations,
            self.checkpoints,
            self.escalations,
            self.makespan.as_hours_f64(),
        )
    }
}
