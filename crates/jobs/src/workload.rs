//! Seeded generation of the batch-job workload: exponential arrivals,
//! exponential runtimes, and per-runtime deadline slack.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use spothost_market::gen::derive_seed;
use spothost_market::time::{SimDuration, SimTime, MILLIS_PER_HOUR, MILLIS_PER_MINUTE};

use crate::config::JobsConfig;

/// Shortest job the generator will emit (clamp on the exponential draw).
pub const MIN_RUNTIME: SimDuration = SimDuration(10 * MILLIS_PER_MINUTE);
/// Longest job the generator will emit.
pub const MAX_RUNTIME: SimDuration = SimDuration(48 * MILLIS_PER_HOUR);
/// Fraction of jobs that can be checkpointed at all; the rest always
/// restart from scratch regardless of policy.
const CHECKPOINTABLE_FRACTION: f64 = 0.75;

/// One batch job as submitted: when it arrives, how much compute it
/// needs, when it must be done, and whether its state can be
/// checkpointed at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Submission time.
    pub arrival: SimTime,
    /// Pure compute time required (excludes boots, checkpoints, and
    /// re-done work).
    pub runtime: SimDuration,
    /// Completion deadline; finishing after it counts as a miss.
    pub deadline: SimTime,
    /// Whether the job's state can be checkpointed/restored. A job that
    /// cannot always restarts from scratch, whatever the policy.
    pub checkpointable: bool,
}

impl JobSpec {
    /// Slack between the minimum possible completion (`arrival +
    /// runtime`) and the deadline.
    pub fn slack(&self) -> SimDuration {
        self.deadline.since(self.arrival + self.runtime)
    }
}

/// Draw from `Exp(mean)` via inversion. `u` must be in `[0, 1)`.
fn exp_draw(mean: SimDuration, u: f64) -> SimDuration {
    mean.mul_f64(-(1.0 - u).ln())
}

/// Generate the seeded job workload for `cfg` over `[0, horizon)`.
///
/// Arrivals are a Poisson process truncated at `horizon / 2` (so every
/// job has at least half the horizon to finish); runtimes are
/// exponential clamped to `[`[`MIN_RUNTIME`]`, `[`MAX_RUNTIME`]`]`;
/// deadlines grant `runtime * slack_factor * u`, `u ~ U[0.5, 1.5]`, of
/// slack past the minimum completion time. Each random role gets its
/// own [`derive_seed`] stream, so e.g. changing `slack_factor` never
/// perturbs the arrival pattern. Jobs come out sorted by arrival.
pub fn generate_jobs(cfg: &JobsConfig, master_seed: u64, horizon: SimTime) -> Vec<JobSpec> {
    let mut arrivals_rng = ChaCha12Rng::seed_from_u64(derive_seed(master_seed, "jobs-arrivals", 0));
    let mut runtime_rng = ChaCha12Rng::seed_from_u64(derive_seed(master_seed, "jobs-runtimes", 0));
    let mut slack_rng = ChaCha12Rng::seed_from_u64(derive_seed(master_seed, "jobs-slack", 0));
    let mut ckpt_rng = ChaCha12Rng::seed_from_u64(derive_seed(master_seed, "jobs-ckptable", 0));

    let arrival_end = SimTime::ZERO + SimDuration::millis(horizon.as_millis() / 2);
    let mut jobs = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t += exp_draw(cfg.mean_interarrival, arrivals_rng.gen::<f64>());
        if t >= arrival_end {
            break;
        }
        let runtime = exp_draw(cfg.mean_runtime, runtime_rng.gen::<f64>())
            .max(MIN_RUNTIME)
            .min(MAX_RUNTIME);
        let u = 0.5 + slack_rng.gen::<f64>();
        let slack = runtime.mul_f64(cfg.slack_factor * u);
        let checkpointable = ckpt_rng.gen::<f64>() < CHECKPOINTABLE_FRACTION;
        jobs.push(JobSpec {
            arrival: t,
            runtime,
            deadline: t + runtime + slack,
            checkpointable,
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobPolicy;

    #[test]
    fn workload_is_deterministic_and_sorted() {
        let cfg = JobsConfig::new(JobPolicy::GreedySpot);
        let horizon = SimTime::ZERO + SimDuration::days(14);
        let a = generate_jobs(&cfg, 7, horizon);
        let b = generate_jobs(&cfg, 7, horizon);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for j in &a {
            assert!(j.runtime >= MIN_RUNTIME && j.runtime <= MAX_RUNTIME);
            assert!(j.deadline >= j.arrival + j.runtime);
            assert!(j.arrival.as_millis() < horizon.as_millis() / 2 + 1);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = JobsConfig::new(JobPolicy::GreedySpot);
        let horizon = SimTime::ZERO + SimDuration::days(14);
        assert_ne!(
            generate_jobs(&cfg, 1, horizon),
            generate_jobs(&cfg, 2, horizon)
        );
    }

    #[test]
    fn slack_factor_does_not_perturb_arrivals() {
        let base = JobsConfig::new(JobPolicy::GreedySpot);
        let mut wide = base.clone();
        wide.slack_factor = 3.0;
        let horizon = SimTime::ZERO + SimDuration::days(14);
        let a = generate_jobs(&base, 9, horizon);
        let b = generate_jobs(&wide, 9, horizon);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.runtime, y.runtime);
            assert!(y.deadline >= x.deadline);
        }
    }
}
