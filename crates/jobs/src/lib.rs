//! Deadline batch-job scheduling on spot markets.
//!
//! The paper hosts *interactive* services on spot servers; this crate
//! asks the complementary question for *batch* work (the Voorsluys &
//! Buyya regime): given jobs with runtimes and deadlines, what does a
//! unit of finished work cost on the spot market, and what does it take
//! to stop revocations from turning into deadline misses?
//!
//! Three policies form a ladder:
//!
//! - [`JobPolicy::GreedySpot`] — cheapest bid, restart from scratch on
//!   revocation. The price floor, and the miss-rate ceiling.
//! - [`JobPolicy::CheckpointSpot`] — periodic durable checkpoints with
//!   the interval set by Young's formula from the forecaster's
//!   predicted revocation risk; warned revocations flush a final
//!   bounded increment (the Yank mechanism from `spothost-virt`).
//! - [`JobPolicy::OnDemandFallback`] — escalate a job to an on-demand
//!   server once its deadline slack no longer covers the predicted
//!   restart loss.
//!
//! Everything reuses the existing stack: arena-backed calibrated price
//! traces (`spothost-market`), every lease requested, revoked and billed
//! through the service scheduler's provider (`spothost-cloudsim`), bid
//! selection (`spothost-core`'s `BiddingPolicy` plus the
//! `spothost-forecast` risk model), fault and storm injection and the
//! backoff ladder (`spothost-faults`), checkpoint cost models
//! (`spothost-virt`), and the telemetry event schema
//! (`spothost-telemetry`).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod config;
pub mod report;
pub mod sim;
pub mod workload;

pub use config::{JobPolicy, JobsConfig};
pub use report::JobsReport;
pub use sim::{
    run_jobs, run_jobs_on, run_jobs_with, try_run_jobs_on, JobOutcome, JobsError, JobsRunResult,
    JobsScratch, DEFAULT_HORIZON,
};
pub use workload::{generate_jobs, JobSpec};
