//! # spothost-core
//!
//! The paper's primary contribution: a **cloud scheduler** that hosts an
//! always-on Internet service on cloud spot markets at a fraction of the
//! on-demand cost while keeping unavailability within an always-on SLO
//! (§3).
//!
//! The scheduler combines:
//!
//! * **Bidding policies** ([`policy`]): *reactive* (bid = on-demand price,
//!   transitions forced by revocation) and *proactive* (bid = 4x on-demand,
//!   voluntary planned migrations at billing boundaries), plus the paper's
//!   two baselines (*on-demand only*, *pure spot*).
//! * **Migration mechanisms** (from `spothost-virt`): bounded
//!   checkpointing, lazy restore and live migration, in the four
//!   combinations of Figure 7.
//! * **Market scopes** ([`strategy`]): a single spot market, all markets of
//!   one zone (Figure 8), or the markets of several zones (Figure 9),
//!   packing the service's nested VMs onto whichever server size currently
//!   offers the cheapest capacity.
//!
//! [`scheduler`] runs one configuration against a generated price history
//! as a discrete-event simulation; [`sim`] wraps Monte-Carlo sweeps over
//! seeds on rayon; [`report`] summarises cost, unavailability and
//! migration counts per run.
//!
//! ## Quick example
//!
//! ```
//! use spothost_core::prelude::*;
//! use spothost_market::prelude::*;
//!
//! let market = MarketId::new(Zone::UsEast1a, InstanceType::Small);
//! let cfg = SchedulerConfig::single_market(market)
//!     .with_policy(BiddingPolicy::proactive_default());
//! let report = run_one(&cfg, 42, SimDuration::days(30));
//! assert!(report.normalized_cost < 0.6, "spot hosting must beat on-demand");
//! assert!(report.unavailability < 0.01);
//! ```

// Library code must not unwrap: every remaining panic site is either an
// invariant with an explanatory expect/unreachable message or a documented
// constructor precondition (see DESIGN.md "Failure semantics").
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod accounting;
pub mod capacity;
pub mod config;
pub mod policy;
pub mod report;
pub mod scheduler;
pub mod sim;
pub mod strategy;

pub use accounting::Accounting;
pub use config::SchedulerConfig;
pub use policy::BiddingPolicy;
pub use report::RunReport;
pub use scheduler::{PlanError, RunPlan, SimRun, SimScratch};
pub use sim::{run_grid, run_many, run_one, run_one_recorded, AggregateReport};
pub use spothost_faults::{FaultConfig, StormConfig};
pub use spothost_telemetry as telemetry;
pub use strategy::MarketScope;

/// Convenient glob import.
pub mod prelude {
    pub use crate::accounting::Accounting;
    pub use crate::config::SchedulerConfig;
    pub use crate::policy::BiddingPolicy;
    pub use crate::report::RunReport;
    pub use crate::sim::{run_grid, run_many, run_one, run_one_recorded, AggregateReport};
    pub use crate::strategy::MarketScope;
    pub use spothost_faults::{FaultConfig, StormConfig};
    pub use spothost_telemetry::{Metrics, Recorder, TelemetryEvent};
    pub use spothost_virt::{MechanismCombo, ParamRegime};
}
