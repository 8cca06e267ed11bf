//! # spothost-cloudsim
//!
//! A discrete-event simulator of a 2015-era infrastructure cloud (EC2), the
//! substrate on which the `spothost` scheduler runs. It reproduces the
//! provider-side semantics the paper relies on (§2.1):
//!
//! * **Two purchase modes** — non-revocable on-demand servers at a fixed
//!   hourly price, and revocable spot servers acquired by naming a maximum
//!   *bid* price.
//! * **Revocation** — the moment the spot price exceeds the bid, the server
//!   is marked for termination, with a two-minute grace window in which the
//!   guest may save state and shut down gracefully.
//! * **Hourly billing** — spot instance-hours are charged at the spot price
//!   in effect at the *start* of each instance-hour; a partial final hour is
//!   free when the provider revokes the server but charged in full when the
//!   customer terminates voluntarily. On-demand hours round up.
//! * **Allocation latency** — measured mean start-up times from the paper's
//!   Table 1 (~1.5 min on-demand, 3.5–4.5 min spot), with sampling jitter.
//! * **Network volumes** — EBS-style storage that survives revocation and
//!   re-attaches to replacement servers.

// Library code must not unwrap: every remaining panic site is either an
// invariant with an explanatory expect message or a documented
// precondition (see DESIGN.md "Failure semantics").
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod billing;
pub mod event;
pub mod instance;
pub mod provider;
pub mod startup;
pub mod volume;

pub use billing::{on_demand_lease_charge, spot_lease_charge};
pub use event::EventQueue;
pub use instance::{Instance, InstanceId, InstanceKind, InstanceState, TerminationReason};
pub use provider::{CloudProvider, RequestError, RevocationSchedule};
pub use startup::StartupModel;
pub use volume::{NetworkVolume, VolumeError, VolumeId, VolumePool};

/// Re-export the shared clock so downstream crates need a single import.
pub use spothost_market::time::{SimDuration, SimTime};

/// The grace window a revoked spot server receives before forced
/// termination. The paper (§2.1) reports this as an initially undocumented,
/// later official, two-minute warning.
pub const REVOCATION_GRACE: SimDuration = SimDuration(120 * 1000);
