//! # spothost-workload
//!
//! Workload-side models for the paper's §6 system-performance study:
//!
//! * [`mva`] — an exact Mean-Value-Analysis solver for closed queueing
//!   networks (the textbook model of a fixed population of emulated
//!   browsers cycling through think time and server stations).
//! * [`tpcw`] — the TPC-W ordering-mix e-commerce benchmark expressed as a
//!   two-station (CPU + I/O) closed network, with the nested-VM penalties
//!   measured in §6 (≈2% disk, load-dependent CPU up to 50%).
//! * [`response`] — Figure 12's response-time-vs-EBs curves for native and
//!   nested platforms under both configurations (images served locally vs
//!   offloaded to a CDN).
//! * [`iobench`] — the Table 4 iperf/dd microbenchmark model.
//! * [`slo`] — availability arithmetic ("four nines", downtime budgets).
//! * [`traffic`] — the fleet simulator's demand curve: a deterministic
//!   diurnal baseline plus a seeded flash-crowd process, feeding the
//!   fleet-level MVA aggregation ([`mva::fleet_response`]) that closes
//!   the autoscaler's load → latency → SLO loop.

// Library code must not unwrap (see DESIGN.md "Failure semantics").
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod iobench;
pub mod mva;
pub mod response;
pub mod slo;
pub mod tpcw;
pub mod traffic;

pub use iobench::{simulate_iobench, IoBenchRow};
pub use mva::{
    capacity_at_utilization, fleet_response, ClosedNetwork, FleetLoad, MvaPoint, MvaResult,
    MvaTable, Station,
};
pub use response::{response_curve, ResponsePoint};
pub use slo::{downtime_per_month, max_unavailability_for_nines, meets_nines};
pub use tpcw::{tpcw_network, NestedPenalties, Platform, TpcwConfig};
pub use traffic::{TrafficConfig, TrafficModel};
