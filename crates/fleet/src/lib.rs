//! # spothost-fleet
//!
//! An autoscaled service fleet on spot markets: a reactive autoscaler
//! grows and shrinks a fleet of per-VM `spothost-core` schedulers against
//! a diurnal + flash-crowd demand curve, closing the loop with the
//! fleet-level MVA model (`spothost_workload::mva::fleet_response`). Every
//! VM bids, migrates and suffers faults and storms through the ordinary
//! scheduler machinery, on one shared clock and one shared price history.
//! See the [`sim`] module for the model and its determinism contract.

// Library code must not unwrap (see DESIGN.md "Failure semantics").
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod sim;

pub use sim::{
    run_fleet_sim, run_fleet_sim_with, FleetSample, FleetSim, FleetSimConfig, FleetSimReport,
};
