pub mod analyze;
pub mod chaos;
pub mod fleet_sim;
pub mod gen_traces;
pub mod jobs;
pub mod markets;
pub mod query;
pub mod simulate;
pub mod timeline;

use crate::args::Flag;

// Flags that several commands take, declared once.
pub const DAYS: Flag = Flag::value("days", "D", "simulated days");
pub const SEED: Flag = Flag::value("seed", "N", "seed; the same seed gives the same output");
pub const WIDTH: Flag = Flag::value("width", "COLS", "chart width in columns, 10 to 500");
pub const SCOPE: Flag = Flag::value("scope", "S", "all markets of zone:Z or of regions:Z1,Z2");
pub const POLICY: Flag = Flag::value(
    "policy",
    "P",
    "proactive, adaptive, reactive, pure-spot or on-demand",
);
pub const MECHANISM: Flag =
    Flag::value("mechanism", "M", "ckpt, ckpt-lr, ckpt-live or ckpt-lr-live");
pub const FAULT_RATE: Flag = Flag::value("fault-rate", "R", "fault injection rate R in [0, 1]");
pub const STORM_INTENSITY: Flag =
    Flag::value("storm-intensity", "X", "storm severity, 0 (none) to 1");
