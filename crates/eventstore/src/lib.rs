//! # spothost-eventstore
//!
//! Columnar telemetry storage, an aggregation query layer, and Perfetto
//! export for fleet-scale `spothost` runs.
//!
//! A JSONL trace (`spothost_telemetry::export`) spends ~100 bytes of
//! repeated key names per event, which melts at fleet scale: a 50-VM,
//! 60-day fleet simulation emits millions of events. This crate stores
//! the same stream losslessly in roughly an order of magnitude less
//! space, and — more importantly — answers aggregate questions (p99
//! time-to-reacquire by zone, cost sums by market) *without decoding most
//! of the file*. It is the one recording of a CLI or `repro --trace` run:
//! their JSONL traces, summaries and timelines decode it.
//!
//! ## Architecture
//!
//! ```text
//!  SimRun/FleetSim --Sink--> ColumnarSink --seal--> ColumnarStore --> .col file
//!                                                        |
//!  ColReader::open <-------------------------------------+
//!      |-- select(Predicate)  block pruning via header zone maps
//!      |-- Query aggregations  counts / sums / histograms / percentiles
//!      `-- perfetto::to_perfetto_json  chrome://tracing / ui.perfetto.dev
//! ```
//!
//! * [`ColumnarStore`] owns the output (file or memory) and hands out
//!   per-VM [`ColumnarSink`]s; each sink buffers events and seals them
//!   into struct-of-arrays blocks ([`block`]) of ~4096 events.
//! * Every block header carries min/max time plus kind/market/zone
//!   bitmaps, so [`ColReader::select`] can skip whole blocks that cannot
//!   match a [`Predicate`] — the [`Selection`] reports how many blocks
//!   were actually decoded.
//! * [`query`] computes aggregations over a selection, reusing
//!   `spothost-analysis` percentile/histogram machinery so CLI numbers
//!   match report numbers bit for bit.
//! * [`perfetto`] renders a selection as a Chrome-trace JSON file, one
//!   process per VM with lease / service / migration tracks.
//!
//! The encoding is lossless: decode ∘ encode is the identity on the
//! event stream, with `f64` fields preserved `to_bits`-exact (NaN
//! included). Property tests in `tests/columnar_properties.rs` hold this
//! line.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod block;
pub mod perfetto;
pub mod query;
pub mod read;
pub mod schema;
pub mod store;
mod varint;

pub use block::BlockMeta;
pub use query::{Field, GroupBy, Predicate};
pub use read::{ColReader, Selection, StoredEvent};
pub use schema::EventKind;
pub use store::{ColumnarSink, ColumnarStore, DEFAULT_BLOCK_EVENTS, MAGIC};

/// Errors from decoding a columnar file.
#[derive(Debug)]
pub enum ColError {
    /// The input ended mid-structure.
    Truncated,
    /// The input is structurally invalid; the message names the field.
    Corrupt(&'static str),
    /// The file does not start with the `SPOTCOL1` magic.
    BadMagic,
    /// An underlying I/O error (opening or reading the file).
    Io(std::io::Error),
}

impl std::fmt::Display for ColError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColError::Truncated => write!(f, "columnar input truncated"),
            ColError::Corrupt(what) => write!(f, "columnar input corrupt: {what}"),
            ColError::BadMagic => write!(f, "not a spothost columnar file (bad magic)"),
            ColError::Io(e) => write!(f, "columnar i/o error: {e}"),
        }
    }
}

impl std::error::Error for ColError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ColError {
    fn from(e: std::io::Error) -> Self {
        ColError::Io(e)
    }
}
