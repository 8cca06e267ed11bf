//! # spothost-telemetry
//!
//! Structured event tracing for the spothost simulation stack.
//!
//! The scheduler (`spothost-core`) is generic over a [`Sink`] and emits a
//! typed [`TelemetryEvent`] at every interesting moment of a run: bid
//! placements, lease grants/denials, price-segment crossings, revocation
//! warnings and unwarned deaths, migration phases, outage and degraded
//! intervals, billing settlements (lease closures carrying their exact
//! charge), fault injections, backoff attempts, and state-machine
//! transitions.
//!
//! Two sinks live here:
//!
//! * [`NullSink`] — the default. `ENABLED = false` and an empty inline
//!   `emit` let the compiler delete every emission site, so an
//!   uninstrumented run is bit-identical to (and as fast as) a build
//!   without telemetry at all.
//! * [`Recorder`] — a bounded in-memory ring buffer of timestamped
//!   events, the reference sink tests and benchmarks read a stream from.
//!
//! The CLI and `repro --trace` record a run into `spothost-eventstore`'s
//! columnar store, which keeps every event; their JSONL traces
//! ([`export::write_jsonl`]), summaries and timelines are views of it.
//!
//! Two guarantees the rest of the workspace depends on (see DESIGN.md
//! "Observability"):
//!
//! * **Determinism** — emission is a pure function of the run; the event
//!   stream for `(config, seed)` is identical across processes, and
//!   timestamps are monotone non-decreasing.
//! * **Exact replay** — summing the `cost` fields of `lease_closed`
//!   events in stream order reproduces the run's total cost *bit for
//!   bit* (same f64 additions in the same order), and summing
//!   `outage` interval lengths reproduces the run's downtime exactly
//!   (integer milliseconds).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod event;
pub mod export;
pub mod recorder;
pub mod sink;
pub mod timeline;

pub use event::{DenialReason, EventKind, MigrationPhase, SchedulerState, TelemetryEvent};
pub use export::event_to_json;
pub use recorder::Recorder;
pub use sink::{NullSink, NullSinkFactory, Sink, SinkFactory};
pub use spothost_faults::FaultKind;
pub use timeline::render_timeline;

/// One recorded event: when it was emitted, and what happened.
pub type TimedEvent = (spothost_market::time::SimTime, TelemetryEvent);
