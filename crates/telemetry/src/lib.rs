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
//! Three sinks cover the use cases:
//!
//! * [`NullSink`] — the default. `ENABLED = false` and an empty inline
//!   `emit` let the compiler delete every emission site, so an
//!   uninstrumented run is bit-identical to (and as fast as) a build
//!   without telemetry at all.
//! * [`Recorder`] — a bounded ring buffer of timestamped events with
//!   JSONL export ([`export`]) and an optional streaming writer for
//!   timelines longer than the buffer.
//! * [`Metrics`] — fixed-bucket histograms
//!   ([`spothost_analysis::FixedHistogram`]) over the event stream:
//!   downtime durations, migration latencies, lease lengths,
//!   time-to-reacquire, per-hour lease cost.
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
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod timeline;

pub use event::{DenialReason, MigrationPhase, SchedulerState, TelemetryEvent};
pub use export::event_to_json;
pub use metrics::Metrics;
pub use recorder::Recorder;
pub use sink::{NullSink, NullSinkFactory, Sink, SinkFactory};
pub use spothost_faults::FaultKind;
pub use timeline::render_timeline;

/// One recorded event: when it was emitted, and what happened.
pub type TimedEvent = (spothost_market::time::SimTime, TelemetryEvent);
