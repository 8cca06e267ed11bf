//! The statically-dispatched sink abstraction.
//!
//! The scheduler is generic over `S: Sink` and guards every emission with
//! `if S::ENABLED { ... }`. For [`NullSink`] that condition is a
//! compile-time `false`, so event construction and the `emit` call are
//! dead code and disappear entirely — the uninstrumented scheduler is the
//! same machine code it was before telemetry existed.

use crate::event::TelemetryEvent;
use spothost_market::time::SimTime;

/// Receives the structured event stream of one run.
pub trait Sink {
    /// Compile-time switch the instrumented code guards emissions with.
    /// `false` only for [`NullSink`] (and sinks wrapping it).
    const ENABLED: bool;

    /// Record one event emitted at simulation time `at`. Timestamps are
    /// monotone non-decreasing over a run.
    fn emit(&mut self, at: SimTime, event: TelemetryEvent);
}

/// The default sink: drops everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _at: SimTime, _event: TelemetryEvent) {}
}

/// Borrowed sinks forward, so a caller can keep ownership across a run:
/// `SimRun::new(..).with_sink(&mut recorder).run()`.
impl<S: Sink> Sink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        (**self).emit(at, event);
    }
}

/// Pair composition: fan one event stream out to two sinks (e.g. a
/// `Recorder` and a columnar store's sink in the same run).
impl<A: Sink, B: Sink> Sink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        if A::ENABLED {
            self.0.emit(at, event);
        }
        if B::ENABLED {
            self.1.emit(at, event);
        }
    }
}

/// Builds one sink per member of a group of runs — the hook fleet-scale
/// simulation uses to attach a tagged sink to every VM it spawns. The
/// factory is consulted once per spawn with the member's stable index
/// (spawn order), so a store can label each stream and later demultiplex
/// per-VM timelines.
///
/// The associated `Sink` type keeps the dispatch static: a fleet built
/// with [`NullSinkFactory`] monomorphizes to exactly the uninstrumented
/// code, preserving the zero-cost guarantee.
pub trait SinkFactory {
    /// The sink type every member receives.
    type Sink: Sink;

    /// Build the sink for member `idx` (stable spawn index, from 0).
    fn make(&mut self, idx: u32) -> Self::Sink;
}

/// The default factory: every member gets a [`NullSink`], and the whole
/// instrumentation layer compiles away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSinkFactory;

impl SinkFactory for NullSinkFactory {
    type Sink = NullSink;

    #[inline(always)]
    fn make(&mut self, _idx: u32) -> NullSink {
        NullSink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl Sink for Counter {
        const ENABLED: bool = true;
        fn emit(&mut self, _at: SimTime, _event: TelemetryEvent) {
            self.0 += 1;
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_sink_is_disabled() {
        assert!(!NullSink::ENABLED);
        assert!(!<&mut NullSink as Sink>::ENABLED);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn pair_fans_out_and_ors_enabled() {
        assert!(<(Counter, NullSink) as Sink>::ENABLED);
        assert!(!<(NullSink, NullSink) as Sink>::ENABLED);
        let mut pair = (Counter(0), Counter(0));
        let ev = TelemetryEvent::StateChange {
            state: crate::SchedulerState::Boot,
        };
        pair.emit(SimTime::ZERO, ev);
        pair.emit(SimTime::ZERO, ev);
        assert_eq!(pair.0 .0, 2);
        assert_eq!(pair.1 .0, 2);
    }

    #[test]
    fn borrowed_sink_forwards() {
        let mut c = Counter(0);
        {
            let mut borrowed = &mut c;
            <&mut Counter as Sink>::emit(
                &mut borrowed,
                SimTime::ZERO,
                TelemetryEvent::StateChange {
                    state: crate::SchedulerState::Active,
                },
            );
        }
        assert_eq!(c.0, 1);
    }
}
