//! The [`Recorder`] sink: a bounded in-memory ring buffer of timestamped
//! events, the reference sink that tests and benchmarks read a run's
//! stream from.

use crate::event::TelemetryEvent;
use crate::export;
use crate::sink::Sink;
use crate::TimedEvent;
use spothost_market::time::SimTime;
use std::collections::VecDeque;
use std::io::{self, Write};

/// Default ring-buffer capacity: plenty for a multi-month run (a stormy
/// 60-day single-market run emits a few thousand events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Records the event stream of one run.
///
/// The ring buffer keeps the **newest** `capacity` events; older ones are
/// dropped (and counted). A columnar store
/// (`spothost_eventstore::ColumnarStore`) keeps every event of a run of
/// any length.
#[derive(Debug)]
pub struct Recorder {
    events: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder keeping at most `capacity` events in memory.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Consume the recorder, returning the buffered events oldest first.
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.events.into()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write the buffered events as JSONL.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        export::write_jsonl(w, self.events.iter().map(|(at, ev)| (*at, ev)))
    }
}

impl Sink for Recorder {
    const ENABLED: bool = true;

    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SchedulerState;

    fn ev(n: u64) -> (SimTime, TelemetryEvent) {
        (
            SimTime::millis(n),
            TelemetryEvent::StateChange {
                state: SchedulerState::Active,
            },
        )
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_drops() {
        let mut r = Recorder::with_capacity(3);
        for n in 0..5 {
            let (at, e) = ev(n);
            r.emit(at, e);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.events().next().map(|(t, _)| t.as_millis());
        assert_eq!(first, Some(2));
        // The JSONL holds exactly the kept events.
        let mut out = Vec::new();
        r.write_jsonl(&mut out).expect("write to Vec");
        let want: String = r
            .events()
            .map(|(at, e)| crate::event_to_json(*at, e) + "\n")
            .collect();
        assert_eq!(String::from_utf8(out).expect("utf8"), want);
    }
}
