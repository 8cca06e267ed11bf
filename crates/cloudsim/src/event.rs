//! A generic discrete-event queue.
//!
//! A vector kept sorted latest-first, so the earliest event is the last
//! entry. A simulation run holds only a few pending events at a time, and
//! the event it pushes is usually the earliest, so most pushes are an
//! append and every pop is a `Vec::pop`. Events at equal timestamps pop in
//! push order (FIFO), which keeps whole simulations bit-for-bit
//! reproducible across runs and platforms.

use spothost_market::time::SimTime;

/// A deterministic discrete-event queue.
///
/// Events are not cancellable; consumers that need cancellation attach a
/// generation counter to their event payloads and drop stale events on pop
/// (see `spothost-core`'s scheduler). This keeps the queue trivially
/// correct: a push costs a binary search and a shift of the events due
/// before it, a pop O(1).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events, latest first.
    events: Vec<(SimTime, E)>,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue { events: Vec::new() }
    }

    /// Schedule `event` at `at`. Events pushed with equal timestamps pop in
    /// push order: a push lands after every later event and before every
    /// event pending at the same time.
    pub fn push(&mut self, at: SimTime, event: E) {
        let i = self.events.partition_point(|&(t, _)| t > at);
        self.events.insert(i, (at, event));
        debug_assert!(
            self.events.windows(2).all(|w| w[0].0 >= w[1].0),
            "event queue out of order after a push at {at:?}"
        );
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.events.pop()
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.last().map(|&(t, _)| t)
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop every pending event, keeping the allocation. The order of
    /// later pops depends only on the events pushed since, so a cleared
    /// queue behaves bit-identically to a freshly constructed one, which
    /// lets scratch state be reused across simulation runs.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(30), "c");
        q.push(SimTime::secs(10), "a");
        q.push(SimTime::secs(20), "b");
        assert_eq!(q.pop(), Some((SimTime::secs(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::secs(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::secs(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_behaves_like_fresh() {
        let mut q = EventQueue::new();
        let t = SimTime::secs(1);
        q.push(t, 1);
        q.push(t, 2);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        // Ties after a clear pop in push order, exactly as on a fresh
        // queue.
        let mut fresh = EventQueue::new();
        for i in 0..5 {
            q.push(t, i);
            fresh.push(t, i);
        }
        for _ in 0..5 {
            assert_eq!(q.pop(), fresh.pop());
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(10), 10);
        q.push(SimTime::secs(5), 5);
        assert_eq!(q.pop(), Some((SimTime::secs(5), 5)));
        q.push(SimTime::secs(7), 7);
        q.push(SimTime::secs(3), 3);
        assert_eq!(q.pop(), Some((SimTime::secs(3), 3)));
        assert_eq!(q.pop(), Some((SimTime::secs(7), 7)));
        assert_eq!(q.pop(), Some((SimTime::secs(10), 10)));
    }
}
