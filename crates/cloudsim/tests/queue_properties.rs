//! Property-based tests of the discrete-event queue: it must behave as a
//! stable sort by (time, insertion order) under any push/pop interleaving.

use proptest::prelude::*;
use spothost_cloudsim::EventQueue;
use spothost_market::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    #[test]
    fn pops_as_a_heap_keyed_by_time_and_push_index(
        ops in prop::collection::vec((0u64..4, prop::bool::ANY), 1..400)
    ) {
        // `(d, false)` pushes at the clock plus `d` ms, `(_, true)` pops.
        // The small range makes ties common, and a push never lands before
        // the clock (the last popped time), as in a simulation. The oracle
        // is a binary heap keyed by (time, push index).
        let mut q = EventQueue::new();
        let mut oracle = BinaryHeap::new();
        let mut now = 0u64;
        for (index, (d, is_pop)) in ops.into_iter().enumerate() {
            if is_pop {
                let want = oracle.pop().map(|Reverse((t, i))| (SimTime::millis(t), i));
                prop_assert_eq!(q.pop(), want);
                if let Some((t, _)) = want {
                    now = t.as_millis();
                }
            } else {
                q.push(SimTime::millis(now + d), index);
                oracle.push(Reverse((now + d, index)));
            }
            prop_assert_eq!(q.len(), oracle.len());
            let next = oracle.peek().map(|&Reverse((t, _))| SimTime::millis(t));
            prop_assert_eq!(q.peek_time(), next);
        }
    }

    #[test]
    fn drains_in_stable_time_order(times in prop::collection::vec(0u64..10_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::millis(t), i);
        }
        // Expected order: stable sort by time.
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        let mut drained = Vec::new();
        while let Some((t, i)) = q.pop() {
            drained.push((t.as_millis(), i));
        }
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn interleaved_push_pop_never_goes_backwards(
        ops in prop::collection::vec((0u64..10_000, prop::bool::ANY), 1..300)
    ) {
        // Mixed pushes and pops: each popped timestamp must be >= the last
        // popped timestamp IF every push that happened before the pop was
        // for a time >= that last popped time. We enforce the scheduler's
        // actual usage pattern: pushes are never in the past relative to
        // the last pop (events schedule future events).
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut pushed = 0usize;
        let mut popped = 0usize;
        for (t, is_pop) in ops {
            if is_pop {
                if let Some((at, _)) = q.pop() {
                    prop_assert!(at.as_millis() >= now, "time went backwards");
                    now = at.as_millis();
                    popped += 1;
                }
            } else {
                // Schedule in the future of the current clock.
                q.push(SimTime::millis(now + t), pushed);
                pushed += 1;
            }
        }
        prop_assert_eq!(q.len(), pushed - popped);
    }

    #[test]
    fn len_tracks_pushes_and_pops(n_push in 0usize..100, n_pop in 0usize..150) {
        let mut q = EventQueue::new();
        for i in 0..n_push {
            q.push(SimTime::millis(i as u64), i);
        }
        let mut actually_popped = 0;
        for _ in 0..n_pop {
            if q.pop().is_some() {
                actually_popped += 1;
            }
        }
        prop_assert_eq!(actually_popped, n_pop.min(n_push));
        prop_assert_eq!(q.len(), n_push - actually_popped);
        prop_assert_eq!(q.is_empty(), actually_popped == n_push);
    }
}
