//! Event queue with stable ordering.
//!
//! A priority queue of `(instant, sequence)`-ordered entries. Instants
//! are simulated seconds, ordered by `f64::total_cmp` (so `-0.0` pops
//! before `0.0`), and entries at equal instants pop in scheduling order
//! (FIFO), which keeps a simulation deterministic regardless of heap
//! internals.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

/// A time-ordered, FIFO-stable event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at instant `time`, in seconds.
    ///
    /// # Panics
    /// Panics if `time` is NaN.
    pub fn schedule(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "an event instant cannot be NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Pops the earliest event (the first scheduled among equal
    /// instants).
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap
            .pop()
            .map(|Reverse(entry)| (entry.time, entry.payload))
    }
}

impl<T> Default for EventQueue<T> {
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
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        assert_eq!(q.pop().map(|e| e.1), Some(1));
        assert_eq!(q.pop().map(|e| e.1), Some(2));
        assert_eq!(q.pop().map(|e| e.1), Some(3));
    }

    #[test]
    fn negative_zero_pops_before_zero() {
        let mut q = EventQueue::new();
        q.schedule(0.0, "positive");
        q.schedule(-0.0, "negative");
        let (t, first) = q.pop().unwrap();
        assert_eq!((t.to_bits(), first), ((-0.0f64).to_bits(), "negative"));
        assert_eq!(q.pop().map(|e| e.1), Some("positive"));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_instants_are_refused() {
        EventQueue::new().schedule(f64::NAN, ());
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// Pop order equals a stable sort of the instants under
            /// `total_cmp`, on instants drawn from both zeros, two shared
            /// values (equal instants) and uniform draws.
            #[test]
            fn prop_pop_order_is_stable_time_order(
                steps in proptest::collection::vec((0usize..5, 0.0f64..100.0), 1..40),
            ) {
                let times: Vec<f64> = steps
                    .iter()
                    .map(|&(kind, x)| match kind {
                        0 => 0.0,
                        1 => -0.0,
                        2 => [1.0, 2.5][x as usize % 2],
                        _ => x,
                    })
                    .collect();
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(t, i);
                }
                let mut expected: Vec<(u64, usize)> =
                    times.iter().map(|t| t.to_bits()).zip(0..).collect();
                expected.sort_by(|a, b| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)));
                let mut got = Vec::new();
                while let Some((t, i)) = q.pop() {
                    got.push((t.to_bits(), i));
                }
                prop_assert_eq!(got, expected);
            }
        }
    }
}
