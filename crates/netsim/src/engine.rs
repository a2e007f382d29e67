//! Deterministic discrete-event queue.
//!
//! Events fire in timestamp order; ties break by insertion order so that runs
//! are reproducible regardless of heap internals.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: Nanos,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `ev` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Nanos, ev: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, ev);
    }

    /// Take the next insertion sequence without inserting anything: the
    /// tie-break position an event would get if it were scheduled now. A
    /// caller that may never need the event (a timer that is usually
    /// re-armed before it fires) reserves here and inserts later.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Insert `ev` at `at` with a sequence from [`Self::reserve_seq`]: among
    /// events at the same instant it fires where it was reserved, not where
    /// it was inserted. `at` must not be earlier than the last popped time.
    pub fn schedule_reserved(&mut self, at: Nanos, seq: u64, ev: E) {
        self.heap.push(Entry { at, seq, ev });
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|e| (e.at, e.ev))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn reserved_sequence_fires_where_it_was_reserved() {
        let mut q = EventQueue::new();
        q.schedule(5, "first");
        let seq = q.reserve_seq();
        q.schedule(5, "third");
        q.schedule(4, "earlier");
        q.schedule_reserved(5, seq, "second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["earlier", "first", "second", "third"]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(42, ());
        assert_eq!(q.peek_time(), Some(42));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
