//! Deterministic discrete-event queue.
//!
//! Events fire in timestamp order; ties break by insertion order so that runs
//! are reproducible regardless of heap internals. That `(time, sequence)`
//! order is total, so it does not depend on which structure holds an event:
//! a binary heap takes anything, and a caller that knows a class of events is
//! scheduled in (nearly) increasing time gives the class a *lane* — a FIFO
//! deque whose push and pop are O(1).

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    at: Nanos,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
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

/// How many entries [`EventQueue::schedule_lane`] steps back over to keep a
/// lane sorted before it gives the event to the heap instead. Jitter of a few
/// packet spacings stays in the lane, and so does an event behind a few
/// stragglers (a straggler is *later* than the back: it is appended, and its
/// successors step over it); only behind a pile of them does an event cost
/// O(log n), as it would without lanes.
const LANE_WALK: usize = 8;

/// A time-ordered event queue with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Each lane is sorted by `(at, seq)`, earliest at the front.
    lanes: Vec<VecDeque<Entry<E>>>,
    next_seq: u64,
    lane_pops: u64,
    heap_fallbacks: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// A queue with no lanes: every event goes through the heap.
    pub fn new() -> Self {
        Self::with_lanes(0)
    }

    /// A queue with `lanes` FIFO lanes (indices `0..lanes`) beside the heap.
    pub fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            next_seq: 0,
            lane_pops: 0,
            heap_fallbacks: 0,
        }
    }

    /// Schedule `ev` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Nanos, ev: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, ev);
    }

    /// [`Self::schedule`] for an event of a class that is scheduled in
    /// (nearly) increasing time: same sequence number, same pop position,
    /// but held in lane `lane`. An `at` earlier than the lane's back is
    /// inserted where it sorts, up to [`LANE_WALK`] entries from the back;
    /// past that the event goes to the heap.
    ///
    /// # Panics
    /// If `lane` is not below the count given to [`Self::with_lanes`].
    pub fn schedule_lane(&mut self, lane: usize, at: Nanos, ev: E) {
        let seq = self.reserve_seq();
        let q = &mut self.lanes[lane];
        // `seq` is the largest handed out so far: among entries at the same
        // instant the new one sorts last, hence the strict comparison.
        let mut i = q.len();
        while i > 0 && q[i - 1].at > at {
            if q.len() - i == LANE_WALK {
                self.heap_fallbacks += 1;
                self.heap.push(Entry { at, seq, ev });
                return;
            }
            i -= 1;
        }
        if i == q.len() {
            q.push_back(Entry { at, seq, ev });
        } else {
            q.insert(i, Entry { at, seq, ev });
        }
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

    /// The structure holding the earliest pending event — `Some(lane)`, or
    /// `None` for the heap (or an empty queue) — and the event's key.
    fn earliest(&self) -> (Option<usize>, Option<(Nanos, u64)>) {
        let mut from = None;
        let mut best = self.heap.peek().map(Entry::key);
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(k) = lane.front().map(Entry::key) {
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                    from = Some(i);
                }
            }
        }
        (from, best)
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.earliest().1.map(|(at, _)| at)
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let e = match self.earliest().0 {
            Some(lane) => {
                self.lane_pops += 1;
                self.lanes[lane].pop_front()
            }
            None => self.heap.pop(),
        };
        e.map(|e| (e.at, e.ev))
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Drop every pending event; the lanes stay.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
    }

    /// Events popped from a lane so far (the rest came from the heap).
    pub fn lane_pops(&self) -> u64 {
        self.lane_pops
    }

    /// [`Self::schedule_lane`] calls so far that ended in the heap.
    pub fn heap_fallbacks(&self) -> u64 {
        self.heap_fallbacks
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
    fn lanes_and_heap_share_one_order() {
        let mut q = EventQueue::with_lanes(2);
        q.schedule_lane(0, 10, "lane0 a");
        q.schedule(10, "heap, same instant, later");
        q.schedule_lane(1, 5, "lane1");
        q.schedule_lane(0, 10, "lane0 b");
        q.schedule(7, "heap");
        assert_eq!((q.len(), q.peek_time()), (5, Some(5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            [
                "lane1",
                "heap",
                "lane0 a",
                "heap, same instant, later",
                "lane0 b"
            ]
        );
        assert_eq!((q.lane_pops(), q.heap_fallbacks()), (3, 0));
        assert!(q.is_empty());
    }

    #[test]
    fn late_lane_event_walks_back_then_falls_to_the_heap() {
        let mut q = EventQueue::with_lanes(1);
        for i in 0..20 {
            q.schedule_lane(0, 100 + i, i);
        }
        // Two places from the back: stays in the lane, after its equal.
        q.schedule_lane(0, 117, 117);
        assert_eq!(q.heap_fallbacks(), 0);
        // Earlier than the whole lane: the heap takes it.
        q.schedule_lane(0, 50, 50);
        assert_eq!(q.heap_fallbacks(), 1);
        assert_eq!((q.len(), q.peek_time()), (22, Some(50)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let mut expect: Vec<u64> = (0..20).collect();
        expect.insert(0, 50);
        expect.insert(19, 117);
        assert_eq!(order, expect);
        q.schedule_lane(0, 1, 1);
        q.schedule(2, 2);
        q.clear();
        assert_eq!((q.len(), q.pop()), (0, None));
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
