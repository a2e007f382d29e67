//! Deterministic discrete-event queue.
//!
//! Events fire in timestamp order; ties break by insertion order so that runs
//! are reproducible regardless of where an event waits. That `(time,
//! sequence)` order is total, so it does not depend on which place holds an
//! event, and the queue has three kinds of place: a binary heap takes
//! anything; a caller that knows a class of events is scheduled in (nearly)
//! increasing time gives the class a *lane* — a FIFO deque whose push and pop
//! are O(1); and a source that never has two events pending (a link's
//! completion) gets a *slot* that holds one. Each place's earliest key is
//! cached, packed into one `u128` with the place's index, in a flat array
//! refreshed wherever the place changes, so a pop takes the minimum of that
//! array and reads no deque or heap to find its event.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    at: Nanos,
    seq: u64,
    ev: E,
}

/// Bits of a packed key below the sequence: the index of the place holding
/// the event.
const PLACE_BITS: u32 = 16;

/// `(at, seq)` of an event held in place `place`, as one integer whose order
/// is `(at, seq)`'s, lexicographic: sequences are unique, so the place in the
/// low bits never decides, and the minimum key names the place to pop.
fn pack(at: Nanos, seq: u64, place: usize) -> u128 {
    (u128::from(at) << 64) | u128::from(seq) << PLACE_BITS | place as u128
}

/// The cached key of an empty place: above every packed event, since the
/// sequence counter stays below `2^(64 - PLACE_BITS)`.
const EMPTY: u128 = u128::MAX;

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
    /// Each slot's event; its key lives in `fronts` only.
    slots: Vec<Option<E>>,
    /// The earliest key of every place, packed with the place: the heap top
    /// at 0, lane `l`'s front at `1 + l`, slot `s`'s event at
    /// `1 + lanes + s`; [`EMPTY`] for an empty place.
    fronts: Vec<u128>,
    next_seq: u64,
    /// Time of the last popped event: nothing is scheduled earlier.
    now: Nanos,
    lane_pops: u64,
    slot_pops: u64,
    heap_fallbacks: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// A queue with no lanes or slots: every event goes through the heap.
    pub fn new() -> Self {
        Self::with_lanes(0, 0)
    }

    /// A queue with `lanes` FIFO lanes (indices `0..lanes`) and `slots`
    /// single-event slots (indices `0..slots`) beside the heap.
    ///
    /// # Panics
    /// If there are `2^16` places or more, heap included.
    pub fn with_lanes(lanes: usize, slots: usize) -> Self {
        assert!(
            1 + lanes + slots < 1 << PLACE_BITS,
            "{lanes} lanes and {slots} slots"
        );
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            slots: (0..slots).map(|_| None).collect(),
            fronts: vec![EMPTY; 1 + lanes + slots],
            next_seq: 0,
            now: 0,
            lane_pops: 0,
            slot_pops: 0,
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
        self.assert_causal(at);
        let q = &mut self.lanes[lane];
        if q.back().is_none_or(|back| back.at <= at) {
            if q.is_empty() {
                self.fronts[1 + lane] = pack(at, seq, 1 + lane);
            }
            q.push_back(Entry { at, seq, ev });
            return;
        }
        // `seq` is the largest handed out so far: among entries at the same
        // instant the new one sorts last, hence the strict comparison.
        let mut i = q.len();
        while i > 0 && q[i - 1].at > at {
            if q.len() - i == LANE_WALK {
                self.heap_fallbacks += 1;
                self.push_heap(Entry { at, seq, ev });
                return;
            }
            i -= 1;
        }
        q.insert(i, Entry { at, seq, ev });
        if i == 0 {
            self.fronts[1 + lane] = pack(at, seq, 1 + lane);
        }
    }

    /// [`Self::schedule`] for the one pending event of a source that never
    /// has two: same sequence number, same pop position, but held in slot
    /// `slot` until it pops. [`Self::slot_time`] tells whether the slot is
    /// taken; scheduling into a taken slot is a bug in the caller (a debug
    /// assertion).
    ///
    /// # Panics
    /// If `slot` is not below the count given to [`Self::with_lanes`].
    pub fn schedule_slot(&mut self, slot: usize, at: Nanos, ev: E) {
        let seq = self.reserve_seq();
        self.assert_causal(at);
        let place = 1 + self.lanes.len() + slot;
        debug_assert!(
            self.fronts[place] == EMPTY,
            "slot {slot} already holds an event"
        );
        self.slots[slot] = Some(ev);
        self.fronts[place] = pack(at, seq, place);
    }

    /// Time of the event slot `slot` holds, if any.
    pub fn slot_time(&self, slot: usize) -> Option<Nanos> {
        let key = self.fronts[1 + self.lanes.len() + slot];
        (key != EMPTY).then_some((key >> 64) as Nanos)
    }

    /// Take the next insertion sequence without inserting anything: the
    /// tie-break position an event would get if it were scheduled now. A
    /// caller that may never need the event (a timer that is usually
    /// re-armed before it fires) reserves here and inserts later.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        debug_assert!(seq < 1 << (64 - PLACE_BITS), "sequence overflow");
        self.next_seq += 1;
        seq
    }

    /// Insert `ev` at `at` with a sequence from [`Self::reserve_seq`]: among
    /// events at the same instant it fires where it was reserved, not where
    /// it was inserted.
    pub fn schedule_reserved(&mut self, at: Nanos, seq: u64, ev: E) {
        self.assert_causal(at);
        self.push_heap(Entry { at, seq, ev });
    }

    /// Every place: no event is scheduled earlier than the last popped time,
    /// or it would pop out of time order.
    fn assert_causal(&self, at: Nanos) {
        debug_assert!(
            at >= self.now,
            "event scheduled at {at}, before the last popped time {}",
            self.now
        );
    }

    fn push_heap(&mut self, e: Entry<E>) {
        self.fronts[0] = self.fronts[0].min(pack(e.at, e.seq, 0));
        self.heap.push(e);
    }

    /// The packed key of the earliest pending event ([`EMPTY`] when there is
    /// none).
    fn earliest(&self) -> u128 {
        self.fronts.iter().fold(EMPTY, |best, &key| best.min(key))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        let key = self.earliest();
        (key != EMPTY).then_some((key >> 64) as Nanos)
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let key = self.earliest();
        if key == EMPTY {
            return None;
        }
        let at = (key >> 64) as Nanos;
        let place = (key as usize) & ((1 << PLACE_BITS) - 1);
        self.now = at;
        let lanes = self.lanes.len();
        let ev = if place == 0 {
            let e = self.heap.pop()?;
            self.fronts[0] = self.heap.peek().map_or(EMPTY, |e| pack(e.at, e.seq, 0));
            e.ev
        } else if place <= lanes {
            self.lane_pops += 1;
            let q = &mut self.lanes[place - 1];
            let e = q.pop_front()?;
            self.fronts[place] = q.front().map_or(EMPTY, |e| pack(e.at, e.seq, place));
            e.ev
        } else {
            self.slot_pops += 1;
            self.fronts[place] = EMPTY;
            self.slots[place - 1 - lanes].take()?
        };
        Some((at, ev))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
            + self.lanes.iter().map(VecDeque::len).sum::<usize>()
            + self.slots.iter().filter(|s| s.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.fronts.iter().all(|&key| key == EMPTY)
    }

    /// Drop every pending event; the lanes and slots stay.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.slots.iter_mut().for_each(|s| *s = None);
        self.fronts.fill(EMPTY);
    }

    /// Events popped from a lane so far.
    pub fn lane_pops(&self) -> u64 {
        self.lane_pops
    }

    /// Events popped from a slot so far (the rest came from the heap).
    pub fn slot_pops(&self) -> u64 {
        self.slot_pops
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
        let mut q = EventQueue::with_lanes(2, 0);
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
        let mut q = EventQueue::with_lanes(1, 0);
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
        q.schedule_lane(0, 120, 1);
        q.schedule(121, 2);
        q.clear();
        assert_eq!((q.len(), q.pop()), (0, None));
    }

    #[test]
    fn slots_share_the_order_and_hold_one_event() {
        let mut q = EventQueue::with_lanes(1, 2);
        q.schedule_slot(1, 10, "slot1");
        q.schedule_lane(0, 10, "lane, same instant, later");
        q.schedule_slot(0, 5, "slot0");
        q.schedule(7, "heap");
        assert_eq!((q.slot_time(0), q.slot_time(1)), (Some(5), Some(10)));
        assert_eq!((q.len(), q.peek_time()), (4, Some(5)));
        assert_eq!(q.pop(), Some((5, "slot0")));
        assert_eq!(q.slot_time(0), None);
        // A popped slot takes the next event, in the order of its sequence.
        q.schedule_slot(0, 10, "slot0 again");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            ["heap", "slot1", "lane, same instant, later", "slot0 again"]
        );
        assert_eq!((q.lane_pops(), q.slot_pops(), q.len()), (1, 3, 0));
        assert!(q.is_empty());
    }

    /// No place takes an event earlier than the last popped time.
    #[test]
    #[cfg(debug_assertions)]
    fn scheduling_into_the_past_fails_in_every_place() {
        let ways: [fn(&mut EventQueue<()>); 4] = [
            |q| q.schedule(9, ()),
            |q| q.schedule_lane(0, 9, ()),
            |q| {
                let seq = q.reserve_seq();
                q.schedule_reserved(9, seq, ());
            },
            |q| q.schedule_slot(0, 9, ()),
        ];
        for (i, schedule) in ways.into_iter().enumerate() {
            let mut q = EventQueue::with_lanes(1, 1);
            q.schedule(10, ());
            q.pop();
            let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| schedule(&mut q)));
            assert!(late.is_err(), "way {i} scheduled into the past");
        }
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
