//! Hashed timer wheel over monitor ticks.
//!
//! Each admitted flow is scheduled at the tick its next action is due; all
//! flows expiring on the same tick come back as one batch. Near-term timers
//! live in modulo buckets (one `Vec` per tick slot within the horizon),
//! long-interval timers park in an ordered overflow map until their due
//! tick enters the horizon. No hash maps: bucket contents keep insertion
//! order and the expire result is sorted, so the due list is deterministic.

use crate::table::FlowKey;
use std::collections::BTreeMap;

pub struct TimerWheel {
    /// Horizon: timers within `size` ticks of `now` sit in buckets.
    size: u64,
    /// `(due_tick, slot, key, gen)` — the due tick disambiguates entries
    /// that share a bucket across wheel revolutions; the admission
    /// generation (`FlowEntry::gen`) lets the runtime drop timers armed by
    /// an earlier occupant of a reused `(slot, key)` pair.
    buckets: Vec<Vec<(u64, usize, FlowKey, u64)>>,
    overflow: BTreeMap<u64, Vec<(usize, FlowKey, u64)>>,
    now: u64,
}

impl TimerWheel {
    pub fn new(size: usize) -> Self {
        assert!(size >= 2, "wheel needs at least two buckets");
        TimerWheel {
            size: size as u64,
            buckets: (0..size).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            now: 0,
        }
    }

    /// Count of scheduled timers (buckets + overflow).
    pub fn pending(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum::<usize>()
            + self.overflow.values().map(Vec::len).sum::<usize>()
    }

    /// Schedule `(slot, key, gen)` at `due_tick` (clamped to the current
    /// tick — the past is served on the next expire).
    pub fn schedule(&mut self, due_tick: u64, slot: usize, key: FlowKey, gen: u64) {
        let due = due_tick.max(self.now);
        if due < self.now + self.size {
            self.buckets[(due % self.size) as usize].push((due, slot, key, gen));
        } else {
            self.overflow.entry(due).or_default().push((slot, key, gen));
        }
    }

    /// Advance the wheel to `now_tick` (inclusive) and return every timer
    /// that came due, sorted by slot — i.e. in flow-table slab order.
    pub fn expire(&mut self, now_tick: u64) -> Vec<(usize, FlowKey, u64)> {
        let now_tick = now_tick.max(self.now);
        let mut due = Vec::new();
        while self.now <= now_tick {
            let t = self.now;
            let b = (t % self.size) as usize;
            let bucket = std::mem::take(&mut self.buckets[b]);
            for (d, slot, key, gen) in bucket {
                if d <= t {
                    due.push((slot, key, gen));
                } else {
                    self.buckets[b].push((d, slot, key, gen));
                }
            }
            // Promote overflow timers whose due tick entered the horizon
            // (or passed entirely, if the wheel jumped several ticks).
            let horizon = t + self.size;
            let promote: Vec<u64> = self.overflow.range(..horizon).map(|(&d, _)| d).collect();
            for d in promote {
                for (slot, key, gen) in self.overflow.remove(&d).unwrap_or_default() {
                    if d <= t {
                        due.push((slot, key, gen));
                    } else {
                        self.buckets[(d % self.size) as usize].push((d, slot, key, gen));
                    }
                }
            }
            if t == now_tick {
                break;
            }
            self.now = t + 1;
        }
        self.now = now_tick;
        due.sort_unstable();
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_the_scheduled_tick_in_slot_order() {
        let mut w = TimerWheel::new(8);
        w.schedule(3, 5, 105, 0);
        w.schedule(3, 1, 101, 0);
        w.schedule(4, 2, 102, 0);
        assert!(w.expire(2).is_empty());
        assert_eq!(w.expire(3), vec![(1, 101, 0), (5, 105, 0)]);
        assert_eq!(w.expire(4), vec![(2, 102, 0)]);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn long_timers_park_in_overflow_and_still_fire() {
        let mut w = TimerWheel::new(4);
        w.schedule(100, 0, 1, 0);
        w.schedule(2, 1, 2, 0);
        assert_eq!(w.pending(), 2);
        assert_eq!(w.expire(2), vec![(1, 2, 0)]);
        assert!(w.expire(99).is_empty());
        assert_eq!(w.expire(100), vec![(0, 1, 0)]);
    }

    #[test]
    fn jumping_many_ticks_collects_everything_due() {
        let mut w = TimerWheel::new(4);
        for t in 1..=20u64 {
            w.schedule(t, t as usize, t, 0);
        }
        let fired = w.expire(20);
        assert_eq!(fired.len(), 20);
        assert!(fired.windows(2).all(|p| p[0].0 < p[1].0));
    }

    #[test]
    fn past_due_schedules_fire_on_the_next_expire() {
        let mut w = TimerWheel::new(8);
        w.expire(10);
        w.schedule(3, 0, 7, 0); // already past: clamped to now
        assert_eq!(w.expire(10), vec![(0, 7, 0)]);
    }

    #[test]
    fn bucket_collisions_across_revolutions_do_not_fire_early() {
        let mut w = TimerWheel::new(4);
        w.schedule(1, 0, 1, 0);
        w.schedule(5, 1, 2, 0); // same bucket (5 % 4 == 1), one revolution later
        assert_eq!(w.expire(1), vec![(0, 1, 0)]);
        assert!(w.expire(4).is_empty());
        assert_eq!(w.expire(5), vec![(1, 2, 0)]);
    }

    #[test]
    fn generation_tags_survive_bucket_and_overflow_paths() {
        let mut w = TimerWheel::new(4);
        w.schedule(2, 0, 9, 3);
        w.schedule(50, 0, 9, 4); // overflow path
        assert_eq!(w.expire(2), vec![(0, 9, 3)]);
        assert_eq!(w.expire(50), vec![(0, 9, 4)]);
    }
}
