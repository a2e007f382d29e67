//! Active Queue Management schemes used in the Fig. 23 robustness experiment:
//! tail drop, head drop, CoDel, PIE, and a BoDe-style bounded-delay policy.

use crate::packet::Packet;
use crate::time::{Nanos, MILLIS, SECONDS};
use sage_util::Rng;

/// Snapshot of the bottleneck queue the AQM can inspect.
#[derive(Debug, Clone, Copy)]
pub struct QueueView {
    /// Bytes currently queued (not counting the packet under decision).
    pub bytes: u64,
    /// Packets currently queued.
    pub packets: usize,
    /// Configured byte capacity of the buffer.
    pub capacity_bytes: u64,
    /// Current link rate, bits per second (for delay estimation).
    pub link_bps: f64,
}

impl QueueView {
    /// Estimated queuing delay if a packet were appended now.
    pub fn est_delay(&self) -> Nanos {
        if self.link_bps <= 0.0 {
            return Nanos::MAX;
        }
        ((self.bytes as f64 * 8.0) / self.link_bps * SECONDS as f64) as Nanos
    }
}

/// Decision on an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueVerdict {
    /// Append the packet to the tail.
    Accept,
    /// Drop the arriving packet.
    DropTail,
    /// Accept the arriving packet but evict the packet at the head
    /// (head-drop policy).
    DropHead,
}

/// Decision on a departing packet (CoDel drops at dequeue time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueVerdict {
    Deliver,
    Drop,
}

/// An active queue management policy.
///
/// Buffer-capacity enforcement is split between the queue (which refuses
/// physically impossible enqueues) and the policy (which may drop earlier).
pub trait Aqm: Send {
    fn name(&self) -> &'static str;

    /// Called for every arriving packet *before* it is appended.
    fn on_enqueue(&mut self, now: Nanos, q: &QueueView, pkt: &Packet) -> EnqueueVerdict;

    /// Called for every departing packet; `sojourn` is its queuing delay.
    /// Only a policy whose [`Aqm::acts_on_dequeue`] is true is called.
    fn on_dequeue(&mut self, _now: Nanos, _sojourn: Nanos, _pkt: &Packet) -> DequeueVerdict {
        DequeueVerdict::Deliver
    }

    /// Whether [`Aqm::on_dequeue`] can do anything but deliver: a policy
    /// that overrides it says so, and a queue skips the call otherwise.
    fn acts_on_dequeue(&self) -> bool {
        false
    }
}

/// Classic tail-drop FIFO: drop arrivals once the buffer is full.
#[derive(Debug, Default)]
pub struct TailDrop;

impl Aqm for TailDrop {
    fn name(&self) -> &'static str {
        "TDrop"
    }
    fn on_enqueue(&mut self, _now: Nanos, q: &QueueView, pkt: &Packet) -> EnqueueVerdict {
        if q.bytes + pkt.bytes as u64 > q.capacity_bytes {
            EnqueueVerdict::DropTail
        } else {
            EnqueueVerdict::Accept
        }
    }
}

/// Head-drop FIFO: on overflow, evict the oldest packet and accept the new one
/// (fresher information reaches the receiver sooner; used by some cellular
/// gear and as an AQM variant in Fig. 23).
#[derive(Debug, Default)]
pub struct HeadDrop;

impl Aqm for HeadDrop {
    fn name(&self) -> &'static str {
        "HDrop"
    }
    fn on_enqueue(&mut self, _now: Nanos, q: &QueueView, pkt: &Packet) -> EnqueueVerdict {
        if q.bytes + pkt.bytes as u64 > q.capacity_bytes {
            EnqueueVerdict::DropHead
        } else {
            EnqueueVerdict::Accept
        }
    }
}

/// CoDel (Controlling Queue Delay, Nichols & Jacobson 2012), drop-at-dequeue.
#[derive(Debug)]
pub struct CoDel {
    target: Nanos,
    interval: Nanos,
    first_above_time: Option<Nanos>,
    dropping: bool,
    drop_next: Nanos,
    drop_count: u32,
}

impl Default for CoDel {
    fn default() -> Self {
        CoDel {
            target: 5 * MILLIS,
            interval: 100 * MILLIS,
            first_above_time: None,
            dropping: false,
            drop_next: 0,
            drop_count: 0,
        }
    }
}

impl CoDel {
    fn control_law(&self, t: Nanos) -> Nanos {
        t + (self.interval as f64 / (self.drop_count.max(1) as f64).sqrt()) as Nanos
    }
}

impl Aqm for CoDel {
    fn name(&self) -> &'static str {
        "CoDel"
    }

    fn on_enqueue(&mut self, _now: Nanos, q: &QueueView, pkt: &Packet) -> EnqueueVerdict {
        // CoDel still needs a physical buffer bound.
        if q.bytes + pkt.bytes as u64 > q.capacity_bytes {
            EnqueueVerdict::DropTail
        } else {
            EnqueueVerdict::Accept
        }
    }

    fn acts_on_dequeue(&self) -> bool {
        true
    }

    fn on_dequeue(&mut self, now: Nanos, sojourn: Nanos, _pkt: &Packet) -> DequeueVerdict {
        if sojourn < self.target {
            self.first_above_time = None;
            self.dropping = false;
            return DequeueVerdict::Deliver;
        }
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now + self.interval);
                DequeueVerdict::Deliver
            }
            Some(fat) => {
                if !self.dropping {
                    if now >= fat {
                        self.dropping = true;
                        self.drop_count = if self.drop_count > 2 {
                            self.drop_count - 2
                        } else {
                            1
                        };
                        self.drop_next = self.control_law(now);
                        return DequeueVerdict::Drop;
                    }
                    DequeueVerdict::Deliver
                } else if now >= self.drop_next {
                    self.drop_count += 1;
                    self.drop_next = self.control_law(self.drop_next);
                    DequeueVerdict::Drop
                } else {
                    DequeueVerdict::Deliver
                }
            }
        }
    }
}

/// PIE (Proportional Integral controller Enhanced, RFC 8033), probabilistic
/// drop at enqueue with a periodically updated drop probability.
#[derive(Debug)]
pub struct Pie {
    target: Nanos,
    update_interval: Nanos,
    last_update: Nanos,
    drop_prob: f64,
    old_delay: Nanos,
    alpha: f64,
    beta: f64,
    rng: Rng,
}

impl Pie {
    pub fn new(seed: u64) -> Self {
        Pie {
            target: 15 * MILLIS,
            update_interval: 15 * MILLIS,
            last_update: 0,
            drop_prob: 0.0,
            old_delay: 0,
            alpha: 0.125,
            beta: 1.25,
            rng: Rng::new(seed),
        }
    }
}

impl Aqm for Pie {
    fn name(&self) -> &'static str {
        "PIE"
    }

    fn on_enqueue(&mut self, now: Nanos, q: &QueueView, pkt: &Packet) -> EnqueueVerdict {
        if q.bytes + pkt.bytes as u64 > q.capacity_bytes {
            return EnqueueVerdict::DropTail;
        }
        let cur_delay = q.est_delay();
        if now.saturating_sub(self.last_update) >= self.update_interval {
            let d = cur_delay.min(10 * SECONDS) as f64 / SECONDS as f64;
            let od = self.old_delay.min(10 * SECONDS) as f64 / SECONDS as f64;
            let target = self.target as f64 / SECONDS as f64;
            let mut p = self.alpha * (d - target) + self.beta * (d - od);
            // RFC 8033 auto-tuning: scale the adjustment with the current
            // probability so small probabilities move slowly.
            p *= match self.drop_prob {
                x if x < 0.000001 => 1.0 / 2048.0,
                x if x < 0.00001 => 1.0 / 512.0,
                x if x < 0.0001 => 1.0 / 128.0,
                x if x < 0.001 => 1.0 / 32.0,
                x if x < 0.01 => 1.0 / 8.0,
                x if x < 0.1 => 1.0 / 2.0,
                _ => 1.0,
            };
            self.drop_prob = (self.drop_prob + p).clamp(0.0, 1.0);
            if d == 0.0 && od == 0.0 {
                self.drop_prob *= 0.98;
            }
            self.old_delay = cur_delay;
            self.last_update = now;
        }
        // Burst protection: never drop when the queue is nearly empty.
        if q.bytes < 2 * pkt.bytes as u64 {
            return EnqueueVerdict::Accept;
        }
        if self.rng.chance(self.drop_prob) {
            EnqueueVerdict::DropTail
        } else {
            EnqueueVerdict::Accept
        }
    }
}

/// BoDe-style bounded-delay policy (Abbasloo & Chao, "Bounding Queue Delay"):
/// drop arrivals whose projected queuing delay exceeds a fixed bound.
#[derive(Debug)]
pub struct BoundedDelay {
    pub bound: Nanos,
}

impl Default for BoundedDelay {
    fn default() -> Self {
        BoundedDelay { bound: 20 * MILLIS }
    }
}

impl Aqm for BoundedDelay {
    fn name(&self) -> &'static str {
        "BoDe"
    }
    fn on_enqueue(&mut self, _now: Nanos, q: &QueueView, pkt: &Packet) -> EnqueueVerdict {
        if q.bytes + pkt.bytes as u64 > q.capacity_bytes {
            return EnqueueVerdict::DropTail;
        }
        if q.est_delay() > self.bound && q.packets > 1 {
            EnqueueVerdict::DropTail
        } else {
            EnqueueVerdict::Accept
        }
    }
}

/// AQM selector for environment specs ([`AqmKind::name`] is the short label
/// the built policy reports, e.g. in `fig23`'s row ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqmKind {
    TailDrop,
    HeadDrop,
    CoDel,
    Pie,
    BoundedDelay,
}

impl AqmKind {
    /// Instantiate the policy; `seed` feeds probabilistic policies (PIE).
    pub fn build(self, seed: u64) -> Box<dyn Aqm> {
        match self {
            AqmKind::TailDrop => Box::new(TailDrop),
            AqmKind::HeadDrop => Box::new(HeadDrop),
            AqmKind::CoDel => Box::new(CoDel::default()),
            AqmKind::Pie => Box::new(Pie::new(seed)),
            AqmKind::BoundedDelay => Box::new(BoundedDelay::default()),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AqmKind::TailDrop => "TDrop",
            AqmKind::HeadDrop => "HDrop",
            AqmKind::CoDel => "CoDel",
            AqmKind::Pie => "PIE",
            AqmKind::BoundedDelay => "BoDe",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(bytes: u64, packets: usize, cap: u64) -> QueueView {
        QueueView {
            bytes,
            packets,
            capacity_bytes: cap,
            link_bps: 12e6,
        }
    }

    fn pkt() -> Packet {
        Packet::new(0, 0, 1500, 0)
    }

    #[test]
    fn tail_drop_respects_capacity() {
        let mut t = TailDrop;
        assert_eq!(
            t.on_enqueue(0, &view(0, 0, 3000), &pkt()),
            EnqueueVerdict::Accept
        );
        assert_eq!(
            t.on_enqueue(0, &view(1500, 1, 3000), &pkt()),
            EnqueueVerdict::Accept
        );
        assert_eq!(
            t.on_enqueue(0, &view(3000, 2, 3000), &pkt()),
            EnqueueVerdict::DropTail
        );
    }

    #[test]
    fn head_drop_evicts_head_on_overflow() {
        let mut h = HeadDrop;
        assert_eq!(
            h.on_enqueue(0, &view(3000, 2, 3000), &pkt()),
            EnqueueVerdict::DropHead
        );
        assert_eq!(
            h.on_enqueue(0, &view(0, 0, 3000), &pkt()),
            EnqueueVerdict::Accept
        );
    }

    #[test]
    fn codel_tolerates_short_spikes() {
        let mut c = CoDel::default();
        // Sojourn above target but for less than one interval: deliver.
        assert_eq!(
            c.on_dequeue(0, 10 * MILLIS, &pkt()),
            DequeueVerdict::Deliver
        );
        assert_eq!(
            c.on_dequeue(50 * MILLIS, 10 * MILLIS, &pkt()),
            DequeueVerdict::Deliver
        );
        // Below target resets the state.
        assert_eq!(
            c.on_dequeue(60 * MILLIS, MILLIS, &pkt()),
            DequeueVerdict::Deliver
        );
    }

    #[test]
    fn codel_drops_after_persistent_delay() {
        let mut c = CoDel::default();
        let mut dropped = false;
        for i in 0..100 {
            let now = i * 10 * MILLIS;
            if c.on_dequeue(now, 20 * MILLIS, &pkt()) == DequeueVerdict::Drop {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "CoDel should drop under persistent 20ms sojourn");
    }

    #[test]
    fn pie_ramps_drop_probability_under_load() {
        let mut p = Pie::new(7);
        let q = view(60_000, 40, 1_000_000); // 40 ms of backlog at 12 Mbps
        let mut drops = 0;
        for i in 0..2000 {
            let now = i * 5 * MILLIS;
            if p.on_enqueue(now, &q, &pkt()) == EnqueueVerdict::DropTail {
                drops += 1;
            }
        }
        assert!(
            drops > 10,
            "PIE should drop under sustained overload, got {drops}"
        );
    }

    #[test]
    fn bode_bounds_delay() {
        let mut b = BoundedDelay { bound: 10 * MILLIS };
        // 60 KB at 12 Mbps is 40 ms of delay: over bound.
        assert_eq!(
            b.on_enqueue(0, &view(60_000, 40, 1_000_000), &pkt()),
            EnqueueVerdict::DropTail
        );
        assert_eq!(
            b.on_enqueue(0, &view(1500, 1, 1_000_000), &pkt()),
            EnqueueVerdict::Accept
        );
    }

    #[test]
    fn kind_builds_all() {
        for k in [
            AqmKind::TailDrop,
            AqmKind::HeadDrop,
            AqmKind::CoDel,
            AqmKind::Pie,
            AqmKind::BoundedDelay,
        ] {
            let a = k.build(1);
            assert_eq!(a.name(), k.name());
        }
    }

    /// A queue calls `on_dequeue` only on a policy that says it acts there,
    /// so every other policy must deliver whatever it is handed: skipping
    /// the call keeps the bits.
    #[test]
    fn only_codel_acts_on_dequeue_and_the_rest_deliver() {
        for k in [
            AqmKind::TailDrop,
            AqmKind::HeadDrop,
            AqmKind::CoDel,
            AqmKind::Pie,
            AqmKind::BoundedDelay,
        ] {
            let mut a = k.build(1);
            assert_eq!(a.acts_on_dequeue(), k == AqmKind::CoDel, "{}", k.name());
            if a.acts_on_dequeue() {
                continue;
            }
            for (i, sojourn) in [0, 1_000_000, 40_000_000, 10_000_000_000]
                .into_iter()
                .enumerate()
            {
                let v = a.on_dequeue(100_000_000 * i as u64, sojourn, &pkt());
                assert_eq!(v, DequeueVerdict::Deliver, "{}", k.name());
            }
        }
    }
}
