//! The bottleneck path: a FIFO buffer governed by an AQM feeding a
//! rate-limited link that serves one packet at a time.

use crate::aqm::{Aqm, DequeueVerdict, EnqueueVerdict, QueueView};
use crate::link::LinkModel;
use crate::packet::Packet;
use crate::time::Nanos;
use sage_obs::obs_counter;
use sage_util::Rng;
use std::collections::VecDeque;

/// Result of offering a packet to the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet accepted into the buffer (or straight into service).
    Queued,
    /// A packet was dropped: either the arriving one (tail drop / random loss)
    /// or the previous head (head drop). The dropped packet is returned.
    Dropped(Packet),
}

/// A packet that finished transmission on the link.
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// Time the last bit left the link.
    pub at: Nanos,
    /// The packet itself.
    pub pkt: Packet,
    /// Queue wait (service start minus arrival), excluding service time.
    pub sojourn: Nanos,
}

/// Bottleneck queue + link. The owner drives it by calling
/// [`BottleneckPath::next_completion`] / [`BottleneckPath::complete`] from its
/// event loop.
pub struct BottleneckPath {
    link: LinkModel,
    aqm: Box<dyn Aqm>,
    /// `aqm.acts_on_dequeue()`, read once: only then is `on_dequeue` called.
    aqm_on_dequeue: bool,
    capacity_bytes: u64,
    /// (arrival time, packet) FIFO.
    buf: VecDeque<(Nanos, Packet)>,
    bytes_queued: u64,
    in_service: Option<(Packet, Nanos, Nanos)>, // (pkt, queue_sojourn, finish)
    /// On a constant link, the last service time and the packet size it
    /// was for: there the service time depends on the size alone.
    service_memo: Option<(u32, Nanos)>,
    /// Independent random loss applied to arrivals (models stochastic
    /// wireless loss on inter-continental profiles).
    random_loss: f64,
    rng: Rng,
    /// Cumulative statistics, also the path's obs taps: tallied here per
    /// packet, folded into the registry once when the path drops.
    pub total_enqueued: u64,
    pub total_dropped: u64,
    pub total_delivered: u64,
    /// Flight-recorder span base: packets of flow `f` record under span
    /// `span_base + f + 1`. Observability metadata only.
    span_base: u64,
}

impl BottleneckPath {
    pub fn new(
        link: LinkModel,
        capacity_bytes: u64,
        aqm: Box<dyn Aqm>,
        random_loss: f64,
        seed: u64,
    ) -> Self {
        BottleneckPath {
            link,
            aqm_on_dequeue: aqm.acts_on_dequeue(),
            aqm,
            capacity_bytes,
            buf: VecDeque::new(),
            bytes_queued: 0,
            in_service: None,
            service_memo: None,
            random_loss,
            rng: Rng::new(seed ^ 0x5A5A_1234),
            total_enqueued: 0,
            total_dropped: 0,
            total_delivered: 0,
            span_base: 0,
        }
    }

    /// Set the flight-recorder span base (see [`Self::new`] callers; eval
    /// cells use distinct bases so merged dumps keep cells apart).
    pub fn set_span_base(&mut self, base: u64) {
        self.span_base = base;
    }

    /// Span id a packet's recorder events carry.
    fn span_of(&self, pkt: &Packet) -> u64 {
        self.span_base + pkt.flow as u64 + 1
    }

    /// Account one dropped packet: the counter and the flight recorder.
    fn note_drop(&mut self, now: Nanos, pkt: Packet) {
        self.total_dropped += 1;
        sage_obs::record(
            sage_obs::Category::Netsim,
            sage_obs::EventKind::Drop,
            now,
            self.span_of(&pkt),
            pkt.flow as u64,
            pkt.seq,
        );
    }

    fn view(&self, now: Nanos) -> QueueView {
        QueueView {
            bytes: self.bytes_queued,
            packets: self.buf.len(),
            capacity_bytes: self.capacity_bytes,
            link_bps: self.link.rate_bps(now),
        }
    }

    /// Packets currently buffered.
    pub fn backlog_packets(&self) -> usize {
        self.buf.len()
    }

    /// Packets currently occupying the link (0 or 1) — needed for per-hop
    /// conservation accounting: `enqueued == dropped + delivered + backlog +
    /// in_service` must hold at every instant.
    pub fn in_service_packets(&self) -> usize {
        usize::from(self.in_service.is_some())
    }

    /// The link model (read-only).
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Offer a packet to the path at time `now`.
    pub fn enqueue(&mut self, now: Nanos, pkt: Packet) -> EnqueueOutcome {
        self.total_enqueued += 1;
        sage_obs::record(
            sage_obs::Category::Netsim,
            sage_obs::EventKind::Enqueue,
            now,
            self.span_of(&pkt),
            pkt.seq,
            self.buf.len() as u64,
        );
        if self.random_loss > 0.0 && self.rng.chance(self.random_loss) {
            self.note_drop(now, pkt);
            return EnqueueOutcome::Dropped(pkt);
        }
        let verdict = self.aqm.on_enqueue(now, &self.view(now), &pkt);
        match verdict {
            EnqueueVerdict::Accept => {
                self.buf.push_back((now, pkt));
                self.bytes_queued += pkt.bytes as u64;
                self.try_start_service(now);
                EnqueueOutcome::Queued
            }
            EnqueueVerdict::DropTail => {
                self.note_drop(now, pkt);
                EnqueueOutcome::Dropped(pkt)
            }
            EnqueueVerdict::DropHead => {
                let dropped = if let Some((_, head)) = self.buf.pop_front() {
                    self.bytes_queued -= head.bytes as u64;
                    head
                } else {
                    // Empty queue cannot head-drop; fall back to tail drop.
                    self.note_drop(now, pkt);
                    return EnqueueOutcome::Dropped(pkt);
                };
                self.note_drop(now, dropped);
                self.buf.push_back((now, pkt));
                self.bytes_queued += pkt.bytes as u64;
                self.try_start_service(now);
                EnqueueOutcome::Dropped(dropped)
            }
        }
    }

    /// Begin serving the head packet if the link is idle, applying
    /// dequeue-time AQM (CoDel) which may consume several head packets.
    fn try_start_service(&mut self, now: Nanos) {
        if self.in_service.is_some() {
            return;
        }
        while let Some((arrived, pkt)) = self.buf.pop_front() {
            self.bytes_queued -= pkt.bytes as u64;
            let sojourn = now.saturating_sub(arrived);
            let verdict = if self.aqm_on_dequeue {
                self.aqm.on_dequeue(now, sojourn, &pkt)
            } else {
                DequeueVerdict::Deliver
            };
            match verdict {
                DequeueVerdict::Drop => {
                    self.note_drop(now, pkt);
                    continue;
                }
                DequeueVerdict::Deliver => {
                    let finish = self.finish_time(now, pkt.bytes);
                    if finish == Nanos::MAX {
                        sage_obs::record(
                            sage_obs::Category::Netsim,
                            sage_obs::EventKind::LinkStall,
                            now,
                            self.span_of(&pkt),
                            pkt.seq,
                            0,
                        );
                    }
                    self.in_service = Some((pkt, sojourn, finish));
                    return;
                }
            }
        }
    }

    /// [`LinkModel::finish_time`] of a `bytes`-byte packet whose service
    /// starts at `now`, without recomputing a constant link's service time
    /// for a packet the size of the last one.
    fn finish_time(&mut self, now: Nanos, bytes: u32) -> Nanos {
        let service = match self.service_memo {
            Some((size, service)) if size == bytes => service,
            _ => {
                let bits = bytes as f64 * 8.0;
                let Some(service) = self.link.constant_service(bits) else {
                    return self.link.finish_time(now, bits);
                };
                self.service_memo = Some((bytes, service));
                service
            }
        };
        now.saturating_add(service)
    }

    /// Time the packet currently in service finishes, if any.
    pub fn next_completion(&self) -> Option<Nanos> {
        self.in_service.map(|(_, _, f)| f)
    }

    /// Complete the in-service packet (must be called at its finish time) and
    /// start the next one. Returns the departure.
    pub fn complete(&mut self, now: Nanos) -> Option<Departure> {
        let (pkt, sojourn, finish) = self.in_service.take()?;
        debug_assert!(now >= finish, "complete() called before finish time");
        self.total_delivered += 1;
        sage_obs::record(
            sage_obs::Category::Netsim,
            sage_obs::EventKind::Deliver,
            now,
            self.span_of(&pkt),
            pkt.seq,
            sojourn,
        );
        self.try_start_service(now);
        Some(Departure {
            at: finish,
            pkt,
            sojourn,
        })
    }
}

/// Fold the run's tallies into the registry: still write-only integer adds,
/// so the totals equal per-packet recording at any thread count. Runs on
/// unwind too, so a cell that panics under `catch_unwind` is still counted.
impl Drop for BottleneckPath {
    fn drop(&mut self) {
        obs_counter!("netsim.pkts_enqueued").add(self.total_enqueued);
        obs_counter!("netsim.pkts_dropped").add(self.total_dropped);
        obs_counter!("netsim.pkts_delivered").add(self.total_delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqm::TailDrop;
    use crate::time::MILLIS;

    fn path(mbps: f64, cap: u64) -> BottleneckPath {
        BottleneckPath::new(
            LinkModel::Constant { mbps },
            cap,
            Box::new(TailDrop),
            0.0,
            1,
        )
    }

    fn pkt(seq: u64) -> Packet {
        Packet::new(0, seq, 1500, 0)
    }

    #[test]
    fn single_packet_serves_at_line_rate() {
        let mut p = path(12.0, 100_000);
        assert_eq!(p.enqueue(0, pkt(1)), EnqueueOutcome::Queued);
        // 1500 B = 12000 bits at 12 Mbps = 1 ms.
        assert_eq!(p.next_completion(), Some(MILLIS));
        let d = p.complete(MILLIS).unwrap();
        assert_eq!(d.pkt.seq, 1);
        assert_eq!(d.at, MILLIS);
        assert_eq!(d.sojourn, 0);
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    fn fifo_order_and_back_to_back_service() {
        let mut p = path(12.0, 100_000);
        p.enqueue(0, pkt(1));
        p.enqueue(0, pkt(2));
        let d1 = p.complete(MILLIS).unwrap();
        assert_eq!(d1.pkt.seq, 1);
        assert_eq!(p.next_completion(), Some(2 * MILLIS));
        let d2 = p.complete(2 * MILLIS).unwrap();
        assert_eq!(d2.pkt.seq, 2);
        assert_eq!(d2.sojourn, MILLIS);
    }

    #[test]
    fn overflow_drops_tail() {
        let mut p = path(12.0, 3000); // room for 2 packets in buffer
        p.enqueue(0, pkt(1)); // goes into service immediately
        p.enqueue(0, pkt(2));
        p.enqueue(0, pkt(3));
        // Buffer now holds seq 2 and 3 (3000 B); the next arrival overflows.
        match p.enqueue(0, pkt(4)) {
            EnqueueOutcome::Dropped(d) => assert_eq!(d.seq, 4),
            other => panic!("expected drop, got {other:?}"),
        }
        assert_eq!(p.total_dropped, 1);
    }

    #[test]
    fn backlog_accounting() {
        let mut p = path(12.0, 100_000);
        p.enqueue(0, pkt(1));
        p.enqueue(0, pkt(2));
        p.enqueue(0, pkt(3));
        // One in service, two buffered.
        assert_eq!(p.backlog_packets(), 2);
    }

    #[test]
    fn random_loss_drops_roughly_at_rate() {
        let mut p = BottleneckPath::new(
            LinkModel::Constant { mbps: 1000.0 },
            10_000_000,
            Box::new(TailDrop),
            0.1,
            42,
        );
        let mut drops = 0;
        for i in 0..10_000 {
            if matches!(p.enqueue(0, pkt(i)), EnqueueOutcome::Dropped(_)) {
                drops += 1;
            }
            // keep queue drained
            if let Some(t) = p.next_completion() {
                p.complete(t);
            }
        }
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn head_drop_evicts_oldest() {
        let mut p = BottleneckPath::new(
            LinkModel::Constant { mbps: 12.0 },
            3000,
            Box::new(crate::aqm::HeadDrop),
            0.0,
            1,
        );
        p.enqueue(0, pkt(1)); // in service
        p.enqueue(0, pkt(2));
        p.enqueue(0, pkt(3));
        match p.enqueue(0, pkt(4)) {
            EnqueueOutcome::Dropped(d) => assert_eq!(d.seq, 2, "head should be evicted"),
            other => panic!("expected head drop, got {other:?}"),
        }
        // seq 3 then 4 remain.
        p.complete(MILLIS);
        let d = p.complete(2 * MILLIS).unwrap();
        assert_eq!(d.pkt.seq, 3);
    }
}
