//! Per-flow sender/receiver state: sequencing, SACK-equivalent scoreboard,
//! fast retransmit, NewReno partial-ACK handling, RTO, RTT and rate tracking.

use crate::cc::{AckEvent, CaState, CongestionControl, SocketView};
use crate::rate::{RateSampler, RateSnapshot};
use crate::rtt::RttEstimator;
use crate::{MIN_CWND, MSS};
use sage_netsim::packet::{FlowId, Packet};
use sage_netsim::time::{Nanos, SECONDS};
use std::collections::VecDeque;

/// Bookkeeping for one transmitted (and not yet cumulatively ACKed) packet.
#[derive(Debug, Clone, Copy)]
pub struct SentMeta {
    pub bytes: u32,
    pub sent_at: Nanos,
    /// Selectively acknowledged (receiver holds it, ACK not yet cumulative).
    pub sacked: bool,
    /// Marked lost and awaiting retransmission.
    pub lost: bool,
    pub rate_snap: RateSnapshot,
}

/// An acknowledgement travelling back to the sender.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    pub flow: FlowId,
    /// Cumulative: all seq < ack_seq received.
    pub ack_seq: u64,
    /// The data packet that triggered this ACK (SACK-equivalent info).
    pub for_seq: u64,
    /// Echo of the data packet's transmission time.
    pub for_sent_at: Nanos,
    /// Whether the triggering packet was a retransmission (Karn's rule).
    pub for_retx: bool,
}

/// One end-to-end flow (sender and receiver bookkeeping in one struct since
/// the emulation is single-process).
pub struct Flow {
    pub id: FlowId,
    /// Causal span id for the flight recorder (0 = unscoped); the
    /// simulation stamps `span_base + id + 1` so eval cells get globally
    /// distinct spans. Observability metadata only — never read back.
    pub span: u64,
    pub cca: Box<dyn CongestionControl>,
    pub start: Nanos,
    pub stop: Option<Nanos>,
    pub active: bool,

    // --- Sender state ---
    next_seq: u64,
    snd_una: u64,
    /// The scoreboard: entry `i` is sequence `snd_una + i`, so it always
    /// covers exactly `snd_una..next_seq` (pushed only at `next_seq`, popped
    /// only below the cumulative ACK, cleared only by a restart that moves
    /// `snd_una` to `next_seq`).
    outstanding: VecDeque<SentMeta>,
    n_sacked: usize,
    n_lost: usize,
    dupacks: u32,
    /// Highest selectively acknowledged sequence (exclusive loss-marking bound).
    highest_sacked: u64,
    /// Sequences below this have already been loss-scanned (amortisation).
    loss_scan_floor: u64,
    pub ca_state: CaState,
    recovery_high: u64,
    retransmit_queue: VecDeque<u64>,
    pub rtt: RttEstimator,
    pub rate: RateSampler,
    prev_rtt: f64,
    prev_rate_bps: f64,
    pub rto_deadline: Option<Nanos>,
    rto_backoff: u32,
    /// RTOs fired since the last forward progress. When this reaches
    /// `max_consecutive_rtos` the connection is presumed dead and the flow
    /// aborts and cleanly restarts instead of backing off forever.
    consecutive_rtos: u32,
    /// Abort-and-restart threshold (Linux's `tcp_retries2` analogue).
    pub max_consecutive_rtos: u32,
    /// How many times this flow aborted and restarted after repeated RTOs.
    pub restarts_total: u64,

    // --- Cumulative sender counters ---
    pub sent_pkts_total: u64,
    pub sent_bytes_total: u64,
    pub lost_pkts_total: u64,
    pub lost_bytes_total: u64,
    pub retx_pkts_total: u64,

    // --- Receiver state ---
    rcv_nxt: u64,
    /// Reorder flags: entry `i` is set when sequence `rcv_nxt + i` arrived
    /// ahead of `rcv_nxt`. The ring spans only up to the highest such
    /// sequence, and entry 0 is never set.
    ooo: VecDeque<bool>,
    pub rcv_bytes_total: u64,
    /// One-way delays (seconds) of packets delivered this tick.
    pub tick_owd_sum: f64,
    pub tick_owd_count: u64,
    pub tick_rcv_bytes: u64,
    /// All one-way delay samples (seconds) for percentile statistics.
    pub owd_samples: Vec<f32>,
}

impl Flow {
    pub fn new(
        id: FlowId,
        cca: Box<dyn CongestionControl>,
        start: Nanos,
        stop: Option<Nanos>,
    ) -> Self {
        Flow {
            id,
            span: 0,
            cca,
            start,
            stop,
            active: false,
            next_seq: 0,
            snd_una: 0,
            outstanding: VecDeque::new(),
            n_sacked: 0,
            n_lost: 0,
            dupacks: 0,
            highest_sacked: 0,
            loss_scan_floor: 0,
            ca_state: CaState::Open,
            recovery_high: 0,
            retransmit_queue: VecDeque::new(),
            rtt: RttEstimator::new(),
            rate: RateSampler::new(),
            prev_rtt: 0.0,
            prev_rate_bps: 0.0,
            rto_deadline: None,
            rto_backoff: 0,
            consecutive_rtos: 0,
            max_consecutive_rtos: 8,
            restarts_total: 0,
            sent_pkts_total: 0,
            sent_bytes_total: 0,
            lost_pkts_total: 0,
            lost_bytes_total: 0,
            retx_pkts_total: 0,
            rcv_nxt: 0,
            ooo: VecDeque::new(),
            rcv_bytes_total: 0,
            tick_owd_sum: 0.0,
            tick_owd_count: 0,
            tick_rcv_bytes: 0,
            owd_samples: Vec::new(),
        }
    }

    /// Packets in flight: outstanding minus SACKed minus marked-lost.
    pub fn pipe_pkts(&self) -> usize {
        self.outstanding.len() - self.n_sacked - self.n_lost
    }

    /// Effective congestion window in packets (CCA value with a floor).
    pub fn cwnd_pkts(&self) -> f64 {
        self.cca.cwnd_pkts().max(MIN_CWND)
    }

    /// Whether the window permits transmitting another packet.
    pub fn window_open(&self) -> bool {
        self.active && window_admits(self.pipe_pkts(), self.cwnd_pkts())
    }

    /// Whether a retransmission is pending.
    pub fn has_retransmit(&self) -> bool {
        !self.retransmit_queue.is_empty()
    }

    /// Scoreboard entry of `seq`, if it is still outstanding.
    fn meta_mut(&mut self, seq: u64) -> Option<&mut SentMeta> {
        let i = seq.checked_sub(self.snd_una)?;
        self.outstanding.get_mut(i as usize)
    }

    /// Produce the next packet to transmit (retransmissions first), updating
    /// all bookkeeping. Caller must have checked `window_open`.
    pub fn make_packet(&mut self, now: Nanos) -> Packet {
        let snap = self.rate.snapshot(now);
        // Skip stale queue entries (cumulatively ACKed or SACKed since they
        // were queued).
        while let Some(seq) = self.retransmit_queue.pop_front() {
            let Some(meta) = self.meta_mut(seq).filter(|m| m.lost) else {
                continue;
            };
            meta.lost = false;
            meta.sent_at = now;
            meta.rate_snap = snap;
            let bytes = meta.bytes;
            self.n_lost -= 1;
            self.retx_pkts_total += 1;
            sage_obs::record(
                sage_obs::Category::Transport,
                sage_obs::EventKind::Retx,
                now,
                self.span,
                self.id as u64,
                seq,
            );
            let mut pkt = Packet::new(self.id, seq, bytes, now);
            pkt.retransmit = true;
            return pkt;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let meta = SentMeta {
            bytes: MSS,
            sent_at: now,
            sacked: false,
            lost: false,
            rate_snap: snap,
        };
        self.outstanding.push_back(meta);
        self.sent_pkts_total += 1;
        self.sent_bytes_total += MSS as u64;
        Packet::new(self.id, seq, MSS, now)
    }

    /// Receiver: process an arriving data packet, returning the ACK to send
    /// on the return path.
    pub fn on_data(&mut self, now: Nanos, pkt: Packet) -> Ack {
        let owd = now.saturating_sub(pkt.sent_at) as f64 / SECONDS as f64;
        // Count goodput only for first-time in-order/ooo arrivals.
        let ahead = pkt.seq.checked_sub(self.rcv_nxt).map(|i| i as usize);
        if let Some(i) = ahead.filter(|&i| self.ooo.get(i) != Some(&true)) {
            self.rcv_bytes_total += pkt.bytes as u64;
            self.tick_rcv_bytes += pkt.bytes as u64;
            self.tick_owd_sum += owd;
            self.tick_owd_count += 1;
            self.owd_samples.push(owd as f32);
            if i == 0 {
                self.ooo.pop_front();
                self.rcv_nxt += 1;
                while self.ooo.front() == Some(&true) {
                    self.ooo.pop_front();
                    self.rcv_nxt += 1;
                }
            } else {
                if self.ooo.len() <= i {
                    self.ooo.resize(i + 1, false);
                }
                self.ooo[i] = true;
            }
        }
        Ack {
            flow: self.id,
            ack_seq: self.rcv_nxt,
            for_seq: pkt.seq,
            for_sent_at: pkt.sent_at,
            for_retx: pkt.retransmit,
        }
    }

    /// Sender: process an arriving ACK. Returns the deadline to re-arm the
    /// RTO timer to when the ACK advanced `snd_una` and data is still
    /// outstanding (`None` = leave the timer as it is).
    pub fn on_ack(&mut self, now: Nanos, ack: Ack) -> Option<Nanos> {
        let mut rearm_rto = None;
        // SACK-equivalent: the triggering packet is at the receiver.
        if ack.for_seq >= ack.ack_seq {
            if let Some(meta) = self.meta_mut(ack.for_seq).filter(|m| !m.sacked) {
                meta.sacked = true;
                // Marked lost but actually arrived: unmark (the retransmit
                // queue lazily skips it).
                if std::mem::take(&mut meta.lost) {
                    self.n_lost -= 1;
                }
                self.n_sacked += 1;
                self.highest_sacked = self.highest_sacked.max(ack.for_seq);
            }
        }

        if ack.ack_seq > self.snd_una {
            // --- New data acknowledged ---
            let mut newly_acked_pkts = 0u64;
            let mut newly_acked_bytes = 0u64;
            // RTT sample (Karn's rule: skip retransmitted packets).
            let rtt_sample = if !ack.for_retx {
                let sample = now.saturating_sub(ack.for_sent_at) as f64 / SECONDS as f64;
                Some(sample)
            } else {
                None
            };
            // Rate sample uses the triggering packet's snapshot.
            let snap = match self.meta_mut(ack.for_seq) {
                Some(m) => m.rate_snap,
                None => self.rate.snapshot(now),
            };

            while self.snd_una < ack.ack_seq {
                let Some(meta) = self.outstanding.pop_front() else {
                    break;
                };
                if meta.sacked {
                    self.n_sacked -= 1;
                }
                if meta.lost {
                    self.n_lost -= 1;
                    // Remove from retransmit queue if still pending. A
                    // sequence is queued at most once (it is pushed only
                    // while not lost, and `on_rto` clears before it
                    // rebuilds), so the first match is the `retain` of
                    // every match. The queue is not sorted — `mark_losses`
                    // can re-queue a retransmitted sequence behind higher
                    // ones left by a go-back-N RTO — so this is a scan, but
                    // one that stops at the match.
                    let at = self
                        .retransmit_queue
                        .iter()
                        .position(|&q| q == self.snd_una);
                    if let Some(at) = at {
                        self.retransmit_queue.remove(at);
                    }
                    debug_assert!(!self.retransmit_queue.contains(&self.snd_una));
                }
                newly_acked_pkts += 1;
                newly_acked_bytes += meta.bytes as u64;
                self.snd_una += 1;
            }
            self.snd_una = ack.ack_seq;
            self.dupacks = 0;
            // Any forward progress resets exponential RTO backoff (Linux
            // behaviour); without this a loss storm can push the timer past
            // the life of the connection.
            self.rto_backoff = 0;
            self.consecutive_rtos = 0;

            if let Some(s) = rtt_sample {
                self.prev_rtt = self.rtt.latest();
                self.rtt.on_sample(now, s);
            }
            if newly_acked_bytes > 0 {
                self.prev_rate_bps = self.rate.latest_bps();
                self.rate.on_delivered(now, newly_acked_bytes, snap);
            }

            let mut exited = false;
            match self.ca_state {
                CaState::Recovery | CaState::Loss => {
                    if ack.ack_seq >= self.recovery_high {
                        exited = true;
                        self.ca_state = CaState::Open;
                        self.rto_backoff = 0;
                        let view = self.socket_view(now);
                        self.cca.on_exit_recovery(now, &view);
                    } else {
                        // Partial ACK: newly exposed holes are lost too.
                        self.mark_losses();
                    }
                }
                CaState::Disorder => {
                    self.ca_state = CaState::Open;
                }
                CaState::Open => {}
            }

            // Like Linux's tcp_cong_control: the CCA's window-growth hook is
            // suppressed during fast recovery (where PRR governs; here the
            // reduced window simply holds until recovery completes) but runs
            // in every other state — including CA_Loss, where slow start must
            // regrow the collapsed window.
            if self.ca_state != CaState::Recovery {
                let view = self.socket_view(now);
                let ev = AckEvent {
                    now,
                    newly_acked_pkts,
                    newly_acked_bytes,
                    rtt_sample,
                    exited_recovery: exited,
                };
                self.cca.on_ack(&ev, &view);
            }

            if self.outstanding.is_empty() && self.retransmit_queue.is_empty() {
                self.rto_deadline = None;
            } else {
                let deadline = now + self.rto_scaled();
                self.rto_deadline = Some(deadline);
                rearm_rto = Some(deadline);
            }
        } else {
            // --- Duplicate ACK ---
            self.dupacks += 1;
            if self.ca_state == CaState::Open {
                self.ca_state = CaState::Disorder;
            }
            if self.dupacks == 3 && matches!(self.ca_state, CaState::Open | CaState::Disorder) {
                // Enter fast recovery.
                self.ca_state = CaState::Recovery;
                self.recovery_high = self.next_seq;
                self.mark_losses();
                let view = self.socket_view(now);
                self.cca.on_congestion_event(now, &view);
            } else if self.dupacks > 3 && self.ca_state == CaState::Recovery {
                // Later SACKs may expose more holes; packet conservation
                // happens naturally as each dup-ACK shrinks the pipe.
                self.mark_losses();
            }
        }
        rearm_rto
    }

    /// SACK-based loss marking (Linux SACK/FACK recovery): every unsacked
    /// packet below the highest SACKed sequence is a hole the receiver has
    /// proven lost (the emulated path never reorders). Marks all such holes
    /// and queues their retransmission. The scan floor makes repeated calls
    /// amortised O(n) over a connection.
    fn mark_losses(&mut self) {
        if self.highest_sacked <= self.loss_scan_floor {
            return;
        }
        let from = self.loss_scan_floor.max(self.snd_una);
        if from >= self.highest_sacked {
            return;
        }
        let hi = ((self.highest_sacked - self.snd_una) as usize).min(self.outstanding.len());
        let lo = ((from - self.snd_una) as usize).min(hi);
        for (seq, meta) in (from..).zip(self.outstanding.range_mut(lo..hi)) {
            if meta.sacked || meta.lost {
                continue;
            }
            meta.lost = true;
            self.n_lost += 1;
            self.lost_pkts_total += 1;
            self.lost_bytes_total += meta.bytes as u64;
            self.retransmit_queue.push_back(seq);
        }
        self.loss_scan_floor = self.highest_sacked;
    }

    /// Retransmission timeout fired at `now`. Returns new timer deadline.
    pub fn on_rto(&mut self, now: Nanos) -> Option<Nanos> {
        match self.rto_deadline {
            Some(d) if now >= d => {}
            _ => return self.rto_deadline, // stale timer event
        }
        if self.outstanding.is_empty() {
            self.rto_deadline = None;
            return None;
        }
        self.consecutive_rtos += 1;
        sage_obs::obs_counter!("transport.rto_fired").inc();
        sage_obs::record(
            sage_obs::Category::Transport,
            sage_obs::EventKind::Rto,
            now,
            self.span,
            self.id as u64,
            self.consecutive_rtos as u64,
        );
        if self.consecutive_rtos >= self.max_consecutive_rtos {
            // The path is presumed dead (e.g. a long blackout): abort the
            // connection and restart it cleanly rather than doubling the
            // timer forever against a black hole.
            self.abort_and_restart(now);
            return None;
        }
        self.ca_state = CaState::Loss;
        self.recovery_high = self.next_seq;
        self.dupacks = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(5);
        // Go-back-N: every unsacked outstanding packet is presumed lost.
        self.retransmit_queue.clear();
        let mut newly_lost = 0u64;
        for (seq, meta) in (self.snd_una..).zip(self.outstanding.iter_mut()) {
            if !meta.sacked {
                if !meta.lost {
                    newly_lost += 1;
                    self.lost_bytes_total += meta.bytes as u64;
                }
                meta.lost = true;
                self.retransmit_queue.push_back(seq);
            }
        }
        self.n_lost = self.retransmit_queue.len();
        self.lost_pkts_total += newly_lost;
        let view = self.socket_view(now);
        self.cca.on_rto(now, &view);
        let deadline = now + self.rto_scaled();
        self.rto_deadline = Some(deadline);
        Some(deadline)
    }

    /// Abort a presumed-dead connection and restart it in place: everything
    /// still outstanding is written off as lost, the scoreboard and receiver
    /// reassembly state are discarded, the RTT estimator and CCA re-initialise
    /// and the flow resumes sending fresh data from `next_seq` (the sequence
    /// space is never reused, so old in-flight copies can only show up as
    /// harmless duplicates).
    fn abort_and_restart(&mut self, now: Nanos) {
        // Count only packets not already written off by go-back-N marking.
        let written_off = self
            .outstanding
            .iter()
            .filter(|m| !m.sacked && !m.lost)
            .count() as u64;
        self.lost_pkts_total += written_off;
        self.lost_bytes_total += written_off * MSS as u64;
        self.outstanding.clear();
        self.retransmit_queue.clear();
        self.n_sacked = 0;
        self.n_lost = 0;
        self.dupacks = 0;
        self.snd_una = self.next_seq;
        self.highest_sacked = self.next_seq;
        self.loss_scan_floor = self.next_seq;
        self.recovery_high = self.next_seq;
        // Receiver side resynchronises to the restarted sequence stream.
        self.rcv_nxt = self.next_seq;
        self.ooo.clear();
        self.ca_state = CaState::Open;
        self.rto_backoff = 0;
        self.consecutive_rtos = 0;
        self.rto_deadline = None;
        self.rtt = RttEstimator::new();
        self.cca.init(now, MSS);
        self.restarts_total += 1;
        sage_obs::record(
            sage_obs::Category::Transport,
            sage_obs::EventKind::Restart,
            now,
            self.span,
            self.id as u64,
            self.restarts_total,
        );
    }

    fn rto_scaled(&self) -> Nanos {
        self.rtt.rto().saturating_mul(1 << self.rto_backoff.min(5))
    }

    /// Arm the RTO when the first packet of a burst goes out.
    pub fn ensure_rto(&mut self, now: Nanos) -> Option<Nanos> {
        if self.rto_deadline.is_none() && !self.outstanding.is_empty() {
            let d = now + self.rto_scaled();
            self.rto_deadline = Some(d);
            return Some(d);
        }
        None
    }

    /// Build the socket statistics snapshot.
    pub fn socket_view(&self, now: Nanos) -> SocketView {
        SocketView {
            now,
            mss: MSS,
            srtt: self.rtt.srtt(),
            rttvar: self.rtt.rttvar(),
            latest_rtt: self.rtt.latest(),
            prev_rtt: self.prev_rtt,
            min_rtt: self.rtt.min_rtt(),
            inflight_pkts: self.pipe_pkts() as f64,
            inflight_bytes: (self.pipe_pkts() as u64) * MSS as u64,
            delivery_rate_bps: self.rate.latest_bps(),
            prev_delivery_rate_bps: self.prev_rate_bps,
            max_delivery_rate_bps: self.rate.max_bps(),
            prev_max_delivery_rate_bps: self.rate.prev_max_bps(),
            ca_state: self.ca_state,
            delivered_bytes_total: self.rate.delivered_bytes(),
            sent_bytes_total: self.sent_bytes_total,
            lost_bytes_total: self.lost_bytes_total,
            lost_pkts_total: self.lost_pkts_total,
            cwnd_pkts: self.cwnd_pkts(),
            ssthresh_pkts: self.cca.ssthresh_pkts(),
        }
    }

    /// Reset per-tick receiver accumulators, returning (bytes, mean owd s).
    pub fn take_tick(&mut self) -> (u64, f64) {
        let bytes = self.tick_rcv_bytes;
        let owd = if self.tick_owd_count > 0 {
            self.tick_owd_sum / self.tick_owd_count as f64
        } else {
            0.0
        };
        self.tick_rcv_bytes = 0;
        self.tick_owd_sum = 0.0;
        self.tick_owd_count = 0;
        (bytes, owd)
    }

    /// Cumulative snd_una (for tests).
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Diagnostic dump of sender/receiver state (debugging and tests).
    pub fn debug_state(&self) -> String {
        let first: Vec<(u64, bool, bool)> = (self.snd_una..)
            .zip(&self.outstanding)
            .take(5)
            .map(|(s, m)| (s, m.sacked, m.lost))
            .collect();
        format!(
            "snd_una={} next_seq={} outstanding={} n_sacked={} n_lost={} rtxq={:?} rcv_nxt={} ooo={} first={:?} ca={:?} dupacks={}",
            self.snd_una,
            self.next_seq,
            self.outstanding.len(),
            self.n_sacked,
            self.n_lost,
            self.retransmit_queue,
            self.rcv_nxt,
            self.ooo.iter().filter(|&&held| held).count(),
            first,
            self.ca_state,
            self.dupacks
        )
    }

    /// Highest sequence produced so far (for tests).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Fold the flow's retransmission tally into the registry (see
/// `BottleneckPath`'s `Drop`: per-packet taps tally per run).
impl Drop for Flow {
    fn drop(&mut self) {
        sage_obs::obs_counter!("transport.retx_pkts").add(self.retx_pkts_total);
    }
}

/// Whether a window of `cwnd >= MIN_CWND` packets has room for one more
/// beside `pipe` in flight: `pipe < floor(cwnd)`, which for an integer `pipe`
/// is `pipe + 1 <= cwnd` — the send loop asks this per packet, and `floor` is
/// a libm call on the baseline x86-64 target.
fn window_admits(pipe: usize, cwnd: f64) -> bool {
    (pipe + 1) as f64 <= cwnd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{AckEvent, SocketView};
    use sage_netsim::time::MILLIS;
    use std::collections::BTreeSet;

    /// A fixed-window CCA for exercising the flow machinery.
    struct FixedWindow {
        cwnd: f64,
        congestion_events: u32,
        rtos: u32,
    }
    impl CongestionControl for FixedWindow {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn on_ack(&mut self, _ack: &AckEvent, _s: &SocketView) {}
        fn on_congestion_event(&mut self, _now: Nanos, _s: &SocketView) {
            self.congestion_events += 1;
            self.cwnd = (self.cwnd / 2.0).max(2.0);
        }
        fn on_rto(&mut self, _now: Nanos, _s: &SocketView) {
            self.rtos += 1;
            self.cwnd = 2.0;
        }
        fn cwnd_pkts(&self) -> f64 {
            self.cwnd
        }
    }

    fn flow(cwnd: f64) -> Flow {
        let mut f = Flow::new(
            0,
            Box::new(FixedWindow {
                cwnd,
                congestion_events: 0,
                rtos: 0,
            }),
            0,
            None,
        );
        f.active = true;
        f
    }

    /// Deliver a data packet to the (co-located) receiver and feed the ACK
    /// right back, simulating an instant network.
    fn roundtrip(f: &mut Flow, pkt: Packet, now: Nanos) {
        let ack = f.on_data(now, pkt);
        f.on_ack(now, ack);
    }

    #[test]
    fn window_admits_is_the_floor_predicate() {
        use sage_util::prop::{ensure, forall, PropConfig};
        forall("window_admits", PropConfig::new(2000, 0xF100), |rng| {
            let k = (2 + rng.below(39_999)) as f64;
            // What `cwnd_pkts` can return: the floor itself, an integer, its
            // two neighbours, a fraction, `MAX_CWND`-sized, unbounded.
            let cwnd = [
                MIN_CWND,
                k,
                k.next_down(),
                k.next_up(),
                k + rng.uniform(),
                4e4,
                f64::INFINITY,
            ][rng.below(7)]
            .max(MIN_CWND);
            let pipe = if rng.below(2) == 0 {
                rng.below(40_001)
            } else {
                k as usize - 2 + rng.below(4)
            };
            let oracle = (pipe as f64) < cwnd.floor().max(MIN_CWND);
            ensure(window_admits(pipe, cwnd) == oracle, || {
                format!("pipe {pipe}, cwnd {cwnd:e}: floor says {oracle}")
            })
        });
    }

    #[test]
    fn sends_up_to_window() {
        let mut f = flow(4.0);
        let mut sent = 0;
        while f.window_open() {
            f.make_packet(0);
            sent += 1;
        }
        assert_eq!(sent, 4);
        assert_eq!(f.pipe_pkts(), 4);
    }

    #[test]
    fn in_order_delivery_advances_snd_una() {
        let mut f = flow(10.0);
        let p0 = f.make_packet(0);
        let p1 = f.make_packet(0);
        roundtrip(&mut f, p0, 10 * MILLIS);
        assert_eq!(f.snd_una(), 1);
        roundtrip(&mut f, p1, 11 * MILLIS);
        assert_eq!(f.snd_una(), 2);
        assert_eq!(f.pipe_pkts(), 0);
        assert!(f.rtt.has_sample());
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut f = flow(10.0);
        let packets: Vec<Packet> = (0..6).map(|_| f.make_packet(0)).collect();
        // Packet 0 lost; 1..=4 arrive -> dup ACKs.
        for (i, &p) in packets.iter().enumerate().skip(1).take(4) {
            let ack = f.on_data((i as u64) * MILLIS, p);
            assert_eq!(ack.ack_seq, 0, "cumulative ack stuck at hole");
            f.on_ack((i as u64) * MILLIS, ack);
        }
        assert_eq!(f.ca_state, CaState::Recovery);
        assert!(f.has_retransmit());
        assert_eq!(f.lost_pkts_total, 1);
        // Retransmission goes out and fills the hole.
        let rtx = f.make_packet(10 * MILLIS);
        assert_eq!(rtx.seq, 0);
        assert!(rtx.retransmit);
        let ack = f.on_data(12 * MILLIS, rtx);
        assert_eq!(ack.ack_seq, 5);
        f.on_ack(12 * MILLIS, ack);
        // Packet 5 is genuinely still in flight: the partial ACK must NOT
        // spuriously retransmit it (SACK evidence rule).
        assert_eq!(f.ca_state, CaState::Recovery);
        assert!(
            !f.has_retransmit(),
            "no spurious retransmit without SACK evidence"
        );
        let ack5 = f.on_data(13 * MILLIS, packets[5]);
        assert_eq!(ack5.ack_seq, 6);
        f.on_ack(13 * MILLIS, ack5);
        assert_eq!(
            f.ca_state,
            CaState::Open,
            "recovery exits once all pre-loss data acked"
        );
    }

    #[test]
    fn sack_accounting_shrinks_pipe() {
        let mut f = flow(10.0);
        let packets: Vec<Packet> = (0..5).map(|_| f.make_packet(0)).collect();
        assert_eq!(f.pipe_pkts(), 5);
        // Packet 0 lost; others arrive.
        for &p in &packets[1..] {
            let ack = f.on_data(MILLIS, p);
            f.on_ack(MILLIS, ack);
        }
        // 4 sacked, 1 marked lost after dup-acks.
        assert_eq!(f.pipe_pkts(), 0);
    }

    #[test]
    fn rto_marks_all_outstanding_lost() {
        let mut f = flow(8.0);
        for _ in 0..8 {
            f.make_packet(0);
        }
        f.ensure_rto(0);
        let deadline = f.rto_deadline.unwrap();
        let next = f.on_rto(deadline);
        assert!(next.is_some());
        assert_eq!(f.ca_state, CaState::Loss);
        assert_eq!(f.pipe_pkts(), 0);
        assert_eq!(f.lost_pkts_total, 8);
        // All 8 packets queued for retransmission, oldest first.
        let p = f.make_packet(deadline + 1);
        assert_eq!(p.seq, 0);
        assert!(p.retransmit);
    }

    #[test]
    fn stale_rto_is_ignored() {
        let mut f = flow(4.0);
        f.make_packet(0);
        f.ensure_rto(0);
        // Fire far before the deadline: no state change.
        f.on_rto(1);
        assert_eq!(f.ca_state, CaState::Open);
        assert_eq!(f.lost_pkts_total, 0);
    }

    #[test]
    fn karns_rule_skips_retransmit_rtt() {
        let mut f = flow(4.0);
        let p = f.make_packet(0);
        // Simulate loss + RTO + retransmit.
        f.ensure_rto(0);
        let d = f.rto_deadline.unwrap();
        f.on_rto(d);
        let rtx = f.make_packet(d);
        assert!(rtx.retransmit);
        let before = f.rtt.has_sample();
        let ack = f.on_data(d + 5 * MILLIS, rtx);
        f.on_ack(d + 10 * MILLIS, ack);
        assert_eq!(f.rtt.has_sample(), before, "no RTT sample from retransmit");
        let _ = p;
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut f = flow(10.0);
        let packets: Vec<Packet> = (0..3).map(|_| f.make_packet(0)).collect();
        let a2 = f.on_data(MILLIS, packets[2]);
        assert_eq!(a2.ack_seq, 0);
        let a0 = f.on_data(2 * MILLIS, packets[0]);
        assert_eq!(a0.ack_seq, 1);
        let a1 = f.on_data(3 * MILLIS, packets[1]);
        assert_eq!(a1.ack_seq, 3, "hole filled: cumulative ack jumps");
    }

    #[test]
    fn duplicate_data_not_double_counted() {
        let mut f = flow(10.0);
        let p = f.make_packet(0);
        f.on_data(MILLIS, p);
        let bytes_after_first = f.rcv_bytes_total;
        f.on_data(2 * MILLIS, p);
        assert_eq!(f.rcv_bytes_total, bytes_after_first);
    }

    #[test]
    fn rto_backoff_doubles_caps_and_resets() {
        let mut f = flow(4.0);
        f.max_consecutive_rtos = 100; // keep the abort path out of this test
        f.make_packet(0);
        f.ensure_rto(0);
        let base = f.rto_scaled();
        assert!(base > 0);
        let mut now = 0;
        let mut prev = 0;
        for i in 1..=8u32 {
            now = f.rto_deadline.unwrap();
            f.on_rto(now);
            let cur = f.rto_scaled();
            if i <= 5 {
                assert_eq!(cur, base << i, "backoff {i} must double");
                assert!(cur > prev, "backoff must grow monotonically");
            } else {
                assert_eq!(cur, base << 5, "backoff capped at 32x");
            }
            prev = cur;
        }
        // Fresh cumulative ACK resets the backoff entirely.
        let rtx = f.make_packet(now);
        assert!(rtx.retransmit);
        let ack = f.on_data(now + MILLIS, rtx);
        f.on_ack(now + 2 * MILLIS, ack);
        assert_eq!(f.rto_scaled(), base, "forward progress must reset backoff");
    }

    #[test]
    fn repeated_rtos_abort_and_restart_flow() {
        let mut f = flow(4.0);
        f.max_consecutive_rtos = 3;
        for _ in 0..4 {
            f.make_packet(0);
        }
        f.ensure_rto(0);
        // Two RTOs back off; the third hits the cap and restarts the flow.
        for _ in 0..2 {
            let d = f.rto_deadline.unwrap();
            assert!(f.on_rto(d).is_some());
        }
        assert_eq!(f.restarts_total, 0);
        let d = f.rto_deadline.unwrap();
        assert!(f.on_rto(d).is_none(), "restart cancels the timer");
        assert_eq!(f.restarts_total, 1);
        assert_eq!(f.pipe_pkts(), 0);
        assert_eq!(
            f.snd_una(),
            f.next_seq(),
            "written off everything outstanding"
        );
        assert_eq!(f.lost_pkts_total, 4);
        assert_eq!(f.ca_state, CaState::Open);
        // The flow keeps working after the restart: new data flows end to end.
        let p = f.make_packet(SECONDS);
        assert!(!p.retransmit, "restart discards the retransmit queue");
        let ack = f.on_data(SECONDS + MILLIS, p);
        f.on_ack(SECONDS + 2 * MILLIS, ack);
        assert_eq!(f.snd_una(), f.next_seq());
        assert_eq!(f.pipe_pkts(), 0);
    }

    /// The sender scoreboard as a `BTreeMap` keyed by sequence — what the
    /// ring replaced — with the loss-marking logic that reads it. Timers,
    /// RTT, rate and the CCA are left out: they never touch the scoreboard.
    struct MapSender {
        next_seq: u64,
        snd_una: u64,
        /// seq -> (sacked, lost)
        outstanding: std::collections::BTreeMap<u64, (bool, bool)>,
        dupacks: u32,
        highest_sacked: u64,
        loss_scan_floor: u64,
        ca_state: CaState,
        recovery_high: u64,
        retransmit_queue: VecDeque<u64>,
        lost_pkts_total: u64,
        consecutive_rtos: u32,
    }

    impl MapSender {
        /// A sender with nothing outstanding whose next sequence is `seq`.
        fn starting_at(seq: u64, lost_pkts_total: u64) -> Self {
            MapSender {
                next_seq: seq,
                snd_una: seq,
                outstanding: Default::default(),
                dupacks: 0,
                highest_sacked: seq,
                loss_scan_floor: seq,
                ca_state: CaState::Open,
                recovery_high: seq,
                retransmit_queue: VecDeque::new(),
                lost_pkts_total,
                consecutive_rtos: 0,
            }
        }

        fn pipe_pkts(&self) -> usize {
            self.outstanding
                .values()
                .filter(|&&(sacked, lost)| !sacked && !lost)
                .count()
        }

        /// `(seq, is_retransmission)` of the next packet.
        fn send(&mut self) -> (u64, bool) {
            while let Some(seq) = self.retransmit_queue.pop_front() {
                if let Some(m) = self.outstanding.get_mut(&seq).filter(|m| m.1) {
                    m.1 = false;
                    return (seq, true);
                }
            }
            self.outstanding.insert(self.next_seq, (false, false));
            self.next_seq += 1;
            (self.next_seq - 1, false)
        }

        fn mark_losses(&mut self) {
            let from = self.loss_scan_floor.max(self.snd_una);
            if self.highest_sacked <= self.loss_scan_floor || from >= self.highest_sacked {
                return;
            }
            for (&seq, m) in self.outstanding.range_mut(from..self.highest_sacked) {
                if !m.0 && !m.1 {
                    m.1 = true;
                    self.lost_pkts_total += 1;
                    self.retransmit_queue.push_back(seq);
                }
            }
            self.loss_scan_floor = self.highest_sacked;
        }

        fn on_ack(&mut self, ack: Ack) {
            if ack.for_seq >= ack.ack_seq {
                if let Some(m) = self.outstanding.get_mut(&ack.for_seq).filter(|m| !m.0) {
                    *m = (true, false);
                    self.highest_sacked = self.highest_sacked.max(ack.for_seq);
                }
            }
            if ack.ack_seq > self.snd_una {
                let acked: Vec<u64> = self
                    .outstanding
                    .range(..ack.ack_seq)
                    .map(|(&s, _)| s)
                    .collect();
                for s in acked {
                    if self.outstanding.remove(&s).is_some_and(|m| m.1) {
                        self.retransmit_queue.retain(|&q| q != s);
                    }
                }
                self.snd_una = ack.ack_seq;
                self.dupacks = 0;
                self.consecutive_rtos = 0;
                match self.ca_state {
                    CaState::Recovery | CaState::Loss if ack.ack_seq < self.recovery_high => {
                        self.mark_losses()
                    }
                    _ => self.ca_state = CaState::Open,
                }
            } else {
                self.dupacks += 1;
                if self.ca_state == CaState::Open {
                    self.ca_state = CaState::Disorder;
                }
                if self.dupacks == 3 && self.ca_state == CaState::Disorder {
                    self.ca_state = CaState::Recovery;
                    self.recovery_high = self.next_seq;
                    self.mark_losses();
                } else if self.dupacks > 3 && self.ca_state == CaState::Recovery {
                    self.mark_losses();
                }
            }
        }

        fn on_rto(&mut self, max_consecutive_rtos: u32) {
            if self.outstanding.is_empty() {
                return;
            }
            self.consecutive_rtos += 1;
            if self.consecutive_rtos >= max_consecutive_rtos {
                let written_off = self.pipe_pkts() as u64;
                *self = MapSender::starting_at(self.next_seq, self.lost_pkts_total + written_off);
                return;
            }
            self.ca_state = CaState::Loss;
            self.recovery_high = self.next_seq;
            self.dupacks = 0;
            self.retransmit_queue.clear();
            for (&seq, m) in self.outstanding.iter_mut() {
                if !m.0 {
                    if !m.1 {
                        self.lost_pkts_total += 1;
                    }
                    m.1 = true;
                    self.retransmit_queue.push_back(seq);
                }
            }
        }
    }

    #[test]
    fn ring_scoreboard_matches_the_map_model() {
        use sage_util::prop::{ensure, forall, PropConfig};
        forall("ring == map scoreboard", PropConfig::default(), |rng| {
            let mut f = flow(1e9);
            f.max_consecutive_rtos = 3;
            let mut model = MapSender::starting_at(0, 0);
            let mut data: Vec<Packet> = Vec::new();
            let mut acks: Vec<Ack> = Vec::new();
            let mut now: Nanos = 0;
            for step in 0..400 {
                now += MILLIS;
                match rng.below(10) {
                    // Send a burst (new data, or retransmissions first).
                    0..=2 => {
                        for _ in 0..1 + rng.below(4) {
                            let pkt = f.make_packet(now);
                            let want = model.send();
                            ensure((pkt.seq, pkt.retransmit) == want, || {
                                format!("step {step}: sent {pkt:?}, model {want:?}")
                            })?;
                            f.ensure_rto(now);
                            data.push(pkt);
                        }
                    }
                    // Deliver a packet (any order), sometimes leaving a
                    // duplicate behind; the ACK joins the return channel.
                    3..=5 if !data.is_empty() => {
                        let i = rng.below(data.len());
                        let pkt = if rng.chance(0.1) {
                            data[i]
                        } else {
                            data.swap_remove(i)
                        };
                        acks.push(f.on_data(now, pkt));
                    }
                    // Drop a packet on the wire.
                    6 if !data.is_empty() => {
                        data.swap_remove(rng.below(data.len()));
                    }
                    // Deliver an ACK (any order, so stale ones arrive too).
                    7..=8 if !acks.is_empty() => {
                        let ack = acks.swap_remove(rng.below(acks.len()));
                        f.on_ack(now, ack);
                        model.on_ack(ack);
                    }
                    // Fire the timer; the third in a row restarts the flow.
                    9 => {
                        if let Some(d) = f.rto_deadline {
                            now = now.max(d);
                            f.on_rto(now);
                            model.on_rto(f.max_consecutive_rtos);
                        }
                    }
                    _ => {}
                }
                // The queue itself, against the model's `retain` form: the
                // same entries in the same order after every event.
                ensure(f.retransmit_queue == model.retransmit_queue, || {
                    format!(
                        "step {step}: retransmit queue {:?}, model {:?}",
                        f.retransmit_queue, model.retransmit_queue
                    )
                })?;
                let got = (f.pipe_pkts(), f.lost_pkts_total, f.snd_una(), f.next_seq());
                let want = (
                    model.pipe_pkts(),
                    model.lost_pkts_total,
                    model.snd_una,
                    model.next_seq,
                );
                ensure(got == want, || {
                    format!(
                        "step {step}: (pipe, lost, snd_una, next_seq) {got:?}, model {want:?}: {}",
                        f.debug_state()
                    )
                })?;
            }
            ensure(f.restarts_total > 0 || f.lost_pkts_total > 0, || {
                "case exercised neither loss nor restart".to_string()
            })
        });
    }

    /// The reference receiver: a `BTreeSet` of the sequences held above
    /// `rcv_nxt`.
    struct SetReceiver {
        rcv_nxt: u64,
        ooo: BTreeSet<u64>,
        bytes: u64,
    }

    impl SetReceiver {
        fn on_data(&mut self, seq: u64) -> u64 {
            if seq >= self.rcv_nxt && !self.ooo.contains(&seq) {
                self.bytes += MSS as u64;
                if seq == self.rcv_nxt {
                    self.rcv_nxt += 1;
                    while self.ooo.remove(&self.rcv_nxt) {
                        self.rcv_nxt += 1;
                    }
                } else {
                    self.ooo.insert(seq);
                }
            }
            self.rcv_nxt
        }
    }

    #[test]
    fn reorder_ring_matches_the_set_model() {
        use sage_util::prop::{ensure, forall, PropConfig};
        forall(
            "reorder ring == set receiver",
            PropConfig::default(),
            |rng| {
                let mut f = flow(1e9);
                let mut model = SetReceiver {
                    rcv_nxt: 0,
                    ooo: BTreeSet::new(),
                    bytes: 0,
                };
                let span = 1 + rng.below(64) as u64;
                for step in 0..600 {
                    // Mostly the next sequence or one a little ahead; some
                    // duplicates and stale arrivals below `rcv_nxt`.
                    let base = model.rcv_nxt;
                    let seq = match rng.below(8) {
                        0..=2 => base,
                        3 => base.saturating_sub(1 + rng.below(4) as u64),
                        _ => base + rng.below(span as usize) as u64,
                    };
                    let ack = f.on_data(MILLIS, Packet::new(0, seq, MSS, 0));
                    let want = model.on_data(seq);
                    let held = f.ooo.iter().filter(|&&h| h).count();
                    ensure(
                        (ack.ack_seq, f.rcv_bytes_total, held)
                            == (want, model.bytes, model.ooo.len()),
                        || {
                            format!(
                                "step {step}, seq {seq}: (ack, bytes, held) ({}, {}, {held}), \
                             model ({want}, {}, {})",
                                ack.ack_seq,
                                f.rcv_bytes_total,
                                model.bytes,
                                model.ooo.len()
                            )
                        },
                    )?;
                    ensure(f.ooo.front() != Some(&true), || {
                        format!("step {step}: rcv_nxt's own flag is set")
                    })?;
                    ensure(f.ooo.len() <= span as usize, || {
                        format!("step {step}: ring of {} over a span of {span}", f.ooo.len())
                    })?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn tick_accumulators_reset() {
        let mut f = flow(10.0);
        let p = f.make_packet(0);
        f.on_data(5 * MILLIS, p);
        let (bytes, owd) = f.take_tick();
        assert_eq!(bytes, MSS as u64);
        assert!(owd > 0.0);
        let (bytes2, owd2) = f.take_tick();
        assert_eq!(bytes2, 0);
        assert_eq!(owd2, 0.0);
    }
}
