//! Shared building blocks for heuristic CCAs.

use sage_transport::SocketView;

/// Detects round (RTT) boundaries by delivered-byte count: a new round starts
/// once a full window of data (as of the previous round start) has been
/// delivered. This is how per-RTT logic (Vegas, YeAH, CDG, ...) is clocked.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTracker {
    next_round_at: u64,
    pub rounds: u64,
}

impl RoundTracker {
    /// Returns true exactly once per round.
    pub fn update(&mut self, view: &SocketView) -> bool {
        if view.delivered_bytes_total >= self.next_round_at {
            let window_bytes = (view.cwnd_pkts.max(1.0) * view.mss as f64) as u64;
            self.next_round_at = view.delivered_bytes_total + window_bytes;
            self.rounds += 1;
            true
        } else {
            false
        }
    }
}

/// Standard slow-start step: grow by one packet per newly ACKed packet while
/// below `ssthresh`. Returns true if slow start applied.
pub fn slow_start(cwnd: &mut f64, ssthresh: f64, acked_pkts: u64) -> bool {
    if *cwnd < ssthresh {
        *cwnd += acked_pkts as f64;
        if *cwnd > ssthresh {
            *cwnd = ssthresh;
        }
        true
    } else {
        false
    }
}

/// Reno-style additive increase: `add_per_rtt` packets per RTT, implemented
/// as `add_per_rtt / cwnd` per newly ACKed packet.
pub fn ai_increase(cwnd: &mut f64, acked_pkts: u64, add_per_rtt: f64) {
    if *cwnd > 0.0 {
        *cwnd += add_per_rtt * acked_pkts as f64 / *cwnd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_transport::cc::CaState;

    fn view(cwnd: f64, delivered: u64) -> SocketView {
        SocketView {
            now: 0,
            mss: 1500,
            srtt: 0.05,
            rttvar: 0.0,
            latest_rtt: 0.05,
            prev_rtt: 0.05,
            min_rtt: 0.04,
            inflight_pkts: 0.0,
            inflight_bytes: 0,
            delivery_rate_bps: 0.0,
            prev_delivery_rate_bps: 0.0,
            max_delivery_rate_bps: 0.0,
            prev_max_delivery_rate_bps: 0.0,
            ca_state: CaState::Open,
            delivered_bytes_total: delivered,
            sent_bytes_total: 0,
            lost_bytes_total: 0,
            lost_pkts_total: 0,
            cwnd_pkts: cwnd,
            ssthresh_pkts: f64::INFINITY,
        }
    }

    #[test]
    fn round_tracker_fires_once_per_window() {
        let mut r = RoundTracker::default();
        assert!(r.update(&view(10.0, 0)));
        assert!(!r.update(&view(10.0, 1500)));
        assert!(!r.update(&view(10.0, 14_999)));
        assert!(r.update(&view(10.0, 15_000)));
        assert_eq!(r.rounds, 2);
    }

    #[test]
    fn slow_start_caps_at_ssthresh() {
        let mut cwnd = 9.0;
        assert!(slow_start(&mut cwnd, 10.0, 5));
        assert_eq!(cwnd, 10.0);
        assert!(!slow_start(&mut cwnd, 10.0, 5));
    }

    #[test]
    fn ai_increase_is_one_per_rtt() {
        let mut cwnd = 10.0;
        // A full window of ACKs adds approximately add_per_rtt.
        for _ in 0..10 {
            ai_increase(&mut cwnd, 1, 1.0);
        }
        assert!((cwnd - 11.0).abs() < 0.05, "cwnd {cwnd}");
    }
}
