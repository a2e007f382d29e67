//! Serving-scale scenario generation: many flows sharing one bottleneck.
//!
//! The serving runtime (`crates/serve`) is exercised against shared-
//! bottleneck runs with N batch-served learned flows plus M heuristic
//! cross-traffic flows — the regime where learned controllers are least
//! tested and per-flow inference cost matters most. This module only
//! derives the network-level parameters (link, buffer, staggered starts);
//! wiring flows in belongs to the transport/serve layers.

use crate::link::LinkModel;
use crate::time::{from_secs, Nanos};
use sage_util::Rng;

/// A shared-bottleneck many-flow scenario: N learned + M cross-traffic
/// flows over one link whose capacity scales with the flow count, with a
/// one-BDP buffer and a 40 ms round trip.
#[derive(Debug, Clone)]
pub struct ManyFlowScenario {
    /// Batch-served learned flows.
    pub n_learned: usize,
    /// Heuristic cross-traffic flows.
    pub m_cross: usize,
    /// Run length, seconds.
    pub secs: f64,
    pub seed: u64,
}

impl ManyFlowScenario {
    /// Bottleneck capacity per flow, Mbit/s (total = per-flow x flows, so
    /// the fair share stays constant as N scales to 512).
    const MBPS_PER_FLOW: f64 = 1.5;
    /// Round-trip propagation delay, ms.
    pub const RTT_MS: f64 = 40.0;
    /// Flow starts are staggered uniformly over this window: a
    /// thundering-herd start would phase-lock hundreds of flows on the
    /// same DropTail queue.
    const STAGGER_SECS: f64 = 1.0;

    pub fn shared_bottleneck(n_learned: usize, m_cross: usize, seed: u64) -> Self {
        ManyFlowScenario {
            n_learned,
            m_cross,
            secs: 10.0,
            seed,
        }
    }

    pub fn total_flows(&self) -> usize {
        self.n_learned + self.m_cross
    }

    pub fn total_mbps(&self) -> f64 {
        Self::MBPS_PER_FLOW * self.total_flows() as f64
    }

    pub fn link(&self) -> LinkModel {
        LinkModel::Constant {
            mbps: self.total_mbps(),
        }
    }

    /// Bandwidth-delay product of the shared link, bytes.
    pub fn bdp_bytes(&self) -> u64 {
        crate::internet::bdp_bytes(self.total_mbps(), Self::RTT_MS)
    }

    /// Bottleneck buffer, one BDP, bytes (floored so tiny scenarios stay
    /// runnable).
    pub fn buffer_bytes(&self) -> u64 {
        self.bdp_bytes().max(30_000)
    }

    pub fn duration(&self) -> Nanos {
        from_secs(self.secs)
    }

    /// Deterministic staggered start times, one per flow — learned flows
    /// first (indices `0..n_learned`), cross traffic after. Derived from
    /// the scenario seed only, never from global state.
    pub fn start_times(&self) -> Vec<Nanos> {
        let mut rng = Rng::new(self.seed ^ 0x5CE9_A810);
        let window = from_secs(Self::STAGGER_SECS) as f64;
        (0..self.total_flows())
            .map(|_| (rng.uniform() * window) as Nanos)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_with_flow_count() {
        let small = ManyFlowScenario::shared_bottleneck(4, 2, 1);
        let big = ManyFlowScenario::shared_bottleneck(512, 2, 1);
        assert_eq!(small.total_flows(), 6);
        assert!((small.total_mbps() - 9.0).abs() < 1e-12);
        // Fair share per flow is constant as N grows.
        let fs_small = small.total_mbps() / small.total_flows() as f64;
        let fs_big = big.total_mbps() / big.total_flows() as f64;
        assert!((fs_small - fs_big).abs() < 1e-12);
        assert!(big.buffer_bytes() > small.buffer_bytes());
    }

    #[test]
    fn start_times_are_deterministic_and_staggered() {
        let sc = ManyFlowScenario::shared_bottleneck(64, 6, 7);
        let a = sc.start_times();
        let b = sc.start_times();
        assert_eq!(a, b);
        assert_eq!(a.len(), 70);
        let window = from_secs(ManyFlowScenario::STAGGER_SECS);
        assert!(a.iter().all(|&t| t < window));
        // Not all identical (the whole point of staggering).
        assert!(a.iter().any(|&t| t != a[0]));
        // Different seeds move the starts.
        let c = ManyFlowScenario::shared_bottleneck(64, 6, 8).start_times();
        assert_ne!(a, c);
    }
}
