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
use crate::topology::Topology;
use sage_util::Rng;

/// A shared-bottleneck many-flow scenario: N learned + M cross-traffic
/// flows over one link whose capacity scales with the flow count.
#[derive(Debug, Clone)]
pub struct ManyFlowScenario {
    /// Batch-served learned flows.
    pub n_learned: usize,
    /// Heuristic cross-traffic flows.
    pub m_cross: usize,
    /// Bottleneck capacity per flow, Mbit/s (total = per-flow x flows, so
    /// the fair share stays constant as N scales to 512).
    pub mbps_per_flow: f64,
    /// Round-trip propagation delay, ms.
    pub rtt_ms: f64,
    /// Bottleneck buffer in BDP multiples.
    pub buffer_bdp: f64,
    /// Run length, seconds.
    pub secs: f64,
    /// Flow starts are staggered uniformly over this window: a
    /// thundering-herd start would phase-lock hundreds of flows on the
    /// same DropTail queue.
    pub stagger_secs: f64,
    pub seed: u64,
    /// Hops downstream of the shared bottleneck (empty = classic
    /// single-bottleneck scenario; see [`Topology`]).
    pub topology: Topology,
}

impl ManyFlowScenario {
    pub fn shared_bottleneck(n_learned: usize, m_cross: usize, seed: u64) -> Self {
        ManyFlowScenario {
            n_learned,
            m_cross,
            mbps_per_flow: 1.5,
            rtt_ms: 40.0,
            buffer_bdp: 1.0,
            secs: 10.0,
            stagger_secs: 1.0,
            seed,
            topology: Topology::single(),
        }
    }

    /// A parking-lot variant: the shared bottleneck followed by `n_extra`
    /// downstream hops whose capacity tightens geometrically (`ratio` per
    /// hop, each with its own buffer and queue). Multi-hop contention is
    /// exactly the regime where the 64-flow single-bottleneck run already
    /// showed fairness collapse — this gives the search room to widen it.
    pub fn parking_lot(
        n_learned: usize,
        m_cross: usize,
        n_extra: usize,
        ratio: f64,
        seed: u64,
    ) -> Self {
        let mut sc = Self::shared_bottleneck(n_learned, m_cross, seed);
        sc.topology = Topology::parking_lot(
            sc.total_mbps(),
            n_extra,
            ratio,
            sc.buffer_bytes(),
            2.0, // per-hop propagation, ms
        );
        sc
    }

    pub fn total_flows(&self) -> usize {
        self.n_learned + self.m_cross
    }

    pub fn total_mbps(&self) -> f64 {
        self.mbps_per_flow * self.total_flows() as f64
    }

    pub fn link(&self) -> LinkModel {
        LinkModel::Constant {
            mbps: self.total_mbps(),
        }
    }

    /// Bandwidth-delay product of the shared link, bytes.
    pub fn bdp_bytes(&self) -> u64 {
        crate::internet::bdp_bytes(self.total_mbps(), self.rtt_ms)
    }

    /// Bottleneck buffer, bytes (floored so tiny scenarios stay runnable).
    pub fn buffer_bytes(&self) -> u64 {
        ((self.bdp_bytes() as f64 * self.buffer_bdp) as u64).max(30_000)
    }

    pub fn duration(&self) -> Nanos {
        from_secs(self.secs)
    }

    /// Deterministic staggered start times, one per flow — learned flows
    /// first (indices `0..n_learned`), cross traffic after. Derived from
    /// the scenario seed only, never from global state.
    pub fn start_times(&self) -> Vec<Nanos> {
        let mut rng = Rng::new(self.seed ^ 0x5CE9_A810);
        let window = from_secs(self.stagger_secs) as f64;
        (0..self.total_flows())
            .map(|_| (rng.uniform() * window) as Nanos)
            .collect()
    }

    pub fn label(&self) -> String {
        let hops = if self.topology.is_single() {
            String::new()
        } else {
            format!("-hops{}", self.topology.hops())
        };
        format!(
            "manyflow-n{}-m{}-{}mbpf-{}ms{hops}-seed{}",
            self.n_learned, self.m_cross, self.mbps_per_flow, self.rtt_ms, self.seed
        )
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
        let window = from_secs(sc.stagger_secs);
        assert!(a.iter().all(|&t| t < window));
        // Not all identical (the whole point of staggering).
        assert!(a.iter().any(|&t| t != a[0]));
        // Different seeds move the starts.
        let c = ManyFlowScenario::shared_bottleneck(64, 6, 8).start_times();
        assert_ne!(a, c);
    }
}
