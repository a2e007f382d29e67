//! Multi-bottleneck topologies: parking-lot and dumbbell-chain paths.
//!
//! The single-bottleneck model (one queue, one rate-limited link) cannot
//! express the regime where learned controllers break in practice: multi-hop
//! paths where each hop has its own queue, its own AQM and its own fault
//! process, and the *tightest* hop moves around as cross traffic and faults
//! shift. A [`Topology`] describes the hops downstream of the classic
//! bottleneck (hop 0, owned by the simulation config); each extra hop is a
//! full [`HopSpec`] with per-hop queueing and per-hop fault injection, so the
//! adversarial search can place congestion and faults anywhere on the path.

use crate::aqm::AqmKind;
use crate::faults::FaultPlan;
use crate::link::LinkModel;

/// One downstream hop of a multi-bottleneck chain: its own rate-limited
/// link, buffer, AQM, fault process, and the propagation delay separating it
/// from the previous hop's link.
#[derive(Debug, Clone)]
pub struct HopSpec {
    pub link: LinkModel,
    pub buffer_bytes: u64,
    pub aqm: AqmKind,
    /// Propagation delay between the previous hop's link and this hop's
    /// queue, milliseconds. Adds to the path's effective RTT.
    pub prop_ms: f64,
    /// Per-hop fault injection, applied to packets departing this hop.
    pub faults: FaultPlan,
}

impl HopSpec {
    /// A clean constant-rate hop with a TailDrop queue and no faults.
    pub fn constant(mbps: f64, buffer_bytes: u64, prop_ms: f64) -> Self {
        HopSpec {
            link: LinkModel::Constant { mbps },
            buffer_bytes,
            aqm: AqmKind::TailDrop,
            prop_ms,
            faults: FaultPlan::none(),
        }
    }
}

/// The hops a path traverses *after* the classic bottleneck (hop 0). The
/// default is empty: a plain single-bottleneck path, bit-identical to the
/// pre-topology simulator.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub extra_hops: Vec<HopSpec>,
}

impl Topology {
    /// The classic single-bottleneck path.
    pub fn single() -> Self {
        Topology::default()
    }

    /// True when the path has no downstream hops.
    pub fn is_single(&self) -> bool {
        self.extra_hops.is_empty()
    }

    /// Total hop count including the primary bottleneck.
    pub fn hops(&self) -> usize {
        1 + self.extra_hops.len()
    }

    /// Dumbbell chain: `n_extra` downstream hops, each a constant link at
    /// `ratio` x the base capacity with the same buffer. With `ratio > 1`
    /// the first hop stays the bottleneck (classic dumbbell); with
    /// `ratio < 1` the chain tightens downstream.
    pub fn dumbbell_chain(
        base_mbps: f64,
        n_extra: usize,
        ratio: f64,
        buffer_bytes: u64,
        prop_ms: f64,
    ) -> Self {
        Topology {
            extra_hops: (0..n_extra)
                .map(|_| HopSpec::constant(base_mbps * ratio, buffer_bytes, prop_ms))
                .collect(),
        }
    }

    /// Parking lot: capacity tightens geometrically hop over hop
    /// (`base * ratio`, `base * ratio^2`, ...), so with `ratio < 1` every
    /// hop is a bottleneck for the traffic that made it through the last.
    pub fn parking_lot(
        base_mbps: f64,
        n_extra: usize,
        ratio: f64,
        buffer_bytes: u64,
        prop_ms: f64,
    ) -> Self {
        Topology {
            extra_hops: (1..=n_extra)
                .map(|k| HopSpec::constant(base_mbps * ratio.powi(k as i32), buffer_bytes, prop_ms))
                .collect(),
        }
    }

    /// Minimum constant-rate capacity along the chain given the primary
    /// bottleneck's capacity (used for reward normalisation; time-varying
    /// links are sampled at t = 0).
    pub fn min_capacity_mbps(&self, base_mbps: f64) -> f64 {
        self.extra_hops
            .iter()
            .map(|h| h.link.rate_bps(0) / 1e6)
            .fold(base_mbps, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_bottleneck() {
        let t = Topology::default();
        assert!(t.is_single());
        assert_eq!(t.hops(), 1);
        assert_eq!(t.min_capacity_mbps(48.0), 48.0);
    }

    #[test]
    fn parking_lot_tightens_geometrically() {
        let t = Topology::parking_lot(100.0, 3, 0.8, 200_000, 5.0);
        assert_eq!(t.hops(), 4);
        let rates: Vec<f64> = t
            .extra_hops
            .iter()
            .map(|h| h.link.rate_bps(0) / 1e6)
            .collect();
        assert!((rates[0] - 80.0).abs() < 1e-9);
        assert!((rates[1] - 64.0).abs() < 1e-9);
        assert!((rates[2] - 51.2).abs() < 1e-9);
        assert!((t.min_capacity_mbps(100.0) - 51.2).abs() < 1e-9);
    }

    #[test]
    fn dumbbell_keeps_first_hop_bottleneck_when_ratio_above_one() {
        let t = Topology::dumbbell_chain(50.0, 2, 1.5, 100_000, 2.0);
        assert_eq!(t.hops(), 3);
        assert!((t.min_capacity_mbps(50.0) - 50.0).abs() < 1e-9);
    }
}
