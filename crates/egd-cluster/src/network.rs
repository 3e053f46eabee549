//! Interconnect timing models: torus point-to-point and collective network.
//!
//! Blue Gene systems have two networks the paper uses explicitly (§V-B):
//! a torus for point-to-point messages (3-D on BG/P, 5-D on BG/Q) and a
//! dedicated collective network for broadcasts and reductions. Both are
//! modelled with the standard latency + size/bandwidth form, with torus
//! latency proportional to the hop count of the route.

use serde::{Deserialize, Serialize};

/// An n-dimensional torus network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TorusNetwork {
    /// Nodes along each dimension.
    dims: Vec<u32>,
    /// Per-link bandwidth in GiB/s.
    link_bandwidth_gib_s: f64,
    /// Per-hop latency in microseconds.
    hop_latency_us: f64,
}

impl TorusNetwork {
    /// Creates a torus with the given dimensions, link bandwidth (GiB/s) and
    /// per-hop latency (µs).
    pub(crate) fn new(dims: Vec<u32>, link_bandwidth_gib_s: f64, hop_latency_us: f64) -> Self {
        assert!(!dims.is_empty(), "a torus needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "torus dimensions must be positive"
        );
        TorusNetwork {
            dims,
            link_bandwidth_gib_s,
            hop_latency_us,
        }
    }

    /// Average hop count of a uniformly random pair, approximated as the sum
    /// of `d/4` per dimension (exact for even dimension sizes).
    pub(crate) fn average_hops(&self) -> f64 {
        self.dims.iter().map(|&d| d as f64 / 4.0).sum()
    }

    /// Time in microseconds for a point-to-point message of `bytes` over
    /// `hops` hops.
    pub(crate) fn p2p_time_us(&self, bytes: usize, hops: u32) -> f64 {
        let latency = self.hop_latency_us * hops.max(1) as f64;
        let transfer = bytes as f64 / (self.link_bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0) * 1e6;
        latency + transfer
    }
}

/// The collective (tree) network used for broadcasts and reductions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveNetwork {
    /// Bandwidth in GiB/s.
    bandwidth_gib_s: f64,
    /// Per-stage latency in microseconds.
    stage_latency_us: f64,
}

impl CollectiveNetwork {
    /// Creates a collective-network model.
    pub(crate) fn new(bandwidth_gib_s: f64, stage_latency_us: f64) -> Self {
        CollectiveNetwork {
            bandwidth_gib_s,
            stage_latency_us,
        }
    }

    /// Number of tree stages needed to reach `num_ranks` ranks
    /// (`ceil(log2 P)`, at least 1). Delegates to [`crate::collective`] — the
    /// same binomial tree the simulated transport executes, so the model
    /// prices the schedule that actually runs.
    pub(crate) fn stages(num_ranks: usize) -> u32 {
        crate::collective::stages(num_ranks)
    }

    /// Time in microseconds to broadcast `bytes` to `num_ranks` ranks.
    pub(crate) fn broadcast_time_us(&self, bytes: usize, num_ranks: usize) -> f64 {
        let stages = Self::stages(num_ranks) as f64;
        let transfer = bytes as f64 / (self.bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0) * 1e6;
        stages * self.stage_latency_us + transfer
    }

    /// Time to reduce `bytes` from `num_ranks` ranks to the root (same shape
    /// as a broadcast on this class of networks).
    pub(crate) fn reduce_time_us(&self, bytes: usize, num_ranks: usize) -> f64 {
        self.broadcast_time_us(bytes, num_ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus3() -> TorusNetwork {
        TorusNetwork::new(vec![4, 4, 4], 1.0, 1.0)
    }

    #[test]
    fn average_hops_is_reasonable() {
        let t = torus3();
        assert!((t.average_hops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn p2p_time_grows_with_hops_and_bytes() {
        let t = torus3();
        assert!(t.p2p_time_us(1024, 4) > t.p2p_time_us(1024, 1));
        assert!(t.p2p_time_us(1 << 20, 1) > t.p2p_time_us(1024, 1));
    }

    #[test]
    fn collective_stages() {
        assert_eq!(CollectiveNetwork::stages(1), 1);
        assert_eq!(CollectiveNetwork::stages(2), 1);
        assert_eq!(CollectiveNetwork::stages(3), 2);
        assert_eq!(CollectiveNetwork::stages(1024), 10);
        assert_eq!(CollectiveNetwork::stages(294_912), 19);
    }

    #[test]
    fn broadcast_time_grows_logarithmically() {
        let c = CollectiveNetwork::new(1.0, 2.0);
        let t1k = c.broadcast_time_us(512, 1024);
        let t256k = c.broadcast_time_us(512, 262_144);
        assert!(t256k > t1k);
        // Going from 2^10 to 2^18 ranks adds exactly 8 stages of latency.
        assert!((t256k - t1k - 8.0 * 2.0).abs() < 1e-9);
        assert_eq!(c.reduce_time_us(512, 1024), t1k);
    }

    #[test]
    #[should_panic(expected = "torus dimensions must be positive")]
    fn zero_dimension_panics() {
        TorusNetwork::new(vec![4, 0], 1.0, 1.0);
    }
}
