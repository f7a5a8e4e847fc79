//! Hockney-style link cost model keyed by LCA depth.

use crate::tree::TopologyTree;

/// Parameters of one link class: `time(m) = alpha + beta * m` nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Fixed per-message latency in nanoseconds.
    pub alpha_ns: f64,
    /// Per-byte transfer time in nanoseconds (1/bandwidth).
    pub beta_ns_per_byte: f64,
}

impl LinkParams {
    /// Build from a latency in microseconds and a bandwidth in GB/s.
    pub fn from_latency_bandwidth(latency_us: f64, bandwidth_gbs: f64) -> Self {
        Self { alpha_ns: latency_us * 1e3, beta_ns_per_byte: 1.0 / bandwidth_gbs }
    }

    /// Transfer time for a message of `bytes` bytes, in nanoseconds.
    pub fn message_ns(&self, bytes: u64) -> f64 {
        self.alpha_ns + self.beta_ns_per_byte * bytes as f64
    }
}

/// Per-LCA-depth Hockney model.
///
/// Index `d` of [`CostModel::params`] gives the link class used when the two
/// communicating cores have their lowest common ancestor at depth `d`:
/// index 0 is the most remote class (e.g. cross-node through the switch) and
/// index `depth` is a self-message (same core, modelled as a memcpy).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    params: Vec<LinkParams>,
}

impl CostModel {
    /// Build from explicit per-LCA-depth parameters (`params.len() == depth + 1`).
    ///
    /// # Panics
    /// Panics when `params` is empty.
    pub fn new(params: Vec<LinkParams>) -> Self {
        assert!(!params.is_empty(), "cost model needs at least one link class");
        Self { params }
    }

    /// Parameters for a given LCA depth (clamped to the deepest class, so a
    /// model with fewer classes than the tree depth still works).
    pub fn params_at(&self, lca_depth: usize) -> LinkParams {
        self.params[lca_depth.min(self.params.len() - 1)]
    }

    /// Message time in nanoseconds between two cores with the given LCA depth.
    pub fn message_ns(&self, lca_depth: usize, bytes: u64) -> f64 {
        self.params_at(lca_depth).message_ns(bytes)
    }

    /// Message time between two *cores* of `tree`.
    pub fn message_between_ns(&self, tree: &TopologyTree, a: usize, b: usize, bytes: u64) -> f64 {
        self.message_ns(tree.lca_depth(a, b), bytes)
    }

    /// Default model for a `[nodes, sockets, cores]` cluster fabric similar
    /// to the paper's OmniPath 100 Gb/s PlaFRIM testbed:
    ///
    /// * cross-node: 1.5 µs + 12.5 GB/s,
    /// * cross-socket within a node: 0.5 µs + 20 GB/s,
    /// * within a socket: 0.25 µs + 40 GB/s,
    /// * self: 0.1 µs + 80 GB/s.
    pub fn cluster_default() -> Self {
        Self::new(vec![
            LinkParams::from_latency_bandwidth(1.5, 12.5),
            LinkParams::from_latency_bandwidth(0.5, 20.0),
            LinkParams::from_latency_bandwidth(0.25, 40.0),
            LinkParams::from_latency_bandwidth(0.1, 80.0),
        ])
    }

    /// Model for the paper's 2-node Infiniband EDR testbed (~100 Gb/s).
    pub fn edr_default() -> Self {
        Self::new(vec![
            LinkParams::from_latency_bandwidth(1.0, 12.0),
            LinkParams::from_latency_bandwidth(0.4, 24.0),
            LinkParams::from_latency_bandwidth(0.2, 48.0),
            LinkParams::from_latency_bandwidth(0.1, 80.0),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hockney_formula() {
        let p = LinkParams { alpha_ns: 1000.0, beta_ns_per_byte: 0.1 };
        assert_eq!(p.message_ns(0), 1000.0);
        assert_eq!(p.message_ns(10_000), 2000.0);
    }

    #[test]
    fn latency_bandwidth_conversion() {
        let p = LinkParams::from_latency_bandwidth(1.5, 12.5);
        assert!((p.alpha_ns - 1500.0).abs() < 1e-9);
        // 12.5 GB/s = 12.5 bytes per ns => 0.08 ns per byte.
        assert!((p.beta_ns_per_byte - 0.08).abs() < 1e-9);
    }

    #[test]
    fn closer_is_cheaper() {
        let m = CostModel::cluster_default();
        for bytes in [0u64, 64, 4096, 1 << 20] {
            let remote = m.message_ns(0, bytes);
            let node = m.message_ns(1, bytes);
            let socket = m.message_ns(2, bytes);
            let selfm = m.message_ns(3, bytes);
            assert!(remote > node && node > socket && socket > selfm);
        }
    }

    #[test]
    fn clamps_deep_lca() {
        let m = CostModel::new(vec![LinkParams { alpha_ns: 5.0, beta_ns_per_byte: 0.0 }]);
        assert_eq!(m.message_ns(7, 123), 5.0);
    }

    #[test]
    fn message_between_cores() {
        let t = TopologyTree::new(vec![2, 2, 2]);
        let m = CostModel::cluster_default();
        // leaves 0 and 4 are on different nodes; 0 and 1 on the same socket.
        assert!(m.message_between_ns(&t, 0, 4, 1024) > m.message_between_ns(&t, 0, 1, 1024));
    }
}
