//! Named machine presets bundling a topology tree with a cost model.

use crate::cost::CostModel;
use crate::tree::TopologyTree;

/// A machine: a topology tree plus a link cost model, with conventional level
/// meanings `[node, socket, core]` below the cluster root.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Human-readable name used in experiment output.
    pub name: String,
    /// The structural tree (arities `[nodes, sockets, cores]`).
    pub tree: TopologyTree,
    /// Hockney parameters per LCA depth.
    pub cost: CostModel,
    /// Depth of the *node* level in the tree (1 for the standard 3-level
    /// cluster): messages whose LCA is shallower than this cross the NIC.
    pub node_level: usize,
}

impl Machine {
    /// Generic cluster of `nodes` × `sockets` × `cores` with the default
    /// OmniPath-like cost model.
    pub fn cluster(nodes: usize, sockets: usize, cores: usize) -> Self {
        Self {
            name: format!("cluster-{nodes}x{sockets}x{cores}"),
            tree: TopologyTree::new(vec![nodes, sockets, cores]),
            cost: CostModel::cluster_default(),
            node_level: 1,
        }
    }

    /// PlaFRIM-like machine from the paper: dual-socket 12-core Haswell
    /// nodes on a 100 Gb/s OmniPath switch (24 cores per node).
    pub fn plafrim(nodes: usize) -> Self {
        let mut m = Self::cluster(nodes, 2, 12);
        m.name = format!("plafrim-{nodes}n");
        m
    }

    /// The 2-node Infiniband EDR + Xeon 6140 testbed of the paper's Sec 6.1.
    pub fn two_node_edr() -> Self {
        Self {
            name: "edr-2n".to_string(),
            tree: TopologyTree::new(vec![2, 2, 18]),
            cost: CostModel::edr_default(),
            node_level: 1,
        }
    }

    /// Number of cores in the machine.
    pub fn num_cores(&self) -> usize {
        self.tree.num_leaves()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.tree.nodes_at_level(self.node_level)
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.tree.subtree_leaves(self.node_level)
    }

    /// Node hosting a given core.
    pub fn node_of_core(&self, core: usize) -> usize {
        self.tree.ancestor(core, self.node_level)
    }

    /// True when a message between these cores crosses the network
    /// (i.e. leaves a node and would be seen by the NIC hardware counters).
    pub fn crosses_network(&self, core_a: usize, core_b: usize) -> bool {
        self.tree.lca_depth(core_a, core_b) < self.node_level
    }

    /// Message time in nanoseconds between two cores.
    pub fn message_ns(&self, core_a: usize, core_b: usize, bytes: u64) -> f64 {
        self.cost.message_between_ns(&self.tree, core_a, core_b, bytes)
    }

    /// Link parameters of the channel between two cores.
    pub fn link_params(&self, core_a: usize, core_b: usize) -> crate::cost::LinkParams {
        self.cost.params_at(self.tree.lca_depth(core_a, core_b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plafrim_shape() {
        let m = Machine::plafrim(4);
        assert_eq!(m.num_cores(), 96);
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(m.cores_per_node(), 24);
        assert_eq!(m.node_of_core(0), 0);
        assert_eq!(m.node_of_core(23), 0);
        assert_eq!(m.node_of_core(24), 1);
    }

    #[test]
    fn network_crossing() {
        let m = Machine::plafrim(2);
        assert!(m.crosses_network(0, 24));
        assert!(!m.crosses_network(0, 23));
        assert!(!m.crosses_network(5, 5));
    }

    #[test]
    fn edr_testbed() {
        let m = Machine::two_node_edr();
        assert_eq!(m.num_nodes(), 2);
        assert_eq!(m.cores_per_node(), 36);
    }

    #[test]
    fn intra_node_is_faster() {
        let m = Machine::plafrim(2);
        assert!(m.message_ns(0, 24, 1 << 20) > m.message_ns(0, 1, 1 << 20));
    }
}
