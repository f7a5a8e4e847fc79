//! The mapping-cost evaluator TreeMatch's results are compared by.

use mim_topology::{CommMatrix, TopologyTree};

/// Hop-distance cost of a mapping: `Σ w(i, j) · distance(core_i, core_j)`
/// over unordered pairs.  `cores[p]` is the core (leaf) hosting process `p`.
/// This is the objective TreeMatch minimizes.
pub fn mapping_distance_cost(tree: &TopologyTree, cores: &[usize], affinity: &CommMatrix) -> u64 {
    affinity.pairs().into_iter().map(|(i, j, w)| w * tree.distance(cores[i], cores[j]) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_cost_counts_hops() {
        let tree = TopologyTree::new(vec![2, 2]); // 4 leaves
        let mut m = CommMatrix::zeros(2);
        m.set(0, 1, 10);
        // Same subtree: distance 2; across the root: distance 4.
        assert_eq!(mapping_distance_cost(&tree, &[0, 1], &m), 20);
        assert_eq!(mapping_distance_cost(&tree, &[0, 2], &m), 40);
    }

    #[test]
    fn empty_affinity_costs_nothing() {
        let tree = TopologyTree::new(vec![2, 2]);
        let m = CommMatrix::zeros(3);
        assert_eq!(mapping_distance_cost(&tree, &[0, 1, 2], &m), 0);
    }
}
