//! Balanced topology tree described by per-level arities.

/// A balanced tree topology.
///
/// The tree is described by the arity of each internal level, from the root
/// downwards.  A cluster of 4 nodes with 2 sockets of 12 cores each is
/// `TopologyTree::new(vec![4, 2, 12])`: depth 3, 96 leaves.
///
/// Leaves are numbered left to right, so leaf `l`'s ancestor at depth `d` is
/// `l / subtree_size(d)` (in breadth-first numbering of that level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyTree {
    arities: Vec<usize>,
    /// `subtree_leaves[d]` = number of leaves under one node at depth `d`;
    /// `subtree_leaves[depth] == 1` (a leaf), `subtree_leaves[0]` = all leaves.
    subtree_leaves: Vec<usize>,
}

impl TopologyTree {
    /// Build a tree from per-level arities (root first).
    ///
    /// # Panics
    /// Panics if `arities` is empty or contains a zero.
    pub fn new(arities: Vec<usize>) -> Self {
        assert!(!arities.is_empty(), "topology needs at least one level");
        assert!(arities.iter().all(|&a| a > 0), "level arity must be > 0");
        let depth = arities.len();
        let mut subtree_leaves = vec![1usize; depth + 1];
        for d in (0..depth).rev() {
            subtree_leaves[d] = subtree_leaves[d + 1]
                .checked_mul(arities[d])
                .expect("topology leaf count overflows usize");
        }
        Self { arities, subtree_leaves }
    }

    /// Number of internal levels (a leaf is at depth `depth()`).
    pub fn depth(&self) -> usize {
        self.arities.len()
    }

    /// Total number of leaves (cores).
    pub fn num_leaves(&self) -> usize {
        self.subtree_leaves[0]
    }

    /// Number of leaves contained in one subtree rooted at `level`.
    ///
    /// `subtree_leaves(0)` is the whole machine, `subtree_leaves(depth())` is 1.
    pub fn subtree_leaves(&self, level: usize) -> usize {
        self.subtree_leaves[level]
    }

    /// Number of distinct subtrees rooted at `level`
    /// (e.g. number of nodes when `level` is the node level).
    pub fn nodes_at_level(&self, level: usize) -> usize {
        self.num_leaves() / self.subtree_leaves[level]
    }

    /// Index (breadth-first at that level) of the ancestor of `leaf` at `level`.
    pub fn ancestor(&self, leaf: usize, level: usize) -> usize {
        debug_assert!(leaf < self.num_leaves());
        leaf / self.subtree_leaves[level]
    }

    /// Depth of the lowest common ancestor of two leaves.
    ///
    /// Ranges over `0..=depth()`; equals `depth()` iff `a == b`.
    pub fn lca_depth(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < self.num_leaves() && b < self.num_leaves());
        // Deepest level at which both leaves fall in the same subtree.
        let mut lca = 0;
        for d in (0..=self.depth()).rev() {
            if a / self.subtree_leaves[d] == b / self.subtree_leaves[d] {
                lca = d;
                break;
            }
        }
        lca
    }

    /// Hop distance between two leaves: `2 * (depth - lca_depth)`.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        2 * (self.depth() - self.lca_depth(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plafrim4() -> TopologyTree {
        // 4 nodes x 2 sockets x 12 cores.
        TopologyTree::new(vec![4, 2, 12])
    }

    #[test]
    fn leaf_counts() {
        let t = plafrim4();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.num_leaves(), 96);
        assert_eq!(t.subtree_leaves(0), 96);
        assert_eq!(t.subtree_leaves(1), 24);
        assert_eq!(t.subtree_leaves(2), 12);
        assert_eq!(t.subtree_leaves(3), 1);
        assert_eq!(t.nodes_at_level(1), 4);
        assert_eq!(t.nodes_at_level(2), 8);
    }

    #[test]
    fn lca_same_leaf_is_depth() {
        let t = plafrim4();
        for l in [0, 5, 95] {
            assert_eq!(t.lca_depth(l, l), 3);
            assert_eq!(t.distance(l, l), 0);
        }
    }

    #[test]
    fn lca_levels() {
        let t = plafrim4();
        // Cores 0 and 1: same socket.
        assert_eq!(t.lca_depth(0, 1), 2);
        // Cores 0 and 12: same node, different sockets.
        assert_eq!(t.lca_depth(0, 12), 1);
        // Cores 0 and 24: different nodes.
        assert_eq!(t.lca_depth(0, 24), 0);
        assert_eq!(t.distance(0, 1), 2);
        assert_eq!(t.distance(0, 12), 4);
        assert_eq!(t.distance(0, 24), 6);
    }

    #[test]
    fn lca_is_symmetric() {
        let t = plafrim4();
        for a in (0..96).step_by(7) {
            for b in (0..96).step_by(11) {
                assert_eq!(t.lca_depth(a, b), t.lca_depth(b, a));
            }
        }
    }

    #[test]
    fn ancestor_consistency() {
        let t = plafrim4();
        assert_eq!(t.ancestor(25, 1), 1); // core 25 lives on node 1
        assert_eq!(t.ancestor(25, 2), 2); // ... socket 2 (global numbering)
        assert_eq!(t.ancestor(24, 1), t.ancestor(47, 1));
        assert_ne!(t.ancestor(23, 1), t.ancestor(24, 1));
    }

    #[test]
    fn single_level_tree() {
        let t = TopologyTree::new(vec![8]);
        assert_eq!(t.num_leaves(), 8);
        assert_eq!(t.lca_depth(0, 7), 0);
        assert_eq!(t.lca_depth(3, 3), 1);
    }

    #[test]
    #[should_panic]
    fn zero_arity_rejected() {
        TopologyTree::new(vec![4, 0, 12]);
    }
}
