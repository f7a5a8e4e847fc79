//! The balanced bottom-up TreeMatch algorithm.

use mim_topology::CommMatrix;
use mim_util::hash::IdMap;

use crate::grouping::{group_exhaustive, group_greedy};

/// How each level's grouping problem is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupingStrategy {
    /// Exhaustive when the level is small enough, greedy otherwise.
    Auto,
    /// Always greedy pair-merging (fast, scales to Table 1 sizes).
    Greedy,
    /// Always exhaustive best-disjoint-groups (small instances only).
    Exhaustive,
}

/// TreeMatch on a balanced tree given by per-level `arities` (root first):
/// returns `sigma` with `sigma[p]` = leaf (core) assigned to process `p`.
///
/// Processes in excess of the affinity order are padded internally with
/// zero-affinity virtual processes, as in the original algorithm, so any
/// `order() <= product(arities)` works.
///
/// # Panics
/// Panics when the affinity has more processes than the tree has leaves.
pub fn tree_match(arities: &[usize], affinity: &CommMatrix) -> Vec<usize> {
    tree_match_with(arities, affinity, GroupingStrategy::Auto)
}

/// [`tree_match`] with an explicit grouping strategy.
pub(crate) fn tree_match_with(
    arities: &[usize],
    affinity: &CommMatrix,
    strategy: GroupingStrategy,
) -> Vec<usize> {
    let leaves: usize = arities.iter().product();
    let n = affinity.order();
    assert!(n > 0, "affinity must cover at least one process");
    assert!(n <= leaves, "{n} processes cannot fit on {leaves} leaves");
    // Objects carry their member-process lists; ids >= n are virtual.
    let mut members: Vec<Vec<usize>> = (0..leaves).map(|i| vec![i]).collect();
    let mut pairs = affinity.pairs();
    let depth = arities.len();
    // Group bottom-up; the last step leaves `arities[0]` objects, which
    // become the root's children in produced order.
    for level in (1..depth).rev() {
        let a = arities[level];
        let k = members.len();
        if a == 1 {
            continue; // degenerate level: nothing to group
        }
        let groups = match resolve_strategy(strategy, k, a) {
            GroupingStrategy::Exhaustive => group_exhaustive(k, a, &pairs),
            _ => group_greedy(k, a, &pairs),
        };
        // Fold member lists into their group, preserving group order (this
        // order is the DFS order of the final assignment).
        let mut group_of = vec![usize::MAX; k];
        for (gi, g) in groups.iter().enumerate() {
            for &x in g {
                group_of[x] = gi;
            }
        }
        members = groups
            .iter()
            .map(|g| g.iter().flat_map(|&x| std::mem::take(&mut members[x])).collect())
            .collect();
        // Aggregate affinity between groups.
        let mut agg: IdMap<(usize, usize), u64> = IdMap::default();
        for &(i, j, w) in &pairs {
            let (gi, gj) = (group_of[i], group_of[j]);
            if gi != gj {
                let key = (gi.min(gj), gi.max(gj));
                *agg.entry(key).or_default() += w;
            }
        }
        pairs = agg.into_iter().map(|((i, j), w)| (i, j, w)).collect();
        pairs.sort_unstable();
    }
    // Flatten: leaf index = position in the concatenated member lists.
    let mut sigma = vec![usize::MAX; n];
    let mut leaf = 0;
    for group in members {
        for p in group {
            if p < n {
                sigma[p] = leaf;
            }
            leaf += 1;
        }
    }
    debug_assert_eq!(leaf, leaves);
    sigma
}

fn resolve_strategy(strategy: GroupingStrategy, k: usize, a: usize) -> GroupingStrategy {
    match strategy {
        GroupingStrategy::Auto => {
            // Exhaustive only when enumerating C(k, a) groups is cheap.
            if combinations_at_most(k, a, 20_000) {
                GroupingStrategy::Exhaustive
            } else {
                GroupingStrategy::Greedy
            }
        }
        s => s,
    }
}

fn combinations_at_most(n: usize, k: usize, bound: u128) -> bool {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > bound {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{from_pairs, stencil2d};
    use crate::cost::mapping_distance_cost;
    use mim_topology::{CommMatrix, TopologyTree};
    use mim_util::prop::Gen;

    fn assert_injective(sigma: &[usize], leaves: usize) {
        let mut seen = vec![false; leaves];
        for &s in sigma {
            assert!(s < leaves, "leaf {s} out of range");
            assert!(!seen[s], "leaf {s} assigned twice");
            seen[s] = true;
        }
    }

    /// Two cliques of 4 that should land on the two nodes of a [2, 2, 2]
    /// machine.
    fn two_cliques() -> CommMatrix {
        let mut m = CommMatrix::zeros(8);
        for &(group, base) in &[(0, 0), (1, 4)] {
            let _ = group;
            for i in base..base + 4 {
                for j in base..base + 4 {
                    if i != j {
                        m.set(i, j, 100);
                    }
                }
            }
        }
        // Weak cross-traffic that must not dominate.
        m.set(0, 7, 1);
        m
    }

    #[test]
    fn cliques_stay_on_their_node() {
        let arities = [2usize, 2, 2];
        let tree = TopologyTree::new(arities.to_vec());
        let sigma = tree_match(&arities, &two_cliques());
        assert_injective(&sigma, 8);
        // Each clique's 4 processes share a node (lca depth >= 1).
        for base in [0usize, 4] {
            for i in base..base + 4 {
                for j in base..base + 4 {
                    assert!(
                        tree.lca_depth(sigma[i], sigma[j]) >= 1,
                        "processes {i},{j} split across nodes: {sigma:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn beats_identity_on_interleaved_cliques() {
        // Processes 0,2,4,6 form one clique and 1,3,5,7 the other: identity
        // placement splits both cliques across nodes.
        let mut m = CommMatrix::zeros(8);
        for i in (0..8).step_by(2) {
            for j in (0..8).step_by(2) {
                if i != j {
                    m.set(i, j, 50);
                    m.set(i + 1, j + 1, 50);
                }
            }
        }
        let arities = [2usize, 2, 2];
        let tree = TopologyTree::new(arities.to_vec());
        let sigma = tree_match(&arities, &m);
        assert_injective(&sigma, 8);
        let identity: Vec<usize> = (0..8).collect();
        assert!(
            mapping_distance_cost(&tree, &sigma, &m) < mapping_distance_cost(&tree, &identity, &m)
        );
    }

    #[test]
    fn fewer_processes_than_leaves() {
        let mut m = CommMatrix::zeros(5);
        m.set(0, 1, 10);
        m.set(2, 3, 10);
        let arities = [2usize, 2, 3]; // 12 leaves
        let tree = TopologyTree::new(arities.to_vec());
        // `Auto` is exhaustive at this size; greedy pads the same way.
        for strategy in [GroupingStrategy::Auto, GroupingStrategy::Greedy] {
            let sigma = tree_match_with(&arities, &m, strategy);
            assert_eq!(sigma.len(), 5);
            assert_injective(&sigma, 12);
            // The heavy pairs share a socket.
            assert!(tree.lca_depth(sigma[0], sigma[1]) >= 2, "{strategy:?}");
            assert!(tree.lca_depth(sigma[2], sigma[3]) >= 2, "{strategy:?}");
        }
    }

    #[test]
    fn strategies_agree_on_separable_instances() {
        let m = two_cliques();
        let arities = [2usize, 2, 2];
        let tree = TopologyTree::new(arities.to_vec());
        let g = tree_match_with(&arities, &m, GroupingStrategy::Greedy);
        let e = tree_match_with(&arities, &m, GroupingStrategy::Exhaustive);
        assert_eq!(mapping_distance_cost(&tree, &g, &m), mapping_distance_cost(&tree, &e, &m),);
    }

    #[test]
    fn exhaustive_no_worse_than_greedy() {
        let pairs = vec![
            (0, 1, 9),
            (0, 2, 8),
            (1, 2, 1),
            (3, 4, 7),
            (4, 5, 6),
            (3, 5, 1),
            (0, 5, 5),
            (2, 3, 4),
            (1, 4, 3),
            (6, 7, 2),
        ];
        let aff = from_pairs(8, pairs);
        let arities = [2usize, 2, 2];
        let tree = TopologyTree::new(arities.to_vec());
        let g = tree_match_with(&arities, &aff, GroupingStrategy::Greedy);
        let e = tree_match_with(&arities, &aff, GroupingStrategy::Exhaustive);
        assert!(mapping_distance_cost(&tree, &e, &aff) <= mapping_distance_cost(&tree, &g, &aff));
    }

    fn arb_sparse(g: &mut Gen, n: usize, max_edges: usize) -> CommMatrix {
        let pairs = g.vec(0..max_edges, |g| (g.index(n), g.index(n), g.gen_range(1u64..10_000)));
        from_pairs(n, pairs.into_iter().filter(|&(i, j, _)| i != j))
    }

    mim_util::props! {
        fn exhaustive_at_least_as_cohesive_as_greedy(g) {
            let aff = arb_sparse(g, 8, 16);
            let arities = [2usize, 2, 2];
            let tree = TopologyTree::new(arities.to_vec());
            let gr = tree_match_with(&arities, &aff, GroupingStrategy::Greedy);
            let e = tree_match_with(&arities, &aff, GroupingStrategy::Exhaustive);
            // Not a theorem level-by-level, but exhaustive should rarely lose;
            // allow a small slack to keep the property honest yet tight.
            let cg = mapping_distance_cost(&tree, &gr, &aff);
            let ce = mapping_distance_cost(&tree, &e, &aff);
            assert!(ce <= cg + cg / 4 + 8, "exhaustive {ce} much worse than greedy {cg}");
        }
    }

    #[test]
    fn stencil_large_sparse_runs_greedy() {
        // 16x16 stencil on a 4-node machine: mostly a smoke + quality test.
        let aff = stencil2d(16, 16, 1);
        let arities = [4usize, 2, 32];
        let tree = TopologyTree::new(arities.to_vec());
        let sigma = tree_match_with(&arities, &aff, GroupingStrategy::Greedy);
        assert_injective(&sigma, 256);
        // Better than a row-scattered placement.
        let scattered: Vec<usize> = (0..256).map(|p| (p % 4) * 64 + p / 4).collect();
        assert!(
            mapping_distance_cost(&tree, &sigma, &aff)
                < mapping_distance_cost(&tree, &scattered, &aff)
        );
    }

    #[test]
    fn single_level_tree_is_identity_like() {
        let mut m = CommMatrix::zeros(3);
        m.set(0, 1, 4);
        let sigma = tree_match(&[4], &m);
        assert_injective(&sigma, 4);
    }

    #[test]
    #[should_panic]
    fn too_many_processes_rejected() {
        let m = CommMatrix::zeros(9);
        tree_match(&[2, 2, 2], &m);
    }
}
