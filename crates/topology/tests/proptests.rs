//! Property-based tests for the topology primitives.

use mim_topology::{inverse_permutation, CommMatrix, Placement, TopologyTree};
use mim_util::prop::Gen;
use mim_util::props;

fn arb_tree(g: &mut Gen) -> TopologyTree {
    let depth = g.gen_range(1usize..4);
    TopologyTree::new((0..depth).map(|_| g.gen_range(1usize..6)).collect())
}

props! {
    fn lca_is_symmetric_and_bounded(g) {
        let tree = arb_tree(g);
        let n = tree.num_leaves();
        let (a, b) = (g.index(n), g.index(n));
        let lca = tree.lca_depth(a, b);
        assert_eq!(lca, tree.lca_depth(b, a));
        assert!(lca <= tree.depth());
        assert_eq!(lca == tree.depth(), a == b);
    }

    fn distance_is_an_ultrametric(g) {
        let tree = arb_tree(g);
        let n = tree.num_leaves();
        let (a, b, c) = (g.index(n), g.index(n), g.index(n));
        let (dab, dbc, dac) = (tree.distance(a, b), tree.distance(b, c), tree.distance(a, c));
        // Tree level distance satisfies the strong triangle inequality.
        assert!(dac <= dab.max(dbc), "d({a},{c})={dac} > max({dab},{dbc})");
        assert_eq!(dab % 2, 0);
    }

    fn ancestors_nest(g) {
        let tree = arb_tree(g);
        let leaf = g.index(tree.num_leaves());
        // Walking up the tree, ancestor ids shrink consistently with level
        // sizes, and leaves under the same ancestor stay grouped.
        for level in 0..tree.depth() {
            let anc = tree.ancestor(leaf, level);
            assert!(anc < tree.nodes_at_level(level));
            let child = tree.ancestor(leaf, level + 1);
            let per = tree.subtree_leaves(level) / tree.subtree_leaves(level + 1);
            assert_eq!(child / per, anc);
        }
    }

    fn random_placement_is_injective(g) {
        let tree = arb_tree(g);
        let seed = g.any_u64();
        let n = (tree.num_leaves() / 2).max(1);
        let p = Placement::random(&tree, n, seed);
        let mut cores: Vec<usize> = p.as_slice().to_vec();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), n);
        assert!(p.as_slice().iter().all(|&c| c < tree.num_leaves()));
    }

    fn cyclic_placement_spreads_evenly(g) {
        let tree = arb_tree(g);
        let level = 1.min(tree.depth());
        let groups = tree.nodes_at_level(level);
        let n = groups * 2.min(tree.subtree_leaves(level));
        if n <= tree.num_leaves() && 2 <= tree.subtree_leaves(level) {
            let p = Placement::cyclic_by_level(&tree, n, level);
            let mut per_group = vec![0usize; groups];
            for i in 0..n {
                per_group[tree.ancestor(p.core_of(i), level)] += 1;
            }
            assert!(per_group.iter().all(|&c| c == n / groups));
        }
    }

    fn permutation_inverse_roundtrip(g) {
        let perm = g.permutation(12);
        let inv = inverse_permutation(&perm);
        let back = inverse_permutation(&inv);
        assert_eq!(back, perm);
    }

    /// The sparse rows against a dense `n × n` buffer fed the same random
    /// `set` / `add` sequence, writes of 0 included; `pairs()` against the
    /// dense `i < j` scan it replaced.
    fn sparse_matrix_equals_dense_reference(g) {
        let n = g.gen_range(1usize..9);
        let mut m = CommMatrix::zeros(n);
        let mut dense = vec![0u64; n * n];
        for _ in 0..g.gen_range(0..4 * n * n) {
            let (i, j) = (g.index(n), g.index(n));
            let v = *g.choose(&[0u64, 1, 7, 1000]);
            if g.any_bool() {
                m.set(i, j, v);
                dense[i * n + j] = v;
            } else {
                m.add(i, j, v);
                dense[i * n + j] += v;
            }
        }
        for i in 0..n {
            let row: Vec<(usize, u64)> =
                (0..n).map(|j| (j, dense[i * n + j])).filter(|&(_, v)| v != 0).collect();
            assert_eq!(m.row(i), &row[..], "row {i}");
        }
        assert_eq!(m.total(), dense.iter().sum::<u64>());
        assert_eq!(m.nnz(), dense.iter().filter(|&&v| v != 0).count());
        let mut scan = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let w = dense[i * n + j] + dense[j * n + i];
                if w > 0 {
                    scan.push((i, j, w));
                }
            }
        }
        assert_eq!(m.pairs(), scan);
    }
}
