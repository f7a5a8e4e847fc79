//! Property-based tests for TreeMatch and the constrained partitioner.

use mim_topology::{CommMatrix, Machine};
use mim_treematch::affinity::from_pairs;
use mim_treematch::grouping::{group_greedy, grouping_value};
use mim_treematch::{place_constrained, tree_match};
use mim_util::prop::Gen;
use mim_util::props;
use mim_util::rng::Rng;

fn arb_sparse(g: &mut Gen, n: usize, max_edges: usize) -> CommMatrix {
    let pairs = g.vec(0..max_edges, |g| (g.index(n), g.index(n), g.gen_range(1u64..10_000)));
    from_pairs(n, pairs.into_iter().filter(|&(i, j, _)| i != j))
}

fn assert_injective(sigma: &[usize], slots: usize) {
    let mut seen = vec![false; slots];
    for &s in sigma {
        assert!(s < slots, "slot {s} out of range");
        assert!(!seen[s], "slot {s} assigned twice");
        seen[s] = true;
    }
}

props! {
    fn tree_match_yields_injective_assignment(g) {
        let aff = arb_sparse(g, 10, 25);
        // 10 processes on a 2x2x4 = 16-leaf tree.
        let sigma = tree_match(&[2, 2, 4], &aff);
        assert_eq!(sigma.len(), 10);
        assert_injective(&sigma, 16);
    }

    fn tree_match_is_deterministic(g) {
        let aff = arb_sparse(g, 8, 20);
        let a = tree_match(&[2, 2, 2], &aff);
        let b = tree_match(&[2, 2, 2], &aff);
        assert_eq!(a, b);
    }

    fn constrained_placement_is_valid(g) {
        let aff = arb_sparse(g, 9, 25);
        let seed = g.any_u64();
        let machine = Machine::cluster(2, 2, 4);
        let mut all: Vec<usize> = (0..machine.num_cores()).collect();
        let mut rng = Rng::seed_from_u64(seed);
        rng.shuffle(&mut all);
        let slots = &all[..12];
        let sigma = place_constrained(&machine, slots, &aff);
        assert_eq!(sigma.len(), 9);
        assert_injective(&sigma, 12);
    }

    fn greedy_grouping_partitions(g) {
        let pairs: Vec<(usize, usize, u64)> = g
            .vec(0..30, |g| (g.index(12), g.index(12), g.gen_range(1u64..100)))
            .into_iter()
            .filter(|&(i, j, _)| i != j)
            .collect();
        for a in [2usize, 3, 4, 6] {
            let groups = group_greedy(12, a, &pairs);
            assert_eq!(groups.len(), 12 / a);
            let mut seen = [false; 12];
            for grp in &groups {
                assert_eq!(grp.len(), a);
                for &x in grp {
                    assert!(!seen[x]);
                    seen[x] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    fn grouping_value_bounded_by_total(g) {
        let aff = arb_sparse(g, 8, 16);
        let groups = group_greedy(8, 4, &aff.pairs());
        let total: u64 = aff.pairs().iter().map(|&(_, _, w)| w).sum();
        assert!(grouping_value(&groups, &aff) <= total);
    }

    /// A matrix with traffic both ways and the one `from_pairs` builds
    /// from its pair list are the same affinity to TreeMatch.
    fn dense_and_sparse_affinity_agree(g) {
        let entries = g.vec(0..15, |g| (g.index(6), g.index(6), g.gen_range(1u64..100)));
        let mut m = CommMatrix::zeros(6);
        for &(i, j, w) in &entries {
            m.add(i, j, w);
        }
        let sparse = from_pairs(6, m.pairs());
        assert_eq!(sparse.pairs(), m.pairs());
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    let weight = |a: &CommMatrix| a.get(i, j) + a.get(j, i);
                    assert_eq!(weight(&m), weight(&sparse));
                }
            }
        }
    }
}
