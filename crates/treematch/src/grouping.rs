//! Grouping kernels: cluster `k` objects into groups of arity `a`
//! maximizing intra-group affinity.

use mim_topology::CommMatrix;
use mim_util::hash::IdMap;

/// Disjoint-set union with size tracking.
pub(crate) struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    pub(crate) fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), size: vec![1; n] }
    }

    pub(crate) fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            self.parent[x] = self.find(self.parent[x]);
        }
        self.parent[x]
    }

    pub(crate) fn size_of(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r]
    }

    /// Union the sets of `a` and `b`; returns the new root.
    pub(crate) fn union(&mut self, a: usize, b: usize) -> usize {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        ra
    }
}

/// Greedy pair-merge grouping: walk the edge list by decreasing weight and
/// merge clusters while they fit in the arity; pack leftover clusters into
/// groups of (at most) `a` with first-fit-decreasing (splitting a cluster
/// when packing requires it).  `O(E log E)` — the fast path for large
/// instances.
///
/// Returns `ceil(k / a)` groups of at most `a` object indices; when
/// `k % a == 0` every group has exactly `a`, otherwise the spare capacity
/// ends up in the trailing group(s).  Callers that need uniform groups
/// (the TreeMatch tree construction does) pad with virtual objects first.
///
/// # Panics
/// Panics when `a == 0`.
pub fn group_greedy(k: usize, a: usize, pairs: &[(usize, usize, u64)]) -> Vec<Vec<usize>> {
    assert!(a > 0, "group arity must be positive");
    let mut sorted: Vec<&(usize, usize, u64)> = pairs.iter().collect();
    sorted.sort_unstable_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
    let mut dsu = Dsu::new(k);
    for &&(i, j, _) in &sorted {
        if dsu.find(i) != dsu.find(j) && dsu.size_of(i) + dsu.size_of(j) <= a {
            dsu.union(i, j);
        }
    }
    // Collect clusters (members kept in ascending object order for
    // determinism).
    let mut clusters: IdMap<usize, Vec<usize>> = IdMap::default();
    for x in 0..k {
        clusters.entry(dsu.find(x)).or_default().push(x);
    }
    let mut clusters: Vec<Vec<usize>> = clusters.into_values().collect();
    clusters.sort_unstable_by(|x, y| y.len().cmp(&x.len()).then(x[0].cmp(&y[0])));
    // First-fit-decreasing into ceil(k/a) bins of capacity a, splitting when
    // nothing fits whole.  `div_ceil` is essential: with `k / a` bins and
    // `k % a != 0` the total capacity would be short of `k`, the split
    // branch below would find every bin full (`take == 0`), and
    // `drain(..0)` would loop forever in release builds (the debug_assert
    // is compiled out).
    let nbins = k.div_ceil(a);
    let mut bins: Vec<Vec<usize>> = vec![Vec::with_capacity(a); nbins];
    for mut cluster in clusters {
        while !cluster.is_empty() {
            let free = |b: &Vec<usize>| a - b.len();
            match bins.iter_mut().find(|b| free(b) >= cluster.len()) {
                Some(bin) => {
                    bin.append(&mut cluster);
                }
                None => {
                    // Split: fill the emptiest bin with a prefix.
                    let bin =
                        bins.iter_mut().max_by_key(|b| a - b.len()).expect("at least one bin");
                    let take = a - bin.len();
                    debug_assert!(take > 0, "total size bookkeeping broken");
                    bin.extend(cluster.drain(..take));
                }
            }
        }
    }
    bins
}

/// Exhaustive "best disjoint groups" grouping (TreeMatch's original small-
/// instance kernel): enumerate all `C(k, a)` groups, sort by intra-group
/// weight, greedily pick disjoint ones.  Reads the same undirected pair
/// list as [`group_greedy`] (duplicates summed, self-pairs ignored).
///
/// # Panics
/// Panics when `k % a != 0`, or when the instance is too large
/// (`C(k, a) > 200_000`) — use [`group_greedy`] there.
pub(crate) fn group_exhaustive(
    k: usize,
    a: usize,
    pairs: &[(usize, usize, u64)],
) -> Vec<Vec<usize>> {
    assert!(a > 0 && k.is_multiple_of(a), "{k} objects cannot form groups of {a}");
    assert!(n_choose_k(k, a) <= 200_000, "exhaustive grouping infeasible for C({k}, {a})");
    // The symmetric k × k weight table, and each object's total affinity
    // for the external-traffic tie-break.
    let mut weight = vec![0u64; k * k];
    let mut degree = vec![0u64; k];
    for &(i, j, w) in pairs {
        if i != j {
            weight[i * k + j] += w;
            weight[j * k + i] += w;
            degree[i] += w;
            degree[j] += w;
        }
    }
    // (intra weight, external weight, members): rank by most internal
    // traffic, then — TreeMatch's tie-break — by least traffic leaking out
    // of the group, so a filler slot goes to an isolated object instead of
    // stealing half of another heavy pair.
    let mut groups: Vec<(u64, u64, Vec<usize>)> = Vec::new();
    let mut combo: Vec<usize> = (0..a).collect();
    loop {
        let w: u64 = combo
            .iter()
            .enumerate()
            .flat_map(|(x, &i)| combo[x + 1..].iter().map(move |&j| (i, j)))
            .map(|(i, j)| weight[i * k + j])
            .sum();
        let ext: u64 = combo.iter().map(|&i| degree[i]).sum::<u64>() - 2 * w;
        groups.push((w, ext, combo.clone()));
        if !next_combination(&mut combo, k) {
            break;
        }
    }
    groups.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    let mut used = vec![false; k];
    let mut out = Vec::with_capacity(k / a);
    for (_, _, g) in groups {
        if g.iter().all(|&x| !used[x]) {
            for &x in &g {
                used[x] = true;
            }
            out.push(g);
            if out.len() == k / a {
                break;
            }
        }
    }
    debug_assert_eq!(out.len(), k / a);
    out
}

/// Advance `combo` to the next `a`-subset of `0..k` in lexicographic order;
/// returns `false` when `combo` was the last one.
fn next_combination(combo: &mut [usize], k: usize) -> bool {
    let a = combo.len();
    for pos in (0..a).rev() {
        if combo[pos] != pos + k - a {
            combo[pos] += 1;
            for x in pos + 1..a {
                combo[x] = combo[x - 1] + 1;
            }
            return true;
        }
    }
    false
}

fn n_choose_k(n: usize, k: usize) -> u128 {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > 1 << 40 {
            return acc; // saturate early, caller only compares to a bound
        }
    }
    acc
}

/// Intra-group affinity captured by a grouping (higher is better).
pub fn grouping_value(groups: &[Vec<usize>], affinity: &CommMatrix) -> u64 {
    groups
        .iter()
        .flat_map(|g| {
            g.iter().enumerate().flat_map(move |(x, &i)| g[x + 1..].iter().map(move |&j| (i, j)))
        })
        .map(|(i, j)| affinity.get(i, j) + affinity.get(j, i))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::from_pairs;

    fn check_partition(groups: &[Vec<usize>], k: usize, a: usize) {
        assert_eq!(groups.len(), k / a);
        let mut seen = vec![false; k];
        for g in groups {
            assert_eq!(g.len(), a);
            for &x in g {
                assert!(!seen[x], "object {x} appears twice");
                seen[x] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// 8 objects in 4 obvious pairs with strong internal traffic.
    fn paired_affinity() -> CommMatrix {
        let mut pairs = vec![(0, 1, 100), (2, 3, 100), (4, 5, 100), (6, 7, 100)];
        // Weak noise across pairs.
        pairs.push((1, 2, 1));
        pairs.push((5, 6, 1));
        from_pairs(8, pairs)
    }

    #[test]
    fn greedy_finds_obvious_pairs() {
        let aff = paired_affinity();
        let groups = group_greedy(8, 2, &aff.pairs());
        check_partition(&groups, 8, 2);
        assert_eq!(grouping_value(&groups, &aff), 400);
    }

    #[test]
    fn exhaustive_finds_obvious_pairs() {
        let aff = paired_affinity();
        let groups = group_exhaustive(8, 2, &aff.pairs());
        check_partition(&groups, 8, 2);
        assert_eq!(grouping_value(&groups, &aff), 400);
    }

    #[test]
    fn greedy_handles_disconnected_objects() {
        // No affinity at all: still a valid partition.
        let groups = group_greedy(12, 4, &[]);
        check_partition(&groups, 12, 4);
    }

    #[test]
    fn greedy_splits_oversized_chains() {
        // A chain 0-1-2-3-4-5 with equal weights, arity 3: clusters may merge
        // awkwardly but the output must still be a valid partition.
        let pairs: Vec<_> = (0..5).map(|i| (i, i + 1, 10)).collect();
        let groups = group_greedy(6, 3, &pairs);
        check_partition(&groups, 6, 3);
    }

    #[test]
    fn exhaustive_at_least_as_good_as_greedy() {
        // Random-ish small instance: exhaustive must not lose to greedy.
        let pairs = vec![
            (0, 1, 7),
            (0, 2, 3),
            (1, 3, 9),
            (2, 3, 2),
            (4, 5, 6),
            (0, 5, 4),
            (3, 4, 8),
            (2, 5, 5),
        ];
        let aff = from_pairs(6, pairs);
        let g = group_greedy(6, 2, &aff.pairs());
        let e = group_exhaustive(6, 2, &aff.pairs());
        assert!(grouping_value(&e, &aff) >= grouping_value(&g, &aff));
    }

    /// Partition check for the non-divisible case: `ceil(k/a)` groups of at
    /// most `a`, together covering every object exactly once.
    fn check_partial_partition(groups: &[Vec<usize>], k: usize, a: usize) {
        assert_eq!(groups.len(), k.div_ceil(a));
        let mut seen = vec![false; k];
        for g in groups {
            assert!(!g.is_empty() && g.len() <= a, "group size {} out of 1..={a}", g.len());
            for &x in g {
                assert!(!seen[x], "object {x} appears twice");
                seen[x] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn greedy_handles_non_divisible_counts() {
        // Regression: with k % a != 0, `k / a` bins had total capacity < k,
        // so packing the leftover spilled into a `drain(..0)` busy loop in
        // release builds.  Now the last (partial) bin absorbs the remainder.
        for (k, a) in [(7, 2), (5, 4), (9, 4), (1, 3), (10, 3)] {
            let groups = group_greedy(k, a, &[]);
            check_partial_partition(&groups, k, a);
        }
        // And with real affinity: the obvious pairs still form, the odd one
        // out lands in the partial group.
        let aff = paired_affinity();
        let mut pairs = aff.pairs();
        pairs.retain(|&(i, j, _)| i < 7 && j < 7); // drop object 7's edges
        let groups = group_greedy(7, 2, &pairs);
        check_partial_partition(&groups, 7, 2);
    }

    #[test]
    fn dsu_merges_and_sizes() {
        let mut d = Dsu::new(4);
        assert_ne!(d.find(0), d.find(1));
        d.union(0, 1);
        assert_eq!(d.find(0), d.find(1));
        assert_eq!(d.size_of(1), 2);
        d.union(2, 3);
        d.union(0, 3);
        assert_eq!(d.size_of(2), 4);
    }
}
