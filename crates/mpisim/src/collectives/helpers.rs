//! Shared helpers for tree-structured collectives: rank rotation around the
//! root and the two trees' links.

/// Virtual rank relative to the root: the root gets vrank 0.
pub fn vrank_of(rank: usize, root: usize, n: usize) -> usize {
    (rank + n - root) % n
}

/// Inverse of [`vrank_of`].
pub fn world_of_vrank(vrank: usize, root: usize, n: usize) -> usize {
    (vrank + root) % n
}

/// Parent of virtual rank `v` in the binomial tree rooted at vrank 0: `v`
/// with its lowest set bit cleared.
pub(super) fn binomial_parent(v: usize) -> Option<usize> {
    (v != 0).then(|| v & (v - 1))
}

/// Children of `v` in that tree over `n` ranks, narrowest subtree first:
/// `v + 2ᵏ` for every bit below `v`'s lowest set one (every bit, for the
/// root) that stays under `n`.  Reversed, it is the broadcast's order.
pub(super) fn binomial_children(v: usize, n: usize) -> impl DoubleEndedIterator<Item = usize> {
    let bits = if v == 0 { n.next_power_of_two().trailing_zeros() } else { v.trailing_zeros() };
    (0..bits).map(move |k| v + (1 << k)).filter(move |&c| c < n)
}

/// Parent of virtual rank `v` in the binary tree rooted at vrank 0.
pub(super) fn binary_parent(v: usize) -> Option<usize> {
    (v != 0).then(|| (v - 1) / 2)
}

/// Children of `v` in that tree over `n` ranks, left first.
pub(super) fn binary_children(v: usize, n: usize) -> impl Iterator<Item = usize> {
    [2 * v + 1, 2 * v + 2].into_iter().filter(move |&c| c < n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vrank_roundtrip() {
        for n in [1, 2, 5, 8] {
            for root in 0..n {
                for r in 0..n {
                    assert_eq!(world_of_vrank(vrank_of(r, root, n), root, n), r);
                }
            }
        }
    }

    #[test]
    fn binomial_tree_is_consistent() {
        // Every non-root has exactly one parent, and parent/child lists agree.
        for n in [1usize, 2, 3, 4, 6, 7, 8, 13, 16] {
            let mut seen_as_child = vec![0usize; n];
            for v in 0..n {
                match binomial_parent(v) {
                    None => assert_eq!(v, 0),
                    Some(p) => assert!(
                        binomial_children(p, n).any(|c| c == v),
                        "parent {p} of {v} must list it (n={n})"
                    ),
                }
                for c in binomial_children(v, n) {
                    seen_as_child[c] += 1;
                    assert_eq!(binomial_parent(c), Some(v));
                }
            }
            assert_eq!(seen_as_child[0], 0);
            assert!(seen_as_child[1..].iter().all(|&c| c == 1), "n={n}: {seen_as_child:?}");
        }
    }
}
