//! Process → core placements.

use mim_util::rng::Rng;

use crate::tree::TopologyTree;

/// An injective map from process id (`0..n`) to core (leaf id).
///
/// Placements describe where processes physically sit.  Rank reordering never
/// moves a process: it changes which *rank* a process holds, which is modelled
/// on the communicator side — the placement itself stays fixed for the whole
/// run.  The permutation helpers here are used by TreeMatch cost evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    proc_to_core: Vec<usize>,
}

impl Placement {
    /// Explicit placement; validates injectivity.
    ///
    /// # Panics
    /// Panics when two processes share a core.
    pub fn explicit(proc_to_core: Vec<usize>) -> Self {
        let mut seen = vec![false; proc_to_core.iter().copied().max().map_or(0, |m| m + 1)];
        for &c in &proc_to_core {
            assert!(!seen[c], "placement maps two processes to core {c}");
            seen[c] = true;
        }
        Self { proc_to_core }
    }

    /// Process `i` on core `i` — filling cores left to right.  This is the
    /// paper's "round-robin" initial mapping (rank `i` on the `i`-th leftmost
    /// core).
    pub fn packed(n: usize) -> Self {
        Self { proc_to_core: (0..n).collect() }
    }

    /// Alias of [`Placement::packed`] under the paper's name.
    pub fn round_robin(n: usize) -> Self {
        Self::packed(n)
    }

    /// Distribute processes cyclically over the subtrees rooted at `level`
    /// (e.g. over nodes): process 0 → first core of node 0, process 1 →
    /// first core of node 1, …  Used to build initial mappings whose
    /// communicators span many nodes (paper Sec 6.4).
    ///
    /// # Panics
    /// Panics when `n` exceeds the number of cores.
    pub fn cyclic_by_level(tree: &TopologyTree, n: usize, level: usize) -> Self {
        assert!(n <= tree.num_leaves(), "more processes than cores");
        let groups = tree.nodes_at_level(level);
        let per_group = tree.subtree_leaves(level);
        let mut proc_to_core = Vec::with_capacity(n);
        for i in 0..n {
            let group = i % groups;
            let slot = i / groups;
            assert!(slot < per_group, "cyclic placement overflows a subtree");
            proc_to_core.push(group * per_group + slot);
        }
        Self { proc_to_core }
    }

    /// Random injective placement over all cores, reproducible from `seed`.
    ///
    /// # Panics
    /// Panics when `n` exceeds the number of cores.
    pub fn random(tree: &TopologyTree, n: usize, seed: u64) -> Self {
        assert!(n <= tree.num_leaves(), "more processes than cores");
        let mut cores: Vec<usize> = (0..tree.num_leaves()).collect();
        let mut rng = Rng::seed_from_u64(seed);
        rng.shuffle(&mut cores);
        cores.truncate(n);
        Self { proc_to_core: cores }
    }

    /// Core hosting process `proc`.
    pub fn core_of(&self, proc: usize) -> usize {
        self.proc_to_core[proc]
    }

    /// The full process → core slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.proc_to_core
    }
}

/// Inverse of a permutation: `inverse(k)[k[i]] == i`.
///
/// # Panics
/// Panics when `k` is not a permutation of `0..k.len()`.
pub fn inverse_permutation(k: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; k.len()];
    for (i, &ki) in k.iter().enumerate() {
        assert!(ki < k.len() && inv[ki] == usize::MAX, "not a permutation");
        inv[ki] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_is_identity() {
        let p = Placement::packed(5);
        for i in 0..5 {
            assert_eq!(p.core_of(i), i);
        }
    }

    #[test]
    fn cyclic_spreads_over_nodes() {
        let t = TopologyTree::new(vec![4, 2, 3]); // 4 nodes of 6 cores
        let p = Placement::cyclic_by_level(&t, 8, 1);
        // First 4 processes on the first core of each node...
        assert_eq!(p.core_of(0), 0);
        assert_eq!(p.core_of(1), 6);
        assert_eq!(p.core_of(2), 12);
        assert_eq!(p.core_of(3), 18);
        // ...then the second core of each node.
        assert_eq!(p.core_of(4), 1);
        assert_eq!(p.core_of(7), 19);
    }

    #[test]
    fn random_is_injective_and_seeded() {
        let t = TopologyTree::new(vec![2, 2, 12]);
        let a = Placement::random(&t, 48, 42);
        let b = Placement::random(&t, 48, 42);
        assert_eq!(a, b);
        let mut cores = a.as_slice().to_vec();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 48);
        let c = Placement::random(&t, 48, 43);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic]
    fn explicit_rejects_collision() {
        Placement::explicit(vec![0, 1, 1]);
    }

    #[test]
    fn inverse_permutation_roundtrip() {
        let k = vec![3, 1, 0, 2];
        let inv = inverse_permutation(&k);
        for i in 0..k.len() {
            assert_eq!(inv[k[i]], i);
        }
    }

    #[test]
    #[should_panic]
    fn inverse_rejects_non_permutation() {
        inverse_permutation(&[0, 0, 1]);
    }

    #[test]
    #[should_panic]
    fn cyclic_overflow_panics() {
        let t = TopologyTree::new(vec![2, 1, 2]); // 4 cores
        Placement::cyclic_by_level(&t, 5, 1);
    }
}
