//! Affinity inputs: symmetric pairwise traffic between processes.

use mim_topology::CommMatrix;

/// A symmetric affinity over `order()` processes.
///
/// TreeMatch works on undirected traffic, so implementations must expose
/// `weight(i, j) == weight(j, i)` (for a directed communication matrix this
/// is `m[i][j] + m[j][i]`).
pub trait Affinity {
    /// Number of processes.
    fn order(&self) -> usize;

    /// Symmetric weight between two distinct processes.
    fn weight(&self, i: usize, j: usize) -> u64;

    /// Every unordered pair `(i, j, w)` with `i < j` and `w > 0`.
    fn pairs(&self) -> Vec<(usize, usize, u64)>;
}

impl Affinity for CommMatrix {
    fn order(&self) -> usize {
        CommMatrix::order(self)
    }

    fn weight(&self, i: usize, j: usize) -> u64 {
        self.get(i, j) + self.get(j, i)
    }

    fn pairs(&self) -> Vec<(usize, usize, u64)> {
        let n = CommMatrix::order(self);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let w = self.get(i, j) + self.get(j, i);
                if w > 0 {
                    out.push((i, j, w));
                }
            }
        }
        out
    }
}

/// Sparse symmetric affinity, stored as per-process sorted adjacency.
///
/// This is the representation TreeMatch aggregation produces between levels,
/// and the input type for large instances (paper Table 1) where a dense
/// `n × n` matrix would not fit in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseAffinity {
    n: usize,
    /// `adj[i]` = sorted `(j, w)` with `w > 0`, for every neighbour `j`.
    adj: Vec<Vec<(usize, u64)>>,
}

impl SparseAffinity {
    /// Build from unordered pair weights (duplicates are summed).
    ///
    /// # Panics
    /// Panics on a self-loop or an out-of-range process id.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize, u64)>) -> Self {
        let mut adj = vec![Vec::new(); n];
        for (i, j, w) in pairs {
            assert!(i != j, "affinity self-loop on {i}");
            assert!(i < n && j < n, "pair ({i}, {j}) out of range for order {n}");
            if w == 0 {
                continue;
            }
            adj[i].push((j, w));
            adj[j].push((i, w));
        }
        for row in &mut adj {
            row.sort_unstable_by_key(|&(j, _)| j);
            // Merge duplicate neighbours.
            let mut merged: Vec<(usize, u64)> = Vec::with_capacity(row.len());
            for &(j, w) in row.iter() {
                match merged.last_mut() {
                    Some((lj, lw)) if *lj == j => *lw += w,
                    _ => merged.push((j, w)),
                }
            }
            *row = merged;
        }
        Self { n, adj }
    }

    /// Neighbours of `i` as a sorted slice.
    pub fn neighbours(&self, i: usize) -> &[(usize, u64)] {
        &self.adj[i]
    }

    /// Number of stored (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }
}

impl Affinity for SparseAffinity {
    fn order(&self) -> usize {
        self.n
    }

    fn weight(&self, i: usize, j: usize) -> u64 {
        self.adj[i].binary_search_by_key(&j, |&(k, _)| k).map(|pos| self.adj[i][pos].1).unwrap_or(0)
    }

    fn pairs(&self) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for i in 0..self.n {
            for &(j, w) in &self.adj[i] {
                if i < j {
                    out.push((i, j, w));
                }
            }
        }
        out
    }
}

/// A 5-point-stencil affinity on a `rows × cols` grid — the structured
/// pattern used to exercise Table 1 at large orders.
pub fn stencil2d(rows: usize, cols: usize, weight: u64) -> SparseAffinity {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut pairs = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                pairs.push((idx(r, c), idx(r, c + 1), weight));
            }
            if r + 1 < rows {
                pairs.push((idx(r, c), idx(r + 1, c), weight));
            }
        }
    }
    SparseAffinity::from_pairs(rows * cols, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_affinity_symmetrizes() {
        let mut m = CommMatrix::zeros(3);
        m.set(0, 1, 5);
        m.set(1, 0, 2);
        m.set(2, 0, 1);
        assert_eq!(Affinity::weight(&m, 0, 1), 7);
        assert_eq!(Affinity::weight(&m, 1, 0), 7);
        let pairs = Affinity::pairs(&m);
        assert_eq!(pairs, vec![(0, 1, 7), (0, 2, 1)]);
    }

    #[test]
    fn sparse_roundtrip_and_duplicates() {
        let a = SparseAffinity::from_pairs(4, vec![(0, 1, 3), (1, 0, 2), (2, 3, 7), (0, 1, 0)]);
        assert_eq!(a.weight(0, 1), 5);
        assert_eq!(a.weight(1, 0), 5);
        assert_eq!(a.weight(0, 2), 0);
        assert_eq!(a.pairs(), vec![(0, 1, 5), (2, 3, 7)]);
        assert_eq!(a.num_edges(), 2);
    }

    #[test]
    fn stencil_shape() {
        let s = stencil2d(3, 4, 2);
        assert_eq!(s.order(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical edges.
        assert_eq!(s.num_edges(), 9 + 8);
        assert_eq!(s.weight(0, 1), 2);
        assert_eq!(s.weight(0, 4), 2);
        assert_eq!(s.weight(0, 5), 0);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        SparseAffinity::from_pairs(2, vec![(1, 1, 3)]);
    }
}
