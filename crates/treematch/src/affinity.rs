//! Affinity inputs built from pair lists.  TreeMatch reads any
//! [`CommMatrix`] through [`CommMatrix::pairs`]: the undirected weight of
//! `(i, j)` is `m[i][j] + m[j][i]`.

use mim_topology::CommMatrix;

/// A matrix whose [`CommMatrix::pairs`] are `pairs` with duplicates summed:
/// each `(i, j, w)` is added to `m[i][j]`.  A self-pair lands on the
/// diagonal, which TreeMatch ignores.
///
/// # Panics
/// Panics on an out-of-range process id.
pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize, u64)>) -> CommMatrix {
    let mut m = CommMatrix::zeros(n);
    for (i, j, w) in pairs {
        m.add(i, j, w);
    }
    m
}

/// A 5-point-stencil affinity on a `rows × cols` grid — the structured
/// pattern used to exercise Table 1 at large orders.
pub fn stencil2d(rows: usize, cols: usize, weight: u64) -> CommMatrix {
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
    from_pairs(rows * cols, pairs)
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
        m.set(1, 1, 8);
        assert_eq!(m.pairs(), vec![(0, 1, 7), (0, 2, 1)]);
    }

    #[test]
    fn sparse_roundtrip_and_duplicates() {
        let a = from_pairs(4, vec![(0, 1, 3), (1, 0, 2), (2, 3, 7), (0, 1, 0)]);
        assert_eq!(a.pairs(), vec![(0, 1, 5), (2, 3, 7)]);
        assert_eq!(from_pairs(4, a.pairs()).pairs(), a.pairs());
    }

    #[test]
    fn stencil_shape() {
        let s = stencil2d(3, 4, 2);
        assert_eq!(s.order(), 12);
        let pairs = s.pairs();
        // 3*(4-1) horizontal + (3-1)*4 vertical edges.
        assert_eq!(pairs.len(), 9 + 8);
        assert!(pairs.contains(&(0, 1, 2)));
        assert!(pairs.contains(&(0, 4, 2)));
        assert!(!pairs.iter().any(|&(i, j, _)| (i, j) == (0, 5)));
    }
}
