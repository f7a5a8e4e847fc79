//! Process-affinity (communication) matrices.
//!
//! The monitoring library produces these (messages / bytes exchanged per
//! ordered pair of processes) and TreeMatch consumes them.

use std::cmp::Ordering;
use std::fmt::Write as _;

/// An `n × n` matrix of `u64` stored as sorted sparse rows: `m[i][j]` is
/// the traffic process `i` sent to process `j`.  A row holds only its
/// non-zero cells, so a nearest-neighbour pattern costs O(nnz), not O(n²),
/// and the derived `Eq` is matrix equality.  `get`, `set` and `add` panic
/// on an index outside `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    /// `rows[i]` = `(j, m[i][j])` for every non-zero cell, ascending `j`.
    rows: Vec<Vec<(usize, u64)>>,
}

impl CommMatrix {
    /// Zero matrix of order `n`.
    pub fn zeros(n: usize) -> Self {
        Self { rows: vec![Vec::new(); n] }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.rows.len()
    }

    /// Where column `j` sits in row `i`: `Ok(pos)` when stored, `Err(pos)`
    /// where it would go.
    ///
    /// # Panics
    /// Panics when `i` or `j` is out of range.
    fn find(&self, i: usize, j: usize) -> Result<usize, usize> {
        assert!(j < self.order(), "column {j} out of range for order {}", self.order());
        self.rows[i].binary_search_by_key(&j, |&(c, _)| c)
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.find(i, j).map_or(0, |pos| self.rows[i][pos].1)
    }

    /// Set entry `(i, j)`; setting 0 removes the cell.
    pub fn set(&mut self, i: usize, j: usize, v: u64) {
        match (self.find(i, j), v) {
            (Ok(pos), 0) => {
                self.rows[i].remove(pos);
            }
            (Ok(pos), v) => self.rows[i][pos].1 = v,
            (Err(_), 0) => {}
            (Err(pos), v) => self.rows[i].insert(pos, (j, v)),
        }
    }

    /// Add `v` to entry `(i, j)`.
    pub fn add(&mut self, i: usize, j: usize, v: u64) {
        match self.find(i, j) {
            Ok(pos) => self.rows[i][pos].1 += v,
            Err(pos) if v != 0 => self.rows[i].insert(pos, (j, v)),
            Err(_) => {}
        }
    }

    /// Row `i`'s non-zero cells `(j, m[i][j])`, ascending `j`.
    pub fn row(&self, i: usize) -> &[(usize, u64)] {
        &self.rows[i]
    }

    /// Sum of all entries.
    pub fn total(&self) -> u64 {
        self.rows.iter().flatten().map(|&(_, v)| v).sum()
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The undirected traffic TreeMatch works on: every `(i, j, m[i][j] +
    /// m[j][i])` with `i < j` and a non-zero sum, sorted by `(i, j)`; the
    /// diagonal is dropped.  Each pair is emitted once, from row `i` when
    /// `m[i][j]` is stored, else from row `j`; the first kind comes out
    /// sorted, so only the second is sorted in.  O(nnz log nnz) at worst.
    pub fn pairs(&self) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::with_capacity(self.nnz());
        let mut lower_only = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, v) in row {
                match j.cmp(&i) {
                    Ordering::Greater => out.push((i, j, v + self.get(j, i))),
                    Ordering::Less if self.get(j, i) == 0 => lower_only.push((j, i, v)),
                    _ => {}
                }
            }
        }
        if !lower_only.is_empty() {
            lower_only.sort_unstable();
            out.extend(lower_only);
            // Two sorted runs: the stable sort merges them in one pass.
            out.sort();
        }
        out
    }

    /// CSV rendering (one row per line).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for i in 0..self.order() {
            for j in 0..self.order() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}", self.get(i, j));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_accumulate() {
        let mut m = CommMatrix::zeros(3);
        assert_eq!(m.total(), 0);
        m.add(0, 1, 5);
        m.add(0, 1, 2);
        m.set(2, 0, 9);
        assert_eq!(m.get(0, 1), 7);
        assert_eq!(m.total(), 16);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0), &[(1, 7)]);
        m.set(2, 0, 0);
        assert_eq!(m.nnz(), 1, "a zero is never stored");
    }

    #[test]
    fn csv_shape() {
        let mut m = CommMatrix::zeros(2);
        for (i, j, v) in [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)] {
            m.set(i, j, v);
        }
        assert_eq!(m.to_csv(), "1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_rejected() {
        // Column 2 of an order-2 matrix must not alias m[1][0].
        CommMatrix::zeros(2).get(0, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_rejected() {
        CommMatrix::zeros(2).set(0, 2, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_rejected() {
        CommMatrix::zeros(2).add(0, 2, 0);
    }
}
