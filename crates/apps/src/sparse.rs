//! Sparse symmetric positive-definite matrices and a sequential CG
//! reference, standing in for the NPB `makea` generator.

use mim_util::rng::Rng;

/// Compressed-sparse-row square matrix.
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub(crate) fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// One row as (columns, values).
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// `y = A·x` over rows `rows` only (the owning rank's block).
    pub(crate) fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input vector length mismatch");
        assert_eq!(y.len(), rows.len(), "output block length mismatch");
        for (out, i) in y.iter_mut().zip(rows) {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *out = acc;
        }
    }

    /// Full `y = A·x`.
    pub(crate) fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.spmv_rows(0..self.n, x, &mut y);
        y
    }

    /// True when the stored matrix is exactly symmetric.
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let (jc, jv) = self.row(j);
                match jc.binary_search(&i) {
                    Ok(pos) if (jv[pos] - v).abs() <= 1e-12 * v.abs().max(1.0) => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

/// Generate a random sparse symmetric positive-definite matrix of order `n`
/// with about `extra_per_row` off-diagonal entries per row, reproducible
/// from `seed`.
///
/// Construction: a random symmetric sparsity pattern with entries in
/// `(0, 1)`, made strictly diagonally dominant (diagonal = off-diagonal row
/// sum + 1), which guarantees SPD — the same spirit as NPB `makea`'s
/// outer-product construction with a diagonal shift.
pub fn random_spd(n: usize, extra_per_row: usize, seed: u64) -> Csr {
    assert!(n > 0, "matrix order must be positive");
    let mut rng = Rng::seed_from_u64(seed);
    // Collect symmetric off-diagonal entries per row.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        for _ in 0..extra_per_row {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v = rng.gen_range(0.01..1.0);
            rows[i].push((j, v));
            rows[j].push((i, v));
        }
    }
    // Merge duplicates, add the dominant diagonal, build CSR.
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for (i, row) in rows.iter_mut().enumerate() {
        row.sort_unstable_by_key(|a| a.0);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len() + 1);
        for &(j, v) in row.iter() {
            match merged.last_mut() {
                Some((lj, lv)) if *lj == j => *lv += v,
                _ => merged.push((j, v)),
            }
        }
        let offsum: f64 = merged.iter().map(|&(_, v)| v).sum();
        let dpos = merged.partition_point(|&(j, _)| j < i);
        merged.insert(dpos, (i, offsum + 1.0));
        for (j, v) in merged {
            col_idx.push(j);
            vals.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    Csr { n, row_ptr, col_idx, vals }
}

/// Sequential conjugate gradient: solve `A·x = b`, returning
/// `(x, final residual norm, iterations used)`.
pub fn cg_reference(a: &Csr, b: &[f64], max_iters: usize, tol: f64) -> (Vec<f64>, f64, usize) {
    let n = a.order();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rho = dot(&r, &r);
    let mut iters = 0;
    for _ in 0..max_iters {
        if rho.sqrt() <= tol {
            break;
        }
        iters += 1;
        let q = a.spmv(&p);
        let alpha = rho / dot(&p, &q);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = dot(&r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    (x, rho.sqrt(), iters)
}

/// Dot product.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_and_symmetric() {
        let a = random_spd(100, 6, 42);
        let b = random_spd(100, 6, 42);
        assert_eq!(a.nnz(), b.nnz());
        assert!(a.is_symmetric());
        assert!(a.nnz() >= 100, "diagonal always present");
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_spd(50, 4, 1);
        let b = random_spd(50, 4, 2);
        assert!(a.nnz() != b.nnz() || a.vals != b.vals);
    }

    #[test]
    fn diagonal_dominance() {
        let a = random_spd(80, 5, 7);
        for i in 0..80 {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                if j == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i} not dominant: {diag} vs {off}");
        }
    }

    #[test]
    fn cg_solves_small_system() {
        let a = random_spd(60, 5, 3);
        let x_true: Vec<f64> = (0..60).map(|i| (i % 7) as f64 - 3.0).collect();
        let b = a.spmv(&x_true);
        let (x, res, iters) = cg_reference(&a, &b, 200, 1e-10);
        assert!(res <= 1e-10, "residual {res} after {iters} iterations");
        for i in 0..60 {
            assert!((x[i] - x_true[i]).abs() < 1e-6, "x[{i}] = {} vs {}", x[i], x_true[i]);
        }
    }

    #[test]
    fn spmv_rows_matches_full() {
        let a = random_spd(40, 4, 9);
        let x: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let full = a.spmv(&x);
        let mut block = vec![0.0; 10];
        a.spmv_rows(10..20, &x, &mut block);
        assert_eq!(&full[10..20], &block[..]);
    }
}
