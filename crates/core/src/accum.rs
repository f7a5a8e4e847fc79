//! Per-pair traffic accumulators: the monitoring plane's storage layer.
//!
//! The paper's library keeps one dense row per kind per session — O(n)
//! memory per rank, O(n²) across the job — which the AMG2023 / Kripke /
//! Laghos communication-pattern studies show is almost entirely zeros:
//! real applications touch O(n) pairs, not O(n²).  [`PairAccum`] keeps one
//! [`PairCell`] per destination in one of two containers: a **dense**
//! vector indexed by destination below [`PairAccum::DEFAULT_DENSE_LIMIT`]
//! members (small worlds; the paper's figures run there) and a **hash map**
//! of the destinations actually touched above it.  Every reader walks the
//! touched cells and every writer goes through one cell, so the two
//! containers differ only in where a cell lives.
//!
//! Counters are exact integers and addition commutes, so the two
//! representations are observationally identical — pinned by the
//! `props!` equivalence properties in `api::tests` and by the unit
//! properties below.

use std::collections::HashMap;

use crate::flags::Flags;

/// Per-destination counters for the three communication kinds
/// (p2p / coll / osc, indexed by [`Flags::kind_index`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCell {
    /// Messages per kind.
    pub counts: [u64; 3],
    /// Bytes per kind.
    pub sizes: [u64; 3],
}

impl PairCell {
    /// (messages, bytes) summed over the kinds selected by `flags`.
    pub(crate) fn sum(&self, flags: Flags) -> (u64, u64) {
        flags.selected_indices().fold((0, 0), |(c, s), k| (c + self.counts[k], s + self.sizes[k]))
    }

    pub(crate) fn is_zero(&self) -> bool {
        *self == PairCell::default()
    }
}

/// One sparse row entry: everything recorded toward one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEntry {
    /// Destination communicator rank.
    pub dst: usize,
    /// Per-kind counters toward `dst`.
    pub cell: PairCell,
}

enum Repr {
    /// One cell per destination, indexed by destination.
    Dense(Vec<PairCell>),
    /// One cell per destination actually touched.
    Sparse(HashMap<usize, PairCell>),
}

/// Hybrid dense/sparse per-destination traffic accumulator for one rank of
/// one session.
pub struct PairAccum {
    n: usize,
    repr: Repr,
}

impl PairAccum {
    /// Communicator sizes up to this stay dense: the paper's experiments
    /// (and anything else "small-world") index a flat array; only
    /// at-scale sessions pay the hash-map constant factor.
    pub const DEFAULT_DENSE_LIMIT: usize = 256;

    /// Accumulator for a communicator of `n` members, dense iff
    /// `n <= limit` (benchmarks and equivalence tests force one
    /// representation with `limit = usize::MAX` or `limit = 0`).
    pub fn with_dense_limit(n: usize, limit: usize) -> Self {
        let repr = if n <= limit {
            Repr::Dense(vec![PairCell::default(); n])
        } else {
            Repr::Sparse(HashMap::new())
        };
        Self { n, repr }
    }

    /// True when the dense representation is in use.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// The cell of `dst`, created zeroed if sparse and untouched (inlined:
    /// it is the whole of [`PairAccum::record`]'s hot path).
    #[inline]
    fn cell_mut(&mut self, dst: usize) -> &mut PairCell {
        match &mut self.repr {
            Repr::Dense(cells) => &mut cells[dst],
            Repr::Sparse(cells) => cells.entry(dst).or_default(),
        }
    }

    /// Visit every destination with recorded traffic (in destination order
    /// when dense, in hash order when sparse).
    fn walk(&self, mut f: impl FnMut(usize, &PairCell)) {
        match &self.repr {
            Repr::Dense(cells) => {
                cells.iter().enumerate().filter(|(_, c)| !c.is_zero()).for_each(|(d, c)| f(d, c))
            }
            Repr::Sparse(cells) => cells.iter().for_each(|(&d, c)| f(d, c)),
        }
    }

    /// Record one message of `bytes` bytes toward `dst` with kind index `k`.
    ///
    /// # Panics
    /// Panics when `dst >= order()` or `k >= 3` (recording is gated on
    /// communicator membership upstream).
    pub fn record(&mut self, dst: usize, k: usize, bytes: u64) {
        assert!(dst < self.n, "destination {dst} outside communicator of {}", self.n);
        let cell = self.cell_mut(dst);
        cell.counts[k] += 1;
        cell.sizes[k] += bytes;
    }

    /// Zero everything (sparse drops its cells entirely).
    pub(crate) fn reset(&mut self) {
        match &mut self.repr {
            Repr::Dense(cells) => cells.fill(PairCell::default()),
            Repr::Sparse(cells) => cells.clear(),
        }
    }

    /// Dense (counts, sizes) rows summed over the kinds selected by `flags`
    /// — the `MPI_M_get_data` shape.  Allocates two `n`-vectors; the gather
    /// uses [`PairAccum::sparse_row`] instead.
    pub fn row(&self, flags: Flags) -> (Vec<u64>, Vec<u64>) {
        let mut counts = vec![0u64; self.n];
        let mut sizes = vec![0u64; self.n];
        self.walk(|d, cell| (counts[d], sizes[d]) = cell.sum(flags));
        (counts, sizes)
    }

    /// Flag-summed `(dst, count, bytes)` triples for every destination with
    /// any recorded traffic under `flags`, sorted by destination — the
    /// gather wire format.  Zero-valued destinations are skipped; the
    /// receiving side's matrix cells default to zero, so a sparse row
    /// builds the same matrix row as the dense one, bit for bit.
    pub fn sparse_row(&self, flags: Flags) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        self.walk(|d, cell| {
            let (count, bytes) = cell.sum(flags);
            if count != 0 || bytes != 0 {
                out.push((d as u64, count, bytes));
            }
        });
        out.sort_unstable_by_key(|&(d, _, _)| d);
        out
    }

    /// Per-destination entries of everything recorded so far, sorted by
    /// destination.
    pub(crate) fn entries(&self) -> Vec<PairEntry> {
        let mut out = Vec::new();
        self.walk(|dst, &cell| out.push(PairEntry { dst, cell }));
        out.sort_unstable_by_key(|e| e.dst);
        out
    }

    /// Remap this accumulator onto a resized communicator: `map[old]` is the
    /// destination's rank in the new membership, `None` when it departed
    /// (its column is dropped — the process is gone, its address space with
    /// it).  Returns a fresh accumulator of `new_n` members whose dense /
    /// sparse representation is re-chosen under `limit`, so a communicator
    /// that grows past the threshold flips to sparse at the rebind and a
    /// shrinking one flips back.
    ///
    /// # Panics
    /// Panics when `map` does not cover every old destination or maps one
    /// out of `0..new_n` — programming errors of the membership layer.
    pub(crate) fn reindex(&self, map: &[Option<usize>], new_n: usize, limit: usize) -> PairAccum {
        assert_eq!(map.len(), self.n, "reindex map must cover every old destination");
        let mut out = Self::with_dense_limit(new_n, limit);
        self.walk(|d, cell| {
            let Some(dst) = map[d] else { return };
            assert!(dst < new_n, "reindex target {dst} outside new communicator of {new_n}");
            *out.cell_mut(dst) = *cell;
        });
        out
    }

    /// Approximate heap footprint in bytes — what the
    /// `sparse_memory_is_pair_proportional` test and `mim-ledger`'s
    /// `core.accum.mem_bytes` row compare between the dense and sparse planes.
    pub fn mem_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(cells) => cells.capacity() * std::mem::size_of::<PairCell>(),
            Repr::Sparse(cells) => {
                // Entry payload + the table's ~1/0.875 load-factor slack;
                // close enough for an order-of-magnitude comparison.
                cells.capacity()
                    * (std::mem::size_of::<(usize, PairCell)>() + std::mem::size_of::<u64>())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_util::props;

    fn filled(limit: usize) -> PairAccum {
        let mut a = PairAccum::with_dense_limit(8, limit);
        a.record(1, 0, 100);
        a.record(1, 0, 50);
        a.record(3, 1, 7);
        a.record(7, 2, 0); // zero-byte message still counts
        a
    }

    #[test]
    fn representation_follows_the_limit() {
        let limit = PairAccum::DEFAULT_DENSE_LIMIT;
        assert!(PairAccum::with_dense_limit(limit, limit).is_dense());
        assert!(!PairAccum::with_dense_limit(limit + 1, limit).is_dense());
    }

    #[test]
    fn dense_and_sparse_agree_on_fixed_traffic() {
        let (d, s) = (filled(usize::MAX), filled(0));
        for flags in [Flags::P2P_ONLY, Flags::COLL_ONLY, Flags::OSC_ONLY, Flags::ALL_COMM] {
            assert_eq!(d.row(flags), s.row(flags), "{flags:?}");
            assert_eq!(d.sparse_row(flags), s.sparse_row(flags), "{flags:?}");
        }
    }

    #[test]
    fn sparse_row_skips_zero_cells_and_sorts() {
        let s = filled(0);
        assert_eq!(s.sparse_row(Flags::ALL_COMM), vec![(1, 2, 150), (3, 1, 7), (7, 1, 0)]);
        assert_eq!(s.sparse_row(Flags::OSC_ONLY), vec![(7, 1, 0)]);
    }

    #[test]
    fn drain_seals_and_zeroes() {
        for limit in [usize::MAX, 0] {
            let mut a = filled(limit);
            let entry = |dst, counts, sizes| PairEntry { dst, cell: PairCell { counts, sizes } };
            assert_eq!(
                a.entries(),
                vec![
                    entry(1, [2, 0, 0], [150, 0, 0]),
                    entry(3, [0, 1, 0], [0, 7, 0]),
                    entry(7, [0, 0, 1], [0, 0, 0]),
                ]
            );
            a.reset();
            assert!(a.entries().is_empty(), "reset accumulator is empty");
            assert_eq!(a.row(Flags::ALL_COMM).0, vec![0; 8]);
        }
    }

    #[test]
    fn reindex_remaps_drops_and_reshapes() {
        for limit in [usize::MAX, 0] {
            // Traffic toward 1 (p2p), 3 (coll), 7 (osc); new membership:
            // old 1 → new 0, old 3 departed, old 7 → new 2.
            let a = filled(limit);
            let mut map = vec![None; 8];
            map[1] = Some(0);
            map[7] = Some(2);
            map[0] = Some(1); // untouched destinations move silently
            let b = a.reindex(&map, 4, usize::MAX);
            assert_eq!(b.n, 4);
            assert!(b.is_dense(), "representation re-chosen under the new limit");
            assert_eq!(b.row(Flags::ALL_COMM).0, vec![2, 0, 1, 0]);
            assert_eq!(b.row(Flags::ALL_COMM).1, vec![150, 0, 0, 0]);
            assert_eq!(b.row(Flags::COLL_ONLY).0, vec![0; 4], "departed column dropped");
            // Kind separation survives the transfer.
            assert_eq!(b.row(Flags::P2P_ONLY).1, vec![150, 0, 0, 0]);
            assert_eq!(b.row(Flags::OSC_ONLY).0, vec![0, 0, 1, 0]);
            // Original untouched.
            assert_eq!(a.row(Flags::ALL_COMM).0, filled(limit).row(Flags::ALL_COMM).0);
            // Growing across the threshold flips sparse.
            assert!(!a.reindex(&map, 4, 0).is_dense());
        }
    }

    #[test]
    fn sparse_memory_is_pair_proportional() {
        let n = 10_000;
        let mut dense = PairAccum::with_dense_limit(n, usize::MAX);
        let mut sparse = PairAccum::with_dense_limit(n, 0);
        for dst in 0..4 {
            dense.record(dst, 0, 1);
            sparse.record(dst, 0, 1);
        }
        assert!(
            dense.mem_bytes() >= 10 * sparse.mem_bytes(),
            "dense {} vs sparse {}",
            dense.mem_bytes(),
            sparse.mem_bytes()
        );
    }

    props! {
        /// Random traffic, both representations, every flag selection:
        /// rows, sparse rows and entries are identical.
        fn dense_sparse_equivalence(g) {
            let n = g.gen_range(1usize..40);
            let events: Vec<(usize, usize, u64)> = g.vec(0..64, |g| {
                (g.index(n), g.index(3), g.gen_range(0u64..1000))
            });
            let mut dense = PairAccum::with_dense_limit(n, usize::MAX);
            let mut sparse = PairAccum::with_dense_limit(n, 0);
            for &(dst, k, bytes) in &events {
                dense.record(dst, k, bytes);
                sparse.record(dst, k, bytes);
            }
            for flags in [Flags::P2P_ONLY, Flags::COLL_ONLY, Flags::OSC_ONLY,
                          Flags::P2P_ONLY | Flags::OSC_ONLY, Flags::ALL_COMM] {
                assert_eq!(dense.row(flags), sparse.row(flags));
                assert_eq!(dense.sparse_row(flags), sparse.sparse_row(flags));
            }
            assert_eq!(dense.entries(), sparse.entries());
        }
    }
}
