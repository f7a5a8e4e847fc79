//! Per-pair traffic accumulators: the monitoring plane's storage layer.
//!
//! The paper's library keeps one dense row per kind per session — O(n)
//! memory per rank, O(n²) across the job — which the AMG2023 / Kripke /
//! Laghos communication-pattern studies show is almost entirely zeros:
//! real applications touch O(n) pairs, not O(n²).  [`PairAccum`] is the
//! hybrid replacement: **dense** below [`PairAccum::DEFAULT_DENSE_LIMIT`]
//! members (small worlds; the paper's figures run there, and staying dense
//! keeps them bit-identical at zero risk) and **hash-sparse** above it
//! (one cell per destination actually touched).
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
    fn is_zero(&self) -> bool {
        self.counts == [0; 3] && self.sizes == [0; 3]
    }
}

/// One sparse row entry: everything recorded toward one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEntry {
    /// Destination communicator rank.
    pub dst: usize,
    /// Per-kind message counts.
    pub counts: [u64; 3],
    /// Per-kind byte totals.
    pub sizes: [u64; 3],
}

enum Repr {
    /// One slot per destination per kind (the paper's literal layout).
    Dense { counts: [Vec<u64>; 3], sizes: [Vec<u64>; 3] },
    /// One cell per destination actually touched.
    Sparse { cells: HashMap<usize, PairCell> },
}

/// Hybrid dense/sparse per-destination traffic accumulator for one rank of
/// one session (or one epoch window of one).
pub struct PairAccum {
    n: usize,
    repr: Repr,
}

impl PairAccum {
    /// Communicator sizes up to this stay dense: the paper's experiments
    /// (and anything else "small-world") keep the exact seed layout; only
    /// at-scale sessions pay the hash-map constant factor.
    pub const DEFAULT_DENSE_LIMIT: usize = 256;

    /// Accumulator for a communicator of `n` members, dense iff
    /// `n <= DEFAULT_DENSE_LIMIT`.
    pub fn new(n: usize) -> Self {
        Self::with_dense_limit(n, Self::DEFAULT_DENSE_LIMIT)
    }

    /// Accumulator with an explicit dense/sparse threshold (benchmarks and
    /// equivalence tests force one representation with `limit = usize::MAX`
    /// or `limit = 0`).
    pub fn with_dense_limit(n: usize, limit: usize) -> Self {
        let repr = if n <= limit {
            Repr::Dense {
                counts: [vec![0; n], vec![0; n], vec![0; n]],
                sizes: [vec![0; n], vec![0; n], vec![0; n]],
            }
        } else {
            Repr::Sparse { cells: HashMap::new() }
        };
        Self { n, repr }
    }

    /// Communicator size this accumulator was built for.
    pub fn order(&self) -> usize {
        self.n
    }

    /// True when the dense representation is in use.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense { .. })
    }

    /// Record one message of `bytes` bytes toward `dst` with kind index `k`.
    ///
    /// # Panics
    /// Panics when `dst >= order()` or `k >= 3` (recording is gated on
    /// communicator membership upstream).
    pub fn record(&mut self, dst: usize, k: usize, bytes: u64) {
        assert!(dst < self.n, "destination {dst} outside communicator of {}", self.n);
        match &mut self.repr {
            Repr::Dense { counts, sizes } => {
                counts[k][dst] += 1;
                sizes[k][dst] += bytes;
            }
            Repr::Sparse { cells } => {
                let cell = cells.entry(dst).or_default();
                cell.counts[k] += 1;
                cell.sizes[k] += bytes;
            }
        }
    }

    /// Zero everything (sparse drops its cells entirely).
    pub fn reset(&mut self) {
        match &mut self.repr {
            Repr::Dense { counts, sizes } => {
                for k in 0..3 {
                    counts[k].fill(0);
                    sizes[k].fill(0);
                }
            }
            Repr::Sparse { cells } => cells.clear(),
        }
    }

    /// Copy-free row access for the single-kind dense fast path: the
    /// per-kind slices can be handed out as-is, with no summing and no
    /// allocation.  `None` when sparse or when `flags` selects several
    /// kinds — callers fall back to [`PairAccum::row`].
    pub fn row_ref(&self, flags: Flags) -> Option<(&[u64], &[u64])> {
        let Repr::Dense { counts, sizes } = &self.repr else { return None };
        let mut selected = flags.selected_indices();
        let k = selected.next()?;
        if selected.next().is_some() {
            return None;
        }
        Some((&counts[k], &sizes[k]))
    }

    /// Dense (counts, sizes) rows summed over the kinds selected by `flags`
    /// — the `MPI_M_get_data` shape.  Allocates two `n`-vectors; hot paths
    /// use [`PairAccum::row_ref`] or [`PairAccum::sparse_row`] instead.
    pub fn row(&self, flags: Flags) -> (Vec<u64>, Vec<u64>) {
        if let Some((c, s)) = self.row_ref(flags) {
            return (c.to_vec(), s.to_vec());
        }
        let mut counts = vec![0u64; self.n];
        let mut sizes = vec![0u64; self.n];
        match &self.repr {
            Repr::Dense { counts: kc, sizes: ks } => {
                for k in flags.selected_indices() {
                    for d in 0..self.n {
                        counts[d] += kc[k][d];
                        sizes[d] += ks[k][d];
                    }
                }
            }
            Repr::Sparse { cells } => {
                for (&d, cell) in cells {
                    for k in flags.selected_indices() {
                        counts[d] += cell.counts[k];
                        sizes[d] += cell.sizes[k];
                    }
                }
            }
        }
        (counts, sizes)
    }

    /// Flag-summed `(dst, count, bytes)` triples for every destination with
    /// any recorded traffic under `flags`, sorted by destination — the
    /// gather wire format.  Zero-valued destinations are skipped; the
    /// receiving side's matrix cells default to zero, so densifying a
    /// sparse row reproduces the dense row bit for bit.
    pub fn sparse_row(&self, flags: Flags) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        match &self.repr {
            Repr::Dense { counts, sizes } => {
                // Single-kind selections walk the shared slices directly
                // (the row_ref fast path) instead of materializing summed
                // rows first.
                if let Some((c, s)) = self.row_ref(flags) {
                    for d in 0..self.n {
                        if c[d] != 0 || s[d] != 0 {
                            out.push((d as u64, c[d], s[d]));
                        }
                    }
                } else {
                    for d in 0..self.n {
                        let (mut cnt, mut sz) = (0u64, 0u64);
                        for k in flags.selected_indices() {
                            cnt += counts[k][d];
                            sz += sizes[k][d];
                        }
                        if cnt != 0 || sz != 0 {
                            out.push((d as u64, cnt, sz));
                        }
                    }
                }
            }
            Repr::Sparse { cells } => {
                for (&d, cell) in cells {
                    let (mut cnt, mut sz) = (0u64, 0u64);
                    for k in flags.selected_indices() {
                        cnt += cell.counts[k];
                        sz += cell.sizes[k];
                    }
                    if cnt != 0 || sz != 0 {
                        out.push((d as u64, cnt, sz));
                    }
                }
                out.sort_unstable_by_key(|&(d, _, _)| d);
            }
        }
        out
    }

    /// Sorted per-destination entries of everything recorded so far, without
    /// touching the accumulator — [`PairAccum::drain_entries`] minus the
    /// zeroing, used when the data must survive the walk (reindexing).
    pub fn entries(&self) -> Vec<PairEntry> {
        let mut out = Vec::new();
        match &self.repr {
            Repr::Dense { counts, sizes } => {
                for d in 0..self.n {
                    let cell = PairCell {
                        counts: [counts[0][d], counts[1][d], counts[2][d]],
                        sizes: [sizes[0][d], sizes[1][d], sizes[2][d]],
                    };
                    if !cell.is_zero() {
                        out.push(PairEntry { dst: d, counts: cell.counts, sizes: cell.sizes });
                    }
                }
            }
            Repr::Sparse { cells } => {
                out.extend(cells.iter().map(|(&d, c)| PairEntry {
                    dst: d,
                    counts: c.counts,
                    sizes: c.sizes,
                }));
                out.sort_unstable_by_key(|e| e.dst);
            }
        }
        out
    }

    /// Drain this accumulator into sorted per-destination entries, leaving
    /// it zeroed — how an epoch window is sealed.
    pub fn drain_entries(&mut self) -> Vec<PairEntry> {
        let out = self.entries();
        self.reset();
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
    pub fn reindex(&self, map: &[Option<usize>], new_n: usize, limit: usize) -> PairAccum {
        assert_eq!(map.len(), self.n, "reindex map must cover every old destination");
        let mut out = Self::with_dense_limit(new_n, limit);
        for e in self.entries() {
            let Some(dst) = map[e.dst] else { continue };
            assert!(dst < new_n, "reindex target {dst} outside new communicator of {new_n}");
            for k in 0..3 {
                out.add(dst, k, e.counts[k], e.sizes[k]);
            }
        }
        out
    }

    /// Bulk-add `count` messages of `bytes` total toward `dst` with kind
    /// index `k` (the reindex transfer primitive; [`PairAccum::record`] is
    /// the one-message hot path).
    fn add(&mut self, dst: usize, k: usize, count: u64, bytes: u64) {
        if count == 0 && bytes == 0 {
            return;
        }
        match &mut self.repr {
            Repr::Dense { counts, sizes } => {
                counts[k][dst] += count;
                sizes[k][dst] += bytes;
            }
            Repr::Sparse { cells } => {
                let cell = cells.entry(dst).or_default();
                cell.counts[k] += count;
                cell.sizes[k] += bytes;
            }
        }
    }

    /// Approximate heap footprint in bytes — what the
    /// `sparse_memory_is_pair_proportional` test and `mim-ledger`'s
    /// `core.accum.mem_bytes` row compare between the dense and sparse planes.
    pub fn mem_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense { counts, sizes } => counts
                .iter()
                .chain(sizes.iter())
                .map(|v| v.capacity() * std::mem::size_of::<u64>())
                .sum(),
            Repr::Sparse { cells } => {
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
        assert!(PairAccum::new(PairAccum::DEFAULT_DENSE_LIMIT).is_dense());
        assert!(!PairAccum::new(PairAccum::DEFAULT_DENSE_LIMIT + 1).is_dense());
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
    fn row_ref_is_the_single_kind_dense_fast_path() {
        let d = filled(usize::MAX);
        let (c, s) = d.row_ref(Flags::P2P_ONLY).expect("dense single-kind");
        assert_eq!(c, &[0, 2, 0, 0, 0, 0, 0, 0]);
        assert_eq!(s, &[0, 150, 0, 0, 0, 0, 0, 0]);
        assert!(d.row_ref(Flags::ALL_COMM).is_none(), "multi-kind needs summing");
        assert!(filled(0).row_ref(Flags::P2P_ONLY).is_none(), "sparse has no slices");
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
            let entries = a.drain_entries();
            assert_eq!(
                entries,
                vec![
                    PairEntry { dst: 1, counts: [2, 0, 0], sizes: [150, 0, 0] },
                    PairEntry { dst: 3, counts: [0, 1, 0], sizes: [0, 7, 0] },
                    PairEntry { dst: 7, counts: [0, 0, 1], sizes: [0, 0, 0] },
                ]
            );
            assert!(a.drain_entries().is_empty(), "drained accumulator is empty");
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
            assert_eq!(b.order(), 4);
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
        /// rows, sparse rows and sealed windows are identical.
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
            assert_eq!(dense.drain_entries(), sparse.drain_entries());
        }
    }
}
