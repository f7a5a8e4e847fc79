//! Per-pair traffic accumulators: the monitoring plane's storage layer.
//!
//! The paper's library keeps one dense row per kind per session — O(n)
//! memory per rank, O(n²) across the job — which the AMG2023 / Kripke /
//! Laghos communication-pattern studies show is almost entirely zeros:
//! real applications touch few peers, not the whole communicator.
//! [`PairAccum`] keeps one [`PairEntry`] per destination actually touched,
//! in one vector sorted by destination: the same sorted sparse row that
//! the gather ships and that `CommMatrix` stores.  A first touch inserts a
//! zeroed cell at its sorted place — O(d) for the d destinations touched
//! so far — and every reader is one walk that needs no sort.

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

/// Flag-summed `(dst, count, bytes)` triples of `entries`, in their order,
/// skipping destinations with no traffic under `flags` — the gather wire
/// format.  The receiving side's matrix cells default to zero, so the
/// skipped destinations build the same matrix row as a dense one.
pub(crate) fn flag_sums(
    entries: &[PairEntry],
    flags: Flags,
) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
    entries.iter().filter_map(move |e| {
        let (count, bytes) = e.cell.sum(flags);
        (count != 0 || bytes != 0).then_some((e.dst as u64, count, bytes))
    })
}

/// `entries` moved onto a resized communicator (`map[old]` is a
/// destination's new rank, `None` when it departed), sorted by new rank.
pub(crate) fn remap(entries: &[PairEntry], map: &[Option<usize>]) -> Vec<PairEntry> {
    let mut out: Vec<PairEntry> =
        entries.iter().filter_map(|e| Some(PairEntry { dst: map[e.dst]?, ..*e })).collect();
    out.sort_unstable_by_key(|e| e.dst);
    out
}

/// Per-destination traffic accumulator for one rank of one session: one
/// entry per destination touched, sorted by destination.
pub struct PairAccum {
    n: usize,
    row: Vec<PairEntry>,
}

impl PairAccum {
    /// Empty accumulator for a communicator of `n` members.
    pub fn new(n: usize) -> Self {
        Self { n, row: Vec::new() }
    }

    /// [`PairAccum::new`]; `limit` once chose a dense or a hashed container
    /// and is ignored.  Kept for `mim-ledger`'s `core.accum.*` probes only.
    pub fn with_dense_limit(n: usize, _limit: usize) -> Self {
        Self::new(n)
    }

    /// Record one message of `bytes` bytes toward `dst` with kind index `k`.
    ///
    /// # Panics
    /// Panics when `dst >= order()` or `k >= 3` (recording is gated on
    /// communicator membership upstream).
    pub fn record(&mut self, dst: usize, k: usize, bytes: u64) {
        assert!(dst < self.n, "destination {dst} outside communicator of {}", self.n);
        let i = match self.row.binary_search_by_key(&dst, |e| e.dst) {
            Ok(i) => i,
            Err(i) => {
                self.row.insert(i, PairEntry { dst, cell: PairCell::default() });
                i
            }
        };
        let cell = &mut self.row[i].cell;
        cell.counts[k] += 1;
        cell.sizes[k] += bytes;
    }

    /// Zero everything.
    pub(crate) fn reset(&mut self) {
        self.row.clear();
    }

    /// Dense (counts, sizes) rows summed over the kinds selected by `flags`
    /// — the `MPI_M_get_data` shape.  Allocates two `n`-vectors; the gather
    /// uses [`PairAccum::sparse_row`] instead.
    pub fn row(&self, flags: Flags) -> (Vec<u64>, Vec<u64>) {
        let mut counts = vec![0u64; self.n];
        let mut sizes = vec![0u64; self.n];
        for e in &self.row {
            (counts[e.dst], sizes[e.dst]) = e.cell.sum(flags);
        }
        (counts, sizes)
    }

    /// Flag-summed `(dst, count, bytes)` triples of every destination with
    /// traffic under `flags`, sorted by destination — the gather wire
    /// format.
    pub fn sparse_row(&self, flags: Flags) -> Vec<(u64, u64, u64)> {
        flag_sums(&self.row, flags).collect()
    }

    /// Per-destination entries of everything recorded so far, sorted by
    /// destination; untouched destinations are absent.
    pub(crate) fn entries(&self) -> &[PairEntry] {
        &self.row
    }

    /// Remap this accumulator onto a resized communicator of `new_n`
    /// members: `map[old]` is the destination's rank in the new membership,
    /// `None` when it departed (its column is dropped — the process is
    /// gone, its address space with it).
    ///
    /// # Panics
    /// Panics when `map` does not cover every old destination or maps one
    /// out of `0..new_n` — programming errors of the membership layer.
    pub(crate) fn reindex(&self, map: &[Option<usize>], new_n: usize) -> PairAccum {
        assert_eq!(map.len(), self.n, "reindex map must cover every old destination");
        let row = remap(&self.row, map);
        if let Some(e) = row.last() {
            assert!(e.dst < new_n, "reindex target {} outside communicator of {new_n}", e.dst);
        }
        PairAccum { n: new_n, row }
    }

    /// Heap footprint of the row in bytes (`mim-ledger`'s
    /// `core.accum.mem_bytes`).
    pub fn mem_bytes(&self) -> usize {
        self.row.capacity() * std::mem::size_of::<PairEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_util::prop::Gen;
    use mim_util::props;

    fn filled() -> PairAccum {
        let mut a = PairAccum::new(8);
        a.record(7, 2, 0); // zero-byte message still counts
        a.record(1, 0, 100);
        a.record(3, 1, 7);
        a.record(1, 0, 50);
        a
    }

    #[test]
    fn sparse_row_skips_zero_cells_and_sorts() {
        let s = filled();
        assert_eq!(s.sparse_row(Flags::ALL_COMM), vec![(1, 2, 150), (3, 1, 7), (7, 1, 0)]);
        assert_eq!(s.sparse_row(Flags::OSC_ONLY), vec![(7, 1, 0)]);
    }

    #[test]
    fn drain_seals_and_zeroes() {
        let mut a = filled();
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

    #[test]
    fn reindex_remaps_drops_and_reshapes() {
        // Traffic toward 1 (p2p), 3 (coll), 7 (osc); new membership:
        // old 1 → new 0, old 3 departed, old 7 → new 2.
        let a = filled();
        let mut map = vec![None; 8];
        map[1] = Some(0);
        map[7] = Some(2);
        map[0] = Some(1); // untouched destinations move silently
        let b = a.reindex(&map, 4);
        assert_eq!(b.n, 4);
        assert_eq!(b.row(Flags::ALL_COMM).0, vec![2, 0, 1, 0]);
        assert_eq!(b.row(Flags::ALL_COMM).1, vec![150, 0, 0, 0]);
        assert_eq!(b.row(Flags::COLL_ONLY).0, vec![0; 4], "departed column dropped");
        // Kind separation survives the transfer.
        assert_eq!(b.row(Flags::P2P_ONLY).1, vec![150, 0, 0, 0]);
        assert_eq!(b.row(Flags::OSC_ONLY).0, vec![0, 0, 1, 0]);
        // Original untouched.
        assert_eq!(a.row(Flags::ALL_COMM).0, filled().row(Flags::ALL_COMM).0);
    }

    #[test]
    fn sparse_memory_is_pair_proportional() {
        let mut a = PairAccum::new(10_000);
        for dst in (0..4).rev() {
            a.record(dst * 2500, 0, 1);
        }
        let bound = 8 * std::mem::size_of::<PairEntry>();
        assert!(a.mem_bytes() <= bound, "{} bytes for 4 peers (bound {bound})", a.mem_bytes());
    }

    /// Destinations for one burst of records: random, or an ascending or a
    /// descending run (a descending run inserts at the front every time).
    fn burst(g: &mut Gen, n: usize) -> Vec<usize> {
        let len = g.gen_range(1usize..12);
        let start = g.index(n);
        match g.index(3) {
            0 => (0..len).map(|_| g.index(n)).collect(),
            1 => (0..len).map(|i| (start + i) % n).collect(),
            _ => (0..len).map(|i| (start + n - i % n) % n).collect(),
        }
    }

    /// Per destination, per kind: (messages, bytes).
    type Oracle = Vec<[(u64, u64); 3]>;

    /// `a` against the oracle: entries sorted and exactly the touched
    /// destinations with their cells; `sparse_row` and `row` equal to the
    /// oracle's flag sums under every flag selection.
    fn check(a: &PairAccum, oracle: &Oracle, step: usize) {
        let entries = a.entries();
        assert!(entries.windows(2).all(|w| w[0].dst < w[1].dst), "step {step}: entries unsorted");
        let touched = (0..oracle.len()).filter(|&d| oracle[d].iter().any(|&(c, _)| c != 0));
        assert!(entries.iter().map(|e| e.dst).eq(touched), "step {step}: touched destinations");
        for e in entries {
            assert_eq!(e.cell.counts, oracle[e.dst].map(|(c, _)| c), "step {step}");
            assert_eq!(e.cell.sizes, oracle[e.dst].map(|(_, s)| s), "step {step}");
        }
        for flags in [
            Flags::P2P_ONLY,
            Flags::COLL_ONLY,
            Flags::OSC_ONLY,
            Flags::P2P_ONLY | Flags::OSC_ONLY,
            Flags::ALL_COMM,
        ] {
            let sum = |c: &[(u64, u64); 3]| {
                flags.selected_indices().fold((0, 0), |(n, s), k| (n + c[k].0, s + c[k].1))
            };
            let sums: Vec<(u64, u64)> = oracle.iter().map(sum).collect();
            let nonzero = sums.iter().enumerate().filter(|(_, &(c, s))| c != 0 || s != 0);
            let expected: Vec<_> = nonzero.map(|(d, &(c, s))| (d as u64, c, s)).collect();
            assert_eq!(a.sparse_row(flags), expected, "step {step} {flags:?}");
            assert_eq!(a.row(flags), sums.into_iter().unzip(), "step {step} {flags:?}");
        }
    }

    props! {
        /// Random record / reset / reindex histories against a plain
        /// per-destination oracle, checked after every step: both lists
        /// come out sorted by destination although nothing sorts them.
        fn record_matches_a_plain_row_oracle(g) {
            let mut n = g.gen_range(1usize..40);
            let mut a = PairAccum::new(n);
            let mut oracle: Oracle = vec![[(0, 0); 3]; n];
            for step in 0..g.gen_range(1usize..30) {
                match g.index(8) {
                    0 => {
                        a.reset();
                        oracle = vec![[(0, 0); 3]; n];
                    }
                    1 => {
                        // A new membership of random size: some old
                        // destinations depart, the rest move to random
                        // new ranks, and joiners start at zero.
                        let new_n = g.gen_range(1usize..40);
                        let mut ranks = g.permutation(new_n).into_iter();
                        let map: Vec<Option<usize>> =
                            (0..n).map(|_| ranks.next().filter(|_| g.index(4) != 0)).collect();
                        let mut moved: Oracle = vec![[(0, 0); 3]; new_n];
                        for (old, new) in map.iter().enumerate() {
                            if let Some(new) = *new {
                                moved[new] = oracle[old];
                            }
                        }
                        a = a.reindex(&map, new_n);
                        (n, oracle) = (new_n, moved);
                    }
                    _ => {
                        for dst in burst(g, n) {
                            let (k, bytes) = (g.index(3), g.gen_range(0u64..1000));
                            a.record(dst, k, bytes);
                            oracle[dst][k].0 += 1;
                            oracle[dst][k].1 += bytes;
                        }
                    }
                }
                check(&a, &oracle, step);
            }
        }
    }
}
