//! Distributed 2-D Jacobi stencil (heat diffusion) with halo exchange.
//!
//! The second application workload (after CG): a process grid owns blocks
//! of a global grid and exchanges halos with its four neighbours every
//! iteration through nonblocking point-to-point — a rank-based
//! nearest-neighbour pattern, the textbook case for topology-aware rank
//! reordering (the paper's introduction motivates exactly this affinity).

use mim_mpisim::{Comm, Rank, SrcSel, TagSel};

/// Stencil problem description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilConfig {
    /// Global grid height (interior points).
    pub rows: usize,
    /// Global grid width (interior points).
    pub cols: usize,
    /// Process-grid height; `prows * pcols` must equal the communicator size.
    pub prows: usize,
    /// Process-grid width.
    pub pcols: usize,
    /// Jacobi iterations.
    pub iters: usize,
}

impl StencilConfig {
    /// Block height per process.
    ///
    /// # Panics
    /// Panics, naming the config, when the process grid has no row, a block
    /// would have none, or `rows` does not divide evenly.
    pub(crate) fn block_rows(&self) -> usize {
        assert!(
            self.prows > 0 && self.rows >= self.prows,
            "{self:?}: every block needs a row (rows ≥ prows > 0)"
        );
        assert!(self.rows.is_multiple_of(self.prows), "{self:?}: rows must divide evenly");
        self.rows / self.prows
    }

    /// Block width per process.
    ///
    /// # Panics
    /// As [`StencilConfig::block_rows`], for columns.
    pub(crate) fn block_cols(&self) -> usize {
        assert!(
            self.pcols > 0 && self.cols >= self.pcols,
            "{self:?}: every block needs a column (cols ≥ pcols > 0)"
        );
        assert!(self.cols.is_multiple_of(self.pcols), "{self:?}: cols must divide evenly");
        self.cols / self.pcols
    }

    /// The grid neighbours of rank `me` (row-major numbering) in the order
    /// the kernel exchanges halos with them: up, down, left, right.
    pub(crate) fn neighbours(&self, me: usize) -> [Option<usize>; 4] {
        let (prow, pcol) = (me / self.pcols, me % self.pcols);
        [
            (prow > 0).then(|| me - self.pcols),
            (prow + 1 < self.prows).then(|| me + self.pcols),
            (pcol > 0).then(|| me - 1),
            (pcol + 1 < self.pcols).then(|| me + 1),
        ]
    }
}

/// Per-rank outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilStats {
    /// Sum of all interior values after the last iteration (global checksum).
    pub checksum: f64,
    /// Virtual time of the run on this rank (ns).
    pub total_ns: f64,
    /// Virtual time spent in halo exchanges and reductions (ns).
    pub comm_ns: f64,
}

/// Boundary condition: the global top edge is held at 1.0, the other edges
/// at 0.0, interior starts at 0.0 (heat flowing in from the top).
fn boundary_top() -> f64 {
    1.0
}

/// Sequential reference implementation (same sweep, same boundaries).
#[cfg(test)]
pub(crate) fn jacobi_reference(cfg: StencilConfig) -> Vec<f64> {
    let (r, c) = (cfg.rows, cfg.cols);
    let mut u = vec![0.0f64; r * c];
    let mut next = u.clone();
    let at = |u: &[f64], i: isize, j: isize| -> f64 {
        if i < 0 {
            boundary_top()
        } else if j < 0 || i >= r as isize || j >= c as isize {
            0.0
        } else {
            u[i as usize * c + j as usize]
        }
    };
    for _ in 0..cfg.iters {
        for i in 0..r {
            for j in 0..c {
                let (i, j) = (i as isize, j as isize);
                next[i as usize * c + j as usize] = 0.25
                    * (at(&u, i - 1, j) + at(&u, i + 1, j) + at(&u, i, j - 1) + at(&u, i, j + 1));
            }
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

pub(crate) const HALO_TAG_BASE: u32 = 0x00A0_0000;

/// Run the distributed Jacobi sweep over `comm` (process grid
/// `prows × pcols`, row-major rank numbering).  Returns this rank's block
/// (row-major) and its statistics; the checksum is globally reduced so every
/// rank can verify agreement.
///
/// Memory: the block is held column-major in one buffer of
/// `block_rows · block_cols` values (see `Columns`) and swept in place,
/// with no spare row or column.  A column halo is sent straight from the
/// buffer; the two row halos are gathered across the columns and die with
/// their send.  The received halos live for one sweep.  The row-major block
/// returned is built after the last sweep, and the column buffer is freed,
/// before the checksum's allreduce: a rank still copying after the
/// allreduce would hold up whatever its communicator does next.
///
/// # Panics
/// Panics when a block would be empty, the grid does not divide evenly, or
/// the communicator size does not match the process grid.
pub fn run_stencil(rank: &Rank, comm: &Comm, cfg: StencilConfig) -> (Vec<f64>, StencilStats) {
    let (br, bc) = (cfg.block_rows(), cfg.block_cols());
    assert_eq!(comm.size(), cfg.prows * cfg.pcols, "communicator size vs process grid");
    let me = comm.rank();
    let [up, down, left, right] = cfg.neighbours(me);
    // Where the block meets the global edge its halo is the boundary value;
    // elsewhere it is what the neighbour sends.
    let edge = |p: Option<usize>, len: usize, value: f64| match p {
        Some(_) => Vec::new(),
        None => vec![value; len],
    };

    let start_ns = rank.now_ns();
    let mut comm_ns = 0.0;
    let mut cols = Columns { u: vec![0.0f64; br * bc], br, bc, rot: 0 };
    for it in 0..cfg.iters {
        let tag = HALO_TAG_BASE + it as u32;
        // Exchange halos with the four neighbours (nonblocking).
        let t0 = rank.now_ns();
        let mut reqs = Vec::new();
        // A row halo is gathered for the neighbour that exists and dies with
        // its send: nothing this rank built stays alive while it waits.
        if let Some(p) = up {
            let row: Vec<f64> = (0..bc).map(|c| cols.col(c)[0]).collect();
            rank.isend(comm, p, tag, &row).wait(rank);
            reqs.push((0, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag))));
        }
        if let Some(p) = down {
            let row: Vec<f64> = (0..bc).map(|c| cols.col(c)[br - 1]).collect();
            rank.isend(comm, p, tag, &row).wait(rank);
            reqs.push((1, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag))));
        }
        if let Some(p) = left {
            rank.isend(comm, p, tag + 0x1000, cols.col(0)).wait(rank);
            reqs.push((2, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag + 0x1000))));
        }
        if let Some(p) = right {
            rank.isend(comm, p, tag + 0x1000, cols.col(bc - 1)).wait(rank);
            reqs.push((3, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag + 0x1000))));
        }
        // Up, down, left, right: the row above and below the block, the
        // column left and right of it.
        let mut halos = [
            edge(up, bc, boundary_top()),
            edge(down, bc, 0.0),
            edge(left, br, 0.0),
            edge(right, br, 0.0),
        ];
        for (side, req) in reqs {
            halos[side] = req.wait::<f64>(rank).0;
        }
        comm_ns += rank.now_ns() - t0;
        cols.sweep(halos);
        // Charge the sweep: 4 flops per point at the CG crate's flop speed.
        rank.compute_ns(4.0 * (br * bc) as f64 * 0.5);
    }
    let block = cols.into_row_major();
    let t0 = rank.now_ns();
    let local_sum: f64 = block.iter().sum();
    let checksum = rank.allreduce(comm, &[local_sum], |a, b| a + b)[0];
    comm_ns += rank.now_ns() - t0;
    let stats = StencilStats { checksum, total_ns: rank.now_ns() - start_ns, comm_ns };
    (block, stats)
}

/// A rank's block, column-major in one buffer of `bc` slots of `br` values:
/// column `c` is in slot `(c + rot) mod bc`, so a sweep moves all columns
/// but one by changing `rot`, not by copying them.  One buffer for the
/// whole block keeps the memory a rank frees at the end in one piece, which
/// the next rank's row-major block reuses.
struct Columns {
    u: Vec<f64>,
    br: usize,
    bc: usize,
    rot: usize,
}

impl Columns {
    /// The slot of column `c ≤ bc` (column `bc` wraps to column 0).
    fn slot(&self, c: usize) -> usize {
        let s = c + self.rot;
        if s < self.bc {
            s
        } else {
            s - self.bc
        }
    }

    /// Column `c`, contiguous.
    fn col(&self, c: usize) -> &[f64] {
        let s = self.slot(c) * self.br;
        &self.u[s..s + self.br]
    }

    /// One Jacobi sweep in place, west to east down the columns.  New column
    /// `c` is written over old column `c − 1`, its west, which nothing reads
    /// after it; new column 0 over the west halo.  New column `c ≥ 1` then
    /// sits one slot west of old column `c`, so `rot` drops by one, and new
    /// column 0 is copied into the slot of old column `bc − 1`: one column
    /// copied per sweep.  Columns not yet written hold old values, so every
    /// point adds the same four old values as the reference, in its order.
    fn sweep(&mut self, [hu, hd, mut west, hr]: [Vec<f64>; 4]) {
        let (br, bc) = (self.br, self.bc);
        let east = if bc > 1 { self.col(1) } else { &hr };
        sweep_column(&mut west, self.col(0), east, hu[0], hd[0]);
        for c in 1..bc {
            // The output slot (column `c − 1`'s) splits the buffer; columns
            // `c` and `c + 1` lie on either side of it.
            let [o, s, e] = [c - 1, c, c + 1].map(|k| self.slot(k));
            let (before, rest) = self.u.split_at_mut(o * br);
            let (out, after) = rest.split_at_mut(br);
            let col = |s: usize| {
                if s < o {
                    &before[s * br..(s + 1) * br]
                } else {
                    &after[(s - o - 1) * br..(s - o) * br]
                }
            };
            let east = if c + 1 < bc { col(e) } else { &hr };
            sweep_column(out, col(s), east, hu[c], hd[c]);
        }
        self.rot = self.slot(bc - 1);
        let s = self.rot * br;
        self.u[s..s + br].copy_from_slice(&west);
    }

    /// The block in row-major order, the order of the reference.
    fn into_row_major(self) -> Vec<f64> {
        let cols: Vec<&[f64]> = (0..self.bc).map(|c| self.col(c)).collect();
        let mut block = Vec::with_capacity(self.u.len());
        for i in 0..self.br {
            for col in &cols {
                block.push(col[i]);
            }
        }
        block
    }
}

/// `out[i] ← ¼ (((north + south) + out[i]) + east[i])`: `out` holds the old
/// column west of `col`, and the north and south values are `col`'s
/// neighbours, or the row halo values `n`, `s` at its ends.
#[inline(always)]
fn sweep_column(out: &mut [f64], col: &[f64], east: &[f64], n: f64, s: f64) {
    let br = col.len();
    let (out, east) = (&mut out[..br], &east[..br]);
    if br == 1 {
        out[0] = 0.25 * (((n + s) + out[0]) + east[0]);
        return;
    }
    out[0] = 0.25 * (((n + col[1]) + out[0]) + east[0]);
    for i in 1..br - 1 {
        out[i] = 0.25 * (((col[i - 1] + col[i + 1]) + out[i]) + east[i]);
    }
    out[br - 1] = 0.25 * (((col[br - 2] + s) + out[br - 1]) + east[br - 1]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_mpisim::{Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};

    fn gather_global(blocks: &[Vec<f64>], cfg: StencilConfig) -> Vec<f64> {
        let (br, bc) = (cfg.block_rows(), cfg.block_cols());
        let mut global = vec![0.0; cfg.rows * cfg.cols];
        for (r, block) in blocks.iter().enumerate() {
            let (prow, pcol) = (r / cfg.pcols, r % cfg.pcols);
            for i in 0..br {
                for j in 0..bc {
                    global[(prow * br + i) * cfg.cols + pcol * bc + j] = block[i * bc + j];
                }
            }
        }
        global
    }

    /// The distributed sweep's global grid equals the two-buffer reference
    /// to the bit: it adds the same four values in the same order.
    fn assert_matches_reference(cfg: StencilConfig) {
        let n = cfg.prows * cfg.pcols;
        let u = Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 8), Placement::packed(n)));
        let blocks = u.launch(move |rank| run_stencil(rank, &rank.comm_world(), cfg).0);
        let got = gather_global(&blocks, cfg);
        let expect = jacobi_reference(cfg);
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.to_bits(), e.to_bits(), "{cfg:?}: {g} vs {e}");
        }
    }

    /// Up to 26 iterations every value is a dyadic fraction that sums
    /// exactly, so any order of the additions gives the same bits; 41 puts
    /// rounding into the sums, and only the reference's order matches.
    #[test]
    fn distributed_matches_sequential() {
        for (prows, pcols) in [(1usize, 1usize), (2, 2), (2, 4), (4, 2)] {
            assert_matches_reference(StencilConfig { rows: 16, cols: 16, prows, pcols, iters: 41 });
        }
    }

    /// One-row and one-column blocks at 41 iterations: a lone column's west
    /// and east are both halos, and a lone row's north and south are.
    #[test]
    fn single_row_and_single_column_blocks_match_sequential() {
        for (prows, pcols, br, bc) in [(3, 2, 1, 4), (2, 3, 64, 1), (2, 2, 1, 1)] {
            for iters in [40, 41] {
                let (rows, cols) = (prows * br, pcols * bc);
                assert_matches_reference(StencilConfig { rows, cols, prows, pcols, iters });
            }
        }
    }

    mim_util::props! {
        /// Block sides down to one row or column, and 0–9 iterations, which
        /// end the column rotation at every offset.
        fn in_place_sweep_matches_reference_on_random_grids(g, cases = 32) {
            let (prows, pcols) = (g.gen_range(1usize..=4), g.gen_range(1usize..=4));
            let (br, bc) = (g.gen_range(1usize..=6), g.gen_range(1usize..=6));
            let half = g.gen_range(0usize..=4);
            for iters in [2 * half, 2 * half + 1] {
                let (rows, cols) = (prows * br, pcols * bc);
                assert_matches_reference(StencilConfig { rows, cols, prows, pcols, iters });
            }
        }

        /// Tall, narrow blocks at 40 and 41 iterations: the contiguous
        /// column loop's interior runs on values that round.
        fn tall_blocks_match_reference_on_random_grids(g, cases = 16) {
            let (prows, pcols) = (g.gen_range(1usize..=3), g.gen_range(1usize..=3));
            let (br, bc) = (g.gen_range(1usize..=64), g.gen_range(1usize..=4));
            for iters in [40, 41] {
                let (rows, cols) = (prows * br, pcols * bc);
                assert_matches_reference(StencilConfig { rows, cols, prows, pcols, iters });
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "rows: 0, cols: 8, prows: 2, pcols: 1, iters: 1 }: every block needs a row"
    )]
    fn empty_blocks_are_rejected_by_name() {
        StencilConfig { rows: 0, cols: 8, prows: 2, pcols: 1, iters: 1 }.block_rows();
    }

    #[test]
    #[should_panic(expected = "pcols: 0, iters: 1 }: every block needs a column")]
    fn an_empty_process_grid_is_rejected_by_name() {
        StencilConfig { rows: 8, cols: 8, prows: 1, pcols: 0, iters: 1 }.block_cols();
    }

    #[test]
    #[should_panic(expected = "prows: 0, pcols: 1, iters: 1 }: every block needs a row")]
    fn run_stencil_names_the_config_before_the_communicator() {
        let cfg = StencilConfig { rows: 8, cols: 8, prows: 0, pcols: 1, iters: 1 };
        let u = Universe::new(UniverseConfig::new(Machine::cluster(1, 1, 1), Placement::packed(1)));
        u.launch(move |rank| run_stencil(rank, &rank.comm_world(), cfg));
    }

    #[test]
    #[should_panic(expected = "cols: 5, prows: 1, pcols: 2, iters: 3 }: cols must divide evenly")]
    fn uneven_blocks_are_rejected_by_name() {
        StencilConfig { rows: 4, cols: 5, prows: 1, pcols: 2, iters: 3 }.block_cols();
    }

    #[test]
    fn heat_flows_from_the_top() {
        let cfg = StencilConfig { rows: 8, cols: 8, prows: 2, pcols: 2, iters: 30 };
        let u = Universe::new(UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(4)));
        let blocks = u.launch(move |rank| run_stencil(rank, &rank.comm_world(), cfg).0);
        let global = gather_global(&blocks, cfg);
        // Top rows are warmer than bottom rows.
        let top: f64 = global[..8].iter().sum();
        let bottom: f64 = global[56..].iter().sum();
        assert!(top > bottom, "top {top} vs bottom {bottom}");
        assert!(top > 0.0);
    }

    #[test]
    fn checksum_agrees_on_all_ranks() {
        let cfg = StencilConfig { rows: 8, cols: 8, prows: 2, pcols: 2, iters: 5 };
        let u = Universe::new(UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(4)));
        let stats = u.launch(move |rank| run_stencil(rank, &rank.comm_world(), cfg).1);
        for s in &stats[1..] {
            assert_eq!(s.checksum, stats[0].checksum);
        }
        assert!(stats[0].comm_ns > 0.0);
    }
}
