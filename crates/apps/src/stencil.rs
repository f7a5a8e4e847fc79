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
    pub fn block_rows(&self) -> usize {
        assert!(self.rows.is_multiple_of(self.prows), "rows must divide evenly");
        self.rows / self.prows
    }

    /// Block width per process.
    pub fn block_cols(&self) -> usize {
        assert!(self.cols.is_multiple_of(self.pcols), "cols must divide evenly");
        self.cols / self.pcols
    }

    /// The grid neighbours of rank `me` (row-major numbering) in the order
    /// the kernel exchanges halos with them: up, down, left, right.
    pub fn neighbours(&self, me: usize) -> [Option<usize>; 4] {
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
pub fn jacobi_reference(cfg: StencilConfig) -> Vec<f64> {
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
/// and its statistics; the checksum is globally reduced so every rank can
/// verify agreement.
///
/// Memory: the block is swept in place in one buffer of
/// `(block_rows + 1) · block_cols` values, the block plus one spare row
/// (see `sweep`).  The four halos are the only other per-iteration data;
/// they are built or received for one sweep and dropped when it ends,
/// before the next exchange begins.
///
/// # Panics
/// Panics when the communicator size does not match the process grid, or
/// the grid does not divide evenly.
pub fn run_stencil(rank: &Rank, comm: &Comm, cfg: StencilConfig) -> (Vec<f64>, StencilStats) {
    assert_eq!(comm.size(), cfg.prows * cfg.pcols, "communicator size vs process grid");
    let (br, bc) = (cfg.block_rows(), cfg.block_cols());
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
    // The block's rows start at row `off` of `u`; the other row is spare.
    let mut u = vec![0.0f64; (br + 1) * bc];
    let mut off = 0;
    for it in 0..cfg.iters {
        let tag = HALO_TAG_BASE + it as u32;
        let block = &u[off * bc..(off + br) * bc];
        // Exchange halos with the four neighbours (nonblocking).
        let t0 = rank.now_ns();
        let mut reqs = Vec::new();
        if let Some(p) = up {
            rank.isend(comm, p, tag, &block[0..bc]).wait(rank);
            reqs.push((0, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag))));
        }
        if let Some(p) = down {
            rank.isend(comm, p, tag, &block[(br - 1) * bc..]).wait(rank);
            reqs.push((1, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag))));
        }
        // A column halo is gathered for the neighbour that exists and dies
        // with its send: nothing this rank built stays alive while it waits.
        if let Some(p) = left {
            let col: Vec<f64> = (0..br).map(|i| block[i * bc]).collect();
            rank.isend(comm, p, tag + 0x1000, &col).wait(rank);
            reqs.push((2, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag + 0x1000))));
        }
        if let Some(p) = right {
            let col: Vec<f64> = (0..br).map(|i| block[i * bc + bc - 1]).collect();
            rank.isend(comm, p, tag + 0x1000, &col).wait(rank);
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
        off = sweep(&mut u, off, bc, &halos);
        // Charge the sweep: 4 flops per point at the CG crate's flop speed.
        rank.compute_ns(4.0 * (br * bc) as f64 * 0.5);
    }
    if off == 1 {
        u.copy_within(bc.., 0);
    }
    u.truncate(br * bc);
    let t0 = rank.now_ns();
    let local_sum: f64 = u.iter().sum();
    let checksum = rank.allreduce(comm, &[local_sum], |a, b| a + b)[0];
    comm_ns += rank.now_ns() - t0;
    let stats = StencilStats { checksum, total_ns: rank.now_ns() - start_ns, comm_ns };
    (u, stats)
}

/// One Jacobi sweep in place (the shifted-buffer form).  `u` holds a block
/// of `bc`-wide rows at row offset `off ∈ {0, 1}` plus one spare row; the
/// new block is written at the other offset, which is returned.  Each new
/// row goes into the slot of the old row it reads last:
///
/// * from `off = 0`, bottom-up, new row `i` into slot `i + 1`, which holds
///   old row `i + 1`, its south (the spare slot takes the south halo first);
/// * from `off = 1`, top-down, new row `i` into slot `i`, which holds old
///   row `i − 1`, its north (the spare slot takes the north halo first).
///
/// Slots not yet written hold old rows, so every point adds the same four
/// old values as the two-buffer sweep, in the same order (IEEE addition
/// commutes exactly), and nothing is copied per row.
fn sweep(u: &mut [f64], off: usize, bc: usize, [hu, hd, hl, hr]: &[Vec<f64>; 4]) -> usize {
    let br = u.len() / bc - 1;
    if off == 0 {
        u[br * bc..].copy_from_slice(hd);
        for i in (0..br).rev() {
            let (old, out) = u.split_at_mut((i + 1) * bc);
            let north = if i == 0 { &hu[..] } else { &old[(i - 1) * bc..i * bc] };
            sweep_row(&mut out[..bc], north, &old[i * bc..], hl[i], hr[i]);
        }
        1
    } else {
        u[..bc].copy_from_slice(hu);
        for i in 0..br {
            let (out, old) = u.split_at_mut((i + 1) * bc);
            let south = if i == br - 1 { &hd[..] } else { &old[bc..2 * bc] };
            sweep_row(&mut out[i * bc..], south, &old[..bc], hl[i], hr[i]);
        }
        0
    }
}

/// `out[j] ← ¼ (out[j] + other[j] + west + east)`, where `out` and `other`
/// hold the old rows above and below `row` (in either order) and the west
/// and east values are `row`'s neighbours, or the column halos `w`, `e` at
/// its ends.
#[inline(always)]
fn sweep_row(out: &mut [f64], other: &[f64], row: &[f64], w: f64, e: f64) {
    let bc = row.len();
    for j in 0..bc {
        let west = if j == 0 { w } else { row[j - 1] };
        let east = if j == bc - 1 { e } else { row[j + 1] };
        out[j] = 0.25 * (out[j] + other[j] + west + east);
    }
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

    mim_util::props! {
        /// Block sides down to one row or column, and both parities of the
        /// iteration count: an even count ends the in-place sweep at row
        /// offset 0, an odd one at 1.
        fn in_place_sweep_matches_reference_on_random_grids(g, cases = 32) {
            let (prows, pcols) = (g.gen_range(1usize..=4), g.gen_range(1usize..=4));
            let (br, bc) = (g.gen_range(1usize..=6), g.gen_range(1usize..=6));
            let half = g.gen_range(0usize..=4);
            for iters in [2 * half, 2 * half + 1] {
                let (rows, cols) = (prows * br, pcols * bc);
                assert_matches_reference(StencilConfig { rows, cols, prows, pcols, iters });
            }
        }
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
