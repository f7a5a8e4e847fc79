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
/// # Panics
/// Panics when the communicator size does not match the process grid, or
/// the grid does not divide evenly.
pub fn run_stencil(rank: &Rank, comm: &Comm, cfg: StencilConfig) -> (Vec<f64>, StencilStats) {
    assert_eq!(comm.size(), cfg.prows * cfg.pcols, "communicator size vs process grid");
    let (br, bc) = (cfg.block_rows(), cfg.block_cols());
    let me = comm.rank();
    let (prow, pcol) = (me / cfg.pcols, me % cfg.pcols);
    let [up, down, left, right] = cfg.neighbours(me);

    let start_ns = rank.now_ns();
    let mut comm_ns = 0.0;
    let mut u = vec![0.0f64; br * bc];
    let mut next = u.clone();
    // Halo buffers (row above/below, column left/right of the block).
    let mut halo_up;
    let mut halo_down;
    let mut halo_left;
    let mut halo_right;
    for it in 0..cfg.iters {
        let tag = HALO_TAG_BASE + it as u32;
        // Exchange halos with the four neighbours (nonblocking).
        let t0 = rank.now_ns();
        let mut reqs = Vec::new();
        if let Some(p) = up {
            rank.isend(comm, p, tag, &u[0..bc]).wait(rank);
            reqs.push((0u8, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag))));
        }
        if let Some(p) = down {
            rank.isend(comm, p, tag, &u[(br - 1) * bc..br * bc]).wait(rank);
            reqs.push((1, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag))));
        }
        // A column halo is gathered for the neighbour that exists and dies
        // with its send: nothing this rank built stays alive while it waits.
        if let Some(p) = left {
            let col: Vec<f64> = (0..br).map(|i| u[i * bc]).collect();
            rank.isend(comm, p, tag + 0x1000, &col).wait(rank);
            reqs.push((2, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag + 0x1000))));
        }
        if let Some(p) = right {
            let col: Vec<f64> = (0..br).map(|i| u[i * bc + bc - 1]).collect();
            rank.isend(comm, p, tag + 0x1000, &col).wait(rank);
            reqs.push((3, rank.irecv(comm, SrcSel::Rank(p), TagSel::Is(tag + 0x1000))));
        }
        halo_up = (prow == 0).then(|| vec![boundary_top(); bc]);
        halo_down = (prow == cfg.prows - 1).then(|| vec![0.0; bc]);
        halo_left = (pcol == 0).then(|| vec![0.0; br]);
        halo_right = (pcol == cfg.pcols - 1).then(|| vec![0.0; br]);
        for (side, req) in reqs {
            let (data, _) = req.wait::<f64>(rank);
            match side {
                0 => halo_up = Some(data),
                1 => halo_down = Some(data),
                2 => halo_left = Some(data),
                _ => halo_right = Some(data),
            }
        }
        comm_ns += rank.now_ns() - t0;
        let (hu, hd, hl, hr) = (
            halo_up.as_ref().unwrap(),
            halo_down.as_ref().unwrap(),
            halo_left.as_ref().unwrap(),
            halo_right.as_ref().unwrap(),
        );
        // Jacobi sweep over the block: the rows above and below are chosen
        // once per row, only the west/east edges inside it.
        for i in 0..br {
            let row = &u[i * bc..(i + 1) * bc];
            let north = if i == 0 { &hu[..] } else { &u[(i - 1) * bc..i * bc] };
            let south = if i == br - 1 { &hd[..] } else { &u[(i + 1) * bc..(i + 2) * bc] };
            let out = &mut next[i * bc..(i + 1) * bc];
            for j in 0..bc {
                let w = if j == 0 { hl[i] } else { row[j - 1] };
                let e = if j == bc - 1 { hr[i] } else { row[j + 1] };
                out[j] = 0.25 * (north[j] + south[j] + w + e);
            }
        }
        std::mem::swap(&mut u, &mut next);
        // Charge the sweep: 4 flops per point at the CG crate's flop speed.
        rank.compute_ns(4.0 * (br * bc) as f64 * 0.5);
    }
    let t0 = rank.now_ns();
    let local_sum: f64 = u.iter().sum();
    let checksum = rank.allreduce(comm, &[local_sum], |a, b| a + b)[0];
    comm_ns += rank.now_ns() - t0;
    let stats = StencilStats { checksum, total_ns: rank.now_ns() - start_ns, comm_ns };
    (u, stats)
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

    #[test]
    fn distributed_matches_sequential() {
        for (prows, pcols) in [(1usize, 1usize), (2, 2), (2, 4), (4, 2)] {
            let cfg = StencilConfig { rows: 16, cols: 16, prows, pcols, iters: 12 };
            let n = prows * pcols;
            let u =
                Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 8), Placement::packed(n)));
            let blocks: Vec<Vec<f64>> = u
                .launch(move |rank| run_stencil(rank, &rank.comm_world(), cfg).0)
                .into_iter()
                .collect();
            let got = gather_global(&blocks, cfg);
            let expect = jacobi_reference(cfg);
            // To the bit: the distributed sweep adds the same four values
            // in the same order as the reference.
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.to_bits(), e.to_bits(), "{prows}x{pcols}: {g} vs {e}");
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
