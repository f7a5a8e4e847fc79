//! `stencil_loop`: the paper's Fig 1 loop at a size where the reorder step
//! does most of the work.
//!
//! `mim_apps::stencil` on a 32 × 32 process grid (1024 ranks) over
//! `cluster(16, 2, 32)`, node-cyclic placement, with 2048 × 4 blocks: the
//! 16 KiB halos are the column halos, exchanged with the ranks ± 1, which
//! the placement puts on other nodes (the ranks ± 32 share a node, because
//! 32 columns fold evenly onto 16 nodes), so every heavy halo crosses the
//! network until the loop reorders.  One repetition
//! monitors one iteration, reorders (`monitored_reorder(P2P_ONLY)`: suspend,
//! tree gather of sparse rows, TreeMatch, bcast, `comm_split`), then runs 20
//! iterations on the reordered communicator.  Sparse accumulators
//! (1024 > the dense limit) and the strict suspend-then-gather read path
//! are in play.
//!
//! Traced repetitions spell the same loop out call by call, with a barrier
//! closing every phase so a span at rank 0 covers every rank's share.

use std::cell::Cell;
use std::time::Instant;

use mim_apps::stencil::{run_stencil, StencilConfig};
use mim_core::{Flags, Monitoring};
use mim_mpisim::Rank;
use mim_reorder::monitored_reorder;
use mim_topology::{Machine, Placement};

use super::reorder_loop::{launch, map_bcast_split, report, Base, RankOut, RootOut};
use super::{lone_barrier, phase_barrier, rank_retries, root_span, universe, Mode, Rep, Workload};
use crate::span;

const PROWS: usize = 32;
const PCOLS: usize = 32;
const STEADY: StencilConfig =
    StencilConfig { rows: PROWS * 2048, cols: PCOLS * 4, prows: PROWS, pcols: PCOLS, iters: 20 };
const MONITORED: StencilConfig = StencilConfig { iters: 1, ..STEADY };
/// Fan-in of the diagnostic `gather_tree` span (`mim-core`'s default).
const GATHER_ARITY: usize = 8;

/// Halo messages of one iteration: each of the grid's interior edges
/// carries one message each way.
const fn halo_messages() -> u64 {
    (2 * (PROWS * (PCOLS - 1) + PCOLS * (PROWS - 1))) as u64
}

pub struct StencilLoop {
    machine: Machine,
    placement: Placement,
    base: Base,
}

/// The loop as an application writes it.
fn library_loop(rank: &Rank) -> RankOut {
    let world = rank.comm_world();
    let mon = Monitoring::init(rank).expect("init monitoring");
    let monitored_end = Cell::new(None);
    let outcome = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
        run_stencil(rank, comm, MONITORED);
        monitored_end.set(Some(Instant::now()));
    });
    let reorder_step_s =
        monitored_end.get().expect("monitored closure ran").elapsed().as_secs_f64();
    let (_, stats) = run_stencil(rank, &outcome.comm, STEADY);
    mon.finalize(rank).expect("finalize monitoring");
    RankOut {
        result: stats.checksum,
        comm_ns: stats.comm_ns,
        retries: rank_retries(rank),
        events: 0,
        root: (world.rank() == 0).then_some(RootOut {
            k: outcome.k,
            reorder_step_s,
            gathered_msgs: None,
            mapping_cost: None,
        }),
    }
}

/// The same loop, one public call per span.
fn spelled_out_loop(rank: &Rank) -> RankOut {
    let world = rank.comm_world();
    let root = world.rank() == 0;
    let n = world.size();

    lone_barrier(rank, &world, root);
    let init = root_span(root, "core.init_start_s");
    let mon = Monitoring::init(rank).expect("init monitoring");
    let id = mon.start(rank, &world).expect("start session on world");
    drop(init);
    let events = {
        let _g = root_span(root, "ledger.monitored_iteration");
        run_stencil(rank, &world, MONITORED);
        // Suspend before the closing barrier, so the session holds exactly
        // what the library loop's session holds.
        mon.suspend(id).expect("suspend session");
        phase_barrier(rank, &world, root);
        mon.trace_counters(rank, id).expect("session counters").events
    };

    let step = root_span(root, "ledger.reorder_step");
    let step_wall = Instant::now();
    let gathered = {
        let _g = root_span(root, "core.rootgather_s");
        let g = mon.rootgather_data(rank, id, 0, Flags::P2P_ONLY).expect("gather at rank 0");
        phase_barrier(rank, &world, root);
        g
    };
    let gathered_msgs = gathered.as_ref().map(|data| data.counts.total());
    let (k, opt, mapping_cost) =
        map_bcast_split(rank, &world, gathered.as_ref().map(|data| &data.sizes));
    let reorder_step_s = step_wall.elapsed().as_secs_f64();
    drop(step);

    {
        // Diagnostic: the tree gather alone, fed the same sparse rows
        // `rootgather_data` ships, in communicator order.
        let row = mon.get_data(id, Flags::P2P_ONLY).expect("read suspended session");
        let mut buf = Vec::new();
        for (dst, (&count, &bytes)) in row.counts.iter().zip(&row.sizes).enumerate() {
            if count != 0 {
                buf.extend([dst as u64, count, bytes]);
            }
        }
        let order: Vec<usize> = (0..n).collect();
        let _g = root_span(root, "mpisim.gather_tree_s");
        let rows = rank.gather_tree(&world, 0, GATHER_ARITY, &order, &buf);
        std::hint::black_box(rows);
        phase_barrier(rank, &world, root);
    }
    mon.free(id).expect("free session");

    let stats = {
        let _g = root_span(root, "apps.stencil.iter_s");
        let (_, stats) = run_stencil(rank, &opt, STEADY);
        phase_barrier(rank, &world, root);
        stats
    };
    mon.finalize(rank).expect("finalize monitoring");
    RankOut {
        result: stats.checksum,
        comm_ns: stats.comm_ns,
        retries: rank_retries(rank),
        events,
        root: root.then_some(RootOut { k, reorder_step_s, gathered_msgs, mapping_cost }),
    }
}

impl StencilLoop {
    pub fn prepare() -> Self {
        let (machine, placement) = span::scope("topology.build_s", || {
            let machine = Machine::cluster(16, 2, 32);
            let placement =
                Placement::cyclic_by_level(&machine.tree, PROWS * PCOLS, machine.node_level);
            (machine, placement)
        });
        let u = universe(&machine, &placement);
        let outs = u.launch(|rank| {
            let world = rank.comm_world();
            run_stencil(rank, &world, MONITORED);
            let (_, stats) = run_stencil(rank, &world, STEADY);
            RankOut::base(stats.checksum, stats.comm_ns)
        });
        let base = Base::of(&u, &outs);
        StencilLoop { machine, placement, base }
    }
}

impl Workload for StencilLoop {
    fn rep(&mut self, mode: Mode) -> Rep {
        let run = launch(&self.machine, &self.placement, mode, library_loop, spelled_out_loop);
        // The gathered P2P_ONLY matrix holds one iteration's halo messages.
        report(mode, &self.base, &run, "checksum", halo_messages())
    }
}
