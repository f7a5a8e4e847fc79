//! Integration of the stencil application with the full monitoring +
//! reordering pipeline, including through the C-shaped API.

use mim_analyze::{analyze, CommPlan};
use mim_apps::stencil::{run_stencil, StencilConfig};
use mim_core::capi::*;
use mim_core::{Flags, Monitoring};
use mim_mpisim::{Universe, UniverseConfig};
use mim_reorder::monitored_reorder;
use mim_topology::{CommMatrix, Machine, Placement};

/// The plan the analyzer verifies is the kernel that runs: for every pair,
/// the point-to-point messages and bytes a monitored run records equal the
/// per-channel totals of the lowered plan.
#[test]
fn stencil_plan_predicts_the_monitored_matrices() {
    for (prows, pcols) in [(1usize, 1usize), (2, 4), (3, 3)] {
        let cfg = StencilConfig { rows: 6 * prows, cols: 5 * pcols, prows, pcols, iters: 3 };
        let n = prows * pcols;
        let u = Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 8), Placement::packed(n)));
        let live = u.launch(move |rank| {
            let world = rank.comm_world();
            let mon = Monitoring::init(rank).unwrap();
            let id = mon.start(rank, &world).unwrap();
            run_stencil(rank, &world, cfg);
            mon.suspend(id).unwrap();
            let d = mon.allgather_data(rank, id, Flags::P2P_ONLY).unwrap();
            mon.free(id).unwrap();
            mon.finalize(rank).unwrap();
            (d.counts, d.sizes)
        });
        let (mut counts, mut sizes) = (CommMatrix::zeros(n), CommMatrix::zeros(n));
        for c in analyze(&cfg.lower()).channels {
            counts.add(c.src, c.dst, c.messages);
            sizes.add(c.src, c.dst, c.bytes);
        }
        assert_eq!(live[0], (counts, sizes), "{prows}x{pcols}");
    }
}

#[test]
fn stencil_reorder_preserves_physics_and_improves_halos() {
    // An odd process-grid width, so the heavy vertical-halo pairs (r, r+5)
    // land on opposite nodes under the node-cyclic initial mapping.
    let cfg = StencilConfig { rows: 8, cols: 15_000, prows: 2, pcols: 5, iters: 10 };
    let n = cfg.prows * cfg.pcols;
    let machine = Machine::cluster(2, 1, 8);
    let placement = Placement::cyclic_by_level(&machine.tree, n, machine.node_level);

    let run = |reorder: bool| -> (f64, f64) {
        let u = Universe::new(UniverseConfig::new(machine.clone(), placement.clone()));
        let out = u.launch(move |rank| {
            let world = rank.comm_world();
            if !reorder {
                let (_, s) = run_stencil(rank, &world, cfg);
                return (s.checksum, s.comm_ns);
            }
            let mon = Monitoring::init(rank).unwrap();
            let warmup = StencilConfig { iters: 1, ..cfg };
            let outcome = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
                run_stencil(rank, comm, warmup);
            });
            let (_, s) = run_stencil(rank, &outcome.comm, cfg);
            mon.finalize(rank).unwrap();
            (s.checksum, s.comm_ns)
        });
        out[0]
    };

    let (sum_base, comm_base) = run(false);
    let (sum_opt, comm_opt) = run(true);
    assert_eq!(sum_base, sum_opt, "reordering must not change the numerics");
    assert!(comm_opt < comm_base, "halo time should shrink: {comm_base} -> {comm_opt}");
}

#[test]
fn capi_monitors_the_stencil() {
    // Drive the monitoring of a real application through the paper-named
    // C-shaped API end to end.
    let cfg = StencilConfig { rows: 8, cols: 8, prows: 2, pcols: 2, iters: 3 };
    let u = Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 2), Placement::packed(4)));
    u.launch(move |rank| {
        let world = rank.comm_world();
        assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
        let mut id = MPI_M_MSID_NULL;
        assert_eq!(MPI_M_start(rank, &world, &mut id), MPI_SUCCESS);
        run_stencil(rank, &world, cfg);
        assert_eq!(MPI_M_suspend(id), MPI_SUCCESS);
        let (mut provided, mut n) = (0, 0);
        assert_eq!(MPI_M_get_info(id, &mut provided, &mut n), MPI_SUCCESS);
        assert_eq!(n, 4);
        let mut counts = vec![0u64; 16];
        let mut sizes = vec![0u64; 16];
        assert_eq!(
            MPI_M_allgather_data(rank, id, &mut counts, &mut sizes, MPI_M_P2P_ONLY),
            MPI_SUCCESS
        );
        // 2x2 process grid: each rank exchanges with exactly 2 neighbours,
        // 2 halo messages per iteration each (row + column direction may
        // both apply; on a 2x2 grid each rank has one row and one column
        // neighbour).
        let me = world.rank();
        let row_peer = if me % 2 == 0 { me + 1 } else { me - 1 };
        let col_peer = if me / 2 == 0 { me + 2 } else { me - 2 };
        for dst in 0..4 {
            let c = counts[me * 4 + dst];
            if dst == row_peer || dst == col_peer {
                assert_eq!(c, cfg.iters as u64, "halo count {me}->{dst}");
            } else {
                assert_eq!(c, 0, "unexpected traffic {me}->{dst}");
            }
        }
        assert_eq!(MPI_M_free(id), MPI_SUCCESS);
        assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
    });
}
