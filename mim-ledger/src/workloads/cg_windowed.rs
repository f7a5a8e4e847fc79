//! `cg_windowed`: the paper's Fig 7 application, read through live windows.
//!
//! `mim_apps::cg` class B on 128 ranks over `plafrim(6)`, placed at random
//! from the seed, which also generates the matrix.  One repetition runs
//! `monitored_reorder_windowed(ALL_COMM, 4 windows × 1 iteration)` — the
//! session stays active, each window is sealed and tree-gathered at rank 0 —
//! then the class's 25 iterations on the reordered communicator.
//! Collectives with real payloads (ring allgather + allreduce) and dense
//! accumulators (128 ≤ the dense limit) do the work; the reorder step does
//! little.  `stencil_loop` holds the strict spelling of the loop, this
//! workload the windowed one.

use std::cell::Cell;
use std::time::Instant;

use mim_apps::cg::{self, CgClass};
use mim_apps::sparse::{cg_reference, Csr};
use mim_core::{Flags, Monitoring};
use mim_mpisim::Rank;
use mim_reorder::monitored_reorder_windowed;
use mim_topology::{CommMatrix, Machine, Placement};

use super::reorder_loop::{
    launch, map_bcast_split, report, session_events, Base, RankOut, RootOut,
};
use super::{lone_barrier, phase_barrier, rank_retries, root_span, universe, Mode, Rep, Workload};
use crate::span;

const RANKS: usize = 128;
const WINDOWS: usize = 4;
/// Calls per collective in the traced repetition's diagnostic phase.
const COLL_CALLS: usize = 5;
/// The distributed residual must agree with the sequential reference to
/// this relative tolerance (reduction order differs).
const RESIDUAL_TOLERANCE: f64 = 1e-8;

pub struct CgWindowed {
    class: CgClass,
    machine: Machine,
    placement: Placement,
    matrix: Csr,
    base: Base,
    /// The sequential reference's residual after the same iterations.
    reference: f64,
}

/// The loop as an application writes it.
fn library_loop(rank: &Rank, a: &Csr, class: CgClass) -> RankOut {
    let world = rank.comm_world();
    let mon = Monitoring::init(rank).expect("init monitoring");
    let window_end = Cell::new(None);
    let outcome =
        monitored_reorder_windowed(rank, &mon, &world, Flags::ALL_COMM, WINDOWS, |comm, _w| {
            cg::run_cg_charged(rank, comm, a, 1, class.flops_per_iter);
            window_end.set(Some(Instant::now()));
        });
    let reorder_step_s = window_end.get().expect("monitored windows ran").elapsed().as_secs_f64();
    let (_, stats) = cg::run_cg_charged(rank, &outcome.comm, a, class.iters, class.flops_per_iter);
    mon.finalize(rank).expect("finalize monitoring");
    RankOut {
        result: stats.residual,
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
fn spelled_out_loop(rank: &Rank, a: &Csr, class: CgClass) -> RankOut {
    let world = rank.comm_world();
    let root = world.rank() == 0;
    let n = world.size();

    // A second, independent environment watches the same traffic, so that
    // `advance_window` can be timed alone: `gather_window` seals the main
    // session's window itself, and sealing it twice would empty the gather.
    // It starts first, so the main session records what the library loop's
    // session records.
    let probe_mon = Monitoring::init(rank).expect("init probe monitoring");
    let probe = probe_mon.start(rank, &world).expect("start probe session");
    lone_barrier(rank, &world, root);
    let init = root_span(root, "core.init_start_s");
    let mon = Monitoring::init(rank).expect("init monitoring");
    let id = mon.start(rank, &world).expect("start session on world");
    drop(init);

    let mut acc = root.then(|| CommMatrix::zeros(n));
    let mut window_msgs = 0u64;
    let mut step_wall = Instant::now();
    for _ in 0..WINDOWS {
        {
            let _g = root_span(root, "ledger.monitored_window");
            cg::run_cg_charged(rank, &world, a, 1, class.flops_per_iter);
        }
        step_wall = Instant::now();
        {
            let _g = root_span(root, "core.window.advance_ns");
            std::hint::black_box(probe_mon.advance_window(probe).expect("seal probe window"));
        }
        let _g = root_span(root, "core.window.gather_s");
        let gw = mon.gather_window(rank, id, 0, Flags::ALL_COMM).expect("gather window at rank 0");
        if let (Some(acc), Some(data)) = (acc.as_mut(), gw.data) {
            window_msgs += data.counts.total();
            for i in 0..n {
                for j in 0..n {
                    acc.add(i, j, data.sizes.get(i, j));
                }
            }
        }
    }
    let events = mon.trace_counters(rank, id).expect("session counters").events;

    let (k, opt, mapping_cost) = map_bcast_split(rank, &world, acc.as_ref());
    let reorder_step_s = step_wall.elapsed().as_secs_f64();
    mon.suspend(id).expect("suspend session");
    mon.free(id).expect("free session");
    probe_mon.suspend(probe).expect("suspend probe session");
    probe_mon.free(probe).expect("free probe session");
    probe_mon.finalize(rank).expect("finalize probe monitoring");

    let stats = {
        let _g = root_span(root, "apps.cg.iter_s");
        let (_, stats) = cg::run_cg_charged(rank, &opt, a, class.iters, class.flops_per_iter);
        phase_barrier(rank, &world, root);
        stats
    };
    {
        // Diagnostic: CG's two collectives alone, at CG's payload sizes, on
        // the reordered communicator (inside `run_cg` they cannot be told
        // apart from outside).
        let block = vec![1.0f64; a.order() / n];
        for _ in 0..COLL_CALLS {
            let _g = root_span(root, "mpisim.coll.allgather_s");
            std::hint::black_box(rank.allgather(&opt, &block));
        }
        for _ in 0..COLL_CALLS {
            let _g = root_span(root, "mpisim.coll.allreduce_s");
            std::hint::black_box(rank.allreduce(&opt, &[1.0f64], |x, y| x + y));
        }
    }
    mon.finalize(rank).expect("finalize monitoring");
    RankOut {
        result: stats.residual,
        comm_ns: stats.comm_ns,
        retries: rank_retries(rank),
        events,
        root: root.then_some(RootOut {
            k,
            reorder_step_s,
            gathered_msgs: Some(window_msgs),
            mapping_cost,
        }),
    }
}

impl CgWindowed {
    pub fn prepare(seed: u64) -> Self {
        let class = cg::class("B");
        let (machine, placement) = span::scope("topology.build_s", || {
            let machine = Machine::plafrim(6);
            let placement = Placement::random(&machine.tree, RANKS, seed);
            (machine, placement)
        });
        let matrix =
            span::scope("apps.cg.generate_matrix_s", || cg::generate_matrix(class, RANKS, seed));
        let u = universe(&machine, &placement);
        let a = &matrix;
        let outs = u.launch(|rank| {
            let world = rank.comm_world();
            for _ in 0..WINDOWS {
                cg::run_cg_charged(rank, &world, a, 1, class.flops_per_iter);
            }
            let (_, stats) = cg::run_cg_charged(rank, &world, a, class.iters, class.flops_per_iter);
            RankOut::base(stats.residual, stats.comm_ns)
        });
        let base = Base::of(&u, &outs);
        let reference = cg_reference(a, &vec![1.0; a.order()], class.iters, 0.0).1;
        CgWindowed { class, machine, placement, matrix, base, reference }
    }
}

impl Workload for CgWindowed {
    fn rep(&mut self, mode: Mode) -> Rep {
        let (a, class) = (&self.matrix, self.class);
        let run = launch(
            &self.machine,
            &self.placement,
            mode,
            |rank| library_loop(rank, a, class),
            |rank| spelled_out_loop(rank, a, class),
        );
        // Σ gathered windows = Σ ranks' session totals.
        let mut rep = report(mode, &self.base, &run, "residual", session_events(&run.outs));
        let (residual, reference) = (run.outs[0].result, self.reference);
        rep.check(
            (residual - reference).abs() <= RESIDUAL_TOLERANCE * reference.max(1e-30),
            || format!("residual {residual} is not the sequential reference's {reference}"),
        );
        rep
    }
}
