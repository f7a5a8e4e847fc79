//! What the two Fig 1 workloads (`stencil_loop`, `cg_windowed`) share: the
//! shape of a rank's result, the traced map → bcast → split phases, and the
//! checks and exact values a repetition reports.

use std::time::Instant;

use mim_mpisim::{Comm, Rank, Universe};
use mim_reorder::compute_mapping;
use mim_topology::{inverse_permutation, CommMatrix, Machine, Placement};
use mim_treematch::mapping_distance_cost;

use super::{
    is_permutation, nic_xmit_bytes, on_grid, phase_barrier, root_span, universe, Digest, Mode,
    MsgCounter, Rep,
};
use crate::span;

/// What each rank hands back.
pub struct RankOut {
    /// The application's own result — stencil checksum, CG residual — which
    /// reordering must not change by a bit.
    pub result: f64,
    /// Virtual communication time of the steady phase.
    pub comm_ns: f64,
    pub retries: u64,
    /// Traced repetitions: messages of every kind the rank's session recorded.
    pub events: u64,
    /// Rank 0 only.
    pub root: Option<RootOut>,
}

pub struct RootOut {
    pub k: Vec<usize>,
    /// Host seconds from the end of the (last) monitored closure to the
    /// reordered communicator.
    pub reorder_step_s: f64,
    /// Traced repetitions: messages in the gathered matrices and the hop
    /// cost of the chosen mapping.
    pub gathered_msgs: Option<u64>,
    pub mapping_cost: Option<u64>,
}

impl RankOut {
    /// A rank of the base run: no monitoring, no reordering.
    pub fn base(result: f64, comm_ns: f64) -> RankOut {
        RankOut { result, comm_ns, retries: 0, events: 0, root: None }
    }
}

/// The unmonitored, unreordered run every repetition is checked against.
pub struct Base {
    pub result: f64,
    /// Slowest rank's virtual communication time over the steady phase.
    pub comm_ns: f64,
    pub nic_bytes: u64,
}

impl Base {
    pub fn of(universe: &Universe, outs: &[RankOut]) -> Base {
        Base { result: outs[0].result, comm_ns: slowest(outs), nic_bytes: nic_xmit_bytes(universe) }
    }
}

fn slowest(outs: &[RankOut]) -> f64 {
    outs.iter().map(|o| o.comm_ns).fold(0.0, f64::max)
}

/// One universe of a repetition, joined.
pub struct Launched {
    pub universe: Universe,
    pub outs: Vec<RankOut>,
    /// Wire messages, in counted mode.
    pub msgs: Option<u64>,
    /// Host seconds from `Universe::new` to the join.
    pub wall_s: f64,
}

/// Run one universe of a repetition: the library loop, or in a traced
/// repetition the spelled-out one.
pub fn launch(
    machine: &Machine,
    placement: &Placement,
    mode: Mode,
    library: impl Fn(&Rank) -> RankOut + Sync,
    spelled_out: impl Fn(&Rank) -> RankOut + Sync,
) -> Launched {
    let wall = Instant::now();
    let universe = universe(machine, placement);
    let counter = MsgCounter::install(&universe, mode);
    let outs = span::scope("mpisim.launch_s", || match mode {
        Mode::Traced => universe.launch(spelled_out),
        Mode::Timed | Mode::Counted => universe.launch(library),
    });
    let wall_s = wall.elapsed().as_secs_f64();
    Launched { universe, outs, msgs: counter.map(|c| c.get()), wall_s }
}

/// The tail of the spelled-out reorder step: rank 0 (which alone holds
/// `sizes`) maps, `k` is broadcast, the communicator split.  Returns `k`,
/// the reordered communicator and, at rank 0, the mapping's hop cost.
///
/// The library loops also charge the mapping's wall-clock time to the
/// virtual clock; nothing a traced repetition reports depends on it.
pub fn map_bcast_split(
    rank: &Rank,
    world: &Comm,
    sizes: Option<&CommMatrix>,
) -> (Vec<usize>, Comm, Option<u64>) {
    let root = world.rank() == 0;
    let mut k_buf: Vec<u64> = vec![0; world.size()];
    let mut mapping_cost = None;
    if let Some(sizes) = sizes {
        let k = span::scope("reorder.compute_mapping_s", || {
            compute_mapping(rank.machine(), rank.placement(), world.group(), sizes)
        });
        // Role r runs on the core of the process that takes new rank r.
        let cores: Vec<usize> = inverse_permutation(&k)
            .iter()
            .map(|&old| rank.placement().core_of(world.world_rank_of(old)))
            .collect();
        mapping_cost = Some(mapping_distance_cost(&rank.machine().tree, &cores, sizes));
        for (slot, &ki) in k_buf.iter_mut().zip(&k) {
            *slot = ki as u64;
        }
    }
    {
        let _g = root_span(root, "mpisim.coll.bcast_s");
        rank.bcast(world, 0, &mut k_buf);
        phase_barrier(rank, world, root);
    }
    let k: Vec<usize> = k_buf.iter().map(|&v| v as usize).collect();
    let _g = root_span(root, "mpisim.comm_split_s");
    let opt = rank.comm_split(world, 0, k[world.rank()] as i64);
    phase_barrier(rank, world, root);
    (k, opt, mapping_cost)
}

/// The checks, samples and exact values both loops report.  `result_name`
/// names the application's result in failure messages; `expected_gathered`
/// is what a traced repetition's gathered matrices must hold.
pub fn report(
    mode: Mode,
    base: &Base,
    run: &Launched,
    result_name: &str,
    expected_gathered: u64,
) -> Rep {
    let mut rep = Rep::default();
    let outs = &run.outs;
    rep.sample("wall_s", run.wall_s);

    let root = outs[0].root.as_ref().expect("rank 0 reports the reorder step");
    rep.sample("reorder_step_s", root.reorder_step_s);
    rep.check(is_permutation(&root.k) && root.k.len() == outs.len(), || {
        "k is not a permutation of the communicator".to_string()
    });
    let result = outs[0].result;
    rep.check(outs.iter().all(|o| o.result.to_bits() == base.result.to_bits()), || {
        format!("{result_name} {result} differs from the base run's {}", base.result)
    });
    let comm_ns = on_grid(slowest(outs));
    let gain = on_grid(base.comm_ns) / comm_ns;
    rep.check(gain >= 1.0, || format!("reordering lost communication time: gain {gain}"));
    let retries = outs.iter().map(|o| o.retries).sum::<u64>() + run.universe.nic().retries_total();
    rep.check(retries == 0, || format!("{retries} retries on a fault-free run"));
    rep.exact("mpisim.retries", retries as f64);
    if mode == Mode::Traced {
        // Clocks, and so communication times, shift with the phase barriers,
        // and the diagnostic phases add wire traffic: only untraced
        // repetitions report the exact gain and the NIC counters.
        let gathered = root.gathered_msgs.expect("traced rank 0 counts what it gathered");
        rep.check(gathered == expected_gathered, || {
            format!("gathered {gathered} messages where {expected_gathered} were sent")
        });
        rep.exact("core.session.events", session_events(outs) as f64);
        rep.exact("treematch.mapping_cost", root.mapping_cost.unwrap_or(0) as f64);
    } else {
        let nic = nic_xmit_bytes(&run.universe);
        rep.exact("comm_gain", gain);
        rep.exact("mpisim.nic.xmit_bytes_base", base.nic_bytes as f64);
        rep.exact("mpisim.nic.xmit_bytes_reordered", nic as f64);
        rep.digest = Digest::default().usizes(&root.k).f64(comm_ns).f64(result).u64(nic).finish();
    }
    if let Some(msgs) = run.msgs {
        rep.exact("mpisim.msgs", msgs as f64);
    }
    rep
}

/// Messages every rank's session recorded (traced repetitions).
pub fn session_events(outs: &[RankOut]) -> u64 {
    outs.iter().map(|o| o.events).sum()
}
