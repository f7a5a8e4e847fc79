//! The grouped-allgather micro-benchmark of paper Sec 6.4 (Fig 6).
//!
//! Groups of ranks run an `MPI_Allgather` per iteration on their own
//! sub-communicator.  The initial mapping is cyclic over the nodes, so every
//! group's members are spread across the machine and each ring hop crosses
//! the network; reordering each group packs its members.  The paper's gain
//! for `n` iterations is `100·(t1 − (t2 + t3)) / t1` with `t1`/`t3` the
//! before/after times of `n` iterations and `t2` the reordering cost.
//!
//! The monitoring/reordering pipeline (and `t2`) run live on the threaded
//! runtime; per-iteration times come from the deterministic contended
//! evaluator over the *combined* schedule of all groups rung concurrently —
//! the groups share each node's NIC, which is most of the effect.  Because
//! iterations are deterministic, the harness measures per-iteration times
//! once and extrapolates over the iteration axis (see EXPERIMENTS.md).

use mim_core::{Flags, Monitoring};
use mim_mpisim::{schedule, Schedule, Step, Universe, UniverseConfig};
use mim_reorder::monitored_reorder;
use mim_topology::{inverse_permutation, Machine, Placement};

/// Measured components of the Fig 6 gain formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupGain {
    /// Virtual time of one allgather iteration before reordering (ns, max
    /// over ranks, all groups running concurrently).
    pub per_iter_before_ns: f64,
    /// Same, after reordering.
    pub per_iter_after_ns: f64,
    /// Reordering cost `t2` (ns, max over ranks), including the TreeMatch
    /// computation charged on each group's root.
    pub reorder_ns: f64,
}

impl GroupGain {
    /// The paper's gain percentage for `iters` iterations:
    /// `100·(t1 − (t2 + t3)) / t1`.
    pub fn gain_percent(&self, iters: u64) -> f64 {
        let t1 = iters as f64 * self.per_iter_before_ns;
        let t3 = iters as f64 * self.per_iter_after_ns;
        100.0 * (t1 - (self.reorder_ns + t3)) / t1
    }
}

/// Embed each group's ring-allgather into one world-sized schedule: all
/// groups run concurrently (they do in the benchmark, and they contend for
/// the NICs).
#[allow(clippy::needless_range_loop)] // indices address several arrays at once
fn combined_ring_schedule(nprocs: usize, group_size: usize, block_bytes: u64) -> Schedule {
    let ring = schedule::allgather_ring(group_size, block_bytes);
    let mut steps = vec![Vec::new(); nprocs];
    for world in 0..nprocs {
        let base = world - world % group_size;
        let local = world - base;
        steps[world] = ring
            .rank_steps(local)
            .iter()
            .map(|s| match *s {
                Step::Send { peer, bytes } => Step::Send { peer: base + peer, bytes },
                Step::Recv { peer } => Step::Recv { peer: base + peer },
            })
            .collect();
    }
    Schedule::new(steps)
}

/// Run the micro-benchmark: `nprocs` ranks placed cyclically over the nodes
/// of `machine`, split into groups of `group_size` consecutive ranks, each
/// group allgathering `buf_ints` 4-byte integers per member per iteration.
///
/// # Panics
/// Panics when `nprocs` is not a multiple of `group_size` or exceeds the
/// machine.
pub fn grouped_allgather_gain(
    machine: Machine,
    nprocs: usize,
    group_size: usize,
    buf_ints: u64,
) -> GroupGain {
    assert!(
        nprocs.is_multiple_of(group_size),
        "{nprocs} ranks not divisible into {group_size}-groups"
    );
    let placement = Placement::cyclic_by_level(&machine.tree, nprocs, machine.node_level);
    let cfg = UniverseConfig::new(machine.clone(), placement.clone());
    let u = Universe::new(cfg);
    let block_bytes = buf_ints * 4;
    // Live pipeline: each group monitors one allgather and reorders itself.
    let results = u.launch(move |rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let group = rank.comm_split(&world, (me / group_size) as i64, me as i64);
        let sched = schedule::allgather_ring(group_size, block_bytes);
        let mon = Monitoring::init(rank).unwrap();
        rank.barrier(&world);
        let outcome = monitored_reorder(rank, &mon, &group, Flags::COLL_ONLY, |comm| {
            schedule::execute(rank, comm, &sched)
        });
        rank.barrier(&world);
        mon.finalize(rank).unwrap();
        // t2 = the reordering machinery only; the monitored iteration
        // replaces one "before" iteration (the paper's init-phase trick).
        (outcome.reorder_cost_ns, outcome.comm.rank())
    });
    let reorder_ns = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    // Assemble the world-level new rank→core mapping: within group g, new
    // group-rank r is held by the old member at inv_k[r].
    let cores_base: Vec<usize> = (0..nprocs).map(|r| placement.core_of(r)).collect();
    let mut cores_opt = vec![0usize; nprocs];
    for base in (0..nprocs).step_by(group_size) {
        let k: Vec<usize> = (0..group_size).map(|i| results[base + i].1).collect();
        let inv = inverse_permutation(&k);
        for r in 0..group_size {
            cores_opt[base + r] = cores_base[base + inv[r]];
        }
    }
    let combined = combined_ring_schedule(nprocs, group_size, block_bytes);
    let makespan = |cores: &[usize]| {
        schedule::simulate(&combined, &machine, cores, true).into_iter().fold(0.0f64, f64::max)
    };
    GroupGain {
        per_iter_before_ns: makespan(&cores_base),
        per_iter_after_ns: makespan(&cores_opt),
        reorder_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_schedule_is_valid() {
        let s = combined_ring_schedule(12, 4, 100);
        s.validate().unwrap();
        assert_eq!(s.total_messages(), 12 * 3);
        assert_eq!(s.total_bytes(), 12 * 3 * 100);
    }

    #[test]
    fn reordering_shrinks_the_iteration() {
        // 16 ranks cyclic over 2 nodes, groups of 8, big buffers: every ring
        // hop crosses the network before reordering, almost none after.
        let g = grouped_allgather_gain(Machine::cluster(2, 1, 8), 16, 8, 100_000);
        assert!(
            g.per_iter_after_ns < g.per_iter_before_ns,
            "after {} !< before {}",
            g.per_iter_after_ns,
            g.per_iter_before_ns
        );
        assert!(g.reorder_ns > 0.0);
    }

    #[test]
    fn gain_signs_follow_the_paper() {
        let g = grouped_allgather_gain(Machine::cluster(2, 1, 8), 16, 8, 100_000);
        // Few iterations: the reordering cost dominates — lower gain.
        assert!(g.gain_percent(1) < g.gain_percent(10_000));
        // Many iterations amortize the reordering: positive gain.
        assert!(g.gain_percent(10_000) > 0.0, "gain at 10k iterations: {}", g.gain_percent(10_000));
    }

    #[test]
    fn single_iteration_cannot_amortize() {
        // With one iteration of tiny buffers, the reordering cost cannot pay
        // off — the paper's red region.
        let g = grouped_allgather_gain(Machine::cluster(2, 1, 8), 16, 8, 10);
        assert!(g.gain_percent(1) < 0.0, "gain at 1 iteration: {}", g.gain_percent(1));
    }
}
