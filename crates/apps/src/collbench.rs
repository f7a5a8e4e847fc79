//! Collective-optimization pipeline of paper Sec 6.3 (Fig 5): monitor a
//! collective's point-to-point decomposition, reorder the ranks with
//! TreeMatch, and compare the collective's runtime before and after.
//!
//! The monitoring → matrix → TreeMatch → `comm_split` pipeline runs live on
//! the threaded runtime; the before/after collective *timings* come from the
//! deterministic discrete-event evaluator with per-node NIC contention
//! ([`mim_mpisim::schedule::simulate`] with `contention`), which is what makes
//! bandwidth-bound tree collectives placement-sensitive in the first place.

use mim_core::{Flags, Monitoring};
use mim_mpisim::{schedule, Schedule, Universe, UniverseConfig};
use mim_reorder::monitored_reorder;
use mim_topology::{inverse_permutation, Machine, Placement};

/// Which collective (and algorithm) the paper's Fig 5 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// `MPI_Reduce`, binary-tree algorithm (Fig 5a).
    ReduceBinary,
    /// `MPI_Bcast`, binomial-tree algorithm (Fig 5b).
    BcastBinomial,
}

impl CollectiveKind {
    /// The collective's point-to-point schedule for `n` ranks rooted at 0.
    pub(crate) fn schedule(self, n: usize, bytes: u64) -> Schedule {
        match self {
            CollectiveKind::ReduceBinary => schedule::reduce_binary(n, 0, bytes),
            CollectiveKind::BcastBinomial => schedule::bcast_binomial(n, 0, bytes),
        }
    }

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::ReduceBinary => "MPI_Reduce/binary",
            CollectiveKind::BcastBinomial => "MPI_Bcast/binomial",
        }
    }
}

/// One point of Fig 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollOptPoint {
    /// Number of ranks.
    pub np: usize,
    /// Buffer size in 4-byte integers.
    pub buf_ints: u64,
    /// Collective runtime without monitoring, round-robin mapping (ns).
    /// Reduce: time at the root; bcast: total (max over ranks).
    pub baseline_ns: f64,
    /// Same collective after introspection monitoring + rank reordering.
    pub reordered_ns: f64,
}

impl CollOptPoint {
    /// Speedup of the reordered collective.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.reordered_ns
    }
}

/// Compute the reordering permutation for a collective's monitored
/// decomposition: runs the live pipeline (session → gather at rank 0 →
/// TreeMatch → broadcast → split) and returns `k`.
pub(crate) fn monitored_permutation(
    machine: &Machine,
    placement: &Placement,
    sched: &Schedule,
) -> Vec<usize> {
    let u = Universe::new(UniverseConfig::new(machine.clone(), placement.clone()));
    let (new_ranks, mut ks): (Vec<usize>, Vec<Vec<usize>>) = u
        .launch(|rank| {
            let world = rank.comm_world();
            let mon = Monitoring::init(rank).unwrap();
            let outcome = monitored_reorder(rank, &mon, &world, Flags::COLL_ONLY, |comm| {
                schedule::execute(rank, comm, sched)
            });
            mon.finalize(rank).unwrap();
            (outcome.comm.rank(), outcome.k)
        })
        .into_iter()
        .unzip();
    let k = ks.swap_remove(0);
    // Sanity: the optimized communicator really assigns old rank i rank k[i].
    assert_eq!(new_ranks, k);
    k
}

/// Run the full pipeline for one `(np, buffer)` point: time the collective
/// on the paper's "round-robin" baseline mapping (cyclic over the nodes, the
/// mapping a user gets "without any specification"), monitor its
/// decomposition live, reorder, and time it again under the new rank→core
/// mapping.
pub fn collective_opt(
    machine: Machine,
    np: usize,
    kind: CollectiveKind,
    buf_ints: u64,
) -> CollOptPoint {
    assert!(np <= machine.num_cores(), "{np} ranks exceed the machine");
    let placement = Placement::cyclic_by_level(&machine.tree, np, machine.node_level);
    let bytes = buf_ints * 4;
    let sched = kind.schedule(np, bytes);
    let k = monitored_permutation(&machine, &placement, &sched);
    let inv = inverse_permutation(&k);
    // Schedule rank r runs on the process holding (new) rank r: old rank
    // inv[r], whose core never moved.
    let cores_base: Vec<usize> = (0..np).map(|r| placement.core_of(r)).collect();
    let cores_opt: Vec<usize> = (0..np).map(|r| cores_base[inv[r]]).collect();
    let time = |cores: &[usize]| {
        let per_rank = schedule::simulate(&sched, &machine, cores, true);
        match kind {
            // Reduce: the paper plots the time at the root (schedule rank 0).
            CollectiveKind::ReduceBinary => per_rank[0],
            // Bcast: total time = max over ranks.
            CollectiveKind::BcastBinomial => per_rank.into_iter().fold(0.0f64, f64::max),
        }
    };
    CollOptPoint { np, buf_ints, baseline_ns: time(&cores_base), reordered_ns: time(&cores_opt) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_reordering_helps_on_spread_ranks() {
        // 16 ranks over 2 nodes, large buffers: the binary tree's heavy
        // edges get pulled inside nodes.
        let p =
            collective_opt(Machine::cluster(2, 1, 8), 16, CollectiveKind::ReduceBinary, 500_000);
        assert!(
            p.reordered_ns < p.baseline_ns,
            "reduce got slower: {} -> {}",
            p.baseline_ns,
            p.reordered_ns
        );
    }

    #[test]
    fn bcast_reordering_helps() {
        let p =
            collective_opt(Machine::cluster(2, 1, 8), 16, CollectiveKind::BcastBinomial, 500_000);
        assert!(
            p.reordered_ns < p.baseline_ns,
            "bcast got slower: {} -> {}",
            p.baseline_ns,
            p.reordered_ns
        );
        assert!(p.speedup() > 1.0);
    }

    #[test]
    fn all_buffer_sizes_benefit() {
        // Paper: "we are able to optimize the collective communication
        // runtime for all the buffer size" — small ones via the latency
        // ratio, large ones via bandwidth and NIC contention.
        for buf in [100u64, 10_000, 1_000_000] {
            let p =
                collective_opt(Machine::cluster(2, 1, 8), 16, CollectiveKind::ReduceBinary, buf);
            assert!(p.speedup() > 1.0, "no gain at {buf} ints: {:?}", p);
        }
    }

    #[test]
    fn schedules_have_tree_shape() {
        for kind in [CollectiveKind::ReduceBinary, CollectiveKind::BcastBinomial] {
            let s = kind.schedule(12, 100);
            assert_eq!(s.total_messages(), 11);
            s.validate().unwrap();
        }
    }
}
