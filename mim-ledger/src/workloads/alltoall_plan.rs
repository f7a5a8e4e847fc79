//! `alltoall_plan`: the offline path behind Fig 5/6 and the analyzer.
//!
//! One repetition builds `schedule::alltoall_pairwise(256, 4096)`, verifies
//! it statically (`Schedule::analyze`), and evaluates it with and without
//! NIC contention on `cluster(4, 2, 32)`.  Single-threaded discrete-event
//! simulation plus the static verifier: no executor, no mailbox, so every
//! live-runtime optimisation predicts no change here.

use std::time::Instant;

use mim_analyze::{Determinism, Verdict};
use mim_mpisim::schedule;
use mim_topology::{Machine, Placement};

use super::{Digest, Mode, Rep, Workload};
use crate::span;

const RANKS: usize = 256;
const CHUNK_BYTES: u64 = 4096;
/// `UniverseConfig::new`'s per-message overheads, so the evaluator charges
/// what the live runtime would.
const SEND_OVERHEAD_NS: f64 = 100.0;
const RECV_OVERHEAD_NS: f64 = 50.0;

pub struct AlltoallPlan {
    machine: Machine,
    rank_to_core: Vec<usize>,
}

impl AlltoallPlan {
    pub fn prepare() -> Self {
        let (machine, placement) = span::scope("topology.build_s", || {
            (Machine::cluster(4, 2, 32), Placement::packed(RANKS))
        });
        AlltoallPlan { machine, rank_to_core: placement.as_slice().to_vec() }
    }
}

fn makespan(clocks: &[f64]) -> f64 {
    clocks.iter().copied().fold(0.0, f64::max)
}

impl Workload for AlltoallPlan {
    fn rep(&mut self, _mode: Mode) -> Rep {
        let mut rep = Rep::default();
        let wall = Instant::now();
        let sched = span::scope("mpisim.schedule.build_s", || {
            schedule::alltoall_pairwise(RANKS, CHUNK_BYTES)
        });
        let report = span::scope("analyze.check_s", || sched.analyze());
        let (m, cores) = (&self.machine, &self.rank_to_core[..]);
        let free = span::scope("mpisim.schedule.evaluate_s", || {
            schedule::evaluate(&sched, m, cores, SEND_OVERHEAD_NS, RECV_OVERHEAD_NS)
        });
        let contended = span::scope("mpisim.schedule.evaluate_contended_s", || {
            schedule::evaluate_contended(&sched, m, cores, SEND_OVERHEAD_NS, RECV_OVERHEAD_NS)
        });
        rep.sample("wall_s", wall.elapsed().as_secs_f64());

        rep.check(report.verdict == Verdict::DeadlockFree, || {
            format!("verdict {}", report.verdict.kind())
        });
        rep.check(report.determinism == Determinism::Deterministic, || {
            format!("determinism {}", report.determinism.kind())
        });
        let (free_ns, contended_ns) = (makespan(&free), makespan(&contended));
        rep.check(contended_ns >= free_ns && free_ns > 0.0, || {
            format!("contended makespan {contended_ns} ns below uncontended {free_ns} ns")
        });
        let msgs = sched.total_messages();
        rep.check(msgs == RANKS * (RANKS - 1), || format!("{msgs} messages in the schedule"));
        rep.exact("mpisim.schedule.msgs", msgs as f64);
        rep.exact("mpisim.msgs", msgs as f64);
        // Bit-identical makespans: the harness holds digests equal.
        rep.digest = free
            .iter()
            .chain(&contended)
            .fold(Digest::default(), |d, &t| d.f64(t))
            .u64(sched.total_bytes())
            .finish();
        rep
    }
}
