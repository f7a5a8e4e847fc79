//! The seven workloads and what they share.
//!
//! A workload is built once per process (its [`Prepare`]: input generation
//! from the seed, machine and placement, the base — unmonitored,
//! unreordered — run) and then repeated in a closed loop: a repetition starts when the
//! previous one has joined.  Every repetition checks its own outputs; the
//! harness pools the samples and holds the exact values equal across
//! repetitions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mim_mpisim::{ExecutorKind, PmlEvent, PmlHook, Rank, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

use crate::span;

mod alltoall_plan;
mod cg_windowed;
mod farm_wildcard;
mod reduce_overhead;
mod reorder_loop;
mod ring;
mod stencil_loop;

pub use ring::ring_probe;

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host-time samples by metric name; a repetition may contribute many
    /// samples to one metric.  The harness reports the pooled median.
    pub samples: Vec<(&'static str, f64)>,
    /// Simulated statistics — counts, virtual-time ratios — that every
    /// repetition of one seed must reproduce bit for bit.
    pub exact: Vec<(&'static str, f64)>,
    /// Everything deterministic about the repetition (virtual clocks,
    /// matrices, NIC counters, the permutation), folded into one word so
    /// two commits can be compared exactly.
    pub digest: u64,
    /// Self-checks that failed; non-empty makes the repetition a failed op.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.exact.push((name, value));
    }

    /// `mpisim.retries`: the ranks' [`rank_retries`] plus the NICs'
    /// retransmissions.  A fault-free run has none.
    pub fn retries(&mut self, ranks: impl Iterator<Item = u64>, universe: &Universe) {
        let retries = ranks.sum::<u64>() + universe.nic().retries_total();
        self.check(retries == 0, || format!("{retries} retries on a fault-free run"));
        self.exact("mpisim.retries", retries as f64);
    }

    /// Record a failed self-check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// How a repetition is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The repetition as a user would run it; the only mode whose timings
    /// feed an end-to-end metric.
    Timed,
    /// `Timed` plus a global hook counting wire messages: one shared atomic
    /// on every send, so only the untimed warm-up of a traced run pays it.
    Counted,
    /// Spans recorded, the Fig 1 loop spelled out call by call, and the
    /// diagnostic phases only a trace needs.
    Traced,
}

/// A prepared workload.
pub trait Workload {
    /// Run one repetition.
    fn rep(&mut self, mode: Mode) -> Rep;
}

/// Builds a workload's inputs from the seed and runs its base run.
pub type Prepare = fn(u64) -> Box<dyn Workload>;

/// Every workload by name, in the order `sweep` runs them.
pub const TABLE: &[(&str, Prepare)] = &[
    ("stencil_loop", |_| Box::new(stencil_loop::StencilLoop::prepare())),
    ("cg_windowed", |seed| Box::new(cg_windowed::CgWindowed::prepare(seed))),
    ("reduce_overhead", |_| Box::new(reduce_overhead::ReduceOverhead::prepare())),
    ("ring_scale", |_| Box::new(ring::Ring::prepare(&ring::SCALE))),
    ("ring_monitored", |_| Box::new(ring::Ring::prepare(&ring::MONITORED))),
    ("farm_wildcard", |seed| Box::new(farm_wildcard::FarmWildcard::prepare(seed))),
    ("alltoall_plan", |_| Box::new(alltoall_plan::AlltoallPlan::prepare())),
];

/// The constructor of workload `name`.
pub fn lookup(name: &str) -> Option<Prepare> {
    TABLE.iter().find(|(n, _)| *n == name).map(|&(_, prepare)| prepare)
}

/// A universe on the tasks executor — the engine every live workload is
/// sized for — built under the `mpisim.universe_new_s` span.
pub fn universe(machine: &Machine, placement: &Placement) -> Universe {
    let cfg =
        UniverseConfig::new(machine.clone(), placement.clone()).with_executor(ExecutorKind::Tasks);
    span::scope("mpisim.universe_new_s", || Universe::new(cfg))
}

/// Global PML hook counting wire messages ([`Mode::Counted`]).
#[derive(Default)]
pub struct MsgCounter(AtomicU64);

impl MsgCounter {
    /// Install a fresh counter on `universe` in counted mode.
    pub fn install(universe: &Universe, mode: Mode) -> Option<Arc<MsgCounter>> {
        (mode == Mode::Counted).then(|| {
            let counter = Arc::new(MsgCounter::default());
            universe.add_global_hook(counter.clone());
            counter
        })
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl PmlHook for MsgCounter {
    fn on_send(&self, _ev: &PmlEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Bytes every node's NIC transmitted.
pub fn nic_xmit_bytes(universe: &Universe) -> u64 {
    let nic = universe.nic();
    (0..nic.num_nodes()).map(|node| nic.xmit_bytes(node)).sum()
}

/// This rank's share of `mpisim.retries`: retried sends plus duplicate and
/// stale frames dropped.  Zero on every fault-free run.
pub fn rank_retries(rank: &Rank) -> u64 {
    rank.retry_count() + rank.duplicates_dropped() + rank.stale_dropped()
}

/// A span recorded at rank 0 only (every other rank gets an inert guard).
pub fn root_span(root: bool, name: &'static str) -> span::Guard {
    if root {
        span::enter(name)
    } else {
        span::inert()
    }
}

/// The barrier that closes a traced phase, so the phase's span at rank 0
/// covers every rank's share of it.  `mpisim.coll.barrier_s` measures a
/// barrier alone; subtract it to read a phase net of its closing barrier.
pub fn phase_barrier(rank: &Rank, comm: &mim_mpisim::Comm, root: bool) {
    let _g = root_span(root, "ledger.phase_barrier");
    rank.barrier(comm);
}

/// `mpisim.coll.barrier_s` where no barrier of the workload's own can be
/// spanned: one barrier to bring the ranks together, then a barrier alone
/// under the span.  Traced repetitions call it before any session starts,
/// so no session records it.
pub fn lone_barrier(rank: &Rank, comm: &mim_mpisim::Comm, root: bool) {
    rank.barrier(comm);
    let _g = root_span(root, "mpisim.coll.barrier_s");
    rank.barrier(comm);
}

/// `universe_scale`'s neighbour ring: send right, receive left, `rounds`
/// times, with size-only payloads.  Returns the rank's virtual clock.
pub fn ring_exchange(rank: &Rank, rounds: u32, bytes: u64) -> f64 {
    let world = rank.comm_world();
    let me = world.rank();
    let size = world.size();
    let right = (me + 1) % size;
    let left = (me + size - 1) % size;
    for round in 0..rounds {
        rank.send_synthetic(&world, right, round, bytes);
        rank.recv_synthetic(&world, SrcSel::Rank(left), TagSel::Is(round));
    }
    rank.now_ns()
}

/// A virtual time on a 100 ns grid.  Both reorder loops charge TreeMatch's
/// *wall-clock* time to rank 0's virtual clock, so every later clock carries
/// a run-dependent offset, and a difference of clocks a rounding noise near
/// 1e-12 of its value (measured: 5e-6 ns on 2.6 ms).  The grid is seven
/// orders above that noise, so gridded values repeat exactly, and four
/// orders below a phase's communication time.
pub fn on_grid(ns: f64) -> f64 {
    (ns / 100.0).round() * 100.0
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(mut self, x: u64) -> Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(self, x: f64) -> Self {
        self.u64(x.to_bits())
    }

    pub fn usizes(self, xs: &[usize]) -> Self {
        xs.iter().fold(self.u64(xs.len() as u64), |d, &x| d.u64(x as u64))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Whether `k` is a permutation of `0..k.len()`.
pub fn is_permutation(k: &[usize]) -> bool {
    let mut seen = vec![false; k.len()];
    k.iter().all(|&x| x < k.len() && !std::mem::replace(&mut seen[x], true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_check() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(is_permutation(&[]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3, 1]));
    }

    #[test]
    fn digest_depends_on_order_and_length() {
        let a = Digest::default().usizes(&[1, 2]).finish();
        let b = Digest::default().usizes(&[2, 1]).finish();
        let c = Digest::default().usizes(&[1]).u64(2).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Digest::default().usizes(&[1, 2]).finish());
    }

    #[test]
    fn lookup_knows_the_table() {
        assert!(lookup("no_such_workload").is_none());
        assert!(TABLE.iter().all(|(name, _)| lookup(name).is_some()));
    }
}
