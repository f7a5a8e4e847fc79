//! `reduce_overhead`: the paper's Fig 4 protocol — what does monitoring cost
//! the monitored code?
//!
//! 192 ranks packed on `plafrim(8)`.  One sample is: barrier, ten `reduce`s
//! of 1000 B to rank 0, barrier, timed at rank 0.  Bare (session suspended)
//! and monitored (session active) samples alternate inside one universe, so
//! host drift hits both arms alike, and each pair flips which arm goes
//! first.  Only the PML hook and the dense `PairAccum::record` differ
//! between the arms; gather, TreeMatch and split do nothing here.
//!
//! A repetition is one universe running a batch of pairs; the harness pools
//! the samples of every batch.  `wall_s` is the monitored sample, and
//! `monitor_overhead_ratio` the monitored median over the bare median.

use std::time::Instant;

use mim_core::{Monitoring, Msid};
use mim_mpisim::{schedule, Comm, Rank};
use mim_topology::{Machine, Placement};

use super::{rank_retries, root_span, universe, Digest, Mode, MsgCounter, Rep, Workload};
use crate::span;

const RANKS: usize = 192;
const REDUCES_PER_SAMPLE: usize = 10;
const PAYLOAD_BYTES: usize = 1000;
/// Pairs whose timings are dropped at the head of every batch.
const WARMUP_PAIRS: usize = 3;
/// Timed pairs per batch (about half a second).
const PAIRS_PER_BATCH: usize = 25;

pub struct ReduceOverhead {
    machine: Machine,
    placement: Placement,
}

impl ReduceOverhead {
    pub fn prepare() -> Self {
        let (machine, placement) =
            span::scope("topology.build_s", || (Machine::plafrim(8), Placement::packed(RANKS)));
        ReduceOverhead { machine, placement }
    }
}

#[derive(Default)]
struct RankOut {
    /// Seconds per timed sample, rank 0 only.
    bare: Vec<f64>,
    monitored: Vec<f64>,
    /// Reduce results that were not 192 × 1 in every byte (rank 0 only).
    wrong_results: u64,
    events: u64,
    retries: u64,
    clock_ns: f64,
}

/// One sample; returns its host seconds and whether every reduce was right.
fn sample(rank: &Rank, world: &Comm, data: &[u8], root: bool) -> (f64, bool) {
    let barrier = || {
        let _g = root_span(root, "mpisim.coll.barrier_s");
        rank.barrier(world);
    };
    barrier();
    let wall = Instant::now();
    let mut ok = true;
    for _ in 0..REDUCES_PER_SAMPLE {
        let _g = root_span(root, "mpisim.coll.reduce_s");
        let sum = rank.reduce(world, 0, data, |a, b| a.wrapping_add(b));
        if let Some(sum) = sum {
            ok &= sum.len() == data.len() && sum.iter().all(|&b| b == RANKS as u8);
        }
    }
    barrier();
    (wall.elapsed().as_secs_f64(), ok)
}

fn body(rank: &Rank) -> RankOut {
    let world = rank.comm_world();
    let root = world.rank() == 0;
    let init = root_span(root, "core.init_start_s");
    let mon = Monitoring::init(rank).expect("init monitoring");
    let id: Msid = mon.start(rank, &world).expect("start session on world");
    drop(init);
    mon.suspend(id).expect("suspend session"); // start idle
    let data = vec![1u8; PAYLOAD_BYTES];
    let mut out = RankOut::default();
    for pair in 0..WARMUP_PAIRS + PAIRS_PER_BATCH {
        for arm in 0..2 {
            let monitored = (arm + pair) % 2 == 1;
            if monitored {
                mon.resume(id).expect("resume session");
            }
            let (secs, ok) = sample(rank, &world, &data, root);
            if monitored {
                mon.suspend(id).expect("suspend session");
            }
            out.wrong_results += u64::from(!ok);
            if root && pair >= WARMUP_PAIRS {
                (if monitored { &mut out.monitored } else { &mut out.bare }).push(secs);
            }
        }
    }
    out.events = mon.trace_counters(rank, id).expect("session counters").events;
    mon.free(id).expect("free session");
    mon.finalize(rank).expect("finalize monitoring");
    out.retries = rank_retries(rank);
    out.clock_ns = rank.now_ns();
    out
}

impl Workload for ReduceOverhead {
    fn rep(&mut self, mode: Mode) -> Rep {
        let mut rep = Rep::default();
        let u = universe(&self.machine, &self.placement);
        let counter = MsgCounter::install(&u, mode);
        let outs: Vec<RankOut> = span::scope("mpisim.launch_s", || u.launch(body));

        for &s in &outs[0].monitored {
            rep.sample("wall_s", s);
        }
        for &s in &outs[0].bare {
            rep.sample("ledger.bare_sample_s", s);
        }
        rep.check(outs[0].wrong_results == 0, || {
            format!("{} samples reduced to a wrong sum", outs[0].wrong_results)
        });
        // A monitored sample records its two barriers and its ten reduces.
        let per_sample = 2 * schedule::barrier_dissemination(RANKS).total_messages()
            + REDUCES_PER_SAMPLE * schedule::reduce_binomial(RANKS, 0, 1).total_messages();
        let expected = ((WARMUP_PAIRS + PAIRS_PER_BATCH) * per_sample) as u64;
        let events: u64 = outs.iter().map(|o| o.events).sum();
        rep.check(events == expected, || {
            format!("sessions recorded {events} messages, the monitored samples send {expected}")
        });
        rep.retries(outs.iter().map(|o| o.retries), &u);
        rep.exact("core.session.events", events as f64);
        if let Some(c) = counter {
            rep.exact("mpisim.msgs", c.get() as f64);
        }
        rep.digest =
            outs.iter().fold(Digest::default(), |d, o| d.f64(o.clock_ns)).u64(events).finish();
        rep
    }
}
