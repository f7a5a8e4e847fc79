//! `ring_scale` and `ring_monitored`: `universe_scale`'s neighbour ring at
//! 10 000 ranks bare, and at 4096 ranks under one always-on monitoring
//! session.
//!
//! The bare ring is the executor's own workload — `Universe::new`,
//! launch/join, park/resume and post/notify per rank — with monitoring and
//! reordering doing nothing, so a monitoring change must not move it.  The
//! monitored ring crosses the same executor and mailbox layers with
//! `Monitoring::init` + `start` on world: `start`'s barrier, the per-rank
//! session state and sparse `record` dominate.  It runs at 4096 ranks, not
//! 10 000, because a monitored 10k universe holds one n-entry member map
//! per rank (several GiB) and its run time varies twofold between launches.

use std::time::Instant;

use mim_core::Monitoring;
use mim_mpisim::{ExecutorKind, Rank, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

use super::{
    lone_barrier, rank_retries, ring_exchange, root_span, universe, Digest, Mode, MsgCounter, Rep,
    Workload,
};
use crate::span;

pub const ROUNDS: u32 = 4;
pub const BYTES: u64 = 256;

/// One of the two ring sizings.
pub struct Sizing {
    pub ranks: usize,
    pub monitored: bool,
}

pub const SCALE: Sizing = Sizing { ranks: 10_000, monitored: false };
pub const MONITORED: Sizing = Sizing { ranks: 4096, monitored: true };

/// One 64-core node per 64 ranks, as in `universe_scale`: the machine tree
/// stays proportional to the universe instead of hiding topology cost.
pub fn ring_machine(ranks: usize) -> (Machine, Placement) {
    (Machine::cluster(ranks.div_ceil(64), 1, 64), Placement::packed(ranks))
}

/// One whole bare ring universe — build, launch, exchange, join — on
/// `executor`; returns its host seconds.  The probes' lower rungs of
/// `ring_scale`'s ladder.
pub fn ring_probe(ranks: usize, executor: ExecutorKind, rounds: u32) -> f64 {
    let (machine, placement) = ring_machine(ranks);
    let wall = Instant::now();
    let u = Universe::new(UniverseConfig::new(machine, placement).with_executor(executor));
    std::hint::black_box(u.launch(|rank| ring_exchange(rank, rounds, BYTES)));
    wall.elapsed().as_secs_f64()
}

pub struct Ring {
    sizing: &'static Sizing,
    machine: Machine,
    placement: Placement,
}

/// What each rank hands back: its virtual clock, the messages its session
/// recorded, and its retry count.
type RankOut = (f64, u64, u64);

fn monitored_body(rank: &Rank, traced: bool) -> RankOut {
    let world = rank.comm_world();
    let root = world.rank() == 0;
    if traced {
        // `start` below is mostly a barrier; this says how much of it.
        lone_barrier(rank, &world, root);
    }
    let init = root_span(root, "core.init_start_s");
    let mon = Monitoring::init(rank).expect("init monitoring");
    let id = mon.start(rank, &world).expect("start session on world");
    drop(init);
    let clock = {
        let _g = root_span(root, "ledger.ring_rounds");
        ring_exchange(rank, ROUNDS, BYTES)
    };
    let _g = root_span(root, "core.teardown");
    mon.suspend(id).expect("suspend session");
    let events = mon.trace_counters(rank, id).expect("session counters").events;
    mon.free(id).expect("free session");
    mon.finalize(rank).expect("finalize monitoring");
    (clock, events, rank_retries(rank))
}

impl Ring {
    pub fn prepare(sizing: &'static Sizing) -> Self {
        let (machine, placement) = span::scope("topology.build_s", || ring_machine(sizing.ranks));
        Ring { sizing, machine, placement }
    }
}

impl Workload for Ring {
    fn rep(&mut self, mode: Mode) -> Rep {
        let mut rep = Rep::default();
        let monitored = self.sizing.monitored;
        let traced = mode == Mode::Traced;
        let wall = Instant::now();
        let u = universe(&self.machine, &self.placement);
        let counter = MsgCounter::install(&u, mode);
        let outs: Vec<RankOut> = span::scope("mpisim.launch_s", || {
            u.launch(|rank| {
                if monitored {
                    monitored_body(rank, traced)
                } else {
                    (ring_exchange(rank, ROUNDS, BYTES), 0, rank_retries(rank))
                }
            })
        });
        rep.sample("wall_s", wall.elapsed().as_secs_f64());

        let n = self.sizing.ranks as u64;
        let events: u64 = outs.iter().map(|o| o.1).sum();
        rep.retries(outs.iter().map(|o| o.2), &u);
        if monitored {
            rep.exact("core.session.events", events as f64);
            rep.check(events == n * u64::from(ROUNDS), || {
                format!("sessions recorded {events} messages, the ring sends {}", n * 4)
            });
        }
        if let Some(c) = counter {
            rep.exact("mpisim.msgs", c.get() as f64);
        }
        // Every rank's clock: the ring is deterministic end to end.
        rep.digest = outs.iter().fold(Digest::default(), |d, o| d.f64(o.0)).u64(events).finish();
        rep
    }
}
