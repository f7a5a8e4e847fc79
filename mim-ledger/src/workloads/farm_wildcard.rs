//! `farm_wildcard`: a master/worker farm that drives the mailbox and post
//! layers the other way round from every other workload.
//!
//! 255 workers each post 200 size-only results (256–2048 B, drawn from the
//! seed) to rank 0 with at most 16 outstanding; rank 0 receives with
//! `SrcSel::Any`/`TagSel::Any` and acknowledges each with 64 B.  One hot
//! mailbox, wildcard matching and fan-in notify: no other workload issues a
//! wildcard receive, so a specific-match or delivery-batching gain that
//! costs wildcards shows here.  One monitoring session is on throughout.

use std::time::Instant;

use mim_core::Monitoring;
use mim_mpisim::{Rank, SrcSel, TagSel};
use mim_topology::{Machine, Placement};
use mim_util::rng::Rng;

use super::{rank_retries, root_span, universe, Digest, Mode, MsgCounter, Rep, Workload};
use crate::span;

const RANKS: usize = 256;
const RESULTS_PER_WORKER: usize = 200;
const MAX_OUTSTANDING: usize = 16;
const ACK_BYTES: u64 = 64;
const RESULT_TAG: u32 = 1;
const ACK_TAG: u32 = 2;

pub struct FarmWildcard {
    machine: Machine,
    placement: Placement,
    /// `sizes[w][i]`: bytes of worker `w + 1`'s `i`-th result.
    sizes: Vec<Vec<u64>>,
    total_bytes: u64,
}

/// Per rank: results handled and bytes received (master only), messages the
/// session recorded, unexpected-queue high-water mark, retries.
#[derive(Clone, Copy, Default)]
struct RankOut {
    handled: u64,
    bytes: u64,
    events: u64,
    max_depth: usize,
    retries: u64,
}

fn master(rank: &Rank, expected: usize) -> (u64, u64) {
    let world = rank.comm_world();
    let (mut handled, mut bytes) = (0u64, 0u64);
    for _ in 0..expected {
        let status = rank.recv_synthetic(&world, SrcSel::Any, TagSel::Any);
        handled += 1;
        bytes += status.bytes;
        rank.send_synthetic(&world, status.src, ACK_TAG, ACK_BYTES);
    }
    (handled, bytes)
}

fn worker(rank: &Rank, sizes: &[u64]) {
    let world = rank.comm_world();
    let await_ack = || rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(ACK_TAG));
    for (i, &bytes) in sizes.iter().enumerate() {
        if i >= MAX_OUTSTANDING {
            await_ack();
        }
        rank.send_synthetic(&world, 0, RESULT_TAG, bytes);
    }
    for _ in 0..sizes.len().min(MAX_OUTSTANDING) {
        await_ack();
    }
}

impl FarmWildcard {
    pub fn prepare(seed: u64) -> Self {
        let (machine, placement) =
            span::scope("topology.build_s", || (Machine::plafrim(11), Placement::packed(RANKS)));
        let mut rng = Rng::seed_from_u64(seed);
        let sizes: Vec<Vec<u64>> = (1..RANKS)
            .map(|_| (0..RESULTS_PER_WORKER).map(|_| rng.gen_range(256u64..=2048)).collect())
            .collect();
        let total_bytes = sizes.iter().flatten().sum();
        FarmWildcard { machine, placement, sizes, total_bytes }
    }
}

impl Workload for FarmWildcard {
    fn rep(&mut self, mode: Mode) -> Rep {
        let mut rep = Rep::default();
        let sizes = &self.sizes;
        let expected = (RANKS - 1) * RESULTS_PER_WORKER;
        let wall = Instant::now();
        let u = universe(&self.machine, &self.placement);
        let counter = MsgCounter::install(&u, mode);
        let outs: Vec<RankOut> = span::scope("mpisim.launch_s", || {
            u.launch(|rank| {
                let world = rank.comm_world();
                let me = world.rank();
                let root = me == 0;
                let init = root_span(root, "core.init_start_s");
                let mon = Monitoring::init(rank).expect("init monitoring");
                let id = mon.start(rank, &world).expect("start session on world");
                drop(init);
                let mut out = RankOut::default();
                if root {
                    let _g = span::enter("ledger.farm_master");
                    (out.handled, out.bytes) = master(rank, expected);
                } else {
                    worker(rank, &sizes[me - 1]);
                }
                let _g = root_span(root, "core.teardown");
                mon.suspend(id).expect("suspend session");
                out.events = mon.trace_counters(rank, id).expect("session counters").events;
                mon.free(id).expect("free session");
                mon.finalize(rank).expect("finalize monitoring");
                out.max_depth = rank.max_unexpected_depth();
                out.retries = rank_retries(rank);
                out
            })
        });
        rep.sample("wall_s", wall.elapsed().as_secs_f64());

        let m = outs[0];
        rep.check(m.handled == expected as u64 && m.bytes == self.total_bytes, || {
            format!(
                "master handled {} results / {} B, the workers sent {expected} / {} B",
                m.handled, m.bytes, self.total_bytes
            )
        });
        // Every result and every acknowledgement is one recorded message.
        let events: u64 = outs.iter().map(|o| o.events).sum();
        rep.check(events == 2 * expected as u64, || {
            format!("sessions recorded {events} messages, the farm sends {}", 2 * expected)
        });
        rep.retries(outs.iter().map(|o| o.retries), &u);
        rep.exact("core.session.events", events as f64);
        // Arrival order at the master depends on host scheduling, so the
        // depth is a diagnostic sample, not an exact value.
        rep.sample("mpisim.mailbox.max_unexpected_depth", m.max_depth as f64);
        if let Some(c) = counter {
            rep.exact("mpisim.msgs", c.get() as f64);
        }
        // Clocks follow the arrival order; only the totals are deterministic.
        rep.digest = Digest::default().u64(m.handled).u64(m.bytes).u64(events).finish();
        rep
    }
}
