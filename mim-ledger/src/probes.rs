//! Standalone probes: one public function of one layer, timed alone on a
//! fixed input, so a layer's own cost can be read beside the spans of the
//! workloads that lean on it.
//!
//! A traced run of a workload runs the probes listed for that workload in
//! [`TABLE`] — the layers the workload's `wall_s` should follow — and
//! reports every other probe metric as 0 (not probed here).  Inputs are
//! fixed, not seeded: a probe compares two commits, not two inputs.

use std::hint::black_box;
use std::time::Instant;

use mim_core::{Flags, Monitoring, PairAccum};
use mim_mpisim::envelope::{Ctx, Envelope, MsgKind, Payload};
use mim_mpisim::mailbox::{self, MatchPattern, UnexpectedQueue};
use mim_mpisim::{ExecutorKind, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};
use mim_treematch::affinity::stencil2d;
use mim_treematch::tree_match;
use mim_util::channel;
use mim_util::deque::{self, Steal};
use mim_util::fiber::{self, Fiber, Resume};
use mim_util::rng::Rng;
use mim_util::sync::Notifier;

use crate::stats::median;
use crate::workloads::ring_probe;

/// Samples per probe; the heavy ones (a universe of thousands of ranks per
/// sample) take [`HEAVY_SAMPLES`].
const SAMPLES: usize = 15;
const HEAVY_SAMPLES: usize = 7;

/// What a probe measured: `(metric, value)` pairs.
pub type Readings = Vec<(&'static str, f64)>;

/// One probe: the metrics it yields, the workloads whose traced run carries
/// it, and the measurement.
pub struct Probe {
    pub metrics: &'static [&'static str],
    pub workloads: &'static [&'static str],
    pub run: fn() -> Readings,
}

/// Every probe.  `mpisim.scale_exponent` is derived by the harness from
/// `mpisim.ring_1024_s` and `ring_scale`'s own `wall_s`.
pub const TABLE: &[Probe] = &[
    Probe {
        metrics: &["topology.message_ns"],
        workloads: &["alltoall_plan", "ring_scale"],
        run: topology_message,
    },
    Probe {
        metrics: &["util.channel.send_recv_ns"],
        workloads: &["ring_scale", "farm_wildcard"],
        run: channel_send_recv,
    },
    Probe { metrics: &["util.deque.push_pop_ns"], workloads: &["ring_scale"], run: deque_push_pop },
    Probe { metrics: &["util.deque.steal_ns"], workloads: &["stencil_loop"], run: deque_steal },
    Probe {
        metrics: &["util.fiber.switch_ns"],
        workloads: &["ring_scale", "farm_wildcard"],
        run: fiber_switch,
    },
    Probe {
        metrics: &["util.notifier.notify_ns"],
        workloads: &["ring_scale"],
        run: notifier_notify,
    },
    Probe { metrics: &["mpisim.launch_empty_s"], workloads: &["ring_scale"], run: launch_empty },
    Probe { metrics: &["mpisim.ring_1024_s"], workloads: &["ring_scale"], run: ring_1024 },
    Probe {
        metrics: &["mpisim.ring_4096_s"],
        workloads: &["ring_scale", "ring_monitored"],
        run: ring_4096,
    },
    Probe {
        metrics: &["mpisim.exec.tasks_over_threads"],
        workloads: &["ring_scale", "farm_wildcard"],
        run: tasks_over_threads,
    },
    Probe {
        metrics: &["mpisim.p2p.stream_ns", "mpisim.p2p.payload_ns_per_kib"],
        workloads: &["stencil_loop", "cg_windowed"],
        run: p2p_stream,
    },
    Probe {
        metrics: &["mpisim.p2p.pingpong_ns"],
        workloads: &["farm_wildcard", "ring_scale"],
        run: p2p_pingpong,
    },
    Probe {
        metrics: &["mpisim.mailbox.match_specific_ns"],
        workloads: &["stencil_loop"],
        run: mailbox_specific,
    },
    Probe {
        metrics: &["mpisim.mailbox.match_wildcard_ns"],
        workloads: &["farm_wildcard"],
        run: mailbox_wildcard,
    },
    Probe {
        metrics: &["core.accum.record_dense_ns"],
        workloads: &["reduce_overhead"],
        run: accum_record_dense,
    },
    Probe {
        metrics: &["core.accum.record_sparse_ns", "core.accum.mem_bytes"],
        workloads: &["ring_monitored", "stencil_loop"],
        run: accum_record_sparse,
    },
    Probe {
        metrics: &["core.accum.sparse_row_ns"],
        workloads: &["stencil_loop", "cg_windowed"],
        run: accum_sparse_row,
    },
    Probe {
        metrics: &["core.hook_ns_per_msg"],
        workloads: &["reduce_overhead"],
        run: hook_per_msg,
    },
    Probe {
        metrics: &["treematch.tree_match_s"],
        workloads: &["stencil_loop"],
        run: tree_match_1024,
    },
];

/// Run the probes `workload`'s traced run carries.
pub fn run_for(workload: &str) -> Readings {
    let mut out = Readings::new();
    for p in TABLE.iter().filter(|p| p.workloads.contains(&workload)) {
        let readings = (p.run)();
        assert!(
            readings.iter().map(|(name, _)| name).eq(p.metrics),
            "probe yielded {readings:?}, declared {:?}",
            p.metrics
        );
        out.extend(readings);
    }
    out
}

/// Median over `samples` of `f`, which returns one sample in the metric's
/// unit.
fn sampled(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..samples).map(|_| f()).collect();
    median(&xs)
}

/// Nanoseconds per operation of `ops` operations run by `f`.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / ops as f64
}

fn topology_message() -> Readings {
    const PAIRS: usize = 1_000_000;
    let machine = Machine::cluster(16, 2, 32);
    let cores = machine.num_cores();
    let mut rng = Rng::seed_from_u64(0x7090);
    let pairs: Vec<(u32, u32)> =
        (0..PAIRS).map(|_| (rng.index(cores) as u32, rng.index(cores) as u32)).collect();
    let ns = sampled(SAMPLES, || {
        ns_per_op(PAIRS, || {
            let mut sum = 0.0;
            for &(a, b) in &pairs {
                sum += machine.message_ns(a as usize, b as usize, 4096);
            }
            black_box(sum);
        })
    });
    vec![("topology.message_ns", ns)]
}

fn channel_send_recv() -> Readings {
    const OPS: usize = 200_000;
    let (tx, rx) = channel::unbounded::<u64>();
    let ns = sampled(SAMPLES, || {
        ns_per_op(OPS, || {
            for i in 0..OPS as u64 {
                tx.send(black_box(i)).expect("receiver alive");
                black_box(rx.try_recv().expect("just sent"));
            }
        })
    });
    vec![("util.channel.send_recv_ns", ns)]
}

fn deque_push_pop() -> Readings {
    const OPS: usize = 1_000_000;
    let (mut worker, _stealer) = deque::deque(1024);
    let ns = sampled(SAMPLES, || {
        ns_per_op(OPS, || {
            for i in 0..OPS {
                worker.push(black_box(i)).expect("deque has room");
                black_box(worker.pop());
            }
        })
    });
    vec![("util.deque.push_pop_ns", ns)]
}

fn deque_steal() -> Readings {
    const ITEMS: usize = 1 << 16;
    let ns = sampled(SAMPLES, || {
        let (mut worker, stealer) = deque::deque(ITEMS);
        for i in 0..ITEMS {
            worker.push(i).expect("deque has room");
        }
        // The owner stays idle: this is the uncontended thief's cost.
        std::thread::scope(|s| {
            s.spawn(|| {
                ns_per_op(ITEMS, || {
                    let mut stolen = 0;
                    while stolen < ITEMS {
                        if let Steal::Success(item) = stealer.steal() {
                            black_box(item);
                            stolen += 1;
                        }
                    }
                })
            })
            .join()
            .expect("thief thread")
        })
    });
    vec![("util.deque.steal_ns", ns)]
}

fn fiber_switch() -> Readings {
    if !fiber::SUPPORTED {
        return vec![("util.fiber.switch_ns", 0.0)];
    }
    const SWITCHES: usize = 200_000;
    let ns = sampled(SAMPLES, || {
        let mut f = Fiber::new(
            64 << 10,
            Box::new(|| {
                for _ in 0..SWITCHES {
                    fiber::suspend();
                }
            }),
        );
        let ns = ns_per_op(SWITCHES, || {
            for _ in 0..SWITCHES {
                black_box(f.resume());
            }
        });
        assert_eq!(f.resume(), Resume::Done, "fiber body ran out of suspends");
        ns
    });
    vec![("util.fiber.switch_ns", ns)]
}

fn notifier_notify() -> Readings {
    const OPS: usize = 1_000_000;
    let notifier = Notifier::new();
    let ns = sampled(SAMPLES, || {
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                notifier.notify();
            }
        })
    });
    black_box(notifier.epoch());
    vec![("util.notifier.notify_ns", ns)]
}

fn tasks_universe(machine: Machine, ranks: usize) -> Universe {
    Universe::new(
        UniverseConfig::new(machine, Placement::packed(ranks)).with_executor(ExecutorKind::Tasks),
    )
}

/// Launch `body` on two ranks sharing **one** worker, and return rank 0's
/// result.  On one worker a blocked receive costs a park and a resume of
/// the rank's task — the executor's own path — where two workers would
/// time the host's cross-thread wake-up instead, whose microseconds of
/// jitter bury a hook's tens of nanoseconds.
///
/// Sets `MIM_WORKERS` for the launch; probes run on the main thread after
/// every universe's workers have been joined, so no thread reads the
/// environment meanwhile.
fn pair_on_one_worker(body: impl Fn(&mim_mpisim::Rank) -> f64 + Sync) -> f64 {
    let workers = std::env::var_os("MIM_WORKERS");
    std::env::set_var("MIM_WORKERS", "1");
    let out = tasks_universe(Machine::cluster(1, 1, 2), 2).launch(body);
    match workers {
        Some(w) => std::env::set_var("MIM_WORKERS", w),
        None => std::env::remove_var("MIM_WORKERS"),
    }
    out[0]
}

fn launch_empty() -> Readings {
    const RANKS: usize = 10_000;
    let s = sampled(HEAVY_SAMPLES, || {
        let u = tasks_universe(Machine::cluster(RANKS.div_ceil(64), 1, 64), RANKS);
        let t = Instant::now();
        u.launch(|_| ());
        t.elapsed().as_secs_f64()
    });
    vec![("mpisim.launch_empty_s", s)]
}

fn ring_1024() -> Readings {
    vec![("mpisim.ring_1024_s", sampled(SAMPLES, || ring_probe(1024, ExecutorKind::Tasks, 4)))]
}

fn ring_4096() -> Readings {
    vec![(
        "mpisim.ring_4096_s",
        sampled(HEAVY_SAMPLES, || ring_probe(4096, ExecutorKind::Tasks, 4)),
    )]
}

fn tasks_over_threads() -> Readings {
    // Interleaved, so host drift hits both engines alike.
    let (mut tasks, mut threads) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        tasks.push(ring_probe(256, ExecutorKind::Tasks, 8));
        threads.push(ring_probe(256, ExecutorKind::Threads, 8));
    }
    vec![("mpisim.exec.tasks_over_threads", median(&tasks) / median(&threads))]
}

/// Host nanoseconds per message of a one-way two-rank stream of `msgs`
/// messages, timed at the sender from its first send to the receiver's
/// closing acknowledgement.  `payload` streams real `f64` data; otherwise
/// the messages are size-only.  `monitored` puts one session on the pair.
fn stream_ns_per_msg(msgs: usize, payload: Option<&[f64]>, monitored: bool) -> f64 {
    pair_on_one_worker(|rank| {
        let world = rank.comm_world();
        let mon = monitored.then(|| {
            let mon = Monitoring::init(rank).expect("init monitoring");
            let id = mon.start(rank, &world).expect("start session");
            (mon, id)
        });
        rank.barrier(&world);
        let t = Instant::now();
        if world.rank() == 0 {
            for _ in 0..msgs {
                match payload {
                    Some(data) => rank.send(&world, 1, 1, data),
                    None => rank.send_synthetic(&world, 1, 1, 4096),
                }
            }
            rank.recv_synthetic(&world, SrcSel::Rank(1), TagSel::Is(2));
        } else {
            for _ in 0..msgs {
                match payload {
                    Some(_) => {
                        black_box(rank.recv::<f64>(&world, SrcSel::Rank(0), TagSel::Is(1)));
                    }
                    None => {
                        rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(1));
                    }
                }
            }
            rank.send_synthetic(&world, 0, 2, 8);
        }
        let ns = t.elapsed().as_nanos() as f64 / msgs as f64;
        if let Some((mon, id)) = mon {
            mon.suspend(id).expect("suspend session");
            mon.free(id).expect("free session");
            mon.finalize(rank).expect("finalize monitoring");
        }
        ns
    })
}

fn p2p_stream() -> Readings {
    const SYNTHETIC_MSGS: usize = 20_000;
    const PAYLOAD_MSGS: usize = 2_000;
    const PAYLOAD_KIB: usize = 64;
    let data = vec![1.0f64; PAYLOAD_KIB * 1024 / 8];
    let (mut bare, mut loaded) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        bare.push(stream_ns_per_msg(SYNTHETIC_MSGS, None, false));
        loaded.push(stream_ns_per_msg(PAYLOAD_MSGS, Some(&data), false));
    }
    let stream = median(&bare);
    vec![
        ("mpisim.p2p.stream_ns", stream),
        ("mpisim.p2p.payload_ns_per_kib", (median(&loaded) - stream) / PAYLOAD_KIB as f64),
    ]
}

fn hook_per_msg() -> Readings {
    const MSGS: usize = 20_000;
    // Paired differences: each pair shares its moment of host noise.
    let ns = sampled(SAMPLES, || {
        let bare = stream_ns_per_msg(MSGS, None, false);
        stream_ns_per_msg(MSGS, None, true) - bare
    });
    vec![("core.hook_ns_per_msg", ns)]
}

fn p2p_pingpong() -> Readings {
    const TRIPS: usize = 20_000;
    let ns = sampled(SAMPLES, || {
        pair_on_one_worker(|rank| {
            let world = rank.comm_world();
            let peer = 1 - world.rank();
            rank.barrier(&world);
            let t = Instant::now();
            for _ in 0..TRIPS {
                if world.rank() == 0 {
                    rank.send_synthetic(&world, peer, 1, 8);
                    rank.recv_synthetic(&world, SrcSel::Rank(peer), TagSel::Is(1));
                } else {
                    rank.recv_synthetic(&world, SrcSel::Rank(peer), TagSel::Is(1));
                    rank.send_synthetic(&world, peer, 1, 8);
                }
            }
            t.elapsed().as_nanos() as f64 / TRIPS as f64
        })
    });
    vec![("mpisim.p2p.pingpong_ns", ns)]
}

/// The `mailbox_matching` bench's adversarial queue: 10 000 unexpected
/// messages on 100 × 100 distinct `(src, tag)` channels, held at that depth
/// by pushing back what each take removes.
fn mailbox_take_push(pattern: MatchPattern) -> f64 {
    const DEPTH: usize = 10_000;
    const SIDE: usize = 100;
    const OPS: usize = 100_000;
    let mut queue = UnexpectedQueue::new();
    for i in 0..DEPTH {
        queue.push(Envelope {
            src_world: i % SIDE,
            dst_world: 0,
            comm_id: 7,
            ctx: Ctx::Pt2pt,
            tag: ((i / SIDE) % SIDE) as u32,
            kind: MsgKind::P2pUser,
            payload: Payload::Synthetic(64),
            sent_at_ns: 0.0,
            arrival_ns: 0.0,
            wire_seq: None,
            src_inc: 0,
            dst_inc: 0,
        });
    }
    sampled(SAMPLES, || {
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                let env = queue.take(black_box(&pattern)).expect("steady-state queue");
                queue.push(env);
            }
        })
    })
}

fn mailbox_specific() -> Readings {
    let pattern = MatchPattern {
        comm_id: 7,
        ctx: Ctx::Pt2pt,
        src: mailbox::SrcSel::World(99),
        tag: mailbox::TagSel::Is(99),
    };
    vec![("mpisim.mailbox.match_specific_ns", mailbox_take_push(pattern))]
}

fn mailbox_wildcard() -> Readings {
    let pattern = MatchPattern {
        comm_id: 7,
        ctx: Ctx::Pt2pt,
        src: mailbox::SrcSel::Any,
        tag: mailbox::TagSel::Any,
    };
    vec![("mpisim.mailbox.match_wildcard_ns", mailbox_take_push(pattern))]
}

fn accum_record_dense() -> Readings {
    const ORDER: usize = 192;
    const OPS: usize = 1_000_000;
    let mut acc = PairAccum::with_dense_limit(ORDER, usize::MAX);
    let ns = sampled(SAMPLES, || {
        ns_per_op(OPS, || {
            for i in 0..OPS {
                acc.record(black_box(i % ORDER), 1, 1000);
            }
        })
    });
    black_box(acc.row(Flags::ALL_COMM));
    vec![("core.accum.record_dense_ns", ns)]
}

/// The eight destinations a rank of a large sparse session touches.
fn sparse_peers(order: usize) -> [usize; 8] {
    let me = order / 2;
    [me + 1, me - 1, me + 32, me - 32, 0, 1, order - 1, me + 2]
}

fn accum_record_sparse() -> Readings {
    const ORDER: usize = 4096;
    const OPS: usize = 1_000_000;
    let peers = sparse_peers(ORDER);
    let mut acc = PairAccum::with_dense_limit(ORDER, 0);
    let ns = sampled(SAMPLES, || {
        ns_per_op(OPS, || {
            for i in 0..OPS {
                acc.record(black_box(peers[i % peers.len()]), 0, 256);
            }
        })
    });
    vec![("core.accum.record_sparse_ns", ns), ("core.accum.mem_bytes", acc.mem_bytes() as f64)]
}

fn accum_sparse_row() -> Readings {
    const ORDER: usize = 4096;
    const OPS: usize = 100_000;
    let mut acc = PairAccum::with_dense_limit(ORDER, 0);
    for peer in sparse_peers(ORDER) {
        acc.record(peer, 0, 256);
        acc.record(peer, 1, 64);
    }
    let ns = sampled(SAMPLES, || {
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                black_box(acc.sparse_row(black_box(Flags::ALL_COMM)));
            }
        })
    });
    vec![("core.accum.sparse_row_ns", ns)]
}

fn tree_match_1024() -> Readings {
    let affinity = stencil2d(32, 32, 16 << 10);
    let s = sampled(SAMPLES, || {
        let t = Instant::now();
        black_box(tree_match(black_box(&[16, 2, 32]), &affinity));
        t.elapsed().as_secs_f64()
    });
    vec![("treematch.tree_match_s", s)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn probes_name_known_workloads_and_distinct_metrics() {
        let mut seen = Vec::new();
        for p in TABLE {
            assert!(!p.workloads.is_empty() && !p.metrics.is_empty());
            for w in p.workloads {
                assert!(workloads::lookup(w).is_some(), "probe names unknown workload {w}");
            }
            for m in p.metrics {
                assert!(!seen.contains(m), "{m} is measured by two probes");
                seen.push(m);
            }
        }
    }

    #[test]
    fn cheap_probes_yield_their_metrics() {
        for run in [deque_push_pop as fn() -> Readings, accum_sparse_row, mailbox_wildcard] {
            for (name, value) in run() {
                assert!(value > 0.0, "{name} measured {value}");
            }
        }
    }
}
