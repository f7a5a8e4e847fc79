//! Cross-crate invariant: the live collective algorithms, observed through
//! the monitoring library, produce exactly the message multiset their
//! schedule generators predict — the ground-truth check behind "the monitor
//! sees collectives once decomposed into point-to-point messages".

use mim_core::{Flags, Monitoring};
use mim_mpisim::{collectives, schedule, Schedule, Universe, UniverseConfig};
use mim_topology::{CommMatrix, Machine, Placement};

/// Run `coll` under a fresh session and return the (counts, sizes) matrices
/// of its collective traffic.
fn monitor_collective(
    n: usize,
    coll: impl Fn(&mim_mpisim::Rank, &mim_mpisim::Comm) + Sync,
) -> (CommMatrix, CommMatrix) {
    let machine = Machine::cluster(4, 2, 4);
    let u = Universe::new(UniverseConfig::new(machine, Placement::packed(n)));
    let mats = u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        coll(rank, &world);
        mon.suspend(id).unwrap();
        let d = mon.allgather_data(rank, id, Flags::COLL_ONLY).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        (d.counts, d.sizes)
    });
    mats.into_iter().next().unwrap()
}

/// The (src, dst, bytes) multiset recorded in monitored matrices, assuming
/// (as for our single collectives) at most one message per (src, dst) pair
/// per byte size... multiplicity comes from the counts matrix.
fn monitored_multiset(counts: &CommMatrix, sizes: &CommMatrix) -> Vec<(usize, usize, u64)> {
    let n = counts.order();
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let c = counts.get(i, j);
            if c > 0 {
                // All messages on one pair within one tree/ring collective
                // have equal size.
                assert_eq!(sizes.get(i, j) % c, 0, "uneven message sizes on ({i},{j})");
                for _ in 0..c {
                    out.push((i, j, sizes.get(i, j) / c));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

fn check(n: usize, expected: &Schedule, counts: &CommMatrix, sizes: &CommMatrix) {
    assert_eq!(counts.order(), n);
    assert_eq!(monitored_multiset(counts, sizes), expected.message_multiset());
}

#[test]
fn bcast_matches_schedule() {
    for n in [2usize, 5, 8, 13] {
        for root in [0, n - 1] {
            let payload = 1000usize;
            let buffer = |world: &mim_mpisim::Comm| {
                if world.rank() == root {
                    vec![3u8; payload]
                } else {
                    vec![]
                }
            };
            let (counts, sizes) = monitor_collective(n, |rank, world| {
                rank.bcast(world, root, &mut buffer(world));
            });
            check(n, &schedule::bcast_binomial(n, root, payload as u64), &counts, &sizes);

            let (counts, sizes) = monitor_collective(n, |rank, world| {
                collectives::bcast_binary(rank, world, root, &mut buffer(world));
            });
            check(n, &schedule::bcast_binary(n, root, payload as u64), &counts, &sizes);
        }
    }
}

#[test]
fn reduce_matches_schedule() {
    for n in [3usize, 8, 12] {
        let (counts, sizes) = monitor_collective(n, |rank, world| {
            let mine = vec![world.rank() as u64; 64];
            rank.reduce(world, 0, &mine, |a, b| a + b);
        });
        check(n, &schedule::reduce_binomial(n, 0, 64 * 8), &counts, &sizes);

        let (counts, sizes) = monitor_collective(n, |rank, world| {
            let mine = vec![world.rank() as u64; 64];
            collectives::reduce_binary(rank, world, n - 1, &mine, |a, b| a + b);
        });
        check(n, &schedule::reduce_binary(n, n - 1, 64 * 8), &counts, &sizes);
    }
}

#[test]
fn allgather_matches_schedule() {
    for n in [2usize, 6, 9] {
        let (counts, sizes) = monitor_collective(n, |rank, world| {
            rank.allgather(world, &[world.rank() as u32; 25]);
        });
        check(n, &schedule::allgather_ring(n, 100), &counts, &sizes);
    }
}

#[test]
fn allgather_bruck_matches_schedule() {
    for n in [2usize, 3, 6, 9, 16] {
        let (counts, sizes) = monitor_collective(n, |rank, world| {
            collectives::allgather_bruck(rank, world, &[world.rank() as u32; 25]);
        });
        check(n, &schedule::allgather_bruck(n, 100), &counts, &sizes);
    }
}

#[test]
fn barrier_matches_schedule() {
    for n in [2usize, 7, 16] {
        let (counts, sizes) = monitor_collective(n, |rank, world| {
            rank.barrier(world);
        });
        check(n, &schedule::barrier_dissemination(n), &counts, &sizes);
    }
}

#[test]
fn allreduce_matches_schedule() {
    for n in [4usize, 6, 8, 11] {
        let (counts, sizes) = monitor_collective(n, |rank, world| {
            rank.allreduce(world, &[1.0f64; 16], |a, b| a + b);
        });
        check(n, &schedule::allreduce_recursive_doubling(n, 128), &counts, &sizes);
    }
}

#[test]
fn synthetic_execution_matches_live_collective() {
    // Replaying the schedule with synthetic payloads is indistinguishable,
    // to the monitor, from running the real collective.
    let n = 10;
    let (live_counts, live_sizes) = monitor_collective(n, |rank, world| {
        let mut v = if world.rank() == 0 { vec![0u8; 4096] } else { vec![] };
        rank.bcast(world, 0, &mut v);
    });
    let sched = schedule::bcast_binomial(n, 0, 4096);
    let (syn_counts, syn_sizes) = monitor_collective(n, |rank, world| {
        schedule::execute(rank, world, &sched);
    });
    assert_eq!(live_counts, syn_counts);
    assert_eq!(live_sizes, syn_sizes);
}
