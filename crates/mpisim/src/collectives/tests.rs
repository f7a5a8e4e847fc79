//! Correctness tests for collectives against sequential references,
//! over power-of-two and awkward rank counts.

use mim_topology::{Machine, Placement};

use crate::runtime::{Universe, UniverseConfig};

use super::*;

fn universe(n: usize) -> Universe {
    let machine = Machine::cluster(4, 2, 4); // 32 cores
    assert!(n <= 32);
    Universe::new(UniverseConfig::new(machine, Placement::packed(n)))
}

const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 12, 16];

#[test]
fn bcast_binomial_delivers_everywhere() {
    for &n in SIZES {
        for root in [0, n / 2, n - 1] {
            let u = universe(n);
            u.launch(|rank| {
                let world = rank.comm_world();
                let mut data = if world.rank() == root { vec![42i64, 43, 44] } else { Vec::new() };
                bcast_binomial(rank, &world, root, &mut data);
                assert_eq!(data, vec![42, 43, 44], "n={n} root={root}");
            });
        }
    }
}

#[test]
fn bcast_binary_delivers_everywhere() {
    for &n in SIZES {
        for root in [0, n - 1] {
            let u = universe(n);
            u.launch(|rank| {
                let world = rank.comm_world();
                let mut data = if world.rank() == root { vec![7u32; 10] } else { Vec::new() };
                bcast_binary(rank, &world, root, &mut data);
                assert_eq!(data, vec![7u32; 10], "n={n} root={root}");
            });
        }
    }
}

#[test]
fn reduce_binomial_sums() {
    for &n in SIZES {
        for root in [0, n - 1] {
            let u = universe(n);
            u.launch(|rank| {
                let world = rank.comm_world();
                let me = world.rank() as i64;
                let data = vec![me, 2 * me];
                let out = reduce_binomial(rank, &world, root, &data, |a, b| a + b);
                if world.rank() == root {
                    let s: i64 = (0..n as i64).sum();
                    assert_eq!(out, Some(vec![s, 2 * s]), "n={n} root={root}");
                } else {
                    assert!(out.is_none());
                }
            });
        }
    }
}

#[test]
fn reduce_binary_max() {
    for &n in SIZES {
        let u = universe(n);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank() as f64;
            let data = vec![me, -me];
            let out = reduce_binary(rank, &world, 0, &data, f64::max);
            if world.rank() == 0 {
                assert_eq!(out, Some(vec![(n - 1) as f64, 0.0]), "n={n}");
            }
        });
    }
}

#[test]
fn allreduce_sums_any_n() {
    for &n in SIZES {
        let u = universe(n);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank() as u64;
            let out = allreduce_recursive_doubling(rank, &world, &[me, 1], |a, b| a + b);
            let s: u64 = (0..n as u64).sum();
            assert_eq!(out, vec![s, n as u64], "n={n}");
        });
    }
}

#[test]
fn allreduce_min() {
    let u = universe(7);
    u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank() as i32;
        let out = allreduce_recursive_doubling(rank, &world, &[me + 10], i32::min);
        assert_eq!(out, vec![10]);
    });
}

#[test]
fn gather_concatenates_in_rank_order() {
    for &n in SIZES {
        let root = n / 2;
        let u = universe(n);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank() as u16;
            let out = gather_linear(rank, &world, root, &[me, me]);
            if world.rank() == root {
                let expect: Vec<u16> = (0..n as u16).flat_map(|r| [r, r]).collect();
                assert_eq!(out, Some(expect), "n={n}");
            } else {
                assert!(out.is_none());
            }
        });
    }
}

#[test]
fn empty_contributions_are_fine() {
    let u = universe(4);
    u.launch(|rank| {
        let world = rank.comm_world();
        assert!(allgather_ring::<u64>(rank, &world, &[]).is_empty());
        let out = gather_linear::<u64>(rank, &world, 2, &[]);
        assert_eq!(out, (world.rank() == 2).then(Vec::new));
    });
}

#[test]
fn allgather_ring_orders_blocks() {
    for &n in SIZES {
        let u = universe(n);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank() as u64;
            let out = allgather_ring(rank, &world, &[me * 10, me * 10 + 1]);
            let expect: Vec<u64> = (0..n as u64).flat_map(|r| [r * 10, r * 10 + 1]).collect();
            assert_eq!(out, expect, "n={n}");
        });
    }
}

mim_util::props! {
    /// Bruck and ring are the same function of the contributions: any rank
    /// count (powers of two, odd, prime, 1) and any block length, empty
    /// blocks included, on every rank.
    fn allgather_bruck_matches_ring(g, cases = 48) {
        let n = g.gen_range(1usize..41);
        let salt = g.any_u64();
        let u =
            Universe::new(UniverseConfig::new(Machine::cluster(5, 2, 4), Placement::packed(n)));
        u.launch(move |rank| {
            let world = rank.comm_world();
            let me = world.rank() as u64;
            for block in 0..=3u64 {
                let data: Vec<u64> = (0..block).map(|i| salt ^ (me * 4 + i)).collect();
                let ring = allgather_ring(rank, &world, &data);
                assert_eq!(ring.len(), n * block as usize);
                assert_eq!(allgather_bruck(rank, &world, &data), ring, "n={n} block={block}");
            }
        });
    }
}

/// The equal-size contract holds in release builds too: rank 1 contributes
/// one item where rank 0 contributes two, and the first receive says so.
fn unequal_allgather(algo: fn(&Rank, &Comm, &[u32]) -> Vec<u32>) {
    universe(2).launch(move |rank| {
        let world = rank.comm_world();
        algo(rank, &world, &[7u32, 8][..2 - world.rank()]);
    });
}

#[test]
#[should_panic(
    expected = "communicator rank 0 expected 1 block(s) of 2 items and received 1 items"
)]
fn allgather_ring_rejects_unequal_contributions() {
    unequal_allgather(allgather_ring);
}

#[test]
#[should_panic(
    expected = "communicator rank 0 expected 1 block(s) of 2 items and received 1 items"
)]
fn allgather_bruck_rejects_unequal_contributions() {
    unequal_allgather(allgather_bruck);
}

#[test]
fn barrier_synchronizes_virtual_time() {
    let u = universe(8);
    let times = u.launch(|rank| {
        let world = rank.comm_world();
        // Rank 3 is late.
        if rank.world_rank() == 3 {
            rank.compute_ns(1e6);
        }
        barrier(rank, &world);
        rank.now_ns()
    });
    // After the barrier, everyone's clock is past the late rank's start.
    for (r, &t) in times.iter().enumerate() {
        assert!(t >= 1e6, "rank {r} finished the barrier at {t} < 1e6");
    }
}

#[test]
fn collectives_work_on_subcommunicators() {
    let u = universe(8);
    u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let sub = rank.comm_split(&world, (me % 2) as i64, me as i64);
        let out = allreduce_recursive_doubling(rank, &sub, &[1u64], |a, b| a + b);
        assert_eq!(out, vec![4]);
        // Mixed traffic: collective on world while subs are alive.
        let mut v = if me == 0 { vec![5u8] } else { Vec::new() };
        bcast_binomial(rank, &world, 0, &mut v);
        assert_eq!(v, vec![5]);
    });
}

#[test]
fn back_to_back_collectives_do_not_cross_match() {
    // Two bcasts in a row with different payloads: the sequence tag must
    // keep them apart even though sends are eager.
    let u = universe(5);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mut a = if world.rank() == 0 { vec![1u8] } else { Vec::new() };
        let mut b = if world.rank() == 0 { vec![2u8] } else { Vec::new() };
        bcast_binomial(rank, &world, 0, &mut a);
        bcast_binomial(rank, &world, 0, &mut b);
        assert_eq!((a, b), (vec![1u8], vec![2u8]));
    });
}

#[test]
fn gather_tree_collects_variable_rows_any_order() {
    // Every rank contributes a different-length row (rank r sends r items);
    // various arities and orders must all deliver rows[r] intact at the root.
    for &n in SIZES {
        for root in [0, n / 2, n - 1] {
            for arity in [2, 3, 8] {
                let u = universe(n);
                u.launch(move |rank| {
                    let world = rank.comm_world();
                    let me = world.rank();
                    let data: Vec<u64> = (0..me as u64).map(|i| me as u64 * 100 + i).collect();
                    // A non-trivial deterministic order: root first, then
                    // the remaining ranks reversed.
                    let mut order = vec![root];
                    order.extend((0..n).rev().filter(|&r| r != root));
                    let out = gather_tree_kary(rank, &world, root, arity, &order, &data).unwrap();
                    if me == root {
                        let rows = out.expect("root gets rows");
                        assert_eq!(rows.len(), n);
                        for (r, row) in rows.iter().enumerate() {
                            let want: Vec<u64> =
                                (0..r as u64).map(|i| r as u64 * 100 + i).collect();
                            assert_eq!(row, &want, "n={n} root={root} arity={arity} r={r}");
                        }
                    } else {
                        assert!(out.is_none());
                    }
                });
            }
        }
    }
}

#[test]
fn gather_tree_handles_empty_contributions() {
    let u = universe(6);
    u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let data = if me % 2 == 0 { vec![me as u64] } else { Vec::new() };
        let order: Vec<usize> = (0..6).collect();
        let out = gather_tree_kary(rank, &world, 0, 2, &order, &data).unwrap();
        if me == 0 {
            let rows = out.expect("root gets rows");
            for (r, row) in rows.iter().enumerate() {
                if r % 2 == 0 {
                    assert_eq!(row, &vec![r as u64]);
                } else {
                    assert!(row.is_empty());
                }
            }
        }
    });
}
