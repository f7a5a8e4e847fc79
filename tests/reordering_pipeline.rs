//! The full Fig. 1 pipeline across crates: monitor → gather → TreeMatch →
//! split → faster iterations, on a PlaFRIM-scale machine.

use mim_core::{Flags, Monitoring};
use mim_mpisim::{Comm, ExecutorKind, Rank, SrcSel, TagSel, Universe, UniverseConfig};
use mim_reorder::{
    compute_mapping, monitored_reorder, monitored_reorder_resilient, monitored_reorder_windowed,
    redistribute, ReorderFallback,
};
use mim_topology::{inverse_permutation, CommMatrix, Machine, Placement};

/// Rank-based pattern: neighbours in blocks of `width` exchange buffers.
fn block_exchange(rank: &Rank, comm: &Comm, width: usize, bytes: u64) {
    let me = comm.rank();
    let base = me - me % width;
    for peer in base..(base + width).min(comm.size()) {
        if peer != me {
            rank.send_synthetic(comm, peer, 3, bytes);
        }
    }
    for peer in base..(base + width).min(comm.size()) {
        if peer != me {
            rank.recv_synthetic(comm, SrcSel::Rank(peer), TagSel::Is(3));
        }
    }
}

#[test]
fn pipeline_improves_iteration_time_at_scale() {
    let np = 48;
    let machine = Machine::plafrim(2);
    let placement = Placement::cyclic_by_level(&machine.tree, np, machine.node_level);
    let u = Universe::new(UniverseConfig::new(machine, placement));
    let results = u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let outcome = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
            block_exchange(rank, comm, 8, 1 << 20)
        });
        rank.barrier(&world);
        let t0 = rank.now_ns();
        block_exchange(rank, &world, 8, 1 << 20);
        rank.barrier(&world);
        let before = rank.now_ns() - t0;
        let t1 = rank.now_ns();
        block_exchange(rank, &outcome.comm, 8, 1 << 20);
        rank.barrier(&world);
        let after = rank.now_ns() - t1;
        mon.finalize(rank).unwrap();
        (before, after, outcome.comm.rank(), outcome.k)
    });
    let before = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let after = results.iter().map(|r| r.1).fold(0.0f64, f64::max);
    assert!(after < before * 0.8, "expected a clear win from reordering: {before} -> {after}");
    // Rank 0 holds a permutation, and every rank took its new rank from it.
    let k = &results[0].3;
    inverse_permutation(k);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.2, k[i], "old rank {i}");
    }
}

#[test]
fn compute_mapping_is_deterministic_and_valid() {
    let machine = Machine::plafrim(2);
    let placement = Placement::random(&machine.tree, 24, 99);
    let group: Vec<usize> = (0..24).collect();
    let mut m = CommMatrix::zeros(24);
    for i in 0..24 {
        m.set(i, (i + 1) % 24, 1000);
    }
    let k1 = compute_mapping(&machine, &placement, &group, &m);
    let k2 = compute_mapping(&machine, &placement, &group, &m);
    assert_eq!(k1, k2, "mapping must be deterministic");
    inverse_permutation(&k1);
}

#[test]
fn mapping_never_worse_than_identity_on_clustered_patterns() {
    // For block-clustered matrices on a spread placement, the mapping must
    // strictly reduce the distance cost.
    let machine = Machine::plafrim(2);
    let np = 24;
    let placement = Placement::cyclic_by_level(&machine.tree, np, machine.node_level);
    let group: Vec<usize> = (0..np).collect();
    let mut m = CommMatrix::zeros(np);
    for base in (0..np).step_by(6) {
        for i in base..base + 6 {
            for j in base..base + 6 {
                if i != j {
                    m.set(i, j, 500);
                }
            }
        }
    }
    let k = compute_mapping(&machine, &placement, &group, &m);
    let inv = inverse_permutation(&k);
    let cost = |assign: &dyn Fn(usize) -> usize| -> u64 {
        use mim_treematch::{mapping_distance_cost, Affinity};
        let cores: Vec<usize> = (0..np).map(|r| placement.core_of(assign(r))).collect();
        let _ = m.pairs();
        mapping_distance_cost(&machine.tree, &cores, &m)
    };
    // Pattern role r runs on the process with old rank inv[r].
    let reordered = cost(&|r| inv[r]);
    let identity = cost(&|r| r);
    assert!(reordered < identity, "reordered cost {reordered} must beat identity {identity}");
}

#[test]
fn redistribute_composes_with_reorder() {
    let np = 12;
    let machine = Machine::plafrim(1);
    let u = Universe::new(UniverseConfig::new(machine, Placement::packed(np)));
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let outcome = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
            // Arbitrary pattern so the permutation is non-trivial-ish.
            let me = comm.rank();
            let peer = (me + 3) % np;
            rank.send_synthetic(comm, peer, 1, 1 << 16);
            rank.recv_synthetic(comm, SrcSel::Any, TagSel::Is(1));
        });
        // Each role's data starts at the old rank with that number.
        let role_data = vec![world.rank() as u64; 8];
        let new_data = redistribute(rank, &world, &outcome.comm, role_data);
        // My new role is my new rank; its data must be the role's id.
        assert_eq!(new_data, vec![outcome.comm.rank() as u64; 8]);
        mon.finalize(rank).unwrap();
    });
}

/// The three spellings of the Fig. 1 loop.
#[derive(Debug, Clone, Copy)]
enum Loop {
    Strict,
    Windowed,
    Resilient,
}

/// One fresh universe, one loop around one iteration of blocked exchanges
/// plus an allreduce (so `ALL_COMM` maps a matrix with more non-zeros than
/// `P2P_ONLY` does, from the very same traffic).  Per rank: the bits of
/// `reorder_cost_ns`, `k` (rank 0's; empty elsewhere), and the bits of the clock
/// after the loop.
fn run_loop(
    machine: &Machine,
    placement: &Placement,
    kind: ExecutorKind,
    which: Loop,
    flags: Flags,
) -> Vec<(u64, Vec<usize>, u64)> {
    let cfg = UniverseConfig::new(machine.clone(), placement.clone()).with_executor(kind);
    Universe::new(cfg).launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let iteration = |comm: &Comm| {
            block_exchange(rank, comm, 4, 1 << 16);
            rank.allreduce(comm, &[comm.rank() as u64], |a, b| a + b);
        };
        let (cost_ns, k) = match which {
            Loop::Strict => {
                let out = monitored_reorder(rank, &mon, &world, flags, iteration);
                (out.reorder_cost_ns, out.k)
            }
            Loop::Windowed => {
                let out =
                    monitored_reorder_windowed(rank, &mon, &world, flags, 1, |c, _| iteration(c));
                (out.reorder_cost_ns, out.k)
            }
            Loop::Resilient => {
                let out = monitored_reorder_resilient(rank, &mon, &world, flags, iteration);
                assert_eq!(out.fallback, ReorderFallback::None);
                (out.reorder_cost_ns, out.k)
            }
        };
        mon.finalize(rank).unwrap();
        (cost_ns.to_bits(), k, rank.now_ns().to_bits())
    })
}

#[test]
fn reorder_loops_run_on_one_deterministic_clock() {
    let small = Machine::cluster(2, 1, 8);
    let large = Machine::plafrim(3);
    for (machine, np) in [(small, 8), (large, 64)] {
        let placement = Placement::cyclic_by_level(&machine.tree, np, machine.node_level);
        // What the mapping of the `ALL_COMM` matrix is charged over that of
        // the `P2P_ONLY` one, per loop: the traffic, hence everything else
        // on the clock, is the same.
        let mut extra_charge_ns = Vec::new();
        let mut ks = Vec::new();
        for which in [Loop::Strict, Loop::Windowed, Loop::Resilient] {
            let mut root_cost_ns = Vec::new();
            for flags in [Flags::P2P_ONLY, Flags::ALL_COMM] {
                let first = run_loop(&machine, &placement, ExecutorKind::Threads, which, flags);
                for kind in [ExecutorKind::Threads, ExecutorKind::Tasks, ExecutorKind::Tasks] {
                    let again = run_loop(&machine, &placement, kind, which, flags);
                    assert_eq!(again, first, "{which:?} on {np} ranks, {kind:?}: clocks moved");
                }
                root_cost_ns.push(f64::from_bits(first[0].0));
                ks.push(first[0].1.clone());
            }
            extra_charge_ns.push(root_cost_ns[1] - root_cost_ns[0]);
        }
        // Strict, windowed and fault-free resilient map alike and are
        // charged alike.
        assert!(ks.chunks(2).all(|of_loop| of_loop == &ks[..2]), "{np} ranks: {ks:?}");
        assert!(extra_charge_ns[0] > 0.0, "{np} ranks: more non-zeros must cost more");
        for extra in &extra_charge_ns[1..] {
            assert!((extra - extra_charge_ns[0]).abs() < 1e-3, "{np} ranks: {extra_charge_ns:?}");
        }
    }
}
