//! TreeMatch scaling and grouping-strategy ablation (feeds Table 1 and the
//! DESIGN.md greedy-vs-exhaustive choice).

use mim_util::bench::{black_box, Bench};

use mim_topology::{CommMatrix, Machine, Placement};
use mim_treematch::affinity::{from_pairs, stencil2d};
use mim_treematch::{place_constrained, tree_match_with, GroupingStrategy};

fn clustered_matrix(n: usize, clique: usize) -> CommMatrix {
    let mut m = CommMatrix::zeros(n);
    for base in (0..n).step_by(clique) {
        for i in base..(base + clique).min(n) {
            for j in base..(base + clique).min(n) {
                if i != j {
                    m.set(i, j, 100);
                }
            }
        }
    }
    m
}

fn bench_tree_match(b: &mut Bench) {
    for &order in &[256usize, 1024, 4096] {
        let aff = stencil2d(order / 32, 32, 10);
        let arities = [order / 24 + 1, 2, 12];
        b.iter("tree_match", &format!("stencil_greedy/{order}"), || {
            tree_match_with(black_box(&arities), &aff, GroupingStrategy::Greedy);
        });
    }
}

fn bench_strategies(b: &mut Bench) {
    let m = clustered_matrix(16, 4);
    let arities = [2usize, 2, 4];
    for strat in [GroupingStrategy::Greedy, GroupingStrategy::Exhaustive] {
        b.iter("grouping_strategy", &format!("cliques16/{strat:?}"), || {
            tree_match_with(black_box(&arities), &m, strat);
        });
    }
}

/// The cores a node-cyclic placement gives ranks `0..np`: the slot set
/// dynamic reordering hands the mapper.
fn node_cyclic_slots(machine: &Machine, np: usize) -> Vec<usize> {
    Placement::cyclic_by_level(&machine.tree, np, machine.node_level).as_slice().to_vec()
}

/// One monitored iteration of `mim-apps`' stencil on a `side × side` process
/// grid with 2048 × 4 blocks: 16 KiB to the ranks ± 1, 32 B to the ranks ±
/// `side`.  `side = 32` is `mim-ledger`'s `stencil_loop` matrix.
fn halo_pairs(side: usize) -> Vec<(usize, usize, u64)> {
    let mut pairs = Vec::new();
    for i in 0..side * side {
        if (i + 1) % side != 0 {
            pairs.push((i, i + 1, 16 << 10));
        }
        if i + side < side * side {
            pairs.push((i, i + side, 32));
        }
    }
    pairs
}

fn bench_constrained(b: &mut Bench) {
    for &np in &[48usize, 96, 192] {
        let machine = Machine::plafrim(np / 24);
        let slots = node_cyclic_slots(&machine, np);
        let m = clustered_matrix(np, 8);
        b.iter("place_constrained", &np.to_string(), || {
            place_constrained(black_box(&machine), &slots, &m);
        });
    }
    // What the reorder loop calls at scale (the two instances whose `sigma`
    // `mim-treematch`'s golden test pins): the matrix rank 0 gathers at 1024
    // ranks, both directions of every halo stored ("dense"), and the same
    // stencil at 4096 — built from its pair list ("sparse", one direction),
    // and as gathered.
    let dense = |side: usize| {
        let mut m = CommMatrix::zeros(side * side);
        for (i, j, bytes) in halo_pairs(side) {
            m.set(i, j, bytes);
            m.set(j, i, bytes);
        }
        m
    };
    let machine = Machine::cluster(16, 2, 32);
    let slots = node_cyclic_slots(&machine, 1024);
    let m = dense(32);
    b.iter("place_constrained", "stencil_dense/1024", || {
        place_constrained(black_box(&machine), &slots, &m);
    });
    let machine = Machine::cluster(64, 2, 32);
    let slots = node_cyclic_slots(&machine, 4096);
    let affinity = from_pairs(4096, halo_pairs(64).into_iter().map(|(i, j, b)| (i, j, 2 * b)));
    b.iter("place_constrained", "stencil_sparse/4096", || {
        place_constrained(black_box(&machine), &slots, &affinity);
    });
    let m = dense(64);
    b.iter("place_constrained", "stencil_dense/4096", || {
        place_constrained(black_box(&machine), &slots, &m);
    });
}

fn main() {
    let mut b = Bench::new();
    bench_tree_match(&mut b);
    bench_strategies(&mut b);
    bench_constrained(&mut b);
}
