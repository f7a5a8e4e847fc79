//! Paper Table 1: TreeMatch mapping-computation time for large inputs.
//!
//! | matrix order | 8 192 | 16 384 | 32 768 | 65 536 |
//! | paper time   | 2.6 s | 6.3 s  | 20.9 s | 88.7 s |
//!
//! The paper does not specify the matrix content; we use a 2-D stencil
//! affinity (sparse, structured — the realistic shape of an HPC
//! communication matrix; a dense 65 536² matrix of u64 would need 34 GB).
//! Absolute times differ from the paper's TreeMatch implementation; the
//! shape to reproduce is the superlinear growth over a feasible range
//! (well under the 100 s mark).  Emits `results/table1_treematch.csv`.
//!
//! Two columns: the bottom-up `tree_match` on the whole balanced tree, and
//! `place_constrained` — the variant dynamic reordering actually calls — on
//! the same affinity over the cores a node-cyclic placement occupies.

use std::time::Instant;

use mim_apps::output::{ascii_table, results_dir, write_csv};
use mim_topology::{Machine, Placement};
use mim_treematch::affinity::stencil2d;
use mim_treematch::{place_constrained, tree_match};

fn main() {
    let orders = mim_bench::sweep(
        &[(8192usize, 64usize, 128usize), (16384, 128, 128), (32768, 128, 256), (65536, 256, 256)],
        &[(8192, 64, 128)],
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &(order, grid_rows, grid_cols) in &orders {
        let affinity = stencil2d(grid_rows, grid_cols, 1_000);
        // PlaFRIM-like tree covering the matrix: nodes × 2 sockets × 12 cores.
        let nodes = order.div_ceil(24);
        let arities = [nodes, 2, 12];
        let wall = Instant::now();
        let sigma = tree_match(&arities, &affinity);
        let elapsed = wall.elapsed().as_secs_f64();
        assert_eq!(sigma.len(), order);
        let machine = Machine::plafrim(nodes);
        let placement = Placement::cyclic_by_level(&machine.tree, order, machine.node_level);
        let slots = placement.as_slice();
        let wall = Instant::now();
        let sigma = place_constrained(&machine, slots, &affinity);
        let constrained = wall.elapsed().as_secs_f64();
        assert_eq!(sigma.len(), order);
        rows.push(vec![
            order.to_string(),
            format!("{elapsed:.2} s"),
            format!("{constrained:.2} s"),
        ]);
        csv.push(vec![order.to_string(), format!("{elapsed:.4}"), format!("{constrained:.4}")]);
        println!(
            "order {order:>6}: tree_match {elapsed:.2} s, place_constrained {constrained:.2} s"
        );
    }
    let dir = results_dir();
    write_csv(&dir.join("table1_treematch.csv"), "order,seconds,place_constrained_seconds", &csv);
    println!("\nTable 1 — TreeMatch reordering computation time");
    println!("{}", ascii_table(&["matrix order", "tree_match", "place_constrained"], &rows));
    println!(
        "paper: 2.6 / 6.3 / 20.9 / 88.7 s — \"even for such large input size the\n\
         time to compute the reordering is less than 100s\".\n\
         CSV: {}/table1_treematch.csv",
        dir.display()
    );
}
