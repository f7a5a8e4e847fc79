//! Paper Fig 7: NAS CG with dynamic rank reordering.
//!
//! NP ∈ {64, 128, 256} on 3/6/11 nodes (24 cores each, some cores spared —
//! the paper's configuration), classes B/C/D (scaled), three initial
//! mappings: random, round-robin (rank `i` on the `i`-th leftmost core) and
//! "standard" (no binding, modelled as node-cyclic).  Reports the
//! execution-time ratio (Fig 7a) and the communication-time ratio (Fig 7b),
//! non-reordered over reordered — greater than 1 means reordering wins.
//! The reordering time is added to the whole timing, as in the paper.
//!
//! Emits `results/fig7_cg.csv`.

use mim_apps::cg;
use mim_apps::output::{ascii_table, results_dir, write_csv};
use mim_core::{Flags, Monitoring};
use mim_mpisim::{Universe, UniverseConfig};
use mim_reorder::monitored_reorder;
use mim_topology::{Machine, Placement};

#[derive(Clone, Copy)]
enum Mapping {
    Random,
    RoundRobin,
    Standard,
}

impl Mapping {
    fn label(self) -> &'static str {
        match self {
            Mapping::Random => "random",
            Mapping::RoundRobin => "round-robin",
            Mapping::Standard => "standard",
        }
    }

    fn placement(self, machine: &Machine, np: usize) -> Placement {
        match self {
            Mapping::Random => Placement::random(&machine.tree, np, 0xC6),
            Mapping::RoundRobin => Placement::round_robin(np),
            Mapping::Standard => Placement::cyclic_by_level(&machine.tree, np, machine.node_level),
        }
    }
}

/// (total_ns, comm_ns) at rank 0, reordered or not.
fn run(np: usize, nodes: usize, class: cg::CgClass, mapping: Mapping, reorder: bool) -> (f64, f64) {
    let machine = Machine::plafrim(nodes);
    let placement = mapping.placement(&machine, np);
    let cfg = UniverseConfig::new(machine, placement);
    let universe = Universe::new(cfg);
    let a = cg::generate_matrix(class, np, 93);
    let stats = universe.launch(move |rank| {
        let world = rank.comm_world();
        if !reorder {
            let (_, s) = cg::run_cg_charged(rank, &world, &a, class.iters, class.flops_per_iter);
            return (s.total_ns, s.comm_ns);
        }
        let mon = Monitoring::init(rank).unwrap();
        // Monitor the initialization iteration (NPB CG runs one CG iteration
        // during init) and reorder; data redistribution is unnecessary
        // because every role starts from x = 0, b = 1.
        let outcome = monitored_reorder(rank, &mon, &world, Flags::ALL_COMM, |comm| {
            cg::run_cg_charged(rank, comm, &a, 1, class.flops_per_iter);
        });
        let (_, s) = cg::run_cg_charged(rank, &outcome.comm, &a, class.iters, class.flops_per_iter);
        mon.finalize(rank).unwrap();
        (s.total_ns + outcome.reorder_cost_ns, s.comm_ns)
    });
    stats[0]
}

fn main() {
    let nps = mim_bench::sweep(&[(64usize, 3usize), (128, 6), (256, 11)], &[(64, 3)]);
    let classes = mim_bench::sweep(&["B", "C", "D"], &["B"]);
    let mappings = [Mapping::Random, Mapping::RoundRobin, Mapping::Standard];
    let mut rows = Vec::new();
    for mapping in mappings {
        for &(np, nodes) in &nps {
            for class_name in &classes {
                let class = cg::class(class_name);
                let (t_base, c_base) = run(np, nodes, class, mapping, false);
                let (t_opt, c_opt) = run(np, nodes, class, mapping, true);
                let exec_ratio = t_base / t_opt;
                let comm_ratio = c_base / c_opt;
                rows.push(vec![
                    mapping.label().to_string(),
                    np.to_string(),
                    class_name.to_string(),
                    format!("{exec_ratio:.3}"),
                    format!("{comm_ratio:.3}"),
                ]);
            }
        }
    }
    let dir = results_dir();
    write_csv(&dir.join("fig7_cg.csv"), "mapping,np,class,exec_ratio,comm_ratio", &rows);
    println!("Fig 7 — NAS CG reordering gain (ratio > 1: reordering is faster)");
    println!(
        "{}",
        ascii_table(&["mapping", "NP", "class", "exec ratio (7a)", "comm ratio (7b)"], &rows)
    );
    println!(
        "paper: all exec ratios > 1 (up to ~1.05), comm ratios much larger (up to\n\
         1.9x); ratios shrink as the class grows (compute dominates) — expect the\n\
         same shape.\nCSV: {}/fig7_cg.csv",
        dir.display()
    );
}
