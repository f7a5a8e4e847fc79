//! Collective-algorithm ablation: analytic makespans of the tree shapes the
//! paper's Fig 5 relies on (binary vs binomial), and evaluator throughput.

use mim_util::bench::{black_box, Bench};

use mim_mpisim::schedule;
use mim_topology::{Machine, Placement};

fn main() {
    let machine = Machine::plafrim(4);
    let np = 96;
    let placement = Placement::cyclic_by_level(&machine.tree, np, machine.node_level);
    let cores: Vec<usize> = (0..np).map(|r| placement.core_of(r)).collect();
    let bytes = 8_000_000;
    let schedules = [
        ("bcast_binomial", schedule::bcast_binomial(np, 0, bytes)),
        ("bcast_binary", schedule::bcast_binary(np, 0, bytes)),
        ("reduce_binomial", schedule::reduce_binomial(np, 0, bytes)),
        ("reduce_binary", schedule::reduce_binary(np, 0, bytes)),
        ("allgather_ring", schedule::allgather_ring(np, bytes / np as u64)),
        ("allgather_bruck", schedule::allgather_bruck(np, bytes / np as u64)),
        ("allreduce_rd", schedule::allreduce_recursive_doubling(np, bytes)),
    ];
    let mut b = Bench::new("coll_algorithms");
    for (name, sched) in &schedules {
        b.iter("collective_makespan_eval", name, || {
            schedule::evaluate_contended(black_box(sched), &machine, &cores, 100.0, 50.0)
                .into_iter()
                .fold(0.0f64, f64::max);
        });
    }
    b.finish();

    // Report the ablation numbers once, for the record.
    println!("\nanalytic makespans, {np} ranks cyclic on 4 nodes, 8 MB buffers:");
    for (name, sched) in &schedules {
        let t = schedule::evaluate_contended(sched, &machine, &cores, 100.0, 50.0)
            .into_iter()
            .fold(0.0f64, f64::max);
        println!("  {name:>16}: {:.2} ms", t / 1e6);
    }
}
