//! Live introspection windows: read a monitoring session while it runs.
//!
//! The paper's loop suspends a session before reading it — a stop-the-world
//! barrier.  The windowed data plane seals **epoch windows** on an *active*
//! session instead: each application phase ends in a `gather_window`, the
//! root watches the traffic mix change phase by phase (the deltas ride a
//! topology-ordered k-ary tree, not a star), and the reorder loop consumes
//! the windows online (`monitored_reorder_windowed`) without ever stopping
//! the application.
//!
//! Run with: `cargo run --release -p mim-apps --example live_windows`

use mim_core::{Flags, Monitoring};
use mim_mpisim::{Comm, Rank, SrcSel, TagSel, Universe, UniverseConfig};
use mim_reorder::monitored_reorder_windowed;
use mim_topology::{Machine, Placement, TopologyTree};

const N: usize = 16;

/// One phase: every rank exchanges `bytes` with `me ^ stride` (a perfect
/// matching, so the pattern is a permutation of disjoint pairs).
fn exchange(rank: &Rank, comm: &Comm, stride: usize, bytes: u64) {
    let me = comm.rank();
    let peer = me ^ stride;
    rank.send_synthetic(comm, peer, 11, bytes);
    rank.recv_synthetic(comm, SrcSel::Rank(peer), TagSel::Is(11));
}

fn main() {
    // 16 ranks cyclic over 2 nodes: neighbouring ranks live on different
    // nodes, the worst case for the nearest-neighbour phase.
    let machine = Machine::cluster(2, 1, 8);
    let tree = TopologyTree::new(vec![2, 1, 8]);
    let placement = Placement::cyclic_by_level(&tree, N, 1);
    let universe = Universe::new(UniverseConfig::new(machine, placement));
    universe.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let mon = Monitoring::init(rank).unwrap();

        // Part 1: watch three phases through the window plane.  The session
        // stays ACTIVE throughout — no suspend, no barrier beyond the
        // gather itself.
        let id = mon.start(rank, &world).unwrap();
        if me == 0 {
            println!("three application phases, watched live (session never suspended):\n");
            println!("  phase   stride   window events   window bytes");
        }
        for (w, stride) in [1usize, 2, 4].into_iter().enumerate() {
            exchange(rank, &world, stride, 1 << (10 + w));
            let gw = mon.gather_window(rank, id, 0, Flags::P2P_ONLY).unwrap();
            if let Some(data) = gw.data {
                println!(
                    "  #{epoch}      ^{stride}      {:>13}   {:>12}",
                    data.counts.total(),
                    data.sizes.total(),
                    epoch = gw.epoch,
                );
            }
        }
        // Live counters still answer on the active session: the totals keep
        // accumulating while the windows were drained.
        let c = mon.trace_counters(rank, id).unwrap();
        assert_eq!(c.epoch, 3, "three windows sealed");
        assert_eq!(c.window_events, 0, "current window empty right after a seal");
        mon.suspend(id).unwrap();
        mon.free(id).unwrap();

        // Part 2: the reorder loop consumes windows online.  Three windows
        // of the nearest-neighbour pattern accumulate at the root while the
        // application keeps running; the permutation is computed from the
        // accumulated matrix exactly as in the strict (suspend) path.
        let outcome =
            monitored_reorder_windowed(rank, &mon, &world, Flags::P2P_ONLY, 3, |comm, _w| {
                exchange(rank, comm, 1, 1 << 20);
            });
        if me == 0 {
            let inv = mim_topology::inverse_permutation(&outcome.k);
            let machine = rank.machine();
            let placement = rank.placement();
            let colocated = (0..N)
                .step_by(2)
                .filter(|&i| {
                    machine.node_of_core(placement.core_of(inv[i]))
                        == machine.node_of_core(placement.core_of(inv[i + 1]))
                })
                .count();
            println!("\nwindowed reorder over 3 live windows: k = {:?}", outcome.k);
            println!("heavy pairs sharing a node after reordering: {colocated}/8");
            assert_eq!(colocated, 8, "every heavy pair must land on one node");
        }
        assert_eq!(outcome.k.is_empty(), me != 0, "rank 0 alone holds k");
        mon.finalize(rank).unwrap();
    });
}
