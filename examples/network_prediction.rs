//! Predicting network utilization from introspection monitoring (the
//! paper's Sec 7 outlook, after Tseng et al., EuroPar'19): sample a session
//! every 10 ms, feed an EWMA predictor, and schedule a background transfer
//! — think checkpoint prefetch — into a window the predictor marks idle.
//!
//! Run with: `cargo run --release -p mim-apps --example network_prediction`

use mim_apps::netpredict::{EwmaPredictor, UtilizationSampler};
use mim_core::{Flags, Monitoring};
use mim_mpisim::{SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

fn main() {
    let machine = Machine::two_node_edr();
    let placement = Placement::explicit(vec![0, machine.cores_per_node()]);
    let universe = Universe::new(UniverseConfig::new(machine, placement));

    let timelines = universe.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        if world.rank() == 1 {
            // 3 bursts x 4 messages + 1 background transfer.
            for _ in 0..13 {
                rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Any);
            }
            mon.suspend(id).unwrap();
            mon.free(id).unwrap();
            mon.finalize(rank).unwrap();
            return Vec::new();
        }
        let mut sampler = UtilizationSampler::new(rank, id, Flags::P2P_ONLY);
        let mut predictor = EwmaPredictor::new(0.5, 5e7); // idle below 50 MB/s
        let mut log: Vec<(f64, f64, bool)> = Vec::new();
        let mut prefetch_done = false;
        // Application phases: bursts of traffic separated by compute lulls.
        for phase in 0..3 {
            // Burst: 4 x 2 MB back to back.
            for _ in 0..4 {
                rank.send_synthetic(&world, 1, 0, 2_000_000);
                rank.compute_ns(5e6);
                let s = sampler.sample(rank, &mon).unwrap();
                let bw = predictor.observe(s);
                log.push((s.t_s, bw, predictor.network_idle()));
            }
            // Lull: 80 ms of "compute".
            for _ in 0..8 {
                rank.compute_ns(10e6);
                let s = sampler.sample(rank, &mon).unwrap();
                let bw = predictor.observe(s);
                let idle = predictor.network_idle();
                log.push((s.t_s, bw, idle));
                // First detected idle window of the last phase: fire the
                // background prefetch.
                if phase == 2 && idle && !prefetch_done {
                    rank.send_synthetic(&world, 1, 99, 10_000_000);
                    prefetch_done = true;
                }
            }
        }
        assert!(prefetch_done, "an idle window must have been found");
        mon.suspend(id).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        log
    });

    println!("t(ms)   predicted MB/s   idle?");
    for &(t, bw, idle) in &timelines[0] {
        let bar = "#".repeat(((bw / 4e7).min(30.0)) as usize);
        println!(
            "{:>6.0}   {:>10.1}   {}  {}",
            t * 1e3,
            bw / 1e6,
            if idle { "idle" } else { "    " },
            bar
        );
    }
    let idles = timelines[0].iter().filter(|&&(_, _, i)| i).count();
    println!(
        "\n{} of {} sampling windows predicted idle — the background 10 MB\n\
         checkpoint prefetch was scheduled into the first idle window of the\n\
         last compute phase, off the application's critical path.",
        idles,
        timelines[0].len()
    );
}
