//! Paper Fig 2 & Fig 3: hardware counters vs introspection monitoring.
//!
//! Two ranks on different nodes of the Infiniband-EDR testbed.  Rank 0 sends
//! a random 1–800 KB buffer, then sleeps 50–1000 ms, ~45 s long.  Two probes
//! watch the traffic with a 10 ms sampling period:
//!
//! * the per-node NIC transmit counter (the paper reads
//!   `/sys/class/infiniband/.../port_xmit_data`), here the simulated NIC's
//!   timestamped event log binned into 10 ms buckets;
//! * the introspection library: the sender samples its session every 10 ms
//!   of virtual time (suspend → `get_data` → `reset` → continue — "we use
//!   the reset feature of the library session to monitor only what has
//!   happened between two measurements").
//!
//! Emits `results/fig2_timeseries.csv` and `results/fig3_cumulative.csv`.

use mim_apps::output::{results_dir, write_csv};
use mim_core::{Flags, Monitoring};
use mim_mpisim::{SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};
use mim_util::rng::Rng;

const SAMPLE_MS: f64 = 10.0;

fn main() {
    let messages = if mim_bench::quick_mode() { 20 } else { 80 };
    let machine = Machine::two_node_edr();
    // Rank 0 on node 0, rank 1 on node 1.
    let placement = Placement::explicit(vec![0, machine.cores_per_node()]);
    let universe = Universe::new(UniverseConfig::new(machine, placement));
    universe.nic().enable_event_log();

    // The sender returns its (time_s, bytes) samples.
    let samples = universe.launch(move |rank| {
        let world = rank.comm_world();
        // Both ranks participate in the (collective) session start.
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        if world.rank() == 1 {
            for _ in 0..messages {
                rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
            }
            mon.suspend(id).unwrap();
            mon.free(id).unwrap();
            mon.finalize(rank).unwrap();
            return Vec::new();
        }
        let mut rng = Rng::seed_from_u64(2019);
        let mut out: Vec<(f64, u64)> = Vec::new();
        let mut sample = |mon: &Monitoring, now_s: f64| {
            mon.suspend(id).unwrap();
            let row = mon.get_data(id, Flags::ALL_COMM).unwrap();
            let bytes: u64 = row.sizes.iter().sum();
            if bytes > 0 {
                out.push((now_s, bytes));
            }
            mon.reset(id).unwrap();
            mon.resume(id).unwrap();
        };
        for _ in 0..messages {
            let size = rng.gen_range(1_000usize..=800_000);
            rank.send(&world, 1, 0, &vec![0u8; size]);
            let sleep_ms: f64 = rng.gen_range(50.0..1000.0);
            // Sleep in sampling-period slices, probing after each.
            let mut remaining = sleep_ms;
            while remaining > 0.0 {
                let slice = remaining.min(SAMPLE_MS);
                rank.compute_ns(slice * 1e6);
                remaining -= slice;
                sample(&mon, rank.now_s());
            }
        }
        mon.suspend(id).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        out
    });
    let mon_samples = &samples[0];
    let nic_log = universe.nic().take_event_log();

    // Bin both probes into 10 ms buckets.
    let horizon_s = mon_samples
        .iter()
        .map(|&(t, _)| t)
        .chain(nic_log.iter().map(|e| e.vtime_ns * 1e-9))
        .fold(0.0f64, f64::max)
        + 0.02;
    let nbuckets = (horizon_s / (SAMPLE_MS * 1e-3)).ceil() as usize + 1;
    let mut hw = vec![0u64; nbuckets];
    let mut mon = vec![0u64; nbuckets];
    for e in &nic_log {
        hw[(e.vtime_ns * 1e-9 / (SAMPLE_MS * 1e-3)) as usize] += e.wire_bytes;
    }
    for &(t, b) in mon_samples {
        mon[(t / (SAMPLE_MS * 1e-3)) as usize] += b;
    }

    let dir = results_dir();
    let mut rows = Vec::new();
    let mut cum_rows = Vec::new();
    let (mut hw_cum, mut mon_cum) = (0u64, 0u64);
    for b in 0..nbuckets {
        let t = b as f64 * SAMPLE_MS * 1e-3;
        hw_cum += hw[b];
        mon_cum += mon[b];
        if hw[b] != 0 || mon[b] != 0 {
            rows.push(vec![
                format!("{t:.2}"),
                format!("{:.1}", hw[b] as f64 / 1e3),
                format!("{:.1}", mon[b] as f64 / 1e3),
            ]);
        }
        cum_rows.push(vec![
            format!("{t:.2}"),
            format!("{:.3}", hw_cum as f64 / 1e6),
            format!("{:.3}", mon_cum as f64 / 1e6),
        ]);
    }
    write_csv(&dir.join("fig2_timeseries.csv"), "time_s,hw_kb,introspection_kb", &rows);
    write_csv(&dir.join("fig3_cumulative.csv"), "time_s,hw_mb,introspection_mb", &cum_rows);

    println!("Fig 2/3 — HW counters vs introspection monitoring");
    println!("  duration            : {horizon_s:.1} s of virtual time, {messages} messages");
    println!("  NIC counter total   : {:.3} MB ({} events)", hw_cum as f64 / 1e6, nic_log.len());
    println!(
        "  introspection total : {:.3} MB ({} samples)",
        mon_cum as f64 / 1e6,
        mon_samples.len()
    );
    let diff = (hw_cum as f64 - mon_cum as f64).abs() / mon_cum.max(1) as f64 * 100.0;
    println!("  relative difference : {diff:.3}% (paper: the two curves coincide)");
    println!("  CSVs: {}/fig2_timeseries.csv, fig3_cumulative.csv", dir.display());
    assert!(diff < 1.0, "the probes disagree by {diff}%");
}
