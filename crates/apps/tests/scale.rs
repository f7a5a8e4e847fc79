//! The paper's loop at 10 000 ranks, ignored by default: a 100 × 100
//! process grid runs one monitored stencil iteration, `monitored_reorder`
//! (tree gather, TreeMatch, `k` broadcast, `comm_split`) and five steady
//! iterations on the reordered communicator, under a peak-resident-set
//! budget.
//!
//! Run it alone, in release:
//!
//! ```text
//! cargo test --release -p mim-apps --test scale -- --ignored --nocapture
//! ```

use std::time::Instant;

use mim_apps::stencil::{run_stencil, StencilConfig};
use mim_core::{Flags, Monitoring};
use mim_mpisim::{ExecutorKind, Universe, UniverseConfig};
use mim_reorder::monitored_reorder;
use mim_topology::{Machine, Placement};

const PROWS: usize = 100;
const PCOLS: usize = 100;
/// 4 × 4 blocks: the halos are small, so the reorder step, not the
/// application, sets the peak.
const STEADY: StencilConfig =
    StencilConfig { rows: PROWS * 4, cols: PCOLS * 4, prows: PROWS, pcols: PCOLS, iters: 5 };
const MONITORED: StencilConfig = StencilConfig { iters: 1, ..STEADY };
/// Measured at 2085–2165 MiB on a 2-core x86_64 Linux host (3319–3428 MiB
/// while every rank kept its own group, gather order and `k`); what is left
/// is mostly the split's allgathered `(color, key)` pairs, 16 n B per rank.
const PEAK_RSS_LIMIT_MIB: u64 = 2560;

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM line in /proc/self/status"));
    kib >> 10
}

/// When one rank finished each phase, on the host clock.
struct Marks {
    monitored: Instant,
    reorder: Instant,
    steady: Instant,
}

#[test]
#[ignore = "10 000 ranks: run alone, in release"]
fn ten_thousand_rank_monitored_reorder_fits_its_memory_budget() {
    if !mim_util::fiber::SUPPORTED {
        return;
    }
    let n = PROWS * PCOLS;
    // Reset `VmHWM` to the current resident set (Linux's `clear_refs` 5).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let setup = Instant::now();
    let machine = Machine::cluster(157, 2, 32);
    let placement = Placement::cyclic_by_level(&machine.tree, n, machine.node_level);
    let cfg = UniverseConfig::new(machine, placement).with_executor(ExecutorKind::Tasks);
    let u = Universe::new(cfg);
    let launch = Instant::now();
    let outs = u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).expect("init monitoring");
        let mut monitored = None;
        let outcome = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
            run_stencil(rank, comm, MONITORED);
            monitored = Some(Instant::now());
        });
        let reorder = Instant::now();
        let (_, stats) = run_stencil(rank, &outcome.comm, STEADY);
        let steady = Instant::now();
        mon.finalize(rank).expect("finalize monitoring");
        let monitored = monitored.expect("the monitored closure ran");
        (stats.checksum, outcome.reorder_cost_ns, Marks { monitored, reorder, steady })
    });
    // A phase ends when its last rank leaves it.
    let last = |mark: fn(&Marks) -> Instant| outs.iter().map(|o| mark(&o.2)).max().unwrap();
    let ends = [launch, last(|m| m.monitored), last(|m| m.reorder), last(|m| m.steady)];
    let [monitored, reorder, steady] = [0, 1, 2].map(|p| (ends[p + 1] - ends[p]).as_secs_f64());
    let peak = peak_rss_mib();
    eprintln!(
        "{n}-rank monitored reorder: setup {:.2} s, monitored {monitored:.2} s, \
         reorder {reorder:.2} s, steady {steady:.2} s, total {:.2} s, VmHWM {peak} MiB",
        (launch - setup).as_secs_f64(),
        setup.elapsed().as_secs_f64(),
    );
    let (checksum, reorder_cost_ns, _) = &outs[0];
    assert!(outs.iter().all(|o| o.0.to_bits() == checksum.to_bits()), "ranks disagree");
    assert_eq!(*checksum, 340.751953125);
    assert_eq!(reorder_cost_ns.to_bits(), 198_178_964.319_999_84f64.to_bits());
    assert!(peak < PEAK_RSS_LIMIT_MIB, "VmHWM {peak} MiB, limit {PEAK_RSS_LIMIT_MIB} MiB");
}
