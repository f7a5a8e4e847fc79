//! The tasks engine at 100 000 ranks: a bare neighbour ring completes, and
//! the process's peak resident set stays small.  Ignored by default (a
//! debug build takes minutes); run it alone, in release, so the peak is this
//! test's own:
//!
//! ```text
//! cargo test --release -p mim-mpisim --test scale -- --ignored
//! ```

use mim_mpisim::{ExecutorKind, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

const RANKS: usize = 100_000;
const ROUNDS: u32 = 4;
const PEAK_RSS_LIMIT_KIB: u64 = 512 << 10;

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM line in /proc/self/status"))
}

#[test]
#[ignore = "100 000 ranks: run alone, in release"]
fn hundred_thousand_rank_ring_completes_in_bounded_memory() {
    if !mim_util::fiber::SUPPORTED {
        return;
    }
    let cfg =
        UniverseConfig::new(Machine::cluster(RANKS.div_ceil(64), 1, 64), Placement::packed(RANKS))
            .with_executor(ExecutorKind::Tasks);
    let clocks = Universe::new(cfg).launch(|rank| {
        let world = rank.comm_world();
        let (me, size) = (world.rank(), world.size());
        for round in 0..ROUNDS {
            rank.send_synthetic(&world, (me + 1) % size, round, 256);
            rank.recv_synthetic(&world, SrcSel::Rank((me + size - 1) % size), TagSel::Is(round));
        }
        rank.now_ns()
    });
    assert_eq!(clocks.len(), RANKS);
    assert!(clocks.iter().all(|&c| c > 0.0), "a rank's clock never moved");
    let peak = peak_rss_kib();
    eprintln!("{RANKS}-rank ring: VmHWM {} MiB", peak >> 10);
    assert!(
        peak < PEAK_RSS_LIMIT_KIB,
        "VmHWM {} MiB, limit {} MiB",
        peak >> 10,
        PEAK_RSS_LIMIT_KIB >> 10
    );
}
