//! Scale rungs, ignored by default (a debug build takes minutes):
//!
//! * the tasks engine at 100 000 ranks: a bare neighbour ring completes,
//!   and the process's peak resident set stays small;
//! * the offline planner at 1024 ranks: `alltoall_pairwise(1024, 4096)`'s
//!   1 047 552 messages analyze clean and simulate to pinned makespans.
//!
//! Run them in release:
//!
//! ```text
//! cargo test --release -p mim-mpisim --test scale -- --ignored
//! ```

use std::sync::{Mutex, PoisonError};

use mim_analyze::Verdict;
use mim_mpisim::schedule;
use mim_mpisim::{ExecutorKind, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

const RANKS: usize = 100_000;
const ROUNDS: u32 = 4;
const PEAK_RSS_LIMIT_KIB: u64 = 512 << 10;
const PLAN_RANKS: usize = 1024;

/// The rungs take turns, so the ring's peak resident set is its own.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // Reset `VmHWM` to the current resident set (Linux's `clear_refs` 5), so
    // a rung that ran earlier in this process does not count.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
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

#[test]
#[ignore = "a million-message plan: run in release"]
fn thousand_rank_alltoall_plan_analyzes_and_simulates() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = schedule::alltoall_pairwise(PLAN_RANKS, 4096);
    let report = plan.analyze();
    assert_eq!(report.verdict, Verdict::DeadlockFree, "{report}");
    assert_eq!(report.channels.len(), PLAN_RANKS * (PLAN_RANKS - 1));
    let machine = Machine::cluster(PLAN_RANKS / 64, 2, 32);
    let cores = Placement::packed(PLAN_RANKS).as_slice().to_vec();
    let makespan = |contention| {
        schedule::simulate(&plan, &machine, &cores, contention).into_iter().fold(0.0, f64::max)
    };
    // Taken from the hashed-channel evaluator the channel index replaced.
    assert_eq!(makespan(false).to_bits(), 1_942_976.079_999_982_6f64.to_bits());
    assert_eq!(makespan(true).to_bits(), 20_134_658.639_986_44f64.to_bits());
}
