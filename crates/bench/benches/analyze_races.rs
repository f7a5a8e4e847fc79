//! Microbenchmark of the happens-before race pass: `analyze_program` over
//! wildcard-heavy plans where the vector-clock fixed point and the
//! per-site racing-set classification dominate, plus a dense wildcard-free
//! plan exercising the pass's early-exit path.  The race pass runs on
//! every analysis, so its cost gates the whole `mim-analyze` CLI.

use mim_util::bench::{black_box, Bench};

use mim_analyze::analyze_program;
use mim_explore::plans::{wildcard_clean, wildcard_race};
use mim_mpisim::schedule;

fn main() {
    let mut b = Bench::new();

    // All-benign: 255 wildcard sites in one block, every one proven
    // commuting (the benign-block detector's worst case).
    let clean = wildcard_clean(256);
    b.iter("analyze_races", "wildcard_clean_256", || {
        black_box(analyze_program(&clean));
    });

    // Racy: one contested wildcard with 127 racing senders (the racing-set
    // enumeration and diagnostic construction path).
    let race = wildcard_race(128);
    b.iter("analyze_races", "wildcard_race_128", || {
        black_box(analyze_program(&race));
    });

    // Wildcard-free dense plan: the pass must get out of the way — this
    // measures the early-exit overhead on n(n-1) messages.
    let alltoall = schedule::alltoall_pairwise(128, 4096);
    b.iter("analyze_races", "alltoall_skip_128", || {
        black_box(alltoall.analyze());
    });
}
