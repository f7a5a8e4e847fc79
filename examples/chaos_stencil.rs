//! Crash-surviving stencil under deterministic fault injection: 8 ranks in
//! the self-healing reorder loop, rank 3 crashed by the fault plan, the 7
//! survivors shrink, remap and finish.  The body, step by step, is
//! `mim_apps::scenario::chaos_stencil`.
//!
//! Everything printed is a pure function of the seed: run it twice with
//! the same `MIM_CHAOS_SEED`, on either executor, and stdout is
//! byte-identical, and so is the `MIM_TRACE` JSONL up to line order,
//! `tid` and the `uq` diagnostic (`mim_trace::TraceDigest`).
//! `chaos_stencil_replays_byte_identically` in
//! `crates/apps/tests/determinism.rs` holds that.
//!
//! Environment: `MIM_CHAOS_SEED` (default 42) reseeds the built-in plan;
//! `MIM_CHAOS_PLAN` replaces it entirely (see `FaultPlan::parse`).  A plan
//! that crashes a rank before its last send in `Monitoring::start`'s
//! barrier is refused: that barrier is not failure-aware.

use mim_apps::scenario;
use mim_mpisim::trace::Tracer;
use mim_mpisim::ExecutorKind;

fn main() {
    let chaos = scenario::chaos_from_env();
    print!("{}", scenario::chaos_stencil(ExecutorKind::from_env(), Tracer::global(), chaos).text);
}
