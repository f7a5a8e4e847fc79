//! Rolling restart + elastic scale-out under chaos: 8 monitored stencil
//! ranks and a latent 9th slot; rank 3 is crash-restarted, the survivors
//! shrink and regrow, the latent slot is admitted, and a fresh session
//! gathers a 9x9 window matrix.  The body, step by step, is
//! `mim_apps::scenario::elastic_stencil`.
//!
//! Everything printed is a pure function of the seed: run it twice with
//! the same `MIM_CHAOS_SEED`, on either executor (`MIM_EXECUTOR`), and
//! stdout is byte-identical, as is the `MIM_TRACE` JSONL up to line order,
//! `tid` and the `uq` diagnostic (`mim_trace::TraceDigest`).
//! `elastic_stencil_replays_byte_identically` in
//! `crates/apps/tests/determinism.rs` holds that.
//!
//! Environment: `MIM_CHAOS_SEED` (default 42) reseeds the built-in plan;
//! `MIM_CHAOS_PLAN` replaces it entirely (see `FaultPlan::parse`), and must
//! restart rank 3 (`restart=3@ops:N`): a plan without it is refused.

use mim_apps::scenario;
use mim_mpisim::trace::Tracer;
use mim_mpisim::ExecutorKind;

fn main() {
    let chaos = scenario::chaos_from_env();
    print!("{}", scenario::elastic_stencil(ExecutorKind::from_env(), Tracer::global(), chaos).text);
}
