//! Halo-exchange stencil with dynamic rank reordering.
//!
//! A 2-D Jacobi solver's nearest-neighbour pattern is the textbook case for
//! topology-aware placement: on a node-cyclic initial mapping, every halo
//! crosses the network; after monitoring one iteration and reordering with
//! TreeMatch, neighbouring blocks sit on neighbouring cores.  The body is
//! `mim_apps::scenario::stencil_reorder`.
//!
//! Run with: `cargo run --release -p mim-apps --example stencil_reorder`

use mim_apps::scenario;
use mim_mpisim::trace::Tracer;
use mim_mpisim::ExecutorKind;

fn main() {
    print!("{}", scenario::stencil_reorder(ExecutorKind::from_env(), Tracer::global()).text);
}
