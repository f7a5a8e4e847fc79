//! Quickstart: monitor a broadcast and print who really talked to whom.
//!
//! Demonstrates the core loop of the library: start a session, run some
//! communication (here a collective, which the runtime decomposes into
//! point-to-point messages below the monitoring probe), suspend, and read
//! the per-pair matrices back.  The body is `mim_apps::scenario::quickstart`.
//!
//! Run with: `cargo run -p mim-apps --example quickstart`
//!
//! To also capture a structured trace of every wire event (sends, receive
//! completions, collective spans, session transitions), set `MIM_TRACE`:
//! `MIM_TRACE=trace.jsonl cargo run -p mim-apps --example quickstart`
//! (a non-`.jsonl` path gets chrome trace-event JSON for `about:tracing`;
//! see the "Observability" section of the README).

use mim_apps::scenario;
use mim_mpisim::trace::Tracer;
use mim_mpisim::ExecutorKind;

fn main() {
    print!("{}", scenario::quickstart(ExecutorKind::from_env(), Tracer::global()).text);
}
