//! End-to-end cost of retry storms: a two-rank universe streams messages
//! through plans with increasing drop probability, so each arm prices the
//! whole recovery machinery together — per-decision RNG, capped-exponential
//! backoff charging, wire sequence numbering, and receiver-side dedup —
//! not just the seam (`chaos_overhead` isolates that).
//!
//! Wall-clock per universe run is what the harness records; the virtual
//! completion time (which the backoffs inflate deterministically) is
//! printed alongside so a run shows both axes of the storm.

use std::sync::Arc;

use mim_util::bench::{black_box, Bench};

use mim_chaos::FaultPlan;
use mim_mpisim::{FaultInjector, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

const MSGS: u64 = 64;
const BYTES: u64 = 1024;

/// One universe: rank 0 streams `MSGS` synthetic messages to rank 1, which
/// drains them.  Returns the receiver's virtual completion time.
fn storm(injector: Option<Arc<dyn FaultInjector>>) -> f64 {
    let mut cfg = UniverseConfig::new(Machine::cluster(1, 1, 2), Placement::packed(2));
    if let Some(i) = injector {
        cfg = cfg.with_injector(i);
    }
    let times = Universe::new(cfg).launch(|rank| {
        let world = rank.comm_world();
        if world.rank() == 0 {
            for t in 0..MSGS as u32 {
                rank.send_synthetic(&world, 1, t, BYTES);
            }
        } else {
            for t in 0..MSGS as u32 {
                rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(t));
            }
        }
        rank.now_ns()
    });
    times[1]
}

fn main() {
    let mut b = Bench::new();

    let arms: [(&str, Option<FaultPlan>); 4] = [
        ("stream_64/clean", None),
        ("stream_64/drop_10", Some(FaultPlan::new(42).drop_p(0.10))),
        ("stream_64/drop_30", Some(FaultPlan::new(42).drop_p(0.30))),
        ("stream_64/drop_60", Some(FaultPlan::new(42).drop_p(0.60).dup_p(0.10))),
    ];

    let mut virt = Vec::new();
    for (label, plan) in arms {
        let injector = plan.map(FaultPlan::into_injector);
        virt.push((label, storm(injector.clone())));
        b.iter("retry_storm", label, || {
            black_box(storm(injector.clone()));
        });
    }

    let clean = virt[0].1;
    for (label, t) in virt {
        println!(
            "retry_storm                  {label:<18} virtual completion {t:>12.1}ns ({:.2}x clean)",
            t / clean
        );
    }
}
