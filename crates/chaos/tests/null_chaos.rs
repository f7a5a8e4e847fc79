//! The null-chaos property: installing a zero-probability [`FaultPlan`]
//! must leave the simulation *bit-identical* to running with no injector
//! at all — same monitoring matrices, same virtual completion times, same
//! trace events.  This is what makes chaos runs trustworthy: the
//! instrumentation itself is provably free of observable side effects, so
//! any divergence under a live plan is the plan's doing.

use std::sync::Arc;

use mim_chaos::FaultPlan;
use mim_core::{Flags, GatheredData, Monitoring};
use mim_mpisim::{SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};
use mim_trace::{TraceDigest, Tracer};
use mim_util::props;

const N: usize = 4;

/// One full monitored run: random traffic, a collective, a gather.
/// Returns everything an observer could compare; the trace as its
/// [`TraceDigest`], every virtual-time field exact.
fn run(
    msgs: &Arc<Vec<(usize, usize, u64)>>,
    plan: Option<FaultPlan>,
) -> (Vec<f64>, GatheredData, TraceDigest) {
    let tracer = Tracer::new(4096);
    let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(N));
    cfg.tracer = Some(Arc::clone(&tracer));
    if let Some(p) = plan {
        cfg = cfg.with_injector(p.into_injector());
    }
    let u = Universe::new(cfg);
    let msgs = Arc::clone(msgs);
    let results = u.launch(move |rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        let me = world.rank();
        for &(src, dst, bytes) in msgs.iter().filter(|&&(s, d, _)| s != d) {
            if src == me {
                rank.send_synthetic(&world, dst, 5, bytes);
            }
            if dst == me {
                rank.recv_synthetic(&world, SrcSel::Rank(src), TagSel::Is(5));
            }
        }
        rank.barrier(&world);
        mon.suspend(id).unwrap();
        let g = mon.allgather_data(rank, id, Flags::ALL_COMM).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        assert_eq!(rank.retry_count(), 0, "a null plan must never retry");
        assert_eq!(rank.duplicates_dropped(), 0, "a null plan must never duplicate");
        (rank.now_ns(), g)
    });
    let (times, mut matrices): (Vec<f64>, Vec<GatheredData>) = results.into_iter().unzip();
    let gathered = matrices.pop().expect("allgather puts the matrices everywhere");
    assert!(matrices.iter().all(|m| *m == gathered));
    (times, gathered, tracer.digest())
}

fn arb_msgs(g: &mut mim_util::prop::Gen) -> Arc<Vec<(usize, usize, u64)>> {
    Arc::new(g.vec(1..24, |g| (g.index(N), g.index(N), g.gen_range(1u64..65536))))
}

props! {
    /// No injector vs. the all-zero builder plan.
    fn zero_probability_plan_is_invisible(g, cases = 6) {
        let msgs = arb_msgs(g);
        let seed = g.any_u64();
        let clean = run(&msgs, None);
        let null = run(&msgs, Some(FaultPlan::new(seed)));
        assert_eq!(clean.0, null.0, "virtual completion times diverged");
        assert_eq!(clean.1, null.1, "monitoring matrices diverged");
        assert_eq!(clean.2, null.2, "traces diverged");
    }

    /// Same, through the environment-grammar path with explicit zeros.
    fn parsed_zero_plan_is_invisible(g, cases = 3) {
        let msgs = arb_msgs(g);
        let plan = FaultPlan::parse(g.any_u64(), "drop=0.0,dup=0.0,delay=0.0:0");
        let clean = run(&msgs, None);
        let null = run(&msgs, Some(plan));
        assert_eq!(clean.0, null.0, "virtual completion times diverged");
        assert_eq!(clean.1, null.1, "monitoring matrices diverged");
        assert_eq!(clean.2, null.2, "traces diverged");
    }
}
