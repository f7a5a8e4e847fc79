//! Cost of elastic membership: the purely-local derivation fold every
//! survivor pays per membership change, and a whole rolling-restart +
//! scale-out universe end to end.
//!
//! Two groups:
//!
//! * `derive/{engine}/{n}` — an n-rank universe where every rank folds
//!   eight shrink-then-grow chains over the full group, no wire traffic at
//!   all.  `comm_shrink`/`comm_grow` are collective-free by design (each
//!   member folds the same parts into the same id), so this prices the
//!   O(n) id fold and group rebuild that scales with the membership.
//! * `churn/{engine}/{n}` — the protocol end to end under a seeded fault
//!   plan: a ring trips a crash-restart of rank 2, survivors agree on the
//!   death, shrink, await the rebirth and grow, then admit a latent slot
//!   and allreduce on the 9th-rank world.  Covers the admission
//!   encode/decode path and the latent-slot park/wake seam.

use mim_util::bench::{black_box, Bench};

use mim_chaos::FaultPlan;
use mim_mpisim::{ExecutorKind, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

/// Shrink+grow chains per rank in the derivation ladder.
const REPS: u32 = 8;
/// World rank the churn plan crash-restarts.
const VICTIM: usize = 2;

/// Derivation-only universe: every rank drops its right neighbour from a
/// liveness bitmap, shrinks, grows the neighbour back, `REPS` times.
/// Returns rank 0's id fold so the work can't be elided.
fn derive(kind: ExecutorKind, n: usize) -> u64 {
    let nodes = n.div_ceil(64);
    let mut cfg = UniverseConfig::new(Machine::cluster(nodes, 1, 64), Placement::packed(n));
    cfg.executor = kind;
    let ids = Universe::new(cfg).launch(move |rank| {
        let world = rank.comm_world();
        let gone = (world.rank() + 1) % n;
        let mut acc = 0u64;
        for _ in 0..REPS {
            let mut alive = vec![true; n];
            alive[gone] = false;
            let shrunk = rank.comm_shrink(&world, &alive);
            let grown = rank.comm_grow(&shrunk, &[world.world_rank_of(gone)]);
            acc ^= shrunk.id() ^ grown.id();
        }
        acc
    });
    ids[0]
}

/// One full rolling restart + scale-out: n active ranks plus a latent slot,
/// rank 2 crash-restarted mid-ring by the plan.  Returns rank 0's virtual
/// completion time.
fn churn(kind: ExecutorKind, n: usize) -> u64 {
    let plan = FaultPlan::new(7).delay(0.2, 30_000.0).restart_at_ops(VICTIM, 5);
    let nodes = (n + 1).div_ceil(64);
    let mut cfg = UniverseConfig::new(Machine::cluster(nodes, 1, 64), Placement::packed(n + 1))
        .with_latent_ranks(1)
        .with_injector(plan.into_injector());
    cfg.executor = kind;
    let out = Universe::new(cfg).launch_faulty(move |rank| {
        let latent = n;
        let full = if let Some(c) = rank.join_comm() {
            c
        } else {
            let grown = if rank.incarnation() > 0 {
                rank.recv_admission()
            } else {
                let world = rank.comm_world();
                let me = world.rank();
                for r in 0..4u64 {
                    rank.send(&world, (me + 1) % n, 7, &[me as u64 + r]);
                    let _ = rank.recv_or_failure::<u64>(&world, (me + n - 1) % n, 7);
                }
                let alive = rank.liveness_exchange(&world);
                let work = rank.comm_shrink(&world, &alive);
                let _ = rank.await_rejoin(VICTIM);
                if work.rank() == 0 {
                    rank.admit(&work, VICTIM)
                } else {
                    rank.comm_grow(&work, &[VICTIM])
                }
            };
            if grown.rank() == 0 {
                rank.admit(&grown, latent)
            } else {
                rank.comm_grow(&grown, &[latent])
            }
        };
        let members = rank.allreduce(&full, &[1.0f64], |a, b| a + b)[0];
        assert_eq!(members as usize, n + 1, "scale-out must reach every slot");
        rank.now_ns().to_bits()
    });
    *out[0].as_ref().expect("rank 0 survives")
}

fn main() {
    let mut b = Bench::new();

    for n in [64usize, 256] {
        b.iter("derive", &format!("threads/{n}"), || {
            black_box(derive(ExecutorKind::Threads, n));
        });
    }
    for n in [8usize, 32] {
        b.iter("churn", &format!("threads/{n}"), || {
            black_box(churn(ExecutorKind::Threads, n));
        });
    }

    if mim_util::fiber::SUPPORTED {
        for n in [256usize, 1024] {
            b.iter("derive", &format!("tasks/{n}"), || {
                black_box(derive(ExecutorKind::Tasks, n));
            });
        }
        b.iter("churn", "tasks/32", || {
            black_box(churn(ExecutorKind::Tasks, 32));
        });
    } else {
        eprintln!("elastic_churn: fiber backend unsupported on this target; tasks rungs skipped");
    }
}
