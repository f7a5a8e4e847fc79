//! Crash-surviving stencil under deterministic fault injection: the chaos
//! CI gate's workload (`scripts/check_replay.py chaos`).
//!
//! 8 ranks run a 1-D halo-exchange stencil inside the self-healing reorder
//! loop (`monitored_reorder_resilient`).  The installed [`FaultPlan`] drops
//! and duplicates transmissions (exercising the wire retry + dedup path)
//! and crashes rank 3 at its 18th wire operation — the first op of
//! iteration 3, right after the monitoring barrier (6 ops) plus three
//! 4-op iterations.  Neighbours detect the death through
//! `recv_or_failure`, substitute a zero halo, and finish; the reorder loop
//! then agrees on liveness, shrinks the communicator ULFM-style, computes
//! a mapping over the surviving submatrix, and the 7 survivors run more
//! iterations plus an allreduce on the shrunk, reordered communicator.
//!
//! Everything printed is a pure function of the seed: run it twice with
//! the same `MIM_CHAOS_SEED` and stdout is byte-identical (and so is the
//! `MIM_TRACE` JSONL, up to cross-thread line interleaving, thread-start
//! track registration order (`tid`), and the scheduling-dependent
//! `uq_depth` diagnostic).
//!
//! Environment: `MIM_CHAOS_SEED` (default 42) reseeds the built-in plan;
//! `MIM_CHAOS_PLAN` replaces it entirely (see `FaultPlan::parse`).

use mim_chaos::FaultPlan;
use mim_core::{Flags, Monitoring};
use mim_mpisim::{RankFailure, Universe, UniverseConfig};
use mim_reorder::{monitored_reorder_resilient, ReorderFallback};
use mim_topology::{Machine, Placement};

const N: usize = 8;
const ITERS: usize = 6;
const POST_ITERS: usize = 2;
const CRASH_RANK: usize = 3;
/// Monitoring barrier (3 dissemination rounds x send+recv) + 3 interior
/// iterations x (2 sends + 2 receives).
const CRASH_OPS: u64 = 6 + 3 * 4;

#[derive(Debug)]
struct RankReport {
    first_failed: Option<usize>,
    retries: u64,
    new_rank: usize,
    shrunk_size: usize,
    k: Vec<usize>,
    alive: Vec<bool>,
    fallback: String,
    checksum: f64,
    gathered_csv: Option<String>,
}

/// One halo exchange on `comm` under rank labels `me`: returns the two
/// halo values (dead or absent neighbours contribute 0.0) and the first
/// iteration at which a neighbour was discovered dead.
fn exchange(
    rank: &mim_mpisim::Rank,
    comm: &mim_mpisim::Comm,
    x: f64,
    iter: usize,
    first_failed: &mut Option<usize>,
) -> (f64, f64) {
    let me = comm.rank();
    let n = comm.size();
    let tag = iter as u32;
    if me > 0 {
        rank.send(comm, me - 1, tag, &[x]);
    }
    if me + 1 < n {
        rank.send(comm, me + 1, tag, &[x]);
    }
    let mut halo = |peer: usize| match rank.recv_or_failure::<f64>(comm, peer, tag) {
        Ok((v, _)) => v[0],
        Err(_) => {
            first_failed.get_or_insert(iter);
            0.0
        }
    };
    let left = if me > 0 { halo(me - 1) } else { 0.0 };
    let right = if me + 1 < n { halo(me + 1) } else { 0.0 };
    (left, right)
}

fn main() {
    let seed = std::env::var("MIM_CHAOS_SEED")
        .ok()
        .map_or(42, |s| s.trim().parse().expect("MIM_CHAOS_SEED must be a u64"));
    let custom = std::env::var("MIM_CHAOS_PLAN").is_ok();
    let plan = match FaultPlan::from_env() {
        Some(p) if custom => p,
        _ => FaultPlan::new(seed).drop_p(0.1).dup_p(0.05).crash_at_ops(CRASH_RANK, CRASH_OPS),
    };

    let machine = Machine::cluster(2, 1, 4);
    let cfg =
        UniverseConfig::new(machine, Placement::packed(N)).with_injector(plan.into_injector());
    let u = Universe::new(cfg);

    let results = u.launch_faulty(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).expect("monitoring init");
        let mut x = world.rank() as f64 + 1.0;
        let mut first_failed = None;

        let outcome = monitored_reorder_resilient(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
            for iter in 0..ITERS {
                let (l, r) = exchange(rank, comm, x, iter, &mut first_failed);
                x = (l + x + r) / 3.0;
            }
        });

        // Survivors continue on the shrunk, reordered communicator.
        let work = &outcome.comm;
        for iter in 0..POST_ITERS {
            let (l, r) = exchange(rank, work, x, ITERS + iter, &mut first_failed);
            x = (l + x + r) / 3.0;
        }
        let checksum = rank.allreduce(work, &[x], |a, b| a + b)[0];
        mon.finalize(rank).expect("monitoring finalize");

        RankReport {
            first_failed,
            retries: rank.retry_count(),
            new_rank: work.rank(),
            shrunk_size: work.size(),
            k: outcome.k.clone(),
            alive: outcome.alive.clone(),
            fallback: format!("{:?}", outcome.fallback),
            checksum,
            gathered_csv: outcome.gathered.map(|g| g.sizes.to_csv()),
        }
    });

    println!(
        "chaos stencil: {N} ranks, plan seed {seed}, crash rank {CRASH_RANK} at {CRASH_OPS} wire ops"
    );
    let mut survivor: Option<&RankReport> = None;
    for (w, r) in results.iter().enumerate() {
        match r {
            Ok(rep) => {
                let failed = rep.first_failed.map_or("-".to_string(), |i| i.to_string());
                println!(
                    "rank {w}: ok   new_rank={} first_failed={failed} retries={} checksum={:.6}",
                    rep.new_rank, rep.retries, rep.checksum
                );
                survivor = Some(rep);
            }
            Err(f) => println!("rank {w}: DEAD {f}"),
        }
    }
    let rep = survivor.expect("at least one survivor");
    println!(
        "survivors: {}/{N}  alive={:?}  fallback={}",
        rep.shrunk_size, rep.alive, rep.fallback
    );
    println!("k = {:?}", rep.k);
    let root = results[0].as_ref().expect("root survives in this demo");
    if let Some(csv) = &root.gathered_csv {
        println!("partial byte matrix at root (dead rows zeroed):");
        print!("{csv}");
    }

    if !custom {
        // The built-in plan's contract, checked so CI fails loudly.
        assert!(
            matches!(results[CRASH_RANK], Err(RankFailure::Crashed { ops: CRASH_OPS, .. })),
            "rank {CRASH_RANK} should crash at op {CRASH_OPS}: {:?}",
            results[CRASH_RANK]
        );
        let expected_alive: Vec<bool> = (0..N).map(|r| r != CRASH_RANK).collect();
        for (w, r) in results.iter().enumerate().filter(|(w, _)| *w != CRASH_RANK) {
            let rep = r.as_ref().expect("survivor");
            assert_eq!(rep.shrunk_size, N - 1);
            assert_eq!(rep.alive, expected_alive);
            assert_eq!(
                rep.fallback,
                format!("{:?}", ReorderFallback::Shrunk { crashed: vec![CRASH_RANK] })
            );
            assert_eq!(rep.checksum, results.iter().flatten().next().unwrap().checksum);
            let expect_failed = (w == CRASH_RANK - 1 || w == CRASH_RANK + 1).then_some(ITERS / 2);
            assert_eq!(
                rep.first_failed,
                expect_failed,
                "rank {w}: neighbours of the crash must fail first at iteration {}",
                ITERS / 2
            );
        }
        assert!(
            results.iter().flatten().map(|r| r.retries).sum::<u64>() > 0,
            "a 10% drop plan must retry at least once"
        );
        println!(
            "crash at iteration {} recovered by shrink-and-remap; all checks passed",
            ITERS / 2
        );
    }
}
