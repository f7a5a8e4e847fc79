//! Rolling restart + elastic scale-out under chaos: the elastic CI gate's
//! workload (`scripts/check_replay.py elastic`).
//!
//! 8 ranks run a monitored 1-D stencil; a latent 9th slot waits, parked,
//! for admission.  The installed [`FaultPlan`] perturbs link latency and
//! crashes rank 3 after its 14th wire operation (the 6-op monitoring
//! barrier plus two 4-op iterations, dying on iteration 2's sends) — then
//! *restarts* it.  The protocol that follows is the elastic layer end to
//! end:
//!
//! 1. survivors agree on the death (`liveness_exchange`), shrink the world
//!    ULFM-style, await the victim's rebirth (`await_rejoin`) and grow the
//!    communicator back (`admit` at the sponsor, `comm_grow` elsewhere) —
//!    the reborn incarnation receives the grown communicator by admission
//!    and rejoins the stencil at the end of the line;
//! 2. the monitoring session *rebinds* across the membership change: the
//!    pre-crash traffic toward rank 3 follows it to its new coordinate;
//! 3. the latent slot is admitted (`comm_grow` again, 9 ranks), sends on
//!    the superseded epoch-2 communicator are rejected with a typed
//!    [`StaleEpoch`] error, and a fresh session — joiner included — gathers
//!    a 9x9 window matrix over the live membership.
//!
//! Everything printed is a pure function of the seed: run it twice with
//! the same `MIM_CHAOS_SEED` (on either executor — `MIM_EXECUTOR`) and
//! stdout is byte-identical, as is the `MIM_TRACE` JSONL up to
//! cross-thread interleaving, `tid` assignment and the `uq` diagnostic.
//!
//! Environment: `MIM_CHAOS_SEED` (default 42) reseeds the built-in plan;
//! `MIM_CHAOS_PLAN` replaces it entirely (see `FaultPlan::parse`).

use mim_chaos::FaultPlan;
use mim_core::{Flags, Monitoring, Msid};
use mim_mpisim::{Comm, Rank, RankFailure, StaleEpoch, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

const N: usize = 8;
const VICTIM: usize = 3;
const LATENT: usize = 8;
const ITERS_1: usize = 4;
const ITERS_2: usize = 2;
const ITERS_3: usize = 2;
/// Monitoring barrier (3 dissemination rounds x send+recv) + 2 interior
/// iterations x (2 sends + 2 receives): the victim dies attempting the
/// first send of iteration 2, so both neighbours miss that iteration.
const CRASH_OPS: u64 = 6 + 2 * 4;

#[derive(Debug)]
struct RankReport {
    role: &'static str,
    incarnation: u32,
    first_failed: Option<usize>,
    stale: Option<(u64, u64)>,
    row_a: Option<Vec<u64>>,
    final_rank: usize,
    final_size: usize,
    final_epoch: u64,
    checksum: f64,
    window_csv: Option<String>,
}

/// One halo exchange on `comm`: dead neighbours contribute 0.0 and set
/// `first_failed` to the iteration the death was discovered at.
fn exchange(
    rank: &Rank,
    comm: &Comm,
    x: f64,
    tag: u32,
    first_failed: &mut Option<usize>,
) -> (f64, f64) {
    let me = comm.rank();
    let n = comm.size();
    if me > 0 {
        rank.send(comm, me - 1, tag, &[x]);
    }
    if me + 1 < n {
        rank.send(comm, me + 1, tag, &[x]);
    }
    let mut halo = |peer: usize| match rank.recv_or_failure::<f64>(comm, peer, tag) {
        Ok((v, _)) => v[0],
        Err(_) => {
            first_failed.get_or_insert(tag as usize);
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
        _ => FaultPlan::new(seed).delay(0.15, 20_000.0).restart_at_ops(VICTIM, CRASH_OPS),
    };

    let machine = Machine::cluster(2, 1, 8);
    let cfg = UniverseConfig::new(machine, Placement::packed(N + 1))
        .with_latent_ranks(1)
        .with_injector(plan.into_injector());
    let u = Universe::new(cfg);

    let results = u.launch_faulty(|rank| {
        let mon = Monitoring::init(rank).expect("monitoring init");
        let mut first_failed = None;
        let mut stale = None;

        // Reach the 9-rank world, each slot by its own path: incumbents
        // survive a crash and grow twice, the victim's second incarnation
        // is readmitted, the latent slot joins by admission.
        let (grown2, role, session_a, mut x): (Comm, &str, Option<Msid>, f64) =
            if let Some(c) = rank.join_comm() {
                (c, "joiner", None, LATENT as f64 + 1.0)
            } else {
                let (grown1, role, session_a, mut x) = if rank.incarnation() > 0 {
                    (rank.recv_admission(), "reborn", None, VICTIM as f64 + 1.0)
                } else {
                    let world = rank.comm_world();
                    let me = world.rank();
                    let id = mon.start(rank, &world).expect("session A start");
                    let mut x = me as f64 + 1.0;
                    for iter in 0..ITERS_1 {
                        let (l, r) = exchange(rank, &world, x, iter as u32, &mut first_failed);
                        x = (l + x + r) / 3.0;
                    }
                    // Rolling restart: shrink around the death, then grow
                    // the reborn incarnation back in.
                    let alive = rank.liveness_exchange(&world);
                    let shrunk = rank.comm_shrink(&world, &alive);
                    let _inc = rank.await_rejoin(VICTIM);
                    let grown1 = if shrunk.rank() == 0 {
                        rank.admit(&shrunk, VICTIM)
                    } else {
                        rank.comm_grow(&shrunk, &[VICTIM])
                    };
                    mon.rebind_session(id, &grown1).expect("session A rebind");
                    (grown1, "incumbent", Some(id), x)
                };
                // Phase 2: everyone (reborn included) on the regrown world.
                for iter in 0..ITERS_2 {
                    let tag = (ITERS_1 + iter) as u32;
                    let (l, r) = exchange(rank, &grown1, x, tag, &mut first_failed);
                    x = (l + x + r) / 3.0;
                }
                // Scale-out: admit the latent slot.
                let grown2 = if grown1.rank() == 0 {
                    rank.admit(&grown1, LATENT)
                } else {
                    rank.comm_grow(&grown1, &[LATENT])
                };
                // The epoch-2 communicator is superseded: a checked send on
                // it is rejected before anything reaches the wire.
                let next = (grown1.rank() + 1) % grown1.size();
                let err: StaleEpoch =
                    rank.send_checked(&grown1, next, 99, &[0u64]).expect_err("stale epoch");
                stale = Some((err.comm_epoch, err.current_epoch));
                if let Some(id) = session_a {
                    mon.rebind_session(id, &grown2).expect("session A regrow");
                }
                (grown2, role, session_a, x)
            };

        // A fresh session over the full elastic membership — the reborn
        // incarnation and the joiner participate as first-class members.
        let session_b = mon.start(rank, &grown2).expect("session B start");
        for iter in 0..ITERS_3 {
            let tag = (ITERS_1 + ITERS_2 + iter) as u32;
            let (l, r) = exchange(rank, &grown2, x, tag, &mut first_failed);
            x = (l + x + r) / 3.0;
        }
        let checksum = rank.allreduce(&grown2, &[x], |a, b| a + b)[0];

        let all_alive = vec![true; grown2.size()];
        let window = mon
            .gather_window_partial(rank, session_b, 0, Flags::ALL_COMM, &all_alive)
            .expect("window gather");
        mon.suspend(session_b).expect("suspend B");
        mon.free(session_b).expect("free B");

        let row_a = session_a.map(|id| {
            mon.suspend(id).expect("suspend A");
            let row = mon.get_data(id, Flags::P2P_ONLY).expect("session A row");
            mon.free(id).expect("free A");
            row.counts
        });
        mon.finalize(rank).expect("monitoring finalize");

        RankReport {
            role,
            incarnation: rank.incarnation(),
            first_failed,
            stale,
            row_a,
            final_rank: grown2.rank(),
            final_size: grown2.size(),
            final_epoch: grown2.epoch(),
            checksum,
            window_csv: window.data.map(|d| d.counts.to_csv()),
        }
    });

    println!(
        "elastic stencil: {N} ranks + 1 latent slot, plan seed {seed}, \
         rank {VICTIM} restarts at {CRASH_OPS} wire ops"
    );
    for (w, r) in results.iter().enumerate() {
        match r {
            Ok(rep) => {
                let failed = rep.first_failed.map_or("-".to_string(), |i| i.to_string());
                let stale = rep
                    .stale
                    .map_or("-".to_string(), |(c, n)| format!("epoch {c} rejected at {n}"));
                println!(
                    "slot {w}: {} inc={} final_rank={}/{} epoch={} first_failed={failed} \
                     stale_send=[{stale}] checksum={:.6}",
                    rep.role,
                    rep.incarnation,
                    rep.final_rank,
                    rep.final_size,
                    rep.final_epoch,
                    rep.checksum
                );
            }
            Err(RankFailure::Retired) => println!("slot {w}: latent, never admitted"),
            Err(f) => println!("slot {w}: DEAD {f}"),
        }
    }
    let root = results[0].as_ref().expect("root survives");
    if let Some(row) = &root.row_a {
        println!("session A row at rank 0 (rebound across shrink+grow+grow): {row:?}");
    }
    if let Some(csv) = &root.window_csv {
        println!("session B window count matrix at root (9x9, joiner included):");
        print!("{csv}");
    }

    if !custom {
        // The built-in plan's contract, checked so CI fails loudly.
        let reports: Vec<&RankReport> =
            results.iter().map(|r| r.as_ref().expect("every slot completes")).collect();
        assert_eq!(reports.len(), N + 1);
        assert_eq!((reports[VICTIM].role, reports[VICTIM].incarnation), ("reborn", 1));
        assert_eq!((reports[LATENT].role, reports[LATENT].incarnation), ("joiner", 0));
        for (w, rep) in reports.iter().enumerate() {
            assert_eq!(rep.final_size, N + 1, "slot {w} must end on the 9-rank world");
            assert_eq!(rep.final_epoch, 3, "world(0) -> shrink(1) -> grow(2) -> grow(3)");
            assert_eq!(rep.checksum, reports[0].checksum, "slot {w} checksum diverged");
            let expect_stale = (w != LATENT).then_some((2, 3));
            assert_eq!(rep.stale, expect_stale, "slot {w} stale-epoch verdict");
            let expect_failed = (w == VICTIM - 1 || w == VICTIM + 1).then_some(2);
            assert_eq!(
                rep.first_failed, expect_failed,
                "only the victim's neighbours see the death, at iteration 2"
            );
        }
        // The session survived two rebinds: rank 2's pre-crash sends toward
        // the victim followed it to its post-rejoin coordinate (rank 7).
        let row2 = reports[2].row_a.as_ref().expect("incumbent session row");
        assert_eq!(row2.len(), N + 1);
        assert_eq!(row2[7], ITERS_1 as u64, "pre-crash traffic follows the victim's rebind");
        println!(
            "rolling restart (shrink-and-regrow) + scale-out to {} ranks converged; \
             all checks passed",
            N + 1
        );
    }
}
