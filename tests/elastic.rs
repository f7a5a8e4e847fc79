//! Elastic universes: rank join/leave, communicator growth and rolling
//! restarts under chaos.
//!
//! The properties pinned here are the elastic layer's contract:
//!
//! * a no-churn run of the recoverable launch is **bit-identical** to the
//!   strict one on both executors (elasticity is free until used);
//! * a fixed-seed rolling restart (crash → rejoin → `comm_grow`) converges
//!   with the same monitoring totals whatever the chaos seed or topology;
//! * traffic against a superseded membership epoch is rejected with a typed
//!   error, deterministically;
//! * a rank dying mid-epoch leaves no phantom rows in the next gathered
//!   window, and the tree gather routes around absent ranks;
//! * a latent slot joins where the sponsor calls `admit`, reproducibly;
//! * a latent slot never admitted is retired, even when the sponsor dies.

use mim_core::{Flags, Monitoring};
use mim_mpisim::{
    ExecutorKind, FaultPlan, Rank, RankFailure, SrcSel, StaleEpoch, TagSel, Universe,
    UniverseConfig,
};
use mim_topology::{Machine, Placement};

/// A monitored ring workload: deterministic traffic, per-rank row and the
/// completion clock (bit-exact).
fn monitored_ring(rank: &Rank) -> (Vec<u64>, Vec<u64>, u64) {
    let world = rank.comm_world();
    let me = world.rank();
    let n = world.size();
    let mon = Monitoring::init(rank).unwrap();
    let id = mon.start(rank, &world).unwrap();
    for r in 0..3u64 {
        rank.send(&world, (me + 1) % n, 5, &[me as u64 * 10 + r]);
        let _ = rank.recv::<u64>(&world, SrcSel::Rank((me + n - 1) % n), TagSel::Is(5));
    }
    mon.suspend(id).unwrap();
    let row = mon.get_data(id, Flags::ALL_COMM).unwrap();
    mon.free(id).unwrap();
    mon.finalize(rank).unwrap();
    (row.counts, row.sizes, rank.now_ns().to_bits())
}

#[test]
fn no_churn_elastic_run_is_bit_identical_to_static() {
    for kind in [ExecutorKind::Threads, ExecutorKind::Tasks] {
        let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(6));
        cfg.executor = kind;
        let oracle = Universe::new(cfg).launch(monitored_ring);

        let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(6));
        cfg.executor = kind;
        let recoverable = Universe::new(cfg).launch_faulty(monitored_ring);

        assert_eq!(oracle.len(), recoverable.len());
        for (w, (want, got)) in oracle.iter().zip(&recoverable).enumerate() {
            let got = got.as_ref().expect("no churn: every rank completes");
            assert_eq!(want, got, "rank {w} diverged from the strict launch ({kind:?})");
        }
    }
}

/// World rank that crashes and is readmitted in the churn tests.
const VICTIM: usize = 2;

/// The rolling-restart protocol: phase-1 ring traffic trips the plan's
/// crash; survivors agree on the death, shrink, await the rebirth and grow;
/// the reborn victim receives the grown communicator by admission; everyone
/// then runs a monitored ring on the grown world.
fn churn_app(rank: &Rank) -> (u64, u64, Vec<u64>, Vec<u64>, u64) {
    let grown = if rank.incarnation() > 0 {
        rank.recv_admission()
    } else {
        let world = rank.comm_world();
        let me = world.rank();
        let n = world.size();
        for r in 0..4u64 {
            rank.send(&world, (me + 1) % n, 7, &[me as u64 * 100 + r]);
            let _ = rank.recv_or_failure::<u64>(&world, (me + n - 1) % n, 7);
        }
        let alive = rank.liveness_exchange(&world);
        assert!(!alive[VICTIM], "the plan must have crashed the victim");
        let work = rank.comm_shrink(&world, &alive);
        let inc = rank.await_rejoin(VICTIM);
        assert_eq!(inc, 1, "first rebirth");
        if work.rank() == 0 {
            rank.admit(&work, VICTIM)
        } else {
            rank.comm_grow(&work, &[VICTIM])
        }
    };
    // Phase 2: a monitored neighbour ring over the recovered membership.
    let mon = Monitoring::init(rank).unwrap();
    let id = mon.start(rank, &grown).unwrap();
    let m = grown.size();
    let me = grown.rank();
    for r in 0..3u64 {
        rank.send(&grown, (me + 1) % m, 9, &[me as u64 * 1000 + r]);
        let _ = rank.recv::<u64>(&grown, SrcSel::Rank((me + m - 1) % m), TagSel::Is(9));
    }
    mon.suspend(id).unwrap();
    let row = mon.get_data(id, Flags::P2P_ONLY).unwrap();
    mon.free(id).unwrap();
    mon.finalize(rank).unwrap();
    (grown.id(), grown.epoch(), row.counts, row.sizes, rank.now_ns().to_bits())
}

type ChurnOutcome = Vec<(u64, u64, Vec<u64>, Vec<u64>, u64)>;
/// A churn outcome with the virtual clocks stripped (seed-invariant part).
type ClocklessOutcome = Vec<(u64, u64, Vec<u64>, Vec<u64>)>;

fn churn_run(machine: Machine, n: usize, seed: u64, kind: ExecutorKind) -> ChurnOutcome {
    let plan = FaultPlan::new(seed).delay(0.2, 30_000.0).restart_at_ops(VICTIM, 5);
    let mut cfg = UniverseConfig::new(machine, Placement::packed(n)).with_injector(plan);
    cfg.executor = kind;
    Universe::new(cfg)
        .launch_faulty(churn_app)
        .into_iter()
        .map(|r| r.expect("restarted ranks complete"))
        .collect()
}

#[test]
fn rolling_restart_converges_across_seeds_and_topologies() {
    // Delay chaos varies with the seed; the recovered membership and the
    // post-recovery monitoring totals must not.
    for (machine, n) in [
        (Machine::cluster(2, 1, 4), 6),
        (Machine::cluster(1, 1, 8), 5),
        (Machine::cluster(2, 2, 4), 8),
    ] {
        let mut monitored: Option<ClocklessOutcome> = None;
        for seed in [3u64, 17, 4242] {
            let out = churn_run(machine.clone(), n, seed, ExecutorKind::Threads);
            let stripped: Vec<_> =
                out.iter().map(|(id, ep, c, s, _clock)| (*id, *ep, c.clone(), s.clone())).collect();
            // Membership went world(0) → shrink(1) → grow(2) everywhere.
            for (_, epoch, counts, _, _) in &out {
                assert_eq!(*epoch, 2);
                assert_eq!(counts.iter().sum::<u64>(), 3, "3 ring sends per rank");
            }
            match &monitored {
                None => monitored = Some(stripped),
                Some(first) => assert_eq!(
                    first, &stripped,
                    "monitoring totals diverged across seeds ({n} ranks)"
                ),
            }
        }
    }
}

#[test]
fn rolling_restart_is_reproducible_and_engine_independent() {
    // 32 ranks over four nodes is the largest churn the suite puts on the
    // tasks engine.
    for (machine, n) in [(Machine::cluster(2, 1, 4), 6), (Machine::cluster(4, 1, 8), 32)] {
        let a = churn_run(machine.clone(), n, 11, ExecutorKind::Threads);
        let b = churn_run(machine.clone(), n, 11, ExecutorKind::Threads);
        assert_eq!(a, b, "{n} ranks, same seed, same engine: byte-identical (clocks included)");
        let t = churn_run(machine, n, 11, ExecutorKind::Tasks);
        assert_eq!(a, t, "{n} ranks, same seed across engines: byte-identical (clocks included)");
        for (_, epoch, counts, _, _) in &t {
            assert_eq!((*epoch, counts.len()), (2, n), "the grown world has every rank again");
        }
    }
}

#[test]
fn stale_epoch_send_is_rejected_deterministically() {
    let cfg =
        UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(3)).with_latent_ranks(1);
    let res = Universe::new(cfg).launch_faulty(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        // Growing (locally) supersedes the parent's membership epoch...
        let grown = rank.comm_grow(&world, &[2]);
        let err = rank.send_checked(&world, 1 - me, 3, &[1u64]).unwrap_err();
        assert_eq!(err, StaleEpoch { comm_epoch: 0, current_epoch: 1 });
        // ...while the grown communicator itself is current.
        rank.send_checked(&grown, 1 - me, 4, &[9u64]).unwrap();
        let (v, _) = rank.recv::<u64>(&grown, SrcSel::Rank(1 - me), TagSel::Is(4));
        assert_eq!(v, vec![9]);
        (err.comm_epoch, err.current_epoch)
    });
    // Both original ranks observed the same typed rejection; the latent
    // slot was never admitted and retired cleanly.
    assert_eq!(res, [Ok((0, 1)), Ok((0, 1)), Err(RankFailure::Retired)]);
}

/// World rank 0 admits the latent slot where the other members grow the
/// world, under a seeded drop plan: the admission, the grown world and
/// every clock replay byte-identically.
#[test]
fn sponsor_admits_latent_rank_reproducibly() {
    let run = |seed: u64, kind: ExecutorKind| {
        let plan = FaultPlan::new(seed).drop_p(0.3);
        let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(5))
            .with_latent_ranks(1)
            .with_injector(plan);
        cfg.executor = kind;
        Universe::new(cfg).launch_faulty(|rank| {
            let grown = match rank.join_comm() {
                Some(c) => c,
                None => {
                    let world = rank.comm_world();
                    let me = world.rank();
                    let n = world.size();
                    // Traffic before the join, so the admission lands
                    // after retried sends.
                    for r in 0..4u64 {
                        rank.send(&world, (me + 1) % n, 3, &[r]);
                        let _ =
                            rank.recv::<u64>(&world, SrcSel::Rank((me + n - 1) % n), TagSel::Is(3));
                    }
                    if me == 0 {
                        rank.admit(&world, 4)
                    } else {
                        rank.comm_grow(&world, &[4])
                    }
                }
            };
            let me = grown.rank();
            let sum = rank.allreduce(&grown, &[me as u64 + 1], |a, b| a + b)[0];
            (grown.id(), grown.epoch(), me, sum, rank.now_ns().to_bits(), rank.retry_count())
        })
    };
    let a = run(5, ExecutorKind::Threads);
    let b = run(5, ExecutorKind::Threads);
    assert_eq!(a, b, "fixed-seed join runs are byte-identical");
    let t = run(5, ExecutorKind::Tasks);
    assert_eq!(a, t, "join runs agree across engines");
    let retries: u64 = a.iter().map(|r| r.as_ref().unwrap().5).sum();
    assert!(retries > 0, "the drop plan must retry at least once");
    for (w, r) in a.iter().enumerate() {
        let (id, epoch, me, sum, _, _) = r.as_ref().unwrap();
        assert!(*id & (1 << 63) != 0, "grown ids live outside the allocator range");
        assert_eq!((*epoch, *me, *sum), (1, w, 15), "all five ranks met on the grown world");
    }
}

/// A message sent to a latent slot before its admission notice reaches the
/// joiner after admission: world rank 1 sends the joiner a value on the
/// grown world and only then tells the sponsor to admit, so the value is
/// queued in the joiner's channel ahead of the notice on both engines.
#[test]
fn messages_that_beat_the_admission_notice_reach_the_joiner() {
    for kind in [ExecutorKind::Threads, ExecutorKind::Tasks] {
        let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(4))
            .with_latent_ranks(1);
        cfg.executor = kind;
        let res = Universe::new(cfg).launch_faulty(|rank| {
            if let Some(grown) = rank.join_comm() {
                let admitted_at = rank.now_ns();
                let (v, _) = rank.recv::<u64>(&grown, SrcSel::Rank(1), TagSel::Is(11));
                return (v[0], admitted_at, rank.now_ns());
            }
            let world = rank.comm_world();
            match world.rank() {
                0 => {
                    let _ = rank.recv::<u64>(&world, SrcSel::Rank(1), TagSel::Is(12));
                    let go_at = rank.now_ns();
                    rank.admit(&world, 3);
                    (0, go_at, rank.now_ns())
                }
                1 => {
                    let grown = rank.comm_grow(&world, &[3]);
                    rank.send(&grown, 3, 11, &[42u64]);
                    rank.send(&world, 0, 12, &[0u64]);
                    (0, 0.0, rank.now_ns())
                }
                _ => {
                    rank.comm_grow(&world, &[3]);
                    (0, 0.0, rank.now_ns())
                }
            }
        });
        let got: Vec<_> = res.into_iter().map(|r| r.expect("every slot completes")).collect();
        let (value, admitted_at, done_at) = got[3];
        assert_eq!(value, 42, "{kind:?}: the early message reached the joiner");
        assert!(admitted_at > got[0].1, "{kind:?}: the joiner's clock starts at its admission");
        assert!(done_at >= admitted_at, "{kind:?}: the receive ends after the admission");
    }
}

#[test]
fn unadmitted_latent_slots_are_retired() {
    let cfg =
        UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(6)).with_latent_ranks(2);
    let res = Universe::new(cfg).launch_faulty(|rank| {
        let world = rank.comm_world();
        assert_eq!(world.size(), 4, "latent slots are not world members");
        assert_eq!(rank.capacity(), 6);
        rank.barrier(&world);
        rank.world_rank()
    });
    assert_eq!(res.len(), 6);
    for (w, r) in res.iter().enumerate().take(4) {
        assert_eq!(r, &Ok(w));
    }
    for r in res.iter().skip(4) {
        assert_eq!(r, &Err(RankFailure::Retired), "never-admitted slots retire");
    }
}

#[test]
fn a_dead_sponsor_still_retires_latent_slots() {
    // World rank 0 dies at its first wire op with no restart to follow: its
    // slot has ended for good, so the latent slot is retired at once
    // instead of waiting out the deadline and being blamed for it.
    for kind in [ExecutorKind::Threads, ExecutorKind::Tasks] {
        let plan = FaultPlan::new(1).crash_at_ops(0, 0);
        let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(4))
            .with_latent_ranks(1)
            .with_injector(plan);
        cfg.executor = kind;
        let res = Universe::new(cfg).launch_faulty(|rank| {
            if rank.world_rank() == 0 {
                rank.send(&rank.comm_world(), 1, 0, &[0u64]);
            }
            rank.world_rank()
        });
        assert!(matches!(res[0], Err(RankFailure::Crashed { ops: 0, .. })), "{kind:?}: {res:?}");
        assert_eq!(res[1..], [Ok(1), Ok(2), Err(RankFailure::Retired)], "{kind:?}");
    }
}

#[test]
fn dead_rank_leaves_no_phantom_rows_in_windows() {
    // A rank dying mid-epoch must not leave phantom rows in the next
    // gathered window: the survivors shrink around it, rebind the session
    // and gather over themselves — their rows come back intact, and a
    // traffic-free follow-up window is empty everywhere.
    let plan = FaultPlan::new(7).crash_at_ops(3, 7);
    let cfg =
        UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(4)).with_injector(plan);
    let res = Universe::new(cfg).launch_faulty(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let n = world.size();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        for r in 0..4u64 {
            rank.send(&world, (me + 1) % n, 7, &[r]);
            let _ = rank.recv_or_failure::<u64>(&world, (me + n - 1) % n, 7);
        }
        let alive = rank.liveness_exchange(&world);
        assert_eq!(alive, vec![true, true, true, false]);
        let work = rank.comm_shrink(&world, &alive);
        mon.rebind_session(id, &work).unwrap();
        let w1 = mon.gather_window(rank, id, 0, Flags::P2P_ONLY).unwrap();
        let w2 = mon.gather_window(rank, id, 0, Flags::P2P_ONLY).unwrap();
        assert_eq!((w1.epoch, w2.epoch), (1, 2));
        if let Some(data) = &w1.data {
            assert_eq!(data.counts.order(), 3, "one row per survivor");
            assert_eq!(data.counts.get(0, 1), 4);
            assert_eq!(data.counts.get(1, 2), 4);
            assert!(data.sizes.get(1, 2) > 0);
        } else {
            assert_ne!(me, 0, "the root must get the window data");
        }
        if let Some(data) = &w2.data {
            // No phantom rows: with the gather's own control traffic muted
            // and no app traffic in between, window 2 is empty everywhere.
            assert_eq!(data.counts.total(), 0, "phantom row in a sealed window");
        }
        mon.suspend(id).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        me
    });
    assert!(res[3].is_err(), "the victim died for good");
    for r in res.iter().take(3) {
        assert!(r.is_ok());
    }
}

#[test]
fn session_rebind_carries_totals_across_growth() {
    // End-to-end: monitor on the initial world, grow it, rebind the session
    // and keep monitoring — pre-growth traffic keeps its coordinates, the
    // joiner's column starts recording.
    let cfg =
        UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(4)).with_latent_ranks(1);
    let res = Universe::new(cfg).launch_faulty(|rank| {
        if let Some(grown) = rank.join_comm() {
            // The joiner pings the sponsor; it runs no session of its own
            // (`start` is collective, and the incumbents' sessions predate
            // the joiner).
            let me = grown.rank();
            rank.send(&grown, 0, 8, &[me as u64]);
            let (v, _) = rank.recv::<u64>(&grown, SrcSel::Rank(0), TagSel::Is(8));
            assert_eq!(v, vec![me as u64]);
            return Vec::new();
        }
        let world = rank.comm_world();
        let me = world.rank();
        let n = world.size();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        // Pre-growth traffic on the initial world.
        rank.send(&world, (me + 1) % n, 5, &[me as u64]);
        let _ = rank.recv::<u64>(&world, SrcSel::Rank((me + n - 1) % n), TagSel::Is(5));
        // Rank 0 sponsors the latent slot in; everyone grows and rebinds.
        let grown = if me == 0 { rank.admit(&world, 3) } else { rank.comm_grow(&world, &[3]) };
        mon.rebind_session(id, &grown).unwrap();
        // Post-growth traffic: everyone pings the joiner's sponsor lane.
        if me == 0 {
            let (v, _) = rank.recv::<u64>(&grown, SrcSel::Rank(3), TagSel::Is(8));
            rank.send(&grown, 3, 8, &v);
        }
        mon.suspend(id).unwrap();
        let row = mon.get_data(id, Flags::P2P_ONLY).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        row.counts
    });
    let rows: Vec<_> = res.iter().map(|r| r.as_ref().unwrap().clone()).collect();
    // Initial ranks: 4 columns now (grown world), ring counts intact.
    assert_eq!(rows[0], vec![0, 1, 0, 1], "ring send kept + reply to the joiner");
    assert_eq!(rows[1], vec![0, 0, 1, 0], "pre-growth ring send remapped in place");
    assert_eq!(rows[2], vec![1, 0, 0, 0]);
    assert_eq!(rows[3], Vec::<u64>::new(), "the joiner runs no session");
}
