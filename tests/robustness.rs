//! Failure-injection and edge-case behaviour of the runtime and the
//! monitoring library: the simulator must fail loudly and precisely, never
//! hang or corrupt.

use std::time::Duration;

use mim_core::{Flags, MonError, Monitoring, Msid};
use mim_mpisim::trace::Tracer;
use mim_mpisim::{RankFailure, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};

fn quick_deadline(n: usize) -> Universe {
    let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(n));
    cfg.deadline = Duration::from_millis(200);
    Universe::new(cfg)
}

#[test]
#[should_panic(expected = "deadlock")]
fn deadlocked_application_panics_with_diagnosis() {
    let u = quick_deadline(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        // Everyone receives, nobody sends.
        rank.recv::<u8>(&world, SrcSel::Any, TagSel::Any);
    });
}

#[test]
#[should_panic(expected = "boom")]
fn rank_panic_propagates_to_the_launcher() {
    let u = quick_deadline(4);
    u.launch(|rank| {
        if rank.world_rank() == 2 {
            panic!("boom");
        }
        // The other ranks return normally — the launcher must still
        // propagate rank 2's panic.
    });
}

#[test]
fn deadlock_panic_includes_flight_recorder_dump() {
    let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(2));
    cfg.deadline = Duration::from_millis(200);
    cfg.tracer = Some(Tracer::new(64));
    let u = Universe::new(cfg);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        u.launch(|rank| {
            let world = rank.comm_world();
            let peer = 1 - world.rank();
            // One successful exchange so both rings hold history...
            rank.send(&world, peer, 0, &[1u8, 2, 3]);
            rank.recv::<u8>(&world, SrcSel::Rank(peer), TagSel::Is(0));
            // ...then both ranks wait for a message nobody will send.
            rank.recv::<u8>(&world, SrcSel::Rank(peer), TagSel::Is(99));
        });
    }))
    .expect_err("crossed receives must deadlock");
    let msg = payload.downcast_ref::<String>().expect("deadlock panics carry a String");
    assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
    assert!(msg.contains("flight recorder:"), "missing flight dump: {msg}");
    assert!(
        msg.contains("[rank0]") && msg.contains("[rank1]"),
        "the dump must cover every rank's track: {msg}"
    );
    assert!(
        msg.contains("send dst=1 bytes=3 kind=p2p"),
        "the dump should show the recorded sends: {msg}"
    );
}

/// The failure-aware wait gives the same diagnosis as a plain receive: a
/// live peer that never sends is a deadlock, reported with both patterns
/// (the data and the peer's death notice) and the flight recorder.
#[test]
fn failure_aware_wait_deadlock_carries_the_mailbox_diagnosis() {
    let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(2));
    cfg.deadline = Duration::from_millis(200);
    cfg.tracer = Some(Tracer::new(64));
    let u = Universe::new(cfg);
    let res = u.launch_faulty(|rank| {
        let world = rank.comm_world();
        if world.rank() == 0 {
            let _ = rank.recv_or_failure::<u8>(&world, 1, 7);
        } else {
            // Alive, waiting for a message rank 0 never sends.
            rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Is(99));
        }
    });
    let Err(RankFailure::Panicked(msg)) = &res[0] else {
        panic!("rank 0 must panic on the deadline: {res:?}");
    };
    assert!(msg.starts_with("deadlock:"), "unexpected panic: {msg}");
    assert!(msg.contains("Pt2pt") && msg.contains("Fault"), "both patterns named: {msg}");
    assert!(msg.contains("flight recorder:"), "missing flight dump: {msg}");
}

#[test]
#[should_panic(expected = "boom")]
fn root_cause_panic_wins_over_send_to_dead_rank() {
    let u = quick_deadline(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        if rank.world_rank() == 1 {
            panic!("boom");
        }
        // Keep sending until the dead peer's channel closes and the send
        // unwinds: the launcher must still report rank 1's "boom", not this
        // rank's secondary send-to-dead-rank failure.  (If the peer's
        // receiver somehow outlives the whole loop, we return normally and
        // "boom" still propagates.)
        for _ in 0..10_000 {
            rank.send_synthetic(&world, 1, 0, 8);
            std::thread::sleep(Duration::from_millis(1));
        }
    });
}

#[test]
#[should_panic(expected = "whose thread had already exited")]
fn send_to_exited_rank_is_described() {
    let u = quick_deadline(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        if rank.world_rank() == 1 {
            return; // exits without receiving — and without panicking
        }
        // With no root-cause panic anywhere, the launcher must synthesize a
        // descriptive message from the RankAborted payload instead of the
        // seed's bare "destination rank is gone" expect.
        for _ in 0..30_000 {
            rank.send_synthetic(&world, 1, 0, 8);
            std::thread::sleep(Duration::from_millis(1));
        }
        unreachable!("peer receiver should have dropped within 30s");
    });
}

#[test]
#[should_panic(expected = "expected real payload")]
fn typed_recv_of_synthetic_message_is_loud() {
    let u = quick_deadline(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        if world.rank() == 0 {
            rank.send_synthetic(&world, 1, 0, 64);
        } else {
            // Receiving a size-only message into a typed buffer is a
            // benchmark-harness bug; it must fail immediately, not produce
            // garbage data.
            rank.recv::<u64>(&world, SrcSel::Rank(0), TagSel::Any);
        }
    });
}

#[test]
fn zero_length_typed_messages_work() {
    let u = quick_deadline(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        if world.rank() == 0 {
            rank.send::<f64>(&world, 1, 1, &[]);
        } else {
            let (v, st) = rank.recv::<f64>(&world, SrcSel::Rank(0), TagSel::Is(1));
            assert!(v.is_empty());
            assert_eq!(st.bytes, 0);
        }
    });
}

#[test]
fn single_rank_universe_supports_everything() {
    let u = quick_deadline(1);
    u.launch(|rank| {
        let world = rank.comm_world();
        assert_eq!(world.size(), 1);
        rank.barrier(&world);
        let mut v = vec![1u8, 2];
        rank.bcast(&world, 0, &mut v);
        assert_eq!(rank.allreduce(&world, &[5i32], |a, b| a + b), vec![5]);
        assert_eq!(rank.allgather(&world, &[7u64]), vec![7]);
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        rank.send(&world, 0, 0, &[1u8]);
        rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
        mon.suspend(id).unwrap();
        let row = mon.get_data(id, Flags::P2P_ONLY).unwrap();
        assert_eq!(row.counts, vec![1], "self-sends are monitored too");
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn stale_msid_across_free_reuse_cycles() {
    let u = quick_deadline(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let mut stale: Vec<Msid> = Vec::new();
        for _ in 0..5 {
            let id = mon.start(rank, &world).unwrap();
            mon.suspend(id).unwrap();
            mon.free(id).unwrap();
            stale.push(id);
        }
        // Every previously freed id must stay invalid even though its slot
        // was reused.
        for id in stale {
            assert_eq!(mon.get_data(id, Flags::ALL_COMM).err(), Some(MonError::InvalidMsid));
            assert_eq!(mon.suspend(id).err(), Some(MonError::InvalidMsid));
        }
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn monitoring_survives_heavy_session_churn_under_traffic() {
    // Start/stop sessions while traffic flows: the recorder must never
    // miscount the stable outer session.
    let u = quick_deadline(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let outer = mon.start(rank, &world).unwrap();
        let mut sent = 0u64;
        for i in 0..20 {
            let inner = mon.start(rank, &world).unwrap();
            if world.rank() == 0 {
                rank.send(&world, 1, 0, &vec![0u8; 10 + i]);
                sent += 10 + i as u64;
            } else {
                rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
            }
            mon.suspend(inner).unwrap();
            if i % 2 == 0 {
                mon.reset(inner).unwrap();
            }
            mon.free(inner).unwrap();
        }
        mon.suspend(outer).unwrap();
        let row = mon.get_data(outer, Flags::P2P_ONLY).unwrap();
        if world.rank() == 0 {
            assert_eq!(row.sizes[1], sent);
            assert_eq!(row.counts[1], 20);
        }
        mon.free(outer).unwrap();
        mon.finalize(rank).unwrap();
    });
}
