//! End-to-end monitoring at realistic scale: 48 ranks on a 2-node PlaFRIM
//! machine, mixed workloads, sessions on sub-communicators, flush files.

use mim_core::{Flags, MonError, Monitoring, Msid};
use mim_mpisim::{SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{CommMatrix, Machine, Placement};

fn universe(np: usize) -> Universe {
    Universe::new(UniverseConfig::new(Machine::plafrim(2), Placement::packed(np)))
}

#[test]
fn forty_eight_ranks_mixed_traffic() {
    let np = 48;
    let u = universe(np);
    u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();

        // Ring of user p2p messages: everyone sends 100 bytes to the right.
        rank.send(&world, (me + 1) % np, 1, &[0u8; 100]);
        rank.recv::<u8>(&world, SrcSel::Rank((me + np - 1) % np), TagSel::Is(1));
        // A collective on top.
        let mut v = if me == 0 { vec![1u8; 4800] } else { vec![] };
        rank.bcast(&world, 0, &mut v);

        mon.suspend(id).unwrap();
        let all = mon.allgather_data(rank, id, Flags::ALL_COMM).unwrap();
        let p2p = mon.allgather_data(rank, id, Flags::P2P_ONLY).unwrap();
        let coll = mon.allgather_data(rank, id, Flags::COLL_ONLY).unwrap();

        // The ring: np messages of 100 bytes.
        assert_eq!(p2p.counts.total(), np as u64);
        assert_eq!(p2p.sizes.total(), 100 * np as u64);
        // The bcast: np-1 messages of 4800 bytes.
        assert_eq!(coll.counts.total(), (np - 1) as u64);
        assert_eq!(coll.sizes.total(), 4800 * (np - 1) as u64);
        // ALL = union.
        assert_eq!(all.counts.total(), p2p.counts.total() + coll.counts.total());
        assert_eq!(all.sizes.total(), p2p.sizes.total() + coll.sizes.total());
        // Row consistency: the gathered matrix row i equals rank i's own row.
        let row = mon.get_data(id, Flags::ALL_COMM).unwrap();
        let dense_row = |m: &CommMatrix| (0..np).map(|j| m.get(me, j)).collect::<Vec<_>>();
        assert_eq!(dense_row(&all.counts), row.counts);
        assert_eq!(dense_row(&all.sizes), row.sizes);

        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn subcommunicator_sessions_and_world_sessions_coexist() {
    let np = 24;
    let u = universe(np);
    u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let half = rank.comm_split(&world, (me / 12) as i64, me as i64);
        let mon = Monitoring::init(rank).unwrap();
        let s_world = mon.start(rank, &world).unwrap();
        let s_half = mon.start(rank, &half).unwrap();

        // Traffic within my half, sent on the WORLD communicator: the half
        // session must still see it (both endpoints are members).
        let peer_in_half = if me % 12 < 6 { me + 6 } else { me - 6 };
        rank.send(&world, peer_in_half, 7, &[0u8; 10]);
        rank.recv::<u8>(&world, SrcSel::Rank(peer_in_half), TagSel::Is(7));
        // Traffic across the halves: only the world session sees it.
        let cross_peer = (me + 12) % np;
        rank.send(&world, cross_peer, 8, &[0u8; 20]);
        rank.recv::<u8>(&world, SrcSel::Rank(cross_peer), TagSel::Is(8));

        mon.suspend(Msid::ALL).unwrap();
        let world_data = mon.allgather_data(rank, s_world, Flags::P2P_ONLY).unwrap();
        let half_data = mon.allgather_data(rank, s_half, Flags::P2P_ONLY).unwrap();
        assert_eq!(world_data.sizes.total(), (10 + 20) * np as u64);
        assert_eq!(half_data.sizes.total(), 10 * 12);
        mon.free(Msid::ALL).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn session_overflow_is_reported() {
    let u = universe(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let mut last = Err(MonError::InternalFail("unset".into()));
        for _ in 0..=mim_core::session::MAX_SESSIONS {
            last = mon.start(rank, &world);
            if last.is_err() {
                break;
            }
        }
        assert_eq!(last.err(), Some(MonError::SessionOverflow));
        mon.suspend(Msid::ALL).unwrap();
        mon.free(Msid::ALL).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn rootflush_roundtrips_the_matrix() {
    let dir = std::env::temp_dir().join(format!("mim-integ-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("ring").to_string_lossy().into_owned();
    let np = 8;
    let u = universe(np);
    let base2 = base.clone();
    u.launch(move |rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        rank.send(&world, (me + 1) % np, 1, &vec![0u8; (me + 1) * 10]);
        rank.recv::<u8>(&world, SrcSel::Rank((me + np - 1) % np), TagSel::Is(1));
        mon.suspend(id).unwrap();
        mon.rootflush(rank, id, 0, &base2, Flags::P2P_ONLY).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
    let sizes = std::fs::read_to_string(format!("{base}_sizes.0.prof")).unwrap();
    let rows: Vec<Vec<u64>> =
        sizes.lines().map(|l| l.split(',').map(|v| v.parse().unwrap()).collect()).collect();
    assert_eq!(rows.len(), np);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[(i + 1) % np], ((i + 1) * 10) as u64, "row {i}: {row:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
