//! End-to-end tests of the monitoring API on the live runtime.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use mim_mpisim::{Comm, ExecutorKind, PmlEvent, Rank, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{CommMatrix, Machine, Placement, TopologyTree};
use mim_util::props;

use crate::error::MonError;
use crate::flags::Flags;
use crate::session::{MemberMapOracle, Msid};

use super::Monitoring;

fn universe(n: usize) -> Universe {
    Universe::new(UniverseConfig::new(Machine::cluster(2, 2, 4), Placement::packed(n)))
}

#[test]
fn ping_monitored_row_and_matrix() {
    let u = universe(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        if world.rank() == 0 {
            rank.send(&world, 1, 0, &[0u8; 100]);
            rank.send(&world, 1, 0, &[0u8; 50]);
        } else {
            rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
            rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
        }
        mon.suspend(id).unwrap();
        let row = mon.get_data(id, Flags::P2P_ONLY).unwrap();
        if world.rank() == 0 {
            assert_eq!(row.counts, vec![0, 2]);
            assert_eq!(row.sizes, vec![0, 150]);
        } else {
            assert_eq!(row.counts, vec![0, 0]);
        }
        let data = mon.allgather_data(rank, id, Flags::P2P_ONLY).unwrap();
        assert_eq!(data.counts.get(0, 1), 2);
        assert_eq!(data.sizes.get(0, 1), 150);
        assert_eq!(data.counts.total(), 2);
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn collective_decomposition_visible() {
    // A binomial bcast over n ranks is decomposed into exactly n-1
    // point-to-point messages of the payload size — the paper's headline
    // feature.
    let n = 8;
    let payload = 4096u64;
    let u = universe(n);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        let mut data = if world.rank() == 0 { vec![0u8; payload as usize] } else { vec![] };
        rank.bcast(&world, 0, &mut data);
        mon.suspend(id).unwrap();
        let got = mon.allgather_data(rank, id, Flags::COLL_ONLY).unwrap();
        assert_eq!(got.counts.total(), (n - 1) as u64);
        assert_eq!(got.sizes.total(), payload * (n - 1) as u64);
        // And nothing was classified as user p2p.
        let p2p = mon.get_data(id, Flags::P2P_ONLY).unwrap();
        assert!(p2p.counts.iter().all(|&c| c == 0));
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn session_sees_traffic_on_other_communicators() {
    // Paper Sec 4.1: a session on the even/odd split records exchanges
    // between processes 0 and 2 even when they use MPI_COMM_WORLD.
    let u = universe(4);
    u.launch(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let evens = rank.comm_split(&world, (me % 2) as i64, me as i64);
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &evens).unwrap();
        if me == 0 {
            rank.send(&world, 2, 0, &[0u8; 64]); // member pair, via WORLD
            rank.send(&world, 1, 0, &[0u8; 32]); // 1 is not in my split comm
        }
        if me == 1 || me == 2 {
            rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
        }
        rank.barrier(&world);
        mon.suspend(id).unwrap();
        let row = mon.get_data(id, Flags::P2P_ONLY).unwrap();
        if me == 0 {
            // In the even communicator, world rank 2 is comm rank 1.
            assert_eq!(row.counts, vec![0, 1]);
            assert_eq!(row.sizes, vec![0, 64]);
        } else {
            assert!(row.sizes.iter().all(|&b| b == 0));
        }
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn overlapping_sessions_are_independent() {
    let u = universe(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let a = mon.start(rank, &world).unwrap();
        send_one(rank, 10);
        let b = mon.start(rank, &world).unwrap();
        send_one(rank, 20);
        mon.suspend(a).unwrap();
        send_one(rank, 40);
        mon.suspend(b).unwrap();
        if world.rank() == 0 {
            // a saw the first two sends, b the last two.
            assert_eq!(mon.get_data(a, Flags::P2P_ONLY).unwrap().sizes[1], 30);
            assert_eq!(mon.get_data(b, Flags::P2P_ONLY).unwrap().sizes[1], 60);
        }
        mon.free(Msid::ALL).unwrap();
        mon.finalize(rank).unwrap();
    });
}

fn send_one(rank: &mim_mpisim::Rank, bytes: usize) {
    let world = rank.comm_world();
    if world.rank() == 0 {
        rank.send(&world, 1, 0, &vec![0u8; bytes]);
    } else if world.rank() == 1 {
        rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
    }
    rank.barrier(&world);
}

#[test]
fn suspend_resume_reset_state_machine() {
    let u = universe(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        // Data access while active is forbidden.
        assert_eq!(mon.get_data(id, Flags::ALL_COMM).err(), Some(MonError::SessionNotSuspended));
        assert_eq!(mon.reset(id).err(), Some(MonError::SessionNotSuspended));
        assert_eq!(mon.resume(id).err(), Some(MonError::MultipleCall));
        send_one(rank, 10);
        mon.suspend(id).unwrap();
        assert_eq!(mon.suspend(id).err(), Some(MonError::MultipleCall));
        // Suspended sessions do not record.
        send_one(rank, 100);
        if world.rank() == 0 {
            assert_eq!(mon.get_data(id, Flags::P2P_ONLY).unwrap().sizes[1], 10);
        }
        // Resume records again; reset zeroes.
        mon.resume(id).unwrap();
        send_one(rank, 5);
        mon.suspend(id).unwrap();
        if world.rank() == 0 {
            assert_eq!(mon.get_data(id, Flags::P2P_ONLY).unwrap().sizes[1], 15);
        }
        mon.reset(id).unwrap();
        assert_eq!(mon.get_data(id, Flags::P2P_ONLY).unwrap().sizes, vec![0, 0]);
        mon.free(id).unwrap();
        assert_eq!(mon.get_data(id, Flags::P2P_ONLY).err(), Some(MonError::InvalidMsid));
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn finalize_requires_suspended_sessions() {
    let u = universe(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        assert_eq!(mon.finalize(rank).err(), Some(MonError::SessionStillActive));
        // Suspend (without freeing): finalize now succeeds and frees it.
        mon.suspend(id).unwrap();
        mon.finalize(rank).unwrap();
        // The environment is gone: everything reports MISSING_INIT.
        assert_eq!(mon.get_data(id, Flags::ALL_COMM).err(), Some(MonError::MissingInit));
        assert_eq!(mon.suspend(id).err(), Some(MonError::MissingInit));
        assert_eq!(mon.finalize(rank).err(), Some(MonError::MissingInit));
        // A fresh environment can be set up afterwards (paper: init/finalize
        // may be called multiple times as long as environments don't overlap).
        let mon2 = Monitoring::init(rank).unwrap();
        let id2 = mon2.start(rank, &world).unwrap();
        mon2.suspend(id2).unwrap();
        mon2.free(id2).unwrap();
        mon2.finalize(rank).unwrap();
    });
}

#[test]
fn rootgather_and_invalid_root() {
    let u = universe(4);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        send_one(rank, 33);
        mon.suspend(id).unwrap();
        assert_eq!(
            mon.rootgather_data(rank, id, 99, Flags::ALL_COMM).err(),
            Some(MonError::InvalidRoot)
        );
        let data = mon.rootgather_data(rank, id, 2, Flags::P2P_ONLY).unwrap();
        if world.rank() == 2 {
            let data = data.expect("root receives the matrices");
            assert_eq!(data.sizes.get(0, 1), 33);
        } else {
            assert!(data.is_none());
        }
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn barrier_generates_zero_length_messages() {
    // Paper Sec 4.1: "some collective MPI routines might generate
    // point-to-point zero-length messages".
    let u = universe(4);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        rank.barrier(&world);
        mon.suspend(id).unwrap();
        let row = mon.get_data(id, Flags::COLL_ONLY).unwrap();
        assert!(row.counts.iter().sum::<u64>() > 0, "barrier sends messages");
        assert_eq!(row.sizes.iter().sum::<u64>(), 0, "barrier messages are empty");
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn one_sided_traffic_classified_as_osc() {
    let u = universe(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let win = rank.win_create(&world, vec![0u8; 128]);
        let id = mon.start(rank, &world).unwrap();
        if world.rank() == 0 {
            rank.put(&win, 1, 0, &[7u8; 128]);
        }
        rank.fence(&win);
        mon.suspend(id).unwrap();
        let row = mon.get_data(id, Flags::OSC_ONLY).unwrap();
        if world.rank() == 0 {
            assert_eq!(row.sizes, vec![0, 128]);
            assert_eq!(row.counts, vec![0, 1]);
        }
        // The fence's barrier is collective traffic, not OSC.
        let coll = mon.get_data(id, Flags::COLL_ONLY).unwrap();
        assert!(coll.counts.iter().sum::<u64>() > 0);
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        rank.win_free(win);
    });
}

#[test]
fn flush_and_rootflush_write_prof_files() {
    let dir = std::env::temp_dir().join(format!("mim-core-flush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("barrier").to_string_lossy().into_owned();
    let u = universe(2);
    {
        let base = base.clone();
        u.launch(move |rank| {
            let world = rank.comm_world();
            let mon = Monitoring::init(rank).unwrap();
            let id = mon.start(rank, &world).unwrap();
            if world.rank() == 0 {
                rank.send(&world, 1, 0, &[1u8; 77]);
            } else {
                rank.recv::<u8>(&world, SrcSel::Any, TagSel::Any);
            }
            rank.barrier(&world);
            mon.suspend(id).unwrap();
            mon.flush(id, &base, Flags::P2P_ONLY).unwrap();
            mon.rootflush(rank, id, 0, &base, Flags::P2P_ONLY).unwrap();
            mon.free(id).unwrap();
            mon.finalize(rank).unwrap();
        });
    }
    let rank0 = std::fs::read_to_string(format!("{base}.0.prof")).unwrap();
    assert!(rank0.contains("0 1 1 77"), "rank 0 row file: {rank0}");
    let counts = std::fs::read_to_string(format!("{base}_counts.0.prof")).unwrap();
    assert_eq!(counts, "0,1\n0,0\n");
    let sizes = std::fs::read_to_string(format!("{base}_sizes.0.prof")).unwrap();
    assert_eq!(sizes, "0,77\n0,0\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_msid_suspends_everything() {
    let u = universe(2);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let a = mon.start(rank, &world).unwrap();
        let b = mon.start(rank, &world).unwrap();
        mon.suspend(Msid::ALL).unwrap();
        // Both suspended: data accessible on each.
        mon.get_data(a, Flags::ALL_COMM).unwrap();
        mon.get_data(b, Flags::ALL_COMM).unwrap();
        // ALL resume, then ALL suspend again — idempotent across mixes.
        mon.resume(a).unwrap();
        mon.suspend(Msid::ALL).unwrap();
        mon.free(Msid::ALL).unwrap();
        assert_eq!(mon.get_data(a, Flags::ALL_COMM).err(), Some(MonError::InvalidMsid));
        mon.finalize(rank).unwrap();
    });
}

/// The equivalence harness behind the `props!` below: run one seeded
/// workload on one topology under one executor and assert that the tree
/// gather and the star oracle produce bit-identical matrices for every flag
/// selection.
fn check_equivalence(
    machine: Machine,
    placement: Placement,
    n: usize,
    kind: ExecutorKind,
    events: Vec<(usize, usize, u64)>,
    bcast_root: usize,
    gather_root: usize,
) {
    let cfg = UniverseConfig::new(machine, placement).with_executor(kind);
    Universe::new(cfg).launch(move |rank| {
        let world = rank.comm_world();
        let me = world.rank();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();

        // Seeded workload covering all three kinds: random matched p2p
        // pairs, a broadcast + barrier, and a one-sided put.
        for &(src, dst, bytes) in &events {
            if me == src {
                rank.send(&world, dst, 7, &vec![0u8; bytes as usize]);
            } else if me == dst {
                rank.recv::<u8>(&world, SrcSel::Rank(src), TagSel::Is(7));
            }
        }
        let mut payload = if me == bcast_root { vec![3u8; 257] } else { Vec::new() };
        rank.bcast(&world, bcast_root, &mut payload);
        let win = rank.win_create(&world, vec![0u8; 64]);
        if me == bcast_root {
            rank.put(&win, (me + 1) % n, 0, &[9u8; 48]);
        }
        rank.fence(&win);

        mon.suspend(id).unwrap();
        for flags in [Flags::P2P_ONLY, Flags::COLL_ONLY, Flags::OSC_ONLY, Flags::ALL_COMM] {
            // The star gather of dense rows is the seed oracle; the tree
            // gather of sparse rows reproduces it bit for bit.
            let oracle = mon.rootgather_data_star(rank, id, gather_root, flags).unwrap();
            let tree = mon.rootgather_data(rank, id, gather_root, flags).unwrap();
            assert_eq!(tree, oracle, "tree vs star");
            assert_eq!(oracle.is_some(), me == gather_root);
        }

        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
        rank.win_free(win);
    });
}

props! {
    /// Tree and star gathers are bit-identical across 3 machine topologies
    /// and both executors, on a random workload per case (3 cases ≙ 3
    /// seeds; replay with MIM_PROP_SEED).
    fn monitoring_equivalence_across_topologies_and_executors(g, cases = 3) {
        // (machine, placement, n): two packed clusters of different shape
        // and awkward size, plus a cyclic placement that splits every
        // communicator across nodes.
        let tree = TopologyTree::new(vec![2, 1, 8]);
        let topologies = [
            (Machine::cluster(2, 2, 4), Placement::packed(8), 8),
            (Machine::cluster(4, 1, 4), Placement::packed(13), 13),
            (Machine::cluster(2, 1, 8), Placement::cyclic_by_level(&tree, 8, 1), 8),
        ];
        for (machine, placement, n) in topologies {
            let events: Vec<(usize, usize, u64)> = g.vec(1..24, |g| {
                let src = g.index(n);
                let mut dst = g.index(n);
                if dst == src {
                    dst = (dst + 1) % n;
                }
                (src, dst, g.gen_range(0u64..2048))
            });
            let bcast_root = g.index(n);
            let gather_root = g.index(n);
            for kind in [ExecutorKind::Threads, ExecutorKind::Tasks] {
                if kind == ExecutorKind::Tasks && !mim_util::fiber::SUPPORTED {
                    continue;
                }
                check_equivalence(
                    machine.clone(),
                    placement.clone(),
                    n,
                    kind,
                    events.clone(),
                    bcast_root,
                    gather_root,
                );
            }
        }
    }
}

const FLAG_SETS: [Flags; 4] = [Flags::P2P_ONLY, Flags::COLL_ONLY, Flags::OSC_ONLY, Flags::ALL_COMM];

/// A session and the [`MemberMapOracle`] watching the same communicator
/// side by side: the oracle is fed from a second PML hook registered right
/// after `start` and removed right after `suspend`, so both see exactly the
/// same events.
struct Watched {
    mon: Monitoring,
    id: Msid,
    oracle: Rc<RefCell<MemberMapOracle>>,
    hook: mim_mpisim::pml::LocalHookHandle,
}

impl Watched {
    fn start(rank: &Rank, comm: &Comm) -> Self {
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, comm).unwrap();
        let oracle = Rc::new(RefCell::new(MemberMapOracle::new(comm)));
        let feed = Rc::clone(&oracle);
        let hook = rank.add_local_hook(Rc::new(move |ev: &PmlEvent| feed.borrow_mut().record(ev)));
        Self { mon, id, oracle, hook }
    }

    fn rebind(&self, old: &Comm, new: &Comm) {
        self.mon.rebind_session(self.id, new).unwrap();
        self.oracle.borrow_mut().rebind(old, new);
    }

    /// Require the open-window counters to equal the oracle's, then seal
    /// the window on both sides and require equal deltas.
    fn seal_and_compare(&self, rank: &Rank) {
        let c = self.mon.trace_counters(rank, self.id).unwrap();
        let who = format!("rank {}", rank.world_rank());
        assert_eq!((c.window_events, c.window_bytes), self.oracle.borrow().open_window(), "{who}");
        let d = self.mon.advance_window(self.id).unwrap();
        assert_eq!((d.entries, d.events, d.bytes), self.oracle.borrow_mut().advance(), "{who}");
    }

    /// Suspend, stop the oracle, and require the session's row to equal the
    /// oracle's under every flag selection; returns those rows.
    fn suspend_and_compare(&self, rank: &Rank) -> Vec<(Vec<u64>, Vec<u64>)> {
        self.mon.suspend(self.id).unwrap();
        assert!(rank.remove_local_hook(self.hook));
        FLAG_SETS
            .iter()
            .map(|&flags| {
                let row = self.mon.get_data(self.id, flags).unwrap();
                let want = self.oracle.borrow().row(flags);
                assert_eq!((row.counts, row.sizes), want, "rank {} {flags:?}", rank.world_rank());
                want
            })
            .collect()
    }

    fn finish(self, rank: &Rank) {
        self.mon.free(self.id).unwrap();
        self.mon.finalize(rank).unwrap();
    }
}

/// Seeded traffic of all three kinds, carried by `world` whatever the
/// session watches: matched p2p pairs, a broadcast, a one-sided put, and —
/// where the caller holds one — an allreduce on the session's communicator.
fn mixed_traffic(
    rank: &Rank,
    world: &Comm,
    session_comm: Option<&Comm>,
    events: &[(usize, usize, u64)],
    root: usize,
) {
    let me = world.rank();
    for &(src, dst, bytes) in events {
        if me == src {
            rank.send(world, dst, 7, &vec![0u8; bytes as usize]);
        } else if me == dst {
            rank.recv::<u8>(world, SrcSel::Rank(src), TagSel::Is(7));
        }
    }
    let mut payload = if me == root { vec![3u8; 129] } else { Vec::new() };
    rank.bcast(world, root, &mut payload);
    let win = rank.win_create(world, vec![0u8; 64]);
    rank.put(&win, (me + root + 1) % world.size(), 0, &[9u8; 24]);
    rank.fence(&win);
    rank.win_free(win);
    if let Some(comm) = session_comm {
        rank.allreduce(comm, &[me as u64], |a, b| a + b);
    }
}

props! {
    /// The communicator's shared index filters and remaps exactly like the
    /// per-session `HashMap` it replaced: sessions on (a) world, (b) a
    /// permuted split of world, (c) the even/odd halves with cross traffic
    /// on world, and (d) world rebound across a shrink and a re-grow all
    /// yield the oracle's matrices, for every flag selection; (d) also
    /// yields the oracle's sealed windows and open-window counters.
    fn sessions_match_the_member_map_oracle(g, cases = 6) {
        let n = g.gen_range(4usize..13);
        let pairs = |g: &mut mim_util::prop::Gen| -> Vec<(usize, usize, u64)> {
            g.vec(1..20, |g| {
                let src = g.index(n);
                (src, (src + 1 + g.index(n - 1)) % n, g.gen_range(0u64..512))
            })
        };
        let events = [pairs(g), pairs(g), pairs(g)];
        let root = g.index(n);
        let perm = g.permutation(n);
        let alive: Vec<bool> = (0..n).map(|_| g.gen_bool(0.7)).collect();
        let joiners: Vec<usize> = (0..n).filter(|&r| !alive[r] && g.any_bool()).collect();

        // (a)–(c): one session per rank, matrices allgathered.
        for scenario in 0..3 {
            let (events, perm) = (events[0].clone(), perm.clone());
            let reports = universe(n).launch(move |rank| {
                let world = rank.comm_world();
                let me = world.rank();
                let comm = match scenario {
                    0 => world.clone(),
                    1 => rank.comm_split(&world, 0, perm[me] as i64),
                    _ => rank.comm_split(&world, (me % 2) as i64, me as i64),
                };
                let w = Watched::start(rank, &comm);
                mixed_traffic(rank, &world, Some(&comm), &events, root);
                let rows = w.suspend_and_compare(rank);
                let mats: Vec<_> = FLAG_SETS
                    .iter()
                    .map(|&f| w.mon.allgather_data(rank, w.id, f).unwrap())
                    .collect();
                w.finish(rank);
                (comm.group().to_vec(), rows, mats)
            });
            for (group, _, mats) in &reports {
                for (f, mat) in mats.iter().enumerate() {
                    for (i, &member) in group.iter().enumerate() {
                        let (counts, sizes) = &reports[member].1[f];
                        let dense_row =
                            |m: &CommMatrix| (0..group.len()).map(|j| m.get(i, j)).collect::<Vec<_>>();
                        assert_eq!(&dense_row(&mat.counts), counts, "scenario {scenario} flags {f}");
                        assert_eq!(&dense_row(&mat.sizes), sizes, "scenario {scenario} flags {f}");
                    }
                }
            }
        }

        // (d): survivors rebind to the shrunk, then to the re-grown
        // communicator (both derived locally); the dropped ranks keep
        // talking on world, so the sessions see traffic toward departed
        // members, then toward re-admitted ones.  A window is sealed after
        // each phase, so the marks cross both rebinds.
        universe(n).launch(move |rank| {
            let world = rank.comm_world();
            let survivor = alive[world.rank()];
            let w = Watched::start(rank, &world);
            mixed_traffic(rank, &world, None, &events[0], root);
            w.seal_and_compare(rank);
            let mut comm = world.clone();
            if survivor {
                let shrunk = rank.comm_shrink(&comm, &alive);
                w.rebind(&comm, &shrunk);
                comm = shrunk;
            }
            mixed_traffic(rank, &world, survivor.then_some(&comm), &events[1], root);
            w.seal_and_compare(rank);
            if survivor && !joiners.is_empty() {
                let grown = rank.comm_grow(&comm, &joiners);
                w.rebind(&comm, &grown);
            }
            mixed_traffic(rank, &world, None, &events[2], root);
            w.seal_and_compare(rank);
            w.suspend_and_compare(rank);
            w.finish(rank);
        });
    }
}

#[test]
fn live_window_queries_need_no_suspend() {
    // Acceptance: trace_counters and gather_window work on an ACTIVE
    // session; windows partition traffic; totals keep accumulating.
    let u = universe(4);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();

        send_one(rank, 100);
        let live = mon.trace_counters(rank, id).unwrap();
        assert_eq!(live.epoch, 0);
        if world.rank() == 0 {
            assert_eq!(live.window_bytes, 100, "live counters see the open window");
        }

        let w1 = mon.gather_window(rank, id, 0, Flags::P2P_ONLY).unwrap();
        assert_eq!(w1.epoch, 1, "every rank learns its sealed epoch");
        if world.rank() == 0 {
            let data = w1.data.expect("root receives the window matrices");
            assert_eq!(data.sizes.get(0, 1), 100);
            assert_eq!(data.sizes.total(), 100);
        } else {
            assert!(w1.data.is_none());
        }

        // Second window: only the new traffic, not a re-count of the first.
        send_one(rank, 40);
        let w2 = mon.gather_window(rank, id, 0, Flags::P2P_ONLY).unwrap();
        assert_eq!(w2.epoch, 2);
        if world.rank() == 0 {
            assert_eq!(w2.data.expect("root").sizes.total(), 40);
        }

        // The session never left the ACTIVE state: suspended-only accessors
        // still refuse, and totals cover both windows.
        assert_eq!(mon.get_data(id, Flags::ALL_COMM).err(), Some(MonError::SessionNotSuspended));
        let c = mon.trace_counters(rank, id).unwrap();
        assert_eq!(c.epoch, 2);
        if world.rank() == 0 {
            assert_eq!(c.bytes, 140, "totals span all windows; gather traffic muted");
        }

        mon.suspend(id).unwrap();
        if world.rank() == 0 {
            assert_eq!(mon.get_data(id, Flags::P2P_ONLY).unwrap().sizes[1], 140);
        }
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

#[test]
fn get_info_reports_comm_size() {
    let u = universe(4);
    u.launch(|rank| {
        let world = rank.comm_world();
        let mon = Monitoring::init(rank).unwrap();
        let id = mon.start(rank, &world).unwrap();
        let info = mon.get_info(id).unwrap();
        assert_eq!(info.array_size, 4);
        assert_eq!(info.provided, 3);
        mon.suspend(id).unwrap();
        mon.free(id).unwrap();
        mon.finalize(rank).unwrap();
    });
}

/// The gather order as every rank sorted it for itself before the order
/// was shared: communicator ranks by `(node, core, rank)`, root first.
fn per_rank_topology_order(rank: &Rank, comm: &Comm, root: usize) -> Vec<usize> {
    let (machine, placement) = (rank.machine(), rank.placement());
    let mut order: Vec<usize> = (0..comm.size()).collect();
    order.sort_by_key(|&r| {
        let core = placement.core_of(comm.world_rank_of(r));
        (r != root, machine.node_of_core(core), core, r)
    });
    order
}

props! {
    /// The shared gather order equals the per-rank sort it replaced, on the
    /// world and on a split, for every root — and every member of a
    /// communicator holds the same copy.
    fn shared_gather_order_equals_the_per_rank_sort(g, cases = 8) {
        let machine = Machine::cluster(3, 2, 4);
        let n = g.gen_range(2usize..=machine.num_cores());
        let placement = Placement::random(&machine.tree, n, g.any_u64());
        let colors = g.gen_range(1usize..4);
        let u = Universe::new(UniverseConfig::new(machine, placement));
        let copies = u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank();
            let sub = rank.comm_split(&world, (me % colors) as i64, -(me as i64));
            for comm in [&world, &sub] {
                for root in 0..comm.size() {
                    let order = rank.topology_order(comm, root);
                    assert_eq!(order[..], per_rank_topology_order(rank, comm, root)[..]);
                }
            }
            rank.barrier(&world);
            let addr = |comm: &Comm| Arc::as_ptr(&rank.topology_order(comm, 0)).cast::<usize>() as usize;
            (me % colors, addr(&world), addr(&sub))
        });
        for (color, world_copy, sub_copy) in &copies {
            assert_eq!(*world_copy, copies[0].1, "one world order");
            let first = copies.iter().find(|c| c.0 == *color).unwrap();
            assert_eq!(*sub_copy, first.2, "one order per split group");
        }
    }
}
