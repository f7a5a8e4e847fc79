//! Property-based tests for the message-passing runtime.

use mim_core::{Flags, Monitoring};
use mim_mpisim::trace::{TraceData, Tracer};
use mim_mpisim::{schedule, Scalar, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};
use mim_util::props;

props! {
    fn scalar_roundtrip_f64(g) {
        let v = g.vec(0..50, |g| g.any_f64());
        let back = f64::from_bytes(&f64::to_bytes(&v));
        assert_eq!(back.len(), v.len());
        for (a, b) in back.iter().zip(&v) {
            assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    }

    fn scalar_roundtrip_i32(g) {
        let v = g.vec(0..50, |g| g.any_i32());
        assert_eq!(i32::from_bytes(&i32::to_bytes(&v)), v);
    }

    fn scalar_roundtrip_u64(g) {
        let v = g.vec(0..50, |g| g.any_u64());
        assert_eq!(u64::from_bytes(&u64::to_bytes(&v)), v);
    }

    fn schedules_validate_for_any_shape(g) {
        let n = g.gen_range(1usize..24);
        let root = g.index(n);
        let bytes = g.gen_range(0u64..1_000_000);
        for s in [
            schedule::bcast_binomial(n, root, bytes),
            schedule::bcast_binary(n, root, bytes),
            schedule::reduce_binomial(n, root, bytes),
            schedule::reduce_binary(n, root, bytes),
            schedule::allgather_ring(n, bytes),
            schedule::allgather_bruck(n, bytes),
            schedule::barrier_dissemination(n),
            schedule::allreduce_recursive_doubling(n, bytes),
        ] {
            // The replaying validator must accept every generator, and its
            // per-channel report must agree with the message multiset.
            s.validate().unwrap();
            let totals = s.analyze().channels;
            assert_eq!(
                totals.iter().map(|t| t.messages as usize).sum::<usize>(),
                s.total_messages()
            );
            assert_eq!(totals.iter().map(|t| t.bytes).sum::<u64>(), s.total_bytes());
            let mut from_multiset: std::collections::HashMap<(usize, usize), (u64, u64)> =
                std::collections::HashMap::new();
            for (src, dst, b) in s.message_multiset() {
                let e = from_multiset.entry((src, dst)).or_default();
                e.0 += 1;
                e.1 += b;
            }
            for t in &totals {
                assert_eq!(from_multiset.get(&(t.src, t.dst)), Some(&(t.messages, t.bytes)));
            }
        }
        assert_eq!(schedule::bcast_binomial(n, root, bytes).total_messages(), n - 1);
        assert_eq!(schedule::reduce_binary(n, root, bytes).total_messages(), n - 1);
    }

    fn contended_evaluation_never_faster(g) {
        let n = g.gen_range(2usize..12);
        let bytes = g.gen_range(1u64..2_000_000);
        // Adding NIC contention can only delay completions.
        let machine = Machine::cluster(2, 1, 8);
        let cores: Vec<usize> = (0..n).map(|r| (r % 2) * 8 + r / 2).collect();
        let s = schedule::allgather_ring(n, bytes);
        let free = schedule::simulate(&s, &machine, &cores, false);
        let cont = schedule::simulate(&s, &machine, &cores, true);
        for (f, c) in free.iter().zip(&cont) {
            assert!(c >= f, "contention made a rank faster: {c} < {f}");
        }
    }
}

// Thread-spawning cases are kept few but still property-driven.
props! {
    fn evaluator_matches_live_runtime(g, cases = 12) {
        let n = g.gen_range(2usize..8);
        let bytes = g.gen_range(0u64..100_000);
        let root = g.index(n);
        let machine = Machine::cluster(2, 2, 2);
        let placement = Placement::packed(n);
        let cores: Vec<usize> = (0..n).map(|r| placement.core_of(r)).collect();
        for sched in [
            schedule::bcast_binomial(n, root, bytes),
            schedule::reduce_binary(n, root, bytes),
            schedule::allgather_ring(n, bytes),
            schedule::allgather_bruck(n, bytes),
        ] {
            let expect = schedule::simulate(&sched, &machine, &cores, false);
            let machine2 = machine.clone();
            let u = Universe::new(UniverseConfig::new(machine2, Placement::packed(n)));
            let got = u.launch(|rank| {
                let world = rank.comm_world();
                schedule::execute(rank, &world, &sched);
                rank.now_ns()
            });
            for r in 0..n {
                assert!((got[r] - expect[r]).abs() < 1e-6,
                    "rank {r}: live {} vs analytic {}", got[r], expect[r]);
            }
        }
    }

    fn per_channel_fifo_is_preserved(g, cases = 12) {
        // Rank 0 sends a numbered sequence with arbitrary tags; rank 1
        // receives with ANY_TAG and must see the numbers in order.
        let tags = g.vec(1..20, |g| g.gen_range(0u32..3));
        let count = tags.len();
        let u = Universe::new(UniverseConfig::new(Machine::cluster(1, 1, 2), Placement::packed(2)));
        let ok = u.launch(move |rank| {
            let world = rank.comm_world();
            if world.rank() == 0 {
                for (i, &t) in tags.iter().enumerate() {
                    rank.send(&world, 1, t, &[i as u64]);
                }
                true
            } else {
                let mut last = None;
                for _ in 0..count {
                    let (v, _) = rank.recv::<u64>(&world, SrcSel::Rank(0), TagSel::Any);
                    if let Some(prev) = last {
                        if v[0] != prev + 1 {
                            return false;
                        }
                    } else if v[0] != 0 {
                        return false;
                    }
                    last = Some(v[0]);
                }
                true
            }
        });
        assert!(ok.iter().all(|&b| b));
    }

    fn collectives_correct_on_random_subcomm(g, cases = 12) {
        // Split the world by arbitrary colors and keys (ties included) and
        // allreduce within each part.
        let n = g.gen_range(2usize..10);
        let colors: Vec<i64> = (0..n).map(|_| g.gen_range(0i64..2)).collect();
        let keys: Vec<i64> = (0..n).map(|_| g.gen_range(-2i64..3)).collect();
        let (colors2, keys2) = (colors.clone(), keys.clone());
        let u = Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 8), Placement::packed(n)));
        let subs = u.launch(move |rank| {
            let world = rank.comm_world();
            let me = world.rank();
            let sub = rank.comm_split(&world, colors2[me], keys2[me]);
            let sum = rank.allreduce(&sub, &[me as u64], |a, b| a + b)[0];
            let expect: u64 = (0..n).filter(|&r| colors2[r] == colors2[me]).map(|r| r as u64).sum();
            assert_eq!(sum, expect);
            (sub.id(), sub.group().to_vec(), sub.rank())
        });
        // Against a directly computed expectation: members ordered by
        // (key, parent rank), one id per color, distinct across colors.
        for (me, (id, group, my_rank)) in subs.iter().enumerate() {
            let mut expect: Vec<usize> = (0..n).filter(|&r| colors[r] == colors[me]).collect();
            expect.sort_by_key(|&r| (keys[r], r));
            assert_eq!(group, &expect, "rank {me}");
            assert_eq!(group[*my_rank], me);
            for (other, (other_id, ..)) in subs.iter().enumerate() {
                assert_eq!(id == other_id, colors[me] == colors[other], "ranks {me}/{other}");
            }
        }
    }
}

props! {
    /// The flight-recorder trace and the monitoring library observe the same
    /// wire events: for a random workload mixing point-to-point, collective
    /// and one-sided traffic, the per-pair message counts and byte totals
    /// reconstructed from the trace rings (between each rank's session
    /// `start` and `suspend` markers) equal the matrices produced by
    /// `rootgather_data`, for every `Flags` selection.
    fn trace_totals_match_monitoring_matrices(g, cases = 6) {
        let n = g.gen_range(2usize..6);
        // Random point-to-point traffic: (src, dst, bytes), executed in
        // program order by every rank (sends are eager, so this cannot
        // deadlock regardless of the generated order).
        let p2p: Vec<(usize, usize, usize)> = g.vec(0..8, |g| {
            let src = g.index(n);
            let dst = g.index(n);
            (src, dst, g.gen_range(0usize..300))
        });
        let bcast_root = g.index(n);
        let bcast_len = g.gen_range(0usize..200);
        let reduce_len = g.gen_range(1usize..8);
        // One-sided epoch: every rank puts a random amount into a random
        // target window.
        let osc: Vec<(usize, usize)> = (0..n).map(|_| (g.index(n), g.gen_range(0usize..64))).collect();

        const FLAG_SETS: [Flags; 4] =
            [Flags::P2P_ONLY, Flags::COLL_ONLY, Flags::OSC_ONLY, Flags::ALL_COMM];
        let tracer = Tracer::new(1 << 14); // deep rings: nothing may drop
        let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 8), Placement::packed(n));
        cfg.tracer = Some(tracer.clone());
        let (p2p2, osc2) = (p2p.clone(), osc.clone());
        let gathered = Universe::new(cfg).launch(move |rank| {
            let world = rank.comm_world();
            let me = world.rank();
            let mon = Monitoring::init(rank).unwrap();
            let msid = mon.start(rank, &world).unwrap();
            for &(src, dst, len) in &p2p2 {
                if me == src {
                    rank.send(&world, dst, 7, &vec![0u8; len]);
                }
                if me == dst {
                    rank.recv::<u8>(&world, SrcSel::Rank(src), TagSel::Is(7));
                }
            }
            let mut data = if me == bcast_root { vec![1u8; bcast_len] } else { vec![] };
            rank.bcast(&world, bcast_root, &mut data);
            rank.allreduce(&world, &vec![me as u64; reduce_len], |a, b| a + b);
            let win = rank.win_create(&world, vec![0u8; 64]);
            let (target, len) = osc2[me];
            rank.put(&win, target, 0, &vec![0u8; len]);
            rank.fence(&win);
            rank.win_free(win);
            mon.suspend(msid).unwrap();
            let out: Vec<_> = FLAG_SETS
                .iter()
                .map(|&f| mon.rootgather_data(rank, msid, 0, f).unwrap())
                .collect();
            mon.free(msid).unwrap();
            mon.finalize(rank).unwrap();
            out
        });

        // Reconstruct per-(src, dst, kind) totals from the trace rings: on
        // each rank's track, every `send` between that rank's session start
        // and suspend markers is traffic the session observed.
        let mut totals: std::collections::HashMap<(usize, usize, &'static str), (u64, u64)> =
            std::collections::HashMap::new();
        for (track, events) in tracer.snapshot() {
            let Some(src) = track.strip_prefix("rank").and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            let mut watching = false;
            for ev in &events {
                match ev.data {
                    TraceData::Session { action: "start", .. } => watching = true,
                    TraceData::Session { action: "suspend", .. } => watching = false,
                    TraceData::Send { dst, bytes, kind, .. } if watching => {
                        let e = totals.entry((src, dst, kind)).or_default();
                        e.0 += 1;
                        e.1 += bytes;
                    }
                    _ => {}
                }
            }
        }
        let kinds_of = |f: Flags| -> Vec<&'static str> {
            let mut k = vec![];
            if f.contains(Flags::P2P_ONLY) { k.push("p2p"); }
            if f.contains(Flags::COLL_ONLY) { k.push("coll"); }
            if f.contains(Flags::OSC_ONLY) { k.push("osc"); }
            k
        };
        for (fi, &flags) in FLAG_SETS.iter().enumerate() {
            let data = gathered[0][fi].as_ref().expect("root 0 receives the matrices");
            for s in 0..n {
                for d in 0..n {
                    let (mut count, mut bytes) = (0u64, 0u64);
                    for kind in kinds_of(flags) {
                        if let Some(&(c, b)) = totals.get(&(s, d, kind)) {
                            count += c;
                            bytes += b;
                        }
                    }
                    assert_eq!(data.counts.get(s, d), count,
                        "count mismatch {s}->{d} under {flags:?}");
                    assert_eq!(data.sizes.get(s, d), bytes,
                        "bytes mismatch {s}->{d} under {flags:?}");
                }
            }
        }
    }
}
