//! The fault plan end to end, one module per property: exactly-once
//! delivery under drops and duplicates, the invisibility of a null plan,
//! and a fixed-seed plan's replay across the two rank engines.

mod dedup_exactly_once {
    //! End-to-end exactly-once delivery: under a plan that both drops and
    //! duplicates transmissions, the retry loop (sender side) plus wire-level
    //! sequence dedup (receiver side) must hand the application *exactly* the
    //! payload stream of a fault-free run — per (src, dst, tag): same message
    //! count, same bytes, same values, same order.  Virtual clocks are NOT
    //! compared (faults legitimately cost time); only delivered data is.

    use std::collections::BTreeMap;

    use mim_mpisim::{FaultPlan, SrcSel, TagSel, Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};

    const N: usize = 6;
    const MSGS_PER_PAIR: u64 = 3;

    /// Delivered stream at one rank: (src, tag) -> ordered payload vectors.
    type Delivered = BTreeMap<(usize, u32), Vec<Vec<u64>>>;

    fn topology(t: usize) -> (Machine, Placement) {
        match t {
            0 => (Machine::cluster(1, 1, 8), Placement::packed(N)), // one node
            1 => (Machine::cluster(2, 2, 2), Placement::packed(N)), // 2 nodes, 2 sockets
            _ => (Machine::cluster(3, 1, 4), Placement::packed(N)), // 3 nodes
        }
    }

    /// All-pairs traffic with value-carrying payloads, then collect what each
    /// rank actually received.
    fn run(topo: usize, injector: Option<FaultPlan>) -> Vec<Delivered> {
        let (machine, placement) = topology(topo);
        let mut cfg = UniverseConfig::new(machine, placement);
        if let Some(i) = injector {
            cfg = cfg.with_injector(i);
        }
        Universe::new(cfg).launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank();
            for t in 0..MSGS_PER_PAIR as u32 {
                for dst in (0..N).filter(|&d| d != me) {
                    let payload =
                        vec![me as u64 * 1000 + dst as u64 * 10 + u64::from(t), u64::from(t) * 7];
                    rank.send(&world, dst, t, &payload);
                }
            }
            let mut got = Delivered::new();
            for t in 0..MSGS_PER_PAIR as u32 {
                for src in (0..N).filter(|&s| s != me) {
                    let (v, st) = rank.recv::<u64>(&world, SrcSel::Rank(src), TagSel::Is(t));
                    assert_eq!(st.bytes, 16);
                    got.entry((src, t)).or_default().push(v);
                }
            }
            got
        })
    }

    #[test]
    fn drop_and_dup_faults_preserve_exactly_once_delivery() {
        for topo in 0..3 {
            let clean = run(topo, None);
            for seed in [1u64, 42, 0xDEAD_BEEF] {
                let plan = FaultPlan::new(seed).drop_p(0.15).dup_p(0.15);
                let faulty = run(topo, Some(plan));
                assert_eq!(
                    clean, faulty,
                    "delivered streams diverged (topology {topo}, seed {seed:#x})"
                );
            }
        }
    }

    #[test]
    fn degraded_links_slow_but_do_not_corrupt() {
        let plan = FaultPlan::new(7).degrade_link(0, 1, 0.25);
        let clean = run(0, None);
        let degraded = run(0, Some(plan));
        assert_eq!(clean, degraded, "bandwidth degradation must not alter data");
    }
}

mod null_chaos {
    //! The null-chaos property: installing a zero-probability [`FaultPlan`]
    //! must leave the simulation *bit-identical* to running with no injector
    //! at all — same monitoring matrices, same virtual completion times, same
    //! trace events.  This is what makes chaos runs trustworthy: the
    //! instrumentation itself is provably free of observable side effects, so
    //! any divergence under a live plan is the plan's doing.

    use std::sync::Arc;

    use mim_core::{Flags, GatheredData, Monitoring};
    use mim_mpisim::trace::{TraceDigest, Tracer};
    use mim_mpisim::{FaultPlan, SrcSel, TagSel, Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};
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
            cfg = cfg.with_injector(p);
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
}

mod executor_tasks_mode {
    //! Chaos under the M:N executor: retry/backoff timers, duplicate delivery
    //! and scheduled crashes all run on parked *tasks*, and a fixed-seed plan
    //! must produce the same delivered data and the same virtual-time outcomes
    //! as the same plan under thread-per-rank.

    use std::collections::BTreeMap;

    use mim_mpisim::{ExecutorKind, FaultPlan, RankFailure, Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};

    const N: usize = 6;

    /// Per-rank observables of a faulty run: delivered payload streams, retry
    /// count, and the completion clock (bit-exact).
    type Outcome = Vec<Result<(BTreeMap<(usize, u32), Vec<u64>>, u64, u64), RankFailure>>;

    fn run(kind: ExecutorKind, seed: u64) -> Outcome {
        let plan =
            FaultPlan::new(seed).drop_p(0.2).dup_p(0.15).delay(0.2, 40_000.0).crash_at_ops(4, 9);
        let mut cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(N));
        cfg.executor = kind;
        cfg = cfg.with_injector(plan);
        Universe::new(cfg).launch_faulty(|rank| {
            let world = rank.comm_world();
            let me = world.rank();
            for t in 0..3u32 {
                for dst in (0..N).filter(|&d| d != me) {
                    rank.send(&world, dst, t, &[me as u64 * 100 + u64::from(t)]);
                }
            }
            let mut got = BTreeMap::new();
            for t in 0..3u32 {
                for src in (0..N).filter(|&s| s != me) {
                    // Rank 4 crashes mid-run: survivors use the recoverable
                    // receive so a missing message is data, not a deadlock.
                    if let Ok((v, _st)) = rank.recv_or_failure::<u64>(&world, src, t) {
                        got.insert((src, t), v);
                    }
                }
            }
            (got, rank.retry_count(), rank.now_ns().to_bits())
        })
    }

    #[test]
    fn fixed_seed_chaos_replays_identically_across_engines() {
        for seed in [11u64, 42] {
            let threads = run(ExecutorKind::Threads, seed);
            let tasks = run(ExecutorKind::Tasks, seed);
            assert_eq!(threads.len(), tasks.len());
            for (w, (t, k)) in threads.iter().zip(&tasks).enumerate() {
                assert_eq!(t, k, "rank {w} diverged across engines (seed {seed})");
            }
            // The plan actually fired: the crashed rank failed, someone retried.
            assert!(matches!(threads[4], Err(RankFailure::Crashed { .. })));
            let retries: u64 = threads.iter().filter_map(|r| r.as_ref().ok()).map(|o| o.1).sum();
            assert!(retries > 0, "drop plan produced no retries (seed {seed})");
        }
    }
}
