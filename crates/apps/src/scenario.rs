//! The example programs' bodies, as functions a test can run.
//!
//! Each scenario takes what a determinism test varies — the rank engine,
//! the tracer and, for the two chaos scenarios, the fault plan — and
//! returns the text its example prints.  The examples under `examples/`
//! are thin `main`s that pass `ExecutorKind::from_env()`,
//! `Tracer::global()` and [`chaos_from_env`]; the tests in
//! `crates/apps/tests/determinism.rs` run the same functions on both
//! engines and several worker counts and compare the text and the
//! [`TraceDigest`](mim_mpisim::trace::TraceDigest).
//!
//! The scenarios built on the built-in fault plans assert that plan's
//! contract (who crashes, who survives, what recovers) and panic when it
//! does not hold.

use std::fmt::Write as _;
use std::sync::Arc;

use mim_core::{Flags, Monitoring, Msid};
use mim_mpisim::trace::Tracer;
use mim_mpisim::{
    Comm, ExecStats, ExecutorKind, FaultPlan, Rank, RankFailure, StaleEpoch, Universe,
    UniverseConfig,
};
use mim_reorder::{monitored_reorder, monitored_reorder_resilient, ReorderFallback};
use mim_topology::{Machine, Placement};
use mim_util::env_u64;

use crate::output::fmt_ns;
use crate::stencil::{run_stencil, StencilConfig};

/// What one scenario run shows.
#[derive(Debug)]
pub struct Transcript {
    /// What the example prints on stdout.
    pub text: String,
    /// The tasks engine's counters: `Some` iff every universe the scenario
    /// built ran on it (see `Universe::exec_stats`; the last universe's
    /// counters).  A tasks run that fell back to threads has `None`.
    pub exec_stats: Option<ExecStats>,
}

/// A universe on `exec`, tracing to `tracer`.
fn universe(cfg: UniverseConfig, exec: ExecutorKind, tracer: Option<Arc<Tracer>>) -> Universe {
    let mut cfg = cfg.with_executor(exec);
    cfg.tracer = tracer;
    Universe::new(cfg)
}

/// Monitor a broadcast and print who really talked to whom: start a
/// session, run a collective (which the runtime decomposes into
/// point-to-point messages below the monitoring probe), suspend, and read
/// the per-pair matrices back.
pub fn quickstart(exec: ExecutorKind, tracer: Option<Arc<Tracer>>) -> Transcript {
    // A 2-node machine, 8 ranks packed onto the first cores of each node.
    let machine = Machine::cluster(2, 1, 4);
    let u = universe(UniverseConfig::new(machine, Placement::packed(8)), exec, tracer);

    let matrices = u.launch(|rank| {
        let world = rank.comm_world();
        // MPI_M_init — plug the recorder into the PML layer.
        let mon = Monitoring::init(rank).expect("init monitoring");
        // MPI_M_start — begin watching MPI_COMM_WORLD.
        let session = mon.start(rank, &world).expect("start session");

        // The code under observation: a binomial broadcast of 1 MiB.
        let mut payload = if world.rank() == 0 { vec![7u8; 1 << 20] } else { Vec::new() };
        rank.bcast(&world, 0, &mut payload);
        assert_eq!(payload.len(), 1 << 20);

        // MPI_M_suspend — freeze the session so its data can be read.
        mon.suspend(session).expect("suspend session");
        // MPI_M_allgather_data — everyone receives the full matrices.
        let data =
            mon.allgather_data(rank, session, Flags::COLL_ONLY).expect("gather monitored data");
        mon.free(session).expect("free session");
        mon.finalize(rank).expect("finalize monitoring");
        data
    });

    // Every rank got the same view; print rank 0's.
    let data = &matrices[0];
    let mut out = String::from("message counts (sender row -> receiver column):\n");
    out.push_str(&data.counts.to_csv());
    out.push_str("\nbytes:\n");
    out.push_str(&data.sizes.to_csv());
    let _ = writeln!(
        out,
        "\nA binomial broadcast over 8 ranks used {} point-to-point messages \
         carrying {} bytes total — the decomposition PMPI-level tools cannot see.",
        data.counts.total(),
        data.sizes.total()
    );
    Transcript { text: out, exec_stats: u.exec_stats() }
}

/// A 2-D Jacobi solver on 48 ranks placed cyclically over two nodes, run
/// as is and after monitoring one iteration and reordering with TreeMatch.
pub fn stencil_reorder(exec: ExecutorKind, tracer: Option<Arc<Tracer>>) -> Transcript {
    let run = |reorder: bool| {
        // Wide, shallow blocks: 80 000-column halos (640 KB per exchange)
        // put the pattern in the bandwidth-bound regime where placement
        // matters — with latency-bound halos the iteration pipeline is
        // gated by the single slowest edge, which any mapping has.
        let cfg = StencilConfig { rows: 24, cols: 80_000, prows: 6, pcols: 8, iters: 100 };
        let n = cfg.prows * cfg.pcols; // 48 ranks
        let machine = Machine::plafrim(2);
        let placement = Placement::cyclic_by_level(&machine.tree, n, machine.node_level);
        let u = universe(UniverseConfig::new(machine, placement), exec, tracer.clone());
        let stats = u.launch(move |rank| {
            let world = rank.comm_world();
            if !reorder {
                let (_, s) = run_stencil(rank, &world, cfg);
                return (s.checksum, s.total_ns, s.comm_ns);
            }
            let mon = Monitoring::init(rank).expect("monitoring init");
            let warmup = StencilConfig { iters: 1, ..cfg };
            let outcome = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
                run_stencil(rank, comm, warmup);
            });
            let (_, s) = run_stencil(rank, &outcome.comm, cfg);
            mon.finalize(rank).expect("monitoring finalize");
            (s.checksum, s.total_ns + outcome.reorder_cost_ns, s.comm_ns)
        });
        (stats[0], u.exec_stats())
    };
    let ((sum_base, total_base, comm_base), base_stats) = run(false);
    let ((sum_opt, total_opt, comm_opt), opt_stats) = run(true);
    assert_eq!(sum_base, sum_opt, "reordering must not change the physics");
    let (exec_base, exec_opt) = (fmt_ns(total_base), fmt_ns(total_opt));
    let (halo_base, halo_opt) = (fmt_ns(comm_base), fmt_ns(comm_opt));
    let (exec_ratio, halo_ratio) = (total_base / total_opt, comm_base / comm_opt);
    let text = [
        "2-D Jacobi, 24x80000 grid on a 6x8 process grid, 48 ranks cyclic over 2 nodes\n".into(),
        "                checksum    exec time   halo-exchange time".into(),
        format!("no reordering   {sum_base:9.3}   {exec_base:>9}   {halo_base:>9}"),
        format!("with reordering {sum_opt:9.3}   {exec_opt:>9}   {halo_opt:>9}"),
        format!("\nexecution ratio {exec_ratio:.2}   halo-exchange ratio {halo_ratio:.2}"),
        "(identical checksums: only the rank labels moved, not the data)\n".into(),
    ]
    .join("\n");
    Transcript { text, exec_stats: base_stats.and(opt_stats) }
}

/// The fault plan of a chaos scenario.
#[derive(Debug, Clone)]
pub enum Chaos {
    /// The scenario's built-in plan under this seed; the scenario asserts
    /// the plan's contract.
    Builtin(u64),
    /// A plan that replaces the built-in one; no contract is asserted.
    Custom(FaultPlan),
}

/// The chaos scenarios' plan from the environment: `MIM_CHAOS_SEED`
/// (decimal or `0x` hex, default 42) reseeds the built-in plan;
/// `MIM_CHAOS_PLAN` replaces it entirely, under that seed (see
/// `FaultPlan::parse`).  Malformed input panics, naming the value or the
/// offending clause.
pub fn chaos_from_env() -> Chaos {
    let seed = env_u64("MIM_CHAOS_SEED").unwrap_or(42);
    match std::env::var("MIM_CHAOS_PLAN") {
        Ok(plan) => Chaos::Custom(FaultPlan::parse(seed, &plan)),
        Err(_) => Chaos::Builtin(seed),
    }
}

/// One halo exchange on `comm`, tagged `iter`: returns the two halo values
/// (dead or absent neighbours contribute 0.0) and records in
/// `first_failed` the first iteration at which a neighbour was found dead.
fn exchange(
    rank: &Rank,
    comm: &Comm,
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

/// Both chaos scenarios' initial world size.
const N: usize = 8;
/// `chaos_stencil`: iterations inside the reorder loop, then after it.
const ITERS: usize = 6;
const POST_ITERS: usize = 2;
const CRASH_RANK: usize = 3;
/// `Monitoring::start`'s barrier on world + 3 interior iterations x (2
/// sends + 2 receives).
const CRASH_OPS: u64 = barrier_ops(N) + 3 * 4;

/// The wire operations a rank makes in a dissemination barrier over `n`
/// ranks: ⌈log₂ n⌉ rounds of one send and one receive.
const fn barrier_ops(n: usize) -> u64 {
    2 * n.next_power_of_two().trailing_zeros() as u64
}

#[derive(Debug)]
struct ChaosReport {
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

/// A crash-surviving 1-D halo-exchange stencil on 8 ranks inside the
/// self-healing reorder loop (`monitored_reorder_resilient`).  The built-in
/// plan drops and duplicates transmissions (exercising the wire retry +
/// dedup path) and crashes rank 3 at its 18th wire operation — the first
/// op of iteration 3, right after the monitoring barrier (6 ops) plus
/// three 4-op iterations.  Neighbours detect the death through
/// `recv_or_failure`, substitute a zero halo, and finish; the reorder loop
/// then agrees on liveness, shrinks the communicator ULFM-style, rebinds
/// the session onto it, gathers and maps the survivors' matrix, and the 7
/// survivors run more iterations plus an allreduce on the shrunk,
/// reordered communicator.
///
/// The transcript's header names the plan's crash and restart points.
///
/// Not every crash point is survived.  The reorder loop's head — the
/// liveness exchanges and the tree gather — is failure-aware, but its tail
/// (the mapping's `bcast`, `comm_split`'s Bruck allgather, the closing
/// `allreduce`) is made of plain collectives: measured on both engines, a
/// custom `crash=3@ops:N` degrades to 7 survivors for N = 5 … 32, blocks
/// survivors until the deadlock detector fires for N = 33 … 49 (the run
/// then panics with `at least one survivor`), and for N = 50 … 53 ends
/// with one to three survivors reported `DEAD panicked: deadlock`.  Op 54
/// is rank 3's last, a receive no peer waits on; a later point crashes
/// nothing.  The window's ends depend on the victim's place in the
/// collectives' trees, so no op count is refused.
///
/// # Panics
/// A custom plan that crashes a rank before its last send in
/// `Monitoring::start`'s barrier (within its first 2·⌈log₂ 8⌉ − 1 wire
/// operations) is rejected before launch: that barrier is not
/// failure-aware, so the peer owed the missing message would wait for it
/// until the deadline.  So is one that crashes or restarts world rank 0,
/// whose report the transcript's byte matrix comes from.
pub fn chaos_stencil(exec: ExecutorKind, tracer: Option<Arc<Tracer>>, chaos: Chaos) -> Transcript {
    let builtin = matches!(chaos, Chaos::Builtin(_));
    let plan = match chaos {
        Chaos::Custom(plan) => plan,
        Chaos::Builtin(seed) => {
            FaultPlan::new(seed).drop_p(0.1).dup_p(0.05).crash_at_ops(CRASH_RANK, CRASH_OPS)
        }
    };
    // The barrier's last operation is a receive only its own rank waits
    // on: a crash just before it leaves no peer short of a message.
    let last_send = barrier_ops(N) - 1;
    let mut faults = Vec::new();
    for w in 0..N {
        let Some(ops) = plan.crash_point(w) else { continue };
        let key = if plan.restarts(w) { "restart" } else { "crash" };
        if w == 0 {
            panic!(
                "chaos_stencil: the fault plan's `{key}=0@ops:{ops}` clause crashes world rank \
                 0, which this demo needs alive to the end: the transcript prints the \
                 survivors' byte matrix from its report"
            );
        }
        if ops < last_send {
            panic!(
                "chaos_stencil: the fault plan's `{key}={w}@ops:{ops}` clause crashes rank {w} \
                 before its last send in `Monitoring::start`'s barrier (its first {last_send} \
                 wire ops), which is not failure-aware: the peer owed that message would wait \
                 for it until the deadline"
            );
        }
        faults.push(format!("{key} rank {w} at {ops} wire ops"));
    }
    let faults = if faults.is_empty() { "no crash".to_string() } else { faults.join(", ") };
    let seed = plan.seed();

    let machine = Machine::cluster(2, 1, 4);
    let cfg = UniverseConfig::new(machine, Placement::packed(N)).with_injector(plan);
    let u = universe(cfg, exec, tracer);

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

        ChaosReport {
            first_failed,
            retries: rank.retry_count(),
            new_rank: work.rank(),
            shrunk_size: work.size(),
            k: outcome.k,
            alive: outcome.alive.clone(),
            fallback: format!("{:?}", outcome.fallback),
            checksum,
            gathered_csv: outcome.gathered.map(|g| g.sizes.to_csv()),
        }
    });

    let mut out = format!("chaos stencil: {N} ranks, plan seed {seed}, {faults}\n");
    let mut survivor: Option<&ChaosReport> = None;
    for (w, r) in results.iter().enumerate() {
        let _ = match r {
            Ok(rep) => {
                survivor = Some(rep);
                let failed = rep.first_failed.map_or("-".to_string(), |i| i.to_string());
                writeln!(
                    out,
                    "rank {w}: ok   new_rank={} first_failed={failed} retries={} checksum={:.6}",
                    rep.new_rank, rep.retries, rep.checksum
                )
            }
            Err(f) => writeln!(out, "rank {w}: DEAD {f}"),
        };
    }
    let rep = survivor.expect("at least one survivor");
    let _ = writeln!(
        out,
        "survivors: {}/{N}  alive={:?}  fallback={}",
        rep.shrunk_size, rep.alive, rep.fallback
    );
    let root_k = results.iter().flatten().map(|r| &r.k).find(|k| !k.is_empty());
    let _ = writeln!(out, "k = {:?}", root_k.expect("the shrunk communicator's rank 0 holds k"));
    let root = results[0].as_ref().expect("root survives in this demo");
    if let Some(csv) = &root.gathered_csv {
        out.push_str("survivors' byte matrix at root (shrunk communicator):\n");
        out.push_str(csv);
    }

    if builtin {
        // The built-in plan's contract.
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
            assert_eq!(rep.checksum, root.checksum, "rank {w} checksum diverged");
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
        // The plan's seed moves drops, duplicates and retries, never the
        // data: the mapping, the new ranks and the physics are pinned.
        assert_eq!(root_k, Some(&vec![4, 5, 6, 0, 1, 2, 3]), "the survivors' mapping moved");
        let new_ranks: Vec<_> =
            results.iter().map(|r| r.as_ref().ok().map(|r| r.new_rank)).collect();
        let expect_ranks = [Some(4), Some(5), Some(6), None, Some(0), Some(1), Some(2), Some(3)];
        assert_eq!(new_ranks, expect_ranks, "the survivors' new ranks moved");
        assert_eq!(root.checksum.to_bits(), 0x402b_0059_e603_82fc, "checksum {}", root.checksum);
        let survivor_bytes = "0,48,0,0,0,0,0\n48,0,48,0,0,0,0\n0,48,0,0,0,0,0\n0,0,0,0,48,0,0\n\
                              0,0,0,48,0,48,0\n0,0,0,0,48,0,48\n0,0,0,0,0,48,0\n";
        assert_eq!(root.gathered_csv.as_deref(), Some(survivor_bytes), "the survivors' matrix");
        let _ = writeln!(
            out,
            "crash at iteration {} recovered by shrink-and-remap; all checks passed",
            ITERS / 2
        );
    }
    Transcript { text: out, exec_stats: u.exec_stats() }
}

/// `elastic_stencil`: the restarted rank, the latent slot, and the
/// iterations before the crash, after the regrow and after the scale-out.
const VICTIM: usize = 3;
const LATENT: usize = 8;
const ITERS_1: usize = 4;
const ITERS_2: usize = 2;
const ITERS_3: usize = 2;
/// Monitoring barrier (3 dissemination rounds x send+recv) + 2 interior
/// iterations x (2 sends + 2 receives): the victim dies attempting the
/// first send of iteration 2, so both neighbours miss that iteration.
const RESTART_OPS: u64 = 6 + 2 * 4;

#[derive(Debug)]
struct ElasticReport {
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

/// Rolling restart plus elastic scale-out: 8 ranks run a monitored 1-D
/// stencil while a latent 9th slot waits, parked, for admission.  The
/// built-in plan perturbs link latency and crashes rank 3 after its 14th
/// wire operation (dying on iteration 2's sends), then *restarts* it:
///
/// 1. survivors agree on the death (`liveness_exchange`), shrink the world
///    ULFM-style, await the victim's rebirth (`await_rejoin`) and grow the
///    communicator back (`admit` at the sponsor, `comm_grow` elsewhere) —
///    the reborn incarnation receives the grown communicator by admission
///    and rejoins the stencil at the end of the line;
/// 2. the monitoring session *rebinds* across the membership change: the
///    pre-crash traffic toward rank 3 follows it to its new coordinate;
/// 3. the latent slot is admitted (`comm_grow` again, 9 ranks), sends on
///    the superseded epoch-2 communicator are rejected with a typed
///    `StaleEpoch` error, and a fresh session — joiner included — gathers
///    a 9x9 window matrix over the live membership.
///
/// # Panics
/// A custom plan without a `restart=3@ops:N` clause is rejected before
/// launch: without the victim's rebirth the survivors would wait for it
/// until the deadline.
pub fn elastic_stencil(
    exec: ExecutorKind,
    tracer: Option<Arc<Tracer>>,
    chaos: Chaos,
) -> Transcript {
    let builtin = matches!(chaos, Chaos::Builtin(_));
    let plan = match chaos {
        Chaos::Custom(plan) => plan,
        Chaos::Builtin(seed) => {
            FaultPlan::new(seed).delay(0.15, 20_000.0).restart_at_ops(VICTIM, RESTART_OPS)
        }
    };
    assert!(
        plan.restarts(VICTIM),
        "elastic_stencil: the fault plan has no `restart={VICTIM}@ops:N` clause, so the \
         survivors would await rank {VICTIM}'s rebirth until the deadline"
    );
    let seed = plan.seed();

    let machine = Machine::cluster(2, 1, 8);
    let cfg = UniverseConfig::new(machine, Placement::packed(N + 1))
        .with_latent_ranks(1)
        .with_injector(plan);
    let u = universe(cfg, exec, tracer);

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
                        let (l, r) = exchange(rank, &world, x, iter, &mut first_failed);
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
                    let (l, r) = exchange(rank, &grown1, x, ITERS_1 + iter, &mut first_failed);
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
            let tag = ITERS_1 + ITERS_2 + iter;
            let (l, r) = exchange(rank, &grown2, x, tag, &mut first_failed);
            x = (l + x + r) / 3.0;
        }
        let checksum = rank.allreduce(&grown2, &[x], |a, b| a + b)[0];

        let window = mon.gather_window(rank, session_b, 0, Flags::ALL_COMM).expect("window gather");
        mon.suspend(session_b).expect("suspend B");
        mon.free(session_b).expect("free B");

        let row_a = session_a.map(|id| {
            mon.suspend(id).expect("suspend A");
            let row = mon.get_data(id, Flags::P2P_ONLY).expect("session A row");
            mon.free(id).expect("free A");
            row.counts
        });
        mon.finalize(rank).expect("monitoring finalize");

        ElasticReport {
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

    let mut out = format!(
        "elastic stencil: {N} ranks + 1 latent slot, plan seed {seed}, \
         rank {VICTIM} restarts at {RESTART_OPS} wire ops\n"
    );
    for (w, r) in results.iter().enumerate() {
        let _ = match r {
            Ok(rep) => {
                let failed = rep.first_failed.map_or("-".to_string(), |i| i.to_string());
                let stale = rep
                    .stale
                    .map_or("-".to_string(), |(c, n)| format!("epoch {c} rejected at {n}"));
                writeln!(
                    out,
                    "slot {w}: {} inc={} final_rank={}/{} epoch={} first_failed={failed} \
                     stale_send=[{stale}] checksum={:.6}",
                    rep.role,
                    rep.incarnation,
                    rep.final_rank,
                    rep.final_size,
                    rep.final_epoch,
                    rep.checksum
                )
            }
            Err(RankFailure::Retired) => writeln!(out, "slot {w}: latent, never admitted"),
            Err(f) => writeln!(out, "slot {w}: DEAD {f}"),
        };
    }
    let root = results[0].as_ref().expect("root survives");
    if let Some(row) = &root.row_a {
        let _ = writeln!(out, "session A row at rank 0 (rebound across shrink+grow+grow): {row:?}");
    }
    if let Some(csv) = &root.window_csv {
        out.push_str("session B window count matrix at root (9x9, joiner included):\n");
        out.push_str(csv);
    }

    if builtin {
        // The built-in plan's contract.
        let reports: Vec<&ElasticReport> =
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
        let _ = writeln!(
            out,
            "rolling restart (shrink-and-regrow) + scale-out to {} ranks converged; \
             all checks passed",
            N + 1
        );
    }
    Transcript { text: out, exec_stats: u.exec_stats() }
}
