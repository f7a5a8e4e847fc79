//! Threads-vs-Tasks equivalence: the M:N rank executor must be *invisible*
//! in every simulated observable.  Virtual clocks are per-rank and advance
//! only through the cost model, so completion times, NIC counters and
//! per-rank trace streams are bit-identical across execution engines — on
//! any seed, any topology, any worker count.
//!
//! Traces are compared as their [`TraceDigest`]: `Recv.uq_depth` measures
//! *wall-clock arrival order* into the unexpected queue, which is genuinely
//! scheduling-dependent, and track registration order follows thread start
//! order; every other field is compared exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mim_mpisim::trace::{TraceDigest, Tracer};
use mim_mpisim::{
    ExecutorKind, FaultPlan, PmlEvent, PmlHook, Rank, SrcSel, TagSel, Universe, UniverseConfig,
};
use mim_topology::{Machine, Placement};
use mim_util::props;
use mim_util::rng::Rng;

/// Everything a universe run can show the outside world, bit-exact.
/// Completion times are compared as raw `f64` bits: "close" is not
/// equivalent.
#[derive(Debug, PartialEq)]
struct Observables {
    completion_bits: Vec<u64>,
    results: Vec<Vec<i64>>,
    nic: Vec<(u64, u64, u64)>,
    trace: TraceDigest,
}

/// A deterministic mixed workload (p2p ring + collectives + communicator
/// surgery), parameterized by `seed`.  No wildcard receives: wildcard
/// *matching* takes whatever arrived first in wall time, so a workload
/// whose data flow depends on it would not be comparable across engines
/// (that path gets its own test below).
fn workload(rank: &Rank, seed: u64) -> Vec<i64> {
    let world = rank.comm_world();
    let n = world.size();
    let me = world.rank();
    let mut rng = Rng::seed_from_u64(seed);
    let bytes = rng.gen_range(64u64..8192);
    let root = rng.gen_range(0usize..n);
    let rounds = rng.gen_range(1usize..4);
    let mut acc: Vec<i64> = Vec::new();

    for round in 0..rounds {
        // Ring exchange with specific sources (sends never block: channels
        // are unbounded; only receives park).
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        rank.send(&world, right, round as u32, &[(me * 10 + round) as i64]);
        let (v, st) = rank.recv::<i64>(&world, SrcSel::Rank(left), TagSel::Is(round as u32));
        acc.extend(&v);
        acc.push(st.bytes as i64);

        // Synthetic bulk traffic exercises the cost model without buffers.
        rank.send_synthetic(&world, right, 100 + round as u32, bytes);
        rank.recv_synthetic(&world, SrcSel::Rank(left), TagSel::Is(100 + round as u32));
    }

    // Collectives: every flavor of tree/ring decomposition in the stack.
    let sum = rank.allreduce(&world, &[me as i64 + 1], |a, b| a + b);
    acc.extend(&sum);
    let mut b = if me == root { vec![seed as i64] } else { Vec::new() };
    rank.bcast(&world, root, &mut b);
    acc.extend(&b);
    let all = rank.allgather(&world, &[(me as i64) * 3]);
    acc.extend(&all);
    rank.barrier(&world);

    // Communicator surgery: split into parity halves, reduce within.
    let half = rank.comm_split(&world, (me % 2) as i64, me as i64);
    let r = rank.allreduce(&half, &[me as i64], |a, b| a.max(b));
    acc.extend(&r);
    acc
}

/// Run the workload under one engine and collect every observable.
fn run(kind: ExecutorKind, machine: &Machine, n: usize, seed: u64) -> Observables {
    let tracer = Tracer::new(1 << 14);
    let mut cfg = UniverseConfig::new(machine.clone(), Placement::packed(n));
    cfg.executor = kind;
    cfg.tracer = Some(Arc::clone(&tracer));
    let u = Universe::new(cfg);
    let mut results = Vec::new();
    let mut completion_bits = Vec::new();
    for (r, t) in u.launch(|rank| (workload(rank, seed), rank.now_ns().to_bits())) {
        results.push(r);
        completion_bits.push(t);
    }
    let nic = (0..u.nic().num_nodes())
        .map(|nd| (u.nic().xmit_bytes(nd), u.nic().xmit_msgs(nd), u.nic().retries(nd)))
        .collect();
    Observables { completion_bits, results, nic, trace: tracer.digest() }
}

fn assert_equivalent(machine: &Machine, n: usize, seed: u64) {
    let threads = run(ExecutorKind::Threads, machine, n, seed);
    let tasks = run(ExecutorKind::Tasks, machine, n, seed);
    assert_eq!(
        threads, tasks,
        "Threads and Tasks engines diverged (machine={machine:?}, n={n}, seed={seed})"
    );
}

/// The tentpole acceptance matrix: three topologies × three seeds, all
/// bit-identical.  Three distinct machine shapes: flat single-node,
/// multi-node cluster, and the paper's plafrim machine.
#[test]
fn engines_agree_across_three_topologies_and_three_seeds() {
    let topologies = [
        ("flat", Machine::cluster(1, 1, 16), 12),
        ("cluster", Machine::cluster(4, 2, 4), 16),
        ("plafrim", Machine::plafrim(3), 9),
    ];
    for (name, machine, n) in &topologies {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            eprintln!("equivalence: topology={name} n={n} seed={seed}");
            assert_equivalent(machine, *n, seed);
        }
    }
}

/// Bytes per (src, dst) world-rank pair as the PML layer sees them: the
/// monitoring library's matrix, without the library.
struct PairMatrix {
    n: usize,
    bytes: Vec<AtomicU64>,
}

impl PmlHook for PairMatrix {
    fn on_send(&self, ev: &PmlEvent) {
        self.bytes[ev.src_world * self.n + ev.dst_world].fetch_add(ev.bytes, Ordering::Relaxed);
    }
}

/// Ring + allreduce rounds on 24 ranks over three nodes: at 3 or 5 workers
/// every block of the launch partition has a neighbour on another worker,
/// and the allreduce's tree crosses all of them, so tasks are notified
/// across workers, queues run dry unevenly, and idle workers steal.
/// Returns final clocks, results, the pair matrix and the NIC totals.
fn ring_allreduce(kind: ExecutorKind) -> (Observables, Vec<u64>) {
    const N: usize = 24;
    let mut cfg = UniverseConfig::new(Machine::cluster(3, 2, 4), Placement::packed(N));
    cfg.executor = kind;
    cfg.tracer = None;
    let u = Universe::new(cfg);
    let matrix =
        Arc::new(PairMatrix { n: N, bytes: (0..N * N).map(|_| AtomicU64::new(0)).collect() });
    u.add_global_hook(matrix.clone());
    let out = u.launch(|rank| {
        let world = rank.comm_world();
        let (me, n) = (world.rank(), world.size());
        let mut acc = Vec::new();
        for round in 0..20u32 {
            rank.send(&world, (me + 1) % n, round, &[(me as i64) << round]);
            let (v, _) =
                rank.recv::<i64>(&world, SrcSel::Rank((me + n - 1) % n), TagSel::Is(round));
            acc.push(rank.allreduce(&world, &v, |a, b| a + b)[0]);
        }
        (acc, rank.now_ns().to_bits())
    });
    if let Some(stats) = u.exec_stats() {
        eprintln!("ring + allreduce on {kind:?}: {stats:?}");
    }
    let nic = (0..u.nic().num_nodes())
        .map(|nd| (u.nic().xmit_bytes(nd), u.nic().xmit_msgs(nd), u.nic().retries(nd)))
        .collect();
    let (results, completion_bits) = out.into_iter().unzip();
    let matrix = matrix.bytes.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    (Observables { completion_bits, results, nic, trace: TraceDigest::default() }, matrix)
}

/// Tasks mode must honor `MIM_WORKERS`: results are identical from a
/// single-worker pool up to an oversubscribed one, including uneven counts
/// where tasks are stolen and re-homed mid-run.
#[test]
fn tasks_results_do_not_depend_on_worker_count() {
    let machine = Machine::cluster(2, 1, 8);
    let baseline = run(ExecutorKind::Threads, &machine, 8, 7);
    let ring_baseline = ring_allreduce(ExecutorKind::Threads);
    for workers in ["1", "2", "3", "5", "13"] {
        std::env::set_var("MIM_WORKERS", workers);
        let tasks = run(ExecutorKind::Tasks, &machine, 8, 7);
        let ring = ring_allreduce(ExecutorKind::Tasks);
        std::env::remove_var("MIM_WORKERS");
        assert_eq!(baseline, tasks, "diverged at MIM_WORKERS={workers}");
        assert_eq!(ring_baseline, ring, "ring + allreduce diverged at MIM_WORKERS={workers}");
    }
}

props! {
    /// Randomized equivalence: any machine shape, any rank count, any seed.
    fn engines_agree_on_random_universes(g, cases = 6) {
        let nodes = g.gen_range(1usize..4);
        let sockets = g.gen_range(1usize..3);
        let cores = g.gen_range(2usize..5);
        let machine = Machine::cluster(nodes, sockets, cores);
        let max = nodes * sockets * cores;
        let n = g.gen_range(2usize..=max.min(12));
        let seed = g.any_u64();
        assert_equivalent(&machine, n, seed);
    }
}

/// The log-step allgather under both engines: on every rank the blocks the
/// ring returns, and final clocks bit-identical threads ↔ tasks — rank
/// counts on both sides of every power of two, blocks from empty to three
/// items.
#[test]
fn bruck_allgather_agrees_with_the_ring_on_both_engines() {
    use mim_mpisim::collectives::{allgather_bruck, allgather_ring};
    let run = |kind: ExecutorKind, n: usize| {
        let mut cfg = UniverseConfig::new(Machine::cluster(5, 2, 4), Placement::packed(n));
        cfg.executor = kind;
        Universe::new(cfg).launch(move |rank| {
            let world = rank.comm_world();
            let me = world.rank() as i64;
            let mut out = Vec::new();
            for block in 0..=3 {
                let data: Vec<i64> = (0..block).map(|i| me * 7 - i).collect();
                let bruck = allgather_bruck(rank, &world, &data);
                let at = rank.now_ns().to_bits();
                assert_eq!(bruck, allgather_ring(rank, &world, &data), "n={n} block={block}");
                out.push((bruck, at));
            }
            (out, rank.now_ns().to_bits())
        })
    };
    for n in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 24, 31, 32, 33, 40] {
        assert_eq!(
            run(ExecutorKind::Threads, n),
            run(ExecutorKind::Tasks, n),
            "engines diverged at n={n}"
        );
    }
}

/// A *wildcard* receive parked across a peer's crash notice: the death
/// notice (fault context) must wake the parked task, get filed in the
/// unexpected queue without matching the user-context wildcard, and the
/// task must park again until the real message lands.
#[test]
fn wildcard_recv_parked_across_a_crash_notice() {
    let cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(3))
        .with_executor(ExecutorKind::Tasks)
        .with_injector(FaultPlan::new(0).crash_at_ops(2, 0));
    let u = Universe::new(cfg);
    let results = u.launch_faulty(|rank| {
        let world = rank.comm_world();
        match rank.world_rank() {
            0 => {
                // Parks on a wildcard; rank 2's death notice arrives first
                // (it crashes on its very first op, rank 1 sends later).
                let (v, st) = rank.recv::<i64>(&world, SrcSel::Any, TagSel::Is(9));
                assert_eq!(st.src, 1);
                v[0]
            }
            1 => {
                // A virtual-time delay plus a real wall delay so the death
                // notice has every chance to land while rank 0 is parked.
                rank.compute_ns(1_000_000.0);
                std::thread::sleep(std::time::Duration::from_millis(20));
                rank.send(&world, 0, 9, &[77i64]);
                0
            }
            _ => {
                // Crashes before this send happens.
                rank.send(&world, 0, 9, &[-1i64]);
                -1
            }
        }
    });
    assert_eq!(results[0].as_ref().ok(), Some(&77));
    assert_eq!(results[1].as_ref().ok(), Some(&0));
    assert!(matches!(results[2], Err(mim_mpisim::RankFailure::Crashed { .. })));
}

/// `comm_shrink` while the surviving peers are parked: the liveness
/// exchange and the shrunk-communicator collective both run entirely on
/// parked-task wakeups (no thread ever blocks).
#[test]
fn comm_shrink_while_peers_are_parked() {
    // Op 0 is the ring send, op 1 the ring recv; the third wire op (an
    // extra send) trips the crash and never delivers.
    let cfg = UniverseConfig::new(Machine::cluster(2, 1, 3), Placement::packed(5))
        .with_executor(ExecutorKind::Tasks)
        .with_injector(FaultPlan::new(0).crash_at_ops(1, 2));
    let u = Universe::new(cfg);
    let results = u.launch_faulty(|rank| {
        let world = rank.comm_world();
        let me = world.rank();
        // Everyone trades a ring message (ops 1 and 2 for every rank), then
        // rank 1 dies attempting a third wire op — before the detector
        // phase, with its ring traffic already delivered.
        let right = (me + 1) % world.size();
        let left = (me + world.size() - 1) % world.size();
        rank.send_synthetic(&world, right, 0, 256);
        rank.recv_synthetic(&world, SrcSel::Rank(left), TagSel::Is(0));
        if me == 1 {
            rank.send_synthetic(&world, 0, 5, 1); // pre-op fires the crash
        }
        // Survivors agree on the dead set while parked in the detector's
        // ping/death-notice waits, then rebuild and reduce.
        let alive = rank.liveness_exchange(&world);
        assert_eq!(alive, vec![true, false, true, true, true]);
        let shrunk = rank.comm_shrink(&world, &alive);
        let total = rank.allreduce(&shrunk, &[me as i64], |a, b| a + b);
        total[0]
    });
    // World ranks 0,2,3,4 survive; sum of their world ranks (== comm ranks
    // in world) is 0+2+3+4.
    for (w, r) in results.iter().enumerate() {
        if w == 1 {
            assert!(matches!(r, Err(mim_mpisim::RankFailure::Crashed { .. })));
        } else {
            assert_eq!(r.as_ref().ok(), Some(&9));
        }
    }
}

/// A listed interior rank dies before its first gather operation: the root
/// gets the incomplete-gather error naming that rank and its subtree, every
/// other rank returns, no wait sleeps out the wall-clock deadline, and the
/// outcome (results and final clocks) is the same on both engines and on
/// every run.
#[test]
fn tree_gather_reports_a_dead_interior_rank_on_the_virtual_clock() {
    let run = |kind: ExecutorKind| {
        let cfg = UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(7))
            .with_executor(kind)
            .with_injector(FaultPlan::new(0).crash_at_ops(1, 0));
        let deadline = cfg.deadline;
        let wall = std::time::Instant::now();
        let results = Universe::new(cfg).launch_faulty(|rank| {
            let world = rank.comm_world();
            // Binary heap over 0..7: rank 1 is interior, 3 and 4 its subtree.
            let order: Vec<usize> = (0..7).collect();
            let rows = rank.gather_tree(&world, 0, 2, &order, &[world.rank() as u64]);
            (rows, rank.now_ns().to_bits())
        });
        assert!(wall.elapsed() < deadline, "{kind:?}: a wait slept out the deadline");
        results
    };
    let reference = run(ExecutorKind::Threads);
    for (w, r) in reference.iter().enumerate() {
        match (w, r) {
            (0, Ok((rows, _))) => assert_eq!(rows, &Err(vec![1, 3, 4])),
            (1, r) => assert!(matches!(r, Err(mim_mpisim::RankFailure::Crashed { ops: 0, .. }))),
            (_, Ok((rows, _))) => assert_eq!(rows, &Ok(None), "rank {w} is not the root"),
            (_, Err(f)) => panic!("rank {w} should have returned: {f}"),
        }
    }
    for kind in [ExecutorKind::Threads, ExecutorKind::Tasks, ExecutorKind::Tasks] {
        assert_eq!(run(kind), reference, "{kind:?} diverged from the first threads run");
    }
}

/// The starvation watchdog: a rank that burns its worker without a single
/// scheduler interaction, while a peer waits parked, must abort the whole
/// process with exit code 107 and a "starvation" diagnostic (a fiber cannot
/// be preempted or unwound from outside).  Runs in a subprocess because the
/// abort takes the process down.
#[test]
fn starvation_watchdog_aborts_a_never_yielding_rank() {
    if std::env::var("MIM_STARVE_CHILD").is_ok() {
        let mut cfg = UniverseConfig::new(Machine::cluster(1, 1, 2), Placement::packed(2));
        cfg.executor = ExecutorKind::Tasks;
        cfg.deadline = std::time::Duration::from_millis(400);
        let u = Universe::new(cfg);
        u.launch(|rank| {
            if rank.world_rank() == 0 {
                // Never yields, never sends: pure worker-burning spin.
                // Bounded so a watchdog bug fails the parent assert instead
                // of hanging the suite.
                for _ in 0..600 {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            } else {
                // Parks forever behind the spinner.
                let _ = rank.recv::<i64>(&rank.comm_world(), SrcSel::Rank(0), TagSel::Any);
            }
        });
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", "starvation_watchdog_aborts_a_never_yielding_rank", "--nocapture"])
        .env("MIM_STARVE_CHILD", "1")
        .env("MIM_WORKERS", "1")
        .env_remove("MIM_EXECUTOR")
        .output()
        .expect("spawn child test process");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(107),
        "child should abort with the starvation exit code; stderr:\n{stderr}"
    );
    assert!(stderr.contains("starvation"), "diagnostic missing from stderr:\n{stderr}");
}
