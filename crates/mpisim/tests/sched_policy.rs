//! Schedule-policy seam tests: the canonical policy is bit-identical to no
//! policy at all (across both executors), a scripted policy really steers
//! wildcard matching, the starvation watchdog stays quiet under a policy,
//! and deadline panics carry the policy's decision log.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mim_mpisim::trace::{TraceDigest, Tracer};
use mim_mpisim::{
    CanonicalPolicy, Decision, ExecutorKind, Rank, SchedulePolicy, SrcSel, TagSel, Universe,
    UniverseConfig,
};
use mim_topology::{Machine, Placement};
use mim_util::props;
use mim_util::rng::Rng;

/// Scripted test policy: the script answers the *wildcard* decisions in
/// order (canonical 0 past its end and for every other kind — under the
/// task engine resume decisions precede the first wildcard one, so a
/// script addressed by position would spend its entries on them), every
/// decision recorded.
#[derive(Debug, Default)]
struct Scripted {
    script: Vec<usize>,
    at: Mutex<usize>,
    log: Mutex<String>,
}

impl Scripted {
    fn new(script: Vec<usize>) -> Arc<Self> {
        Arc::new(Scripted { script, ..Default::default() })
    }
}

impl SchedulePolicy for Scripted {
    fn choose(&self, decision: Decision<'_>) -> usize {
        let pick = if decision.kind_code() == 'w' {
            let mut at = self.at.lock().unwrap();
            *at += 1;
            self.script.get(*at - 1).copied().unwrap_or(0)
        } else {
            0
        };
        let _ = write!(
            self.log.lock().unwrap(),
            "{}:{}/{};",
            decision.kind_code(),
            pick,
            decision.slate_size()
        );
        pick
    }

    fn decision_log(&self) -> Option<String> {
        Some(self.log.lock().unwrap().clone())
    }
}

/// Everything a run shows the outside world, bit-exact (completion clocks
/// as raw f64 bits).
#[derive(Debug, PartialEq)]
struct Observables {
    completion_bits: Vec<u64>,
    results: Vec<Vec<i64>>,
    nic: Vec<(u64, u64, u64)>,
    trace: TraceDigest,
}

/// Deterministic mixed workload (specific-source ring + collectives) — no
/// wildcards, whose winner is wall-clock arrival order and thus not
/// comparable across runs.
fn workload(rank: &Rank, seed: u64) -> Vec<i64> {
    let world = rank.comm_world();
    let n = world.size();
    let me = world.rank();
    let mut rng = Rng::seed_from_u64(seed);
    let bytes = rng.gen_range(64u64..4096);
    let root = rng.gen_range(0usize..n);
    let mut acc: Vec<i64> = Vec::new();

    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    rank.send(&world, right, 1, &[(me * 7) as i64]);
    let (v, st) = rank.recv::<i64>(&world, SrcSel::Rank(left), TagSel::Is(1));
    acc.extend(&v);
    acc.push(st.bytes as i64);
    rank.send_synthetic(&world, right, 2, bytes);
    rank.recv_synthetic(&world, SrcSel::Rank(left), TagSel::Is(2));

    acc.extend(rank.allreduce(&world, &[me as i64 + 1], |a, b| a + b));
    let mut b = if me == root { vec![seed as i64] } else { Vec::new() };
    rank.bcast(&world, root, &mut b);
    acc.extend(&b);
    rank.barrier(&world);
    acc
}

fn run(kind: ExecutorKind, n: usize, seed: u64, policed: bool) -> Observables {
    let tracer = Tracer::new(1 << 14);
    let mut cfg = UniverseConfig::new(Machine::cluster(2, 2, 4), Placement::packed(n));
    cfg.executor = kind;
    cfg.tracer = Some(Arc::clone(&tracer));
    if policed {
        cfg = cfg.with_schedule_policy(Arc::new(CanonicalPolicy));
    }
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

props! {
    /// The tentpole's default-path guarantee: installing the canonical
    /// policy changes *nothing*, on either executor — results, completion
    /// clocks, NIC counters and traces are bit-identical to the un-policed
    /// run.
    fn canonical_policy_is_bit_identical(g, cases = 8) {
        let n = g.gen_range(2usize..9);
        let seed = g.next_u64();
        for kind in [ExecutorKind::Threads, ExecutorKind::Tasks] {
            let plain = run(kind, n, seed, false);
            let policed = run(kind, n, seed, true);
            assert_eq!(
                plain, policed,
                "canonical policy diverged from default ({kind:?}, n={n}, seed={seed})"
            );
        }
    }
}

/// A scripted wildcard choice really steers matching: two messages from the
/// same sender on different tags are queued, and the policy takes the
/// *later-arrival* channel first (canonical order is per-sender FIFO, so
/// the slate order is deterministic even under thread-per-rank).
#[test]
fn scripted_policy_steers_wildcard_match() {
    let policy = Scripted::new(vec![1]);
    let cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(2))
        .with_schedule_policy(policy.clone());
    let u = Universe::new(cfg);
    let tags = u.launch(|rank| {
        let world = rank.comm_world();
        if rank.world_rank() == 1 {
            rank.send(&world, 0, 5, &[1i64]);
            rank.send(&world, 0, 6, &[2i64]);
        }
        rank.barrier(&world);
        if rank.world_rank() == 0 {
            let (_, a) = rank.recv::<i64>(&world, SrcSel::Any, TagSel::Any);
            let (_, b) = rank.recv::<i64>(&world, SrcSel::Any, TagSel::Any);
            vec![a.tag, b.tag]
        } else {
            Vec::new()
        }
    });
    // Canonical order would deliver tag 5 first (earliest arrival); the
    // script's "1" picks the second eligible channel.
    assert_eq!(tags[0], vec![6, 5]);
    let log = policy.decision_log().unwrap();
    assert!(log.contains("w:1/2"), "wildcard decision missing from log: {log:?}");
}

/// Satellite: the starvation watchdog must NOT abort (exit 107) while a
/// schedule policy is installed, even when a rank body burns its worker
/// for several wall-clock deadlines while a peer waits parked.  Without
/// the suspension this test kills the whole test process.
#[test]
fn watchdog_suspended_under_policy() {
    if !mim_util::fiber::SUPPORTED {
        return;
    }
    let mut cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(2))
        .with_schedule_policy(Arc::new(CanonicalPolicy));
    cfg.executor = ExecutorKind::Tasks;
    cfg.deadline = Duration::from_millis(150);
    let u = Universe::new(cfg);
    let got = u.launch(|rank| {
        let world = rank.comm_world();
        if rank.world_rank() == 1 {
            // Hog the (single) worker far past the watchdog deadline while
            // rank 0 sits parked — the exact starvation signature.
            std::thread::sleep(Duration::from_millis(600));
            rank.send(&world, 0, 1, &[42i64]);
            0
        } else {
            let (v, _) = rank.recv::<i64>(&world, SrcSel::Rank(1), TagSel::Is(1));
            v[0]
        }
    });
    assert_eq!(got, vec![42, 0]);
}

/// Satellite regression: `Rank::gather_tree` validates arity at the seam,
/// before the collective allocates a tag — a caller bug fails loudly and
/// uniformly instead of desynchronizing the universe.
#[test]
#[should_panic(expected = "gather_tree: arity must be at least 2")]
fn gather_tree_rejects_arity_below_two() {
    let cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(2));
    let u = Universe::new(cfg);
    u.launch(|rank| {
        let world = rank.comm_world();
        let order = vec![0, 1];
        rank.gather_tree(&world, 0, 1, &order, &[rank.world_rank() as u64])
    });
}

/// `Rank::gather_tree` gathers over the whole communicator: an order that
/// repeats a rank, or skips one, fails on every rank before a frame moves.
#[test]
#[should_panic(expected = "order must be a permutation of 0..3")]
fn gather_tree_rejects_an_order_that_is_not_a_permutation() {
    let universe =
        || Universe::new(UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(3)));
    let caught = universe().launch(|rank| {
        let world = rank.comm_world();
        let repeat = [0, 1, 1];
        let p = catch_unwind(AssertUnwindSafe(|| rank.gather_tree(&world, 0, 2, &repeat, &[1])))
            .expect_err("a repeated rank must panic");
        p.downcast_ref::<String>().cloned().unwrap_or_default()
    });
    for (r, msg) in caught.iter().enumerate() {
        assert!(msg.contains("order must be a permutation of 0..3"), "rank {r}: {msg:?}");
    }
    universe().launch(|rank| {
        let world = rank.comm_world();
        rank.gather_tree(&world, 0, 2, &[0, 2], &[1])
    });
}

/// Satellite: a deadline panic raised *during exploration* must carry the
/// policy's decision log — the replay witness — after the flight dump.
#[test]
#[should_panic(expected = "schedule decisions (replay witness)")]
fn deadline_panic_carries_decision_log() {
    let policy = Scripted::new(vec![0]);
    let mut cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(2))
        .with_schedule_policy(policy);
    cfg.deadline = Duration::from_millis(100);
    let u = Universe::new(cfg);
    u.launch(|rank| {
        let world = rank.comm_world();
        if rank.world_rank() == 0 {
            // Rank 1 never sends: the deadline fires and the panic payload
            // must include the decision log.
            rank.recv::<i64>(&world, SrcSel::Rank(1), TagSel::Is(9));
        }
    });
}
