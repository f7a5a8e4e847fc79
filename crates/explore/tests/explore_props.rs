//! Cross-validation properties (satellite S4): exploration agrees with the
//! static analyzer on every built-in plan, realizes the analyzer's
//! definite deadlocks as concrete schedules, emits witnesses that replay
//! byte-for-byte — and its decision logs drive the *live* runtime's
//! scheduling seams, not just the model executor.

use std::sync::Arc;

use mim_analyze::{
    analyze_program, CollKind, CommId, Determinism, Op, Program, Src, Tag, Verdict, WinId, WORLD,
};
use mim_apps::builtin::{built_in, Shape, PLANS};
use mim_explore::plans::{wildcard_clean, wildcard_race};
use mim_explore::{
    explore, replay, run_model, Budget, Outcome, RecordingPolicy, ReplayPolicy, Witness,
};
use mim_mpisim::{CanonicalPolicy, ExecutorKind, SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};
use mim_util::prop::Gen;
use mim_util::props;
use mim_util::quick_mode;
use mim_util::rng::splitmix64;

props! {
    /// Every analyzer `DeadlockFree` verdict holds under exploration AND
    /// under a burst of random schedules: the 15 built-in plans complete
    /// on every schedule the budget reaches.
    fn deadlock_free_plans_survive_random_schedules(g, cases = 6) {
        let n = g.gen_range(2usize..if quick_mode() { 5 } else { 9 });
        let shape = Shape {
            n,
            root: g.gen_range(0usize..n),
            bytes: g.gen_range(64u64..8192),
            seg: g.gen_range(16u64..2048),
        };
        let mut seed = g.next_u64();
        for name in PLANS {
            let program = built_in(name, &shape).unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = analyze_program(&program);
            assert_eq!(report.verdict, Verdict::DeadlockFree, "{name}: {:?}", report.verdict);
            let budget = Budget { max_schedules: 64, random: 0, seed };
            match explore(&program, &budget, None).unwrap() {
                Outcome::ExploredClean { schedules, .. } => {
                    assert!(schedules >= 1, "{name}")
                }
                Outcome::DefiniteDeadlock { witness, .. } => {
                    panic!("{name} wedged under exploration: {:?}", witness.stuck)
                }
            }
            // Confluence claims every schedule completes, not just the
            // DFS's: probe with independent random ones.
            for _ in 0..3 {
                let policy = RecordingPolicy::random(Vec::new(), splitmix64(&mut seed));
                let out = run_model(&program, &policy, None, None).unwrap();
                assert!(
                    !out.deadlocked(),
                    "{name} wedged on a random schedule ({}): {:?}",
                    policy.log(),
                    out.stuck
                );
            }
        }
    }

    /// Every analyzer `DefiniteDeadlock` on a wildcard-free plan is
    /// realized by the canonical schedule alone (confluence: if every
    /// schedule wedges, the first one does).
    fn definite_deadlocks_are_realized(g, cases = 8) {
        // A k-cycle of recv-then-send ranks: the textbook circular wait.
        let k = g.gen_range(2usize..7);
        let mut cycle = Program::new("cycle", k);
        for r in 0..k {
            cycle.push(r, Op::Recv { comm: WORLD, src: Src::Rank((r + k - 1) % k), tag: Tag::Is(0) });
            cycle.push(r, Op::Send { comm: WORLD, dst: (r + 1) % k, tag: 0, bytes: 8 });
        }
        // A fence is collective over its *window*: neither a collective on
        // the window's communicator nor a fence on a second window over
        // that communicator releases it.
        let barrier = Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None };
        let mut fence_vs_coll = Program::new("fence_vs_coll", 2);
        let w = fence_vs_coll.add_window(WORLD);
        fence_vs_coll.push(0, Op::Fence { win: w });
        fence_vs_coll.push(1, barrier);
        let mut two_windows = Program::new("two_windows", 2);
        let (w0, w1) = (two_windows.add_window(WORLD), two_windows.add_window(WORLD));
        two_windows.push(0, Op::Fence { win: w0 });
        two_windows.push(1, Op::Fence { win: w1 });
        for p in [cycle, fence_vs_coll, two_windows] {
            let report = analyze_program(&p);
            assert!(
                matches!(report.verdict, Verdict::DefiniteDeadlock { .. }),
                "{}: {:?}",
                p.name(),
                report.verdict
            );
            let budget = Budget { max_schedules: 16, random: 0, seed: g.next_u64() };
            let Outcome::DefiniteDeadlock { witness, schedules } =
                explore(&p, &budget, None).unwrap()
            else {
                panic!("{}: explorer missed the analyzer's definite deadlock", p.name());
            };
            assert_eq!(schedules, 1, "a wildcard-free wedge must show on the canonical schedule");
            assert_eq!(witness.stuck.len(), p.nranks(), "{}: every rank is blocked", p.name());
            replay(&p, &witness).unwrap();
        }
    }

    /// Witness emission is deterministic and replay is byte-exact: the
    /// same exploration run twice yields identical witness JSON, and the
    /// parsed witness reproduces the identical normalized trace.
    fn witnesses_replay_byte_for_byte(g, cases = 6) {
        let n = g.gen_range(3usize..8);
        let seed = g.next_u64();
        let p = wildcard_race(n);
        let budget = Budget { max_schedules: 128, random: 8, seed };
        let run = |b: &Budget| match explore(&p, b, None).unwrap() {
            Outcome::DefiniteDeadlock { witness, .. } => witness,
            other => panic!("wildcard_race must wedge, got {other:?}"),
        };
        let w1 = run(&budget);
        let w2 = run(&budget);
        assert_eq!(w1.to_json(), w2.to_json(), "exploration must be deterministic");
        let parsed = Witness::from_json(&w1.to_json()).unwrap();
        let replayed = replay(&p, &parsed).unwrap();
        assert_eq!(replayed.trace, w1.trace);
        assert_eq!(replayed.stuck.as_deref(), Some(&w1.stuck[..]));
    }

    /// A statically `Deterministic` verdict is a one-schedule proof: with
    /// the analyzer's independence map pruning benign wildcard sites, the
    /// DFS decides every such plan — all 15 built-ins and the all-benign
    /// `wildcard_clean` — in exactly one schedule, with the same outcome
    /// kind the unpruned search reaches.
    fn deterministic_plans_are_decided_in_one_schedule(g, cases = 4) {
        let n = g.gen_range(2usize..if quick_mode() { 5 } else { 8 });
        let shape = Shape {
            n,
            root: g.gen_range(0usize..n),
            bytes: g.gen_range(64u64..8192),
            seg: g.gen_range(16u64..2048),
        };
        let budget = Budget { max_schedules: 512, random: 0, seed: g.next_u64() };
        let mut programs: Vec<Program> = PLANS
            .iter()
            .map(|name| built_in(name, &shape).unwrap_or_else(|e| panic!("{name}: {e}")))
            .collect();
        programs.push(wildcard_clean(n.max(2)));
        for program in &programs {
            let report = analyze_program(program);
            assert!(
                matches!(report.determinism, mim_analyze::Determinism::Deterministic),
                "{}: {:?}",
                program.name(),
                report.determinism
            );
            let pruned = explore(program, &budget, Some(&report.independence)).unwrap();
            assert_eq!(
                pruned.schedules(),
                1,
                "{}: deterministic yet {} schedules were needed",
                program.name(),
                pruned.schedules()
            );
            let unpruned = explore(program, &budget, None).unwrap();
            assert!(
                matches!(
                    (&pruned, &unpruned),
                    (Outcome::ExploredClean { .. }, Outcome::ExploredClean { .. })
                ),
                "{}: pruning changed the outcome kind",
                program.name()
            );
            assert!(pruned.schedules() <= unpruned.schedules(), "{}", program.name());
        }
    }

    /// Every MIM-A011 on `wildcard_race` is a *real* race: two schedules
    /// — the canonical one and one differing only in its first resume
    /// decision — produce byte-different normalized traces in which the
    /// wildcard receive observably matches different senders.
    fn a011_races_are_realized_by_two_schedules(g, cases = 6) {
        let n = g.gen_range(3usize..8);
        let p = wildcard_race(n);
        let report = analyze_program(&p);
        assert!(
            matches!(&report.determinism,
                mim_analyze::Determinism::SchedSensitive { codes }
                    if codes.contains(&mim_analyze::Code::A011)),
            "wildcard_race must carry an A011: {:?}",
            report.determinism
        );

        let canonical = RecordingPolicy::canonical();
        let out0 = run_model(&p, &canonical, None, None).unwrap();
        // Steer only the first resume decision somewhere else.
        let alt = 1 + g.index(n - 2);
        let scripted = RecordingPolicy::scripted(vec![alt]);
        let out1 = run_model(&p, &scripted, None, None).unwrap();
        assert_ne!(out0.trace, out1.trace, "schedules {:?} vs {:?}", canonical.log(), scripted.log());

        // The divergence is the race itself: rank 0's wildcard matched a
        // different sender in the two runs.
        let first_match = |out: &mim_explore::RunOutput| {
            out.trace
                .iter()
                .find(|l| l.contains("rank=0 recv"))
                .and_then(|l| {
                    l.split_whitespace().find_map(|w| w.strip_prefix("src=").map(String::from))
                })
        };
        let (m0, m1) = (first_match(&out0), first_match(&out1));
        assert!(m0.is_some(), "canonical run never matched the wildcard");
        assert_ne!(m0, m1, "the wildcard matched the same sender on both schedules");
    }
}

/// The analyzer calls `wildcard_clean` exactly what it calls
/// `wildcard_race` — `PotentialDeadlock` — but exploration separates them:
/// one gets a witness, the other a clean bill.
#[test]
fn exploration_separates_what_the_analyzer_cannot() {
    let budget = Budget { max_schedules: 4096, random: 0, seed: 7 };
    for (plan, wedges) in [(wildcard_race(4), true), (wildcard_clean(4), false)] {
        let report = analyze_program(&plan);
        assert!(matches!(report.verdict, Verdict::PotentialDeadlock { .. }));
        let out = explore(&plan, &budget, None).unwrap();
        match (wedges, out) {
            (true, Outcome::DefiniteDeadlock { .. }) => {}
            (false, Outcome::ExploredClean { exhaustive, .. }) => {
                assert!(exhaustive, "4-rank wildcard_clean fits the budget");
            }
            (_, out) => panic!("{}: wrong outcome {out:?}", plan.name()),
        }
    }
}

/// A decision log recorded against the live runtime's scheduling seams
/// steers a second live run to the identical observable behavior: record a
/// wildcard-steering run, then replay its log with a strict
/// `ReplayPolicy`.
#[test]
fn decision_logs_drive_the_live_runtime() {
    let run = |policy: Arc<dyn mim_mpisim::SchedulePolicy>| {
        let cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(2))
            .with_schedule_policy(policy);
        let u = Universe::new(cfg);
        u.launch(|rank| {
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
        })
    };

    // Record: steer the first wildcard match to the later channel.  The
    // script addresses that decision by kind: a canonical probe run finds
    // how many other decisions (task resumes, under the task engine)
    // precede it, and the script answers those canonically.
    let probe = Arc::new(RecordingPolicy::canonical());
    run(probe.clone());
    let first_w =
        probe.recs().iter().position(|r| r.kind == 'w').expect("the run has a wildcard decision");
    let mut script = vec![0; first_w];
    script.push(1);
    let rec = Arc::new(RecordingPolicy::scripted(script));
    let tags = run(rec.clone());
    assert_eq!(tags[0], vec![6, 5], "the scripted choice must steer the live match");
    let log = rec.log();
    assert!(log.contains("w:1/2"), "missing wildcard decision: {log:?}");

    // Replay: the strict policy answers the same questions and reproduces
    // the same observable order.
    let rep = Arc::new(ReplayPolicy::from_log(&log).expect("log parses"));
    let tags2 = run(rep.clone());
    assert_eq!(tags2, tags, "replaying the decision log must reproduce the run");
    assert_eq!(rep.divergence(), None);
}

/// One probe → record → replay cycle of the test above, on a config that
/// requests `executor`.  True when the scripted choice steered the match
/// and the strict replay reproduced the run without diverging.
fn record_replay_cycle(executor: ExecutorKind) -> bool {
    let run = |policy: Arc<dyn mim_mpisim::SchedulePolicy>| {
        let cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(2))
            .with_executor(executor)
            .with_schedule_policy(policy);
        Universe::new(cfg).launch(|rank| {
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
        })
    };
    let probe = Arc::new(RecordingPolicy::canonical());
    run(probe.clone());
    let Some(first_w) = probe.recs().iter().position(|r| r.kind == 'w') else {
        return false;
    };
    let mut script = vec![0; first_w];
    script.push(1);
    let rec = Arc::new(RecordingPolicy::scripted(script));
    let tags = run(rec.clone());
    let rep = Arc::new(ReplayPolicy::from_log(&rec.log()).expect("a recorded log parses"));
    tags[0] == [6, 5] && run(rep.clone()) == tags && rep.divergence().is_none()
}

/// The replay contract holds whatever engine a policed config requests: a
/// schedule policy runs the single-worker tasks engine, so which questions
/// a run asks, and how many, depends on the answers alone.  A decision
/// count that depends on OS-thread timing shows in under one cycle in a
/// hundred, so each engine runs a thousand cycles, four at a time: rank
/// threads then contend for cores as they do on a busy test runner.
#[test]
fn decision_logs_replay_whatever_executor_is_requested() {
    if !mim_util::fiber::SUPPORTED {
        return;
    }
    const CYCLES: usize = 1000;
    const LANES: usize = 4;
    let failed = [ExecutorKind::Threads, ExecutorKind::Tasks].map(|kind| {
        let lane = move || (0..CYCLES / LANES).filter(|_| !record_replay_cycle(kind)).count();
        let n: usize = std::thread::scope(|s| {
            let lanes: Vec<_> = (0..LANES).map(|_| s.spawn(lane)).collect();
            lanes.into_iter().map(|h| h.join().expect("a cycle panicked")).sum()
        });
        (kind, n)
    });
    assert!(
        failed.iter().all(|&(_, n)| n == 0),
        "failed record → replay cycles, of {CYCLES} per engine: {failed:?}"
    );
    let cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(2))
        .with_executor(ExecutorKind::Threads)
        .with_schedule_policy(Arc::new(CanonicalPolicy));
    assert_eq!(
        Universe::new(cfg).config().executor,
        ExecutorKind::Tasks,
        "a schedule policy must select the tasks engine"
    );
}

/// One seeded random plan: 2–6 ranks, 0–2 sub-communicators, 0–2 windows,
/// up to 24 events.  An event is a message (send and receive pushed in
/// that order, either side occasionally dropped, the receive 30 %
/// `ANY_SOURCE` / 25 % `ANY_TAG`), a collective over a communicator (one
/// member occasionally absent, or disagreeing on kind or root), a
/// one-sided access, or — with `fences` — a fence over a window (one member
/// occasionally absent).  Always well-formed; a pure function of `seed`.
fn random_plan(seed: u64, fences: bool) -> Program {
    const KINDS: [(CollKind, bool); 4] = [
        (CollKind::Barrier, false),
        (CollKind::Allreduce, false),
        (CollKind::Bcast, true),
        (CollKind::Gather, true),
    ];
    let mut g = Gen::from_seed(seed);
    let n = g.gen_range(2usize..7);
    let mut p = Program::new(format!("random-{seed}"), n);
    let mut comms: Vec<CommId> = vec![WORLD];
    for _ in 0..g.gen_range(0usize..3) {
        let mut members: Vec<usize> = (0..n).filter(|_| g.any_bool()).collect();
        if members.len() < 2 {
            members = vec![0, n - 1];
        }
        comms.push(p.add_comm(members));
    }
    let wins: Vec<WinId> =
        (0..g.gen_range(0usize..3)).map(|_| p.add_window(*g.choose(&comms))).collect();
    for _ in 0..g.gen_range(0usize..25) {
        // 60 % messages, 18 % collectives, 22 % window events (12 % accesses,
        // 10 % fences) — messages instead where the plan has no window.
        let roll = g.gen_range(0u32..100);
        if roll < 60 || wins.is_empty() && roll >= 78 {
            let comm = *g.choose(&comms);
            let members = p.comm_members(comm).expect("registered above").to_vec();
            let (src, dst) = (*g.choose(&members), *g.choose(&members));
            let tag = g.gen_range(0u32..3);
            if !g.gen_bool(0.06) {
                p.push(src, Op::Send { comm, dst, tag, bytes: 8 << g.gen_range(0u32..4) });
            }
            if !g.gen_bool(0.06) {
                let src = if g.gen_bool(0.30) { Src::Any } else { Src::Rank(src) };
                let tag = if g.gen_bool(0.25) { Tag::Any } else { Tag::Is(tag) };
                p.push(dst, Op::Recv { comm, src, tag });
            }
        } else if roll < 78 {
            let comm = *g.choose(&comms);
            let members = p.comm_members(comm).expect("registered above").to_vec();
            let (kind, rooted) = *g.choose(&KINDS);
            let root = rooted.then(|| *g.choose(&members));
            // One member may go missing, or disagree on kind or root.
            let odd = g.gen_bool(0.12).then(|| (*g.choose(&members), g.gen_range(0u32..3)));
            for &m in &members {
                let op = match odd {
                    Some((o, 0)) if o == m => continue,
                    Some((o, 1)) if o == m => Op::Coll { comm, kind: CollKind::Scan, root: None },
                    Some((o, _)) if o == m && rooted => {
                        Op::Coll { comm, kind, root: Some(*g.choose(&members)) }
                    }
                    _ => Op::Coll { comm, kind, root },
                };
                p.push(m, op);
            }
        } else {
            let win = *g.choose(&wins);
            let comm = p.win_comm(win).expect("registered above");
            let members = p.comm_members(comm).expect("registered above").to_vec();
            if fences && roll >= 90 {
                let absent = g.gen_bool(0.12).then(|| *g.choose(&members));
                for &m in members.iter().filter(|&&m| Some(m) != absent) {
                    p.push(m, Op::Fence { win });
                }
            } else {
                let (origin, target) = (*g.choose(&members), *g.choose(&members));
                let (offset, bytes) = (8 * g.gen_range(0u64..4), 8 * g.gen_range(1u64..3));
                p.push(
                    origin,
                    match g.gen_range(0u32..3) {
                        0 => Op::Put { win, target, offset, bytes },
                        1 => Op::Get { win, target, offset, bytes },
                        _ => Op::Accumulate { win, target, offset, bytes },
                    },
                );
            }
        }
    }
    p
}

/// FNV-1a over a byte stream, one string at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // A separator no report or trace line contains, so line boundaries
        // are part of the digest.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Plans per golden corpus.
const GOLDEN_PLANS: u64 = 6000;

/// Golden FNV-1a digest of the analyzer's full JSON report over
/// [`GOLDEN_PLANS`] seeded random plans, fences included.  The value was
/// taken at PR 19 (a1b15f2) from the replay and happens-before pass that
/// each kept their own copy of the matching and barrier rules; `interp.rs`
/// replaced both copies and must reproduce every verdict, diagnostic,
/// channel total and independence map byte for byte.
#[test]
fn analyzer_reports_are_pinned_on_random_plans() {
    let mut h = Fnv::new();
    let (mut free, mut definite, mut potential) = (0, 0, 0);
    let (mut deterministic, mut sensitive) = (0, 0);
    for seed in 0..GOLDEN_PLANS {
        let report = analyze_program(&random_plan(seed, true));
        match report.verdict {
            Verdict::DeadlockFree => free += 1,
            Verdict::DefiniteDeadlock { .. } => definite += 1,
            Verdict::PotentialDeadlock { .. } => potential += 1,
            Verdict::Malformed => panic!("seed {seed}: the generator emitted a malformed plan"),
        }
        match report.determinism {
            Determinism::Deterministic => deterministic += 1,
            Determinism::SchedSensitive { .. } => sensitive += 1,
            Determinism::Unknown => panic!("seed {seed}: no determinism verdict"),
        }
        h.fold(&report.to_json());
    }
    // The corpus is not degenerate: every verdict the digest is meant to
    // pin occurs often.
    for (what, count) in [
        ("deadlock_free", free),
        ("definite_deadlock", definite),
        ("potential_deadlock", potential),
        ("deterministic", deterministic),
        ("sched_sensitive", sensitive),
    ] {
        assert!(count >= 100, "only {count} {what} plans in the corpus");
    }
    assert_eq!(h.0, 0x8e64_7ff2_d965_775b, "an analyzer report changed");
}

/// Golden FNV-1a digest of the model executor's observable behaviour —
/// normalized trace, stuck dump, decision log and each decision's
/// persistent set — over [`GOLDEN_PLANS`] fence-free random plans, each run
/// unpruned and with the analyzer's independence map, under a seeded random
/// policy.  Taken at PR 19 (a1b15f2) from the model's own inbox and barrier
/// bookkeeping, which `interp.rs` replaced.  Fence-free because fences are
/// the one place the model's rule changed (a fence now synchronizes with
/// its own window only; `definite_deadlocks_are_realized` holds that).
#[test]
fn model_runs_are_pinned_on_random_plans() {
    let mut h = Fnv::new();
    let (mut wedged, mut decisions) = (0, 0);
    for seed in 0..GOLDEN_PLANS {
        let p = random_plan(seed, false);
        let report = analyze_program(&p);
        for imap in [None, Some(&report.independence)] {
            let policy = RecordingPolicy::random(Vec::new(), seed);
            let out = run_model(&p, &policy, None, imap).unwrap();
            for line in &out.trace {
                h.fold(line);
            }
            for line in out.stuck.iter().flatten() {
                h.fold(line);
            }
            h.fold(&policy.log());
            for rec in policy.recs() {
                h.fold(&format!("{:?}", rec.alts));
            }
            wedged += usize::from(out.deadlocked());
            decisions += policy.recs().len();
        }
    }
    assert!(wedged >= 100 && decisions >= 10_000, "{wedged} wedged runs, {decisions} decisions");
    assert_eq!(h.0, 0x56e2_f207_acc2_d4a1, "a model run changed");
}
