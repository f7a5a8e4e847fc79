//! Cross-validation properties (satellite S4): exploration agrees with the
//! static analyzer on every built-in plan, realizes the analyzer's
//! definite deadlocks as concrete schedules, emits witnesses that replay
//! byte-for-byte — and its decision logs drive the *live* runtime's
//! scheduling seams, not just the model executor.

use std::sync::Arc;

use mim_analyze::{analyze_program, Op, Program, Src, Tag, Verdict, WORLD};
use mim_apps::builtin::{built_in, Shape, PLANS};
use mim_explore::plans::{wildcard_clean, wildcard_race};
use mim_explore::{
    explore, replay, run_model, Budget, Outcome, RecordingPolicy, ReplayPolicy, Witness,
};
use mim_mpisim::{SrcSel, TagSel, Universe, UniverseConfig};
use mim_topology::{Machine, Placement};
use mim_util::props;
use mim_util::rng::splitmix64;

fn quick() -> bool {
    std::env::var_os("MIM_QUICK").is_some()
}

props! {
    /// Every analyzer `DeadlockFree` verdict holds under exploration AND
    /// under a burst of random schedules: the 15 built-in plans complete
    /// on every schedule the budget reaches.
    fn deadlock_free_plans_survive_random_schedules(g, cases = 6) {
        let n = g.gen_range(2usize..if quick() { 5 } else { 9 });
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
        let mut p = Program::new("cycle", k);
        for r in 0..k {
            p.push(r, Op::Recv { comm: WORLD, src: Src::Rank((r + k - 1) % k), tag: Tag::Is(0) });
            p.push(r, Op::Send { comm: WORLD, dst: (r + 1) % k, tag: 0, bytes: 8 });
        }
        let report = analyze_program(&p);
        assert!(matches!(report.verdict, Verdict::DefiniteDeadlock { .. }), "{:?}", report.verdict);
        let budget = Budget { max_schedules: 16, random: 0, seed: g.next_u64() };
        let Outcome::DefiniteDeadlock { witness, schedules } = explore(&p, &budget, None).unwrap() else {
            panic!("explorer missed the analyzer's definite deadlock");
        };
        assert_eq!(schedules, 1, "a wildcard-free wedge must show on the canonical schedule");
        assert_eq!(witness.stuck.len(), k, "every rank is blocked");
        replay(&p, &witness).unwrap();
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
        let n = g.gen_range(2usize..if quick() { 5 } else { 8 });
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
