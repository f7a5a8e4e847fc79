//! The determinism contract over the example scenarios: under a fixed
//! seed, what a scenario prints and its normalised trace
//! ([`TraceDigest`]) are byte-identical across runs, across the threads
//! and tasks engines, and across the tasks engine's worker counts.
//!
//! Under the tasks engine the chaos plans' retry timers, duplicate
//! deliveries and scheduled crash fire against *parked tasks*, and
//! `elastic_stencil` adds the per-slot driver's restart loop and a latent
//! slot waiting for its admission in its own mailbox, so these pin the
//! park/unpark protocol, not just the happy path.  Three workers split the ranks
//! unevenly across their home queues.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mim_apps::scenario::{self, Chaos, Transcript};
use mim_mpisim::trace::{TraceData, TraceDigest, Tracer};
use mim_mpisim::ExecutorKind::{self, Tasks, Threads};
use mim_mpisim::FaultPlan;

/// The seed of both chaos scenarios' built-in plans.
const SEED: u64 = 42;

/// Ring capacity of a run's tracer: ten times the longest track of any
/// scenario here ([`Tracer::digest`] refuses a ring that dropped events).
const RING: usize = 1024;

/// One engine: the executor and, for tasks, `MIM_WORKERS` (`None`: the
/// default count).
type Engine = (ExecutorKind, Option<&'static str>);

/// Threads, then tasks at the default worker count, one worker and three.
const ENGINES: [Engine; 4] =
    [(Threads, None), (Tasks, None), (Tasks, Some("1")), (Tasks, Some("3"))];

/// [`ENGINES`], then threads and tasks at the default count again: a
/// replay on one engine, besides agreement between engines.
fn twice() -> Vec<Engine> {
    [&ENGINES[..], &ENGINES[..2]].concat()
}

/// Held for the length of every run: `MIM_WORKERS` and `MIM_DEADLINE_MS`
/// are process-wide, and a universe reads them when it is built.
static ENV: Mutex<()> = Mutex::new(());

type Scenario<'a> = &'a dyn Fn(ExecutorKind, Option<Arc<Tracer>>) -> Transcript;

/// One run: what it printed, its trace's digest, and the tracer (to count
/// events in).
struct Run {
    text: String,
    trace: TraceDigest,
    tracer: Arc<Tracer>,
}

impl Run {
    /// The run's trace events that `pick` selects.
    fn count(&self, pick: impl Fn(&TraceData) -> bool) -> usize {
        self.tracer.snapshot().iter().flat_map(|(_, evs)| evs).filter(|e| pick(&e.data)).count()
    }
}

fn run(scenario: Scenario, (kind, workers): Engine) -> Run {
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    match workers {
        Some(w) => std::env::set_var("MIM_WORKERS", w),
        None => std::env::remove_var("MIM_WORKERS"),
    }
    let tracer = Tracer::new(RING);
    let out = scenario(kind, Some(Arc::clone(&tracer)));
    std::env::remove_var("MIM_WORKERS");
    assert_eq!(
        out.exec_stats.is_some(),
        kind == Tasks,
        "a {kind:?} run ran on the other engine (a silent fallback?)"
    );
    Run { text: out.text, trace: tracer.digest(), tracer }
}

/// Runs `scenario` on each of `engines` and asserts that every run printed
/// the first run's text and left its trace digest; returns the first run.
fn replay(scenario: Scenario, engines: &[Engine]) -> Run {
    let first = run(scenario, engines[0]);
    for &engine in &engines[1..] {
        let again = run(scenario, engine);
        assert_eq!(again.text, first.text, "stdout of {engine:?} diverged from {:?}", engines[0]);
        assert_eq!(
            again.trace, first.trace,
            "normalised trace of {engine:?} diverged from {:?}",
            engines[0]
        );
    }
    first
}

fn assert_markers(run: &Run, markers: &[&str]) {
    for marker in markers {
        assert!(run.text.contains(marker), "stdout is missing {marker:?}:\n{}", run.text);
    }
}

#[test]
fn quickstart_is_the_same_on_every_engine() {
    replay(&scenario::quickstart, &ENGINES);
}

/// Crash detection, seven survivors and shrink-and-remap, twice per engine.
#[test]
fn chaos_stencil_replays_byte_identically() {
    let chaos = |kind, tracer| scenario::chaos_stencil(kind, tracer, Chaos::Builtin(SEED));
    let first = replay(&chaos, &twice());
    assert_markers(
        &first,
        &["rank 3: DEAD", "survivors: 7/8", "recovered by shrink-and-remap; all checks passed"],
    );
    // A 10% drop plan must retry.
    assert!(first.count(|e| matches!(e, TraceData::Retry { .. })) >= 1);
    assert_eq!(first.count(|e| matches!(e, TraceData::RankCrash { .. })), 1);
}

/// Rolling restart of rank 3, readmission, a latent slot joining and a
/// 9-rank window matrix, twice per engine.
#[test]
fn elastic_stencil_replays_byte_identically() {
    let elastic = |kind, tracer| scenario::elastic_stencil(kind, tracer, Chaos::Builtin(SEED));
    let first = replay(&elastic, &twice());
    assert_markers(
        &first,
        &[
            "slot 3: reborn inc=1",
            "slot 8: joiner",
            "stale_send=[epoch 2 rejected at 3]",
            "scale-out to 9 ranks converged; all checks passed",
        ],
    );
    assert_eq!(first.count(|e| matches!(e, TraceData::RankCrash { .. })), 1);
    assert_eq!(first.count(|e| matches!(e, TraceData::RankJoin { incarnation: 1 })), 1, "rebirth");
    assert_eq!(first.count(|e| matches!(e, TraceData::RankJoin { incarnation: 0 })), 1, "joiner");
    // 7 survivors x (shrink + grow) + 8 members x scale-out grow; the
    // reborn and latent ranks receive their epochs by admission notice,
    // which does not re-record the bump.
    assert!(first.count(|e| matches!(e, TraceData::EpochBump { .. })) >= 3);
}

/// A custom plan that never restarts the victim is refused before launch,
/// by name, instead of leaving every survivor in `await_rejoin` until the
/// deadlock detector fires with an unrelated message.
#[test]
fn elastic_stencil_rejects_a_plan_without_the_victims_restart() {
    const DEADLINE_MS: u64 = 200;
    // The plan README gives for `chaos_stencil`: rank 3 crashes for good.
    let plan =
        FaultPlan::parse(SEED, "drop=0.1,dup=0.05,delay=0.2:500,degrade=0-3:0.25,crash=3@ops:18");
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("MIM_DEADLINE_MS", DEADLINE_MS.to_string());
    let start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        scenario::elastic_stencil(Threads, None, Chaos::Custom(plan))
    }));
    let elapsed = start.elapsed();
    std::env::remove_var("MIM_DEADLINE_MS");
    let payload = outcome.expect_err("a plan without a restart clause must be refused");
    let msg = payload.downcast_ref::<String>().map_or("<non-string panic>", String::as_str);
    assert!(msg.contains("no `restart=3@ops:N` clause"), "wrong refusal: {msg}");
    assert!(
        elapsed < Duration::from_millis(DEADLINE_MS / 2),
        "refused after {elapsed:?}, not before launch (deadline {DEADLINE_MS} ms)"
    );
}

/// A custom plan that crashes a rank inside `Monitoring::start`'s barrier
/// is refused before launch, naming the clause, instead of leaving the
/// survivors blocked in a barrier that is not failure-aware until the
/// deadlock detector fires.  The barrier's last operation is a receive
/// that only the crashing rank waits on, so a crash just before it is
/// accepted, and the survivors shrink around it as designed.
#[test]
fn chaos_stencil_rejects_a_crash_inside_the_start_barrier() {
    const DEADLINE_MS: u64 = 200;
    let plan = FaultPlan::parse(SEED, "crash=3@ops:3");
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("MIM_DEADLINE_MS", DEADLINE_MS.to_string());
    let start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        scenario::chaos_stencil(Tasks, None, Chaos::Custom(plan))
    }));
    let elapsed = start.elapsed();
    std::env::remove_var("MIM_DEADLINE_MS");
    let payload = outcome.expect_err("a crash inside the start barrier must be refused");
    let msg = payload.downcast_ref::<String>().map_or("<non-string panic>", String::as_str);
    assert!(msg.contains("`crash=3@ops:3` clause"), "wrong refusal: {msg}");
    assert!(msg.contains("Monitoring::start"), "wrong refusal: {msg}");
    assert!(
        elapsed < Duration::from_millis(DEADLINE_MS / 2),
        "refused after {elapsed:?}, not before launch (deadline {DEADLINE_MS} ms)"
    );
    let plan = FaultPlan::parse(SEED, "crash=3@ops:5");
    let out = scenario::chaos_stencil(Tasks, None, Chaos::Custom(plan));
    assert!(out.text.contains("after 5 wire ops"), "{}", out.text);
    assert!(out.text.contains("survivors: 7/8"), "{}", out.text);
}

/// A crash in the reorder loop's failure-aware head — the liveness
/// exchanges and the failure-aware gather — is survived on both engines:
/// the survivors shrink around it within the deadline.  `crash=3@ops:32`
/// is the last survivable point; from op 33 rank 3 dies inside the loop's
/// plain collectives (`bcast`, `comm_split`'s allgather, the closing
/// `allreduce`), which ROADMAP item 17 covers.
#[test]
fn chaos_stencil_survives_a_crash_in_the_failure_aware_head_of_the_loop() {
    const DEADLINE_MS: u64 = 200;
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("MIM_DEADLINE_MS", DEADLINE_MS.to_string());
    let outs: Vec<_> = [Threads, Tasks]
        .into_iter()
        .map(|exec| {
            let plan = FaultPlan::parse(SEED, "crash=3@ops:32");
            let start = Instant::now();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                scenario::chaos_stencil(exec, None, Chaos::Custom(plan))
            }));
            (exec, outcome, start.elapsed())
        })
        .collect();
    std::env::remove_var("MIM_DEADLINE_MS");
    for (exec, outcome, elapsed) in outs {
        let out = outcome.unwrap_or_else(|_| panic!("{exec:?}: a crash at op 32 is survived"));
        assert!(out.text.contains("rank 3: DEAD crashed"), "{exec:?}: {}", out.text);
        assert!(out.text.contains("after 32 wire ops"), "{exec:?}: {}", out.text);
        assert!(out.text.contains("survivors: 7/8"), "{exec:?}: {}", out.text);
        assert!(!out.text.contains("panicked"), "{exec:?}: {}", out.text);
        assert!(
            elapsed < Duration::from_millis(DEADLINE_MS),
            "{exec:?}: survived after {elapsed:?}, the deadline is {DEADLINE_MS} ms"
        );
    }
}

/// The header names the plan that ran, not the built-in one.
#[test]
fn chaos_stencil_header_names_the_custom_plan() {
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = FaultPlan::parse(SEED, "crash=3@ops:5");
    let out = scenario::chaos_stencil(Tasks, None, Chaos::Custom(plan));
    let header = out.text.lines().next().unwrap_or_default();
    assert!(header.ends_with(", crash rank 3 at 5 wire ops"), "{header}");
    let plan = FaultPlan::parse(SEED, "drop=0.1,restart=5@ops:20,crash=2@ops:30");
    let out = scenario::chaos_stencil(Tasks, None, Chaos::Custom(plan));
    let header = out.text.lines().next().unwrap_or_default();
    assert!(
        header.ends_with(", crash rank 2 at 30 wire ops, restart rank 5 at 20 wire ops"),
        "{header}"
    );
}

/// A custom plan that crashes or restarts world rank 0, whose report the
/// transcript's byte matrix comes from, is refused before launch, naming
/// the clause, instead of panicking after the run (a crash) or waiting
/// for the deadline (a restart).
#[test]
fn chaos_stencil_rejects_a_fault_on_world_rank_0() {
    const DEADLINE_MS: u64 = 200;
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    for clause in ["crash=0@ops:5", "restart=0@ops:5"] {
        let plan = FaultPlan::parse(SEED, clause);
        std::env::set_var("MIM_DEADLINE_MS", DEADLINE_MS.to_string());
        let start = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            scenario::chaos_stencil(Tasks, None, Chaos::Custom(plan))
        }));
        let elapsed = start.elapsed();
        std::env::remove_var("MIM_DEADLINE_MS");
        let payload = outcome.expect_err("a fault on world rank 0 must be refused");
        let msg = payload.downcast_ref::<String>().map_or("<non-string panic>", String::as_str);
        assert!(msg.contains(&format!("`{clause}` clause")), "wrong refusal: {msg}");
        assert!(msg.contains("world rank 0"), "wrong refusal: {msg}");
        assert!(
            elapsed < Duration::from_millis(DEADLINE_MS / 2),
            "refused after {elapsed:?}, not before launch (deadline {DEADLINE_MS} ms)"
        );
    }
}
