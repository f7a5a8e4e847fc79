//! `mim-explore` — deterministic schedule exploration from the command
//! line: upgrade the static analyzer's `PotentialDeadlock` verdicts to
//! concrete, replayable ones.
//!
//! ```text
//! mim-explore wildcard_race --n 4 --witness w.json
//! mim-explore --replay w.json
//! mim-explore --all --n 8
//! ```
//!
//! Exit status: 0 when every explored schedule completed (or a replay
//! reproduced its witness byte-for-byte), 1 when exploration found a
//! deadlock, 2 on usage errors, 3 when a replay diverged from its witness.

use std::process::ExitCode;

use mim_analyze::{analyze_program, Determinism, Program};
use mim_apps::builtin::{Shape, PLANS};
use mim_bench::{plan_cli, resolve, PlanArgs, WILDCARD_PLANS};
use mim_explore::{explore, replay, Budget, Outcome, Witness};

const USAGE: &str = "usage: mim-explore <plan> [options]
       mim-explore --replay <witness.json>
       mim-explore --all [options]
       mim-explore --list

options:
  --n <ranks>       number of ranks                     (default 8)
  --root <rank>     root for rooted plans               (default 0)
  --bytes <bytes>   payload size                        (default 4096)
  --seg <bytes>     segment size for segmented plans    (default bytes/4)
  --schedules <k>   DFS schedule budget                 (default 256)
  --random <k>      random schedules past the budget    (default 16)
  --seed <s>        base seed for the random phase      (default 24301)
  --witness <file>  write the deadlock witness JSON here
  --json            emit a JSON report instead of text
  --quiet           only set the exit status on success

exit status: 0 every schedule clean (or replay reproduced its witness),
             1 deadlock witnessed, 2 usage error, 3 replay diverged";

/// Cross-check the static determinism verdict against both exploration
/// passes.  Any violation is an internal error (exit 2), never a verdict.
fn check_consistency(
    name: &str,
    analyzer: &str,
    determinism: &Determinism,
    pruned: &Outcome,
    unpruned: &Outcome,
) -> Result<(), String> {
    let deterministic = matches!(determinism, Determinism::Deterministic);
    match (pruned, unpruned) {
        (Outcome::DefiniteDeadlock { .. }, Outcome::ExploredClean { .. })
        | (Outcome::ExploredClean { .. }, Outcome::DefiniteDeadlock { .. }) => {
            return Err(format!(
                "{name}: pruned and unpruned exploration disagree on the outcome \
                 (pruning changed an answer)"
            ));
        }
        (
            Outcome::DefiniteDeadlock { witness: a, .. },
            Outcome::DefiniteDeadlock { witness: b, .. },
        ) => {
            if a != b {
                return Err(format!(
                    "{name}: pruned and unpruned exploration found different witnesses"
                ));
            }
        }
        (Outcome::ExploredClean { .. }, Outcome::ExploredClean { .. }) => {}
    }
    if pruned.schedules() > unpruned.schedules() {
        return Err(format!(
            "{name}: pruned exploration ran more schedules ({}) than unpruned ({})",
            pruned.schedules(),
            unpruned.schedules()
        ));
    }
    if deterministic {
        // A statically deterministic plan has one behavior: a witness is
        // only admissible when the analyzer already proved the deadlock,
        // and the pruned DFS must decide in a single schedule.
        if matches!(pruned, Outcome::DefiniteDeadlock { .. }) && analyzer != "definite_deadlock" {
            return Err(format!(
                "{name}: statically deterministic yet exploration produced a witness \
                 the analyzer did not predict"
            ));
        }
        if pruned.schedules() != 1 {
            return Err(format!(
                "{name}: statically deterministic yet pruned exploration needed {} schedules",
                pruned.schedules()
            ));
        }
    }
    Ok(())
}

/// Explore one plan; returns whether it stayed clean.  `name` is the CLI
/// plan name (what `--replay` resolves), which can differ from the
/// program's own display name.
///
/// The plan is explored twice: once consuming the analyzer's static
/// independence map (benign wildcard sites never seed backtrack points)
/// and once unpruned.  The two passes — and the static determinism
/// verdict — must agree, or the run fails loudly: pruning that changes an
/// answer is a soundness bug, not a speedup.
fn run_plan(
    name: &str,
    program: &Program,
    budget: &Budget,
    witness_path: Option<&str>,
    shape: &Shape,
    json: bool,
    quiet: bool,
) -> Result<bool, String> {
    let report = analyze_program(program);
    let analyzer = report.verdict.kind();
    let determinism = report.determinism.kind();
    let outcome = explore(program, budget, Some(&report.independence))?;
    let unpruned = explore(program, budget, None)?;
    check_consistency(name, analyzer, &report.determinism, &outcome, &unpruned)?;
    let schedules_unpruned = unpruned.schedules();
    match &outcome {
        Outcome::DefiniteDeadlock { witness, schedules } => {
            let mut w = (**witness).clone();
            w.plan = name.to_string();
            w.shape = Some((shape.n, shape.root, shape.bytes, shape.seg));
            // A witness that does not replay is a bug, not a result:
            // self-verify before reporting or writing anything.
            replay(program, &w).map_err(|e| format!("witness failed self-replay: {e}"))?;
            if let Some(path) = witness_path {
                std::fs::write(path, w.to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            if json {
                println!(
                    "{{\"schema\":\"mim-explore-report-v2\",\"plan\":{},\"analyzer\":\"{analyzer}\",\
                     \"determinism\":\"{determinism}\",\"outcome\":\"definite_deadlock\",\
                     \"schedules\":{schedules},\"schedules_unpruned\":{schedules_unpruned},\
                     \"witness\":{}}}",
                    mim_analyze::diag::json_string(name),
                    w.to_json()
                );
            } else {
                println!(
                    "plan {} ({} ranks, {} ops): analyzer said {analyzer}, {determinism}",
                    program.name(),
                    program.nranks(),
                    program.total_ops()
                );
                println!(
                    "DEADLOCK at schedule {} of {schedules} (decision log: {})",
                    w.schedule,
                    if w.decisions.is_empty() { "<empty>" } else { &w.decisions }
                );
                for line in &w.stuck {
                    println!("  {line}");
                }
                match witness_path {
                    Some(path) => println!("witness written to {path} (replay with --replay)"),
                    None => println!("re-run with --witness <file> to save a replayable witness"),
                }
            }
            Ok(false)
        }
        Outcome::ExploredClean { schedules, exhaustive } => {
            let how = if *exhaustive { "exhaustive" } else { "budget-bounded" };
            if json {
                println!(
                    "{{\"schema\":\"mim-explore-report-v2\",\"plan\":{},\"analyzer\":\"{analyzer}\",\
                     \"determinism\":\"{determinism}\",\"outcome\":\"explored_clean\",\
                     \"schedules\":{schedules},\"schedules_unpruned\":{schedules_unpruned},\
                     \"exhaustive\":{exhaustive}}}",
                    mim_analyze::diag::json_string(name)
                );
            } else if !quiet {
                println!(
                    "plan {} ({} ranks, {} ops): analyzer said {analyzer}, {determinism}; \
                     {schedules} of {schedules_unpruned} unpruned schedules explored clean ({how})",
                    program.name(),
                    program.nranks(),
                    program.total_ops()
                );
            }
            Ok(true)
        }
    }
}

fn run_replay(path: &str, quiet: bool) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let witness = Witness::from_json(&text)?;
    let shape = match witness.shape {
        Some((n, root, bytes, seg)) => Shape { n, root, bytes, seg },
        None => Shape { n: witness.nranks, ..Shape::default() },
    };
    let program = resolve(&witness.plan, &shape)?;
    let out = replay(&program, &witness)?;
    if !quiet {
        println!(
            "replay of {} reproduced the stuck state byte-for-byte \
             ({} trace lines, {} ranks blocked, schedule {} under seed {})",
            witness.plan,
            out.trace.len(),
            witness.stuck.len(),
            witness.schedule,
            witness.seed
        );
    }
    Ok(true)
}

/// The flags only this tool has.
struct Own {
    replay_path: Option<String>,
    witness_path: Option<String>,
    budget: Budget,
}

fn own_flag(
    own: &mut Own,
    flag: &str,
    value: &mut dyn FnMut() -> Result<String, String>,
) -> Result<bool, String> {
    let mut count = || value()?.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
    match flag {
        "--schedules" => own.budget.max_schedules = count()?,
        "--random" => own.budget.random = count()?,
        "--seed" => own.budget.seed = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
        "--replay" => own.replay_path = Some(value()?),
        "--witness" => own.witness_path = Some(value()?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn run(args: &PlanArgs, own: Own) -> Result<bool, String> {
    let PlanArgs { shape, json, quiet, .. } = *args;
    let budget = own.budget;
    if budget.max_schedules == 0 {
        return Err("--schedules must be at least 1".into());
    }
    if let Some(path) = own.replay_path {
        return run_replay(&path, quiet);
    }
    if args.all {
        let mut clean = true;
        for name in PLANS.iter().chain(WILDCARD_PLANS) {
            let shape = Shape {
                // The wildcard demos are defined for small n; clamp so
                // --all works at any --n.
                n: if *name == "wildcard_race" { shape.n.max(3) } else { shape.n.max(2) },
                ..shape
            };
            let program = resolve(name, &shape)?;
            clean &= run_plan(name, &program, &budget, None, &shape, json, quiet)?;
        }
        return Ok(clean);
    }
    match &args.plan {
        Some(name) => {
            let program = resolve(name, &shape)?;
            run_plan(name, &program, &budget, own.witness_path.as_deref(), &shape, json, quiet)
        }
        None => Err(String::new()),
    }
}

fn main() -> ExitCode {
    let own = Own {
        replay_path: None,
        witness_path: None,
        budget: Budget { seed: 24301, ..Budget::default() },
    };
    plan_cli("mim-explore", USAGE, own, own_flag, run)
}
