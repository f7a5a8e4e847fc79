//! `mim-analyze` — static communication-graph verification from the command
//! line.
//!
//! Analyzes a named built-in plan (collective schedule generators and app
//! kernels) or a JSON plan description, and prints the report as
//! human-readable text or JSON.  Exit status: 0 when the plan is clean and
//! deadlock-free, 1 when the analyzer found problems, 2 on usage errors.
//!
//! ```text
//! mim-analyze bcast_binomial --n 48 --root 3 --bytes 65536
//! mim-analyze --plan-file plan.json --json
//! mim-analyze --all --n 192
//! ```

use std::process::ExitCode;

use mim_analyze::{analyze_program, program_from_json, Report, Verdict};
use mim_apps::builtin::{built_in, PLANS};
use mim_bench::{plan_cli, resolve, PlanArgs};

const USAGE: &str = "usage: mim-analyze <plan> [options]
       mim-analyze --plan-file <file.json> [--json]
       mim-analyze --all [options]
       mim-analyze --list

options:
  --n <ranks>      number of ranks            (default 8)
  --root <rank>    root for rooted plans      (default 0)
  --bytes <bytes>  payload size               (default 4096)
  --seg <bytes>    segment size for segmented plans (default bytes/4)
  --races          also print the per-site happens-before race breakdown
  --json           emit the JSON report instead of text
  --quiet          only set the exit status, print nothing on success

exit status: 0 clean, 1 problems found, 2 usage error";

/// The `--races` pretty-mode breakdown: one line per wildcard receive site
/// with its static classification.
fn print_races(report: &Report) {
    println!(
        "races: {} wildcard site(s), {} hb edge(s)",
        report.independence.wildcard_sites(),
        report.independence.hb_edges
    );
    for &(rank, step) in &report.independence.benign {
        println!("  rank {rank} step {step}: benign (reorderings cannot change the outcome)");
    }
    for &(rank, step) in &report.independence.racy {
        println!("  rank {rank} step {step}: racy (schedule chooses the match)");
    }
}

fn emit(report: &Report, races: bool, json: bool, quiet: bool) -> bool {
    let clean = report.is_clean() && matches!(report.verdict, Verdict::DeadlockFree);
    if json {
        println!("{}", report.to_json());
    } else if !quiet || !clean {
        println!("{report}");
        if races {
            print_races(report);
        }
    }
    clean
}

/// The flags only this tool has.
#[derive(Default)]
struct Own {
    plan_file: Option<String>,
    races: bool,
}

fn own_flag(
    own: &mut Own,
    flag: &str,
    value: &mut dyn FnMut() -> Result<String, String>,
) -> Result<bool, String> {
    match flag {
        "--races" => own.races = true,
        "--plan-file" => own.plan_file = Some(value()?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn run(args: &PlanArgs, own: Own) -> Result<bool, String> {
    let PlanArgs { shape, json, quiet, .. } = *args;
    let races = own.races;
    if shape.n == 0 {
        return Err("--n must be at least 1".into());
    }
    if let Some(path) = own.plan_file {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let program = program_from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(emit(&analyze_program(&program), races, json, quiet));
    }
    if args.all {
        let mut clean = true;
        let mut reports = Vec::new();
        for name in PLANS {
            let report = analyze_program(&built_in(name, &shape)?);
            if json {
                reports.push(report.to_json());
            } else {
                let status = if report.is_clean() { "ok" } else { "FAIL" };
                println!(
                    "{status:4} {:10} {:14} {} ({} ranks, {} ops)",
                    report.verdict.kind(),
                    report.determinism.kind(),
                    report.plan,
                    report.nranks,
                    report.total_ops
                );
                if !report.is_clean() {
                    for d in &report.diags {
                        println!("     {d}");
                    }
                }
            }
            clean &= report.is_clean() && matches!(report.verdict, Verdict::DeadlockFree);
        }
        if json {
            println!("{{\"schema\":\"mim-analyze-batch-v2\",\"reports\":[{}]}}", reports.join(","));
        }
        return Ok(clean);
    }
    match &args.plan {
        Some(name) => Ok(emit(&analyze_program(&resolve(name, &shape)?), races, json, quiet)),
        None => Err(String::new()),
    }
}

fn main() -> ExitCode {
    plan_cli("mim-analyze", USAGE, Own::default(), own_flag, run)
}
