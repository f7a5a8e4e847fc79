//! `mim-bench` — the harness that regenerates every table and figure of the
//! paper's evaluation section.  One binary per experiment:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig2_counters` | Fig 2 (time series) + Fig 3 (cumulative): HW counters vs introspection |
//! | `fig4_overhead` | Fig 4: monitoring overhead with 95% CIs |
//! | `fig5_collectives` | Fig 5a/5b: reduce & bcast optimization sweeps |
//! | `fig6_heatmap` | Fig 6: reordering-gain heatmap |
//! | `fig7_cg` | Fig 7a/7b: NAS CG reordering gains |
//! | `table1_treematch` | Table 1: TreeMatch time for large matrices |
//!
//! Each binary prints its table/series and writes CSVs into `results/`
//! (override with `MIM_RESULTS_DIR`).  Set `MIM_QUICK=1` to shrink the
//! sweeps for a fast smoke run.
//!
//! The repository's benchmark is `mim-ledger/` (with `BENCHMARK.json`), not
//! this crate.  What the ledger has no twin for is a test: the
//! `seam_overhead` test (`#[ignore]`d, release) holds the disabled trace
//! and fault-injector seams to in-run ratios against seam-free carriers.
//! The collective-algorithm makespans DESIGN.md §4 cites are a
//! `mim-mpisim` unit test
//! (`schedule::tests::design_ablation_makespans_are_pinned`).

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use mim_analyze::Program;
use mim_apps::builtin::{built_in, Shape, PLANS};
use mim_explore::plans::{wildcard_clean, wildcard_race};

pub use mim_util::quick_mode;

/// Pick between the full and the quick variant of a sweep.
pub fn sweep<T: Clone>(full: &[T], quick: &[T]) -> Vec<T> {
    if quick_mode() {
        quick.to_vec()
    } else {
        full.to_vec()
    }
}

/// The wildcard demo plans the built-in table does not know.  Both plan
/// CLIs (`mim-analyze`, `mim-explore`) accept them by name, so the two
/// tools' verdicts can be compared on the same programs.
pub const WILDCARD_PLANS: &[&str] = &["wildcard_race", "wildcard_clean"];

/// Resolve a CLI plan name through the shared built-in table plus the
/// wildcard demo plans (each defined from a smallest `--n` up).
pub fn resolve(name: &str, s: &Shape) -> Result<Program, String> {
    let (floor, plan): (usize, fn(usize) -> Program) = match name {
        "wildcard_race" => (3, wildcard_race),
        "wildcard_clean" => (2, wildcard_clean),
        other => return built_in(other, s),
    };
    if s.n < floor {
        return Err(format!("{name} needs --n >= {floor}, got {}", s.n));
    }
    Ok(plan(s.n))
}

/// What every plan tool's command line carries: the plan, its shape and
/// the output switches.
pub struct PlanArgs {
    /// The named plan, when one was given.
    pub plan: Option<String>,
    /// `--n`, `--root`, `--bytes`, `--seg` (default `bytes / 4`).
    pub shape: Shape,
    /// `--all`: every plan of the table.
    pub all: bool,
    /// `--json`.
    pub json: bool,
    /// `--quiet`.
    pub quiet: bool,
}

fn num<N: FromStr<Err: Display>>(flag: &str, raw: String) -> Result<N, String> {
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The front-end of the plan tools (`mim-analyze`, `mim-explore`): parses
/// the plan name, the shape and the common switches, hands every other
/// flag to `flag` (which takes the flag's operand, if it has one, from the
/// closure it is given and says whether the flag was its own), answers
/// `--list`, then calls `run` and turns its result into the exit status —
/// 0 clean, 1 problems found, 2 usage error (an empty message prints
/// `usage`), 3 a replay that diverged from its witness.
pub fn plan_cli<T>(
    tool: &str,
    usage: &str,
    mut own: T,
    flag: impl Fn(&mut T, &str, &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>,
    run: impl FnOnce(&PlanArgs, T) -> Result<bool, String>,
) -> ExitCode {
    let parse_and_run = || {
        let mut a = PlanArgs {
            plan: None,
            shape: Shape { n: 8, root: 0, bytes: 4096, seg: 0 },
            all: false,
            json: false,
            quiet: false,
        };
        let mut list = false;
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--help" | "-h" => return Err(String::new()),
                "--list" => list = true,
                "--all" => a.all = true,
                "--json" => a.json = true,
                "--quiet" => a.quiet = true,
                "--n" => a.shape.n = num(&arg, value()?)?,
                "--root" => a.shape.root = num(&arg, value()?)?,
                "--bytes" => a.shape.bytes = num(&arg, value()?)?,
                "--seg" => a.shape.seg = num(&arg, value()?)?,
                _ if flag(&mut own, &arg, &mut value)? => {}
                _ if arg.starts_with('-') => return Err(format!("unknown flag '{arg}'")),
                _ if a.plan.is_none() => a.plan = Some(arg),
                _ => return Err(format!("unexpected argument '{arg}'")),
            }
        }
        if a.shape.seg == 0 {
            a.shape.seg = (a.shape.bytes / 4).max(1);
        }
        if list {
            for p in PLANS.iter().chain(WILDCARD_PLANS) {
                println!("{p}");
            }
            return Ok(true);
        }
        run(&a, own)
    };
    match parse_and_run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) if msg.is_empty() => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
        Err(msg) => {
            eprintln!("{tool}: {msg}");
            ExitCode::from(if msg.starts_with("replay diverged") { 3 } else { 2 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_picks_by_mode() {
        // Cannot portably mutate the env in parallel tests; just check the
        // non-quick shape.
        if !quick_mode() {
            assert_eq!(sweep(&[1, 2, 3], &[1]), vec![1, 2, 3]);
        }
    }
}
