//! `mim-ledger` — the repository's benchmark: the paper's
//! monitor → gather → TreeMatch → split loop, the Fig 4 overhead protocol,
//! the 10k-rank universe and the offline planner as seven workloads, with
//! end-to-end metrics from untraced repetitions and per-layer attribution
//! from a separate traced run.  See `README.md` beside this package.
//!
//! ```text
//! mim-ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! mim-ledger sweep [--runs R] [--seconds S] [--trace 0|1] [--out DIR]
//! mim-ledger compare A.json B.json
//! mim-ledger            (same as `sweep --runs 1`)
//! ```

mod probes;
mod report;
mod run;
mod span;
mod spec;
mod stats;
mod sweep;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Default workload seed (`--seed`).
pub const DEFAULT_SEED: u64 = 20;
/// Default measuring time per run (`--seconds`), `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Command,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
    pub out: PathBuf,
    /// Internal: set up, report set-up time and memory, and exit.
    pub setup_only: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run,
    Sweep,
    Compare(PathBuf, PathBuf),
}

/// Where results go unless `--out` says otherwise: under the build
/// directory, which is git-ignored.
fn default_out() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("ledger")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Command::Sweep,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: default_out(),
        setup_only: false,
    };
    let mut it = argv.iter();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--runs" => {
                args.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err(format!("--runs must be in 1..=100, got {}", args.runs));
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--setup-only" => args.setup_only = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    args.command = match positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] if args.workload.is_some() => Command::Run,
        [] | ["sweep"] => Command::Sweep,
        ["compare", a, b] => Command::Compare(a.into(), b.into()),
        _ => return Err(format!("unexpected arguments {positional:?}")),
    };
    if let Some(w) = &args.workload {
        if workloads::lookup(w).is_none() {
            let known: Vec<&str> = workloads::TABLE.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w:?}; known: {}", known.join(", ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mim-ledger: {e}");
            eprintln!(
                "usage: mim-ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
                 \x20      mim-ledger sweep [--runs R] [--seconds S] [--trace 0|1] [--out DIR]\n\
                 \x20      mim-ledger compare A.json B.json"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.command {
        Command::Run => run::run(&args),
        Command::Sweep => sweep::sweep(&args),
        Command::Compare(a, b) => sweep::compare(a, b),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mim-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload ring_scale --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("ring_scale"), 7, 3.0, true)
        );
    }

    #[test]
    fn no_arguments_is_a_one_run_sweep() {
        let a = parse("").unwrap();
        assert_eq!((a.command, a.runs, a.seed), (Command::Sweep, 1, DEFAULT_SEED));
        assert_eq!(parse("sweep --runs 10").unwrap().runs, 10);
    }

    #[test]
    fn compare_takes_two_files() {
        assert_eq!(
            parse("compare a.json b.json").unwrap().command,
            Command::Compare("a.json".into(), "b.json".into())
        );
        assert!(parse("compare a.json").is_err());
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2 --workload ring_scale").is_err());
        assert!(parse("--seconds 0 --workload ring_scale").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
