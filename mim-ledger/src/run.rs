//! One run of one workload: set up, warm up, repeat for `--seconds`, check,
//! report.
//!
//! `--trace 0` measures the end-to-end metrics from untraced repetitions,
//! then repeats the set-up in two fresh child processes (one at a time), so
//! `setup_s` and `peak_rss_mb` are medians of three cold starts.
//! `--trace 1` is the separate traced run: untraced and traced repetitions
//! alternate, the spans give the per-layer numbers, their ratio the tracing
//! overhead, and the workload's probes run last.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

use mim_analyze::json::Json;

use crate::report::{self, Host, RunReport};
use crate::spec::{self, Metric, Source};
use crate::stats::median;
use crate::workloads::{self, Mode, Rep, Workload};
use crate::{probes, span, Args};

/// Timed repetitions a run never goes below, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Untraced/traced pairs a traced run never goes below.
const MIN_TRACED_PAIRS: usize = 2;
/// Cold set-ups a run repeats in fresh processes, after its own.
const EXTRA_SETUPS: usize = 2;
/// Wall-clock bound on one blocking receive, the runtime's deadlock
/// detector: far above any repetition (the slowest observed, a 10k-rank
/// launch caught in a page-fault storm, took 7 s), and low enough that a
/// run that does deadlock still reports inside the contract's 180 s.
const DEADLINE_MS: &str = "60000";
/// Harness-timed wall of a whole repetition, by kind; the ratio of the two
/// medians is `ledger.trace_overhead_ratio`.
const TIMED_REP_WALL: &str = "ledger.timed_rep_s";
const TRACED_REP_WALL: &str = "ledger.traced_rep_s";
/// The root span of a traced repetition.
const REP_SPAN: &str = "ledger.rep";

/// Sizing every run shares: the tasks executor on `min(nproc, 4)` workers,
/// a deadlock deadline far above any repetition, and no ambient tracing or
/// engine override leaking in from the caller's environment.
///
/// Returns `(nproc, workers)`.
fn configure_env() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let workers = nproc.min(4);
    std::env::set_var("MIM_WORKERS", workers.to_string());
    std::env::set_var("MIM_DEADLINE_MS", DEADLINE_MS);
    for ambient in ["MIM_TRACE", "MIM_EXECUTOR", "MIM_GATHER_ARITY"] {
        std::env::remove_var(ambient);
    }
    (nproc, workers)
}

/// This process's peak resident set so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&'static str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "opaque panic".into())
}

/// Everything the repetitions of one run produced.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Pooled samples of the untraced repetitions, plus the rep walls.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Exact values; a repetition that disagrees with an earlier one fails.
    exact: BTreeMap<&'static str, f64>,
    /// Digest of the untraced repetitions.
    digest: Option<u64>,
    failures: Vec<String>,
}

impl Tally {
    /// Run one repetition of `w`, a panic included, and take its results in.
    fn rep(&mut self, w: &mut dyn Workload, mode: Mode, timed: bool) {
        let traced = mode == Mode::Traced;
        span::set_enabled(traced);
        let wall = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _g = span::enter(REP_SPAN);
            w.rep(mode)
        }));
        let wall_s = wall.elapsed().as_secs_f64();
        span::set_enabled(false);
        let mut rep = result.unwrap_or_else(|payload| Rep {
            failures: vec![format!("panicked: {}", panic_message(&*payload))],
            ..Rep::default()
        });

        for &(name, value) in &rep.exact {
            let first = *self.exact.entry(name).or_insert(value);
            if first.to_bits() != value.to_bits() {
                rep.failures.push(format!("{name} = {value}, an earlier repetition had {first}"));
            }
        }
        if !traced && rep.failures.is_empty() {
            let first = *self.digest.get_or_insert(rep.digest);
            if first != rep.digest {
                rep.failures.push(format!("digest {:016x}, earlier {first:016x}", rep.digest));
            }
        }
        self.attempted += 1;
        if !rep.failures.is_empty() {
            self.failed += 1;
            self.failures.append(&mut rep.failures);
            return;
        }
        if !timed {
            return;
        }
        if traced {
            self.samples.entry(TRACED_REP_WALL).or_default().push(wall_s);
        } else {
            self.samples.entry(TIMED_REP_WALL).or_default().push(wall_s);
            for (name, value) in rep.samples {
                self.samples.entry(name).or_default().push(value);
            }
        }
    }

    fn median_of(&self, name: &str) -> Option<f64> {
        self.samples.get(name).filter(|xs| !xs.is_empty()).map(|xs| median(xs))
    }
}

/// What a set-up-only child prints: its set-up time and peak memory.
fn setup_only_line(setup_s: f64, rss_mib: f64) -> String {
    format!("{{\"setup_s\": {setup_s}, \"peak_rss_mb\": {rss_mib}}}")
}

/// Repeat the set-up in a fresh process and read its `(setup_s, rss)`.
fn cold_setup(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let workload = args.workload.as_deref().expect("run mode has a workload");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string(), "--setup-only"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("set-up child printed {line:?}: {e}"))?;
    match (doc.get("setup_s"), doc.get("peak_rss_mb")) {
        (Some(Json::Num(s)), Some(Json::Num(m))) => Ok((*s, *m)),
        _ => Err(format!("set-up child printed {line:?}")),
    }
}

/// The value of one per-layer metric in a traced run (0 when this workload
/// does not exercise it).
fn layer_value(m: &Metric, tally: &Tally, spans: &[span::Span], probed: &probes::Readings) -> f64 {
    let from_spans = |per_call: bool, div: f64| {
        let per_rep: Vec<f64> = span::per_rep(spans, m.name)
            .into_iter()
            .map(|(total, count)| {
                let ns = if per_call { total as f64 / count as f64 } else { total as f64 / div };
                m.in_unit(ns)
            })
            .collect();
        if per_rep.is_empty() {
            0.0
        } else {
            median(&per_rep)
        }
    };
    let probe = |name: &str| probed.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let ratio = |num: Option<f64>, den: Option<f64>| num.zip(den).map_or(0.0, |(n, d)| n / d);
    match m.source {
        Source::Sample => tally.median_of(m.name).unwrap_or(0.0),
        Source::Exact => tally.exact.get(m.name).copied().unwrap_or(0.0),
        Source::SpanPerRep { div } => from_spans(false, div),
        Source::SpanPerCall => from_spans(true, 1.0),
        Source::Probe => probe(m.name).unwrap_or(0.0),
        Source::Harness => match m.name {
            "monitor_overhead_ratio" => {
                ratio(tally.median_of("wall_s"), tally.median_of("ledger.bare_sample_s"))
            }
            "ledger.trace_overhead_ratio" => {
                ratio(tally.median_of(TRACED_REP_WALL), tally.median_of(TIMED_REP_WALL))
            }
            "mpisim.scale_exponent" => {
                let growth = ratio(tally.median_of("wall_s"), probe("mpisim.ring_1024_s"));
                if growth > 0.0 {
                    growth.ln() / (10_000.0f64 / 1024.0).ln()
                } else {
                    0.0
                }
            }
            other => unreachable!("no harness rule for per-layer metric {other}"),
        },
    }
}

/// Run `args.workload` once and print its result.  `Ok` whenever a result
/// was printed: failed repetitions are in the result (`correct`, `failed`),
/// not in the exit code, which the contract wants 0 for every run that
/// measured.
pub fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let (nproc, workers) = configure_env();
    let name = args.workload.as_deref().expect("run mode has a workload");
    let prepare = workloads::lookup(name).expect("workload validated by the parser");

    // Set-up: inputs, base run, one warm-up repetition (never timed; in a
    // traced run it is the one that carries the message counter).
    span::set_enabled(args.trace);
    let mut workload = prepare(args.seed);
    span::set_enabled(false);
    let mut tally = Tally::default();
    let warmup = if args.trace { Mode::Counted } else { Mode::Timed };
    tally.rep(&mut *workload, warmup, false);
    let setup_s = started.elapsed().as_secs_f64();
    let rss_mib = peak_rss_mib();
    if args.setup_only {
        println!("{}", setup_only_line(setup_s, rss_mib));
        return Ok(true);
    }

    // The closed measuring loop.
    let measuring = Instant::now();
    let within = || measuring.elapsed().as_secs_f64() < args.seconds;
    let mut traced_reps = 0u32;
    if args.trace {
        while within() || (traced_reps as usize) < MIN_TRACED_PAIRS {
            tally.rep(&mut *workload, Mode::Timed, true);
            traced_reps += 1;
            span::begin_rep(traced_reps);
            tally.rep(&mut *workload, Mode::Traced, true);
        }
    } else {
        let mut reps = 0;
        while within() || reps < MIN_REPS {
            tally.rep(&mut *workload, Mode::Timed, true);
            reps += 1;
        }
    }
    drop(workload);

    let mut values: Vec<(&Metric, f64)> = Vec::new();
    let mut notes = Vec::new();
    if args.trace {
        let spans = span::snapshot();
        let probed = probes::run_for(name);
        for m in spec::PER_LAYER {
            values.push((m, layer_value(m, &tally, &spans, &probed)));
        }
        notes.push(span::layer_table(&spans, REP_SPAN));
        let path = report::write_out(
            &args.out,
            &format!("{name}-seed{}.spans.jsonl", args.seed),
            &span::to_jsonl(&spans, name),
        )?;
        notes.push(format!("spans: {}", path.display()));
    } else {
        // More cold set-ups, in fresh processes, one at a time.  Three
        // starts, so that the median shrugs off the one launch in five
        // whose allocator keeps the base run's pages while the warm-up runs
        // and peaks a third higher.
        let (mut setups, mut rsss) = (vec![setup_s], vec![rss_mib]);
        for _ in 0..EXTRA_SETUPS {
            let (s, r) = cold_setup(args)?;
            setups.push(s);
            rsss.push(r);
        }
        tally.samples.insert("setup_s", setups);
        tally.samples.insert("peak_rss_mb", rsss);
        for m in spec::END_TO_END {
            // No sample only when every timed repetition failed.
            values.push((m, tally.median_of(m.name).unwrap_or(0.0)));
        }
    }

    let host = Host::detect(nproc, workers);
    let report = RunReport {
        workload: name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host: &host,
        attempted: tally.attempted,
        failed: tally.failed,
        digest: tally.digest,
        samples: &tally.samples,
        exact: &tally.exact,
        failures: &tally.failures,
        values: &values,
        notes: &notes,
    };
    print!("{}", report.text());
    report::write_out(
        &args.out,
        &format!("{name}-seed{}-trace{}.json", args.seed, u8::from(args.trace)),
        &report.full_json(),
    )?;
    // The contract's result: the last line of standard output.
    println!("{}", report.result_line());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scripted(Vec<Rep>);

    impl Workload for Scripted {
        fn rep(&mut self, _mode: Mode) -> Rep {
            let rep = self.0.remove(0);
            assert!(rep.digest != 99, "scripted panic");
            rep
        }
    }

    fn rep(wall: f64, msgs: f64, digest: u64) -> Rep {
        Rep {
            samples: vec![("wall_s", wall)],
            exact: vec![("mpisim.msgs", msgs)],
            digest,
            ..Rep::default()
        }
    }

    #[test]
    fn tally_pools_samples_and_counts_failures() {
        let mut w = Scripted(vec![
            rep(1.0, 5.0, 7),
            rep(3.0, 5.0, 7),
            rep(2.0, 6.0, 7),  // exact value drifts
            rep(2.0, 5.0, 8),  // digest drifts
            rep(2.0, 5.0, 99), // panics
            Rep { failures: vec!["self-check".into()], ..rep(2.0, 5.0, 7) },
        ]);
        let mut t = Tally::default();
        for _ in 0..6 {
            t.rep(&mut w, Mode::Timed, true);
        }
        assert_eq!((t.attempted, t.failed), (6, 4));
        assert_eq!(t.samples["wall_s"], vec![1.0, 3.0], "failed repetitions contribute no sample");
        assert_eq!(t.median_of("wall_s"), Some(2.0));
        assert_eq!(t.exact["mpisim.msgs"], 5.0);
        assert_eq!(t.failures.len(), 4);
        assert!(t.failures[2].contains("scripted panic"));
    }

    #[test]
    fn warmup_is_counted_but_not_sampled() {
        let mut w = Scripted(vec![rep(9.0, 5.0, 7)]);
        let mut t = Tally::default();
        t.rep(&mut w, Mode::Timed, false);
        assert_eq!((t.attempted, t.failed), (1, 0));
        assert!(t.samples.is_empty());
    }

    #[test]
    fn setup_only_line_round_trips() {
        let doc = Json::parse(&setup_only_line(1.25, 300.5)).unwrap();
        assert_eq!(doc.get("setup_s"), Some(&Json::Num(1.25)));
        assert_eq!(doc.get("peak_rss_mb"), Some(&Json::Num(300.5)));
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mib() > 0.0);
    }
}
