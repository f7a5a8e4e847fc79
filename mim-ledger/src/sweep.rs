//! Run sets: `sweep` runs every workload on several seeds, each run in its
//! own child process, one at a time, and records the set; `compare` holds
//! two sets against the bounds of `BENCHMARK.json`.
//!
//! The spread `sweep` prints is the contract's: the distance between the
//! first and third quartile of a metric's values over the seeds, as a share
//! of their median.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use mim_analyze::json::Json;

use crate::report::{json_number, json_string, write_out};
use crate::spec::{end_to_end_bounds, Bounded};
use crate::stats::{quartiles, spread};
use crate::{workloads, Args};

/// One run's result line, as read back from a child or a sweep file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, value)` in printed order.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Parse `{"correct", "attempted", "failed", "metrics"}`, with the
    /// `workload` and `seed` a sweep file adds (or the given defaults).
    fn from_json(doc: &Json, workload: &str, seed: u64) -> Result<RunResult, String> {
        let num = |key: &str| doc.get(key).and_then(Json::as_u64).ok_or(format!("missing {key:?}"));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("missing \"metrics\"".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, entry)| match entry {
                // The contract's `{"value", "unit"}` entry, or a sweep file's bare number.
                Json::Num(v) => Ok((name.clone(), *v)),
                _ => match entry.get("value") {
                    Some(Json::Num(v)) => Ok((name.clone(), *v)),
                    _ => Err(format!("metric {name:?} has no numeric value")),
                },
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            workload: doc.get("workload").and_then(Json::as_str).unwrap_or(workload).to_string(),
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(seed),
            correct: doc.get("correct") == Some(&Json::Bool(true)),
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics,
        })
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("{}: {}", json_string(n), json_number(*v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{{}}}}}",
            json_string(&self.workload),
            self.seed,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A recorded set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    pub results: Vec<RunResult>,
}

impl RunSet {
    fn parse(text: &str) -> Result<RunSet, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let results = doc
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("missing \"results\"")?
            .iter()
            .map(|r| RunResult::from_json(r, "", 0))
            .collect::<Result<_, _>>()?;
        Ok(RunSet { results })
    }

    fn json(&self, args: &Args) -> String {
        let results: Vec<String> = self.results.iter().map(|r| format!("  {}", r.json())).collect();
        format!(
            "{{\"seconds\": {}, \"runs\": {}, \"first_seed\": {}, \"trace\": {},\n \"results\": [\n{}\n ]}}\n",
            json_number(args.seconds),
            args.runs,
            args.seed,
            u8::from(args.trace),
            results.join(",\n")
        )
    }

    /// Workload names in order of first appearance.
    fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.results {
            if !names.contains(&&*r.workload) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// The values of `metric` on `workload`, one per run.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.results
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
            .collect()
    }

    /// Failed operations as a share of those attempted on `workload`.
    fn failed_share(&self, workload: &str) -> f64 {
        let (failed, attempted) = self
            .results
            .iter()
            .filter(|r| r.workload == workload)
            .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
        if attempted == 0 {
            1.0
        } else {
            failed as f64 / attempted as f64
        }
    }
}

/// Run one workload once in a child process and read its result line.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if args.runs == 1 {
        print!("{text}");
    }
    let line = text.lines().last().ok_or(format!("{workload} printed nothing ({})", out.status))?;
    let doc = Json::parse(line).map_err(|e| format!("{workload} printed {line:?}: {e}"))?;
    RunResult::from_json(&doc, workload, seed)
}

/// How a metric's spread over the seeds sits against its bound.
fn steadiness(metric: &Bounded, spread: f64) -> &'static str {
    if metric.name == "setup_s" {
        "exempt"
    } else if spread <= metric.bound / 3.0 {
        "steady"
    } else if spread <= metric.bound {
        "within bound"
    } else {
        "NOISY"
    }
}

fn spread_table(set: &RunSet, metrics: &[Bounded]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<22} {:>3} {:>13} {:>13} {:>13} {:>8} {:>6}  spread vs bound",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for w in set.workloads() {
        for m in metrics {
            let xs = set.values(w, &m.name);
            if xs.is_empty() {
                continue;
            }
            let (q1, q2, q3) = quartiles(&xs);
            let s = spread(&xs);
            let _ = writeln!(
                out,
                "{w:<16} {:<22} {:>3} {q2:>13.6} {q1:>13.6} {q3:>13.6} {:>7.2}% {:>5.0}%  {}",
                m.name,
                xs.len(),
                s * 100.0,
                m.bound * 100.0,
                steadiness(m, s)
            );
        }
    }
    out
}

/// `mim-ledger sweep`: `Ok(true)` when every run was correct.
pub fn sweep(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w],
        None => workloads::TABLE.iter().map(|(n, _)| *n).collect(),
    };
    let mut set = RunSet { results: Vec::new() };
    for name in names {
        for run in 0..args.runs as u64 {
            let seed = args.seed + run;
            let r = run_child(args, name, seed)?;
            eprintln!(
                "sweep: {name} seed {seed}: ops={} failed_ops={}{}",
                r.attempted,
                r.failed,
                if r.correct { "" } else { "  INCORRECT" }
            );
            set.results.push(r);
        }
    }
    if !args.trace {
        println!("\n{}", spread_table(&set, &end_to_end_bounds()?));
    }
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let path = write_out(&args.out, &format!("sweep-{stamp}.json"), &set.json(args))?;
    println!("run set: {}", path.display());
    Ok(set.results.iter().all(|r| r.correct))
}

/// Verdict on one metric × workload of two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Improved,
    /// A's own spread exceeds the bound: the sets cannot tell.
    Unresolved,
    Regression,
}

/// By what share of A's median B's median is worse (negative: better).
fn worsening(metric: &Bounded, median_a: f64, median_b: f64) -> f64 {
    let delta = if metric.higher_is_better { median_a - median_b } else { median_b - median_a };
    if median_a == 0.0 {
        0.0
    } else {
        delta / median_a.abs()
    }
}

fn judge(metric: &Bounded, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let worse = worsening(metric, quartiles(a).1, quartiles(b).1);
    let verdict = if spread(a) > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regression
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// The comparison table, and whether B holds up against A.
fn compare_sets(a: &RunSet, b: &RunSet, metrics: &[Bounded]) -> (String, bool) {
    let mut out = String::new();
    let mut holds = true;
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>12} {:>24} {:>12} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse", "bound"
    );
    for w in a.workloads() {
        for m in metrics {
            let (xa, xb) = (a.values(w, &m.name), b.values(w, &m.name));
            if xa.is_empty() || xb.is_empty() {
                let _ = writeln!(out, "{w:<16} {:<14} missing from one set", m.name);
                holds = false;
                continue;
            }
            let ((a1, a2, a3), (b1, b2, b3)) = (quartiles(&xa), quartiles(&xb));
            let (worse, verdict) = judge(m, &xa, &xb);
            holds &= verdict != Verdict::Regression;
            let _ = writeln!(
                out,
                "{w:<16} {:<14} {a2:>12.6} {:>24} {b2:>12.6} {:>24} {:>+7.2}% {:>5.0}%  {}",
                m.name,
                format!("[{a1:.6}, {a3:.6}]"),
                format!("[{b1:.6}, {b3:.6}]"),
                worse * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        let (fa, fb) = (a.failed_share(w), b.failed_share(w));
        if fb > fa {
            let _ = writeln!(out, "{w:<16} failed share rose from {fa:.4} to {fb:.4}  REGRESSION");
            holds = false;
        }
    }
    (out, holds)
}

/// `mim-ledger compare A.json B.json`: `Ok(true)` when B shows no
/// regression and no higher failed share against A.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        RunSet::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (table, holds) = compare_sets(&load(a)?, &load(b)?, &end_to_end_bounds()?);
    print!("{table}");
    println!("{}", if holds { "no regression" } else { "REGRESSION" });
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, bound: f64, higher: bool) -> Bounded {
        Bounded { name: name.into(), unit: "s".into(), higher_is_better: higher, bound }
    }

    fn set(workload: &str, walls: &[f64], failed: u64) -> RunSet {
        RunSet {
            results: walls
                .iter()
                .enumerate()
                .map(|(i, &w)| RunResult {
                    workload: workload.into(),
                    seed: i as u64,
                    correct: failed == 0,
                    attempted: 10,
                    failed,
                    metrics: vec![("wall_s".into(), w)],
                })
                .collect(),
        }
    }

    #[test]
    fn result_line_parses_in_both_shapes() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}"#;
        let r = RunResult::from_json(&Json::parse(line).unwrap(), "w", 9).unwrap();
        assert_eq!((r.workload.as_str(), r.seed, r.correct, r.attempted), ("w", 9, true, 5));
        assert_eq!(r.metrics, vec![("wall_s".to_string(), 1.5)]);
        // A sweep file stores what `json` writes.
        let back = RunResult::from_json(&Json::parse(&r.json()).unwrap(), "", 0).unwrap();
        assert_eq!(back, r);
        assert!(
            RunResult::from_json(&Json::parse(r#"{"correct": true}"#).unwrap(), "w", 0).is_err()
        );
    }

    #[test]
    fn run_set_round_trips() {
        let s = set("ring_scale", &[1.0, 1.1, 0.9], 0);
        let args = crate::parse_args(&[]).unwrap();
        assert_eq!(RunSet::parse(&s.json(&args)).unwrap(), s);
    }

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        let lower = metric("wall_s", 0.10, false);
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(judge(&lower, &a, &[1.05, 1.05, 1.05]).1, Verdict::Ok);
        assert_eq!(judge(&lower, &a, &[1.2, 1.2, 1.2]).1, Verdict::Regression);
        assert_eq!(judge(&lower, &a, &[0.8, 0.8, 0.8]).1, Verdict::Improved);
        let higher = metric("gain", 0.10, true);
        assert_eq!(judge(&higher, &a, &[0.8, 0.8, 0.8]).1, Verdict::Regression);
        assert_eq!(judge(&higher, &a, &[1.2, 1.2, 1.2]).1, Verdict::Improved);
        assert!((judge(&lower, &a, &[1.2, 1.2, 1.2]).0 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_reference_is_unresolved_not_a_verdict() {
        let lower = metric("wall_s", 0.10, false);
        let noisy = [0.5, 1.0, 1.5, 2.0];
        assert_eq!(judge(&lower, &noisy, &[3.0, 3.0, 3.0]).1, Verdict::Unresolved);
    }

    #[test]
    fn compare_fails_on_regression_or_more_failures() {
        let metrics = [metric("wall_s", 0.10, false)];
        let a = set("ring_scale", &[1.0, 1.0, 1.0], 0);
        assert!(compare_sets(&a, &set("ring_scale", &[1.05, 1.04, 1.06], 0), &metrics).1);
        let (table, holds) = compare_sets(&a, &set("ring_scale", &[1.3, 1.3, 1.3], 0), &metrics);
        assert!(!holds && table.contains("REGRESSION"));
        let (table, holds) = compare_sets(&a, &set("ring_scale", &[1.0, 1.0, 1.0], 1), &metrics);
        assert!(!holds && table.contains("failed share rose"));
        let (table, holds) = compare_sets(&a, &set("other", &[1.0], 0), &metrics);
        assert!(!holds && table.contains("missing"));
    }

    #[test]
    fn steadiness_flags() {
        let m = metric("wall_s", 0.09, false);
        assert_eq!(steadiness(&m, 0.02), "steady");
        assert_eq!(steadiness(&m, 0.05), "within bound");
        assert_eq!(steadiness(&m, 0.20), "NOISY");
        assert_eq!(steadiness(&metric("setup_s", 0.25, false), 0.9), "exempt");
    }
}
