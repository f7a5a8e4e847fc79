//! What a run prints and writes: the readable summary, the full JSON record
//! under `--out`, and the contract's one-line result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::spec::Metric;
use crate::stats::{percentile, Summary};

/// The host facts every result is reported with.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub workers: usize,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect(nproc: usize, workers: usize) -> Host {
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Host { nproc, workers, rustc, commit: head_commit(Path::new(".")) }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"workers\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            self.workers,
            json_string(&self.rustc),
            json_string(&self.commit)
        )
    }
}

/// The checked-out commit, read from `.git` under `root` without running
/// git (a benchmark checkout is not a repository, and git would go looking
/// for one in the directories above).
fn head_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| reference.to_string(), |s| s.trim().to_string()),
    }
}

pub use mim_analyze::diag::json_string;

/// A number as JSON: every digit Rust needs to read the same value back,
/// and 0 for the non-finite values JSON cannot carry.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Write `content` to `dir/file`, creating `dir`.
pub fn write_out(dir: &Path, file: &str, content: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, content).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Everything one run has to say.
pub struct RunReport<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: &'a Host,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
    pub samples: &'a BTreeMap<&'static str, Vec<f64>>,
    pub exact: &'a BTreeMap<&'static str, f64>,
    pub failures: &'a [String],
    /// The metrics of the result line, in registry order.
    pub values: &'a [(&'a Metric, f64)],
    pub notes: &'a [String],
}

/// The highest percentile with at least ten samples beyond it, if any.
fn tail_percentile(n: usize) -> Option<f64> {
    [99usize, 95, 90].into_iter().find(|p| n * (100 - p) >= 1000).map(|p| p as f64)
}

impl RunReport<'_> {
    fn digest_hex(&self) -> String {
        self.digest.map_or_else(|| "none".into(), |d| format!("{d:016x}"))
    }

    /// The readable summary.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let h = self.host;
        let _ = writeln!(
            out,
            "mim-ledger  workload={} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        let _ = writeln!(
            out,
            "host        nproc={} workers={} rustc=\"{}\" commit={}",
            h.nproc, h.workers, h.rustc, h.commit
        );
        let _ = writeln!(out, "\n{:<40} {:>9} {:>16}", "metric", "unit", "value");
        for (m, v) in self.values {
            let _ = writeln!(out, "{:<40} {:>9} {:>16.9}", m.name, m.unit, v);
        }
        let _ = writeln!(
            out,
            "\n{:<28} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12}  tail",
            "samples", "n", "median", "q1", "q3", "min", "max"
        );
        for (name, xs) in self.samples {
            let s = Summary::of(xs);
            let tail = tail_percentile(s.n)
                .map_or(String::new(), |p| format!("p{p:.0}={:.6}", percentile(xs, p)));
            let _ = writeln!(
                out,
                "{name:<28} {:>5} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}  {tail}",
                s.n, s.median, s.q1, s.q3, s.min, s.max
            );
        }
        if !self.exact.is_empty() {
            let _ = writeln!(out, "\nexact (identical on every repetition)");
            for (name, v) in self.exact {
                let _ = writeln!(out, "{name:<40} {v}");
            }
        }
        for note in self.notes {
            let _ = writeln!(out, "\n{note}");
        }
        let _ = writeln!(
            out,
            "\nops={} failed_ops={} digest={}",
            self.attempted,
            self.failed,
            self.digest_hex()
        );
        for f in self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(*v),
                    json_string(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The contract's result: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record written under `--out`.
    pub fn full_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, xs)| {
                let s = Summary::of(xs);
                format!(
                    "{}: {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}",
                    json_string(name),
                    s.n,
                    json_number(s.median),
                    json_number(s.q1),
                    json_number(s.q3),
                    json_number(s.min),
                    json_number(s.max)
                )
            })
            .collect();
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(name, v)| format!("{}: {}", json_string(name), json_number(*v)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_string(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {},\n \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": {},\n \
             \"metrics\": {},\n \"samples\": {{{}}},\n \"exact\": {{{}}},\n \"failures\": [{}]}}\n",
            json_string(self.workload),
            self.seed,
            json_number(self.seconds),
            u8::from(self.trace),
            self.host.json(),
            self.failed == 0,
            self.attempted,
            self.failed,
            json_string(&self.digest_hex()),
            self.metrics_json(),
            samples.join(", "),
            exact.join(", "),
            failures.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;
    use mim_analyze::json::Json;

    fn with_report<R>(failed: u64, f: impl FnOnce(&RunReport) -> R) -> R {
        let host =
            Host { nproc: 2, workers: 2, rustc: "rustc 1.0 \"q\"".into(), commit: "abc".into() };
        let samples = BTreeMap::from([("wall_s", vec![1.0, 2.0, 4.0])]);
        let exact = BTreeMap::from([("mpisim.msgs", 12.0)]);
        let values: Vec<(&Metric, f64)> = END_TO_END.iter().zip([2.0, 0.5, 0.1 + 0.2]).collect();
        let failures = vec!["a \"quoted\" failure".to_string()];
        f(&RunReport {
            workload: "ring_scale",
            seed: 3,
            seconds: 8.0,
            trace: false,
            host: &host,
            attempted: 4,
            failed,
            digest: Some(0xabc),
            samples: &samples,
            exact: &exact,
            failures: if failed == 0 { &[] } else { &failures },
            values: &values,
            notes: &[],
        })
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = with_report(0, |r| r.result_line());
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = Json::parse(&line).unwrap() else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, Json::Bool(true));
        let metrics = &fields[3].1;
        for m in END_TO_END {
            let entry = metrics.get(m.name).expect("every end-to-end metric is printed");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        // All the digits: 0.1 + 0.2 is not rounded to 0.3.
        assert!(line.contains("0.30000000000000004"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let line = with_report(1, |r| r.result_line());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        let text = with_report(1, |r| r.text());
        assert!(text.contains("FAILED: a \"quoted\" failure"));
        assert!(text.contains("ops=4 failed_ops=1 digest=0000000000000abc"));
    }

    #[test]
    fn full_record_is_valid_json() {
        let doc = Json::parse(&with_report(1, |r| r.full_json())).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("ring_scale"));
        assert_eq!(
            doc.get("samples").and_then(|s| s.get("wall_s")).and_then(|w| w.get("n")),
            Some(&Json::Num(3.0))
        );
        assert_eq!(
            doc.get("host").and_then(|h| h.get("rustc")).and_then(Json::as_str),
            Some("rustc 1.0 \"q\"")
        );
    }

    #[test]
    fn non_finite_numbers_become_zero() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(1.5), "1.5");
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(50), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(300), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn head_commit_without_a_repository_is_unknown() {
        assert_eq!(head_commit(Path::new("/nonexistent-dir")), "unknown");
    }
}
