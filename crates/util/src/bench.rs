//! A tiny criterion-free benchmark harness.
//!
//! Each measurement calibrates an iteration count so one sample lasts a few
//! milliseconds, takes `samples` timed samples after one warmup sample, and
//! reports the per-call median (plus mean and min) — median because sample
//! noise on shared machines is one-sided.
//!
//! Results are printed as a table and written as one `bench_<name>.json`
//! document into the results directory (`MIM_RESULTS_DIR`, default
//! `results/`).  Nothing is compared against a committed number: a harness
//! that has a contract asserts it in-binary, as a ratio between arms of the
//! same run, on the medians [`Bench::iter`] returns.
//!
//! `MIM_QUICK=1` shrinks warmup and sample counts for smoke runs, matching
//! the convention used by the figure binaries.

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark group (e.g. `tree_match`).
    pub group: String,
    /// Case label within the group (e.g. `stencil_greedy/1024`).
    pub label: String,
    /// Median wall time of one call (ns).
    pub median_ns: f64,
    /// Mean wall time of one call (ns).
    pub mean_ns: f64,
    /// Fastest observed per-call time (ns).
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Calls per sample (calibrated).
    pub iters: u64,
}

/// A bench harness accumulating measurements for one binary.
pub struct Bench {
    name: String,
    samples: usize,
    sample_target: Duration,
    entries: Vec<Measurement>,
}

fn quick_mode() -> bool {
    std::env::var_os("MIM_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

impl Bench {
    /// Start a harness named after the bench binary.
    pub fn new(name: &str) -> Self {
        let quick = quick_mode();
        let samples = std::env::var("MIM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 5 } else { 15 });
        Self {
            name: name.to_string(),
            samples,
            sample_target: if quick { Duration::from_millis(2) } else { Duration::from_millis(10) },
            entries: Vec::new(),
        }
    }

    /// Measure `f`, storing and printing the result.  Returns the per-call
    /// median in nanoseconds.
    pub fn iter(&mut self, group: &str, label: &str, mut f: impl FnMut()) -> f64 {
        // Calibrate: one untimed call, then size the per-sample batch.
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.sample_target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut per_call: Vec<f64> = Vec::with_capacity(self.samples);
        for sample in 0..=self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            if sample > 0 {
                // Sample 0 is warmup.
                per_call.push(t.elapsed().as_nanos() as f64 / iters as f64);
            }
        }
        per_call.sort_by(f64::total_cmp);
        let median = per_call[per_call.len() / 2];
        let mean = per_call.iter().sum::<f64>() / per_call.len() as f64;
        let min = per_call[0];
        println!(
            "{:<28} {:<28} median {:>12.1} ns  (mean {:.1}, min {:.1}, {}x{} calls)",
            group, label, median, mean, min, self.samples, iters
        );
        self.entries.push(Measurement {
            group: group.to_string(),
            label: label.to_string(),
            median_ns: median,
            mean_ns: mean,
            min_ns: min,
            samples: self.samples,
            iters,
        });
        median
    }

    /// Write the JSON document (see module docs) and consume the harness.
    pub fn finish(self) {
        let json_lines: Vec<String> = self
            .entries
            .iter()
            .map(|m| {
                format!(
                    "{{\"harness\":\"{}\",\"group\":\"{}\",\"label\":\"{}\",\
                     \"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\
                     \"samples\":{},\"iters\":{}}}",
                    self.name,
                    m.group,
                    m.label,
                    m.median_ns,
                    m.mean_ns,
                    m.min_ns,
                    m.samples,
                    m.iters
                )
            })
            .collect();
        let dir =
            PathBuf::from(std::env::var("MIM_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
        let doc = format!(
            "{{\"harness\":\"{}\",\"entries\":[\n{}\n]}}\n",
            self.name,
            json_lines.join(",\n")
        );
        let result = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(format!("bench_{}.json", self.name)), doc));
        if let Err(e) = result {
            eprintln!("warning: could not write bench JSON: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut b = Bench::new("selftest");
        b.samples = 3;
        b.sample_target = Duration::from_micros(200);
        let median = b.iter("group", "spin", || {
            black_box((0..100u64).sum::<u64>());
        });
        assert!(median > 0.0);
        assert_eq!(b.entries.len(), 1);
        assert!(b.entries[0].iters >= 1);
    }
}
