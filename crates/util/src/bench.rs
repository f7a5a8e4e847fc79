//! A tiny criterion-free benchmark harness.
//!
//! Each measurement calibrates an iteration count so one sample lasts a few
//! milliseconds, takes `samples` timed samples after one warmup sample, and
//! reports the per-call median (plus mean and min) — median because sample
//! noise on shared machines is one-sided.
//!
//! Results are printed as a table, one row per measurement.  Nothing is
//! written and nothing is compared against a committed number: a harness
//! that has a contract asserts it in-binary, as a ratio between arms of the
//! same run, on the medians [`Bench::iter`] returns.
//!
//! `MIM_QUICK=1` shrinks warmup and sample counts for smoke runs, matching
//! the convention used by the figure binaries.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The sampling plan of one bench binary.
pub struct Bench {
    samples: usize,
    sample_target: Duration,
}

/// True when the `MIM_QUICK` environment variable requests a reduced run
/// (set, non-empty and not `0`): the one reading every figure binary,
/// harness and property suite shares.
pub fn quick_mode() -> bool {
    std::env::var_os("MIM_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

impl Default for Bench {
    fn default() -> Self {
        Self::new()
    }
}

impl Bench {
    /// The full plan (15 samples of 10 ms), or the quick one (5 of 2 ms).
    pub fn new() -> Self {
        if quick_mode() {
            Self { samples: 5, sample_target: Duration::from_millis(2) }
        } else {
            Self { samples: 15, sample_target: Duration::from_millis(10) }
        }
    }

    /// Measure `f` and print the result.  Returns the per-call median in
    /// nanoseconds.
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
        median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut b = Bench::new();
        b.samples = 3;
        b.sample_target = Duration::from_micros(200);
        let median = b.iter("group", "spin", || {
            black_box((0..100u64).sum::<u64>());
        });
        assert!(median > 0.0);
    }
}
