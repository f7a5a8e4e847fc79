//! Network-utilization monitoring and prediction (paper Sec 7).
//!
//! The paper's discussion points at a follow-up use of introspection
//! monitoring (Tseng et al., EuroPar'19): sample the session periodically to
//! build a bandwidth time series, predict near-future utilization, and
//! schedule background traffic — e.g. fetching checkpoints — into the
//! windows where the network is under-utilized.
//!
//! This module implements that loop's building blocks on top of `mim-core`:
//!
//! * [`UtilizationSampler`] — the suspend → `get_data` → `reset` → continue
//!   sampling cycle, yielding bytes-per-interval samples;
//! * [`EwmaPredictor`] — an exponentially-weighted moving-average predictor
//!   with idle-window detection.

use mim_core::{Flags, Monitoring, Msid, Result};
use mim_mpisim::Rank;

/// One utilization sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Virtual time at the end of the sampling interval (seconds).
    pub t_s: f64,
    /// Bytes this process sent during the interval.
    pub bytes: u64,
    /// Observed send bandwidth over the interval (bytes/second).
    pub bandwidth: f64,
}

/// Periodic sampler over a monitoring session: every call to
/// [`UtilizationSampler::sample`] returns the traffic since the previous
/// call and resets the session, exactly the Fig 2 measurement discipline.
pub struct UtilizationSampler {
    msid: Msid,
    flags: Flags,
    last_t_s: f64,
}

impl UtilizationSampler {
    /// Wrap an *active* session created by the caller.
    pub fn new(rank: &Rank, msid: Msid, flags: Flags) -> Self {
        Self { msid, flags, last_t_s: rank.now_s() }
    }

    /// Close the current interval: suspend, read, reset, resume.
    ///
    /// # Errors
    /// Propagates monitoring errors (e.g. a freed session).
    pub fn sample(&mut self, rank: &Rank, mon: &Monitoring) -> Result<UtilizationSample> {
        mon.suspend(self.msid)?;
        let row = mon.get_data(self.msid, self.flags)?;
        mon.reset(self.msid)?;
        mon.resume(self.msid)?;
        let now = rank.now_s();
        let dt = (now - self.last_t_s).max(1e-12);
        self.last_t_s = now;
        let bytes: u64 = row.sizes.iter().sum();
        Ok(UtilizationSample { t_s: now, bytes, bandwidth: bytes as f64 / dt })
    }
}

/// Exponentially-weighted moving-average bandwidth predictor with an idle
/// threshold: the "is the network under-utilized right now (and likely to
/// stay so)?" oracle the checkpoint-prefetch use-case needs.
#[derive(Debug, Clone)]
pub struct EwmaPredictor {
    alpha: f64,
    estimate: Option<f64>,
    /// Bandwidth below which the network counts as idle (bytes/s).
    pub idle_threshold: f64,
}

impl EwmaPredictor {
    /// `alpha` ∈ (0, 1] weighs the newest sample; `idle_threshold` in
    /// bytes/second.
    pub fn new(alpha: f64, idle_threshold: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, estimate: None, idle_threshold }
    }

    /// Feed one sample; returns the updated prediction (bytes/s).
    pub fn observe(&mut self, sample: UtilizationSample) -> f64 {
        let e = match self.estimate {
            None => sample.bandwidth,
            Some(prev) => self.alpha * sample.bandwidth + (1.0 - self.alpha) * prev,
        };
        self.estimate = Some(e);
        e
    }

    /// True when the predicted utilization is below the idle threshold —
    /// a good moment to schedule background transfers.
    pub fn network_idle(&self) -> bool {
        self.estimate.is_some_and(|e| e < self.idle_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_mpisim::{SrcSel, TagSel, Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};

    fn sample(t: f64, bw: f64) -> UtilizationSample {
        UtilizationSample { t_s: t, bytes: bw as u64, bandwidth: bw }
    }

    #[test]
    fn ewma_converges_to_constant_signal() {
        let mut p = EwmaPredictor::new(0.3, 10.0);
        assert!(p.estimate.is_none());
        assert!(!p.network_idle());
        for i in 0..50 {
            p.observe(sample(i as f64, 100.0));
        }
        assert!((p.estimate.unwrap() - 100.0).abs() < 1e-6);
        assert!(!p.network_idle());
    }

    #[test]
    fn ewma_detects_idle_after_burst() {
        let mut p = EwmaPredictor::new(0.5, 50.0);
        p.observe(sample(0.0, 1000.0));
        assert!(!p.network_idle());
        for i in 1..12 {
            p.observe(sample(i as f64, 0.0));
        }
        assert!(p.network_idle(), "estimate {:?}", p.estimate);
    }

    #[test]
    fn sampler_tracks_bursts_and_silence() {
        let u = Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 2), Placement::packed(2)));
        let idle_flags = u.launch(|rank| {
            let world = rank.comm_world();
            let mon = Monitoring::init(rank).unwrap();
            let id = mon.start(rank, &world).unwrap();
            if world.rank() == 1 {
                for _ in 0..6 {
                    rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Any);
                }
                mon.suspend(id).unwrap();
                mon.free(id).unwrap();
                mon.finalize(rank).unwrap();
                return Vec::new();
            }
            let mut sampler = UtilizationSampler::new(rank, id, Flags::P2P_ONLY);
            let mut predictor = EwmaPredictor::new(0.6, 1e6); // 1 MB/s idle line
            let mut idle_trace = Vec::new();
            // Busy phase: 100 MB/s for 3 intervals of 10 ms.
            for _ in 0..3 {
                rank.send_synthetic(&world, 1, 0, 1_000_000);
                rank.compute_ns(10e6);
                let s = sampler.sample(rank, &mon).unwrap();
                predictor.observe(s);
                idle_trace.push(predictor.network_idle());
            }
            // Quiet phase: a trickle for 6 intervals.
            for _ in 0..3 {
                rank.send_synthetic(&world, 1, 0, 100);
                rank.compute_ns(10e6);
                let s = sampler.sample(rank, &mon).unwrap();
                predictor.observe(s);
                idle_trace.push(predictor.network_idle());
                rank.compute_ns(10e6);
                let s = sampler.sample(rank, &mon).unwrap();
                predictor.observe(s);
                idle_trace.push(predictor.network_idle());
            }
            mon.suspend(id).unwrap();
            mon.free(id).unwrap();
            mon.finalize(rank).unwrap();
            idle_trace
        });
        let trace = &idle_flags[0];
        assert!(!trace[0] && !trace[1] && !trace[2], "busy phase must not read idle: {trace:?}");
        assert!(*trace.last().unwrap(), "quiet phase must be detected: {trace:?}");
    }
}
