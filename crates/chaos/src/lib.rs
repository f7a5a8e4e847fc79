//! Deterministic fault injection for the simulator: `FaultPlan`.
//!
//! A [`FaultPlan`] is a seeded, declarative schedule of faults — message
//! drop, duplication, extra delay, per-link bandwidth degradation, and
//! rank crashes — installed into a universe through the
//! [`FaultInjector`] seam (`UniverseConfig::with_injector`).  Every
//! decision is a pure function of `(seed, src, dst, op_index, attempt)`,
//! folded through the in-tree splitmix64 mixer; wall-clock time is never
//! consulted, so a fixed seed replays the exact same fault sequence on
//! every run — the property `chaos_stencil_replays_byte_identically`
//! (`crates/apps/tests/determinism.rs`) verifies byte-for-byte.
//!
//! Plans come from builder calls or from the environment:
//!
//! ```text
//! MIM_CHAOS_SEED=42
//! MIM_CHAOS_PLAN="drop=0.05,dup=0.02,delay=0.1:2000,degrade=0-1:0.5,crash=3@ops:120"
//! ```

use std::sync::Arc;

use mim_mpisim::{CrashPoint, FaultInjector, LinkCtx, SendOutcome};
use mim_util::rng::{splitmix64, Rng};

/// A deterministic, seeded schedule of faults.
///
/// All probabilities are per *transmission attempt* (a retried message is
/// re-rolled with a distinct key, so a plan with `drop_p = 0.5` loses half
/// of all attempts but almost no messages once the runtime's capped-backoff
/// retry loop has run).  The zero plan — every probability 0, no degraded
/// links, no crashes — is exactly [`SendOutcome::CLEAN`] for every attempt
/// and leaves the simulation bit-identical to running with no injector at
/// all (see `tests/null_chaos.rs`).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    delay_max_ns: f64,
    /// Directed `(src_world, dst_world, bandwidth_scale)` overrides.
    degrade: Vec<(usize, usize, f64)>,
    crashes: Vec<(usize, CrashPoint)>,
    /// Ranks whose plan crash is followed by a rebirth (rolling restart,
    /// honoured by `Universe::launch_faulty`).  Each restarts exactly once:
    /// only the original incarnation's crash is covered.
    restarts: Vec<usize>,
    /// Join schedule: `(latent joiner world rank, sponsor op count)` pairs
    /// (see `FaultInjector::join_plan`).
    joins: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// A null plan: no faults, but the given seed is fixed for any
    /// probabilities added later.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_max_ns: 0.0,
            degrade: Vec::new(),
            crashes: Vec::new(),
            restarts: Vec::new(),
            joins: Vec::new(),
        }
    }

    /// Probability that a transmission attempt is silently lost.
    pub fn drop_p(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_p out of range: {p}");
        self.drop_p = p;
        self
    }

    /// Probability that a delivered message arrives twice.
    pub fn dup_p(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup_p out of range: {p}");
        self.dup_p = p;
        self
    }

    /// Probability `p` that a delivered message is late, by a uniform
    /// extra delay in `[0, max_ns)` virtual nanoseconds.
    pub fn delay(mut self, p: f64, max_ns: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay p out of range: {p}");
        assert!(max_ns >= 0.0, "delay max_ns must be non-negative: {max_ns}");
        self.delay_p = p;
        self.delay_max_ns = max_ns;
        self
    }

    /// Scale the effective bandwidth of the directed link `src -> dst`
    /// by `scale` (0.5 = half bandwidth, i.e. doubled per-byte cost).
    pub fn degrade_link(mut self, src_world: usize, dst_world: usize, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "bandwidth scale out of (0, 1]: {scale}");
        self.degrade.push((src_world, dst_world, scale));
        self
    }

    /// Crash `world` when its wire-operation counter reaches `ops`.
    pub fn crash_at_ops(mut self, world: usize, ops: u64) -> Self {
        self.crashes.push((world, CrashPoint::OpCount(ops)));
        self
    }

    /// Crash `world` at virtual timestamp `at_ns`.
    pub fn crash_at_time(mut self, world: usize, at_ns: f64) -> Self {
        self.crashes.push((world, CrashPoint::VirtualTimeNs(at_ns)));
        self
    }

    /// Rolling restart: crash `world` when its wire-operation counter
    /// reaches `ops`, then rebirth it (incarnation 1) under
    /// `Universe::launch_faulty`.  The strict `Universe::launch` never
    /// restarts: there the crash is a hard error, as with `crash_at_ops`.
    pub fn restart_at_ops(mut self, world: usize, ops: u64) -> Self {
        self.restarts.push(world);
        self.crash_at_ops(world, ops)
    }

    /// Schedule the admission of latent rank `world` when the sponsor's
    /// (world rank 0's) wire-operation counter reaches `ops` — the join
    /// dual of [`FaultPlan::crash_at_ops`].
    pub fn join_at_ops(mut self, world: usize, ops: u64) -> Self {
        self.joins.push((world, ops));
        self
    }

    /// The seed this plan keys every decision on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Wrap the plan for `UniverseConfig::with_injector`.
    pub fn into_injector(self) -> Arc<dyn FaultInjector> {
        Arc::new(self)
    }

    /// Build a plan from `MIM_CHAOS_SEED` / `MIM_CHAOS_PLAN`.
    ///
    /// Returns `None` when neither variable is set.  `MIM_CHAOS_SEED`
    /// defaults to 42 when only the plan is given.  Malformed input
    /// panics with the offending clause — a chaos run with a silently
    /// half-parsed plan would be worse than no run.
    pub fn from_env() -> Option<FaultPlan> {
        let seed_var = std::env::var("MIM_CHAOS_SEED").ok();
        let plan_var = std::env::var("MIM_CHAOS_PLAN").ok();
        if seed_var.is_none() && plan_var.is_none() {
            return None;
        }
        let seed = seed_var.map_or(42, |s| {
            s.trim().parse::<u64>().unwrap_or_else(|_| panic!("MIM_CHAOS_SEED not a u64: {s:?}"))
        });
        Some(Self::parse(seed, plan_var.as_deref().unwrap_or("")))
    }

    /// Parse the `MIM_CHAOS_PLAN` grammar: comma-separated clauses
    /// `drop=P`, `dup=P`, `delay=P:MAX_NS`, `degrade=SRC-DST:SCALE`,
    /// `crash=WORLD@ops:N` / `crash=WORLD@ns:T`.  Panics on anything it
    /// does not understand.
    pub fn parse(seed: u64, plan: &str) -> FaultPlan {
        let mut out = FaultPlan::new(seed);
        for clause in plan.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, val) = clause
                .split_once('=')
                .unwrap_or_else(|| panic!("MIM_CHAOS_PLAN clause without '=': {clause:?}"));
            let bad = |what: &str| -> ! { panic!("MIM_CHAOS_PLAN bad {what} in {clause:?}") };
            match key {
                "drop" => out = out.drop_p(val.parse().unwrap_or_else(|_| bad("probability"))),
                "dup" => out = out.dup_p(val.parse().unwrap_or_else(|_| bad("probability"))),
                "delay" => {
                    let (p, max) = val.split_once(':').unwrap_or_else(|| bad("P:MAX_NS pair"));
                    out = out.delay(
                        p.parse().unwrap_or_else(|_| bad("probability")),
                        max.parse().unwrap_or_else(|_| bad("max_ns")),
                    );
                }
                "degrade" => {
                    let (link, scale) = val.split_once(':').unwrap_or_else(|| bad("LINK:SCALE"));
                    let (src, dst) = link.split_once('-').unwrap_or_else(|| bad("SRC-DST link"));
                    out = out.degrade_link(
                        src.parse().unwrap_or_else(|_| bad("src rank")),
                        dst.parse().unwrap_or_else(|_| bad("dst rank")),
                        scale.parse().unwrap_or_else(|_| bad("scale")),
                    );
                }
                "crash" => {
                    let (world, point) = val.split_once('@').unwrap_or_else(|| bad("WORLD@POINT"));
                    let world: usize = world.parse().unwrap_or_else(|_| bad("world rank"));
                    let (kind, n) = point.split_once(':').unwrap_or_else(|| bad("ops:N or ns:T"));
                    out = match kind {
                        "ops" => out.crash_at_ops(world, n.parse().unwrap_or_else(|_| bad("ops"))),
                        "ns" => out.crash_at_time(world, n.parse().unwrap_or_else(|_| bad("time"))),
                        _ => bad("crash point kind (want ops: or ns:)"),
                    };
                }
                "restart" => {
                    let (world, point) = val.split_once('@').unwrap_or_else(|| bad("WORLD@POINT"));
                    let world: usize = world.parse().unwrap_or_else(|_| bad("world rank"));
                    let (kind, n) = point.split_once(':').unwrap_or_else(|| bad("ops:N"));
                    out = match kind {
                        "ops" => {
                            out.restart_at_ops(world, n.parse().unwrap_or_else(|_| bad("ops")))
                        }
                        _ => bad("restart point kind (want ops:)"),
                    };
                }
                "join" => {
                    let (world, point) = val.split_once('@').unwrap_or_else(|| bad("WORLD@POINT"));
                    let world: usize = world.parse().unwrap_or_else(|_| bad("world rank"));
                    let (kind, n) = point.split_once(':').unwrap_or_else(|| bad("ops:N"));
                    out = match kind {
                        "ops" => out.join_at_ops(world, n.parse().unwrap_or_else(|_| bad("ops"))),
                        _ => bad("join point kind (want ops:)"),
                    };
                }
                _ => bad("clause key"),
            }
        }
        out
    }

    /// No probabilistic faults configured (crashes and degradation do not
    /// involve the RNG at all).
    fn is_quiet(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.delay_p == 0.0
    }

    /// The per-decision RNG: seed folded with the attempt's identity.
    /// Stateless across calls, so replay needs no shared mutable state
    /// and is immune to thread scheduling.
    fn decision_rng(&self, link: &LinkCtx, attempt: u32) -> Rng {
        let mut h = self.seed;
        for v in [link.src_world as u64, link.dst_world as u64, link.op_index, u64::from(attempt)] {
            let mut s = h ^ v;
            h = splitmix64(&mut s);
        }
        Rng::seed_from_u64(h)
    }
}

impl FaultInjector for FaultPlan {
    fn on_attempt(&self, link: &LinkCtx, attempt: u32) -> SendOutcome {
        if self.is_quiet() {
            return SendOutcome::CLEAN;
        }
        let mut rng = self.decision_rng(link, attempt);
        // Draw order is part of the replay contract: drop, dup, delay.
        if self.drop_p > 0.0 && rng.gen_bool(self.drop_p) {
            return SendOutcome::Drop;
        }
        let duplicates = u32::from(self.dup_p > 0.0 && rng.gen_bool(self.dup_p));
        let extra_delay_ns = if self.delay_p > 0.0 && rng.gen_bool(self.delay_p) {
            rng.next_f64() * self.delay_max_ns
        } else {
            0.0
        };
        SendOutcome::Deliver { extra_delay_ns, duplicates }
    }

    fn link_bandwidth_scale(&self, src_world: usize, dst_world: usize) -> f64 {
        self.degrade
            .iter()
            .find(|(s, d, _)| *s == src_world && *d == dst_world)
            .map_or(1.0, |(_, _, scale)| *scale)
    }

    fn crash_point(&self, world: usize) -> Option<CrashPoint> {
        self.crashes.iter().find(|(w, _)| *w == world).map(|(_, p)| *p)
    }

    fn restart_after_crash(&self, world: usize, incarnation: u32) -> bool {
        // One rebirth per rank: a reborn body's own crashes (were pre_op not
        // already gated on incarnation 0) stay fatal.
        incarnation == 0 && self.restarts.contains(&world)
    }

    fn join_plan(&self) -> Vec<(usize, u64)> {
        self.joins.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(src: usize, dst: usize, op: u64) -> LinkCtx {
        LinkCtx { src_world: src, dst_world: dst, op_index: op, bytes: 64 }
    }

    #[test]
    fn null_plan_is_clean_without_touching_the_rng() {
        let plan = FaultPlan::new(7);
        for op in 0..100 {
            assert_eq!(plan.on_attempt(&link(0, 1, op), 0), SendOutcome::CLEAN);
        }
        assert_eq!(plan.link_bandwidth_scale(0, 1), 1.0);
        assert_eq!(plan.crash_point(0), None);
    }

    #[test]
    fn decisions_replay_exactly() {
        let mk = || FaultPlan::new(99).drop_p(0.3).dup_p(0.2).delay(0.5, 1000.0);
        let (a, b) = (mk(), mk());
        for src in 0..4 {
            for op in 0..64 {
                for attempt in 0..3 {
                    let l = link(src, (src + 1) % 4, op);
                    assert_eq!(a.on_attempt(&l, attempt), b.on_attempt(&l, attempt));
                    // And stable across repeated calls on one instance.
                    assert_eq!(a.on_attempt(&l, attempt), a.on_attempt(&l, attempt));
                }
            }
        }
    }

    #[test]
    fn distinct_keys_give_distinct_streams() {
        let plan = FaultPlan::new(1).drop_p(0.5);
        let mut drops = 0;
        for op in 0..1000 {
            if plan.on_attempt(&link(0, 1, op), 0) == SendOutcome::Drop {
                drops += 1;
            }
        }
        // A degenerate keying (e.g. ignoring op_index) would give 0 or 1000.
        assert!((300..700).contains(&drops), "drop rate implausible: {drops}/1000");

        // Retries of the same op are re-rolled: some first-attempt drops
        // must be followed by a clean second attempt.
        let recovered = (0..1000)
            .filter(|&op| {
                let l = link(0, 1, op);
                plan.on_attempt(&l, 0) == SendOutcome::Drop
                    && plan.on_attempt(&l, 1) != SendOutcome::Drop
            })
            .count();
        assert!(recovered > 100, "retry re-roll looks broken: {recovered}");
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = FaultPlan::new(1).drop_p(0.5);
        let b = FaultPlan::new(2).drop_p(0.5);
        let differs =
            (0..256).any(|op| a.on_attempt(&link(0, 1, op), 0) != b.on_attempt(&link(0, 1, op), 0));
        assert!(differs, "two seeds produced identical 256-op schedules");
    }

    #[test]
    fn degrade_and_crash_lookups() {
        let plan =
            FaultPlan::new(0).degrade_link(0, 1, 0.5).crash_at_ops(3, 120).crash_at_time(2, 5000.0);
        assert_eq!(plan.link_bandwidth_scale(0, 1), 0.5);
        assert_eq!(plan.link_bandwidth_scale(1, 0), 1.0, "degradation is directed");
        assert_eq!(plan.crash_point(3), Some(CrashPoint::OpCount(120)));
        assert_eq!(plan.crash_point(2), Some(CrashPoint::VirtualTimeNs(5000.0)));
        assert_eq!(plan.crash_point(0), None);
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            9,
            "drop=0.05, dup=0.02,delay=0.1:2000,degrade=0-1:0.5,crash=3@ops:120,crash=2@ns:5000",
        );
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.drop_p, 0.05);
        assert_eq!(plan.dup_p, 0.02);
        assert_eq!(plan.delay_p, 0.1);
        assert_eq!(plan.delay_max_ns, 2000.0);
        assert_eq!(plan.degrade, vec![(0, 1, 0.5)]);
        assert_eq!(
            plan.crashes,
            vec![(3, CrashPoint::OpCount(120)), (2, CrashPoint::VirtualTimeNs(5000.0))]
        );
    }

    #[test]
    fn parse_churn_grammar() {
        let plan = FaultPlan::parse(5, "restart=3@ops:40,join=8@ops:12");
        assert_eq!(plan.crashes, vec![(3, CrashPoint::OpCount(40))]);
        assert_eq!(plan.restarts, vec![3]);
        assert_eq!(plan.joins, vec![(8, 12)]);
        assert!(plan.restart_after_crash(3, 0));
        assert!(!plan.restart_after_crash(3, 1), "ranks restart exactly once");
        assert!(!plan.restart_after_crash(2, 0));
        assert_eq!(plan.join_plan(), vec![(8, 12)]);
    }

    #[test]
    #[should_panic(expected = "restart point kind")]
    fn parse_rejects_time_restart() {
        let _ = FaultPlan::parse(0, "restart=3@ns:500");
    }

    #[test]
    fn parse_empty_plan_is_null() {
        let plan = FaultPlan::parse(42, "");
        assert!(plan.is_quiet());
        assert!(plan.crashes.is_empty() && plan.degrade.is_empty());
    }

    #[test]
    #[should_panic(expected = "clause key")]
    fn parse_rejects_unknown_clause() {
        let _ = FaultPlan::parse(0, "jitter=0.5");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn parse_rejects_bad_number() {
        let _ = FaultPlan::parse(0, "drop=lots");
    }

    #[test]
    #[should_panic(expected = "without '='")]
    fn parse_rejects_bare_word() {
        let _ = FaultPlan::parse(0, "drop");
    }
}
