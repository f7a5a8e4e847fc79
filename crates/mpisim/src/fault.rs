//! The fault model and failure taxonomy.
//!
//! The runtime stays fault-free by default: a [`FaultPlan`] is an
//! *optional*, seeded schedule of faults — message drop, duplication, extra
//! delay, per-link bandwidth degradation, rank crashes and rolling
//! restarts — installed through [`crate::UniverseConfig::with_injector`] and
//! consulted by the wire layer at every send attempt.  Because the plan
//! decides everything at the sender — drop this attempt, duplicate the
//! delivery, stretch the arrival — recovery can be *simulated* rather than
//! round-tripped: a dropped attempt charges the sender a retransmission
//! timeout in virtual time and the next attempt is re-judged, exactly as an
//! eager protocol with sender-side ack timers would behave.  Without a plan
//! the wire layer's fault check is one branch on an `Option`.
//!
//! Plans come from builder calls or from [`FaultPlan::parse`], which reads
//! the `MIM_CHAOS_PLAN` grammar:
//!
//! ```text
//! drop=0.05,dup=0.02,delay=0.1:2000,degrade=0-1:0.5,crash=3@ops:120
//! ```
//!
//! Failure *handling* types also live here: [`RankFailure`] (what
//! `Universe::launch_faulty`, the one recoverable launch, reports per slot)
//! and [`PeerFailure`] (what `Rank::recv_or_failure` reports when the peer
//! died), plus the internal
//! fault-protocol constants (death notices and liveness pings travel on a
//! reserved communicator id and context so they can never match user traffic).
//!
//! Executor independence: every verdict is a pure function of virtual
//! identifiers (`seed, src, dst, op_index, attempt`) folded through the
//! in-tree splitmix64 mixer, the retransmission backoff is charged to the
//! virtual clock and a crash point is a wire-operation count — so a
//! fixed-seed plan replays bit-identically whether ranks are OS threads or
//! M:N tasks (the root `tests/chaos.rs`, module `executor_tasks_mode`).
//! The only seam the M:N engine adds is on the *receiving* side: a death
//! notice posted to a parked rank must wake its task, which is why all
//! fault-protocol traffic goes through `Shared::post` like user traffic.

use std::any::Any;
use std::fmt;

use mim_util::rng::{splitmix64, Rng};

/// Context handed to [`FaultPlan::on_attempt`] for one send attempt over a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkCtx {
    /// World rank of the sender.
    pub src_world: usize,
    /// World rank of the receiver.
    pub dst_world: usize,
    /// Logical message index on this (src → dst) link, 0-based.  Stable
    /// across retries of the same message, which lets a plan key its
    /// per-message randomness on `(src, dst, op_index, attempt)`.
    pub op_index: u64,
}

/// The plan's verdict for one send attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// Deliver the message, optionally late and/or more than once.
    Deliver {
        /// Extra latency added to the arrival time (link jitter), ns.
        extra_delay_ns: f64,
        /// Number of *extra* copies delivered (duplicate-delivery fault).
        /// The receiver deduplicates via wire sequence numbers.
        duplicates: u32,
    },
    /// Lose this attempt: the sender times out and retries with backoff.
    Drop,
}

impl SendOutcome {
    /// The no-fault outcome: deliver once, on time.
    pub const CLEAN: SendOutcome = SendOutcome::Deliver { extra_delay_ns: 0.0, duplicates: 0 };
}

/// A deterministic, seeded schedule of faults: the one fault model the wire
/// layer consults, installed through [`crate::UniverseConfig::with_injector`].
///
/// All probabilities are per *transmission attempt* (a retried message is
/// re-rolled with a distinct key, so a plan with `drop_p = 0.5` loses half
/// of all attempts but almost no messages once the runtime's capped-backoff
/// retry loop has run).  The zero plan — every probability 0, no degraded
/// links, no crashes — is exactly [`SendOutcome::CLEAN`] for every attempt
/// and leaves the simulation bit-identical to running with no plan at all
/// (the `null_chaos` tests).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    delay_max_ns: f64,
    /// Directed `(src_world, dst_world, bandwidth_scale)` overrides.
    degrade: Vec<(usize, usize, f64)>,
    /// `(world, ops)` crash points (see [`FaultPlan::crash_at_ops`]).
    crashes: Vec<(usize, u64)>,
    /// Ranks whose plan crash is followed by a rebirth (rolling restart,
    /// honoured by `Universe::launch_faulty`).  Each restarts exactly once:
    /// only the original incarnation's crash is covered.
    restarts: Vec<usize>,
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

    /// Crash `world` immediately before its `ops`-th wire operation, send
    /// or receive (0-based: 0 dies before doing anything) — the only points
    /// where a simulated process meets the rest of the world.
    pub fn crash_at_ops(mut self, world: usize, ops: u64) -> Self {
        self.crashes.push((world, ops));
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

    /// The seed this plan keys every decision on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Parse the `MIM_CHAOS_PLAN` grammar: comma-separated clauses
    /// `drop=P`, `dup=P`, `delay=P:MAX_NS`, `degrade=SRC-DST:SCALE`,
    /// `crash=WORLD@ops:N` and `restart=WORLD@ops:N`.  Panics on anything
    /// it does not understand, naming the offending clause — a chaos run
    /// with a silently half-parsed plan would be worse than no run.
    pub fn parse(seed: u64, plan: &str) -> FaultPlan {
        let mut out = FaultPlan::new(seed);
        for clause in plan.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, val) = clause
                .split_once('=')
                .unwrap_or_else(|| panic!("MIM_CHAOS_PLAN clause without '=': {clause:?}"));
            let bad = |what: &str| -> ! { panic!("MIM_CHAOS_PLAN bad {what} in {clause:?}") };
            // `WORLD@ops:N`, the point of the crash and restart clauses.
            let at = || -> (usize, u64) {
                let (world, point) = val.split_once('@').unwrap_or_else(|| bad("WORLD@POINT"));
                let (kind, n) = point.split_once(':').unwrap_or_else(|| bad("KIND:N point"));
                if kind != "ops" {
                    bad(&format!("{key} point kind (want ops:)"));
                }
                (
                    world.parse().unwrap_or_else(|_| bad("world rank")),
                    n.parse().unwrap_or_else(|_| bad("ops")),
                )
            };
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
                    let (w, n) = at();
                    out = out.crash_at_ops(w, n);
                }
                "restart" => {
                    let (w, n) = at();
                    out = out.restart_at_ops(w, n);
                }
                _ => bad("clause key"),
            }
        }
        out
    }

    /// Judge one send attempt.  `attempt` is 0 for the first try and
    /// increments with each sender-side retransmission.  A pure function of
    /// `(seed, src, dst, op_index, attempt)`, never of wall-clock time or
    /// shared mutable state, so a seeded plan replays byte-identically.
    pub fn on_attempt(&self, link: &LinkCtx, attempt: u32) -> SendOutcome {
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

    /// Bandwidth scale factor for a link, in `(0, 1]` (1.0 = healthy; 0.25
    /// = the link moves bytes at a quarter speed, i.e. `β` is divided by
    /// the scale).
    pub fn link_bandwidth_scale(&self, src_world: usize, dst_world: usize) -> f64 {
        self.degrade
            .iter()
            .find(|(s, d, _)| *s == src_world && *d == dst_world)
            .map_or(1.0, |(_, _, scale)| *scale)
    }

    /// The wire-operation count at which a rank crashes, if any: it
    /// completes that many operations and dies before the next.
    pub fn crash_point(&self, world: usize) -> Option<u64> {
        self.crashes.iter().find(|(w, _)| *w == world).map(|(_, n)| *n)
    }

    /// Rolling-restart schedule: is `world`, once this plan crashes it,
    /// reborn (same world rank, incarnation + 1; a `restart=WORLD@ops:N`
    /// clause)?  Asked by the per-slot driver under
    /// `Universe::launch_faulty` after a plan crash unwinds the rank body,
    /// never by the strict `Universe::launch`.  One rebirth per rank: only
    /// the original incarnation carries a crash point.
    pub fn restarts(&self, world: usize) -> bool {
        self.restarts.contains(&world)
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

/// Why a slot yielded no result, as reported by `Universe::launch_faulty`.
#[derive(Debug, Clone, PartialEq)]
pub enum RankFailure {
    /// The fault plan crashed this rank at the given virtual time after it
    /// had completed `ops` wire operations.
    Crashed {
        /// Virtual time of death (ns).
        at_ns: f64,
        /// Wire operations completed before death.
        ops: u64,
    },
    /// The rank aborted because a peer's mailbox was gone mid-send
    /// (a cascade effect, not a root cause).
    Aborted {
        /// World rank of the unreachable peer.
        dst: usize,
    },
    /// The rank panicked for an unrelated reason (a real bug).
    Panicked(String),
    /// A latent slot the sponsor never admitted: retired when world rank
    /// 0's slot ended, it never ran the rank body.
    Retired,
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankFailure::Crashed { at_ns, ops } => {
                write!(f, "crashed by fault injection at {at_ns:.0} ns after {ops} wire ops")
            }
            RankFailure::Aborted { dst } => write!(f, "aborted: peer rank {dst} unreachable"),
            RankFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            RankFailure::Retired => write!(f, "retired: latent slot never admitted"),
        }
    }
}

/// Internal panic payload used to unwind a rank body killed by the plan.
/// The per-slot driver restarts the slot when the plan says so;
/// otherwise `Universe::launch_faulty` downcasts it back into
/// [`RankFailure::Crashed`] and the strict `Universe::launch` reports it as
/// a hard error.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankCrashed {
    pub world: usize,
    pub at_ns: f64,
    pub ops: u64,
}

/// Internal panic payload of a latent slot retired before admission
/// ([`RankFailure::Retired`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankRetired;

impl RankFailure {
    /// Map a joined thread's panic payload to a failure report.
    pub(crate) fn classify(payload: Box<dyn Any + Send>) -> RankFailure {
        let payload = match payload.downcast::<RankCrashed>() {
            Ok(c) => return RankFailure::Crashed { at_ns: c.at_ns, ops: c.ops },
            Err(p) => p,
        };
        let payload = match payload.downcast::<crate::runtime::RankAborted>() {
            Ok(a) => return RankFailure::Aborted { dst: a.dst },
            Err(p) => p,
        };
        if payload.is::<RankRetired>() {
            return RankFailure::Retired;
        }
        let payload = match payload.downcast::<String>() {
            Ok(s) => return RankFailure::Panicked(*s),
            Err(p) => p,
        };
        match payload.downcast::<&'static str>() {
            Ok(s) => RankFailure::Panicked((*s).to_string()),
            Err(_) => RankFailure::Panicked("opaque panic payload".to_string()),
        }
    }
}

/// A peer observed (via its death notice) to have crashed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerFailure {
    /// World rank of the dead peer.
    pub world: usize,
    /// Virtual time at which it sent its death notice (ns).
    pub at_ns: f64,
}

impl fmt::Display for PeerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer rank {} crashed at {:.0} ns", self.world, self.at_ns)
    }
}

/// Maximum send attempts before the wire layer stops consulting the
/// plan and force-delivers (a plan can degrade a link, never sever it).
pub const RETRY_MAX_ATTEMPTS: u32 = 16;
/// Base retransmission timeout (ns) for attempt 0.
pub const RETRY_BASE_NS: f64 = 500.0;
/// Exponent cap: backoff stops doubling after this many attempts.
pub const RETRY_BACKOFF_CAP: u32 = 6;

/// Backoff charged to the sender's clock after losing `attempt`
/// (capped exponential: `RETRY_BASE_NS · 2^min(attempt, RETRY_BACKOFF_CAP)`).
pub fn backoff_ns(attempt: u32) -> f64 {
    RETRY_BASE_NS * f64::from(1u32 << attempt.min(RETRY_BACKOFF_CAP))
}

/// Reserved communicator id for the fault protocol (never allocated to a
/// user communicator: `Universe` ids start at 1).
pub(crate) const FAULT_COMM: u64 = 0;
/// Tag of a death notice (broadcast by a crashing rank to every peer).
pub(crate) const FAULT_TAG_DEATH: u32 = 0x00FD_0001;
/// Tag of a liveness ping (sent by `Rank::liveness_exchange`).
pub(crate) const FAULT_TAG_PING: u32 = 0x00FD_0002;
/// Tag of a rejoin notice (broadcast by a reborn rank; payload carries its
/// new incarnation, consumed by `Rank::await_rejoin`).
pub(crate) const FAULT_TAG_JOIN: u32 = 0x00FD_0003;
/// Tag of an admission notice (sponsor → latent rank; payload carries the
/// grown communicator the joiner was admitted into).
pub(crate) const FAULT_TAG_ADMIT: u32 = 0x00FD_0004;
/// Tag of a retirement notice (sponsor → latent rank that will never be
/// admitted: its slot yields `RankFailure::Retired` without running the
/// rank body).
pub(crate) const FAULT_TAG_RETIRE: u32 = 0x00FD_0005;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_caps() {
        assert_eq!(backoff_ns(0), 500.0);
        assert_eq!(backoff_ns(1), 1000.0);
        assert_eq!(backoff_ns(6), 500.0 * 64.0);
        assert_eq!(backoff_ns(7), 500.0 * 64.0);
        assert_eq!(backoff_ns(15), 500.0 * 64.0);
    }

    #[test]
    fn classify_payloads() {
        let crash: Box<dyn Any + Send> = Box::new(RankCrashed { world: 3, at_ns: 42.0, ops: 7 });
        assert_eq!(RankFailure::classify(crash), RankFailure::Crashed { at_ns: 42.0, ops: 7 });

        let msg: Box<dyn Any + Send> = Box::new("boom".to_string());
        assert_eq!(RankFailure::classify(msg), RankFailure::Panicked("boom".to_string()));

        let s: Box<dyn Any + Send> = Box::new("static boom");
        assert_eq!(RankFailure::classify(s), RankFailure::Panicked("static boom".to_string()));

        let retired: Box<dyn Any + Send> = Box::new(RankRetired);
        let retired = RankFailure::classify(retired);
        assert_eq!(retired, RankFailure::Retired);
        assert_eq!(retired.to_string(), "retired: latent slot never admitted");

        let opaque: Box<dyn Any + Send> = Box::new(17u32);
        assert_eq!(
            RankFailure::classify(opaque),
            RankFailure::Panicked("opaque panic payload".to_string())
        );
    }

    #[test]
    fn clean_outcome() {
        assert_eq!(SendOutcome::CLEAN, SendOutcome::Deliver { extra_delay_ns: 0.0, duplicates: 0 });
    }

    fn link(src: usize, dst: usize, op: u64) -> LinkCtx {
        LinkCtx { src_world: src, dst_world: dst, op_index: op }
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
            FaultPlan::new(0).degrade_link(0, 1, 0.5).crash_at_ops(3, 120).crash_at_ops(2, 0);
        assert_eq!(plan.link_bandwidth_scale(0, 1), 0.5);
        assert_eq!(plan.link_bandwidth_scale(1, 0), 1.0, "degradation is directed");
        assert_eq!(plan.crash_point(3), Some(120));
        assert_eq!(plan.crash_point(2), Some(0));
        assert_eq!(plan.crash_point(0), None);
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            9,
            "drop=0.05, dup=0.02,delay=0.1:2000,degrade=0-1:0.5,crash=3@ops:120,crash=2@ops:0",
        );
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.drop_p, 0.05);
        assert_eq!(plan.dup_p, 0.02);
        assert_eq!(plan.delay_p, 0.1);
        assert_eq!(plan.delay_max_ns, 2000.0);
        assert_eq!(plan.degrade, vec![(0, 1, 0.5)]);
        assert_eq!(plan.crashes, vec![(3, 120), (2, 0)]);
    }

    #[test]
    fn parse_churn_grammar() {
        let plan = FaultPlan::parse(5, "restart=3@ops:40");
        assert_eq!(plan.crashes, vec![(3, 40)]);
        assert_eq!(plan.restarts, vec![3]);
        assert!(plan.restarts(3) && !plan.restarts(2));
    }

    #[test]
    #[should_panic(expected = "restart point kind")]
    fn parse_rejects_time_restart() {
        let _ = FaultPlan::parse(0, "restart=3@ns:500");
    }

    /// Latent ranks join where code calls `Rank::admit`: the plan has no
    /// join clause.
    #[test]
    #[should_panic(expected = "bad clause key in \"join=8@ops:12\"")]
    fn parse_rejects_join_clause() {
        let _ = FaultPlan::parse(5, "restart=3@ops:40,join=8@ops:12");
    }

    /// A crash point is a wire-operation count, never a virtual time.
    #[test]
    #[should_panic(expected = "bad crash point kind (want ops:) in \"crash=2@ns:5000\"")]
    fn parse_rejects_time_crash() {
        let _ = FaultPlan::parse(9, "crash=3@ops:120,crash=2@ns:5000");
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
