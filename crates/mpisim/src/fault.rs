//! Fault-injection seam and failure taxonomy.
//!
//! The runtime stays fault-free by default: a [`FaultInjector`] is an
//! *optional* oracle installed through [`crate::UniverseConfig::with_injector`]
//! that the wire layer consults at every send attempt.  Because the injector
//! decides everything at the sender — drop this attempt, duplicate the
//! delivery, stretch the arrival — recovery can be *simulated* rather than
//! round-tripped: a dropped attempt charges the sender a retransmission
//! timeout in virtual time and the next attempt is re-judged, exactly as an
//! eager protocol with sender-side ack timers would behave.  Concrete
//! deterministic plans live in `mim-chaos`; this module only defines the seam
//! so the runtime carries no policy.
//!
//! Failure *handling* types also live here: [`RankFailure`] (what
//! `Universe::launch_faulty`, the one recoverable launch, reports per slot)
//! and [`PeerFailure`] (what `Rank::recv_or_failure` reports when the peer
//! died), plus the internal
//! fault-protocol constants (death notices and liveness pings travel on a
//! reserved communicator id and context so they can never match user traffic).
//!
//! Executor independence: every injector verdict is a pure function of
//! virtual identifiers (`seed, src, dst, op_index, attempt`), and both the
//! retransmission backoff and the crash points are charged to the virtual
//! clock — so a fixed-seed plan replays bit-identically whether ranks are
//! OS threads or M:N tasks (`executor_tasks_mode` test in `mim-chaos`).
//! The only seam the M:N engine adds is on the *receiving* side: a death
//! notice posted to a parked rank must wake its task, which is why all
//! fault-protocol traffic goes through `Shared::post` like user traffic.

use std::any::Any;
use std::fmt;

/// When a rank should crash, in the rank's own frame of reference.
///
/// Both variants are checked at wire-operation boundaries (send or receive
/// entry), the only points where a simulated process interacts with the rest
/// of the world — crashing mid-computation would be indistinguishable to
/// every peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPoint {
    /// Crash immediately before the rank's `n`-th wire operation
    /// (0-based: `OpCount(0)` dies before doing anything).
    OpCount(u64),
    /// Crash at the first wire operation whose entry virtual time is
    /// `>= t` nanoseconds.
    VirtualTimeNs(f64),
}

/// Context handed to the injector for one send attempt over a link.
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
    /// Payload bytes of the message.
    pub bytes: u64,
}

/// The injector's verdict for one send attempt.
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

/// A deterministic fault oracle consulted by the wire layer.
///
/// Implementations must be pure functions of their inputs and their own
/// (immutable) configuration — never of wall-clock time or global mutable
/// state — so a seeded plan replays byte-identically.
pub trait FaultInjector: Send + Sync + fmt::Debug {
    /// Judge one send attempt.  `attempt` is 0 for the first try and
    /// increments with each sender-side retransmission.
    fn on_attempt(&self, link: &LinkCtx, attempt: u32) -> SendOutcome;

    /// Bandwidth scale factor for a link (1.0 = healthy; 0.25 = the link
    /// moves bytes at a quarter speed, i.e. `β` is divided by the scale).
    /// Must return a value in `(0, 1]`.
    fn link_bandwidth_scale(&self, _src_world: usize, _dst_world: usize) -> f64 {
        1.0
    }

    /// Crash schedule for a rank, if any.
    fn crash_point(&self, _world: usize) -> Option<CrashPoint> {
        None
    }

    /// Rolling-restart schedule: should a rank crashed by this plan be
    /// reborn (same world rank, incarnation + 1)?  Consulted by the per-slot
    /// driver under `Universe::launch_faulty` after a plan crash unwinds the
    /// rank body; `incarnation` is the incarnation that just died (0 for the
    /// original).  The default — never restart — leaves a crashed slot
    /// `Crashed`; the strict `Universe::launch` never asks.
    fn restart_after_crash(&self, _world: usize, _incarnation: u32) -> bool {
        false
    }

    /// Join schedule: latent ranks the sponsor (world rank 0) admits
    /// mid-run, as `(joiner world rank, sponsor op count)` pairs.  The
    /// sponsor checks this at every wire-operation prologue and sends the
    /// admission notice when its op count reaches the threshold, so a
    /// seeded plan's joins land at a byte-reproducible point of the run.
    fn join_plan(&self) -> Vec<(usize, u64)> {
        Vec::new()
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
/// injector and force-delivers (a plan can degrade a link, never sever it).
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
}
