//! Schedule-control seam: the two nondeterminism points of the runtime,
//! each consulting an injectable [`SchedulePolicy`].
//!
//! A virtual-time simulation is deterministic *given* a schedule, but two
//! places let real-machine scheduling leak into which schedule runs:
//!
//! 1. **Wildcard take** ([`crate::mailbox`]): when an `ANY_SOURCE`/`ANY_TAG`
//!    receive has several eligible `(src, tag)` channels queued, MPI lets
//!    any of them win.  The default picks the earliest arrival; a policy may
//!    pick any candidate.
//! 2. **Task resume** ([`crate::exec`], `ExecutorKind::Tasks`): which
//!    runnable rank task a worker resumes next.  The default is the
//!    worker's run-next slot, then the run queue in FIFO order; a policy
//!    forces one worker and picks explicitly.
//!
//! A policy always runs on that one-worker tasks engine, whatever executor
//! the config asks for (`Universe::new` selects it).  Wire delivery is
//! therefore not a third point: one rank runs at a time, so each post
//! reaches its destination mailbox before any other rank runs, in the
//! order the resume decisions put the ranks in.  Which questions a run
//! asks, and how many, then depends on the answers alone, which is what
//! lets a recorded decision log replay a live run.
//!
//! With no policy installed nothing changes — the hooks are a single
//! `Option` test, and the canonical policy (always index 0) is bit-identical
//! to no policy at all, verified by `props!` equivalence properties.  The
//! `mim-explore` crate builds recording, random, scripted and replay
//! policies on this trait and drives them from a schedule explorer.

use std::sync::Arc;

/// One scheduling decision offered to a policy: a slate of candidates in
/// *canonical order* (the order the un-policed runtime would consider them),
/// from which the policy picks an index.  Index 0 always reproduces the
/// default behavior.
#[derive(Debug)]
pub enum Decision<'a> {
    /// Which runnable task (by world rank) a worker resumes next.
    TaskResume {
        /// Runnable task indices (world ranks) in canonical dispatch order.
        candidates: &'a [usize],
    },
    /// Which eligible `(src_world, tag)` channel a wildcard receive takes,
    /// in head-arrival order (index 0 = earliest arrival = MPI default).
    WildcardTake {
        /// The receiving world rank.
        rank: usize,
        /// Eligible channels in head-arrival order.
        candidates: &'a [(usize, u32)],
    },
}

impl Decision<'_> {
    /// Number of candidates on the slate.
    pub fn slate_size(&self) -> usize {
        match self {
            Decision::TaskResume { candidates } => candidates.len(),
            Decision::WildcardTake { candidates, .. } => candidates.len(),
        }
    }

    /// Single-letter kind code used in serialized decision logs
    /// (`r` resume, `w` wildcard).
    pub fn kind_code(&self) -> char {
        match self {
            Decision::TaskResume { .. } => 'r',
            Decision::WildcardTake { .. } => 'w',
        }
    }
}

/// An external scheduler for the runtime's nondeterminism points.
///
/// Implementations use interior mutability (`&self` methods, the runtime
/// shares one policy across ranks and workers) and must be cheap: `choose`
/// sits on the mailbox and dispatch hot paths.  The runtime only consults a
/// policy when a decision has **at least two** candidates; singleton slates
/// are taken without a call, so decision logs contain exactly the branch
/// points of the schedule.
pub trait SchedulePolicy: Send + Sync + std::fmt::Debug {
    /// Pick a candidate index (`0..decision.len()`).  Out-of-range returns
    /// are clamped to the last candidate rather than trusted.
    fn choose(&self, decision: Decision<'_>) -> usize;

    /// Serialized log of every decision taken so far, for witness files and
    /// deadlock-panic payloads.  `None` when the policy does not record.
    fn decision_log(&self) -> Option<String> {
        None
    }
}

/// The identity policy: always index 0, i.e. exactly the un-policed
/// runtime's behavior.  Used as the equivalence-property anchor and as the
/// canonical first schedule of an exploration.
#[derive(Debug, Default, Clone, Copy)]
pub struct CanonicalPolicy;

impl SchedulePolicy for CanonicalPolicy {
    fn choose(&self, _decision: Decision<'_>) -> usize {
        0
    }
}

/// Shared handle to an installed policy (the runtime clones it into every
/// rank's mailbox and into the executor).
pub type PolicyHandle = Arc<dyn SchedulePolicy>;

/// Clamp a policy's chosen index onto a slate of `n` candidates.
pub(crate) fn clamp_choice(chosen: usize, n: usize) -> usize {
    chosen.min(n.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_picks_zero_and_codes_are_stable() {
        let p = CanonicalPolicy;
        let cands = [(1usize, 0u32), (2, 0)];
        let d = Decision::WildcardTake { rank: 0, candidates: &cands };
        assert_eq!(d.kind_code(), 'w');
        assert_eq!(d.slate_size(), 2);
        assert_eq!(p.choose(d), 0);
        assert!(p.decision_log().is_none());
        let r = Decision::TaskResume { candidates: &[0, 1] };
        assert_eq!(r.kind_code(), 'r');
        assert_eq!(clamp_choice(5, 2), 1);
        assert_eq!(clamp_choice(0, 2), 0);
    }
}
