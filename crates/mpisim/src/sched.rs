//! Schedule-control seam: the three nondeterminism points of the runtime,
//! each consulting an injectable [`SchedulePolicy`].
//!
//! A virtual-time simulation is deterministic *given* a schedule, but three
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
//! 3. **Wire delivery** (`Shared::post` in [`crate::runtime`], the funnel
//!    below the [`crate::pml`] layer that every NIC delivery takes): the
//!    order staged envelopes are released to their destination mailboxes.
//!    The default releases in posting (FIFO) order.
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
    /// Which staged wire delivery `(src_world, dst_world)` is released to
    /// its destination mailbox next, in posting (FIFO) order.
    WireDelivery {
        /// Staged deliveries in posting order.
        candidates: &'a [(usize, usize)],
    },
}

impl Decision<'_> {
    /// Number of candidates on the slate.
    pub fn len(&self) -> usize {
        match self {
            Decision::TaskResume { candidates } => candidates.len(),
            Decision::WildcardTake { candidates, .. } => candidates.len(),
            Decision::WireDelivery { candidates } => candidates.len(),
        }
    }

    /// True when the slate is empty (never offered by the runtime).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Single-letter kind code used in serialized decision logs
    /// (`r` resume, `w` wildcard, `d` delivery).
    pub fn kind_code(&self) -> char {
        match self {
            Decision::TaskResume { .. } => 'r',
            Decision::WildcardTake { .. } => 'w',
            Decision::WireDelivery { .. } => 'd',
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
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(p.choose(d), 0);
        assert!(p.decision_log().is_none());
        let r = Decision::TaskResume { candidates: &[0, 1] };
        assert_eq!(r.kind_code(), 'r');
        let w = Decision::WireDelivery { candidates: &[(0, 1)] };
        assert_eq!(w.kind_code(), 'd');
        assert_eq!(clamp_choice(5, 2), 1);
        assert_eq!(clamp_choice(0, 2), 0);
    }
}
