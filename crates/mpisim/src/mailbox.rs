//! Per-rank mailbox with MPI matching semantics.
//!
//! Matching is *indexed*: arrived-but-unmatched envelopes live in
//! [`UnexpectedQueue`], a two-level hash index keyed by `(comm, ctx)` then
//! `(src_world, tag)`, each leaf a FIFO stamped with a global arrival
//! sequence number.  A fully specific receive pops the head of one leaf in
//! O(1) amortized; a wildcard receive takes the minimum arrival sequence
//! over the candidate leaves of its `(comm, ctx)` group — a min over
//! *distinct channels*, not a scan over queued messages — which preserves
//! MPI's non-overtaking rule exactly (per-channel FIFOs never reorder, and
//! the sequence stamp restores global arrival order across channels).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::time::Duration;

use mim_trace::TraceHandle;
use mim_util::channel::Receiver;
use mim_util::hash::IdMap;

use crate::envelope::{Ctx, Envelope};
use crate::exec::{ParkWake, ParkerHandle};
use crate::sched::{clamp_choice, Decision, PolicyHandle, SchedulePolicy};

/// How many ring events per track a mailbox panic appends to its message.
const FLIGHT_EVENTS: usize = 20;

/// Source selector for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match any sender (`MPI_ANY_SOURCE`).
    Any,
    /// Match a specific *world* rank (translation from communicator rank is
    /// done by the caller, which owns the communicator).
    World(usize),
}

/// Tag selector for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
    /// Match a specific tag.
    Is(u32),
}

/// A receive pattern: communicator, context, source and tag.
#[derive(Debug, Clone, Copy)]
pub struct MatchPattern {
    pub comm_id: u64,
    pub ctx: Ctx,
    pub src: SrcSel,
    pub tag: TagSel,
}

impl MatchPattern {
    fn matches(&self, env: &Envelope) -> bool {
        if env.comm_id != self.comm_id || env.ctx != self.ctx {
            return false;
        }
        if let SrcSel::World(w) = self.src {
            if env.src_world != w {
                return false;
            }
        }
        if let TagSel::Is(t) = self.tag {
            if env.tag != t {
                return false;
            }
        }
        true
    }
}

/// One `(comm, ctx)` matching group: its channels, plus the channels
/// ordered by the arrival sequence of their *head* message.
#[derive(Default)]
struct Group {
    /// `(src_world, tag)` → FIFO of `(arrival seq, env)`.
    chans: IdMap<(usize, u32), VecDeque<(u64, Envelope)>>,
    /// Head arrival seq → channel.  Walking this in order visits channels
    /// by earliest eligible message, so a wildcard take stops at the first
    /// channel passing its src/tag filter — O(log k) for `ANY/ANY` instead
    /// of a min over every candidate channel.
    by_head: BTreeMap<u64, (usize, u32)>,
}

fn chan_matches(pat: &MatchPattern, (src, tag): (usize, u32)) -> bool {
    (match pat.src {
        SrcSel::Any => true,
        SrcSel::World(w) => src == w,
    }) && (match pat.tag {
        TagSel::Any => true,
        TagSel::Is(t) => tag == t,
    })
}

/// The indexed unexpected-message queue (see module docs).
///
/// Public so a measurement (`mim-ledger`'s `mpisim.mailbox.*` probes,
/// `mim-bench`'s `seam_overhead` test) can drive it directly, without
/// threads or channels in the measured loop.
#[derive(Default)]
pub struct UnexpectedQueue {
    groups: IdMap<(u64, Ctx), Group>,
    next_seq: u64,
    len: usize,
}

impl UnexpectedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued envelopes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append an envelope in arrival order.
    pub fn push(&mut self, env: Envelope) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let group = self.groups.entry((env.comm_id, env.ctx)).or_default();
        let chan = (env.src_world, env.tag);
        let fifo = group.chans.entry(chan).or_default();
        if fifo.is_empty() {
            group.by_head.insert(seq, chan);
        }
        fifo.push_back((seq, env));
        self.len += 1;
    }

    /// Remove and return the earliest-arrived envelope matching `pat`.
    pub fn take(&mut self, pat: &MatchPattern) -> Option<Envelope> {
        // Wildcard: first channel in head-arrival order passing the filter
        // — its head is the earliest eligible message, because every queued
        // message is some channel's head or behind it.
        self.take_by(pat, |group| group.by_head.values().copied().find(|&c| chan_matches(pat, c)))
    }

    /// Like [`UnexpectedQueue::take`], but when a wildcard receive has
    /// several eligible channels the installed [`SchedulePolicy`] picks
    /// which one wins (`rank` = the receiving world rank, decision
    /// context).  Candidates are offered in head-arrival order, so a policy
    /// answering 0 is bit-identical to the un-policed take.
    pub(crate) fn take_policed(
        &mut self,
        pat: &MatchPattern,
        rank: usize,
        policy: &dyn SchedulePolicy,
    ) -> Option<Envelope> {
        self.take_by(pat, |group| {
            let cands: Vec<(usize, u32)> =
                group.by_head.values().copied().filter(|&c| chan_matches(pat, c)).collect();
            match cands.len() {
                0 => None,
                1 => Some(cands[0]),
                n => {
                    let i = policy.choose(Decision::WildcardTake { rank, candidates: &cands });
                    Some(cands[clamp_choice(i, n)])
                }
            }
        })
    }

    /// The pop both takes share: a fully specific pattern names its one
    /// leaf (O(1)), a wildcard asks `pick_wild` for the channel; the head
    /// of the chosen channel is removed and the index repaired.
    fn take_by(
        &mut self,
        pat: &MatchPattern,
        pick_wild: impl FnOnce(&Group) -> Option<(usize, u32)>,
    ) -> Option<Envelope> {
        let group_key = (pat.comm_id, pat.ctx);
        let group = self.groups.get_mut(&group_key)?;
        let chan = match (pat.src, pat.tag) {
            (SrcSel::World(src), TagSel::Is(tag)) => {
                group.chans.contains_key(&(src, tag)).then_some((src, tag))?
            }
            _ => pick_wild(group)?,
        };
        let fifo = group.chans.get_mut(&chan).expect("channel key came from the index");
        let (seq, env) = fifo.pop_front().expect("empty channels are pruned");
        group.by_head.remove(&seq);
        if let Some(&(next_seq, _)) = fifo.front() {
            group.by_head.insert(next_seq, chan);
        } else {
            group.chans.remove(&chan);
            if group.chans.is_empty() {
                self.groups.remove(&group_key);
            }
        }
        self.len -= 1;
        Some(env)
    }

    /// Is any queued envelope matching `pat` (no removal)?
    pub(crate) fn contains_match(&self, pat: &MatchPattern) -> bool {
        let Some(group) = self.groups.get(&(pat.comm_id, pat.ctx)) else { return false };
        match (pat.src, pat.tag) {
            (SrcSel::World(src), TagSel::Is(tag)) => group.chans.contains_key(&(src, tag)),
            _ => group.by_head.values().any(|&c| chan_matches(pat, c)),
        }
    }

    /// Human-readable dump of up to `limit` queued envelopes in arrival
    /// order (deadlock diagnostics).
    pub(crate) fn dump(&self, limit: usize) -> String {
        let mut all: Vec<(u64, &Envelope)> = self
            .groups
            .values()
            .flat_map(|g| g.chans.values())
            .flat_map(|fifo| fifo.iter().map(|(s, e)| (*s, e)))
            .collect();
        all.sort_unstable_by_key(|&(s, _)| s);
        let mut out = String::new();
        for (seq, e) in all.iter().take(limit) {
            let _ = writeln!(
                out,
                "  #{seq}: src_world={} comm={} ctx={:?} tag={} kind={:?} bytes={}",
                e.src_world,
                e.comm_id,
                e.ctx,
                e.tag,
                e.kind,
                e.payload.len_bytes()
            );
        }
        if all.len() > limit {
            let _ = writeln!(out, "  … and {} more", all.len() - limit);
        }
        out
    }
}

/// The seed's linear matcher, retained as a correctness oracle: a flat
/// arrival-ordered `Vec` scanned front to back.  The equivalence property
/// in the test module drives random interleavings through both matchers.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct LinearQueue {
    items: Vec<Envelope>,
}

#[cfg(test)]
impl LinearQueue {
    pub(crate) fn push(&mut self, env: Envelope) {
        self.items.push(env);
    }

    pub(crate) fn take(&mut self, pat: &MatchPattern) -> Option<Envelope> {
        let pos = self.items.iter().position(|e| pat.matches(e))?;
        Some(self.items.remove(pos))
    }

    pub(crate) fn contains_match(&self, pat: &MatchPattern) -> bool {
        self.items.iter().any(|e| pat.matches(e))
    }
}

/// A rank's incoming-message endpoint: the channel receiver plus the
/// *unexpected message queue* holding arrived-but-unmatched envelopes, kept
/// in arrival order so matching picks the earliest eligible message —
/// MPI's non-overtaking rule.
pub struct Mailbox {
    rx: Receiver<Envelope>,
    unexpected: UnexpectedQueue,
    /// Wall-clock deadline for one blocking receive; hitting it means the
    /// simulated application deadlocked, so we panic with a diagnostic
    /// instead of hanging the test suite.
    deadline: Duration,
    /// High-water mark of the unexpected queue (cheap enough to always
    /// track; surfaced per session via the monitoring library).
    uq_high: usize,
    /// The owning rank's trace track: when set, a deadlock panic appends
    /// the flight-recorder dump — the last ring events of *every* track —
    /// to its message.
    trace: Option<TraceHandle>,
    /// This mailbox's incarnation (0 for an original rank; bumped when the
    /// owning rank is reborn after a plan crash).  Non-fault envelopes
    /// addressed to a different incarnation are dropped on admission.
    incarnation: u32,
    /// Last admitted `(sender incarnation, wire sequence)` per sender
    /// (fault-injection dedup).  A newer sender incarnation replaces the
    /// entry, so a reborn sender's wire sequence restarting at 0 is
    /// admitted instead of being mistaken for a stale duplicate.
    last_wire_seq: IdMap<usize, (u32, u64)>,
    /// Envelopes dropped as duplicate deliveries.
    dup_dropped: u64,
    /// Envelopes dropped as stale-incarnation traffic (addressed to, or
    /// sent by, an incarnation that no longer exists).
    stale_dropped: u64,
    /// Under the M:N executor, blocking waits park the rank's *task* here
    /// instead of its worker thread; `None` (thread-per-rank) keeps the
    /// wall-clock `recv_timeout` path.
    parker: Option<ParkerHandle>,
    /// Installed schedule policy plus the owning world rank (decision
    /// context): wildcard takes with several eligible channels ask it which
    /// one wins, and deadline panics carry its decision log.
    policy: Option<(PolicyHandle, usize)>,
}

impl Mailbox {
    /// Wrap a channel receiver. `deadline` bounds any single blocking receive.
    pub(crate) fn new(rx: Receiver<Envelope>, deadline: Duration) -> Self {
        Self {
            rx,
            unexpected: UnexpectedQueue::new(),
            deadline,
            uq_high: 0,
            trace: None,
            incarnation: 0,
            last_wire_seq: IdMap::default(),
            dup_dropped: 0,
            stale_dropped: 0,
            parker: None,
            policy: None,
        }
    }

    /// Set the owning rank's incarnation (elastic restarts).  Messages in
    /// flight to an older incarnation are dropped on admission from then on.
    pub(crate) fn set_incarnation(&mut self, incarnation: u32) {
        self.incarnation = incarnation;
    }

    /// Route blocking waits through the M:N executor: park the rank's task
    /// (freeing its worker thread) instead of sleeping in `recv_timeout`.
    pub(crate) fn set_parker(&mut self, parker: ParkerHandle) {
        self.parker = Some(parker);
    }

    /// Attach the owning rank's trace track (flight-recorder dumps on
    /// deadlock panics).
    pub(crate) fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Install a schedule policy: wildcard receives with several eligible
    /// channels consult it, and deadlock panics append its decision log so
    /// a deadlock found mid-exploration stays replayable.
    pub(crate) fn set_policy(&mut self, policy: PolicyHandle, world_rank: usize) {
        self.policy = Some((policy, world_rank));
    }

    /// The channel receiver, for a reborn rank's mailbox: everything else —
    /// the unexpected queue included — dies with this incarnation.
    pub(crate) fn into_receiver(self) -> Receiver<Envelope> {
        self.rx
    }

    /// Take the earliest (or, under a policy, the chosen) queued envelope
    /// matching `pat`.
    fn take_unexpected(&mut self, pat: &MatchPattern) -> Option<Envelope> {
        match &self.policy {
            Some((policy, rank)) => self.unexpected.take_policed(pat, *rank, policy.as_ref()),
            None => self.unexpected.take(pat),
        }
    }

    /// The installed policy's decision log, or an empty string.  Deadline
    /// panics append it after the flight-recorder dump: the log is the
    /// schedule witness, without it a deadlock found during exploration
    /// could not be replayed.
    fn decision_dump(&self) -> String {
        match self.policy.as_ref().and_then(|(p, _)| p.decision_log()) {
            Some(log) => format!("\nschedule decisions (replay witness):\n{log}"),
            None => String::new(),
        }
    }

    /// The flight-recorder dump, or an empty string when tracing is off.
    fn flight_dump(&self) -> String {
        match &self.trace {
            Some(t) => {
                format!("\nflight recorder:\n{}", t.tracer().flight_report(FLIGHT_EVENTS))
            }
            None => String::new(),
        }
    }

    fn queue_unexpected(&mut self, env: Envelope) {
        self.unexpected.push(env);
        self.uq_high = self.uq_high.max(self.unexpected.len());
    }

    /// Duplicate-delivery filter: admit an envelope unless its wire
    /// sequence is not newer than the last one admitted from the same
    /// sender.  Sound because each sender's channel is FIFO and the sender
    /// assigns non-decreasing sequences (duplicates are enqueued
    /// back-to-back with the same sequence), so "not newer" can only mean
    /// "a copy of something already admitted".
    fn admit(&mut self, env: Envelope) -> Option<Envelope> {
        // Incarnation filter (fault-protocol traffic is exempt: death,
        // ping and join notices must reach whatever incarnation is live).
        // A message addressed to a different incarnation of this rank was
        // in flight across a crash/restart boundary: reject it
        // deterministically rather than misdeliver it.
        if env.ctx != Ctx::Fault && env.dst_inc != self.incarnation {
            self.stale_dropped += 1;
            return None;
        }
        let Some(seq) = env.wire_seq else { return Some(env) };
        match self.last_wire_seq.get(&env.src_world) {
            // A dead incarnation's leftovers: drop, whatever the sequence.
            Some(&(inc, _)) if env.src_inc < inc => {
                self.stale_dropped += 1;
                None
            }
            Some(&(inc, last)) if env.src_inc == inc && seq <= last => {
                self.dup_dropped += 1;
                None
            }
            // First message from this sender, a newer sequence, or a newer
            // incarnation (which replaces the entry: its sequences restart
            // at 0).
            _ => {
                self.last_wire_seq.insert(env.src_world, (env.src_inc, seq));
                Some(env)
            }
        }
    }

    /// The single blocking point of the mailbox: wait for the next envelope,
    /// `None` on timeout.  Thread-per-rank sleeps in the channel's
    /// wall-clock `recv_timeout`; under the M:N executor the rank's *task*
    /// parks and the timeout is produced deterministically by the
    /// scheduler's stall resolver (all live tasks parked, every queue empty)
    /// rather than by elapsed time — same observable outcome, no blocked
    /// worker thread.
    fn wait_message(&mut self) -> Option<Envelope> {
        let Some(parker) = &self.parker else {
            return self.rx.recv_timeout(self.deadline);
        };
        loop {
            if let Some(env) = self.rx.try_recv() {
                return Some(env);
            }
            match parker.park(self.deadline) {
                // A wake may be a leftover token from a message already
                // consumed; the re-poll above sorts it out.
                ParkWake::Message => continue,
                ParkWake::Deadline => return None,
            }
        }
    }

    /// The one blocking wait, `None` on timeout: the earliest queued match
    /// over `pats` taken in order — an earlier pattern wins when several
    /// have a message queued — else wait for arrivals, admit each and
    /// return the first that matches any pattern (directly, without a trip
    /// through the unexpected queue), queueing the rest.  Returns the
    /// envelope with the index of the pattern it matched.
    fn wait_first(&mut self, pats: &[&MatchPattern]) -> Option<(Envelope, usize)> {
        for (i, pat) in pats.iter().enumerate() {
            if let Some(env) = self.take_unexpected(pat) {
                return Some((env, i));
            }
        }
        loop {
            let env = self.wait_message()?;
            let Some(env) = self.admit(env) else { continue };
            if let Some(i) = pats.iter().position(|pat| pat.matches(&env)) {
                return Some((env, i));
            }
            self.queue_unexpected(env);
        }
    }

    /// Blocking receive of the earliest message matching any of `pats`,
    /// with the index of the pattern it matched (see `wait_first`).
    ///
    /// With a data pattern ahead of a death-notice pattern this is the
    /// failure detector's wait: per-channel FIFO guarantees data sent
    /// before a crash is consumed before the death notice.
    ///
    /// # Panics
    /// Panics (deadlock detector) if no matching message arrives within the
    /// wall-clock deadline, with every pattern, the unexpected queue, the
    /// flight recorder and the policy's decision log in the message.
    pub(crate) fn recv_first(&mut self, pats: &[&MatchPattern]) -> (Envelope, usize) {
        match self.wait_first(pats) {
            Some(got) => got,
            None => panic!(
                "deadlock: no message matching {} within {:?} \
                 (override with MIM_DEADLINE_MS); {} unexpected messages queued:\n{}{}{}",
                pats.iter().map(|p| format!("{p:?}")).collect::<Vec<_>>().join(" or "),
                self.deadline,
                self.unexpected.len(),
                self.unexpected.dump(16),
                self.flight_dump(),
                self.decision_dump()
            ),
        }
    }

    /// Blocking receive of the earliest message matching `pat`.
    ///
    /// # Panics
    /// Panics if no matching message arrives within the wall-clock deadline
    /// (deadlock detector).
    pub(crate) fn recv_match(&mut self, pat: &MatchPattern) -> Envelope {
        self.recv_first(&[pat]).0
    }

    /// Non-blocking probe: is a matching message already available?
    /// Drains the channel into the unexpected queue first.
    pub(crate) fn iprobe(&mut self, pat: &MatchPattern) -> bool {
        while let Some(env) = self.rx.try_recv() {
            if let Some(env) = self.admit(env) {
                self.queue_unexpected(env);
            }
        }
        self.unexpected.contains_match(pat)
    }

    /// Envelopes dropped by the duplicate-delivery filter.
    pub(crate) fn duplicates_dropped(&self) -> u64 {
        self.dup_dropped
    }

    /// Envelopes dropped by the incarnation filter (stale-incarnation
    /// traffic across a crash/restart boundary).
    pub(crate) fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Number of queued unexpected messages (diagnostic).
    pub(crate) fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// High-water mark of the unexpected queue over the mailbox's lifetime.
    pub(crate) fn max_unexpected_depth(&self) -> usize {
        self.uq_high
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{MsgKind, Payload};
    use mim_util::channel::unbounded;
    use mim_util::props;

    fn env(src: usize, comm: u64, ctx: Ctx, tag: u32) -> Envelope {
        Envelope {
            src_world: src,
            dst_world: 9,
            comm_id: comm,
            ctx,
            tag,
            kind: MsgKind::P2pUser,
            payload: Payload::Synthetic(1),
            sent_at_ns: 0.0,
            arrival_ns: 0.0,
            wire_seq: None,
            src_inc: 0,
            dst_inc: 0,
        }
    }

    fn pat(comm: u64, ctx: Ctx, src: SrcSel, tag: TagSel) -> MatchPattern {
        MatchPattern { comm_id: comm, ctx, src, tag }
    }

    #[test]
    fn exact_match_skips_others() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        tx.send(env(1, 7, Ctx::Pt2pt, 10)).unwrap();
        tx.send(env(2, 7, Ctx::Pt2pt, 20)).unwrap();
        let got = mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::World(2), TagSel::Is(20)));
        assert_eq!(got.src_world, 2);
        assert_eq!(mb.unexpected_len(), 1);
        // The skipped message is still deliverable.
        let got = mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any));
        assert_eq!(got.src_world, 1);
    }

    #[test]
    fn wildcard_takes_earliest() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        tx.send(env(3, 7, Ctx::Pt2pt, 1)).unwrap();
        tx.send(env(4, 7, Ctx::Pt2pt, 1)).unwrap();
        let got = mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(1)));
        assert_eq!(got.src_world, 3);
    }

    #[test]
    fn wildcard_takes_earliest_across_channels() {
        // Distinct (src, tag) channels: the arrival-sequence index, not
        // per-channel FIFO order, decides the wildcard winner.
        let mut q = UnexpectedQueue::new();
        q.push(env(5, 7, Ctx::Pt2pt, 2));
        q.push(env(3, 7, Ctx::Pt2pt, 1));
        q.push(env(5, 7, Ctx::Pt2pt, 1));
        let got = q.take(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any)).unwrap();
        assert_eq!((got.src_world, got.tag), (5, 2));
        let got = q.take(&pat(7, Ctx::Pt2pt, SrcSel::World(5), TagSel::Any)).unwrap();
        assert_eq!((got.src_world, got.tag), (5, 1));
        let got = q.take(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(1))).unwrap();
        assert_eq!((got.src_world, got.tag), (3, 1));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn context_separation() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        tx.send(env(1, 7, Ctx::Coll, 5)).unwrap();
        tx.send(env(1, 7, Ctx::Pt2pt, 5)).unwrap();
        let got = mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any));
        assert_eq!(got.ctx, Ctx::Pt2pt);
        let got = mb.recv_match(&pat(7, Ctx::Coll, SrcSel::Any, TagSel::Any));
        assert_eq!(got.ctx, Ctx::Coll);
    }

    #[test]
    fn comm_separation() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        tx.send(env(1, 8, Ctx::Pt2pt, 5)).unwrap();
        tx.send(env(1, 7, Ctx::Pt2pt, 5)).unwrap();
        let got = mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any));
        assert_eq!(got.comm_id, 7);
    }

    #[test]
    fn iprobe_sees_pending() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        assert!(!mb.iprobe(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any)));
        tx.send(env(1, 7, Ctx::Pt2pt, 5)).unwrap();
        assert!(mb.iprobe(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any)));
        // iprobe must not consume.
        let got = mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any));
        assert_eq!(got.src_world, 1);
    }

    #[test]
    fn duplicate_wire_seqs_dropped() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_millis(10));
        let seq = |src: usize, s: u64, tag: u32| {
            let mut e = env(src, 7, Ctx::Pt2pt, tag);
            e.wire_seq = Some(s);
            tx.send(e).unwrap();
        };
        seq(1, 0, 10);
        seq(1, 0, 10); // duplicate delivery of the same wire message
        seq(1, 1, 11);
        seq(2, 0, 10); // per-sender sequences are independent
        seq(1, 1, 11); // duplicate again
        let p = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any);
        let mut got = Vec::new();
        for _ in 0..3 {
            let (e, _) = mb.recv_first(&[&p]);
            got.push((e.src_world, e.tag));
        }
        assert_eq!(got, vec![(1, 10), (1, 11), (2, 10)]);
        // The trailing duplicate is only drained (and counted) by the next
        // receive attempt, which then finds nothing live to deliver.
        assert!(mb.wait_first(&[&p]).is_none());
        assert_eq!(mb.duplicates_dropped(), 2);
    }

    #[test]
    fn reborn_sender_sequences_are_admitted() {
        // A restarted sender's wire sequences start over at 0; the dedup
        // filter must key on (incarnation, seq), not seq alone.
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_millis(10));
        let seq = |src: usize, inc: u32, s: u64, tag: u32| {
            let mut e = env(src, 7, Ctx::Pt2pt, tag);
            e.wire_seq = Some(s);
            e.src_inc = inc;
            tx.send(e).unwrap();
        };
        seq(1, 0, 0, 10);
        seq(1, 0, 1, 11);
        seq(1, 1, 0, 12); // reborn: seq restarts, must be admitted
        seq(1, 0, 2, 13); // stale incarnation straggler, must be dropped
        seq(1, 1, 0, 12); // duplicate from the new incarnation
        let p = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any);
        let mut got = Vec::new();
        for _ in 0..3 {
            let (e, _) = mb.recv_first(&[&p]);
            got.push(e.tag);
        }
        assert_eq!(got, vec![10, 11, 12]);
        assert!(mb.wait_first(&[&p]).is_none());
        assert_eq!(mb.stale_dropped(), 1);
        assert_eq!(mb.duplicates_dropped(), 1);
    }

    #[test]
    fn stale_destination_incarnation_is_dropped() {
        // The mailbox's owner was reborn as incarnation 1: traffic
        // addressed to incarnation 0 is rejected, fault traffic is exempt.
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        mb.set_incarnation(1);
        let mut stale = env(1, 7, Ctx::Pt2pt, 10);
        stale.dst_inc = 0;
        tx.send(stale).unwrap();
        let mut fresh = env(1, 7, Ctx::Pt2pt, 11);
        fresh.dst_inc = 1;
        tx.send(fresh).unwrap();
        let mut fault = env(1, 0, Ctx::Fault, 12);
        fault.dst_inc = 0; // fault protocol never stamps a real incarnation
        tx.send(fault).unwrap();
        let p = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any);
        let (e, _) = mb.recv_first(&[&p]);
        assert_eq!(e.tag, 11);
        let f = pat(0, Ctx::Fault, SrcSel::Any, TagSel::Any);
        let (e, _) = mb.recv_first(&[&f]);
        assert_eq!(e.tag, 12);
        assert_eq!(mb.stale_dropped(), 1);
    }

    #[test]
    fn recv_first_prefers_earlier_pattern() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        tx.send(env(1, 7, Ctx::Pt2pt, 2)).unwrap(); // matches b
        tx.send(env(1, 7, Ctx::Pt2pt, 1)).unwrap(); // matches a, arrives later
        let a = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(1));
        let b = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(2));
        // Drain both into the unexpected queue so one matcher pass sees
        // both; `a` wins even though `b`'s message arrived first.
        mb.iprobe(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(99)));
        let (e, which) = mb.recv_first(&[&a, &b]);
        assert_eq!((e.tag, which), (1, 0));
        let (e, which) = mb.recv_first(&[&a, &b]);
        assert_eq!((e.tag, which), (2, 1));
    }

    #[test]
    fn arrival_matching_any_pattern_skips_the_queue() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        tx.send(env(1, 7, Ctx::Pt2pt, 3)).unwrap(); // matches neither: queued
        tx.send(env(1, 7, Ctx::Pt2pt, 2)).unwrap(); // matches b: returned directly
        let a = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(1));
        let b = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(2));
        let (e, which) = mb.recv_first(&[&a, &b]);
        assert_eq!((e.tag, which), (2, 1));
        assert_eq!(mb.max_unexpected_depth(), 1, "only the non-matching arrival was queued");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadline_panics() {
        let (_tx, rx) = unbounded::<Envelope>();
        let mut mb = Mailbox::new(rx, Duration::from_millis(10));
        mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any));
    }

    #[test]
    #[should_panic(expected = "unexpected messages queued")]
    fn deadline_panic_dumps_queue() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_millis(10));
        tx.send(env(1, 7, Ctx::Pt2pt, 5)).unwrap();
        mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Is(6)));
    }

    /// Unique per-envelope marker so deliveries can be compared across the
    /// two matchers (`Envelope` itself is not `PartialEq`).
    fn marked(id: u64, src: usize, comm: u64, ctx: Ctx, tag: u32) -> Envelope {
        let mut e = env(src, comm, ctx, tag);
        e.sent_at_ns = id as f64;
        e
    }

    /// Test policy: scripted choices (canonical 0 past the script's end),
    /// recording every decision it was offered.
    #[derive(Debug, Default)]
    struct ScriptedTest {
        script: Vec<usize>,
        at: std::sync::Mutex<usize>,
        log: std::sync::Mutex<String>,
    }

    impl SchedulePolicy for ScriptedTest {
        fn choose(&self, decision: Decision<'_>) -> usize {
            let mut at = self.at.lock().unwrap();
            let pick = self.script.get(*at).copied().unwrap_or(0);
            *at += 1;
            let mut log = self.log.lock().unwrap();
            let _ = write!(log, "{}:{}/{};", decision.kind_code(), pick, decision.slate_size());
            pick
        }

        fn decision_log(&self) -> Option<String> {
            Some(self.log.lock().unwrap().clone())
        }
    }

    #[test]
    fn policed_wildcard_picks_chosen_channel() {
        use std::sync::Arc;
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_secs(5));
        // Choice 1 = second channel in head-arrival order (src 4), then
        // canonical afterwards.
        mb.set_policy(Arc::new(ScriptedTest { script: vec![1], ..Default::default() }), 9);
        tx.send(env(3, 7, Ctx::Pt2pt, 1)).unwrap();
        tx.send(env(4, 7, Ctx::Pt2pt, 2)).unwrap();
        let p = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any);
        mb.iprobe(&p);
        let got = mb.recv_match(&p);
        assert_eq!(got.src_world, 4, "policy chose the later-arrival channel");
        let got = mb.recv_match(&p);
        assert_eq!(got.src_world, 3);
    }

    #[test]
    #[should_panic(expected = "schedule decisions (replay witness)")]
    fn deadline_panic_attaches_decision_log() {
        use std::sync::Arc;
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx, Duration::from_millis(10));
        mb.set_policy(Arc::new(ScriptedTest::default()), 0);
        // Two eligible channels force one recorded wildcard decision before
        // the unmatched specific receive times out.
        tx.send(env(1, 7, Ctx::Pt2pt, 1)).unwrap();
        tx.send(env(2, 7, Ctx::Pt2pt, 2)).unwrap();
        let any = pat(7, Ctx::Pt2pt, SrcSel::Any, TagSel::Any);
        mb.iprobe(&any);
        let _ = mb.recv_match(&any);
        mb.recv_match(&pat(7, Ctx::Pt2pt, SrcSel::World(5), TagSel::Is(9)));
    }

    props! {
        /// Canonical-policy equivalence (the tentpole's bit-identity
        /// anchor): under random interleavings, `take_policed` with the
        /// always-0 policy delivers exactly what the un-policed `take`
        /// delivers.
        fn canonical_policed_take_equals_take(g) {
            let policy = crate::sched::CanonicalPolicy;
            let mut policed = UnexpectedQueue::new();
            let mut plain = UnexpectedQueue::new();
            let comms = [7u64, 8];
            let ctxs = [Ctx::Pt2pt, Ctx::Coll];
            let mut id = 0u64;
            for _ in 0..g.gen_range(1usize..150) {
                if g.gen_bool(0.55) {
                    let e = marked(
                        id,
                        g.index(4),
                        *g.choose(&comms),
                        *g.choose(&ctxs),
                        g.gen_range(0u32..3),
                    );
                    id += 1;
                    policed.push(e.clone());
                    plain.push(e);
                } else {
                    let p = pat(
                        *g.choose(&comms),
                        *g.choose(&ctxs),
                        if g.any_bool() { SrcSel::Any } else { SrcSel::World(g.index(4)) },
                        if g.any_bool() { TagSel::Any } else { TagSel::Is(g.gen_range(0u32..3)) },
                    );
                    let (a, b) = (policed.take_policed(&p, 0, &policy), plain.take(&p));
                    assert_eq!(
                        a.as_ref().map(|e| e.sent_at_ns),
                        b.as_ref().map(|e| e.sent_at_ns),
                        "canonical policy diverged from default take on {p:?}"
                    );
                }
            }
            assert_eq!(policed.len(), plain.len());
        }

        /// The tentpole's equivalence oracle: random interleavings of
        /// pushes and take attempts — wildcard and specific src/tag over
        /// several comms and ctxs — must deliver identical messages in
        /// identical order from the indexed matcher and the linear scan.
        fn indexed_matcher_equals_linear_oracle(g) {
            let mut indexed = UnexpectedQueue::new();
            let mut oracle = LinearQueue::default();
            let comms = [7u64, 8];
            let ctxs = [Ctx::Pt2pt, Ctx::Coll, Ctx::Osc];
            let mut id = 0u64;
            for _ in 0..g.gen_range(1usize..200) {
                if g.gen_bool(0.55) {
                    let e = marked(
                        id,
                        g.index(4),
                        *g.choose(&comms),
                        *g.choose(&ctxs),
                        g.gen_range(0u32..4),
                    );
                    id += 1;
                    indexed.push(e.clone());
                    oracle.push(e);
                } else {
                    let p = pat(
                        *g.choose(&comms),
                        *g.choose(&ctxs),
                        if g.any_bool() { SrcSel::Any } else { SrcSel::World(g.index(4)) },
                        if g.any_bool() { TagSel::Any } else { TagSel::Is(g.gen_range(0u32..4)) },
                    );
                    assert_eq!(indexed.contains_match(&p), oracle.contains_match(&p));
                    let (a, b) = (indexed.take(&p), oracle.take(&p));
                    assert_eq!(
                        a.as_ref().map(|e| e.sent_at_ns),
                        b.as_ref().map(|e| e.sent_at_ns),
                        "indexed and linear matchers disagree on {p:?}"
                    );
                }
            }
            // Drain both fully: same residue in the same global order.
            assert_eq!(indexed.len(), oracle.items.len());
            for comm in comms {
                for ctx in ctxs {
                    let p = pat(comm, ctx, SrcSel::Any, TagSel::Any);
                    loop {
                        let (a, b) = (indexed.take(&p), oracle.take(&p));
                        assert_eq!(a.as_ref().map(|e| e.sent_at_ns), b.as_ref().map(|e| e.sent_at_ns));
                        if a.is_none() {
                            break;
                        }
                    }
                }
            }
            assert_eq!(indexed.len(), 0);
        }
    }
}
