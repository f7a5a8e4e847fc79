//! The plan interpreter: what executing one op of a [`Program`] does.
//!
//! A plan means one thing, and this module is where it is written down:
//!
//! * sends are **eager** — they never block and arrive instantly, stamped
//!   with a global arrival sequence number;
//! * each `(comm, src, dst, tag)` **channel is FIFO** (non-overtaking), so a
//!   receive can only ever take the head of a channel it admits;
//! * a fully specified receive takes its one channel's head; a **wildcard**
//!   receive may take the head of any admissible channel, and takes the one
//!   with the smallest arrival sequence when its driver expresses no choice
//!   (the *canonical matching*);
//! * collectives and fences are **barriers**, counted per communicator and
//!   per window respectively ([`Sync`]): the k-th collective a member issues
//!   on a communicator synchronizes with every other member's k-th, a fence
//!   with the fences on its own window only;
//! * one-sided accesses complete locally.
//!
//! [`State`] owns no scheduler and reports nothing.  *Which* rank runs next,
//! and what a driver records about each [`Step`], stays with the three
//! drivers — the analyzer's replay (`check.rs`), the happens-before pass
//! (`race.rs`) and `mim-explore`'s model executor — because under wildcards
//! the order defines the matching every one of their reports is pinned to.

use std::collections::{BTreeMap, VecDeque};

use mim_util::hash::IdMap;

use crate::diag::Loc;
use crate::plan::{CommId, Op, Program, Src, Tag, WinId};

/// Matching-scope channel key: `(comm, src, dst, tag)`.
pub type ChanKey = (CommId, usize, usize, u32);

/// Does a receive posted with `(comm, src, tag)` admit messages of channel
/// `key`?  (The destination is the caller's to check: a rank only ever
/// looks at channels that end at it.)
pub(crate) fn admits(comm: CommId, src: Src, tag: Tag, key: ChanKey) -> bool {
    key.0 == comm
        && tag.admits(key.3)
        && match src {
            Src::Rank(want) => key.1 == want,
            Src::Any => true,
        }
}

/// What a barrier op synchronizes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sync {
    /// The collectives of one communicator, in issue order.
    Coll(CommId),
    /// The fences of one window, in issue order.
    Fence(WinId),
}

/// What one [`State::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A send was posted with arrival sequence `seq`.
    Sent {
        /// Global arrival sequence of the message.
        seq: u64,
    },
    /// A receive consumed the head of channel `key`.
    Received {
        /// Arrival sequence of the consumed message.
        seq: u64,
        /// The send op that produced it.
        send: Loc,
        /// The channel it travelled on.
        key: ChanKey,
    },
    /// A one-sided access completed locally.
    Local,
    /// The rank arrived at a barrier occurrence other members have not
    /// reached yet (or was already waiting there); its pc stays on the op.
    Parked,
    /// The rank's arrival completed occurrence `occ` of `on`: every rank in
    /// `arrivals` (arrival order, the stepping rank last) moved past it.
    Released {
        /// The barrier that completed.
        on: Sync,
        /// Its occurrence number on that communicator or window.
        occ: usize,
        /// The members, in the order they arrived.
        arrivals: Vec<usize>,
    },
    /// Nothing happened: a receive with no admissible message, a finished
    /// rank, or an op naming a rank, communicator or window the plan does
    /// not have (a malformed plan blocks forever instead of spinning).
    Blocked,
}

/// The open occurrence of one [`Sync`].  A member reaches occurrence k only
/// after every member left k − 1, so one counter and one arrival list per
/// communicator (window) is the whole bookkeeping.
#[derive(Debug, Clone, Default)]
struct Barrier {
    occ: usize,
    arrived: Vec<usize>,
}

/// The execution state of a plan: where every rank is, what is in flight,
/// who waits at which barrier.
#[derive(Debug)]
pub struct State<'p> {
    p: &'p Program,
    pc: Vec<usize>,
    /// Per-channel FIFO of (arrival seq, the send op that produced it).
    channels: IdMap<ChanKey, VecDeque<(u64, Loc)>>,
    /// Per-destination pending messages in global arrival order.
    arrivals: Vec<BTreeMap<u64, ChanKey>>,
    next_seq: u64,
    colls: Vec<Barrier>,
    fences: Vec<Barrier>,
    /// The barrier each rank is waiting in, if any.
    parked: Vec<Option<Sync>>,
}

impl<'p> State<'p> {
    /// Every rank at its first op, nothing in flight.
    pub fn new(p: &'p Program) -> Self {
        let n = p.nranks();
        State {
            p,
            pc: vec![0; n],
            channels: IdMap::default(),
            arrivals: vec![BTreeMap::new(); n],
            next_seq: 0,
            colls: vec![Barrier::default(); p.ncomms()],
            fences: vec![Barrier::default(); p.nwins()],
            parked: vec![None; n],
        }
    }

    /// Rank `r`'s program counter.
    pub fn pc(&self, r: usize) -> usize {
        self.pc[r]
    }

    /// The op rank `r` executes next, `None` once it has finished.
    pub fn op(&self, r: usize) -> Option<Op> {
        self.p.rank_ops(r).get(self.pc[r]).copied()
    }

    /// Has rank `r` executed its whole program?
    pub fn done(&self, r: usize) -> bool {
        self.pc[r] >= self.p.rank_ops(r).len()
    }

    /// The barrier occurrence rank `r` is waiting in, if any.
    pub(crate) fn parked(&self, r: usize) -> Option<(Sync, usize)> {
        self.parked[r].map(|on| (on, self.pending(on).0))
    }

    /// The open occurrence of `on` and the ranks that have arrived at it.
    pub fn pending(&self, on: Sync) -> (usize, &[usize]) {
        let barrier = match on {
            Sync::Coll(comm) => self.colls.get(comm.0 as usize),
            Sync::Fence(win) => self.fences.get(win.0 as usize),
        };
        barrier.map_or((0, &[]), |b| (b.occ, &b.arrived))
    }

    /// Channels with sends nobody has received, with their queue depth,
    /// sorted by key.
    pub(crate) fn in_flight(&self) -> Vec<(ChanKey, usize)> {
        let mut left: Vec<(ChanKey, usize)> =
            self.channels.iter().map(|(&key, queue)| (key, queue.len())).collect();
        left.sort_unstable();
        left
    }

    /// Would [`State::step`] make progress on rank `r` right now?
    pub fn runnable(&self, r: usize) -> bool {
        self.parked[r].is_none()
            && match self.op(r) {
                None => false,
                Some(Op::Recv { comm, src, tag }) => self.earliest(r, comm, src, tag).is_some(),
                Some(Op::Coll { comm, .. }) => self.members(Sync::Coll(comm)).is_some(),
                Some(Op::Fence { win }) => self.members(Sync::Fence(win)).is_some(),
                Some(_) => true,
            }
    }

    /// The messages the receive at rank `r`'s pc may take: the head of each
    /// admissible channel, earliest arrival first.  Empty when `r` is not
    /// at a receive.
    pub fn eligible(&self, r: usize) -> Vec<(u64, ChanKey)> {
        let Some(Op::Recv { comm, src, tag }) = self.op(r) else { return Vec::new() };
        let mut heads: Vec<(u64, ChanKey)> = Vec::new();
        for m in self.admissible(r, comm, src, tag) {
            if !heads.iter().any(|&(_, key)| key == m.1) {
                heads.push(m);
            }
        }
        heads
    }

    /// Execute rank `r`'s next op.  `choice` names the channel a receive
    /// takes (one of [`State::eligible`]'s); `None` takes the earliest
    /// admissible arrival.
    pub fn step(&mut self, r: usize, choice: Option<ChanKey>) -> Step {
        if self.parked[r].is_some() {
            return Step::Parked;
        }
        let step = self.pc[r];
        match self.op(r) {
            None => Step::Blocked,
            Some(Op::Send { comm, dst, tag, .. }) => {
                let Some(pending) = self.arrivals.get_mut(dst) else { return Step::Blocked };
                let key = (comm, r, dst, tag);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.channels.entry(key).or_default().push_back((seq, Loc { rank: r, step }));
                pending.insert(seq, key);
                self.pc[r] += 1;
                Step::Sent { seq }
            }
            Some(Op::Recv { comm, src, tag }) => {
                let found = match choice {
                    None => self.earliest(r, comm, src, tag),
                    Some(key) if key.2 == r && admits(comm, src, tag, key) => self.head(key),
                    Some(_) => None,
                };
                let Some((seq, key)) = found else { return Step::Blocked };
                let Some(queue) = self.channels.get_mut(&key) else { return Step::Blocked };
                let Some((_, send)) = queue.pop_front() else { return Step::Blocked };
                if queue.is_empty() {
                    self.channels.remove(&key);
                }
                self.arrivals[r].remove(&seq);
                self.pc[r] += 1;
                Step::Received { seq, send, key }
            }
            Some(Op::Coll { comm, .. }) => self.arrive(r, Sync::Coll(comm)),
            Some(Op::Fence { win }) => self.arrive(r, Sync::Fence(win)),
            Some(Op::Put { .. } | Op::Get { .. } | Op::Accumulate { .. }) => {
                self.pc[r] += 1;
                Step::Local
            }
        }
    }

    /// Move rank `r` past its next op without executing it — for a driver
    /// that treats the op as local (the happens-before pass orders message
    /// ops by its own match edges, not by channel contents).
    pub(crate) fn skip(&mut self, r: usize) {
        self.pc[r] += 1;
    }

    /// The ranks `on` synchronizes, `None` when the plan has no such
    /// communicator or window.
    fn members(&self, on: Sync) -> Option<&'p [usize]> {
        match on {
            Sync::Coll(comm) => self.p.comm_members(comm),
            Sync::Fence(win) => self.p.win_comm(win).and_then(|c| self.p.comm_members(c)),
        }
    }

    /// Rank `r` arrives at the open occurrence of `on`.
    fn arrive(&mut self, r: usize, on: Sync) -> Step {
        let Some(members) = self.members(on).map(<[usize]>::len) else { return Step::Blocked };
        let barrier = match on {
            Sync::Coll(comm) => &mut self.colls[comm.0 as usize],
            Sync::Fence(win) => &mut self.fences[win.0 as usize],
        };
        barrier.arrived.push(r);
        if barrier.arrived.len() < members {
            self.parked[r] = Some(on);
            return Step::Parked;
        }
        let arrivals = std::mem::take(&mut barrier.arrived);
        let occ = barrier.occ;
        barrier.occ += 1;
        for &m in &arrivals {
            self.parked[m] = None;
            self.pc[m] += 1;
        }
        Step::Released { on, occ, arrivals }
    }

    /// The head of channel `key`, if anything is in flight on it.
    fn head(&self, key: ChanKey) -> Option<(u64, ChanKey)> {
        Some((self.channels.get(&key)?.front()?.0, key))
    }

    /// Pending messages for `r` a `(comm, src, tag)` receive admits, in
    /// arrival order.
    fn admissible(
        &self,
        r: usize,
        comm: CommId,
        src: Src,
        tag: Tag,
    ) -> impl Iterator<Item = (u64, ChanKey)> + '_ {
        self.arrivals[r]
            .iter()
            .map(|(&seq, &key)| (seq, key))
            .filter(move |&(_, key)| admits(comm, src, tag, key))
    }

    /// The canonical match of a receive: its channel's head when fully
    /// specified (one hash lookup), else the earliest admissible arrival.
    fn earliest(&self, r: usize, comm: CommId, src: Src, tag: Tag) -> Option<(u64, ChanKey)> {
        match (src, tag) {
            (Src::Rank(s), Tag::Is(t)) => self.head((comm, s, r, t)),
            _ => self.admissible(r, comm, src, tag).next(),
        }
    }
}
