//! The analyzer's input language: a *communication plan*.
//!
//! A plan ([`Program`]) is the pure communication outline of a parallel
//! job — per rank, an ordered list of operations ([`Op`]) with everything
//! data-dependent erased.  It deliberately keeps only what the matching
//! semantics can see: communicator scope, peer, tag, byte count, wildcard
//! selectors, collective kind/root, and one-sided epoch structure.
//!
//! Anything that can describe its communication ahead of time implements
//! [`CommPlan`] and lowers itself into a `Program`; `mim-mpisim`'s
//! `Schedule` and the app kernels in `mim-apps` do exactly that.  Peers are
//! always *world* ranks — a sub-communicator contributes matching scope
//! (its [`CommId`] is part of every channel key) and collective membership,
//! not a second rank numbering.

use std::fmt;

/// A communicator handle inside a [`Program`].  `CommId(0)` is always the
/// world communicator spanning every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommId(pub u32);

/// The world communicator (all ranks), present in every program.
pub const WORLD: CommId = CommId(0);

/// A one-sided window handle inside a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WinId(pub u32);

/// Receive source selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Match messages from this world rank only.
    Rank(usize),
    /// `MPI_ANY_SOURCE`: match any sender.
    Any,
}

/// Receive tag selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Match this tag only.
    Is(u32),
    /// `MPI_ANY_TAG`: match any tag.
    Any,
}

impl Tag {
    /// Does a message tagged `tag` satisfy this selector?
    pub fn admits(self, tag: u32) -> bool {
        match self {
            Tag::Is(t) => t == tag,
            Tag::Any => true,
        }
    }
}

/// Which collective a [`Op::Coll`] op stands for.  The analyzer only needs
/// identity (for cross-rank agreement) and rootedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast` (rooted).
    Bcast,
    /// `MPI_Reduce` (rooted).
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Allgather` / `MPI_Allgatherv`.
    Allgather,
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Gather` (rooted).
    Gather,
    /// `MPI_Scatter` (rooted).
    Scatter,
    /// `MPI_Reduce_scatter`.
    ReduceScatter,
    /// `MPI_Scan` / `MPI_Exscan`.
    Scan,
}

impl CollKind {
    /// Every kind, in declaration order.
    pub const ALL: [CollKind; 10] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Allgather,
        CollKind::Alltoall,
        CollKind::Gather,
        CollKind::Scatter,
        CollKind::ReduceScatter,
        CollKind::Scan,
    ];

    /// The kind's one spelling: what reports and traces print and what a
    /// JSON plan's `"kind"` field is looked up against.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CollKind::Barrier => "barrier",
            CollKind::Bcast => "bcast",
            CollKind::Reduce => "reduce",
            CollKind::Allreduce => "allreduce",
            CollKind::Allgather => "allgather",
            CollKind::Alltoall => "alltoall",
            CollKind::Gather => "gather",
            CollKind::Scatter => "scatter",
            CollKind::ReduceScatter => "reduce_scatter",
            CollKind::Scan => "scan",
        }
    }
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One operation of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Eager send of `bytes` to world rank `dst`, matched on
    /// `(comm, src, dst, tag)` with per-channel FIFO (non-overtaking) order.
    Send {
        /// Matching scope.
        comm: CommId,
        /// Destination world rank.
        dst: usize,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking receive.
    Recv {
        /// Matching scope.
        comm: CommId,
        /// Source selector (possibly `MPI_ANY_SOURCE`).
        src: Src,
        /// Tag selector (possibly `MPI_ANY_TAG`).
        tag: Tag,
    },
    /// A collective over `comm`; every member must issue the same kind (and
    /// root, when rooted) at the same collective occurrence.
    Coll {
        /// The communicator the collective spans.
        comm: CommId,
        /// Which collective.
        kind: CollKind,
        /// Root world rank for rooted collectives, `None` otherwise.
        root: Option<usize>,
    },
    /// One-sided put into window `win` at `target`.
    Put {
        /// Target window.
        win: WinId,
        /// Target world rank.
        target: usize,
        /// Byte offset inside the target's window.
        offset: u64,
        /// Bytes written.
        bytes: u64,
    },
    /// One-sided get from window `win` at `target`.
    Get {
        /// Target window.
        win: WinId,
        /// Target world rank.
        target: usize,
        /// Byte offset inside the target's window.
        offset: u64,
        /// Bytes read.
        bytes: u64,
    },
    /// One-sided accumulate into window `win` at `target` (element-wise
    /// reduction — concurrent accumulates to the same location are legal).
    Accumulate {
        /// Target window.
        win: WinId,
        /// Target world rank.
        target: usize,
        /// Byte offset inside the target's window.
        offset: u64,
        /// Bytes combined.
        bytes: u64,
    },
    /// `MPI_Win_fence`: a barrier over the window's communicator closing
    /// the current access epoch.
    Fence {
        /// The window whose epoch closes.
        win: WinId,
    },
}

/// A complete communication plan: per-rank operation outlines plus the
/// communicator and window tables they reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    nranks: usize,
    /// `comms[c]` = sorted member world-ranks of `CommId(c)`; entry 0 is
    /// the world communicator.
    comms: Vec<Vec<usize>>,
    /// `wins[w]` = the communicator `WinId(w)` spans.
    wins: Vec<CommId>,
    ranks: Vec<Vec<Op>>,
}

impl Program {
    /// An empty plan over `nranks` ranks with only the world communicator.
    pub fn new(name: impl Into<String>, nranks: usize) -> Self {
        Self {
            name: name.into(),
            nranks,
            comms: vec![(0..nranks).collect()],
            wins: Vec::new(),
            ranks: vec![Vec::new(); nranks],
        }
    }

    /// Plan name (reports echo it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Register a sub-communicator over `members` (world ranks, deduplicated
    /// and sorted).  Returns its handle.
    pub fn add_comm(&mut self, mut members: Vec<usize>) -> CommId {
        members.sort_unstable();
        members.dedup();
        self.comms.push(members);
        CommId((self.comms.len() - 1) as u32)
    }

    /// Register a one-sided window spanning `comm`.  Returns its handle.
    pub fn add_window(&mut self, comm: CommId) -> WinId {
        self.wins.push(comm);
        WinId(self.wins.len() as u32 - 1)
    }

    /// Append `op` to rank `rank`'s program.
    ///
    /// # Panics
    /// Panics when `rank` is out of range (the *ops themselves* are checked
    /// by the analyzer, not here).
    pub fn push(&mut self, rank: usize, op: Op) {
        self.ranks[rank].push(op);
    }

    /// Rank `r`'s program.
    pub fn rank_ops(&self, r: usize) -> &[Op] {
        &self.ranks[r]
    }

    /// Members of `comm`, or `None` for an unknown id.
    pub fn comm_members(&self, comm: CommId) -> Option<&[usize]> {
        self.comms.get(comm.0 as usize).map(Vec::as_slice)
    }

    /// The communicator a window spans, or `None` for an unknown id.
    pub fn win_comm(&self, win: WinId) -> Option<CommId> {
        self.wins.get(win.0 as usize).copied()
    }

    /// Number of registered communicators (including world).
    pub fn ncomms(&self) -> usize {
        self.comms.len()
    }

    /// Number of registered windows.
    pub(crate) fn nwins(&self) -> usize {
        self.wins.len()
    }

    /// Total operation count over all ranks.
    pub fn total_ops(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }
}

/// Anything that can describe its communication structure ahead of time.
///
/// Implementors lower themselves into a [`Program`] which
/// [`crate::analyze`] then verifies without executing anything.
pub trait CommPlan {
    /// A stable human-readable name for reports.
    fn plan_name(&self) -> String;

    /// Lower into the analyzer's per-rank operation outline.
    fn lower(&self) -> Program;
}

impl CommPlan for Program {
    fn plan_name(&self) -> String {
        self.name.clone()
    }

    fn lower(&self) -> Program {
        self.clone()
    }
}
