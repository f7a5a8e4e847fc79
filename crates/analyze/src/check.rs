//! The analyzer: a deterministic replay of the plan's matching semantics
//! plus a wait-for-graph post-mortem when the replay stalls.
//!
//! The replay mirrors the runtime's eager-send model: sends never block,
//! each receive consumes the earliest-arrived matching message (per-channel
//! FIFO, so a specific receive takes its channel's head; a wildcard receive
//! takes the matching message with the globally smallest arrival sequence —
//! the *canonical matching*), collectives and fences are barriers over
//! their communicator.  When every rank runs to completion the plan is
//! deadlock-free under the canonical matching; when the replay stalls, the
//! blocked ranks form a wait-for graph whose cycle (found by DFS) *is* the
//! deadlock, reported rank by rank.
//!
//! Wildcard receives make matching nondeterministic, so any verdict in
//! their presence is only canonical-matching-sound: completion becomes
//! [`Verdict::PotentialDeadlock`], and a stall is reported as potential
//! rather than definite (another matching might progress).

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::diag::{ChannelUse, Code, Diag, Loc, Report, Severity, Verdict, WaitEdge};
use crate::plan::{CollKind, CommId, CommPlan, Op, Program, Src, Tag, WinId};
use crate::race::{self, Determinism, IndependenceMap};

/// Matching-scope channel key: `(comm, src, dst, tag)`.
type ChanKey = (CommId, usize, usize, u32);

/// Why a rank is parked.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// At a `Recv` whose match has not arrived (details re-read from the op).
    Recv,
    /// At occurrence `occ` of a collective on `comm`.
    Coll { comm: CommId, occ: usize },
    /// At occurrence `occ` of a fence on `win`.
    Fence { win: WinId, occ: usize },
}

/// One member's arrival at a collective/fence occurrence.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    rank: usize,
    step: usize,
    kind: CollKind,
    root: Option<usize>,
}

/// One one-sided access inside the current epoch of a window.
#[derive(Debug, Clone, Copy)]
struct Access {
    origin: usize,
    step: usize,
    target: usize,
    offset: u64,
    bytes: u64,
    /// `true` for put (a write); accumulate is tracked separately.
    write: bool,
    accumulate: bool,
}

/// Statically verify a communication plan.
///
/// Lowers `plan` via [`CommPlan::lower`] and analyzes the resulting
/// [`Program`]; see [`analyze_program`].
pub fn analyze(plan: &impl CommPlan) -> Report {
    analyze_program(&plan.lower())
}

/// Statically verify an already-lowered [`Program`].
pub fn analyze_program(p: &Program) -> Report {
    let mut diags = Vec::new();
    check_well_formed(p, &mut diags);
    if !diags.is_empty() {
        return Report {
            plan: p.name().to_string(),
            nranks: p.nranks(),
            total_ops: p.total_ops(),
            verdict: Verdict::Malformed,
            determinism: Determinism::Unknown,
            independence: IndependenceMap::empty(p.nranks()),
            diags,
            channels: Vec::new(),
        };
    }
    Replay::new(p).run(diags)
}

/// A001 pass: every rank/handle an op references must exist and be in
/// scope.  Replay assumes this (it indexes unchecked), so analysis stops
/// here when anything fails.
fn check_well_formed(p: &Program, diags: &mut Vec<Diag>) {
    let n = p.nranks();
    let mut push = |rank: usize, step: usize, msg: String| {
        diags.push(Diag {
            code: Code::A001,
            severity: Severity::Error,
            loc: Some(Loc { rank, step }),
            message: msg,
        });
    };
    for r in 0..n {
        for (i, op) in p.rank_ops(r).iter().enumerate() {
            let comm_of = |win: WinId| p.win_comm(win);
            let (comm, peer) = match *op {
                Op::Send { comm, dst, .. } => (Some(comm), Some(dst)),
                Op::Recv { comm, src: Src::Rank(s), .. } => (Some(comm), Some(s)),
                Op::Recv { comm, src: Src::Any, .. } => (Some(comm), None),
                Op::Coll { comm, root, .. } => (Some(comm), root),
                Op::Put { win, target, .. }
                | Op::Get { win, target, .. }
                | Op::Accumulate { win, target, .. } => match comm_of(win) {
                    Some(c) => (Some(c), Some(target)),
                    None => {
                        push(r, i, format!("unknown window id {}", win.0));
                        continue;
                    }
                },
                Op::Fence { win } => match comm_of(win) {
                    Some(c) => (Some(c), None),
                    None => {
                        push(r, i, format!("unknown window id {}", win.0));
                        continue;
                    }
                },
            };
            let Some(comm) = comm else { continue };
            let Some(members) = p.comm_members(comm) else {
                push(r, i, format!("unknown communicator id {}", comm.0));
                continue;
            };
            if !members.contains(&r) {
                push(r, i, format!("rank {r} is not a member of comm {}", comm.0));
            }
            if let Some(peer) = peer {
                if peer >= n {
                    push(r, i, format!("peer rank {peer} is out of range (nranks = {n})"));
                } else if !members.contains(&peer) {
                    push(r, i, format!("peer rank {peer} is not a member of comm {}", comm.0));
                }
            }
        }
    }
}

struct Replay<'p> {
    p: &'p Program,
    pc: Vec<usize>,
    blocked: Vec<Option<Blocked>>,
    /// Per-channel FIFO of (arrival seq, the send op that produced it).
    channels: HashMap<ChanKey, VecDeque<(u64, Loc)>>,
    /// Per-destination pending messages in global arrival order.
    arrivals: Vec<BTreeMap<u64, ChanKey>>,
    next_seq: u64,
    totals: BTreeMap<ChanKey, (u64, u64)>,
    /// Per comm: completed-or-open collective occurrences.
    coll_occ: Vec<Vec<Vec<Arrival>>>,
    /// Per comm, per rank: how many collectives this rank has completed.
    coll_idx: Vec<Vec<usize>>,
    /// Per win: fence occurrences / per-rank completed-fence counters.
    fence_occ: Vec<Vec<Vec<Arrival>>>,
    fence_idx: Vec<Vec<usize>>,
    /// Per win: one-sided accesses of the currently open epoch.
    epoch: Vec<Vec<Access>>,
    wildcard_sites: Vec<Loc>,
    /// The canonical matching as `(send, recv)` location pairs.
    matches: Vec<(Loc, Loc)>,
    diags: Vec<Diag>,
}

impl<'p> Replay<'p> {
    fn new(p: &'p Program) -> Self {
        let n = p.nranks();
        Self {
            p,
            pc: vec![0; n],
            blocked: vec![None; n],
            channels: HashMap::new(),
            arrivals: vec![BTreeMap::new(); n],
            next_seq: 0,
            totals: BTreeMap::new(),
            coll_occ: vec![Vec::new(); p.ncomms()],
            coll_idx: vec![vec![0; n]; p.ncomms()],
            fence_occ: vec![Vec::new(); p.nwins()],
            fence_idx: vec![vec![0; n]; p.nwins()],
            epoch: vec![Vec::new(); p.nwins()],
            wildcard_sites: Vec::new(),
            matches: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn done(&self, r: usize) -> bool {
        self.pc[r] == self.p.rank_ops(r).len()
    }

    /// Find the earliest-arrived pending message for a receive, returning
    /// its `(seq, channel)` without consuming it.
    fn find_match(&self, r: usize, comm: CommId, src: Src, tag: Tag) -> Option<(u64, ChanKey)> {
        match (src, tag) {
            (Src::Rank(s), Tag::Is(t)) => {
                let key = (comm, s, r, t);
                let head = self.channels.get(&key)?.front()?;
                Some((head.0, key))
            }
            _ => self.arrivals[r]
                .iter()
                .find(|(_, &(c, s, _, t))| {
                    c == comm
                        && tag.admits(t)
                        && match src {
                            Src::Rank(want) => s == want,
                            Src::Any => true,
                        }
                })
                .map(|(&seq, &key)| (seq, key)),
        }
    }

    /// Take the matched message off its channel and log the match.
    fn consume(&mut self, recv: Loc, seq: u64, key: ChanKey) {
        if let Some(q) = self.channels.get_mut(&key) {
            let head = q.pop_front();
            debug_assert_eq!(
                head.map(|(s, _)| s),
                Some(seq),
                "wildcard match must take its channel's head"
            );
            if let Some((_, send)) = head {
                self.matches.push((send, recv));
            }
            if q.is_empty() {
                self.channels.remove(&key);
            }
        }
        self.arrivals[recv.rank].remove(&seq);
    }

    /// Close the epoch of `win` at a completed fence: report conflicting
    /// accesses, then clear the log.
    fn close_epoch(&mut self, win: WinId) {
        let log = std::mem::take(&mut self.epoch[win.0 as usize]);
        for (i, a) in log.iter().enumerate() {
            for b in &log[i + 1..] {
                if a.origin == b.origin || a.target != b.target {
                    continue;
                }
                let overlap = a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
                if !overlap {
                    continue;
                }
                // Accumulates commute with each other; everything else
                // racing on the same bytes is a conflict when at least one
                // side writes.
                if (a.accumulate && b.accumulate) || (!a.write && !b.write) {
                    continue;
                }
                self.diags.push(Diag {
                    code: Code::A008,
                    severity: Severity::Warning,
                    loc: Some(Loc { rank: a.origin, step: a.step }),
                    message: format!(
                        "conflicting one-sided accesses in one epoch of window {}: rank {} \
                         (step {}) and rank {} (step {}) touch bytes [{}, {}) ∩ [{}, {}) of \
                         rank {}'s window",
                        win.0,
                        a.origin,
                        a.step,
                        b.origin,
                        b.step,
                        a.offset,
                        a.offset + a.bytes,
                        b.offset,
                        b.offset + b.bytes,
                        a.target
                    ),
                });
            }
        }
    }

    /// Check kind/root agreement of a completed collective occurrence.
    fn check_coll_agreement(&mut self, comm: CommId, occ: usize, arrivals: &[Arrival]) {
        let first = arrivals[0];
        for a in &arrivals[1..] {
            if a.kind != first.kind {
                self.diags.push(Diag {
                    code: Code::A006,
                    severity: Severity::Error,
                    loc: Some(Loc { rank: a.rank, step: a.step }),
                    message: format!(
                        "collective #{occ} on comm {}: rank {} calls {} but rank {} calls {}",
                        comm.0, a.rank, a.kind, first.rank, first.kind
                    ),
                });
            } else if a.root != first.root {
                let fmt_root = |r: Option<usize>| {
                    r.map_or_else(|| "no root".to_string(), |r| format!("root {r}"))
                };
                self.diags.push(Diag {
                    code: Code::A007,
                    severity: Severity::Error,
                    loc: Some(Loc { rank: a.rank, step: a.step }),
                    message: format!(
                        "collective {} #{occ} on comm {}: rank {} uses {} but rank {} uses {}",
                        first.kind,
                        comm.0,
                        a.rank,
                        fmt_root(a.root),
                        first.rank,
                        fmt_root(first.root)
                    ),
                });
            }
        }
    }

    /// Run rank `r` until it blocks or finishes; returns ranks to wake.
    fn step_rank(&mut self, r: usize) -> Vec<usize> {
        let mut wake = Vec::new();
        while self.pc[r] < self.p.rank_ops(r).len() {
            let step = self.pc[r];
            match self.p.rank_ops(r)[step] {
                Op::Send { comm, dst, tag, bytes } => {
                    let key = (comm, r, dst, tag);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.channels.entry(key).or_default().push_back((seq, Loc { rank: r, step }));
                    self.arrivals[dst].insert(seq, key);
                    let t = self.totals.entry(key).or_default();
                    t.0 += 1;
                    t.1 += bytes;
                    if matches!(self.blocked[dst], Some(Blocked::Recv)) {
                        self.blocked[dst] = None;
                        wake.push(dst);
                    }
                }
                Op::Recv { comm, src, tag } => {
                    if matches!(src, Src::Any) || matches!(tag, Tag::Any) {
                        let loc = Loc { rank: r, step };
                        if self.wildcard_sites.last() != Some(&loc) {
                            self.wildcard_sites.push(loc);
                        }
                    }
                    match self.find_match(r, comm, src, tag) {
                        Some((seq, key)) => self.consume(Loc { rank: r, step }, seq, key),
                        None => {
                            self.blocked[r] = Some(Blocked::Recv);
                            return wake;
                        }
                    }
                }
                Op::Coll { comm, kind, root } => {
                    let c = comm.0 as usize;
                    let occ = self.coll_idx[c][r];
                    if self.coll_occ[c].len() <= occ {
                        self.coll_occ[c].resize(occ + 1, Vec::new());
                    }
                    self.coll_occ[c][occ].push(Arrival { rank: r, step, kind, root });
                    // Well-formedness guarantees the comm exists; 0 never
                    // equals a non-empty arrival count, so a (impossible)
                    // miss simply parks the rank.
                    let members = self.p.comm_members(comm).map_or(0, <[usize]>::len);
                    if self.coll_occ[c][occ].len() == members {
                        let arrivals = std::mem::take(&mut self.coll_occ[c][occ]);
                        self.check_coll_agreement(comm, occ, &arrivals);
                        for a in &arrivals {
                            self.coll_idx[c][a.rank] = occ + 1;
                            if a.rank != r {
                                self.blocked[a.rank] = None;
                                self.pc[a.rank] += 1;
                                wake.push(a.rank);
                            }
                        }
                    } else {
                        self.blocked[r] = Some(Blocked::Coll { comm, occ });
                        return wake;
                    }
                }
                Op::Put { win, target, offset, bytes } => {
                    self.epoch[win.0 as usize].push(Access {
                        origin: r,
                        step,
                        target,
                        offset,
                        bytes,
                        write: true,
                        accumulate: false,
                    });
                }
                Op::Get { win, target, offset, bytes } => {
                    self.epoch[win.0 as usize].push(Access {
                        origin: r,
                        step,
                        target,
                        offset,
                        bytes,
                        write: false,
                        accumulate: false,
                    });
                }
                Op::Accumulate { win, target, offset, bytes } => {
                    self.epoch[win.0 as usize].push(Access {
                        origin: r,
                        step,
                        target,
                        offset,
                        bytes,
                        write: true,
                        accumulate: true,
                    });
                }
                Op::Fence { win } => {
                    let w = win.0 as usize;
                    let occ = self.fence_idx[w][r];
                    if self.fence_occ[w].len() <= occ {
                        self.fence_occ[w].resize(occ + 1, Vec::new());
                    }
                    self.fence_occ[w][occ].push(Arrival {
                        rank: r,
                        step,
                        kind: CollKind::Barrier,
                        root: None,
                    });
                    let members = self
                        .p
                        .win_comm(win)
                        .and_then(|c| self.p.comm_members(c))
                        .map_or(0, <[usize]>::len);
                    if self.fence_occ[w][occ].len() == members {
                        let arrivals = std::mem::take(&mut self.fence_occ[w][occ]);
                        self.close_epoch(win);
                        for a in &arrivals {
                            self.fence_idx[w][a.rank] = occ + 1;
                            if a.rank != r {
                                self.blocked[a.rank] = None;
                                self.pc[a.rank] += 1;
                                wake.push(a.rank);
                            }
                        }
                    } else {
                        self.blocked[r] = Some(Blocked::Fence { win, occ });
                        return wake;
                    }
                }
            }
            self.pc[r] += 1;
        }
        wake
    }

    fn run(mut self, mut preexisting: Vec<Diag>) -> Report {
        let n = self.p.nranks();
        let mut runnable: Vec<usize> = (0..n).rev().collect();
        while let Some(r) = runnable.pop() {
            if self.blocked[r].is_some() || self.done(r) {
                continue;
            }
            let woken = self.step_rank(r);
            runnable.extend(woken);
        }
        let stalled: Vec<usize> = (0..n).filter(|&r| !self.done(r)).collect();
        let verdict =
            if stalled.is_empty() { self.finish_clean() } else { self.post_mortem(&stalled) };
        let channels = self
            .totals
            .iter()
            .map(|(&(comm, src, dst, tag), &(messages, bytes))| ChannelUse {
                comm,
                src,
                dst,
                tag,
                messages,
                bytes,
            })
            .collect();
        preexisting.append(&mut self.diags);
        let (determinism, independence) = race::race_pass(self.p, &self.matches, &mut preexisting);
        Report {
            plan: self.p.name().to_string(),
            nranks: n,
            total_ops: self.p.total_ops(),
            verdict,
            determinism,
            independence,
            diags: preexisting,
            channels,
        }
    }

    /// All ranks completed: flag leftover traffic and unclosed epochs, then
    /// classify by wildcard presence.
    fn finish_clean(&mut self) -> Verdict {
        let mut leftover: Vec<(ChanKey, usize)> =
            self.channels.iter().map(|(&k, q)| (k, q.len())).filter(|&(_, len)| len > 0).collect();
        leftover.sort_unstable();
        for ((comm, src, dst, tag), count) in leftover {
            self.diags.push(Diag {
                code: Code::A003,
                severity: Severity::Error,
                loc: None,
                message: format!(
                    "channel {src}→{dst} (comm {}, tag {tag}) has {count} send{} that \
                     are never received",
                    comm.0,
                    if count == 1 { "" } else { "s" }
                ),
            });
        }
        for (w, log) in self.epoch.iter().enumerate() {
            if !log.is_empty() {
                self.diags.push(Diag {
                    code: Code::A009,
                    severity: Severity::Error,
                    loc: Some(Loc { rank: log[0].origin, step: log[0].step }),
                    message: format!(
                        "window {w}: {} one-sided access{} never closed by a fence",
                        log.len(),
                        if log.len() == 1 { "" } else { "es" }
                    ),
                });
            }
        }
        if self.wildcard_sites.is_empty() {
            Verdict::DeadlockFree
        } else {
            let sites = self.wildcard_sites.clone();
            let shown: Vec<String> = sites.iter().take(8).map(|l| format!("{l}")).collect();
            self.diags.push(Diag {
                code: Code::A005,
                severity: Severity::Warning,
                loc: Some(sites[0]),
                message: format!(
                    "{} wildcard receive{} make matching nondeterministic ({}{}); the \
                     deadlock-free verdict holds for the canonical matching only",
                    sites.len(),
                    if sites.len() == 1 { "" } else { "s" },
                    shown.join("; "),
                    if sites.len() > 8 { "; …" } else { "" }
                ),
            });
            Verdict::PotentialDeadlock { wildcard_sites: sites }
        }
    }

    /// Does rank `s` still have a send matching `(comm, → dst, tag)` at or
    /// after its current pc?
    fn has_future_send(&self, s: usize, comm: CommId, dst: usize, tag: Tag) -> bool {
        self.p.rank_ops(s)[self.pc[s]..].iter().any(|op| {
            matches!(*op, Op::Send { comm: c, dst: d, tag: t, .. }
                if c == comm && d == dst && tag.admits(t))
        })
    }

    /// The replay stalled: build the wait-for graph over the blocked ranks,
    /// report orphans / missing participants, find a cycle, classify.
    fn post_mortem(&mut self, stalled: &[usize]) -> Verdict {
        // Adjacency: r → (waits_for, description).  All stalled ranks are
        // blocked (a runnable rank would have been stepped).
        let mut edges: HashMap<usize, Vec<(usize, String)>> = HashMap::new();
        for &r in stalled {
            let step = self.pc[r];
            let mut out: Vec<(usize, String)> = Vec::new();
            // A stalled rank is always blocked (a runnable one would have
            // been stepped); a miss just contributes no wait edges.
            let Some(blocked) = self.blocked[r] else { continue };
            match blocked {
                Blocked::Recv => {
                    let Op::Recv { comm, src, tag } = self.p.rank_ops(r)[step] else {
                        unreachable!("Blocked::Recv parks at a Recv op");
                    };
                    let tag_str = match tag {
                        Tag::Is(t) => format!("tag {t}"),
                        Tag::Any => "any tag".to_string(),
                    };
                    let candidates: Vec<usize> = match src {
                        Src::Rank(s) => vec![s],
                        Src::Any => (0..self.p.nranks()).filter(|&s| s != r).collect(),
                    };
                    let mut live = Vec::new();
                    for s in candidates {
                        if !self.done(s) && self.has_future_send(s, comm, r, tag) {
                            live.push(s);
                        }
                    }
                    if live.is_empty() {
                        let from = match src {
                            Src::Rank(s) => format!(
                                "rank {s}{}",
                                if self.done(s) { " (terminated)" } else { "" }
                            ),
                            Src::Any => "any source".to_string(),
                        };
                        self.diags.push(Diag {
                            code: Code::A004,
                            severity: Severity::Error,
                            loc: Some(Loc { rank: r, step }),
                            message: format!(
                                "orphan receive: rank {r} waits for a message from {from} \
                                 (comm {}, {tag_str}) that no remaining send can satisfy",
                                comm.0
                            ),
                        });
                    }
                    for s in live {
                        out.push((
                            s,
                            format!("a message from rank {s} (comm {}, {tag_str})", comm.0),
                        ));
                    }
                }
                Blocked::Coll { comm, occ } => {
                    let Op::Coll { kind, .. } = self.p.rank_ops(r)[step] else {
                        unreachable!("Blocked::Coll parks at a Coll op");
                    };
                    let arrived = move |b: Option<Blocked>| matches!(b, Some(Blocked::Coll { comm: c, occ: o }) if c == comm && o == occ);
                    self.missing_members(comm, &arrived, &mut out, &mut |missing, done| {
                        if done {
                            Some(Diag {
                                code: Code::A006,
                                severity: Severity::Error,
                                loc: Some(Loc { rank: r, step }),
                                message: format!(
                                    "collective {kind} #{occ} on comm {}: rank {missing} \
                                     terminated without participating",
                                    comm.0
                                ),
                            })
                        } else {
                            None
                        }
                    });
                    for (_, what) in &mut out {
                        *what = format!("collective {kind} #{occ} on comm {}: {what}", comm.0);
                    }
                }
                Blocked::Fence { win, occ } => {
                    let Some(comm) = self.p.win_comm(win) else { continue };
                    let arrived = move |b: Option<Blocked>| matches!(b, Some(Blocked::Fence { win: w, occ: o }) if w == win && o == occ);
                    self.missing_members(comm, &arrived, &mut out, &mut |missing, done| {
                        if done {
                            Some(Diag {
                                code: Code::A009,
                                severity: Severity::Error,
                                loc: Some(Loc { rank: r, step }),
                                message: format!(
                                    "fence #{occ} on window {}: rank {missing} terminated \
                                     without fencing",
                                    win.0
                                ),
                            })
                        } else {
                            None
                        }
                    });
                    for (_, what) in &mut out {
                        *what = format!("fence #{occ} on window {}: {what}", win.0);
                    }
                }
            }
            edges.insert(r, out);
        }
        let chain = find_cycle(stalled, &edges, &self.pc);
        let closed = chain
            .last()
            .zip(chain.first())
            .is_some_and(|(last, first)| last.waits_for == first.rank);
        let describe = |chain: &[WaitEdge]| {
            chain
                .iter()
                .map(|e| format!("rank {} (step {}) → rank {}", e.rank, e.step, e.waits_for))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if self.wildcard_sites.is_empty()
            && !stalled.iter().any(|&r| {
                matches!(self.blocked[r], Some(Blocked::Recv))
                    && matches!(
                        self.p.rank_ops(r)[self.pc[r]],
                        Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. }
                    )
            })
        {
            if !chain.is_empty() {
                self.diags.push(Diag {
                    code: Code::A002,
                    severity: Severity::Error,
                    loc: chain.first().map(|e| Loc { rank: e.rank, step: e.step }),
                    message: format!(
                        "definite deadlock: {} among {} rank{}: {}",
                        if closed { "circular wait" } else { "blocked chain" },
                        chain.len(),
                        if chain.len() == 1 { "" } else { "s" },
                        describe(&chain)
                    ),
                });
            }
            Verdict::DefiniteDeadlock { cycle: chain }
        } else {
            let mut sites = self.wildcard_sites.clone();
            for &r in stalled {
                if matches!(self.blocked[r], Some(Blocked::Recv))
                    && matches!(
                        self.p.rank_ops(r)[self.pc[r]],
                        Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. }
                    )
                {
                    let loc = Loc { rank: r, step: self.pc[r] };
                    if !sites.contains(&loc) {
                        sites.push(loc);
                    }
                }
            }
            self.diags.push(Diag {
                code: Code::A010,
                severity: Severity::Error,
                loc: chain.first().map(|e| Loc { rank: e.rank, step: e.step }),
                message: format!(
                    "potential deadlock: the canonical matching stalls ({}), but wildcard \
                     receives make matching nondeterministic — another matching might progress",
                    if chain.is_empty() { "no progress".to_string() } else { describe(&chain) }
                ),
            });
            Verdict::PotentialDeadlock { wildcard_sites: sites }
        }
    }

    /// Append an edge per not-yet-arrived member of `comm`; `arrived` tests
    /// whether a member's park state is *this* barrier occurrence, and
    /// `on_missing` turns a terminated member into a diagnostic instead.
    fn missing_members(
        &mut self,
        comm: CommId,
        arrived: &dyn Fn(Option<Blocked>) -> bool,
        out: &mut Vec<(usize, String)>,
        on_missing: &mut dyn FnMut(usize, bool) -> Option<Diag>,
    ) {
        let Some(members) = self.p.comm_members(comm).map(<[usize]>::to_vec) else { return };
        for m in members {
            if arrived(self.blocked[m]) {
                continue;
            }
            let done = self.done(m);
            if let Some(d) = on_missing(m, done) {
                self.diags.push(d);
            }
            if !done {
                out.push((m, format!("rank {m} has not arrived")));
            }
        }
    }
}

/// DFS for a cycle in the wait-for graph; returns the cycle as `WaitEdge`s
/// (closed: the last edge waits for the first rank).  When no cycle exists
/// the graph is a DAG into terminated/orphaned ranks; the longest blocking
/// chain from the lowest stalled rank is returned instead so reports always
/// show *why* nothing moves.
fn find_cycle(
    stalled: &[usize],
    edges: &HashMap<usize, Vec<(usize, String)>>,
    pc: &[usize],
) -> Vec<WaitEdge> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<usize, Color> = stalled.iter().map(|&r| (r, Color::White)).collect();
    // Iterative DFS keeping the grey path; on a grey hit, the path suffix
    // from that node is the cycle.
    for &start in stalled {
        if color[&start] != Color::White {
            continue;
        }
        let mut path: Vec<(usize, usize)> = vec![(start, 0)]; // (node, next edge index)
        color.insert(start, Color::Grey);
        while let Some(frame) = path.last_mut() {
            let node = frame.0;
            let outs = edges.get(&node).map_or(&[][..], Vec::as_slice);
            if frame.1 >= outs.len() {
                color.insert(node, Color::Black);
                path.pop();
                continue;
            }
            let (next, _) = outs[frame.1];
            frame.1 += 1;
            match color.get(&next).copied() {
                Some(Color::Grey) => {
                    // Cycle: suffix of `path` starting at `next`.  A grey
                    // node is by construction on the path; a miss would
                    // just keep searching.
                    let Some(pos) = path.iter().position(|&(n, _)| n == next) else { continue };
                    let cycle_nodes: Vec<usize> = path[pos..].iter().map(|&(n, _)| n).collect();
                    let mut out = Vec::new();
                    for (i, &n) in cycle_nodes.iter().enumerate() {
                        let to = cycle_nodes[(i + 1) % cycle_nodes.len()];
                        let what = edges
                            .get(&n)
                            .and_then(|v| v.iter().find(|&&(w, _)| w == to))
                            .map_or_else(String::new, |(_, s)| s.clone());
                        out.push(WaitEdge { rank: n, step: pc[n], waits_for: to, what });
                    }
                    return out;
                }
                Some(Color::White) => {
                    color.insert(next, Color::Grey);
                    path.push((next, 0));
                }
                _ => {} // Black or not-stalled (terminated): skip.
            }
        }
    }
    // No cycle: walk first-edges from the lowest stalled rank.
    let mut out = Vec::new();
    let Some(&start) = stalled.first() else { return out };
    let mut seen = vec![start];
    let mut node = start;
    while let Some((next, what)) = edges.get(&node).and_then(|v| v.first()).cloned() {
        out.push(WaitEdge { rank: node, step: pc[node], waits_for: next, what });
        if seen.contains(&next) || !edges.contains_key(&next) {
            break;
        }
        seen.push(next);
        node = next;
    }
    out
}
