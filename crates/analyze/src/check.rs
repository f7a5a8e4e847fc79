//! The analyzer: a deterministic replay of the plan under the canonical
//! matching, plus a wait-for-graph post-mortem when the replay stalls.
//!
//! What executing an op *does* is the plan interpreter's ([`State`]); this
//! module is one of its three drivers.  It owns the order — a LIFO worklist
//! in which every rank runs until it blocks and a wildcard receive takes
//! the earliest admissible arrival (the *canonical matching*) — and
//! everything a [`Report`] says about the run: channel totals, the match
//! log, one-sided epoch conflicts, collective agreement.  When every rank
//! runs to completion the plan is deadlock-free under the canonical
//! matching; when the replay stalls, the blocked ranks form a wait-for
//! graph whose cycle (found by DFS) *is* the deadlock, reported rank by
//! rank.
//!
//! Wildcard receives make matching nondeterministic, so any verdict in
//! their presence is only canonical-matching-sound: completion becomes
//! [`Verdict::PotentialDeadlock`], and a stall is reported as potential
//! rather than definite (another matching might progress).

use std::collections::HashMap;

use crate::diag::{ChannelUse, Code, Diag, Loc, Report, Severity, Verdict, WaitEdge};
use crate::interp::{admits, ChanKey, State, Step, Sync};
use crate::plan::{CollKind, CommId, CommPlan, Op, Program, Src, Tag, WinId};
use crate::race::{self, Determinism, IndependenceMap};

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
///
/// Membership is one bitmap per communicator, `n` bits each, so an op
/// costs O(1) whatever the communicator's size.  A listed member ≥ `n`
/// sets no bit: no rank can be it, and a peer that large is reported as
/// out of range before membership is asked.
fn check_well_formed(p: &Program, diags: &mut Vec<Diag>) {
    let n = p.nranks();
    let words = n.div_ceil(64);
    let mut bits = vec![0u64; p.ncomms() * words];
    for c in 0..p.ncomms() {
        for &m in p.comm_members(CommId(c as u32)).unwrap_or_default() {
            if m < n {
                bits[c * words + m / 64] |= 1 << (m % 64);
            }
        }
    }
    let member =
        |comm: CommId, r: usize| bits[comm.0 as usize * words + r / 64] & (1 << (r % 64)) != 0;
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
            if comm.0 as usize >= p.ncomms() {
                push(r, i, format!("unknown communicator id {}", comm.0));
                continue;
            }
            if !member(comm, r) {
                push(r, i, format!("rank {r} is not a member of comm {}", comm.0));
            }
            if let Some(peer) = peer {
                if peer >= n {
                    push(r, i, format!("peer rank {peer} is out of range (nranks = {n})"));
                } else if !member(comm, peer) {
                    push(r, i, format!("peer rank {peer} is not a member of comm {}", comm.0));
                }
            }
        }
    }
}

struct Replay<'p> {
    p: &'p Program,
    st: State<'p>,
    /// Ranks asleep at a `Recv` whose match has not arrived; the next send
    /// to them puts them back on the worklist.
    asleep: Vec<bool>,
    /// Per win: one-sided accesses of the currently open epoch.
    epoch: Vec<Vec<Access>>,
    wildcard_sites: Vec<Loc>,
    /// The canonical matching as `(send, recv)` location pairs.
    matches: Vec<(Loc, Loc)>,
    diags: Vec<Diag>,
}

impl<'p> Replay<'p> {
    fn new(p: &'p Program) -> Self {
        Self {
            p,
            st: State::new(p),
            asleep: vec![false; p.nranks()],
            epoch: vec![Vec::new(); p.nwins()],
            wildcard_sites: Vec::new(),
            matches: Vec::new(),
            diags: Vec::new(),
        }
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

    /// Check kind/root agreement of a completed collective occurrence, each
    /// member against the first to arrive.  Every member has just moved
    /// past its `Coll` op, so that op sits one step behind its pc.
    fn check_coll_agreement(&mut self, comm: CommId, occ: usize, arrivals: &[usize]) {
        let calls: Vec<(Loc, CollKind, Option<usize>)> = arrivals
            .iter()
            .filter_map(|&rank| {
                let step = self.st.pc(rank) - 1;
                match self.p.rank_ops(rank)[step] {
                    Op::Coll { kind, root, .. } => Some((Loc { rank, step }, kind, root)),
                    _ => None,
                }
            })
            .collect();
        let Some(&(first, first_kind, first_root)) = calls.first() else { return };
        for &(loc, kind, root) in &calls[1..] {
            if kind != first_kind {
                self.diags.push(Diag {
                    code: Code::A006,
                    severity: Severity::Error,
                    loc: Some(loc),
                    message: format!(
                        "collective #{occ} on comm {}: rank {} calls {kind} but rank {} calls \
                         {first_kind}",
                        comm.0, loc.rank, first.rank
                    ),
                });
            } else if root != first_root {
                let fmt_root = |r: Option<usize>| {
                    r.map_or_else(|| "no root".to_string(), |r| format!("root {r}"))
                };
                self.diags.push(Diag {
                    code: Code::A007,
                    severity: Severity::Error,
                    loc: Some(loc),
                    message: format!(
                        "collective {first_kind} #{occ} on comm {}: rank {} uses {} but rank {} \
                         uses {}",
                        comm.0,
                        loc.rank,
                        fmt_root(root),
                        first.rank,
                        fmt_root(first_root)
                    ),
                });
            }
        }
    }

    /// Run rank `r` until it blocks or finishes; returns ranks to wake.
    fn step_rank(&mut self, r: usize) -> Vec<usize> {
        let mut wake = Vec::new();
        while let Some(op) = self.st.op(r) {
            let step = self.st.pc(r);
            match op {
                Op::Send { dst, .. } => {
                    if std::mem::take(&mut self.asleep[dst]) {
                        wake.push(dst);
                    }
                }
                Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. } => {
                    let loc = Loc { rank: r, step };
                    if self.wildcard_sites.last() != Some(&loc) {
                        self.wildcard_sites.push(loc);
                    }
                }
                Op::Put { win, target, offset, bytes }
                | Op::Get { win, target, offset, bytes }
                | Op::Accumulate { win, target, offset, bytes } => {
                    self.epoch[win.0 as usize].push(Access {
                        origin: r,
                        step,
                        target,
                        offset,
                        bytes,
                        write: !matches!(op, Op::Get { .. }),
                        accumulate: matches!(op, Op::Accumulate { .. }),
                    });
                }
                Op::Recv { .. } | Op::Coll { .. } | Op::Fence { .. } => {}
            }
            match self.st.step(r, None) {
                Step::Sent { .. } | Step::Local => {}
                Step::Received { send, .. } => self.matches.push((send, Loc { rank: r, step })),
                Step::Blocked => {
                    self.asleep[r] = true;
                    return wake;
                }
                Step::Parked => return wake,
                Step::Released { on, occ, arrivals } => {
                    match on {
                        Sync::Coll(comm) => self.check_coll_agreement(comm, occ, &arrivals),
                        Sync::Fence(win) => self.close_epoch(win),
                    }
                    wake.extend(arrivals.into_iter().filter(|&m| m != r));
                }
            }
        }
        wake
    }

    fn run(mut self, mut preexisting: Vec<Diag>) -> Report {
        let n = self.p.nranks();
        let mut runnable: Vec<usize> = (0..n).rev().collect();
        while let Some(r) = runnable.pop() {
            if self.asleep[r] || self.st.parked(r).is_some() || self.st.done(r) {
                continue;
            }
            let woken = self.step_rank(r);
            runnable.extend(woken);
        }
        let stalled: Vec<usize> = (0..n).filter(|&r| !self.st.done(r)).collect();
        let verdict =
            if stalled.is_empty() { self.finish_clean() } else { self.post_mortem(&stalled) };
        let channels = channel_totals(self.p, &self.st);
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
        for ((comm, src, dst, tag), count) in self.st.in_flight() {
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

    /// Does rank `s` still have a send the receive `(comm, → dst, tag)`
    /// admits, at or after its current pc?
    fn has_future_send(&self, s: usize, comm: CommId, dst: usize, tag: Tag) -> bool {
        self.p.rank_ops(s)[self.st.pc(s)..].iter().any(|op| {
            matches!(*op, Op::Send { comm: c, dst: d, tag: t, .. }
                if d == dst && admits(comm, Src::Rank(s), tag, (c, s, d, t)))
        })
    }

    /// Is rank `r` stalled at a wildcard receive?
    fn at_wildcard(&self, r: usize) -> bool {
        matches!(
            self.st.op(r),
            Some(Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. })
        )
    }

    /// The replay stalled: build the wait-for graph over the blocked ranks,
    /// report orphans / missing participants, find a cycle, classify.
    fn post_mortem(&mut self, stalled: &[usize]) -> Verdict {
        // Adjacency: r → (waits_for, description).  All stalled ranks are
        // blocked (a runnable rank would have been stepped).
        let mut edges: HashMap<usize, Vec<(usize, String)>> = HashMap::new();
        for &r in stalled {
            let step = self.st.pc(r);
            let loc = Some(Loc { rank: r, step });
            let mut out: Vec<(usize, String)> = Vec::new();
            match (self.st.op(r), self.st.parked(r)) {
                (Some(Op::Recv { comm, src, tag }), _) => {
                    let tag_str = match tag {
                        Tag::Is(t) => format!("tag {t}"),
                        Tag::Any => "any tag".to_string(),
                    };
                    let candidates: Vec<usize> = match src {
                        Src::Rank(s) => vec![s],
                        Src::Any => (0..self.p.nranks()).filter(|&s| s != r).collect(),
                    };
                    let live: Vec<usize> = candidates
                        .into_iter()
                        .filter(|&s| !self.st.done(s) && self.has_future_send(s, comm, r, tag))
                        .collect();
                    if live.is_empty() {
                        let from = match src {
                            Src::Rank(s) => format!(
                                "rank {s}{}",
                                if self.st.done(s) { " (terminated)" } else { "" }
                            ),
                            Src::Any => "any source".to_string(),
                        };
                        self.diags.push(Diag {
                            code: Code::A004,
                            severity: Severity::Error,
                            loc,
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
                // Parked at occurrence `occ` of a barrier: it waits for every
                // member that is not parked there too; one that terminated
                // will never come.
                (Some(op), Some((on, occ))) => {
                    let (comm, what, code, never) = match (on, op) {
                        (Sync::Coll(comm), Op::Coll { kind, .. }) => (
                            Some(comm),
                            format!("collective {kind} #{occ} on comm {}", comm.0),
                            Code::A006,
                            "participating",
                        ),
                        (Sync::Fence(win), _) => (
                            self.p.win_comm(win),
                            format!("fence #{occ} on window {}", win.0),
                            Code::A009,
                            "fencing",
                        ),
                        (Sync::Coll(_), _) => continue,
                    };
                    for &m in comm.and_then(|c| self.p.comm_members(c)).unwrap_or_default() {
                        if self.st.parked(m) == Some((on, occ)) {
                            continue;
                        }
                        if self.st.done(m) {
                            self.diags.push(Diag {
                                code,
                                severity: Severity::Error,
                                loc,
                                message: format!("{what}: rank {m} terminated without {never}"),
                            });
                        } else {
                            out.push((m, format!("{what}: rank {m} has not arrived")));
                        }
                    }
                }
                // A stalled rank is always asleep at a receive or parked at
                // a barrier (a runnable one would have been stepped); a miss
                // just contributes no wait edges.
                _ => continue,
            }
            edges.insert(r, out);
        }
        let chain = find_cycle(stalled, &edges, &self.st);
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
        if self.wildcard_sites.is_empty() && !stalled.iter().any(|&r| self.at_wildcard(r)) {
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
                let loc = Loc { rank: r, step: self.st.pc(r) };
                if self.at_wildcard(r) && !sites.contains(&loc) {
                    sites.push(loc);
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
}

/// Per-channel traffic of the sends the replay executed (each rank's sends
/// before its final pc), in channel order: one sort and merge at the end
/// instead of a tree insert per message.
fn channel_totals(p: &Program, st: &State<'_>) -> Vec<ChannelUse> {
    let mut sent: Vec<(ChanKey, u64)> = Vec::new();
    for r in 0..p.nranks() {
        for op in &p.rank_ops(r)[..st.pc(r)] {
            if let Op::Send { comm, dst, tag, bytes } = *op {
                sent.push(((comm, r, dst, tag), bytes));
            }
        }
    }
    sent.sort_unstable_by_key(|&(key, _)| key);
    let mut channels: Vec<ChannelUse> = Vec::new();
    for ((comm, src, dst, tag), bytes) in sent {
        match channels.last_mut() {
            Some(c) if (c.comm, c.src, c.dst, c.tag) == (comm, src, dst, tag) => {
                c.messages += 1;
                c.bytes += bytes;
            }
            _ => channels.push(ChannelUse { comm, src, dst, tag, messages: 1, bytes }),
        }
    }
    channels
}

/// DFS for a cycle in the wait-for graph; returns the cycle as `WaitEdge`s
/// (closed: the last edge waits for the first rank).  When no cycle exists
/// the graph is a DAG into terminated/orphaned ranks; the longest blocking
/// chain from the lowest stalled rank is returned instead so reports always
/// show *why* nothing moves.
fn find_cycle(
    stalled: &[usize],
    edges: &HashMap<usize, Vec<(usize, String)>>,
    st: &State<'_>,
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
                        out.push(WaitEdge { rank: n, step: st.pc(n), waits_for: to, what });
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
        out.push(WaitEdge { rank: node, step: st.pc(node), waits_for: next, what });
        if seen.contains(&next) || !edges.contains_key(&next) {
            break;
        }
        seen.push(next);
        node = next;
    }
    out
}
