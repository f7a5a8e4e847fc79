//! Static happens-before race pass: vector clocks over the plan IR,
//! determinism verdicts (MIM-A011…A016), and the independence map that
//! lets `mim-explore` prune its schedule search.
//!
//! Two happens-before relations are computed over the same per-op vector
//! clocks, by a pass (`vc_pass`) that is one of the three drivers of the
//! plan interpreter ([`crate::interp::State`]: which barrier occurrence an
//! op belongs to and when it completes is the interpreter's to say):
//!
//! * the **static** relation — program order plus collective/fence barrier
//!   edges only.  These edges hold under *every* schedule, so anything the
//!   static relation proves ordered (or every-order-equivalent) may be
//!   removed from exploration without losing behaviors; it alone feeds the
//!   [`IndependenceMap`];
//! * the **canonical** relation — the static edges plus the match edges of
//!   the analyzer's canonical replay (each matched receive additionally
//!   joins its sender's clock).  It holds for one schedule only and is
//!   used to *sharpen diagnostics* (which races reorder observable
//!   receives, which feed later matches), never to prune.
//!
//! A wildcard receive site is classified one of two ways:
//!
//! * **benign** — its matching commutes.  Either it sits in a maximal run
//!   of identical-pattern wildcard receives that canonically consumes
//!   *exactly* the set of admissible sends (any permutation of the block
//!   drains the same messages, and plans are straight-line, so no later
//!   behavior can observe the order), or its racing send set spans at most
//!   one channel (per-channel FIFO then forces the match).
//! * **racy** — at least two distinct channels race for it: MIM-A011, with
//!   A012–A016 scoped to the same site when the sharper patterns apply.
//!
//! The racing set of a site `W` is every admissible send `S` with
//! `¬hb(W, S)` under the static relation.  Sends *before* `W` stay in the
//! set deliberately: an earlier unforced match can leave them pending, so
//! only sends provably after `W` are excluded.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Code, Diag, Loc, Severity};
use crate::interp::{admits, ChanKey, State, Step};
use crate::plan::{CommId, Op, Program, Src, Tag};

/// The schedule-sensitivity axis of a report, orthogonal to the deadlock
/// lattice: can different schedules produce different matchings?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Determinism {
    /// No wildcard race survives the happens-before analysis: every
    /// schedule produces the same matching, so the canonical replay's
    /// outcome is *the* outcome and one explored schedule decides the plan.
    Deterministic,
    /// At least one wildcard receive has racing senders on distinct
    /// channels; schedules can diverge.  `codes` lists the race
    /// diagnostics that were emitted (always includes [`Code::A011`]).
    SchedSensitive {
        /// Sorted, deduplicated race diagnostic codes.
        codes: Vec<Code>,
    },
    /// The plan is malformed; no determinism claim is made.
    Unknown,
}

impl Determinism {
    /// Short lower-snake label used in both output formats.
    pub fn kind(&self) -> &'static str {
        match self {
            Determinism::Deterministic => "deterministic",
            Determinism::SchedSensitive { .. } => "sched_sensitive",
            Determinism::Unknown => "unknown",
        }
    }
}

/// The static independence relation `mim-explore` consumes: which wildcard
/// receive sites commute with their senders under every schedule.
///
/// Contract with the explorer: a site in `benign` may be dropped from the
/// persistent-set computation — its match decisions are still *recorded*
/// (decision logs stay comparable) but never seed a backtrack point, and
/// sends admitted only by benign sites are not race-flagged.  Sites in
/// `racy` must keep branching the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndependenceMap {
    /// Rank count of the analyzed program.
    pub nranks: usize,
    /// Wildcard receive sites proven order-insensitive.
    pub benign: BTreeSet<(usize, usize)>,
    /// Wildcard receive sites with a genuine multi-channel race.
    pub racy: BTreeSet<(usize, usize)>,
    /// Edges the race pass materialized in the static happens-before
    /// graph: program-order edges plus directed barrier member pairs.
    /// Zero when the plan has no wildcards (the pass short-circuits).
    pub hb_edges: usize,
}

impl IndependenceMap {
    /// The empty relation (no wildcard sites classified).
    pub fn empty(nranks: usize) -> Self {
        IndependenceMap { nranks, benign: BTreeSet::new(), racy: BTreeSet::new(), hb_edges: 0 }
    }

    /// Is the wildcard receive at `(rank, step)` proven order-insensitive?
    pub fn wildcard_is_benign(&self, rank: usize, step: usize) -> bool {
        self.benign.contains(&(rank, step))
    }

    /// Total wildcard sites classified (benign + racy).
    pub fn wildcard_sites(&self) -> usize {
        self.benign.len() + self.racy.len()
    }
}

/// Per-op vector clocks: `vc[rank][step]` is that op's clock, assigned
/// when the pass executed it.  `a` happens-before `b` iff `b`'s clock has
/// seen `a`'s increment of `a.rank`'s component.
struct Clocks {
    vc: Vec<Vec<Vec<u64>>>,
}

impl Clocks {
    fn hb(&self, a: Loc, b: Loc) -> bool {
        if a.rank == b.rank {
            return a.step < b.step;
        }
        self.vc[b.rank][b.step][a.rank] >= self.vc[a.rank][a.step][a.rank]
    }
}

/// Compute per-op vector clocks by running the plan's *synchronization*
/// only: barrier ops are stepped on the interpreter ([`State`]; completion
/// joins every member's clock), while sends, receives and one-sided ops are
/// local here and skipped past — except that in canonical mode
/// (`match_of_recv` present) each matched receive waits for, and joins, its
/// sender's clock.
///
/// Ranks parked forever (a barrier that never completes, an unmatched
/// receive in canonical mode) get program-order-only clocks for their
/// remaining ops: fewer edges, never wrong ones.
///
/// Returns the clocks and the number of directed barrier member pairs, the
/// barrier half of the [`IndependenceMap::hb_edges`] stat.
fn vc_pass(p: &Program, match_of_recv: Option<&BTreeMap<(usize, usize), Loc>>) -> (Clocks, usize) {
    let n = p.nranks();
    let mut cur: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut vc: Vec<Vec<Vec<u64>>> =
        (0..n).map(|r| vec![Vec::new(); p.rank_ops(r).len()]).collect();
    let mut st = State::new(p);
    let mut barrier_pairs = 0usize;

    // Stamp the op at `(r, step)` with rank `r`'s next clock value.
    let tick = |cur: &mut Vec<Vec<u64>>, vc: &mut Vec<Vec<Vec<u64>>>, r: usize, step: usize| {
        cur[r][r] += 1;
        vc[r][step] = cur[r].clone();
    };
    let join = |into: &mut Vec<u64>, from: &[u64]| {
        for (i, &f) in into.iter_mut().zip(from) {
            *i = (*i).max(f);
        }
    };

    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..n {
            while let (Some(op), None) = (st.op(r), st.parked(r)) {
                let step = st.pc(r);
                match (op, match_of_recv) {
                    (Op::Coll { .. } | Op::Fence { .. }, _) => {
                        // Parked until the last member arrives; that arrival
                        // joins every member's clock and advances them all.
                        let Step::Released { arrivals, .. } = st.step(r, None) else { break };
                        let mut joined = vec![0u64; n];
                        for &m in &arrivals {
                            join(&mut joined, &cur[m]);
                        }
                        barrier_pairs += arrivals.len() * arrivals.len().saturating_sub(1);
                        for &m in &arrivals {
                            cur[m] = joined.clone();
                            tick(&mut cur, &mut vc, m, st.pc(m) - 1);
                        }
                    }
                    (Op::Recv { .. }, Some(matches)) => {
                        // Wait for the matched send's clock, then join it
                        // (the match edge); canonically unmatched receives
                        // stay parked forever.
                        let Some(s) = matches.get(&(r, step)) else { break };
                        if vc[s.rank][s.step].is_empty() {
                            break;
                        }
                        let send_vc = vc[s.rank][s.step].clone();
                        join(&mut cur[r], &send_vc);
                        tick(&mut cur, &mut vc, r, step);
                        st.skip(r);
                    }
                    _ => {
                        tick(&mut cur, &mut vc, r, step);
                        st.skip(r);
                    }
                }
                progressed = true;
            }
        }
    }
    // Parked ranks: program-order-only clocks for whatever remains.
    for r in 0..n {
        for step in st.pc(r)..p.rank_ops(r).len() {
            tick(&mut cur, &mut vc, r, step);
        }
    }
    (Clocks { vc }, barrier_pairs)
}

/// A wildcard receive site and the pattern it matches on.
#[derive(Debug, Clone, Copy)]
struct WildSite {
    loc: Loc,
    comm: CommId,
    src: Src,
    tag: Tag,
}

/// One send, with its matching coordinates.
#[derive(Debug, Clone, Copy)]
struct SendSite {
    loc: Loc,
    comm: CommId,
    dst: usize,
    tag: u32,
}

impl SendSite {
    /// The channel the send travels on.
    fn key(&self) -> ChanKey {
        (self.comm, self.loc.rank, self.dst, self.tag)
    }
}

/// Can the wildcard receive at `w` take the send `s`?
fn takes(w: &WildSite, s: &SendSite) -> bool {
    s.dst == w.loc.rank && admits(w.comm, w.src, w.tag, s.key())
}

/// Number of collectives on `comm` preceding `step` at `rank` — the
/// "collective phase" an op sits in (pure program order, so it is
/// schedule-independent).
fn coll_phase(p: &Program, comm: CommId, rank: usize, step: usize) -> usize {
    p.rank_ops(rank)[..step]
        .iter()
        .filter(|op| matches!(op, Op::Coll { comm: c, .. } if *c == comm))
        .count()
}

/// Run the happens-before race pass over a well-formed program.
///
/// `matches` is the canonical replay's match log as `(send, recv)`
/// location pairs.  Appends MIM-A011…A016 warnings to `diags` and returns
/// the determinism verdict plus the independence map.
pub(crate) fn race_pass(
    p: &Program,
    matches: &[(Loc, Loc)],
    diags: &mut Vec<Diag>,
) -> (Determinism, IndependenceMap) {
    let n = p.nranks();
    let wild =
        |op: &Op| matches!(op, Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. });
    if !(0..n).any(|r| p.rank_ops(r).iter().any(wild)) {
        // No wildcards, no races: matching is a pure function of program
        // order and FIFO channels.  Decided before any send is collected —
        // every `analyze()` of a dense wildcard-free plan comes through here.
        return (Determinism::Deterministic, IndependenceMap::empty(n));
    }
    let mut sends: Vec<SendSite> = Vec::new();
    let mut wilds: Vec<WildSite> = Vec::new();
    for r in 0..n {
        for (step, op) in p.rank_ops(r).iter().enumerate() {
            match *op {
                Op::Send { comm, dst, tag, .. } => {
                    sends.push(SendSite { loc: Loc { rank: r, step }, comm, dst, tag });
                }
                Op::Recv { comm, src, tag } if wild(op) => {
                    wilds.push(WildSite { loc: Loc { rank: r, step }, comm, src, tag });
                }
                _ => {}
            }
        }
    }

    let match_of_recv: BTreeMap<(usize, usize), Loc> =
        matches.iter().map(|&(s, r)| ((r.rank, r.step), s)).collect();
    let match_of_send: BTreeMap<(usize, usize), Loc> =
        matches.iter().map(|&(s, r)| ((s.rank, s.step), r)).collect();

    let (static_hb, barrier_pairs) = vc_pass(p, None);
    let (canon_hb, _) = vc_pass(p, Some(&match_of_recv));
    let po_edges: usize = (0..n).map(|r| p.rank_ops(r).len().saturating_sub(1)).sum();

    let mut map = IndependenceMap::empty(n);
    map.hb_edges = po_edges + barrier_pairs;

    // Benign blocks: maximal runs of consecutive identical-pattern
    // wildcard receives that canonically consume exactly their admissible
    // send set.  Any permutation of such a block drains the same messages.
    let mut in_benign_block: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut i = 0;
    while i < wilds.len() {
        let w = wilds[i];
        let mut j = i + 1;
        while j < wilds.len() {
            let x = wilds[j];
            let consecutive = x.loc.rank == w.loc.rank
                && x.loc.step == wilds[j - 1].loc.step + 1
                && x.comm == w.comm
                && x.src == w.src
                && x.tag == w.tag;
            if !consecutive {
                break;
            }
            j += 1;
        }
        let block = &wilds[i..j];
        let adm: Vec<&SendSite> = sends.iter().filter(|&s| takes(&w, s)).collect();
        let in_block = |l: Loc| {
            l.rank == w.loc.rank
                && l.step >= block[0].loc.step
                && l.step <= block[j - i - 1].loc.step
        };
        let benign = adm.len() == block.len()
            && adm.iter().all(|s| {
                match_of_send.get(&(s.loc.rank, s.loc.step)).is_some_and(|&r| in_block(r))
            });
        if benign {
            for x in block {
                in_benign_block.insert((x.loc.rank, x.loc.step));
            }
        }
        i = j;
    }

    // Classify every site; emit diagnostics for the racy ones.
    let mut codes: BTreeSet<Code> = BTreeSet::new();
    let mut racy_sites: Vec<(WildSite, Vec<SendSite>)> = Vec::new();
    for w in &wilds {
        let site = (w.loc.rank, w.loc.step);
        if in_benign_block.contains(&site) {
            map.benign.insert(site);
            continue;
        }
        // The racing set: admissible sends not provably after the receive.
        let racing: Vec<SendSite> =
            sends.iter().filter(|&s| takes(w, s) && !static_hb.hb(w.loc, s.loc)).copied().collect();
        let channels: BTreeSet<(usize, u32)> = racing.iter().map(|s| (s.loc.rank, s.tag)).collect();
        if channels.len() < 2 {
            // Zero or one channel: FIFO forces the match (or the receive
            // blocks forever) — no schedule can change the outcome here.
            map.benign.insert(site);
            continue;
        }
        map.racy.insert(site);

        let shown: Vec<String> = racing
            .iter()
            .take(6)
            .map(|s| format!("rank {} @ step {} (tag {})", s.loc.rank, s.loc.step, s.tag))
            .collect();
        codes.insert(Code::A011);
        diags.push(Diag {
            code: Code::A011,
            severity: Severity::Warning,
            loc: Some(w.loc),
            message: format!(
                "wildcard receive races over {} sends on {} channels: {}{}",
                racing.len(),
                channels.len(),
                shown.join(", "),
                if racing.len() > 6 { ", …" } else { "" }
            ),
        });

        // A012: two racing senders share a tag — delivery order alone
        // decides which message the wildcard sees.
        let mut tags: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
        for s in &racing {
            tags.entry(s.tag).or_default().insert(s.loc.rank);
        }
        if let Some((&tag, ranks)) = tags.iter().find(|(_, ranks)| ranks.len() >= 2) {
            codes.insert(Code::A012);
            diags.push(Diag {
                code: Code::A012,
                severity: Severity::Warning,
                loc: Some(w.loc),
                message: format!(
                    "tag collision: {} racing senders ({}) all use tag {tag} on comm {} — \
                     arrival order picks the match",
                    ranks.len(),
                    ranks.iter().map(|r| format!("rank {r}")).collect::<Vec<_>>().join(", "),
                    w.comm.0
                ),
            });
        }

        // A014: a racing send sits in a different collective phase than the
        // receive — point-to-point traffic leaking across a barrier whose
        // ordering the sender does not actually share.
        if let Some(s) = racing.iter().find(|s| {
            coll_phase(p, w.comm, s.loc.rank, s.loc.step)
                != coll_phase(p, w.comm, w.loc.rank, w.loc.step)
        }) {
            codes.insert(Code::A014);
            diags.push(Diag {
                code: Code::A014,
                severity: Severity::Warning,
                loc: Some(w.loc),
                message: format!(
                    "collective/point-to-point interleaving hazard: racing send at rank {} @ \
                     step {} is in collective phase {} of comm {} but the wildcard receive is \
                     in phase {}",
                    s.loc.rank,
                    s.loc.step,
                    coll_phase(p, w.comm, s.loc.rank, s.loc.step),
                    w.comm.0,
                    coll_phase(p, w.comm, w.loc.rank, w.loc.step)
                ),
            });
        }

        // A015: a racing send the canonical matching pairs elsewhere (or
        // nowhere) — the send crosses this wildcard without being ordered
        // against it.
        let crossing = racing
            .iter()
            .filter(|s| match_of_send.get(&(s.loc.rank, s.loc.step)) != Some(&w.loc))
            .count();
        if crossing > 0 {
            codes.insert(Code::A015);
            diags.push(Diag {
                code: Code::A015,
                severity: Severity::Warning,
                loc: Some(w.loc),
                message: format!(
                    "{crossing} racing send{} match elsewhere (or nowhere) under the canonical \
                     matching yet are unordered with this wildcard — another schedule can \
                     steal the match",
                    if crossing == 1 { "" } else { "s" }
                ),
            });
        }

        // A016: the race is result-visible — some racing send is also
        // admissible by a *later* receive of the same rank, so which
        // message the wildcard takes feeds a later match.
        let later_recv = p.rank_ops(w.loc.rank).iter().enumerate().skip(w.loc.step + 1).find_map(
            |(step, op)| match *op {
                Op::Recv { comm, src, tag } => {
                    racing.iter().find(|&s| admits(comm, src, tag, s.key())).map(|s| (step, s.loc))
                }
                _ => None,
            },
        );
        if let Some((step, send)) = later_recv {
            codes.insert(Code::A016);
            diags.push(Diag {
                code: Code::A016,
                severity: Severity::Warning,
                loc: Some(w.loc),
                message: format!(
                    "result-visible race: the send at rank {} @ step {} is wanted both here \
                     and by the receive at rank {} @ step {step} — the race's outcome feeds a \
                     later match",
                    send.rank, send.step, w.loc.rank
                ),
            });
        }

        racy_sites.push((*w, racing));
    }

    // A013: two racy wildcards at one rank whose canonical matches are
    // cross-admissible and concurrent under the canonical relation — the
    // observable receive order itself can flip.
    for (ai, (w1, _)) in racy_sites.iter().enumerate() {
        for (w2, _) in racy_sites.iter().skip(ai + 1) {
            if w1.loc.rank != w2.loc.rank {
                continue;
            }
            let (m1, m2) = match (
                match_of_recv.get(&(w1.loc.rank, w1.loc.step)),
                match_of_recv.get(&(w2.loc.rank, w2.loc.step)),
            ) {
                (Some(&m1), Some(&m2)) => (m1, m2),
                _ => continue,
            };
            let s1 = sends.iter().find(|s| s.loc == m1);
            let s2 = sends.iter().find(|s| s.loc == m2);
            let (Some(s1), Some(s2)) = (s1, s2) else { continue };
            let cross = takes(w1, s2) && takes(w2, s1);
            let concurrent = !canon_hb.hb(m1, m2) && !canon_hb.hb(m2, m1);
            if cross && concurrent {
                codes.insert(Code::A013);
                diags.push(Diag {
                    code: Code::A013,
                    severity: Severity::Warning,
                    loc: Some(w1.loc),
                    message: format!(
                        "nondeterministic delivery: the receives at steps {} and {} of rank {} \
                         canonically take concurrent sends (rank {} @ step {}, rank {} @ step \
                         {}) that each admit the other's slot — delivery order reorders the \
                         observable receives",
                        w1.loc.step, w2.loc.step, w1.loc.rank, m1.rank, m1.step, m2.rank, m2.step
                    ),
                });
            }
        }
    }

    let determinism = if map.racy.is_empty() {
        Determinism::Deterministic
    } else {
        Determinism::SchedSensitive { codes: codes.into_iter().collect() }
    };
    (determinism, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::analyze_program;
    use crate::plan::WORLD;

    fn send(dst: usize, tag: u32) -> Op {
        Op::Send { comm: WORLD, dst, tag, bytes: 8 }
    }

    fn wild_any() -> Op {
        Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any }
    }

    #[test]
    fn wildcard_free_plans_are_deterministic() {
        let mut p = Program::new("pp", 2);
        p.push(0, send(1, 0));
        p.push(1, Op::Recv { comm: WORLD, src: Src::Rank(0), tag: Tag::Is(0) });
        let r = analyze_program(&p);
        assert_eq!(r.determinism, Determinism::Deterministic);
        assert_eq!(r.independence.wildcard_sites(), 0);
    }

    #[test]
    fn single_channel_wildcard_is_benign() {
        // One sender, one wildcard: FIFO forces the match.
        let mut p = Program::new("single", 2);
        p.push(0, wild_any());
        p.push(1, send(0, 0));
        let r = analyze_program(&p);
        assert_eq!(r.determinism, Determinism::Deterministic, "{r}");
        assert!(r.independence.wildcard_is_benign(0, 0));
    }

    #[test]
    fn benign_block_commutes() {
        // wildcard_clean in miniature: 3 identical wildcards drain exactly
        // the 3 admissible sends.
        let mut p = Program::new("block", 4);
        for _ in 0..3 {
            p.push(0, wild_any());
        }
        for r in 1..4 {
            p.push(r, send(0, r as u32));
        }
        let r = analyze_program(&p);
        assert_eq!(r.determinism, Determinism::Deterministic, "{r}");
        assert_eq!(r.independence.benign.len(), 3);
        assert!(r.independence.racy.is_empty());
    }

    #[test]
    fn crossing_wildcard_is_racy_and_result_visible() {
        // wildcard_race in miniature: the wildcard and a later specific
        // receive both want rank 1's message.
        let mut p = Program::new("race", 3);
        p.push(0, wild_any());
        p.push(0, Op::Recv { comm: WORLD, src: Src::Rank(1), tag: Tag::Is(0) });
        p.push(1, send(0, 0));
        p.push(2, send(0, 0));
        let r = analyze_program(&p);
        let Determinism::SchedSensitive { codes } = &r.determinism else {
            panic!("expected sched_sensitive, got {:?}", r.determinism);
        };
        for c in [Code::A011, Code::A012, Code::A015, Code::A016] {
            assert!(codes.contains(&c), "missing {c} in {codes:?}");
        }
        assert!(r.independence.racy.contains(&(0, 0)));
    }

    #[test]
    fn barrier_serializes_the_race() {
        // Same shape, but rank 2's send moves past a barrier the receive
        // is before: the static relation orders W → send, the race is gone.
        let mut p = Program::new("serial", 3);
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Is(0) });
        for r in 0..3 {
            p.push(r, Op::Coll { comm: WORLD, kind: crate::plan::CollKind::Barrier, root: None });
        }
        p.push(0, Op::Recv { comm: WORLD, src: Src::Rank(2), tag: Tag::Is(0) });
        p.push(1, send(0, 0));
        let r = analyze_program(&p);
        // Both sends sit *after* their barriers here, so the wildcard's
        // racing set is empty and the canonical replay stalls at the
        // wildcard — still deterministic, every schedule agrees.
        assert_eq!(r.determinism, Determinism::Deterministic, "{r}");

        // The properly-serialized twin: rank 1 sends before the barrier,
        // rank 2 after.  One racing channel each — deterministic.
        let mut p = Program::new("serial2", 3);
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Is(0) });
        p.push(1, send(0, 0));
        for r in 0..3 {
            p.push(r, Op::Coll { comm: WORLD, kind: crate::plan::CollKind::Barrier, root: None });
        }
        p.push(0, Op::Recv { comm: WORLD, src: Src::Rank(2), tag: Tag::Is(0) });
        p.push(2, send(0, 0));
        let r = analyze_program(&p);
        assert_eq!(r.determinism, Determinism::Deterministic, "{r}");
        assert!(r.independence.wildcard_is_benign(0, 0));

        // And the unserialized twin (both sends race the wildcard).
        let mut p = Program::new("unserial", 3);
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Is(0) });
        p.push(0, Op::Recv { comm: WORLD, src: Src::Rank(2), tag: Tag::Is(0) });
        p.push(1, send(0, 0));
        p.push(2, send(0, 0));
        let r = analyze_program(&p);
        assert!(matches!(r.determinism, Determinism::SchedSensitive { .. }), "{r}");
    }

    #[test]
    fn reorderable_pair_is_a013() {
        // Two wildcards at rank 0 over three concurrent senders: the block
        // cannot drain its admissible set (3 sends, 2 slots), both sites
        // race, and the two canonical matches come from different ranks,
        // each admitting the other's slot.
        let mut p = Program::new("pair", 4);
        p.push(0, wild_any());
        p.push(0, wild_any());
        p.push(1, send(0, 0));
        p.push(2, send(0, 0));
        p.push(3, send(0, 0));
        let r = analyze_program(&p);
        let Determinism::SchedSensitive { codes } = &r.determinism else {
            panic!("expected sched_sensitive, got {:?}", r.determinism);
        };
        assert!(codes.contains(&Code::A013), "missing A013 in {codes:?}");
    }

    #[test]
    fn cross_phase_send_is_a014() {
        // Rank 1 sends before the barrier, ranks 2 and 3 after; the
        // wildcards sit after it, so rank 1's racing send crosses the
        // phase (and 3 admissible sends for 2 slots keeps the block racy).
        let mut p = Program::new("phase", 4);
        p.push(1, send(0, 0));
        for r in 0..4 {
            p.push(r, Op::Coll { comm: WORLD, kind: crate::plan::CollKind::Barrier, root: None });
        }
        p.push(0, wild_any());
        p.push(0, wild_any());
        p.push(2, send(0, 0));
        p.push(3, send(0, 0));
        let r = analyze_program(&p);
        let Determinism::SchedSensitive { codes } = &r.determinism else {
            panic!("expected sched_sensitive, got {:?}", r.determinism);
        };
        assert!(codes.contains(&Code::A014), "missing A014 in {codes:?}");
    }

    #[test]
    fn vector_clocks_order_across_barriers() {
        let mut p = Program::new("vc", 2);
        p.push(0, send(1, 0));
        for r in 0..2 {
            p.push(r, Op::Coll { comm: WORLD, kind: crate::plan::CollKind::Barrier, root: None });
        }
        p.push(1, send(0, 0));
        p.push(0, Op::Recv { comm: WORLD, src: Src::Rank(1), tag: Tag::Is(0) });
        p.push(1, Op::Recv { comm: WORLD, src: Src::Rank(0), tag: Tag::Is(0) });
        let (clocks, pairs) = vc_pass(&p, None);
        // Rank 0's pre-barrier send happens-before rank 1's post-barrier
        // send; the reverse does not hold.
        assert!(clocks.hb(Loc { rank: 0, step: 0 }, Loc { rank: 1, step: 1 }));
        assert!(!clocks.hb(Loc { rank: 1, step: 1 }, Loc { rank: 0, step: 0 }));
        // Concurrent: the two post-barrier receives.
        assert!(!clocks.hb(Loc { rank: 0, step: 2 }, Loc { rank: 1, step: 2 }));
        assert!(!clocks.hb(Loc { rank: 1, step: 2 }, Loc { rank: 0, step: 2 }));
        assert_eq!(pairs, 2, "one 2-member barrier contributes 2 directed pairs");
    }
}
