//! The model executor: runs a `mim-analyze` [`Program`] outline under an
//! explicit scheduler, surfacing exactly the nondeterminism the live
//! runtime has — which runnable rank resumes next, which eligible channel
//! a wildcard receive consumes — as policy decisions.
//!
//! What executing an op *does* — eager sends, blocking receives, FIFO
//! `(comm, src, dst, tag)` channels, barriers keyed by `(Sync, occurrence)`,
//! one-sided operations completing locally — is the analyzer's
//! [`mim_analyze::interp::State`]; this module is one of its three drivers.
//! It owns the order (lowest runnable rank unless the policy says
//! otherwise, run-to-block: the chosen rank executes until it cannot make
//! progress, which keeps decision logs proportional to the number of
//! genuine branch points, not to the op count), the race flags the policy
//! sees, and the trace vocabulary.
//!
//! Every run is a pure function of `(program, policy decisions)`.  The
//! normalized trace uses a logical step counter as its clock, so two runs
//! that made the same decisions produce *byte-identical* output — the
//! property witness replay rests on.

use mim_analyze::interp::{State, Step, Sync};
use mim_analyze::{IndependenceMap, Op, Program, Src, Tag};
use mim_trace::{TraceData, Tracer};

use crate::policy::{RecordingPolicy, ReplayPolicy};

/// What a policy needs to answer the model's scheduling questions.
///
/// The narrow `(kind, slate size, race flags)` view matches what the live
/// runtime's `SchedulePolicy` seams expose, so one decision log drives
/// both this executor and the live runtime, which under a policy always
/// runs the serialised (one-worker) tasks engine.
pub trait ModelPolicy {
    /// Choose an index in `0..n` for a decision of `kind`.
    fn pick(&self, kind: char, n: usize, racy: &[bool]) -> usize;

    /// A failure detected by the policy itself (replay divergence).
    fn error(&self) -> Option<String> {
        None
    }
}

impl ModelPolicy for RecordingPolicy {
    fn pick(&self, kind: char, n: usize, racy: &[bool]) -> usize {
        RecordingPolicy::pick(self, kind, n, racy)
    }
}

impl ModelPolicy for ReplayPolicy {
    fn pick(&self, kind: char, n: usize, racy: &[bool]) -> usize {
        ReplayPolicy::pick(self, kind, n, racy)
    }

    fn error(&self) -> Option<String> {
        self.divergence()
    }
}

/// Result of one model run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// Normalized event lines, one per executed operation.
    pub trace: Vec<String>,
    /// Per-rank blocked states when the run wedged; `None` on completion.
    pub stuck: Option<Vec<String>>,
    /// Operations executed.
    pub steps: usize,
}

impl RunOutput {
    /// Did the run wedge?
    pub fn deadlocked(&self) -> bool {
        self.stuck.is_some()
    }
}

fn src_desc(src: Src) -> String {
    match src {
        Src::Rank(r) => r.to_string(),
        Src::Any => "any".into(),
    }
}

fn tag_desc(tag: Tag) -> String {
    match tag {
        Tag::Is(t) => t.to_string(),
        Tag::Any => "any".into(),
    }
}

struct Model<'a> {
    program: &'a Program,
    policy: &'a dyn ModelPolicy,
    tracer: Option<&'a std::sync::Arc<Tracer>>,
    tracks: Vec<Option<mim_trace::TraceHandle>>,
    /// Where every rank is, what is in flight, who waits at which barrier.
    st: State<'a>,
    /// Which ranks ever wildcard-receive *racily*, and on which (comm, tag)
    /// space — the match-graph side of the persistent-set computation.
    /// Sites the independence map proves benign are omitted.
    wildcard_pats: Vec<Vec<(u32, Tag)>>,
    /// The analyzer's static independence relation, when supplied: benign
    /// wildcard sites stop seeding backtrack points (their decisions are
    /// still recorded, so logs stay byte-comparable).
    imap: Option<&'a IndependenceMap>,
    trace: Vec<String>,
    steps: usize,
}

impl<'a> Model<'a> {
    fn new(
        program: &'a Program,
        policy: &'a dyn ModelPolicy,
        tracer: Option<&'a std::sync::Arc<Tracer>>,
        imap: Option<&'a IndependenceMap>,
    ) -> Self {
        let n = program.nranks();
        let mut wildcard_pats = vec![Vec::new(); n];
        for (r, pats) in wildcard_pats.iter_mut().enumerate() {
            for (step, op) in program.rank_ops(r).iter().enumerate() {
                if imap.is_some_and(|m| m.wildcard_is_benign(r, step)) {
                    continue; // statically order-insensitive: not a race
                }
                if let Op::Recv { comm, src: Src::Any, tag } = op {
                    pats.push((comm.0, *tag));
                } else if let Op::Recv { comm, tag: Tag::Any, .. } = op {
                    pats.push((comm.0, Tag::Any));
                }
            }
        }
        let tracks = (0..n).map(|r| tracer.map(|t| t.track(format!("rank{r}")))).collect();
        Model {
            program,
            policy,
            tracer,
            tracks,
            st: State::new(program),
            wildcard_pats,
            imap,
            trace: Vec::new(),
            steps: 0,
        }
    }

    /// Is the wildcard receive at `(r, step)` statically order-insensitive?
    fn wildcard_is_benign(&self, r: usize, step: usize) -> bool {
        self.imap.is_some_and(|m| m.wildcard_is_benign(r, step))
    }

    fn record(&mut self, rank: usize, line: String, data: Option<TraceData>) {
        if let (Some(track), Some(data)) = (&self.tracks[rank], data) {
            track.record(self.steps as f64, data);
        }
        self.trace.push(line);
        self.steps += 1;
    }

    /// Does some wildcard receive of `dst` admit a `(comm, tag)` message?
    /// Such sends are *racy*: their arrival order can steer the match.
    fn send_is_racy(&self, dst: usize, comm: u32, tag: u32) -> bool {
        self.wildcard_pats[dst].iter().any(|&(c, t)| c == comm && t.admits(tag))
    }

    /// Can a later decision about rank `r` change any wildcard match?
    /// Conservative (whole remaining program, not just the next burst):
    /// errs toward exploring, never toward pruning a real race.  Wildcard
    /// sites the independence map proves benign do not count.
    fn rank_is_racy(&self, r: usize) -> bool {
        let pc = self.st.pc(r);
        self.program.rank_ops(r)[pc..].iter().enumerate().any(|(j, op)| match *op {
            Op::Send { comm, dst, tag, .. } => self.send_is_racy(dst, comm.0, tag),
            Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. } => {
                !self.wildcard_is_benign(r, pc + j)
            }
            _ => false,
        })
    }

    /// Step rank `r` into its pending barrier; returns true if that
    /// completed it (releasing every participant, each of which logs the
    /// completing rank's description of the op).
    fn join(&mut self, r: usize, desc: String) -> bool {
        let Step::Released { occ, arrivals, .. } = self.st.step(r, None) else { return false };
        for m in arrivals {
            let line = format!("t={} rank={m} {desc} occ={occ}", self.steps);
            self.record(
                m,
                line,
                Some(TraceData::DesStep { rank: m, op: "park", peer: r, bytes: 0 }),
            );
        }
        true
    }

    /// Execute ops of rank `r` until it blocks or finishes (run-to-block).
    fn burst(&mut self, r: usize) {
        while let Some(op) = self.st.op(r) {
            match op {
                Op::Send { comm, dst, tag, bytes } => {
                    let Step::Sent { seq } = self.st.step(r, None) else { return };
                    let line = format!(
                        "t={} rank={r} send dst={dst} comm={} tag={tag} bytes={bytes} seq={seq}",
                        self.steps, comm.0
                    );
                    self.record(
                        r,
                        line,
                        Some(TraceData::DesStep { rank: r, op: "send", peer: dst, bytes }),
                    );
                }
                Op::Recv { .. } => {
                    // The slate a wildcard decision ranges over: the head of
                    // each admissible channel, earliest arrival first.
                    let slate = self.st.eligible(r);
                    let (_, choice) = match slate.len() {
                        0 => return, // blocked
                        1 => slate[0],
                        n => {
                            // A benign site still *records* its decision
                            // (logs stay byte-comparable) but flags every
                            // candidate non-racy, so the persistent set is
                            // empty and the DFS never backtracks here.
                            let racy: Vec<bool> = if self.wildcard_is_benign(r, self.st.pc(r)) {
                                vec![false; n]
                            } else {
                                Vec::new()
                            };
                            let i = self.policy.pick('w', n, &racy);
                            slate[i.min(n - 1)]
                        }
                    };
                    let Step::Received { seq, send, key: (comm, src, _, tag) } =
                        self.st.step(r, Some(choice))
                    else {
                        return;
                    };
                    // Only the trace wants the size; the message in flight
                    // does not carry it.
                    let bytes = match self.program.rank_ops(send.rank)[send.step] {
                        Op::Send { bytes, .. } => bytes,
                        _ => 0,
                    };
                    let line = format!(
                        "t={} rank={r} recv src={src} comm={} tag={tag} bytes={bytes} seq={seq}",
                        self.steps, comm.0
                    );
                    self.record(
                        r,
                        line,
                        Some(TraceData::DesStep { rank: r, op: "recv", peer: src, bytes }),
                    );
                }
                Op::Coll { comm, kind, root } => {
                    let desc = match root {
                        Some(root) => format!("coll {kind} comm={} root={root}", comm.0),
                        None => format!("coll {kind} comm={}", comm.0),
                    };
                    if !self.join(r, desc) {
                        return; // parked in the barrier
                    }
                }
                Op::Put { win, target, bytes, .. }
                | Op::Get { win, target, bytes, .. }
                | Op::Accumulate { win, target, bytes, .. } => {
                    let verb = match op {
                        Op::Put { .. } => "put",
                        Op::Get { .. } => "get",
                        _ => "accumulate",
                    };
                    self.st.step(r, None);
                    let line = format!(
                        "t={} rank={r} rma {verb} target={target} win={} bytes={bytes}",
                        self.steps, win.0
                    );
                    self.record(r, line, None);
                }
                Op::Fence { win } => {
                    let Some(comm) = self.program.win_comm(win) else {
                        return; // malformed: blocked forever
                    };
                    if !self.join(r, format!("fence win={} comm={}", win.0, comm.0)) {
                        return;
                    }
                }
            }
        }
    }

    /// Describe why `r` is not done (the normalized stuck dump).
    fn stuck_line(&self, r: usize) -> String {
        let pc = self.st.pc(r);
        match self.program.rank_ops(r)[pc] {
            Op::Recv { comm, src, tag } => format!(
                "rank {r} blocked at step {pc}: recv src={} tag={} comm={} (0 eligible)",
                src_desc(src),
                tag_desc(tag),
                comm.0
            ),
            Op::Coll { comm, kind, .. } => {
                let (occ, arrived) = self.st.pending(Sync::Coll(comm));
                let members = self.program.comm_members(comm).map_or(0, <[usize]>::len);
                format!(
                    "rank {r} blocked at step {pc}: coll {kind} comm={} occ={occ} \
                     ({}/{members} arrived)",
                    comm.0,
                    arrived.len()
                )
            }
            Op::Fence { win } => format!("rank {r} blocked at step {pc}: fence win={}", win.0),
            ref op => format!("rank {r} blocked at step {pc}: {op:?}"),
        }
    }

    fn run(mut self) -> Result<RunOutput, String> {
        // Every scheduler iteration either executes an op or parks a rank
        // in a barrier, so this bound is unreachable without a model bug.
        let max_iters = 2 * self.program.total_ops() + self.program.nranks() + 4;
        let mut iters = 0;
        let n = self.program.nranks();
        loop {
            if let Some(err) = self.policy.error() {
                return Err(err);
            }
            iters += 1;
            if iters > max_iters {
                return Err(format!(
                    "model executor exceeded its iteration budget ({max_iters}) — \
                     this is a bug in the model, not the plan"
                ));
            }
            let runnable: Vec<usize> = (0..n).filter(|&r| self.st.runnable(r)).collect();
            let chosen = match runnable.len() {
                0 => break,
                1 => runnable[0],
                k => {
                    let racy: Vec<bool> = runnable.iter().map(|&r| self.rank_is_racy(r)).collect();
                    let i = self.policy.pick('r', k, &racy);
                    runnable[i.min(k - 1)]
                }
            };
            self.burst(chosen);
        }
        if let Some(err) = self.policy.error() {
            return Err(err);
        }
        let stuck: Vec<String> =
            (0..n).filter(|&r| !self.st.done(r)).map(|r| self.stuck_line(r)).collect();
        if let Some(t) = self.tracer {
            t.flush();
        }
        Ok(RunOutput {
            trace: self.trace,
            stuck: (!stuck.is_empty()).then_some(stuck),
            steps: self.steps,
        })
    }
}

/// Run `program` to completion or deadlock under `policy`.
///
/// With a tracer attached, each rank also records flight-recorder events
/// on its own track (logical step counter as the clock), so a wedged run
/// can dump recent history via `Tracer::flight_report`.
///
/// With the analyzer's static [`IndependenceMap`], wildcard sites it
/// proves benign stop flagging races (empty persistent sets, non-racy rank
/// resumes) while their decisions are still recorded, so a pruned run's
/// decision log is byte-identical to the unpruned run making the same
/// choices.
pub fn run_model(
    program: &Program,
    policy: &dyn ModelPolicy,
    tracer: Option<&std::sync::Arc<Tracer>>,
    independence: Option<&IndependenceMap>,
) -> Result<RunOutput, String> {
    Model::new(program, policy, tracer, independence).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_analyze::{CollKind, CommId, WORLD};

    fn send(dst: usize, tag: u32) -> Op {
        Op::Send { comm: WORLD, dst, tag, bytes: 8 }
    }

    fn recv(src: usize, tag: u32) -> Op {
        Op::Recv { comm: WORLD, src: Src::Rank(src), tag: Tag::Is(tag) }
    }

    #[test]
    fn ping_pong_completes() {
        let mut p = Program::new("pp", 2);
        p.push(0, send(1, 0));
        p.push(0, recv(1, 0));
        p.push(1, recv(0, 0));
        p.push(1, send(0, 0));
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None, None).unwrap();
        assert!(!out.deadlocked(), "{:?}", out.stuck);
        assert_eq!(out.steps, 4);
    }

    #[test]
    fn crossed_recvs_deadlock_with_normalized_dump() {
        let mut p = Program::new("crossed", 2);
        p.push(0, recv(1, 0));
        p.push(0, send(1, 0));
        p.push(1, recv(0, 0));
        p.push(1, send(0, 0));
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None, None).unwrap();
        let stuck = out.stuck.expect("must wedge");
        assert_eq!(stuck.len(), 2);
        assert!(stuck[0].contains("rank 0 blocked at step 0: recv src=1"), "{stuck:?}");
    }

    #[test]
    fn barrier_and_rma_complete() {
        let mut p = Program::new("fence", 3);
        let w = p.add_window(WORLD);
        p.push(0, Op::Put { win: w, target: 2, offset: 0, bytes: 16 });
        for r in 0..3 {
            p.push(r, Op::Fence { win: w });
            p.push(r, Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None });
        }
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None, None).unwrap();
        assert!(!out.deadlocked(), "{:?}", out.stuck);
    }

    #[test]
    fn missing_collective_participant_wedges() {
        let mut p = Program::new("short", 2);
        p.push(0, Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None });
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None, None).unwrap();
        let stuck = out.stuck.expect("must wedge");
        assert!(stuck[0].contains("coll barrier comm=0 occ=0 (1/2 arrived)"), "{stuck:?}");
    }

    #[test]
    fn wildcard_decision_steers_the_match() {
        // Rank 1 sends tags 7 then 8; rank 0 wildcard-receives twice.
        let mut p = Program::new("steer", 2);
        p.push(1, send(0, 7));
        p.push(1, send(0, 8));
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
        let canonical = RecordingPolicy::canonical();
        let a = run_model(&p, &canonical, None, None).unwrap();
        // Steer every decision to its last alternative: the wildcard takes
        // tag 8 first.
        let steered = RecordingPolicy::scripted(vec![usize::MAX; 4]);
        let b = run_model(&p, &steered, None, None).unwrap();
        assert!(!a.deadlocked() && !b.deadlocked());
        let tag_of = |out: &RunOutput| {
            out.trace.iter().find(|l| l.contains("rank=0 recv")).map(|l| l.contains("tag=7"))
        };
        assert_eq!(tag_of(&a), Some(true), "{:?}", a.trace);
        assert_eq!(tag_of(&b), Some(false), "{:?}", b.trace);
        assert!(canonical.log().contains("w:0/2"), "{}", canonical.log());
    }

    #[test]
    fn same_decisions_are_byte_identical() {
        let mut p = Program::new("det", 3);
        for r in 1..3 {
            p.push(r, send(0, r as u32));
            p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
        }
        p.push(0, Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None });
        p.push(1, Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None });
        p.push(2, Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None });
        let rec = RecordingPolicy::random(vec![], 99);
        let a = run_model(&p, &rec, None, None).unwrap();
        let rep = ReplayPolicy::from_log(&rec.log()).unwrap();
        let b = run_model(&p, &rep, None, None).unwrap();
        assert_eq!(rep.divergence(), None);
        assert_eq!(a, b, "replayed run must be byte-identical");
    }

    #[test]
    fn subcommunicator_channels_are_scoped() {
        // Same (src, dst, tag) on two comms: the sub-comm recv must not
        // match the world send.
        let mut p = Program::new("scoped", 2);
        let sub: CommId = p.add_comm(vec![0, 1]);
        p.push(0, send(1, 0));
        p.push(0, Op::Send { comm: sub, dst: 1, tag: 0, bytes: 32 });
        p.push(1, Op::Recv { comm: sub, src: Src::Rank(0), tag: Tag::Is(0) });
        p.push(1, recv(0, 0));
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None, None).unwrap();
        assert!(!out.deadlocked(), "{:?}", out.stuck);
        let first_recv = out.trace.iter().find(|l| l.contains("rank=1 recv")).unwrap();
        assert!(first_recv.contains("comm=1 tag=0 bytes=32"), "{first_recv}");
    }
}
