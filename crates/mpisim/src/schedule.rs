//! Collective communication *schedules*.
//!
//! A schedule is the pure communication pattern of a collective — per rank,
//! an ordered list of sends (with byte counts) and receives — detached from
//! data movement.  The generators here do not imitate the live algorithms in
//! [`crate::collectives`]: both read the same per-rank steps from
//! `collectives::pattern`, the live algorithm walking its own rank's, the
//! generator collecting every rank's.  Schedules serve two purposes:
//!
//! * [`execute`] replays a schedule on the live runtime with synthetic
//!   payloads, so benchmarks can run paper-scale buffers (2·10⁸ ints)
//!   without allocating them while the PML hooks and the cost model see the
//!   real sizes;
//! * [`simulate`] computes the virtual completion times analytically, with
//!   the exact timing rules of the threaded runtime — tests cross-check the
//!   two paths against each other.

use std::collections::BinaryHeap;
#[cfg(test)]
use std::collections::{HashMap, VecDeque};

use mim_analyze::{CommPlan, Op, Program, Report, Src, Tag, Verdict, WORLD};
use mim_topology::Machine;
use mim_trace::{TraceData, Tracer};

use crate::collectives::pattern;
use crate::comm::Comm;
use crate::envelope::{Ctx, MsgKind, Payload};
use crate::runtime::{Rank, SrcSel, TagSel, RECV_OVERHEAD_NS, SEND_OVERHEAD_NS};

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Send `bytes` to communicator rank `peer`.
    Send { peer: usize, bytes: u64 },
    /// Receive the next message from communicator rank `peer`.
    Recv { peer: usize },
}

/// A complete collective pattern: `steps[r]` is rank `r`'s program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    steps: Vec<Vec<Step>>,
}

impl Schedule {
    /// Build from per-rank programs.
    pub fn new(steps: Vec<Vec<Step>>) -> Self {
        Self { steps }
    }

    /// Number of ranks.
    pub(crate) fn nranks(&self) -> usize {
        self.steps.len()
    }

    /// Program of one rank.
    pub fn rank_steps(&self, r: usize) -> &[Step] {
        &self.steps[r]
    }

    /// Every send as a (src, dst, bytes) triple, rank by rank in step order.
    fn sends(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.steps.iter().enumerate().flat_map(|(src, steps)| {
            steps.iter().filter_map(move |s| match *s {
                Step::Send { peer, bytes } => Some((src, peer, bytes)),
                Step::Recv { .. } => None,
            })
        })
    }

    /// Multiset of messages as (src, dst, bytes) triples, sorted — the
    /// ground truth the monitoring library must reproduce.
    pub fn message_multiset(&self) -> Vec<(usize, usize, u64)> {
        let mut msgs: Vec<_> = self.sends().collect();
        msgs.sort_unstable();
        msgs
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.sends().map(|(_, _, b)| b).sum()
    }

    /// Total number of messages.
    pub fn total_messages(&self) -> usize {
        self.sends().count()
    }

    /// Check the schedule is self-consistent: every send has a matching
    /// receive on the peer, in matching per-channel order, and the whole
    /// pattern can run to completion under the eager-send model.
    ///
    /// The analysis *replays* the schedule: sends are eager (never block),
    /// each receive consumes the head of its per-channel FIFO and blocks
    /// until one is available.  This rejects schedules the seed's
    /// count-comparison accepted — equal per-channel counts but crossed
    /// order (a circular wait), which deadlock any real execution — and
    /// flags sends that are never received.  The wait-for-graph replay
    /// itself lives in `mim-analyze` (this method keeps only the
    /// schedule-shaped `Result` wrapper; per-channel totals are
    /// [`Schedule::analyze`]'s `channels`); the pre-analyzer FIFO replay is
    /// retained as a `#[cfg(test)]` oracle with an equivalence property.
    ///
    /// # Errors
    /// Returns the full diagnostic list (one per line, each with its
    /// stable `MIM-Axxx` code) — not just the first failure.
    pub fn validate(&self) -> Result<(), String> {
        let report = self.analyze();
        let mut problems: Vec<String> =
            report.errors().map(std::string::ToString::to_string).collect();
        if problems.is_empty() && !matches!(report.verdict, Verdict::DeadlockFree) {
            // Schedules are wildcard-free, so anything below `DeadlockFree`
            // must have carried an error diagnostic already; this is a
            // belt-and-braces fallback.
            problems.push(format!("schedule verdict: {}", report.verdict.kind()));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }

    /// Full static-analysis report for this schedule: the deadlock-lattice
    /// verdict, *all* diagnostics, and per-channel traffic totals.  This is
    /// `mim-analyze` applied to the schedule's lowered [`Program`] — the
    /// single matcher behind [`Schedule::validate`], the `mim-analyze` CLI,
    /// and the CI analyzer gate.  Schedule lowering uses one comm and one
    /// tag, so `(src, dst)` identifies a channel 1:1.
    pub fn analyze(&self) -> Report {
        mim_analyze::analyze(self)
    }

    /// The seed's count-and-FIFO replay, retained verbatim as the
    /// equivalence oracle for the `mim-analyze` rebase: the
    /// `analyzer_matches_replay_reference` property compares the two on
    /// random valid and corrupted schedules.  On success, the per-channel
    /// `(src, dst, messages, bytes)` totals sorted by channel.  Not for
    /// production use.
    #[cfg(test)]
    pub(crate) fn validate_replay_reference(
        &self,
    ) -> Result<Vec<(usize, usize, u64, u64)>, String> {
        let n = self.nranks();
        for (r, steps) in self.steps.iter().enumerate() {
            for s in steps {
                let (Step::Send { peer, .. } | Step::Recv { peer }) = *s;
                if peer >= n {
                    let dir =
                        if matches!(s, Step::Send { .. }) { "sends to" } else { "receives from" };
                    return Err(format!("rank {r} {dir} out-of-range {peer}"));
                }
            }
        }
        let mut pc = vec![0usize; n];
        // In-flight (sent, not yet received) message count per (src, dst).
        let mut queued: HashMap<(usize, usize), u64> = HashMap::new();
        let mut totals: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
        // (src, dst) → the dst rank currently blocked on that channel.
        let mut blocked: HashMap<(usize, usize), usize> = HashMap::new();
        let mut remaining: usize = self.steps.iter().map(Vec::len).sum();
        let mut runnable: Vec<usize> = (0..n).rev().collect();
        while let Some(r) = runnable.pop() {
            while pc[r] < self.steps[r].len() {
                match self.steps[r][pc[r]] {
                    Step::Send { peer, bytes } => {
                        *queued.entry((r, peer)).or_default() += 1;
                        let t = totals.entry((r, peer)).or_default();
                        t.0 += 1;
                        t.1 += bytes;
                        if let Some(w) = blocked.remove(&(r, peer)) {
                            runnable.push(w);
                        }
                    }
                    Step::Recv { peer } => {
                        let pending = queued.entry((peer, r)).or_default();
                        if *pending == 0 {
                            blocked.insert((peer, r), r);
                            break;
                        }
                        *pending -= 1;
                    }
                }
                pc[r] += 1;
                remaining -= 1;
            }
        }
        if remaining > 0 {
            let mut stuck: Vec<_> = blocked.iter().map(|(&(src, dst), _)| (dst, src)).collect();
            stuck.sort_unstable();
            let (dst, src) = stuck[0];
            return Err(format!(
                "schedule deadlocks: rank {dst} waits for a message from rank {src} \
                 that is never sent in time ({remaining} steps unreached)"
            ));
        }
        if let Some((&(src, dst), &count)) =
            queued.iter().filter(|(_, &c)| c > 0).min_by_key(|(&k, _)| k)
        {
            return Err(format!("channel {src}→{dst} has {count} sends that are never received"));
        }
        let mut report: Vec<_> = totals
            .into_iter()
            .map(|((src, dst), (messages, bytes))| (src, dst, messages, bytes))
            .collect();
        report.sort_unstable();
        Ok(report)
    }
}

/// A [`Schedule`] *is* a communication plan: every step lowers to a
/// world-communicator point-to-point op with a single tag (schedule replay
/// uses one collective tag for the whole pattern, so per-peer FIFO order is
/// exactly the analyzer's per-channel FIFO).
impl CommPlan for Schedule {
    fn plan_name(&self) -> String {
        let steps: usize = self.steps.iter().map(Vec::len).sum();
        format!("schedule[{} ranks, {steps} steps]", self.nranks())
    }

    fn lower(&self) -> Program {
        let mut p = Program::new(self.plan_name(), self.nranks());
        for (r, steps) in self.steps.iter().enumerate() {
            for s in steps {
                p.push(
                    r,
                    match *s {
                        Step::Send { peer, bytes } => {
                            Op::Send { comm: WORLD, dst: peer, tag: 0, bytes }
                        }
                        Step::Recv { peer } => {
                            Op::Recv { comm: WORLD, src: Src::Rank(peer), tag: Tag::Is(0) }
                        }
                    },
                );
            }
        }
        p
    }
}

// ---------------------------------------------------------------------------
// Generators: every rank's steps of the pattern the live algorithm walks
// ---------------------------------------------------------------------------

/// Collect `steps_of(me)` for every rank of `n`.
fn every_rank<I: Iterator<Item = Step>>(n: usize, steps_of: impl Fn(usize) -> I) -> Schedule {
    Schedule::new((0..n).map(|me| steps_of(me).collect()).collect())
}

/// Binomial-tree broadcast pattern.
pub fn bcast_binomial(n: usize, root: usize, bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::bcast_binomial(me, n, root, bytes))
}

/// Binomial-tree reduce pattern (receives narrowest-child-first, as
/// [`crate::collectives::reduce_binomial`] does).
pub fn reduce_binomial(n: usize, root: usize, bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::reduce_binomial(me, n, root, bytes))
}

/// Binary-tree broadcast pattern.
pub fn bcast_binary(n: usize, root: usize, bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::bcast_binary(me, n, root, bytes))
}

/// Binary-tree reduce pattern (the paper's Fig 5a algorithm).
pub fn reduce_binary(n: usize, root: usize, bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::reduce_binary(me, n, root, bytes))
}

/// Ring allgather pattern with `block_bytes` per contribution.
pub fn allgather_ring(n: usize, block_bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::allgather_ring(me, n, block_bytes))
}

/// Bruck allgather pattern with `block_bytes` per contribution, that of
/// [`crate::collectives::allgather_bruck`]: ⌈log₂ n⌉ rounds, round `d`
/// shipping `min(d, n − d)` blocks to the rank `d` below.
pub fn allgather_bruck(n: usize, block_bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::allgather_bruck(me, n, block_bytes))
}

/// Dissemination barrier pattern (zero-byte messages).
pub fn barrier_dissemination(n: usize) -> Schedule {
    every_rank(n, |me| pattern::barrier(me, n))
}

/// Recursive-doubling allreduce pattern with non-power-of-two folding,
/// that of [`crate::collectives::allreduce_recursive_doubling`].
pub fn allreduce_recursive_doubling(n: usize, bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::allreduce_recursive_doubling(me, n, bytes))
}

/// Pairwise (ring-offset) all-to-all pattern with equal `chunk_bytes`
/// chunks: step `i` sends to the rank `i` above and receives from the rank
/// `i` below.  No live algorithm walks it; [`execute`] runs it on the wire.
pub fn alltoall_pairwise(n: usize, chunk_bytes: u64) -> Schedule {
    every_rank(n, |me| pattern::alltoall_pairwise(me, n, chunk_bytes))
}

/// Segmented (pipelined) binary-tree broadcast pattern: the payload is cut
/// into `ceil(bytes / seg_bytes)` segments, each forwarded down the binary
/// tree; interleaved so interior ranks forward segment `s` while `s+1` is
/// in flight.  No live algorithm walks it; [`execute`] runs it on the
/// wire.  Used to quantify how much pipelining narrows the reordering gap
/// in the Fig 5 discussion.
pub fn bcast_binary_segmented(n: usize, root: usize, bytes: u64, seg_bytes: u64) -> Schedule {
    assert!(seg_bytes > 0, "segment size must be positive");
    every_rank(n, |me| pattern::bcast_binary_segmented(me, n, root, bytes, seg_bytes))
}

// ---------------------------------------------------------------------------
// Execution & evaluation
// ---------------------------------------------------------------------------

/// Replay a schedule on the live runtime with synthetic payloads.
///
/// Collective over `comm`; every member must call it with the same schedule.
///
/// # Panics
/// Panics when the schedule's rank count differs from the communicator size.
pub fn execute(rank: &Rank, comm: &Comm, schedule: &Schedule) {
    assert_eq!(schedule.nranks(), comm.size(), "schedule/communicator size mismatch");
    let _span = rank.coll_span("schedule_execute", comm);
    let tag = rank.next_coll_tag(comm);
    for step in schedule.rank_steps(comm.rank()) {
        match *step {
            Step::Send { peer, bytes } => rank.wire_send(
                comm,
                peer,
                tag,
                Ctx::Coll,
                MsgKind::Collective,
                Payload::Synthetic(bytes),
            ),
            Step::Recv { peer } => {
                rank.wire_recv(comm, SrcSel::Rank(peer), TagSel::Is(tag), Ctx::Coll);
            }
        }
    }
}

/// [`simulate`] without contention, kept for the `mim-ledger` benchmark
/// (its `alltoall_plan` workload) alone: nothing else may call it.  The two
/// overheads must be the runtime's constants.
pub fn evaluate(s: &Schedule, m: &Machine, cores: &[usize], send: f64, recv: f64) -> Vec<f64> {
    assert!(send == SEND_OVERHEAD_NS && recv == RECV_OVERHEAD_NS, "overheads are constants");
    simulate(s, m, cores, false)
}

/// [`simulate`] with contention, kept for the `mim-ledger` benchmark alone,
/// like [`evaluate`].
pub fn evaluate_contended(
    s: &Schedule,
    m: &Machine,
    cores: &[usize],
    send: f64,
    recv: f64,
) -> Vec<f64> {
    assert!(send == SEND_OVERHEAD_NS && recv == RECV_OVERHEAD_NS, "overheads are constants");
    simulate(s, m, cores, true)
}

/// Ready-queue entry ordered as a *min*-heap on `(clock, rank)` — the same
/// "smallest clock, lowest rank breaks ties" rule as the seed's linear scan,
/// so shared-resource bookings happen in the identical order and results
/// stay bit-identical.
struct Ready(f64, usize);

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ready {}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest first.
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// A schedule's channels, indexed once per [`simulate`] call.  Steps are
/// numbered rank by rank (rank `r`'s step `i` is `first[r] + i`), and the
/// k-th receive from `src` at `dst` takes the k-th send from `src` to `dst`.
struct Wiring {
    /// Where each rank's steps start in the flat numbering.
    first: Vec<usize>,
    /// For a send, the step that receives it; `usize::MAX` for a send nobody
    /// receives and for every receive.
    recv_at: Vec<usize>,
}

impl Wiring {
    fn new(schedule: &Schedule) -> Self {
        let n = schedule.nranks();
        let mut first = Vec::with_capacity(n);
        let mut total = 0;
        // Bucket every send by its destination (a counting sort): each bucket
        // lists its sends by source, then in send order, so channel
        // (src, dst) is one contiguous run of bucket `dst`.
        let mut start = vec![0usize; n + 1];
        for steps in &schedule.steps {
            first.push(total);
            total += steps.len();
            for s in steps {
                if let Step::Send { peer, .. } = *s {
                    start[peer + 1] += 1;
                }
            }
        }
        for d in 0..n {
            start[d + 1] += start[d];
        }
        let mut bucketed = vec![(0usize, 0usize); start[n]];
        let mut fill = start.clone();
        for (src, steps) in schedule.steps.iter().enumerate() {
            for (i, s) in steps.iter().enumerate() {
                if let Step::Send { peer, .. } = *s {
                    bucketed[fill[peer]] = (src, first[src] + i);
                    fill[peer] += 1;
                }
            }
        }
        // Walk each destination's receives in step order, each taking the
        // next send of its channel's run: `next[src]` is the run's first
        // unmatched entry while `dst`'s bucket is open, and the run is used
        // up once that entry names another source.
        let mut recv_at = vec![usize::MAX; total];
        let mut next = vec![0usize; n];
        for (dst, steps) in schedule.steps.iter().enumerate() {
            let bucket = &bucketed[start[dst]..start[dst + 1]];
            for (i, &(src, _)) in bucket.iter().enumerate().rev() {
                next[src] = i;
            }
            for (i, s) in steps.iter().enumerate() {
                let Step::Recv { peer } = *s else { continue };
                if let Some(&(src, send)) = next.get(peer).and_then(|&k| bucket.get(k)) {
                    if src == peer {
                        recv_at[send] = first[dst] + i;
                        next[peer] += 1;
                    }
                }
            }
            for &(src, _) in bucket {
                next[src] = 0;
            }
        }
        Wiring { first, recv_at }
    }
}

/// Analytically compute per-rank completion times (ns) of a schedule, using
/// the exact timing rules of the threaded runtime: a send occupies the
/// sender for `SEND_OVERHEAD_NS + β·bytes` and the message lands `α` after
/// that; a receive waits for arrival then pays `RECV_OVERHEAD_NS`.
/// `rank_to_core[r]` gives the core hosting communicator rank `r`.
///
/// With `contention`, cross-node sends of one node serialize on its shared
/// link.  Events are processed in virtual-time order, so this is
/// deterministic — which is why the model lives here and not in the live
/// runtime (`Rank::wire_send` has no contention knob): there, link bookings
/// would happen in wall-clock order while the ranks' virtual clocks drift.
///
/// Each evaluator step is recorded as a `des` event on a dedicated track of
/// the `MIM_TRACE` global tracer.  The instrumentation only *observes* the
/// engine — it performs no float arithmetic of its own — so results stay
/// bit-identical to the untraced run and to the scan reference.
///
/// The discrete-event engine: repeatedly run the *ready* rank with the
/// smallest clock for one step, so shared-resource bookings happen in
/// virtual-time order.
///
/// The ready set is an indexed heap: ranks are keyed by their clock, and a
/// rank popped while its receive has no message yet is *parked* on that
/// channel and re-enqueued (at its own, unchanged clock) when a send lands
/// there.  Each of the E steps costs O(log n) instead of the seed's O(n)
/// ready-scan, taking the whole evaluation from O(E·n) to O(E log n) — the
/// difference between minutes and milliseconds at Table-1 / NP=256 scales
/// and beyond.
///
/// Channels are indexed once per call (`Wiring`): every send knows the
/// receive step that takes it, and writes its arrival time into that step's
/// slot, so a receive reads its arrival in its own step order and a step
/// costs no hashing.  A receiver parks on at most one peer, so
/// `waiting[dst] == Some(src)` is the whole parking record.
///
/// # Panics
/// Panics on a deadlocked (invalid) schedule.
pub fn simulate(
    schedule: &Schedule,
    machine: &Machine,
    rank_to_core: &[usize],
    contention: bool,
) -> Vec<f64> {
    let tracer = Tracer::global();
    let n = schedule.nranks();
    assert_eq!(rank_to_core.len(), n, "rank/core mapping size mismatch");
    let trace = tracer.as_ref().map(|t| t.track("des".to_string()));
    let Wiring { first, recv_at } = Wiring::new(schedule);
    let mut clock = vec![0.0f64; n];
    let mut pc = vec![0usize; n];
    // Per receive step, the arrival time of its message once sent.
    let mut arrivals: Vec<Option<f64>> = vec![None; recv_at.len()];
    let mut nic_free = vec![0.0f64; machine.num_nodes()];
    // The peer each parked receiver waits for (it holds no heap entry while
    // parked).
    let mut waiting: Vec<Option<usize>> = vec![None; n];
    let mut remaining = recv_at.len();
    let mut heap = BinaryHeap::with_capacity(n);
    for (r, steps) in schedule.steps.iter().enumerate() {
        if !steps.is_empty() {
            heap.push(Ready(clock[r], r));
        }
    }
    while remaining > 0 {
        let Some(Ready(_, r)) = heap.pop() else {
            let flight = match &tracer {
                Some(t) => format!("\nflight recorder:\n{}", t.flight_report(32)),
                None => String::new(),
            };
            panic!("schedule deadlocked during evaluation{flight}");
        };
        let g = first[r] + pc[r];
        match schedule.steps[r][pc[r]] {
            Step::Send { peer, bytes } => {
                let (src, dst) = (rank_to_core[r], rank_to_core[peer]);
                let link = machine.link_params(src, dst);
                let busy = link.beta_ns_per_byte * bytes as f64;
                clock[r] += SEND_OVERHEAD_NS;
                if contention && machine.crosses_network(src, dst) {
                    let node = machine.node_of_core(src);
                    let start = nic_free[node].max(clock[r]);
                    nic_free[node] = start + busy;
                    clock[r] = start + busy;
                } else {
                    clock[r] += busy;
                }
                // A send nobody receives stores nothing: no step would read it.
                if let Some(slot) = arrivals.get_mut(recv_at[g]) {
                    *slot = Some(clock[r] + link.alpha_ns);
                }
                if waiting[peer] == Some(r) {
                    waiting[peer] = None;
                    heap.push(Ready(clock[peer], peer));
                }
                if let Some(t) = &trace {
                    t.record(clock[r], TraceData::DesStep { rank: r, op: "send", peer, bytes });
                }
            }
            Step::Recv { peer } => {
                let Some(arrival) = arrivals[g] else {
                    waiting[r] = Some(peer);
                    if let Some(t) = &trace {
                        t.record(
                            clock[r],
                            TraceData::DesStep { rank: r, op: "park", peer, bytes: 0 },
                        );
                    }
                    continue;
                };
                clock[r] = clock[r].max(arrival) + RECV_OVERHEAD_NS;
                if let Some(t) = &trace {
                    t.record(clock[r], TraceData::DesStep { rank: r, op: "recv", peer, bytes: 0 });
                }
            }
        }
        pc[r] += 1;
        remaining -= 1;
        if pc[r] < schedule.steps[r].len() {
            heap.push(Ready(clock[r], r));
        }
    }
    if let Some(t) = &tracer {
        t.flush();
    }
    clock
}

/// The seed's O(E·n) ready-scan evaluator, retained verbatim (bar the
/// overheads, now the runtime's constants) as the equivalence oracle for
/// [`simulate`]: the `heap_evaluator_matches_scan_reference` property
/// compares against it.
#[cfg(test)]
pub(crate) fn evaluate_scan_reference(
    schedule: &Schedule,
    machine: &Machine,
    rank_to_core: &[usize],
    contention: bool,
) -> Vec<f64> {
    let n = schedule.nranks();
    assert_eq!(rank_to_core.len(), n, "rank/core mapping size mismatch");
    let mut clock = vec![0.0f64; n];
    let mut pc = vec![0usize; n];
    let mut channels: HashMap<(usize, usize), VecDeque<f64>> = HashMap::new();
    let mut nic_free = vec![0.0f64; machine.num_nodes()];
    let mut remaining: usize = (0..n).map(|r| schedule.steps[r].len()).sum();
    while remaining > 0 {
        // Pick the ready rank with the smallest clock.
        let mut next: Option<(f64, usize)> = None;
        for r in 0..n {
            if pc[r] == schedule.steps[r].len() {
                continue;
            }
            let ready = match schedule.steps[r][pc[r]] {
                Step::Send { .. } => true,
                Step::Recv { peer } => channels.get(&(peer, r)).is_some_and(|q| !q.is_empty()),
            };
            if ready && next.is_none_or(|(t, _)| clock[r] < t) {
                next = Some((clock[r], r));
            }
        }
        let Some((_, r)) = next else {
            panic!("schedule deadlocked during evaluation");
        };
        match schedule.steps[r][pc[r]] {
            Step::Send { peer, bytes } => {
                let (src, dst) = (rank_to_core[r], rank_to_core[peer]);
                let link = machine.link_params(src, dst);
                let busy = link.beta_ns_per_byte * bytes as f64;
                clock[r] += SEND_OVERHEAD_NS;
                if contention && machine.crosses_network(src, dst) {
                    let node = machine.node_of_core(src);
                    let start = nic_free[node].max(clock[r]);
                    nic_free[node] = start + busy;
                    clock[r] = start + busy;
                } else {
                    clock[r] += busy;
                }
                channels.entry((r, peer)).or_default().push_back(clock[r] + link.alpha_ns);
            }
            Step::Recv { peer } => {
                let arrival = channels
                    .get_mut(&(peer, r))
                    .and_then(VecDeque::pop_front)
                    .expect("readiness check guaranteed a message");
                clock[r] = clock[r].max(arrival) + RECV_OVERHEAD_NS;
            }
        }
        pc[r] += 1;
        remaining -= 1;
    }
    clock
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    use super::*;
    use mim_analyze::Code;
    use mim_topology::{Machine, Placement};
    use mim_util::prop::Gen;

    use crate::runtime::{Universe, UniverseConfig};

    const NS: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 12, 16];

    /// A random built-in generator schedule (all of them are valid).
    fn random_generator_schedule(g: &mut Gen, n: usize) -> Schedule {
        let root = g.index(n);
        let bytes = g.gen_range(1u64..10_000);
        match g.index(10) {
            0 => bcast_binomial(n, root, bytes),
            1 => bcast_binary(n, root, bytes),
            2 => reduce_binomial(n, root, bytes),
            3 => reduce_binary(n, root, bytes),
            4 => allgather_ring(n, bytes),
            5 => barrier_dissemination(n),
            6 => allreduce_recursive_doubling(n, bytes),
            7 => alltoall_pairwise(n, bytes),
            8 => allgather_bruck(n, bytes),
            _ => bcast_binary_segmented(n, root, bytes, (bytes / 3).max(1)),
        }
    }

    /// Apply one guaranteed-breaking corruption in place; returns its label.
    fn corrupt_schedule(g: &mut Gen, steps: &mut [Vec<Step>]) -> &'static str {
        let n = steps.len();
        let positions = |steps: &[Vec<Step>], want_send: bool| -> Vec<(usize, usize)> {
            let mut out = Vec::new();
            for (r, prog) in steps.iter().enumerate() {
                for (i, s) in prog.iter().enumerate() {
                    if matches!(s, Step::Send { .. }) == want_send {
                        out.push((r, i));
                    }
                }
            }
            out
        };
        loop {
            match g.index(4) {
                0 => {
                    let recvs = positions(steps, false);
                    if recvs.is_empty() {
                        continue;
                    }
                    let &(r, i) = g.choose(&recvs);
                    steps[r].remove(i);
                    return "dropped recv";
                }
                1 => {
                    let sends = positions(steps, true);
                    if sends.is_empty() {
                        continue;
                    }
                    let &(r, i) = g.choose(&sends);
                    steps[r].remove(i);
                    return "dropped send";
                }
                2 => {
                    let sends = positions(steps, true);
                    if sends.is_empty() || n < 2 {
                        continue;
                    }
                    let &(r, i) = g.choose(&sends);
                    let Step::Send { peer, .. } = &mut steps[r][i] else { unreachable!() };
                    *peer = (*peer + 1 + g.index(n - 1)) % n;
                    return "retargeted send";
                }
                _ => {
                    // Crossed-order injection: two ranks each wait for the
                    // other *before* their (appended) matching sends — a
                    // certain circular wait, whatever the base schedule.
                    if n < 2 {
                        continue;
                    }
                    let a = g.index(n);
                    let b = (a + 1 + g.index(n - 1)) % n;
                    steps[a].insert(0, Step::Recv { peer: b });
                    steps[b].insert(0, Step::Recv { peer: a });
                    steps[a].push(Step::Send { peer: b, bytes: 1 });
                    steps[b].push(Step::Send { peer: a, bytes: 1 });
                    return "crossed order";
                }
            }
        }
    }

    #[test]
    fn all_generators_validate() {
        for &n in NS {
            for root in [0, n / 2, n - 1] {
                bcast_binomial(n, root, 100).validate().unwrap();
                bcast_binary(n, root, 100).validate().unwrap();
                reduce_binomial(n, root, 100).validate().unwrap();
                reduce_binary(n, root, 100).validate().unwrap();
            }
            allgather_ring(n, 8).validate().unwrap();
            barrier_dissemination(n).validate().unwrap();
            allreduce_recursive_doubling(n, 64).validate().unwrap();
            alltoall_pairwise(n, 32).validate().unwrap();
            bcast_binary_segmented(n, 0, 1000, 100).validate().unwrap();
        }
    }

    #[test]
    fn generator_step_order_is_pinned() {
        // Golden FNV-1a digest of every generator's exact step order, n =
        // 1…33 and every root.  The value was taken from the ten hand-written
        // generators of PR 18 (5da4ddd), which `collectives::pattern`
        // replaced: message multisets and clocks are covered elsewhere, the
        // order of each rank's steps — what every wire message, trace event
        // and ledger digest follows from — only here.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        for n in 1..=33usize {
            let mut all = vec![
                allgather_ring(n, 24),
                allgather_bruck(n, 24),
                barrier_dissemination(n),
                allreduce_recursive_doubling(n, 1000),
                alltoall_pairwise(n, 40),
            ];
            for root in 0..n {
                all.push(bcast_binomial(n, root, 4096));
                all.push(reduce_binomial(n, root, 4096));
                all.push(bcast_binary(n, root, 4096));
                all.push(reduce_binary(n, root, 4096));
                all.push(bcast_binary_segmented(n, root, 1000, 300));
            }
            for s in &all {
                for r in 0..n {
                    fold(s.rank_steps(r).len() as u64);
                    for step in s.rank_steps(r) {
                        match *step {
                            Step::Send { peer, bytes } => [0, peer as u64, bytes].map(&mut fold),
                            Step::Recv { peer } => [1, peer as u64, 0].map(&mut fold),
                        };
                    }
                }
            }
        }
        assert_eq!(h, 0xe315_146e_c420_6519, "a generator's step order moved");
    }

    #[test]
    fn tree_message_counts() {
        // Any broadcast/reduce tree over n ranks moves exactly n-1 messages.
        for &n in NS {
            assert_eq!(bcast_binomial(n, 0, 10).total_messages(), n - 1);
            assert_eq!(bcast_binary(n, 2 % n, 10).total_messages(), n - 1);
            assert_eq!(reduce_binomial(n, 0, 10).total_messages(), n - 1);
            assert_eq!(reduce_binary(n, 0, 10).total_messages(), n - 1);
            assert_eq!(bcast_binomial(n, 0, 10).total_bytes(), 10 * (n as u64 - 1));
        }
    }

    #[test]
    fn ring_message_counts() {
        let s = allgather_ring(6, 100);
        assert_eq!(s.total_messages(), 6 * 5);
        assert_eq!(s.total_bytes(), 3000);
    }

    #[test]
    fn bruck_validates_and_counts() {
        // ⌈log₂ n⌉ messages per rank, the ring's n(n−1) block-bytes in total.
        for n in 1..=33usize {
            let s = allgather_bruck(n, 16);
            s.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            let rounds = n.next_power_of_two().trailing_zeros() as usize;
            assert_eq!(s.total_messages(), n * rounds, "n={n}");
            assert_eq!(s.total_bytes(), allgather_ring(n, 16).total_bytes(), "n={n}");
        }
    }

    #[test]
    fn alltoall_message_counts() {
        let s = alltoall_pairwise(5, 40);
        assert_eq!(s.total_messages(), 5 * 4);
        assert_eq!(s.total_bytes(), 800);
    }

    #[test]
    fn reduce_is_transposed_bcast() {
        // The reduce tree must be the bcast tree with arrows reversed.
        for &n in NS {
            let b: Vec<_> = bcast_binomial(n, 3 % n, 7)
                .message_multiset()
                .into_iter()
                .map(|(s, d, by)| (d, s, by))
                .collect();
            let mut b = b;
            b.sort_unstable();
            assert_eq!(b, reduce_binomial(n, 3 % n, 7).message_multiset());
        }
    }

    #[test]
    fn evaluator_matches_threaded_runtime() {
        // The analytic evaluator and the live execution must agree exactly.
        let machine = Machine::cluster(2, 2, 4);
        for schedule in [
            bcast_binomial(12, 0, 4096),
            bcast_binary(12, 7, 4096),
            reduce_binomial(12, 11, 1 << 16),
            reduce_binary(12, 5, 1 << 16),
            allgather_ring(12, 512),
            allgather_bruck(12, 512),
            allreduce_recursive_doubling(12, 1000),
            barrier_dissemination(12),
            alltoall_pairwise(12, 256),
            bcast_binary_segmented(12, 3, 10_000, 3000),
        ] {
            let placement = Placement::packed(12);
            let rank_to_core: Vec<usize> = (0..12).map(|r| placement.core_of(r)).collect();
            let cfg = UniverseConfig::new(machine.clone(), placement);
            let expect = simulate(&schedule, &machine, &rank_to_core, false);
            let u = Universe::new(cfg);
            let got = u.launch(|rank| {
                let world = rank.comm_world();
                execute(rank, &world, &schedule);
                rank.now_ns()
            });
            for r in 0..12 {
                assert!(
                    (got[r] - expect[r]).abs() < 1e-6,
                    "rank {r}: threaded {} vs analytic {}",
                    got[r],
                    expect[r]
                );
            }
        }
    }

    #[test]
    fn evaluator_prefers_local_placement() {
        // A bcast over 2 nodes is faster when the tree's heavy edges stay
        // inside a node — sanity for the whole reordering story.
        let machine = Machine::cluster(2, 1, 8);
        let sched = bcast_binomial(16, 0, 1 << 20);
        let packed: Vec<usize> = (0..16).collect();
        let scattered: Vec<usize> =
            (0..16).map(|r| if r % 2 == 0 { r / 2 } else { 8 + r / 2 }).collect();
        let makespan =
            |cores| simulate(&sched, &machine, cores, false).into_iter().fold(0.0, f64::max);
        let (t_packed, t_scattered) = (makespan(&packed), makespan(&scattered));
        assert!(t_packed < t_scattered, "packed {t_packed} should beat scattered {t_scattered}");
    }

    #[test]
    fn segmented_bcast_schedule_totals_and_pipelining() {
        let (n, bytes, seg) = (16usize, 4_000_000u64, 250_000u64);
        let s = bcast_binary_segmented(n, 0, bytes, seg);
        s.validate().unwrap();
        // Total volume: every edge of the tree carries the full payload.
        assert_eq!(s.total_bytes(), bytes * (n as u64 - 1));
        // Pipelining shortens the makespan vs one whole-buffer message on a
        // deep cross-node path.
        let machine = Machine::cluster(2, 1, 8);
        let cores: Vec<usize> = (0..n).map(|r| (r % 2) * 8 + r / 2).collect();
        let makespan = |s| simulate(s, &machine, &cores, false).into_iter().fold(0.0, f64::max);
        let chunked = makespan(&s);
        let whole = makespan(&bcast_binary_segmented(n, 0, bytes, bytes));
        assert!(chunked < whole, "pipelined {chunked} vs whole {whole}");
    }

    #[test]
    fn segmentation_widens_the_reordering_gap() {
        // Ablation for the Fig 5 discussion: one might expect pipelining to
        // soften the penalty of a bad mapping.  Under per-node NIC
        // contention the opposite holds — the min-cut mapping pipelines
        // around its single cross edge while the spread mapping stays
        // throughput-bound on the node with the most cross edges, so the
        // baseline/optimized ratio GROWS with segmentation.
        let (n, bytes) = (16usize, 8_000_000u64);
        let machine = Machine::cluster(2, 1, 8);
        let spread: Vec<usize> = (0..n).map(|r| (r % 2) * 8 + r / 2).collect();
        // Min-cut mapping for the 16-rank binary tree: the subtree rooted at
        // vrank 1 ({1,3,4,7,8,9,10,15}) on node 1, the rest on node 0 —
        // exactly one cross-node edge (0→1).
        let subtree1 = [1usize, 3, 4, 7, 8, 9, 10, 15];
        let mut packed = vec![0usize; n];
        let (mut n0, mut n1) = (0, 8);
        for (v, slot) in packed.iter_mut().enumerate() {
            if subtree1.contains(&v) {
                *slot = n1;
                n1 += 1;
            } else {
                *slot = n0;
                n0 += 1;
            }
        }
        let ratio = |seg: u64| {
            let s = bcast_binary_segmented(n, 0, bytes, seg);
            let base = simulate(&s, &machine, &spread, true).into_iter().fold(0.0f64, f64::max);
            let opt = simulate(&s, &machine, &packed, true).into_iter().fold(0.0f64, f64::max);
            base / opt
        };
        let gap_whole = ratio(bytes);
        let gap_seg = ratio(bytes / 64);
        assert!(
            gap_seg > gap_whole,
            "segmentation should widen the gap under contention: {gap_seg} vs {gap_whole}"
        );
        assert!(gap_whole > 1.0, "placement matters before segmentation too");
    }

    #[test]
    fn design_ablation_makespans_are_pinned() {
        // DESIGN §4's two orderings on the Fig 5 instance: the binary tree
        // beats the binomial one for an 8 MB broadcast, and Bruck beats the
        // ring for a latency-bound allgather.  Virtual times, the same on
        // every host, pinned to the printed 10 µs.
        let machine = Machine::plafrim(4);
        let np = 96;
        let placement = Placement::cyclic_by_level(&machine.tree, np, machine.node_level);
        let cores: Vec<usize> = (0..np).map(|r| placement.core_of(r)).collect();
        let bytes = 8_000_000;
        let pinned = [
            ("bcast_binary", bcast_binary(np, 0, bytes), "16.01"),
            ("bcast_binomial", bcast_binomial(np, 0, bytes), "31.72"),
            ("allgather_bruck", allgather_bruck(np, bytes / np as u64), "0.81"),
            ("allgather_ring", allgather_ring(np, bytes / np as u64), "15.20"),
        ];
        for (name, sched, ms) in pinned {
            let t = simulate(&sched, &machine, &cores, true).into_iter().fold(0.0f64, f64::max);
            assert_eq!(format!("{:.2}", t / 1e6), ms, "{name}: analytic makespan (ms) moved");
        }
    }

    #[test]
    fn invalid_schedule_detected() {
        let s = Schedule::new(vec![vec![Step::Send { peer: 1, bytes: 4 }], vec![]]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn crossed_order_rejected_despite_equal_counts() {
        // Each rank first waits for the other's send: per-channel counts
        // match exactly (one send and one receive on 0→1 and on 1→0), so the
        // seed's count comparison accepted it — yet every real execution
        // deadlocks.  The replaying validator must reject it.
        let s = Schedule::new(vec![
            vec![Step::Recv { peer: 1 }, Step::Send { peer: 1, bytes: 4 }],
            vec![Step::Recv { peer: 0 }, Step::Send { peer: 0, bytes: 4 }],
        ]);
        let err = s.validate().unwrap_err();
        assert!(err.contains("deadlock"), "wrong rejection: {err}");
        // The untangled version (send first) is fine.
        let ok = Schedule::new(vec![
            vec![Step::Send { peer: 1, bytes: 4 }, Step::Recv { peer: 1 }],
            vec![Step::Send { peer: 0, bytes: 4 }, Step::Recv { peer: 0 }],
        ]);
        ok.validate().unwrap();
    }

    #[test]
    fn validate_reports_per_channel_bytes() {
        let s = allgather_ring(3, 128);
        s.validate().unwrap();
        let totals = s.analyze().channels;
        // Each rank sends n-1 = 2 blocks to its right neighbour.
        assert_eq!(totals.len(), 3);
        for t in &totals {
            assert_eq!(t.dst, (t.src + 1) % 3);
            assert_eq!(t.messages, 2);
            assert_eq!(t.bytes, 256);
        }
        let oracle: Vec<_> = totals.iter().map(|c| (c.src, c.dst, c.messages, c.bytes)).collect();
        assert_eq!(s.validate_replay_reference(), Ok(oracle));
        let unreceived = Schedule::new(vec![
            vec![Step::Send { peer: 1, bytes: 4 }, Step::Send { peer: 1, bytes: 4 }],
            vec![Step::Recv { peer: 0 }],
        ]);
        let err = unreceived.validate().unwrap_err();
        assert!(err.contains("never received"), "wrong rejection: {err}");
    }

    mim_util::props! {
        /// The heap-based evaluator must be *bit-identical* to the seed's
        /// O(E·n) ready-scan on random valid schedules, for both contention
        /// modes — same event order, same floating-point operations.
        fn heap_evaluator_matches_scan_reference(g) {
            let n = g.gen_range(2usize..24);
            let root = g.index(n);
            let bytes = g.gen_range(0u64..2_000_000);
            let machine = Machine::cluster(2, 2, 8);
            let cores: Vec<usize> = {
                let mut p = g.permutation(32);
                p.truncate(n);
                p
            };
            let schedules = [
                bcast_binomial(n, root, bytes),
                reduce_binary(n, root, bytes),
                allgather_ring(n, bytes),
                allreduce_recursive_doubling(n, bytes),
                barrier_dissemination(n),
                alltoall_pairwise(n, bytes.min(4096)),
                bcast_binary_segmented(n, root, bytes.max(1), (bytes / 7).max(1)),
            ];
            for s in schedules {
                for contention in [false, true] {
                    let scan = evaluate_scan_reference(&s, &machine, &cores, contention);
                    let heap = simulate(&s, &machine, &cores, contention);
                    assert_eq!(scan, heap, "divergence (contention={contention})");
                    // The ledger-only shims forward to the same engine.
                    let shim = if contention { evaluate_contended } else { evaluate };
                    let shimmed = shim(&s, &machine, &cores, 100.0, 50.0);
                    assert_eq!(shimmed, heap, "shim divergence (contention={contention})");
                }
            }
        }
    }

    /// Rank-by-rank concatenation of two schedules' steps: every channel the
    /// two share carries several messages, in FIFO order.
    fn concatenated(a: &Schedule, b: &Schedule) -> Schedule {
        Schedule::new(
            (0..a.nranks()).map(|r| [a.rank_steps(r), b.rank_steps(r)].concat()).collect(),
        )
    }

    mim_util::props! {
        /// The channel index must not change a clock, whatever traffic a
        /// schedule carries beyond the generators' one-message channels: a
        /// trailing send nobody receives, several messages per channel, a
        /// rank sending to itself.
        fn indexed_evaluator_matches_scan_reference_on_extra_traffic(g) {
            let n = g.gen_range(2usize..16);
            let machine = Machine::cluster(2, 2, 4);
            let cores: Vec<usize> = {
                let mut p = g.permutation(16);
                p.truncate(n);
                p
            };
            let base = random_generator_schedule(g, n);
            let other = random_generator_schedule(g, n);
            let bytes = g.gen_range(1u64..100_000);
            let mut steps: Vec<Vec<Step>> = (0..n).map(|r| base.rank_steps(r).to_vec()).collect();
            let (lost, me) = (g.index(n), g.index(n));
            steps[lost].push(Step::Send { peer: g.index(n), bytes });
            steps[me].insert(0, Step::Recv { peer: me });
            steps[me].insert(0, Step::Send { peer: me, bytes });
            let root = g.index(n);
            for s in [
                Schedule::new(steps),
                bcast_binary_segmented(n, root, bytes, (bytes / 5).max(1)),
                concatenated(&base, &other),
            ] {
                for contention in [false, true] {
                    let scan = evaluate_scan_reference(&s, &machine, &cores, contention);
                    let indexed = simulate(&s, &machine, &cores, contention);
                    assert_eq!(scan, indexed, "divergence (contention={contention})");
                }
            }
        }

        /// `total_messages` / `total_bytes` count sends directly; on every
        /// generator they must still be the multiset's length and byte sum.
        fn totals_equal_the_message_multiset(g) {
            let n = g.gen_range(1usize..24);
            let root = g.index(n);
            let bytes = g.gen_range(1u64..10_000);
            for s in [
                bcast_binomial(n, root, bytes),
                bcast_binary(n, root, bytes),
                reduce_binomial(n, root, bytes),
                reduce_binary(n, root, bytes),
                allgather_ring(n, bytes),
                allgather_bruck(n, bytes),
                barrier_dissemination(n),
                allreduce_recursive_doubling(n, bytes),
                alltoall_pairwise(n, bytes),
                bcast_binary_segmented(n, root, bytes, (bytes / 3).max(1)),
            ] {
                let msgs = s.message_multiset();
                assert_eq!(s.total_messages(), msgs.len());
                assert_eq!(s.total_bytes(), msgs.iter().map(|&(_, _, b)| b).sum::<u64>());
            }
        }
    }

    #[test]
    fn indexed_evaluator_panics_on_deadlock() {
        let crossed_order = Schedule::new(vec![
            vec![Step::Recv { peer: 1 }, Step::Send { peer: 1, bytes: 4 }],
            vec![Step::Recv { peer: 0 }, Step::Send { peer: 0, bytes: 4 }],
            vec![],
        ]);
        // Rank 2 waits for silent rank 1; rank 0's message, sent first, is
        // on another channel and must not satisfy it.
        let silent_peer = Schedule::new(vec![
            vec![Step::Send { peer: 2, bytes: 4 }],
            vec![],
            vec![Step::Recv { peer: 1 }],
        ]);
        for s in [crossed_order, silent_peer] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                simulate(&s, &Machine::cluster(1, 1, 3), &[0, 1, 2], true)
            }))
            .expect_err("a deadlocked schedule must not evaluate");
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.starts_with("schedule deadlocked during evaluation"), "{msg}");
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn evaluator_detects_deadlock() {
        let s = Schedule::new(vec![vec![Step::Recv { peer: 1 }], vec![Step::Recv { peer: 0 }]]);
        let machine = Machine::cluster(1, 1, 2);
        simulate(&s, &machine, &[0, 1], false);
    }

    #[test]
    fn all_generators_deadlock_free_at_acceptance_sizes() {
        // ISSUE 4 acceptance: every built-in generator is `DeadlockFree`
        // (and diagnostic-clean) at the CI gate's shapes.
        for n in [2usize, 5, 48, 192] {
            let root = (n - 1) / 2;
            let shapes = [
                bcast_binomial(n, root, 4096),
                bcast_binary(n, root, 4096),
                reduce_binomial(n, root, 4096),
                reduce_binary(n, root, 4096),
                allgather_ring(n, 512),
                barrier_dissemination(n),
                allreduce_recursive_doubling(n, 1000),
                alltoall_pairwise(n, 64),
                bcast_binary_segmented(n, root, 4096, 512),
            ];
            for s in shapes {
                let report = s.analyze();
                assert!(
                    matches!(report.verdict, Verdict::DeadlockFree),
                    "{}: verdict {} at n={n}",
                    report.plan,
                    report.verdict.kind()
                );
                assert!(report.is_clean(), "{}: {report}", report.plan);
            }
        }
    }

    #[test]
    fn crossed_order_cycle_names_both_ranks() {
        // The analyzer must report the *actual* circular wait, rank by rank,
        // not merely "deadlocked".
        let s = Schedule::new(vec![
            vec![Step::Recv { peer: 1 }, Step::Send { peer: 1, bytes: 4 }],
            vec![Step::Recv { peer: 0 }, Step::Send { peer: 0, bytes: 4 }],
        ]);
        let report = s.analyze();
        let Verdict::DefiniteDeadlock { ref cycle } = report.verdict else {
            panic!("expected a definite deadlock, got {}", report.verdict.kind());
        };
        assert_eq!(cycle.len(), 2);
        let mut ranks: Vec<usize> = cycle.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1]);
        for edge in cycle {
            assert_eq!(edge.step, 0, "both ranks block on their first step");
            assert_eq!(edge.waits_for, 1 - edge.rank);
        }
        assert!(report.diags.iter().any(|d| d.code == Code::A002), "missing A002: {report}");
    }

    mim_util::props! {
        /// The analyzer-backed `validate` and `analyze().channels` must agree
        /// with the seed's FIFO replay on random valid *and* corrupted schedules: same
        /// accept/reject decision, identical per-channel totals on accept.
        fn analyzer_matches_replay_reference(g) {
            let n = g.gen_range(2usize..16);
            let mut s = random_generator_schedule(g, n);
            let corrupted = if g.any_bool() {
                let mut steps: Vec<Vec<Step>> =
                    (0..n).map(|r| s.rank_steps(r).to_vec()).collect();
                let label = corrupt_schedule(g, &mut steps);
                s = Schedule::new(steps);
                Some(label)
            } else {
                None
            };
            let got = s.validate().map(|()| {
                s.analyze().channels.iter().map(|c| (c.src, c.dst, c.messages, c.bytes)).collect::<Vec<_>>()
            });
            let oracle = s.validate_replay_reference();
            match (got, oracle) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "totals diverge ({corrupted:?})"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "verdict diverges ({corrupted:?}): analyzer {a:?} vs replay {b:?}"
                ),
            }
        }

        /// Every corruption kind (dropped recv/send, retargeted send,
        /// crossed-order injection) must be flagged; the pristine schedule
        /// must stay clean.  Cross-validates verdicts against the DES
        /// evaluator: `DeadlockFree` ⇒ `simulate` completes, and a definite
        /// deadlock ⇒ `simulate` panics.
        fn corrupted_schedules_are_flagged_and_cross_validate(g, cases = 48) {
            let n = g.gen_range(2usize..12);
            let clean = random_generator_schedule(g, n);
            assert!(clean.analyze().is_clean(), "pristine schedule flagged");

            let mut steps: Vec<Vec<Step>> =
                (0..n).map(|r| clean.rank_steps(r).to_vec()).collect();
            let label = corrupt_schedule(g, &mut steps);
            let bad = Schedule::new(steps);
            let report = bad.analyze();
            assert!(!report.is_clean(), "{label} not flagged: {report}");

            let machine = Machine::cluster(1, 1, 16);
            let cores: Vec<usize> = (0..n).collect();
            for (s, verdict) in [(&clean, clean.analyze().verdict), (&bad, report.verdict)] {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    simulate(s, &machine, &cores, false)
                }));
                match verdict {
                    Verdict::DeadlockFree => {
                        assert!(run.is_ok(), "{label}: DeadlockFree plan failed to evaluate");
                    }
                    Verdict::DefiniteDeadlock { .. } => {
                        assert!(run.is_err(), "{label}: DefiniteDeadlock plan evaluated fine");
                    }
                    v => panic!("{label}: unexpected verdict {} for a schedule", v.kind()),
                }
            }
        }
    }

    #[test]
    fn definite_deadlock_reproduces_live_deadline_panic() {
        // ISSUE 4 acceptance: a `DefiniteDeadlock` verdict must reproduce as
        // a deadline panic in the live threaded runtime.  The deadline is
        // set on the config directly — the `MIM_DEADLINE_MS` override uses
        // the same field, but mutating the process environment would race
        // with other tests.
        let s = Schedule::new(vec![
            vec![Step::Recv { peer: 1 }, Step::Send { peer: 1, bytes: 4 }],
            vec![Step::Recv { peer: 0 }, Step::Send { peer: 0, bytes: 4 }],
        ]);
        assert!(matches!(s.analyze().verdict, Verdict::DefiniteDeadlock { .. }));
        let machine = Machine::cluster(1, 1, 2);
        let mut cfg = UniverseConfig::new(machine, Placement::packed(2));
        cfg.deadline = Duration::from_millis(250);
        let u = Universe::new(cfg);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            u.launch(|rank| {
                let world = rank.comm_world();
                execute(rank, &world, &s);
            });
        }))
        .expect_err("the live runtime must trip its deadlock deadline");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| (*m).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("deadlock"), "unexpected panic payload: {msg}");
    }
}
