//! The fault protocol, rank side: the wire-op prologue that fires a plan's
//! crash point, the sender-simulated retry/backoff a drop plan costs, death
//! notices and control sends, the one failure-aware wait, and the liveness
//! exchange.  The injector seam, the failure taxonomy and the protocol's
//! constants (`backoff_ns`, `RETRY_MAX_ATTEMPTS`, the reserved tags) live
//! in [`crate::fault`]; everything here stays a single branch-on-`Option`
//! away from the fault-free wire path.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use mim_trace::TraceData;
use mim_util::hash::IdMap;

use super::wire::{pattern, typed};
use super::{Rank, SrcSel, Status, SEND_OVERHEAD_NS};
use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::{Ctx, Envelope, MsgKind, Payload};
use crate::fault::{self, CrashPoint, FaultInjector, LinkCtx, PeerFailure, SendOutcome};
use crate::mailbox::{self, MatchPattern, TagSel};

/// The fault-only state of a [`Rank`]: all of it idle (and `ops` stuck at
/// 0) unless the universe carries an injector.
#[derive(Default)]
pub(super) struct FaultState {
    /// The installed fault injector, cloned out of the config for
    /// branch-cheap access on the wire paths.
    injector: Option<Arc<dyn FaultInjector>>,
    /// Wire operations completed (sends + receives), the op-count frame of
    /// [`CrashPoint::OpCount`].  Only advanced when an injector is present.
    ops: Cell<u64>,
    /// Retransmissions this rank issued (drop faults recovered by backoff).
    retries: Cell<u64>,
    /// Next wire sequence per destination world rank (duplicate dedup).
    link_op: RefCell<IdMap<usize, u64>>,
    /// Peers whose death notices this rank has consumed: world rank → the
    /// virtual time of death carried by the notice (`Rank::await_rejoin`
    /// forgets a reborn peer's).
    pub(super) failed_peers: RefCell<IdMap<usize, f64>>,
}

impl FaultState {
    pub(super) fn new(injector: Option<Arc<dyn FaultInjector>>) -> Self {
        Self { injector, ..Self::default() }
    }
}

/// What the fault plan made of one logical send: the (possibly degraded)
/// link speed, arrival jitter, extra copies and the dedup sequence number.
/// Without an injector it is the caller's β and nothing else.
pub(super) struct SendPlan {
    pub(super) beta: f64,
    pub(super) extra_delay: f64,
    pub(super) duplicates: u32,
    pub(super) wire_seq: Option<u64>,
}

/// The one fault-protocol receive pattern: control notices travel on the
/// reserved communicator and context, and every receiver names the notice
/// it waits for by tag — a wildcard tag would consume a queued notice of
/// another kind as if it were the awaited one.
pub(super) fn fault_pat(src: mailbox::SrcSel, tag: u32) -> MatchPattern {
    MatchPattern { comm_id: fault::FAULT_COMM, ctx: Ctx::Fault, src, tag: TagSel::Is(tag) }
}

impl Rank {
    // ----- fault machinery ---------------------------------------------------

    /// Wire-operation prologue: fire the plan's due joins (sponsor only)
    /// and its crash point, else count the op.  A no-op (ops stay 0)
    /// without an injector.  Both churn triggers are gated on
    /// `incarnation == 0`: a reborn body must not re-fire the crash that
    /// killed its predecessor, and the join schedule fires once per run.
    pub(super) fn pre_op(&self) {
        let Some(inj) = &self.fault.injector else { return };
        if self.incarnation() == 0 {
            if self.world_rank == 0 {
                self.fire_due_joins(self.fault.ops.get());
            }
            if let Some(cp) = inj.crash_point(self.world_rank) {
                let due = match cp {
                    CrashPoint::OpCount(n) => self.fault.ops.get() >= n,
                    CrashPoint::VirtualTimeNs(t) => self.clock.now_ns() >= t,
                };
                if due {
                    self.crash_now();
                }
            }
        }
        self.fault.ops.set(self.fault.ops.get() + 1);
    }

    /// Put one logical send before the fault plan, ahead of the cost model
    /// (called by `wire_send`): the wire-op prologue, the link's bandwidth
    /// scale, the message's dedup sequence and the retry loop.  Returns at
    /// once, with `beta` untouched, when no injector is installed.
    #[inline]
    pub(super) fn judge_send(&self, dst_world: usize, bytes: u64, beta: f64) -> SendPlan {
        let mut plan = SendPlan { beta, extra_delay: 0.0, duplicates: 0, wire_seq: None };
        let Some(inj) = &self.fault.injector else { return plan };
        self.pre_op();
        let scale = inj.link_bandwidth_scale(self.world_rank, dst_world);
        if scale != 1.0 {
            plan.beta /= scale;
        }
        let op_index = {
            let mut link_op = self.fault.link_op.borrow_mut();
            let next = link_op.entry(dst_world).or_insert(0);
            let i = *next;
            *next += 1;
            i
        };
        plan.wire_seq = Some(op_index);
        let lctx = LinkCtx { src_world: self.world_rank, dst_world, op_index, bytes };
        // Sender-simulated ack/retry: a dropped attempt occupies the
        // link for a full transmission, then the retransmit timer fires
        // after a capped-exponential backoff.  After RETRY_MAX_ATTEMPTS
        // the message is force-delivered — a plan can degrade a link
        // but never sever it (only a crash removes a rank).
        let mut attempt = 0u32;
        loop {
            match inj.on_attempt(&lctx, attempt) {
                SendOutcome::Deliver { extra_delay_ns, duplicates: d } => {
                    plan.extra_delay = extra_delay_ns;
                    plan.duplicates = d;
                    break;
                }
                SendOutcome::Drop => {
                    if attempt + 1 >= fault::RETRY_MAX_ATTEMPTS {
                        break;
                    }
                    let backoff = fault::backoff_ns(attempt);
                    self.clock.tick(SEND_OVERHEAD_NS + plan.beta * bytes as f64 + backoff);
                    self.fault.retries.set(self.fault.retries.get() + 1);
                    self.shared.nic.count_retry(self.core);
                    if let Some(t) = &self.trace {
                        t.record(
                            self.clock.now_ns(),
                            TraceData::Retry {
                                dst: dst_world,
                                attempt,
                                backoff_ns: backoff as u64,
                            },
                        );
                    }
                    attempt += 1;
                }
            }
        }
        plan
    }

    /// Kill this rank: broadcast death notices so peers blocked in
    /// [`Rank::recv_or_failure`] get a deterministic failure signal
    /// (per-sender FIFO guarantees data sent before the crash is still
    /// consumed first), and unwind with a typed payload.  The per-slot
    /// driver catches it: under `launch_faulty` it restarts the slot when
    /// the plan says so, else the slot yields [`RankFailure::Crashed`];
    /// the strict `launch` reports it as a hard error.  `resume_unwind`
    /// skips the panic hook, so a scheduled crash is silent on stderr.
    ///
    /// [`RankFailure::Crashed`]: crate::fault::RankFailure::Crashed
    fn crash_now(&self) -> ! {
        let now = self.clock.now_ns();
        let ops = self.fault.ops.get();
        if let Some(t) = &self.trace {
            t.record(now, TraceData::RankCrash { ops });
        }
        for dst in 0..self.capacity() {
            if dst == self.world_rank {
                continue;
            }
            self.post_notice(dst, fault::FAULT_TAG_DEATH, Payload::Synthetic(0), (now, now));
        }
        std::panic::resume_unwind(Box::new(fault::RankCrashed {
            world: self.world_rank,
            at_ns: now,
            ops,
        }));
    }

    /// Send a fault-protocol control message (no PML hooks, no tracing, no
    /// injection — the failure detector must stay deterministic under the
    /// very plan it observes).  Pings and retirements are empty; join and
    /// admission notices carry data: an incarnation, a serialized
    /// communicator.
    pub(super) fn fault_send(&self, dst_world: usize, tag: u32, payload: Payload) {
        self.clock.tick(SEND_OVERHEAD_NS);
        let now = self.clock.now_ns();
        let dst_core = self.shared.core_of(dst_world);
        let alpha = self.shared.cfg.machine.link_params(self.core, dst_core).alpha_ns;
        self.post_notice(dst_world, tag, payload, (now, now + alpha));
    }

    /// Post one fault-protocol notice: reserved communicator and context,
    /// addressed to the slot (incarnation 0) and never sequenced.  A gone
    /// mailbox is not an error — the peer is dead or done.
    fn post_notice(&self, dst_world: usize, tag: u32, payload: Payload, timing: (f64, f64)) {
        let env = self.envelope(
            (dst_world, 0),
            (fault::FAULT_COMM, Ctx::Fault, tag),
            MsgKind::P2pUser,
            payload,
            timing,
            None,
        );
        let _ = self.shared.post(dst_world, env);
    }

    /// Wait for one liveness verdict from a specific peer: its ping, or its
    /// death notice — the ping-or-death projection of
    /// [`Rank::wait_data_or_death`].  Control traffic pays no receive
    /// overhead and leaves no trace event.
    fn fault_recv(&self, src_world: usize) -> Result<(), PeerFailure> {
        let ping = fault_pat(mailbox::SrcSel::World(src_world), fault::FAULT_TAG_PING);
        let (env, _) = self.wait_data_or_death(&ping, src_world)?;
        self.clock.advance_to(env.arrival_ns);
        Ok(())
    }

    // ----- recoverable point-to-point ----------------------------------------

    /// Blocking receive from a specific peer that degrades into an error
    /// when the peer crashed: waits for the data *or* the peer's death
    /// notice, whichever the per-sender FIFO delivers first.  Data the
    /// peer sent before dying is always consumed before its death notice,
    /// so nothing already on the wire is lost.
    ///
    /// # Panics
    /// Panics (deadlock detector) when neither data nor a death notice
    /// arrives within the configured deadline.
    pub fn recv_or_failure<T: Scalar>(
        &self,
        comm: &Comm,
        src: usize,
        tag: u32,
    ) -> Result<(Vec<T>, Status), PeerFailure> {
        self.recv_or_death(comm, src, tag, Ctx::Pt2pt).map(|env| typed(comm, env))
    }

    /// The envelope-level receive under [`Rank::recv_or_failure`] (`Pt2pt`)
    /// and the failure-aware tree gather (`Coll`): the wire-op prologue; a
    /// peer already known dead can only have pre-crash data left in the
    /// queue, so finding none is the failure; otherwise the data-or-death
    /// wait; then the usual receive epilogue.
    pub(crate) fn recv_or_death(
        &self,
        comm: &Comm,
        src: usize,
        tag: u32,
        ctx: Ctx,
    ) -> Result<Envelope, PeerFailure> {
        self.pre_op();
        let src_world = comm.world_rank_of(src);
        let data = pattern(comm, SrcSel::Rank(src), TagSel::Is(tag), ctx);
        let known_dead = self.fault.failed_peers.borrow().get(&src_world).copied();
        if let Some(at_ns) = known_dead {
            if !self.mailbox.borrow_mut().iprobe(&data) {
                return Err(PeerFailure { world: src_world, at_ns });
            }
            // Leftover pre-crash data is queued: the wait returns at once.
        }
        let (env, depth) = self.wait_data_or_death(&data, src_world)?;
        Ok(self.finish_recv(env, depth))
    }

    /// The one failure-aware wait: block until `data` arrives from
    /// `src_world` or that peer's death notice does.  A death notice from a
    /// superseded incarnation is stale — the peer has since been reborn
    /// (this rank learned the newer incarnation from a join or admission
    /// notice) — and is swallowed; a current one is remembered, advances
    /// the clock to its arrival and becomes the error.  Data is returned
    /// with the unexpected-queue depth, the clock untouched.
    ///
    /// # Panics
    /// Panics (deadlock detector) when neither arrives within the deadline.
    fn wait_data_or_death(
        &self,
        data: &MatchPattern,
        src_world: usize,
    ) -> Result<(Envelope, usize), PeerFailure> {
        let death = fault_pat(mailbox::SrcSel::World(src_world), fault::FAULT_TAG_DEATH);
        loop {
            let (env, which, depth) = {
                let mut mb = self.mailbox.borrow_mut();
                match mb.recv_first(&[data, &death]) {
                    Ok((env, which)) => (env, which, mb.unexpected_len()),
                    Err(e) => panic!(
                        "neither data nor a death notice from world rank {src_world} ({e:?}) \
                         while waiting for {data:?}"
                    ),
                }
            };
            if which == 0 {
                return Ok((env, depth));
            }
            if env.src_inc < self.peer_incarnation_of(src_world) {
                continue;
            }
            self.fault.failed_peers.borrow_mut().insert(src_world, env.sent_at_ns);
            self.clock.advance_to(env.arrival_ns);
            return Err(PeerFailure { world: src_world, at_ns: env.sent_at_ns });
        }
    }

    /// Collective liveness check: every live member of `comm` pings every
    /// peer it still believes alive, then collects one verdict per pinged
    /// peer — its ping, or its death notice.  Returns the liveness bitmap
    /// indexed by *communicator* rank.  Must be called collectively by all
    /// surviving members (crashed members are excused: their broadcast
    /// death notices stand in for their pings).
    pub fn liveness_exchange(&self, comm: &Comm) -> Vec<bool> {
        self.pre_op();
        let n = comm.size();
        let me = comm.rank();
        let mut alive = vec![true; n];
        {
            let failed = self.fault.failed_peers.borrow();
            for (r, a) in alive.iter_mut().enumerate() {
                if r != me && failed.contains_key(&comm.world_rank_of(r)) {
                    *a = false;
                }
            }
        }
        for (r, &a) in alive.iter().enumerate() {
            if r != me && a {
                self.fault_send(
                    comm.world_rank_of(r),
                    fault::FAULT_TAG_PING,
                    Payload::Synthetic(0),
                );
            }
        }
        for (r, a) in alive.iter_mut().enumerate() {
            if r == me || !*a {
                continue;
            }
            *a = self.fault_recv(comm.world_rank_of(r)).is_ok();
        }
        alive
    }

    /// Retransmissions this rank issued (0 without an injector).
    pub fn retry_count(&self) -> u64 {
        self.fault.retries.get()
    }

    /// Envelopes this rank's mailbox dropped as duplicate deliveries.
    pub fn duplicates_dropped(&self) -> u64 {
        self.mailbox.borrow().duplicates_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{faulty_universe, small_universe, CrashAtOps, DropFirstN, DupAll};
    use super::super::{SrcSel, Universe};
    use super::*;
    use crate::fault::RankFailure;

    #[test]
    fn dropped_sends_are_retried_and_recovered() {
        let u = faulty_universe(2, Arc::new(DropFirstN(3)));
        let retries = u.launch(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                rank.send(&world, 1, 7, &[11u64, 22, 33]);
            } else {
                let (v, st) = rank.recv::<u64>(&world, SrcSel::Rank(0), TagSel::Is(7));
                assert_eq!(v, vec![11, 22, 33]);
                assert_eq!(st.bytes, 24);
            }
            rank.retry_count()
        });
        assert_eq!(retries, vec![3, 0]);
        assert_eq!(u.nic().retries_total(), 3);
        // Retries never inflate the transmit counters: one logical message.
        assert_eq!(u.nic().xmit_msgs(0) + u.nic().xmit_msgs(1), 0); // intra-node
    }

    #[test]
    fn retry_storm_costs_virtual_time() {
        let clean = faulty_universe(2, Arc::new(DropFirstN(0)));
        let lossy = faulty_universe(2, Arc::new(DropFirstN(5)));
        let run = |u: &Universe| {
            u.launch(|rank| {
                let world = rank.comm_world();
                if rank.world_rank() == 0 {
                    rank.send(&world, 1, 0, &[0u8; 256]);
                    0.0
                } else {
                    rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Is(0));
                    rank.now_ns()
                }
            })[1]
        };
        let (t_clean, t_lossy) = (run(&clean), run(&lossy));
        // 5 lost transmissions + exponential backoff strictly delay arrival.
        assert!(t_lossy > t_clean, "lossy {t_lossy} should exceed clean {t_clean}");
    }

    #[test]
    fn duplicate_deliveries_are_transparent() {
        let u = faulty_universe(2, Arc::new(DupAll));
        u.launch(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                for i in 0..5u64 {
                    rank.send(&world, 1, i as u32, &[i, i * 10]);
                }
            } else {
                for i in 0..5u64 {
                    let (v, _) = rank.recv::<u64>(&world, SrcSel::Rank(0), TagSel::Is(i as u32));
                    assert_eq!(v, vec![i, i * 10], "payload corrupted at message {i}");
                }
                // Duplicates of earlier messages were drained (and dropped)
                // while matching later ones.
                assert!(rank.duplicates_dropped() >= 8, "dups: {}", rank.duplicates_dropped());
            }
        });
    }

    #[test]
    fn data_sent_before_crash_is_delivered_first() {
        let u = faulty_universe(2, Arc::new(CrashAtOps { world: 1, ops: 1 }));
        let results = u.launch_faulty(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                // The pre-crash message must arrive before the death notice.
                let (v, _) = rank
                    .recv_or_failure::<u64>(&world, 1, 5)
                    .expect("data was on the wire before the crash");
                assert_eq!(v, vec![42]);
                // The next receive hits the (cached) failure.
                let err = rank.recv_or_failure::<u64>(&world, 1, 5).expect_err("peer is dead");
                assert_eq!(err.world, 1);
                assert!(err.at_ns > 0.0);
            } else {
                rank.send(&world, 0, 5, &[42u64]); // op 0: completes
                rank.send(&world, 0, 5, &[43u64]); // op 1: crashes in the prologue
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(RankFailure::Crashed { ops: 1, .. })));
    }

    #[test]
    fn liveness_exchange_and_shrink_continue_collectives() {
        let u = faulty_universe(4, Arc::new(CrashAtOps { world: 2, ops: 0 }));
        let results = u.launch_faulty(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 2 {
                // First wire op is the liveness ping: dies before sending it.
                let _ = rank.liveness_exchange(&world);
                return Vec::new();
            }
            let alive = rank.liveness_exchange(&world);
            assert_eq!(alive, vec![true, true, false, true]);
            let work = rank.comm_shrink(&world, &alive);
            assert_eq!(work.size(), 3);
            // Collectives run on the shrunk communicator.
            rank.allgather(&work, &[rank.world_rank() as u64])
        });
        for (w, r) in results.iter().enumerate() {
            match r {
                Ok(v) if w != 2 => assert_eq!(v, &vec![0, 1, 3]),
                Ok(_) => panic!("rank 2 should have crashed"),
                Err(f) => {
                    assert_eq!(w, 2);
                    assert!(matches!(f, RankFailure::Crashed { ops: 0, .. }));
                }
            }
        }
    }

    #[test]
    fn liveness_ping_wait_leaves_control_notices_queued() {
        // A JOIN notice queued ahead of the ping must not be consumed as
        // the ping: the survivor's later `await_rejoin` still finds it.
        let u = small_universe(2);
        let incs = u.launch(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 1 {
                rank.announce_rejoin();
            }
            assert_eq!(rank.liveness_exchange(&world), vec![true, true]);
            if rank.world_rank() == 0 {
                rank.await_rejoin(1)
            } else {
                0
            }
        });
        assert_eq!(incs, vec![0, 0]);
    }
}
