//! The wire: the paper's interposition point.  Every message — user
//! point-to-point or the decomposition of a collective — is priced by the
//! cost model, shown to the PML hooks, traced, stamped into an envelope and
//! posted, in that order, in [`Rank::wire_send`]; the receive side and the
//! typed point-to-point surface sit on top.

use std::rc::Rc;
use std::sync::atomic::Ordering;

use mim_trace::TraceData;

use super::Rank;
use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::{Ctx, Envelope, MsgKind, Payload};
use crate::mailbox::{self, MatchPattern};
use crate::pml::{LocalHookHandle, LocalPmlHook, PmlEvent};

/// Virtual per-send overhead paid by the sender (ns).
pub const SEND_OVERHEAD_NS: f64 = 100.0;
/// Virtual per-receive overhead paid by the receiver (ns).
pub const RECV_OVERHEAD_NS: f64 = 50.0;

/// Source selector in *communicator ranks* (the public API counterpart of
/// `MPI_ANY_SOURCE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match any member of the communicator.
    Any,
    /// Match a specific communicator rank.
    Rank(usize),
}

/// Tag selector (`MPI_ANY_TAG`).
pub use crate::mailbox::TagSel;

/// Completion status of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Communicator rank of the sender.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Panic payload of a rank that aborted because a message's destination
/// thread was already gone (see [`Rank::send`] & friends).  The launcher
/// treats it as a *secondary* failure: any other rank's panic — the root
/// cause that killed the destination — is propagated instead.
#[derive(Debug)]
pub struct RankAborted {
    /// The aborting (sending) rank.
    pub src: usize,
    /// The destination world rank whose thread had exited.
    pub dst: usize,
}

impl Rank {
    // ----- PML hooks ---------------------------------------------------------

    /// Register a per-rank PML hook (used by the monitoring library).
    pub fn add_local_hook(&self, hook: Rc<dyn LocalPmlHook>) -> LocalHookHandle {
        self.local_hooks.borrow_mut().add(hook)
    }

    /// Remove a previously registered hook; returns whether it existed.
    pub fn remove_local_hook(&self, handle: LocalHookHandle) -> bool {
        self.local_hooks.borrow_mut().remove(handle)
    }

    // ----- wire primitives ---------------------------------------------------

    pub(crate) fn wire_send(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u32,
        ctx: Ctx,
        kind: MsgKind,
        payload: Payload,
    ) {
        let dst_world = comm.world_rank_of(dst);
        let dst_core = self.shared.core_of(dst_world);
        let bytes = payload.len_bytes();
        // Hockney with sender serialization: the sender's link is busy for
        // β·m (back-to-back sends do not pipeline on one NIC), then the
        // message lands α later.  Shared per-*node* NIC contention cannot be
        // modelled soundly here (bookings would happen in wall-clock order
        // while virtual clocks drift); the deterministic, virtual-time-
        // ordered variant is `schedule::simulate` with `contention`.
        let link = self.shared.cfg.machine.link_params(self.core, dst_core);
        let plan = self.judge_send(dst_world, bytes, link.beta_ns_per_byte);
        let busy = plan.beta * bytes as f64;
        self.clock.tick(SEND_OVERHEAD_NS + busy);
        let sent_at = self.clock.now_ns();
        let cost = link.alpha_ns;
        let ev = PmlEvent {
            src_world: self.world_rank,
            dst_world,
            src_core: self.core,
            dst_core,
            bytes,
            kind,
            vtime_ns: sent_at,
        };
        self.dispatch_pml(&ev);
        if let Some(t) = &self.trace {
            t.record(
                sent_at,
                TraceData::Send {
                    dst: dst_world,
                    bytes,
                    kind: kind.label(),
                    comm: comm.id(),
                    tag,
                    coll: self.active_coll.get(),
                },
            );
        }
        let env = self.envelope(
            (dst_world, self.peer_incarnation_of(dst_world)),
            (comm.id(), ctx, tag),
            kind,
            payload,
            (sent_at, sent_at + cost + plan.extra_delay),
            plan.wire_seq,
        );
        // Duplicate-delivery faults: extra copies trail the primary by one
        // latency each; the receiver's sequence filter drops every copy
        // after the first it sees.  They carry no PML/trace events — the
        // logical message was already recorded once.
        let dups: Vec<Envelope> = (0..plan.duplicates)
            .map(|d| {
                let mut e = env.clone();
                e.arrival_ns = env.arrival_ns + (d as f64 + 1.0) * cost;
                e
            })
            .collect();
        if !self.shared.post(dst_world, env) {
            // The destination thread already exited — almost always because
            // it (or a third rank) panicked and the job is collapsing.
            // Don't panic here: that would route through the panic hook and
            // race the root cause for the user's attention.  Record the
            // failure and unwind with a typed payload the launcher treats
            // as secondary (see `Universe::launch`).
            if self.shared.faulty.load(Ordering::Relaxed) {
                // Recoverable mode: the peer is dead (crashed or finished);
                // the bytes evaporate and the sender carries on.  No trace
                // event either — whether a send to a dead rank observes the
                // closed channel (vs. landing unread in its mailbox) depends
                // on OS thread-teardown timing, so recording it would make
                // fixed-seed traces nondeterministic.
                return;
            }
            if let Some(t) = &self.trace {
                t.record(self.clock.now_ns(), TraceData::SendFailed { dst: dst_world });
            }
            std::panic::resume_unwind(Box::new(RankAborted {
                src: self.world_rank,
                dst: dst_world,
            }));
        }
        for e in dups {
            let _ = self.shared.post(dst_world, e);
        }
    }

    /// Stamp a message from this rank into an [`Envelope`] — the one place
    /// a message in flight is built.  The first pair is the destination
    /// slot and the incarnation of it the message is addressed to, the
    /// triple what the receiver matches on.  Timing is the caller's
    /// decision and arrives as `(sent_at, arrival)`: data lands α (plus
    /// jitter) after the link drains, a control send α after one overhead
    /// tick, a death notice the instant it is sent.
    #[inline]
    pub(super) fn envelope(
        &self,
        (dst_world, dst_inc): (usize, u32),
        (comm_id, ctx, tag): (u64, Ctx, u32),
        kind: MsgKind,
        payload: Payload,
        (sent_at_ns, arrival_ns): (f64, f64),
        wire_seq: Option<u64>,
    ) -> Envelope {
        Envelope {
            src_world: self.world_rank,
            dst_world,
            comm_id,
            ctx,
            tag,
            kind,
            payload,
            sent_at_ns,
            arrival_ns,
            wire_seq,
            src_inc: self.incarnation(),
            dst_inc,
        }
    }

    /// Run the PML interposition hooks for one wire event (also used by the
    /// one-sided layer whose data does not travel as envelopes).
    pub(crate) fn dispatch_pml(&self, ev: &PmlEvent) {
        // Allocation-free dispatch: the overhead experiment (paper Fig 4)
        // measures exactly this path.
        let hooks = self.local_hooks.borrow();
        if !hooks.is_empty() {
            hooks.dispatch(ev);
        }
        drop(hooks);
        for h in self.shared.global_hooks.get().into_iter().flatten() {
            h.on_send(ev);
        }
    }

    pub(crate) fn wire_recv(&self, comm: &Comm, src: SrcSel, tag: TagSel, ctx: Ctx) -> Envelope {
        self.mailbox_recv(&pattern(comm, src, tag, ctx))
    }

    /// Receive matching a raw pattern (nonblocking-module plumbing),
    /// applying the usual virtual-time rules.
    pub(crate) fn mailbox_recv(&self, pat: &MatchPattern) -> Envelope {
        self.pre_op();
        let (env, depth) = {
            let mut mb = self.mailbox.borrow_mut();
            let env = mb.recv_match(pat);
            let depth = mb.unexpected_len();
            (env, depth)
        };
        self.finish_recv(env, depth)
    }

    /// Receive epilogue: advance virtual time to the arrival, pay the
    /// receive overhead, record the `Recv` trace event.
    pub(super) fn finish_recv(&self, env: Envelope, uq_depth: usize) -> Envelope {
        self.clock.advance_to(env.arrival_ns);
        self.clock.tick(RECV_OVERHEAD_NS);
        if let Some(t) = &self.trace {
            t.record(
                self.clock.now_ns(),
                TraceData::Recv {
                    src: env.src_world,
                    bytes: env.payload.len_bytes(),
                    comm: env.comm_id,
                    tag: env.tag,
                    uq_depth,
                },
            );
        }
        env
    }

    // ----- point-to-point ----------------------------------------------------

    /// Blocking typed send (buffered-eager: never blocks on the receiver).
    pub fn send<T: Scalar>(&self, comm: &Comm, dst: usize, tag: u32, data: &[T]) {
        self.wire_send(
            comm,
            dst,
            tag,
            Ctx::Pt2pt,
            MsgKind::P2pUser,
            Payload::Bytes(T::to_bytes(data)),
        );
    }

    /// Blocking typed receive.
    pub fn recv<T: Scalar>(&self, comm: &Comm, src: SrcSel, tag: TagSel) -> (Vec<T>, Status) {
        typed(comm, self.wire_recv(comm, src, tag, Ctx::Pt2pt))
    }

    /// Send a size-only synthetic message (classified as user p2p traffic).
    pub fn send_synthetic(&self, comm: &Comm, dst: usize, tag: u32, bytes: u64) {
        self.wire_send(comm, dst, tag, Ctx::Pt2pt, MsgKind::P2pUser, Payload::Synthetic(bytes));
    }

    /// Receive a synthetic message; returns its status.
    pub fn recv_synthetic(&self, comm: &Comm, src: SrcSel, tag: TagSel) -> Status {
        status_of(comm, &self.wire_recv(comm, src, tag, Ctx::Pt2pt))
    }
}

/// The match pattern of a receive posted on `comm`: the public selectors
/// translated to world ranks (shared with the nonblocking module).
pub(crate) fn pattern(comm: &Comm, src: SrcSel, tag: TagSel, ctx: Ctx) -> MatchPattern {
    let src = match src {
        SrcSel::Any => mailbox::SrcSel::Any,
        SrcSel::Rank(r) => mailbox::SrcSel::World(comm.world_rank_of(r)),
    };
    MatchPattern { comm_id: comm.id(), ctx, src, tag }
}

/// Completion status of a received envelope, its sender as a rank of `comm`.
pub(super) fn status_of(comm: &Comm, env: &Envelope) -> Status {
    Status {
        src: comm.rank_of_world(env.src_world).expect("sender not in communicator"),
        tag: env.tag,
        bytes: env.payload.len_bytes(),
    }
}

/// The one typed completion: decode a received envelope's payload and
/// pair it with its [`Status`].
pub(crate) fn typed<T: Scalar>(comm: &Comm, env: Envelope) -> (Vec<T>, Status) {
    let status = status_of(comm, &env);
    (T::from_bytes(&env.payload.expect_bytes()), status)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mim_topology::{Machine, Placement};

    use super::super::fault_protocol::fault_pat;
    use super::super::tests::{faulty_universe, small_universe, CrashAtOps};
    use super::super::{Universe, UniverseConfig};
    use super::*;
    use crate::fault;

    #[test]
    fn ping_pong_moves_data_and_time() {
        let u = small_universe(2);
        let times = u.launch(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                rank.send(&world, 1, 7, &[1.5f64, 2.5]);
                let (v, st) = rank.recv::<f64>(&world, SrcSel::Rank(1), TagSel::Is(8));
                assert_eq!(v, vec![4.0]);
                assert_eq!(st.src, 1);
            } else {
                let (v, st) = rank.recv::<f64>(&world, SrcSel::Rank(0), TagSel::Is(7));
                assert_eq!(v, vec![1.5, 2.5]);
                assert_eq!(st.bytes, 16);
                rank.send(&world, 0, 8, &[v[0] + v[1]]);
            }
            rank.now_ns()
        });
        // A round trip costs at least two latencies.
        assert!(times[0] > 0.0 && times[1] > 0.0);
    }

    #[test]
    fn virtual_time_respects_distance() {
        // Rank 1 on the same socket as rank 0; rank 2 on another node.
        let machine = Machine::cluster(2, 2, 4);
        let placement = Placement::explicit(vec![0, 1, 8]);
        let u = Universe::new(UniverseConfig::new(machine, placement));
        let times = u.launch(|rank| {
            let world = rank.comm_world();
            match rank.world_rank() {
                0 => {
                    rank.send(&world, 1, 0, &[0u8; 1000]);
                    rank.send(&world, 2, 0, &[0u8; 1000]);
                    0.0
                }
                _ => {
                    rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Is(0));
                    rank.now_ns()
                }
            }
        });
        assert!(
            times[2] > times[1],
            "cross-node recv ({}) should finish later than intra-socket ({})",
            times[2],
            times[1]
        );
    }

    #[test]
    fn synthetic_and_real_cost_the_same() {
        let run = |synthetic: bool| {
            let u = small_universe(2);
            u.launch(move |rank| {
                let world = rank.comm_world();
                if rank.world_rank() == 0 {
                    if synthetic {
                        rank.send_synthetic(&world, 1, 0, 4096);
                    } else {
                        rank.send(&world, 1, 0, &vec![0u8; 4096]);
                    }
                    0.0
                } else {
                    if synthetic {
                        rank.recv_synthetic(&world, SrcSel::Any, TagSel::Any);
                    } else {
                        rank.recv::<u8>(&world, SrcSel::Any, TagSel::Any);
                    }
                    rank.now_ns()
                }
            })[1]
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn self_send_works() {
        let u = small_universe(1);
        u.launch(|rank| {
            let world = rank.comm_world();
            rank.send(&world, 0, 3, &[42i32]);
            let (v, st) = rank.recv::<i32>(&world, SrcSel::Rank(0), TagSel::Is(3));
            assert_eq!(v, vec![42]);
            assert_eq!(st.src, 0);
        });
    }

    #[test]
    fn nic_sees_only_cross_node() {
        let machine = Machine::cluster(2, 1, 4); // nodes of 4 cores
        let u = Universe::new(UniverseConfig::new(machine, Placement::packed(8)));
        u.launch(|rank| {
            let world = rank.comm_world();
            match rank.world_rank() {
                0 => {
                    rank.send(&world, 1, 0, &[0u8; 100]); // intra-node
                    rank.send(&world, 4, 0, &[0u8; 200]); // cross-node
                }
                1 => {
                    rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
                }
                4 => {
                    rank.recv::<u8>(&world, SrcSel::Rank(0), TagSel::Any);
                }
                _ => {}
            }
        });
        assert_eq!(u.nic().xmit_bytes(0), 200);
        assert_eq!(u.nic().xmit_msgs(0), 1);
        assert_eq!(u.nic().xmit_bytes(1), 0);
    }

    /// The one envelope constructor under its two fault-protocol callers,
    /// observed as raw envelopes in the receiver's mailbox: a death notice
    /// arrives the instant it is sent and costs the dying rank nothing; a
    /// control send lands α after exactly one `SEND_OVERHEAD_NS` tick.
    /// Neither is sequenced, and both are addressed to the slot
    /// (incarnation 0) on the fault context.
    #[test]
    fn fault_notices_are_stamped_by_the_one_constructor() {
        let u = faulty_universe(2, Arc::new(CrashAtOps { world: 1, ops: 0 }));
        let (overhead, alpha) = (SEND_OVERHEAD_NS, u.config().machine.link_params(1, 0).alpha_ns);
        let results = u.launch_faulty(move |rank| {
            if rank.world_rank() == 1 {
                rank.compute_ns(40.0);
                rank.fault_send(0, fault::FAULT_TAG_PING, Payload::Synthetic(0));
                assert_eq!(rank.now_ns(), 40.0 + overhead, "exactly one overhead tick");
                rank.compute_ns(60.0);
                rank.send(&rank.comm_world(), 0, 0, &[0u8]); // op 0: dies in the prologue
                unreachable!("rank 1 crashes at its first wire op");
            }
            let from_peer = |tag| fault_pat(mailbox::SrcSel::World(1), tag);
            let ping = rank.mailbox.borrow_mut().recv_match(&from_peer(fault::FAULT_TAG_PING));
            assert_eq!(ping.sent_at_ns, 40.0 + overhead);
            assert_eq!(ping.arrival_ns, ping.sent_at_ns + alpha);
            let death = rank.mailbox.borrow_mut().recv_match(&from_peer(fault::FAULT_TAG_DEATH));
            assert_eq!(death.sent_at_ns, 100.0 + overhead, "a crash pays no send overhead");
            assert_eq!(death.arrival_ns, death.sent_at_ns);
            for env in [ping, death] {
                assert_eq!(env.wire_seq, None);
                assert_eq!(env.dst_inc, 0);
                assert_eq!(env.ctx, Ctx::Fault);
                assert_eq!((env.src_world, env.dst_world, env.src_inc), (1, 0, 0));
            }
        });
        assert!(results[0].is_ok(), "{:?}", results[0]);
    }
}
