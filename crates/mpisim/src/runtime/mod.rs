//! The runtime: per-rank handles ([`Rank`]) over a launched universe.
//!
//! One module per decision:
//!
//! * `wire` — the paper's interposition point (`wire_send`: cost model →
//!   PML hooks → trace → envelope → post), the receive side and the typed
//!   point-to-point surface;
//! * `universe` — job configuration, `Shared` delivery (`post`), the two
//!   rank engines, the one per-slot driver and the two launches;
//! * `fault_protocol` — crash points, retry/backoff, death notices,
//!   control sends, the failure-aware wait, the liveness exchange;
//! * `membership` — epochs, shrink/grow id derivation, the admission
//!   codec, incarnations, a latent slot's wait for admission.
//!
//! The collective façade (`Rank::barrier`, `Rank::bcast`, …) lives beside
//! the algorithms it names in [`crate::collectives`], `comm_split` /
//! `comm_dup` beside [`crate::comm`]'s `Group`.

mod fault_protocol;
mod membership;
mod universe;
mod wire;

pub use membership::StaleEpoch;
pub(crate) use universe::Shared;
pub use universe::{Universe, UniverseConfig};
pub(crate) use wire::Status;
pub(crate) use wire::{pattern, typed};
pub use wire::{RankAborted, SrcSel, TagSel, RECV_OVERHEAD_NS, SEND_OVERHEAD_NS};

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use mim_trace::{TraceData, TraceHandle};
use mim_util::channel::Receiver;
use mim_util::hash::IdMap;

use mim_topology::{Machine, Placement};

use crate::clock::VirtualClock;
use crate::comm::Comm;
use crate::envelope::Envelope;
use crate::mailbox::Mailbox;
use crate::pml::LocalHooks;
use fault_protocol::FaultState;
use membership::Membership;

/// Per-rank handle: one simulated process's view of the job.
///
/// All communication goes through methods of this type.  `Rank` is neither
/// `Send` nor `Sync`: it lives and dies inside its rank's body — an OS
/// thread or an M:N rank task, per [`UniverseConfig::executor`] — like an
/// MPI process.
pub struct Rank {
    world_rank: usize,
    core: usize,
    shared: Arc<Shared>,
    clock: Rc<VirtualClock>,
    mailbox: RefCell<Mailbox>,
    local_hooks: RefCell<LocalHooks>,
    /// Per-communicator collective sequence numbers: every collective call
    /// consumes one, which isolates concurrent collectives on one
    /// communicator from each other (MPI requires same call order on all
    /// members, which makes the sequence consistent).
    coll_seq: RefCell<IdMap<u64, u32>>,
    /// This rank's flight-recorder track (`None` when tracing is off).
    trace: Option<TraceHandle>,
    /// Id of the innermost open collective span, stamped onto the `Send`
    /// events its decomposition produces (attribution, paper §3).
    active_coll: Cell<Option<u64>>,
    /// Per-rank collective-span id allocator.
    next_coll_span: Cell<u64>,
    /// Fault-only state: injector, op and retry counters, link sequences,
    /// known-dead peers (see [`fault_protocol`]).
    fault: FaultState,
    /// Membership-only state: incarnations, epoch watermark, join plan
    /// (see [`membership`]).
    membership: Membership,
}

impl Rank {
    /// The one constructor, called by the per-slot driver only:
    /// `incarnation > 0` builds a reborn body (its track is `rankN.I` and
    /// its mailbox filters stale incarnations), and `join` carries a latent
    /// joiner's admission — the grown communicator plus the notice's
    /// arrival time, which seeds the joiner's clock.
    pub(super) fn new_with(
        world_rank: usize,
        shared: Arc<Shared>,
        rx: Receiver<Envelope>,
        incarnation: u32,
        join: Option<(Comm, f64)>,
    ) -> Self {
        let deadline = shared.cfg.deadline;
        let core = shared.core_of(world_rank);
        let trace = shared.cfg.tracer.as_ref().map(|t| {
            t.track(if incarnation > 0 {
                format!("rank{world_rank}.{incarnation}")
            } else {
                format!("rank{world_rank}")
            })
        });
        let mut mailbox = Mailbox::new(rx, deadline);
        mailbox.set_incarnation(incarnation);
        if let Some(t) = &trace {
            mailbox.set_trace(t.clone());
        }
        if let Some(exec) = &shared.exec {
            // Task index == world rank: blocking receives park this rank's
            // task instead of its worker thread.
            mailbox.set_parker(exec.parker(world_rank));
        }
        if let Some(policy) = &shared.cfg.sched {
            // Wildcard matches become the policy's choices, and deadline
            // panics carry the policy's decision log.
            mailbox.set_policy(Arc::clone(policy), world_rank);
        }
        let (join_comm, joined_at) = join.unzip();
        let injector = shared.cfg.injector.clone();
        let rank = Self {
            world_rank,
            core,
            shared,
            clock: Rc::new(VirtualClock::new()),
            mailbox: RefCell::new(mailbox),
            local_hooks: RefCell::new(LocalHooks::default()),
            coll_seq: RefCell::new(IdMap::default()),
            trace,
            active_coll: Cell::new(None),
            next_coll_span: Cell::new(0),
            membership: Membership::new(world_rank, incarnation, join_comm, injector.as_ref()),
            fault: FaultState::new(injector),
        };
        if let Some(at_ns) = joined_at {
            // A joiner's clock starts at its admission, and its track opens
            // with the join event.
            rank.clock.advance_to(at_ns);
            rank.record_trace(at_ns, TraceData::RankJoin { incarnation: 0 });
        }
        rank
    }

    // ----- identity & time --------------------------------------------------

    /// This process's world rank.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Number of rank slots in the universe: the initial world plus every
    /// latent slot, admitted or not.
    pub fn capacity(&self) -> usize {
        self.shared.cfg.nprocs()
    }

    /// Core hosting this process.
    pub(crate) fn core(&self) -> usize {
        self.core
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &Machine {
        &self.shared.cfg.machine
    }

    /// The process → core placement.
    pub fn placement(&self) -> &Placement {
        &self.shared.cfg.placement
    }

    /// Current virtual time (ns).
    pub fn now_ns(&self) -> f64 {
        self.clock.now_ns()
    }

    /// Current virtual time (s).
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// Spend `ns` nanoseconds of virtual compute time.
    pub fn compute_ns(&self, ns: f64) {
        self.clock.tick(ns);
    }

    /// A shared handle on this rank's virtual clock.  Lets code that holds a
    /// `Rank`-independent lifetime (the monitoring library's session table)
    /// timestamp trace events on this rank's track.
    pub fn clock_shared(&self) -> Rc<VirtualClock> {
        Rc::clone(&self.clock)
    }

    /// This rank's trace track, when tracing is enabled.
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.trace.clone()
    }

    /// High-water mark of the unexpected-message queue (0 when nothing ever
    /// queued; tracked regardless of whether tracing is enabled).
    pub fn max_unexpected_depth(&self) -> usize {
        self.mailbox.borrow().max_unexpected_depth()
    }

    /// Virtual sleep (identical to compute: the clock advances).
    pub fn sleep_ns(&self, ns: f64) {
        self.clock.tick(ns);
    }

    /// `MPI_COMM_WORLD` (the *initial* world).
    ///
    /// # Panics
    /// Panics on a latent joiner: a rank admitted after launch is not a
    /// member of the initial world and must communicate on the grown
    /// communicator it was admitted into ([`Rank::join_comm`]).
    pub fn comm_world(&self) -> Comm {
        assert!(
            self.world_rank < self.shared.cfg.initial(),
            "rank {} joined after launch and is not in MPI_COMM_WORLD; use the grown \
             communicator it was admitted into (Rank::join_comm)",
            self.world_rank
        );
        Comm::new(0, Arc::clone(&self.shared.world_group), self.world_rank)
    }

    /// Next collective sequence tag on a communicator.
    pub(crate) fn next_coll_tag(&self, comm: &Comm) -> u32 {
        let mut seqs = self.coll_seq.borrow_mut();
        let seq = seqs.entry(comm.id()).or_insert(0);
        let tag = *seq;
        *seq += 1;
        tag
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Record a trace event on this rank's track (no-op when tracing is
    /// off — a single branch on the `Option`).
    pub(crate) fn record_trace(&self, t_ns: f64, data: TraceData) {
        if let Some(t) = &self.trace {
            t.record(t_ns, data);
        }
    }

    /// Open a collective decomposition span: records `CollBegin` now and
    /// `CollEnd` when the guard drops, and stamps the span id onto every
    /// `Send` event recorded while it is open — that is how a trace ties a
    /// wire message back to the collective that produced it.  Returns `None`
    /// (and records nothing) when tracing is off; spans nest, restoring the
    /// enclosing span's id on drop.
    pub(crate) fn coll_span(&self, name: &'static str, comm: &Comm) -> Option<CollSpanGuard<'_>> {
        let t = self.trace.as_ref()?;
        let id = self.next_coll_span.get();
        self.next_coll_span.set(id + 1);
        let prev = self.active_coll.replace(Some(id));
        t.record(self.clock.now_ns(), TraceData::CollBegin { name, comm: comm.id(), id });
        Some(CollSpanGuard { rank: self, name, comm_id: comm.id(), id, prev })
    }
}

/// RAII guard of an open collective span (see [`Rank::coll_span`]).
pub(crate) struct CollSpanGuard<'a> {
    rank: &'a Rank,
    name: &'static str,
    comm_id: u64,
    id: u64,
    prev: Option<u64>,
}

impl Drop for CollSpanGuard<'_> {
    fn drop(&mut self) {
        self.rank.active_coll.set(self.prev);
        if let Some(t) = &self.rank.trace {
            t.record(
                self.rank.clock.now_ns(),
                TraceData::CollEnd { name: self.name, comm: self.comm_id, id: self.id },
            );
        }
    }
}

/// Universe builders and toy injectors shared by the runtime's unit tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::{CrashPoint, FaultInjector, LinkCtx, SendOutcome};

    pub(crate) fn small_universe(n: usize) -> Universe {
        let machine = Machine::cluster(2, 2, 4); // 16 cores
        Universe::new(UniverseConfig::new(machine, Placement::packed(n)))
    }

    // ----- fault injection ---------------------------------------------------

    /// Drop the first `n` attempts of every message.
    #[derive(Debug)]
    pub(super) struct DropFirstN(pub(super) u32);
    impl FaultInjector for DropFirstN {
        fn on_attempt(&self, _link: &LinkCtx, attempt: u32) -> SendOutcome {
            if attempt < self.0 {
                SendOutcome::Drop
            } else {
                SendOutcome::CLEAN
            }
        }
    }

    /// Deliver every message plus two duplicate copies.
    #[derive(Debug)]
    pub(super) struct DupAll;
    impl FaultInjector for DupAll {
        fn on_attempt(&self, _link: &LinkCtx, _attempt: u32) -> SendOutcome {
            SendOutcome::Deliver { extra_delay_ns: 0.0, duplicates: 2 }
        }
    }

    /// Crash one rank at a wire-op count; everything else is clean.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct CrashAtOps {
        pub(super) world: usize,
        pub(super) ops: u64,
    }
    impl FaultInjector for CrashAtOps {
        fn on_attempt(&self, _link: &LinkCtx, _attempt: u32) -> SendOutcome {
            SendOutcome::CLEAN
        }
        fn crash_point(&self, world: usize) -> Option<CrashPoint> {
            (world == self.world).then_some(CrashPoint::OpCount(self.ops))
        }
    }

    /// [`CrashAtOps`] followed by one rebirth of the crashed rank.
    #[derive(Debug)]
    pub(super) struct RestartAtOps(pub(super) CrashAtOps);
    impl FaultInjector for RestartAtOps {
        fn on_attempt(&self, link: &LinkCtx, attempt: u32) -> SendOutcome {
            self.0.on_attempt(link, attempt)
        }
        fn crash_point(&self, world: usize) -> Option<CrashPoint> {
            self.0.crash_point(world)
        }
        fn restart_after_crash(&self, world: usize, incarnation: u32) -> bool {
            world == self.0.world && incarnation == 0
        }
    }

    pub(super) fn faulty_universe(n: usize, inj: Arc<dyn FaultInjector>) -> Universe {
        let machine = Machine::cluster(2, 2, 4);
        let cfg = UniverseConfig::new(machine, Placement::packed(n)).with_injector(inj);
        Universe::new(cfg)
    }

    #[test]
    fn clock_monotone_through_traffic() {
        let u = small_universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let mut last = rank.now_ns();
            for it in 0..5 {
                rank.barrier(&world);
                let now = rank.now_ns();
                assert!(now >= last, "clock went backwards at iteration {it}");
                last = now;
                rank.compute_ns(10.0);
            }
        });
    }
}
