//! The universe (job launcher) and per-rank handles.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mim_trace::{TraceData, TraceHandle, Tracer};
use mim_util::channel::{unbounded, Receiver, Sender};
use mim_util::sync::{Mutex, RwLock};

use mim_topology::{Machine, Placement};

use crate::clock::VirtualClock;
use crate::collectives;
use crate::comm::{Comm, Group};
use crate::datatype::Scalar;
use crate::envelope::{Ctx, Envelope, MsgKind, Payload};
use crate::exec::{self, ExecShared, ExecutorKind};
use crate::fault::{
    self, CrashPoint, FaultInjector, LinkCtx, PeerFailure, RankFailure, SendOutcome,
};
use crate::mailbox::{self, Mailbox, MatchPattern};
use crate::nic::NicCounters;
use crate::pml::{LocalHookHandle, LocalHooks, LocalPmlHook, PmlEvent, PmlHook};
use crate::sched::{clamp_choice, Decision, PolicyHandle};

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

/// Job configuration.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// The machine to simulate.
    pub machine: Machine,
    /// Process → core placement; its length is the number of ranks.
    pub placement: Placement,
    /// Virtual per-send overhead paid by the sender (ns).
    pub send_overhead_ns: f64,
    /// Virtual per-receive overhead paid by the receiver (ns).
    pub recv_overhead_ns: f64,
    /// Per-message protocol header counted by the simulated NIC (bytes).
    pub nic_header_bytes: u64,
    /// Wall-clock bound on a single blocking receive (deadlock detector).
    pub deadline: Duration,
    /// Stack size of rank threads.
    pub stack_size: usize,
    /// Which engine hosts rank code: one OS thread per rank
    /// ([`ExecutorKind::Threads`], the default and the equivalence oracle)
    /// or M:N rank tasks on a fixed work-stealing pool
    /// ([`ExecutorKind::Tasks`], the 10k-rank engine).  Defaults from
    /// `MIM_EXECUTOR`; both modes produce bit-identical virtual-time
    /// results (see `tests/executor_equivalence.rs`).
    pub executor: ExecutorKind,
    /// Stack size of rank *task* fibers (Tasks mode only).  Much smaller
    /// than `stack_size`: 10k ranks × this many bytes must fit comfortably
    /// in memory, and simulated rank bodies are shallow.
    pub task_stack_size: usize,
    /// Tracing subsystem: each rank records its wire events on a per-rank
    /// track (flight recorder + optional `MIM_TRACE` file sink).  `None`
    /// disables tracing entirely — every record site is a single
    /// branch-on-`Option` (see the `trace_overhead` microbench).
    pub tracer: Option<Arc<Tracer>>,
    /// Optional deterministic fault injector (see [`crate::fault`] and the
    /// `mim-chaos` crate).  `None` keeps the wire layer on its fault-free
    /// fast path: the injector check is a single branch-on-`Option`
    /// (measured by the `chaos_overhead` microbench).
    pub injector: Option<Arc<dyn FaultInjector>>,
    /// Optional schedule policy (see [`crate::sched`] and the `mim-explore`
    /// crate): takes over the runtime's three nondeterminism points —
    /// wildcard matching, task resume order, wire-delivery order.  `None`
    /// keeps every hook a single branch-on-`Option`; the canonical policy
    /// is bit-identical to `None`.
    pub sched: Option<PolicyHandle>,
    /// Elastic universes: the number of trailing placement slots reserved
    /// for ranks that may *join* the universe mid-run.  The initial world
    /// (`MPI_COMM_WORLD`) is the first `placement.len() - latent_ranks`
    /// ranks; latent slots are wired (channel + task/thread) at launch but
    /// stay parked — no `Rank`, no mailbox, no trace track — until a
    /// sponsor admits them (see `Universe::launch_elastic`).  0 (the
    /// default) is the classic static universe.
    pub latent_ranks: usize,
}

impl UniverseConfig {
    /// Standard configuration: one process per core of `machine`, packed
    /// placement, default overheads.
    ///
    /// The deadlock-detector deadline defaults to 30 s of wall clock but can
    /// be raised (or lowered) via `MIM_DEADLINE_MS` — an overloaded CI
    /// runner can stall a rank thread long enough to trip a fixed deadline
    /// and report a false "deadlock".
    pub fn new(machine: Machine, placement: Placement) -> Self {
        assert!(
            placement.len() <= machine.num_cores(),
            "placement has more processes than the machine has cores"
        );
        let deadline = std::env::var("MIM_DEADLINE_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(Duration::from_secs(30), Duration::from_millis);
        Self {
            machine,
            placement,
            send_overhead_ns: 100.0,
            recv_overhead_ns: 50.0,
            nic_header_bytes: 0,
            deadline,
            stack_size: 4 << 20,
            executor: ExecutorKind::from_env(),
            task_stack_size: 256 << 10,
            tracer: Tracer::global(),
            injector: None,
            sched: None,
            latent_ranks: 0,
        }
    }

    /// Select the rank execution engine (builder style).
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Install a deterministic fault injector (builder style).
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Install a schedule policy (builder style): the policy decides
    /// wildcard matches, task resume order (Tasks mode, forced to one
    /// worker) and wire-delivery order, and its decision log rides along in
    /// deadlock panics.
    pub fn with_schedule_policy(mut self, policy: PolicyHandle) -> Self {
        self.sched = Some(policy);
        self
    }

    /// Reserve the *last* `n` placement slots for latent joiners (builder
    /// style; see the `latent_ranks` field).  Latent slots only come to life
    /// under [`Universe::launch_elastic`].
    pub fn with_latent_ranks(mut self, n: usize) -> Self {
        assert!(
            n < self.placement.len(),
            "latent_ranks ({n}) must leave at least one initial rank \
             (placement has {} slots)",
            self.placement.len()
        );
        self.latent_ranks = n;
        self
    }

    /// Number of rank slots in the job (initial world + latent joiners).
    pub fn nprocs(&self) -> usize {
        self.placement.len()
    }

    /// Size of the initial world (`MPI_COMM_WORLD`): every slot that is not
    /// a latent joiner.
    pub fn initial(&self) -> usize {
        self.nprocs() - self.latent_ranks
    }
}

/// Shared buffer of one rank's one-sided window.
pub(crate) type WindowBuf = Arc<Mutex<Vec<u8>>>;

pub(crate) struct Shared {
    pub(crate) cfg: UniverseConfig,
    pub(crate) senders: Vec<Sender<Envelope>>,
    pub(crate) global_hooks: RwLock<Vec<Arc<dyn PmlHook>>>,
    next_comm_id: AtomicU64,
    /// One-sided window registry: (window id, comm rank) → shared buffer.
    pub(crate) windows: Mutex<HashMap<(u64, usize), WindowBuf>>,
    /// The simulated NIC (also the first global hook); kept here so the
    /// wire layer can count retransmissions without a hook round-trip.
    pub(crate) nic: Arc<NicCounters>,
    /// Per-rank liveness, cleared when a fault plan crashes a rank.
    pub(crate) alive: Vec<AtomicBool>,
    /// Per-slot admission state (elastic universes): initial-world slots are
    /// born admitted; a latent slot flips when a sponsor admits it.  The
    /// sponsor's run epilogue retires every slot still unadmitted.
    pub(crate) admitted: Vec<AtomicBool>,
    /// Set by `launch_faulty`: sends to a gone mailbox drop silently
    /// instead of unwinding the sender (`RankAborted`).
    pub(crate) faulty: AtomicBool,
    /// M:N scheduler state, present iff the universe runs in
    /// [`ExecutorKind::Tasks`] mode.  Senders notify it after every
    /// delivery so a parked destination task gets rescheduled.
    pub(crate) exec: Option<Arc<ExecShared>>,
    /// Wire-delivery staging area, used only under a schedule policy:
    /// posted envelopes wait here as `(ticket, dst, env)` until the policy
    /// releases them (see [`Shared::post`]).
    stage: Mutex<std::collections::VecDeque<(u64, usize, Envelope)>>,
    /// Ticket allocator for staged deliveries.
    stage_ticket: AtomicU64,
    /// `MPI_COMM_WORLD`'s group, built once: every rank's world
    /// communicator shares it.
    world_group: Arc<Group>,
}

impl Shared {
    /// Allocate `n` consecutive globally unique communicator/window ids.
    pub(crate) fn alloc_ids(&self, n: u64) -> u64 {
        self.next_comm_id.fetch_add(n, Ordering::Relaxed)
    }

    pub(crate) fn core_of(&self, world: usize) -> usize {
        self.cfg.placement.core_of(world)
    }

    /// Deliver an envelope to `dst`'s mailbox channel and, under the M:N
    /// executor, wake `dst`'s task if it is parked.  Every wire-layer send
    /// must go through here — a bare `senders[dst].send` would leave a
    /// parked destination asleep until the stall resolver falsely times it
    /// out.  Returns whether the channel accepted the envelope.
    pub(crate) fn post(&self, dst: usize, env: Envelope) -> bool {
        match &self.cfg.sched {
            Some(policy) => self.post_policed(policy, dst, env),
            None => self.post_direct(dst, env),
        }
    }

    /// The un-policed delivery: send, then wake a parked destination task.
    fn post_direct(&self, dst: usize, env: Envelope) -> bool {
        let delivered = self.senders[dst].send(env).is_ok();
        if delivered {
            if let Some(exec) = &self.exec {
                exec.notify(dst);
                // Fairness: if the destination is runnable but starved of a
                // worker, hand it ours (no-op off the executor).
                exec.maybe_yield_to(dst);
            }
        }
        delivered
    }

    /// Policed delivery: stage the envelope, then release staged envelopes
    /// in policy-chosen order until the stage drains.  The slate is offered
    /// in posting (FIFO) order, so the canonical index-0 answer releases
    /// exactly as [`Shared::post_direct`] would — bit-identical; singleton
    /// slates skip the policy call entirely.  A staged envelope can be
    /// released by a *concurrent* poster's drain loop, in which case its
    /// original poster reports success: the only false return is a send to
    /// a gone mailbox (`launch_faulty` crash plans), which is not combined
    /// with schedule exploration.
    fn post_policed(&self, policy: &PolicyHandle, dst: usize, env: Envelope) -> bool {
        let my_ticket = {
            let mut stage = self.stage.lock();
            let t = self.stage_ticket.fetch_add(1, Ordering::Relaxed);
            stage.push_back((t, dst, env));
            t
        };
        let mut my_result = true;
        // Pop under the lock, deliver outside it: `post_direct` may suspend
        // the calling fiber in its fairness yield, and a suspended fiber
        // must never hold the stage.
        while let Some((ticket, d, e)) = self.stage_pop(policy) {
            let delivered = self.post_direct(d, e);
            if ticket == my_ticket {
                my_result = delivered;
            }
        }
        my_result
    }

    /// Take one staged envelope, consulting the policy when several are
    /// pending.  The slate is in posting (FIFO) order.
    fn stage_pop(&self, policy: &PolicyHandle) -> Option<(u64, usize, Envelope)> {
        let mut stage = self.stage.lock();
        match stage.len() {
            0 => None,
            1 => stage.pop_front(),
            n => {
                let slate: Vec<(usize, usize)> =
                    stage.iter().map(|(_, d, e)| (e.src_world, *d)).collect();
                let i =
                    clamp_choice(policy.choose(Decision::WireDelivery { candidates: &slate }), n);
                stage.remove(i)
            }
        }
    }
}

/// A simulated job: configuration, wiring and the simulated NIC.
///
/// ```
/// use mim_mpisim::{Universe, UniverseConfig};
/// use mim_topology::{Machine, Placement};
///
/// let machine = Machine::plafrim(2);
/// let cfg = UniverseConfig::new(machine, Placement::packed(4));
/// let universe = Universe::new(cfg);
/// let sums = universe.launch(|rank| {
///     let world = rank.comm_world();
///     let mine = vec![rank.world_rank() as u64];
///     rank.allreduce(&world, &mine, |a, b| a + b)[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub struct Universe {
    shared: Arc<Shared>,
    receivers: Mutex<Option<Vec<Receiver<Envelope>>>>,
}

impl Universe {
    /// Wire a universe for `cfg.nprocs()` ranks.
    pub fn new(cfg: UniverseConfig) -> Self {
        let n = cfg.nprocs();
        assert!(n > 0, "universe needs at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let core_to_node =
            (0..cfg.machine.num_cores()).map(|c| cfg.machine.node_of_core(c)).collect();
        let nic = Arc::new(NicCounters::new(core_to_node, cfg.nic_header_bytes));
        let exec = match cfg.executor {
            ExecutorKind::Tasks if mim_util::fiber::SUPPORTED => Some(ExecShared::new(n)),
            ExecutorKind::Tasks => {
                eprintln!(
                    "mim-mpisim: MIM_EXECUTOR=tasks needs stackful fibers \
                     (x86_64 unix only); falling back to thread-per-rank"
                );
                None
            }
            ExecutorKind::Threads => None,
        };
        if let (Some(exec), Some(policy)) = (&exec, &cfg.sched) {
            // Hand the policy to the scheduler before launch: dispatch
            // becomes single-worker and resume order is the policy's.
            exec.set_policy(Arc::clone(policy));
        }
        let shared = Arc::new(Shared {
            senders,
            global_hooks: RwLock::new(vec![nic.clone() as Arc<dyn PmlHook>]),
            next_comm_id: AtomicU64::new(1), // id 0 is MPI_COMM_WORLD
            windows: Mutex::new(HashMap::new()),
            nic,
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            admitted: (0..n).map(|i| AtomicBool::new(i < cfg.initial())).collect(),
            faulty: AtomicBool::new(false),
            exec,
            stage: Mutex::new(std::collections::VecDeque::new()),
            stage_ticket: AtomicU64::new(0),
            world_group: Group::new((0..cfg.initial()).collect()),
            cfg,
        });
        Self { shared, receivers: Mutex::new(Some(receivers)) }
    }

    /// The simulated NIC counters (inspect after [`Universe::launch`]).
    pub fn nic(&self) -> &NicCounters {
        &self.shared.nic
    }

    /// Per-rank liveness after a run: `false` for ranks killed by the fault
    /// plan, `true` otherwise.
    pub fn alive(&self) -> Vec<bool> {
        self.shared.alive.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// Register an additional global PML hook (before launching).
    pub fn add_global_hook(&self, hook: Arc<dyn PmlHook>) {
        self.shared.global_hooks.write().push(hook);
    }

    /// Job configuration.
    pub fn config(&self) -> &UniverseConfig {
        &self.shared.cfg
    }

    /// Run every rank body to completion — one OS thread per rank, or M:N
    /// rank tasks on a worker pool, per `cfg.executor` — and pair each
    /// rank's result with its own panic payload (by rank index).  The
    /// shared engine under both [`Universe::launch`] (strict) and
    /// [`Universe::launch_faulty`] (recoverable).
    fn run_collect<F, R>(&self, f: F) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        self.run_bodies(|world_rank, shared, rx, slot: &mut Option<R>| {
            let rank = Rank::new(world_rank, shared, rx);
            *slot = Some(f(&rank));
        })
    }

    /// The slot-body engine under [`Universe::run_collect`] and
    /// [`Universe::launch_elastic`]: run one `body` per slot (thread-per-rank
    /// or M:N tasks, per `cfg.executor`), pairing each slot's result with
    /// its own panic payload (by slot index).
    fn run_bodies<B, R>(&self, body: B) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
    where
        B: Fn(usize, Arc<Shared>, Receiver<Envelope>, &mut Option<R>) + Sync,
        R: Send,
    {
        let receivers = self.receivers.lock().take().expect("a universe can only be launched once");
        let n = receivers.len();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let payloads = match &self.shared.exec {
            Some(exec) => {
                let exec = Arc::clone(exec);
                self.run_ranks_as_tasks(&exec, &body, receivers, &mut results)
            }
            None => self.run_ranks_as_threads(&body, receivers, &mut results),
        };
        if let Some(t) = &self.shared.cfg.tracer {
            t.flush();
        }
        results
            .into_iter()
            .zip(payloads)
            .map(|(r, p)| match p {
                Some(payload) => Err(payload),
                None => Ok(r.expect("rank produced no result")),
            })
            .collect()
    }

    /// Thread-per-rank engine: spawn `n` scoped OS threads and join them.
    fn run_ranks_as_threads<B, R>(
        &self,
        body: &B,
        receivers: Vec<Receiver<Envelope>>,
        results: &mut [Option<R>],
    ) -> Vec<Option<Box<dyn std::any::Any + Send>>>
    where
        B: Fn(usize, Arc<Shared>, Receiver<Envelope>, &mut Option<R>) + Sync,
        R: Send,
    {
        let n = receivers.len();
        let mut payloads: Vec<Option<Box<dyn std::any::Any + Send>>> =
            (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (world_rank, (rx, slot)) in
                receivers.into_iter().zip(results.iter_mut()).enumerate()
            {
                let shared = Arc::clone(&self.shared);
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{world_rank}"))
                    .stack_size(self.shared.cfg.stack_size)
                    .spawn_scoped(scope, move || body(world_rank, shared, rx, slot))
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            for (i, h) in handles.into_iter().enumerate() {
                if let Err(p) = h.join() {
                    payloads[i] = Some(p);
                }
            }
        });
        payloads
    }

    /// M:N engine: wrap each rank body in a fiber task and run the lot on a
    /// fixed work-stealing worker pool (`crate::exec`).  Blocking receives
    /// park the rank's *task* (the mailbox holds its `ParkerHandle`), so a
    /// handful of workers can carry a 10k-rank universe.
    fn run_ranks_as_tasks<B, R>(
        &self,
        exec: &Arc<ExecShared>,
        body: &B,
        receivers: Vec<Receiver<Envelope>>,
        results: &mut [Option<R>],
    ) -> Vec<Option<Box<dyn std::any::Any + Send>>>
    where
        B: Fn(usize, Arc<Shared>, Receiver<Envelope>, &mut Option<R>) + Sync,
        R: Send,
    {
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(receivers.len());
        for (world_rank, (rx, slot)) in receivers.into_iter().zip(results.iter_mut()).enumerate() {
            let shared = Arc::clone(&self.shared);
            let task: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || body(world_rank, shared, rx, slot));
            // SAFETY: lifetime erasure only.  `exec::run_tasks` joins its
            // worker pool (a `thread::scope`) before returning, and every
            // fiber — run or not — is dropped inside it, so no task (and no
            // borrow of `body` or `results` it captures) outlives this call.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            bodies.push(task);
        }
        exec::run_tasks(exec, bodies, self.shared.cfg.task_stack_size, self.shared.cfg.deadline)
    }

    /// Run `f` once per rank, each on its own thread, and collect the
    /// per-rank results in rank order.
    ///
    /// # Panics
    /// Panics if any rank panics (the first panic is propagated), or when
    /// called a second time on the same universe.
    pub fn launch<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        let mut results = Vec::new();
        let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
        for r in self.run_collect(f) {
            match r {
                Ok(v) => results.push(v),
                Err(p) => panics.push(p),
            }
        }
        if !panics.is_empty() {
            // A plan-scheduled crash is an error in strict mode: report it
            // in the clear instead of unwinding an internal payload.
            for p in &panics {
                if let Some(c) = p.downcast_ref::<fault::RankCrashed>() {
                    panic!(
                        "rank {} crashed by fault injection at {:.0} ns after {} wire ops \
                         (use Universe::launch_faulty to recover)",
                        c.world, c.at_ns, c.ops
                    );
                }
            }
            // Prefer the first payload that is not a secondary
            // `RankAborted` cascade, so the launcher reports the root cause
            // (e.g. a deadlock diagnosis) rather than a send-to-dead-rank
            // symptom from a surviving rank.
            let pos = panics.iter().position(|p| !(**p).is::<RankAborted>()).unwrap_or(0);
            let payload = panics.swap_remove(pos);
            match payload.downcast::<RankAborted>() {
                // Every failing rank was a cascade: the peer exited early
                // *without* panicking, so describe that instead.
                Ok(ab) => panic!(
                    "rank {} sent to rank {}, whose thread had already \
                     exited without receiving (and without panicking)",
                    ab.src, ab.dst
                ),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        results
    }

    /// Like [`Universe::launch`], but failures are *data*: each rank yields
    /// `Ok(result)` or the [`RankFailure`] that took it down, and a send to
    /// a dead rank's mailbox drops silently instead of unwinding the sender.
    /// Survivors keep their results even when peers die — the recoverable
    /// mode the self-healing reorder loop runs under.
    pub fn launch_faulty<F, R>(&self, f: F) -> Vec<Result<R, RankFailure>>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        self.shared.faulty.store(true, Ordering::Relaxed);
        self.run_collect(f).into_iter().map(|r| r.map_err(RankFailure::classify)).collect()
    }

    /// Elastic launch: [`Universe::launch_faulty`] plus membership churn.
    ///
    /// Three behaviors stack on top of the recoverable mode:
    ///
    /// - **Rolling restarts.**  A rank crashed by the plan whose
    ///   [`FaultInjector::restart_after_crash`] says so is reborn in place:
    ///   same world rank, incarnation + 1, fresh clock and mailbox, and `f`
    ///   runs again (`Rank::incarnation` distinguishes the rebirth).  Its
    ///   rebirth broadcasts a join notice peers consume with
    ///   [`Rank::await_rejoin`].
    /// - **Latent joiners.**  Slots reserved by
    ///   [`UniverseConfig::with_latent_ranks`] park until a sponsor admits
    ///   them ([`Rank::admit`] or the plan's [`FaultInjector::join_plan`]);
    ///   an admitted slot runs `f` with [`Rank::join_comm`] set to the
    ///   communicator it was admitted into.  When the sponsor (world rank 0)
    ///   finishes, every slot never admitted is retired and yields
    ///   `Ok(None)`.
    /// - **Stale-epoch hygiene.**  In-flight messages addressed to a dead
    ///   incarnation are dropped deterministically (see
    ///   [`Rank::stale_dropped`]), and [`Rank::send_checked`] rejects sends
    ///   on superseded communicators.
    ///
    /// Each completed rank yields `Ok(Some(result))`; a rank that died for
    /// good yields `Err(RankFailure)`.
    pub fn launch_elastic<F, R>(&self, f: F) -> Vec<Result<Option<R>, RankFailure>>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        self.shared.faulty.store(true, Ordering::Relaxed);
        self.run_bodies(|world_rank, shared, rx, slot: &mut Option<Option<R>>| {
            elastic_rank_body(world_rank, shared, rx, &f, slot);
        })
        .into_iter()
        .map(|r| r.map_err(RankFailure::classify))
        .collect()
    }
}

/// Per-slot driver of [`Universe::launch_elastic`]: the restart loop of an
/// initial rank, or the parked wait of a latent one.
fn elastic_rank_body<F, R>(
    world_rank: usize,
    shared: Arc<Shared>,
    rx: Receiver<Envelope>,
    f: &F,
    slot: &mut Option<Option<R>>,
) where
    F: Fn(&Rank) -> R + Sync,
    R: Send,
{
    let mut join = None;
    let mut peer_incs = Vec::new();
    let mut stash = Vec::new();
    if world_rank >= shared.cfg.initial() {
        // Latent slot: no `Rank` exists yet — park on the raw channel until
        // the sponsor's admission (or retirement) notice arrives.
        match wait_for_admission(world_rank, &shared, &rx) {
            Some((comm, at, incs, pre)) => {
                join = Some((comm, at));
                peer_incs = incs;
                stash = pre;
            }
            None => {
                *slot = Some(None);
                return;
            }
        }
    }
    let mut incarnation = 0u32;
    loop {
        let rank =
            Rank::new_with(world_rank, Arc::clone(&shared), rx.clone(), incarnation, join.clone());
        // The admission notice carried the members' incarnations: without
        // them, envelopes toward a previously-reborn peer would be stamped
        // `dst_inc 0` and stale-dropped by its mailbox.
        if let Some((comm, _)) = &join {
            rank.adopt_incarnations(comm.group(), &peer_incs);
        }
        // Messages that raced ahead of the admission notice were stashed by
        // the parked wait; re-admit them before the first receive.
        for env in stash.drain(..) {
            rank.mailbox.borrow_mut().readmit(env);
        }
        if incarnation > 0 {
            rank.announce_rejoin();
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&rank))) {
            Ok(v) => {
                if world_rank == 0 {
                    rank.retire_latents();
                }
                *slot = Some(Some(v));
                return;
            }
            Err(payload) => {
                let restart = payload.downcast_ref::<fault::RankCrashed>().is_some()
                    && shared
                        .cfg
                        .injector
                        .as_ref()
                        .is_some_and(|inj| inj.restart_after_crash(world_rank, incarnation));
                if !restart {
                    std::panic::resume_unwind(payload);
                }
                incarnation += 1;
            }
        }
    }
}

/// Park a latent slot on its raw channel until the sponsor's verdict:
/// `Some((comm, arrival_ns, incarnations, stash))` when admitted — `stash`
/// holding, in arrival order, every envelope that raced ahead of the
/// admission notice — `None` when retired.  The mailbox is allocated
/// lazily, right here — a never-admitted slot never owns a `Rank`, a clock
/// or a trace track.
fn wait_for_admission(
    world_rank: usize,
    shared: &Arc<Shared>,
    rx: &Receiver<Envelope>,
) -> Option<(Comm, f64, Vec<u32>, Vec<Envelope>)> {
    let mut mb = Mailbox::new(rx.clone(), shared.cfg.deadline);
    if let Some(exec) = &shared.exec {
        mb.set_parker(exec.parker(world_rank));
    }
    let admit = fault_pat(mailbox::SrcSel::Any, fault::FAULT_TAG_ADMIT);
    let retire = fault_pat(mailbox::SrcSel::Any, fault::FAULT_TAG_RETIRE);
    match mb.recv_first(&[&admit, &retire]) {
        Ok((env, 0)) => {
            let (comm, incs) = decode_admission(&env.payload, world_rank);
            Some((comm, env.arrival_ns, incs, mb.drain_unexpected()))
        }
        Ok(_) => None,
        Err(e) => panic!(
            "latent rank {world_rank}: neither admitted nor retired before the deadline \
             ({e:?}); an elastic run must admit or retire every latent slot"
        ),
    }
}

/// The one fault-protocol receive pattern: control notices travel on the
/// reserved communicator and context, and every receiver names the notice
/// it waits for by tag — a wildcard tag would consume a queued notice of
/// another kind as if it were the awaited one.
fn fault_pat(src: mailbox::SrcSel, tag: u32) -> MatchPattern {
    MatchPattern { comm_id: fault::FAULT_COMM, ctx: Ctx::Fault, src, tag: TagSel::Is(tag) }
}

/// Derive a grown communicator's identity: like `comm_shrink`'s id fold but
/// over the joiner list (plus a marker so a grow and a shrink of the same
/// parent can never collide), with the top bit set to keep derived ids out
/// of the allocator's range.  Purely local and deterministic: every member
/// folding the same `(parent, joiners)` derives the same communicator.
fn grow_comm_parts(parent: &Comm, joiners: &[usize]) -> (u64, Vec<usize>, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ parent.id() ^ 0x6772_6f77; // "grow"
    h ^= parent.epoch().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (i, &j) in joiners.iter().enumerate() {
        h = (h ^ (((i as u64) << 32) | j as u64)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let id = h | (1 << 63);
    let mut group: Vec<usize> = parent.group().to_vec();
    group.extend_from_slice(joiners);
    (id, group, parent.epoch() + 1)
}

/// Serialize a communicator for the wire (admission notices): little-endian
/// `[id, epoch, len, members..., incarnations...]`, all `u64`.  The
/// incarnation vector is what lets a joiner address peers that have been
/// reborn: without it, its envelopes toward a restarted rank would carry
/// `dst_inc 0` and be dropped as stale by the newer incarnation's mailbox.
fn encode_comm(comm_id: u64, epoch: u64, group: &[usize], incs: &[u32]) -> Vec<u8> {
    assert_eq!(group.len(), incs.len(), "one incarnation per member");
    let mut b = Vec::with_capacity(8 * (3 + 2 * group.len()));
    b.extend_from_slice(&comm_id.to_le_bytes());
    b.extend_from_slice(&epoch.to_le_bytes());
    b.extend_from_slice(&(group.len() as u64).to_le_bytes());
    for &w in group {
        b.extend_from_slice(&(w as u64).to_le_bytes());
    }
    for &inc in incs {
        b.extend_from_slice(&u64::from(inc).to_le_bytes());
    }
    b
}

/// Inverse of [`encode_comm`], positioned at `my_world`'s communicator rank.
fn decode_admission(payload: &Payload, my_world: usize) -> (Comm, Vec<u32>) {
    let Payload::Bytes(b) = payload else {
        panic!("admission notice must carry a serialized communicator");
    };
    assert!(b.len() >= 24 && b.len() % 8 == 0, "malformed admission payload");
    let word = |i: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&b[8 * i..8 * i + 8]);
        u64::from_le_bytes(w)
    };
    let id = word(0);
    let epoch = word(1);
    let len = word(2) as usize;
    assert_eq!(b.len(), 8 * (3 + 2 * len), "malformed admission payload");
    let group: Vec<usize> = (0..len).map(|i| word(3 + i) as usize).collect();
    let incs: Vec<u32> = (0..len).map(|i| word(3 + len + i) as u32).collect();
    let Some(my_rank) = group.iter().position(|&w| w == my_world) else {
        panic!("admission notice for rank {my_world} does not include it (group {group:?})");
    };
    (Comm::new_at_epoch(id, Group::new(group), my_rank, epoch), incs)
}

/// Parse the incarnation carried by a join notice.
fn decode_incarnation(payload: &Payload) -> u32 {
    let Payload::Bytes(b) = payload else {
        panic!("join notice must carry an incarnation");
    };
    assert_eq!(b.len(), 4, "malformed join notice");
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
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

/// Error of [`Rank::send_checked`]: the communicator's membership was
/// superseded (the sender has derived or been admitted into a newer epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleEpoch {
    /// Epoch of the communicator the send was attempted on.
    pub comm_epoch: u64,
    /// The sender's current membership epoch.
    pub current_epoch: u64,
}

impl std::fmt::Display for StaleEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale membership epoch: communicator at epoch {}, rank at epoch {}",
            self.comm_epoch, self.current_epoch
        )
    }
}

/// Per-rank handle: the owning thread's view of the job.
///
/// All communication goes through methods of this type.  `Rank` is neither
/// `Send` nor `Sync`: it lives and dies on its rank's thread, like an MPI
/// process.
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
    coll_seq: RefCell<HashMap<u64, u32>>,
    /// This rank's flight-recorder track (`None` when tracing is off).
    trace: Option<TraceHandle>,
    /// Id of the innermost open collective span, stamped onto the `Send`
    /// events its decomposition produces (attribution, paper §3).
    active_coll: Cell<Option<u64>>,
    /// Per-rank collective-span id allocator.
    next_coll_span: Cell<u64>,
    /// The installed fault injector, cloned out of the config for
    /// branch-cheap access on the wire paths.
    injector: Option<Arc<dyn FaultInjector>>,
    /// Wire operations completed (sends + receives), the op-count frame of
    /// [`CrashPoint::OpCount`].  Only advanced when an injector is present.
    ops: Cell<u64>,
    /// Retransmissions this rank issued (drop faults recovered by backoff).
    retries: Cell<u64>,
    /// Next wire sequence per destination world rank (duplicate dedup).
    link_op: RefCell<HashMap<usize, u64>>,
    /// Peers whose death notices this rank has consumed: world rank → the
    /// virtual time of death carried by the notice.
    failed_peers: RefCell<HashMap<usize, f64>>,
    /// This body's incarnation: 0 for the original, bumped by each
    /// plan-covered rebirth (`launch_elastic`'s restart loop).
    incarnation: u32,
    /// Latest incarnation observed per peer (via join notices consumed by
    /// `await_rejoin`); stamped onto outgoing envelopes as `dst_inc`.
    peer_inc: RefCell<HashMap<usize, u32>>,
    /// Highest communicator epoch this rank has derived or been admitted
    /// into; `send_checked` rejects sends on communicators older than this.
    membership_epoch: Cell<u64>,
    /// The communicator a latent joiner was admitted into (`None` for
    /// initial-world ranks).
    join_comm: Option<Comm>,
    /// The plan's join schedule with per-entry fired flags (fetched once;
    /// only the sponsor's original incarnation consults it).
    join_plan: RefCell<Vec<(usize, u64, bool)>>,
}

impl Rank {
    fn new(world_rank: usize, shared: Arc<Shared>, rx: Receiver<Envelope>) -> Self {
        Self::new_with(world_rank, shared, rx, 0, None)
    }

    /// Full constructor (elastic universes): `incarnation > 0` builds a
    /// reborn body (its track is `rankN.I` and its mailbox filters stale
    /// incarnations), and `join` carries a latent joiner's admission — the
    /// grown communicator plus the notice's arrival time, which seeds the
    /// joiner's clock.
    fn new_with(
        world_rank: usize,
        shared: Arc<Shared>,
        rx: Receiver<Envelope>,
        incarnation: u32,
        join: Option<(Comm, f64)>,
    ) -> Self {
        let deadline = shared.cfg.deadline;
        let core = shared.core_of(world_rank);
        let track = if incarnation > 0 {
            format!("rank{world_rank}.{incarnation}")
        } else {
            format!("rank{world_rank}")
        };
        let trace = shared.cfg.tracer.as_ref().map(|t| t.track(track));
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
        let injector = shared.cfg.injector.clone();
        let join_plan: Vec<(usize, u64, bool)> = if world_rank == 0 && incarnation == 0 {
            injector
                .as_ref()
                .map_or_else(Vec::new, |inj| inj.join_plan())
                .into_iter()
                .map(|(j, at)| (j, at, false))
                .collect()
        } else {
            Vec::new()
        };
        let (join_comm, joined_at) = match join {
            Some((c, at_ns)) => (Some(c), at_ns),
            None => (None, 0.0),
        };
        let epoch0 = join_comm.as_ref().map_or(0, Comm::epoch);
        let rank = Self {
            world_rank,
            core,
            shared,
            clock: Rc::new(VirtualClock::new()),
            mailbox: RefCell::new(mailbox),
            local_hooks: RefCell::new(LocalHooks::default()),
            coll_seq: RefCell::new(HashMap::new()),
            trace,
            active_coll: Cell::new(None),
            next_coll_span: Cell::new(0),
            injector,
            ops: Cell::new(0),
            retries: Cell::new(0),
            link_op: RefCell::new(HashMap::new()),
            failed_peers: RefCell::new(HashMap::new()),
            incarnation,
            peer_inc: RefCell::new(HashMap::new()),
            membership_epoch: Cell::new(epoch0),
            join_comm,
            join_plan: RefCell::new(join_plan),
        };
        if rank.join_comm.is_some() {
            // A joiner's clock starts at its admission, and its track opens
            // with the join event.
            rank.clock.advance_to(joined_at);
            rank.record_trace(joined_at, TraceData::RankJoin { incarnation: 0 });
        }
        rank
    }

    // ----- identity & time --------------------------------------------------

    /// This process's world rank.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Number of ranks in the initial world (`MPI_COMM_WORLD`).  Latent
    /// joiners admitted later are *not* counted; see [`Rank::capacity`].
    pub fn world_size(&self) -> usize {
        self.shared.cfg.initial()
    }

    /// Number of rank slots in the universe: the initial world plus every
    /// latent slot, admitted or not.
    pub fn capacity(&self) -> usize {
        self.shared.cfg.nprocs()
    }

    /// This body's incarnation: 0 for the original; a rolling-restart plan
    /// bumps it on each rebirth (`Universe::launch_elastic`).
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// The communicator this rank was admitted into, when it joined after
    /// launch (`None` for initial-world ranks).
    pub fn join_comm(&self) -> Option<Comm> {
        self.join_comm.clone()
    }

    /// Highest membership epoch this rank has derived or observed (see
    /// [`Rank::send_checked`]).
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch.get()
    }

    /// Envelopes this rank's mailbox dropped because they were addressed to
    /// a dead incarnation of this slot, or sent by a superseded incarnation
    /// of a peer.
    pub fn stale_dropped(&self) -> u64 {
        self.mailbox.borrow().stale_dropped()
    }

    /// Core hosting this process.
    pub fn core(&self) -> usize {
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

    // ----- PML hooks ---------------------------------------------------------

    /// Register a per-rank PML hook (used by the monitoring library).
    pub fn add_local_hook(&self, hook: Rc<dyn LocalPmlHook>) -> LocalHookHandle {
        self.local_hooks.borrow_mut().add(hook)
    }

    /// Remove a previously registered hook; returns whether it existed.
    pub fn remove_local_hook(&self, handle: LocalHookHandle) -> bool {
        self.local_hooks.borrow_mut().remove(handle)
    }

    // ----- fault machinery ---------------------------------------------------

    /// Wire-operation prologue: fire the plan's due joins (sponsor only)
    /// and its crash point, else count the op.  A no-op (ops stay 0)
    /// without an injector.  Both churn triggers are gated on
    /// `incarnation == 0`: a reborn body must not re-fire the crash that
    /// killed its predecessor, and the join schedule fires once per run.
    fn pre_op(&self) {
        let Some(inj) = &self.injector else { return };
        if self.incarnation == 0 {
            if self.world_rank == 0 {
                self.fire_due_joins();
            }
            if let Some(cp) = inj.crash_point(self.world_rank) {
                let due = match cp {
                    CrashPoint::OpCount(n) => self.ops.get() >= n,
                    CrashPoint::VirtualTimeNs(t) => self.clock.now_ns() >= t,
                };
                if due {
                    self.crash_now();
                }
            }
        }
        self.ops.set(self.ops.get() + 1);
    }

    /// The sponsor's half of the plan's join schedule: send the admission
    /// notice for every entry whose op-count threshold this rank has
    /// reached.  Admission timing is a pure function of the sponsor's op
    /// count — the dual of [`CrashPoint::OpCount`] — so a seeded plan's
    /// membership churn replays byte-identically.  The notice carries the
    /// initial world grown by the joiner; members construct the identical
    /// communicator with [`Rank::comm_grow`].
    fn fire_due_joins(&self) {
        let due: Vec<usize> = {
            let mut plan = self.join_plan.borrow_mut();
            if plan.is_empty() {
                return;
            }
            let ops = self.ops.get();
            plan.iter_mut()
                .filter(|(_, at, fired)| !*fired && ops >= *at)
                .map(|e| {
                    e.2 = true;
                    e.0
                })
                .collect()
        };
        for joiner in due {
            let world = self.comm_world();
            let (id, group, epoch) = grow_comm_parts(&world, &[joiner]);
            self.post_admission(id, epoch, &group, joiner);
        }
    }

    /// Kill this rank: mark it dead, broadcast death notices so peers
    /// blocked in [`Rank::recv_or_failure`] get a deterministic failure
    /// signal (per-sender FIFO guarantees data sent before the crash is
    /// still consumed first), and unwind with a typed payload that
    /// `launch_faulty` maps to [`RankFailure::Crashed`].  `resume_unwind`
    /// skips the panic hook, so a scheduled crash is silent on stderr.
    fn crash_now(&self) -> ! {
        let now = self.clock.now_ns();
        let ops = self.ops.get();
        self.shared.alive[self.world_rank].store(false, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.record(now, TraceData::RankCrash { ops });
        }
        for dst in 0..self.capacity() {
            if dst == self.world_rank {
                continue;
            }
            let env = Envelope {
                src_world: self.world_rank,
                dst_world: dst,
                comm_id: fault::FAULT_COMM,
                ctx: Ctx::Fault,
                tag: fault::FAULT_TAG_DEATH,
                kind: MsgKind::P2pUser,
                payload: Payload::Synthetic(0),
                sent_at_ns: now,
                arrival_ns: now,
                wire_seq: None,
                src_inc: self.incarnation,
                dst_inc: 0,
            };
            let _ = self.shared.post(dst, env);
        }
        std::panic::resume_unwind(Box::new(fault::RankCrashed {
            world: self.world_rank,
            at_ns: now,
            ops,
        }));
    }

    /// Send a fault-protocol control message (no payload, no PML hooks, no
    /// tracing, no injection — the failure detector must stay deterministic
    /// under the very plan it observes).
    fn fault_send(&self, dst_world: usize, tag: u32) {
        self.fault_send_payload(dst_world, tag, Payload::Synthetic(0));
    }

    /// [`Rank::fault_send`] with an explicit payload (join and admission
    /// notices carry data: an incarnation, a serialized communicator).
    fn fault_send_payload(&self, dst_world: usize, tag: u32, payload: Payload) {
        self.clock.tick(self.shared.cfg.send_overhead_ns);
        let now = self.clock.now_ns();
        let dst_core = self.shared.core_of(dst_world);
        let alpha = self.shared.cfg.machine.link_params(self.core, dst_core).alpha_ns;
        let env = Envelope {
            src_world: self.world_rank,
            dst_world,
            comm_id: fault::FAULT_COMM,
            ctx: Ctx::Fault,
            tag,
            kind: MsgKind::P2pUser,
            payload,
            sent_at_ns: now,
            arrival_ns: now + alpha,
            wire_seq: None,
            src_inc: self.incarnation,
            dst_inc: 0,
        };
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

    /// The newest incarnation this rank knows for a peer (0 until a join or
    /// admission notice reports otherwise).
    fn peer_incarnation_of(&self, world: usize) -> u32 {
        self.peer_inc.borrow().get(&world).copied().unwrap_or(0)
    }

    // ----- elastic membership ------------------------------------------------

    /// A reborn body's prologue: come back alive and broadcast a join
    /// notice (carrying the new incarnation) to every slot — the dual of
    /// `crash_now`'s death notices.  Survivors consume it with
    /// [`Rank::await_rejoin`].
    pub(crate) fn announce_rejoin(&self) {
        self.shared.alive[self.world_rank].store(true, Ordering::Relaxed);
        self.record_trace(
            self.clock.now_ns(),
            TraceData::RankJoin { incarnation: self.incarnation },
        );
        for dst in 0..self.capacity() {
            if dst == self.world_rank {
                continue;
            }
            self.fault_send_payload(
                dst,
                fault::FAULT_TAG_JOIN,
                Payload::Bytes(self.incarnation.to_le_bytes().to_vec()),
            );
        }
    }

    /// Wait for the join notice of a peer expected to restart: returns its
    /// new incarnation, forgets its death, and from now on stamps outgoing
    /// envelopes to it with the new incarnation — the dual of
    /// [`Rank::recv_or_failure`]'s death path.
    ///
    /// # Panics
    /// Panics (deadlock detector) when no join notice arrives within the
    /// configured deadline.
    pub fn await_rejoin(&self, world: usize) -> u32 {
        let pat = fault_pat(mailbox::SrcSel::World(world), fault::FAULT_TAG_JOIN);
        let env = self.mailbox.borrow_mut().recv_match(&pat);
        self.clock.advance_to(env.arrival_ns);
        let inc = decode_incarnation(&env.payload);
        self.peer_inc.borrow_mut().insert(world, inc);
        self.failed_peers.borrow_mut().remove(&world);
        inc
    }

    /// Wait for an admission notice and return the grown communicator it
    /// carries — the joiner half of [`Rank::admit`] /
    /// [`Rank::send_admission`].  Used by a *reborn* rank to learn the
    /// communicator its survivors grew for it; a latent slot's first
    /// admission is consumed before the rank body even runs (its result is
    /// [`Rank::join_comm`]).
    pub fn recv_admission(&self) -> Comm {
        let pat = fault_pat(mailbox::SrcSel::Any, fault::FAULT_TAG_ADMIT);
        let env = self.mailbox.borrow_mut().recv_match(&pat);
        self.clock.advance_to(env.arrival_ns);
        let (comm, incs) = decode_admission(&env.payload, self.world_rank);
        self.adopt_incarnations(comm.group(), &incs);
        self.note_epoch(comm.epoch());
        comm
    }

    /// Adopt the peer-incarnation vector carried by an admission notice, so
    /// envelopes toward previously-reborn members are stamped correctly.
    /// Never lowers a known incarnation (a join notice may already have
    /// reported a newer one).
    fn adopt_incarnations(&self, group: &[usize], incs: &[u32]) {
        let mut peers = self.peer_inc.borrow_mut();
        for (&w, &inc) in group.iter().zip(incs) {
            if w != self.world_rank && inc > peers.get(&w).copied().unwrap_or(0) {
                peers.insert(w, inc);
            }
        }
    }

    /// Send an admission notice for a grown communicator to a joiner
    /// (fault-protocol traffic: no monitoring, no injection).  The grown
    /// communicator must include the joiner.  Admission of *latent* slots
    /// should be driven by the sponsor (world rank 0) so it cannot race the
    /// sponsor's end-of-run retirement sweep.
    pub fn send_admission(&self, grown: &Comm, joiner: usize) {
        assert!(
            grown.contains_world(joiner),
            "admission notice must cover the joiner (rank {joiner} not in {:?})",
            grown.group()
        );
        self.post_admission(grown.id(), grown.epoch(), grown.group(), joiner);
    }

    fn post_admission(&self, id: u64, epoch: u64, group: &[usize], joiner: usize) {
        self.shared.admitted[joiner].store(true, Ordering::SeqCst);
        let incs: Vec<u32> = {
            let peers = self.peer_inc.borrow();
            group
                .iter()
                .map(|&w| {
                    if w == self.world_rank {
                        self.incarnation
                    } else {
                        peers.get(&w).copied().unwrap_or(0)
                    }
                })
                .collect()
        };
        self.fault_send_payload(
            joiner,
            fault::FAULT_TAG_ADMIT,
            Payload::Bytes(encode_comm(id, epoch, group, &incs)),
        );
    }

    /// Retire every latent slot never admitted (the sponsor's epilogue in
    /// `launch_elastic`: a parked slot would otherwise wait out the
    /// deadline).  Idempotent per slot.
    pub(crate) fn retire_latents(&self) {
        for w in self.shared.cfg.initial()..self.capacity() {
            if !self.shared.admitted[w].swap(true, Ordering::SeqCst) {
                self.fault_send(w, fault::FAULT_TAG_RETIRE);
            }
        }
    }

    /// Raise this rank's membership-epoch watermark.
    fn note_epoch(&self, epoch: u64) {
        if epoch > self.membership_epoch.get() {
            self.membership_epoch.set(epoch);
        }
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
        // ordered variant lives in `schedule::evaluate_contended`.
        let link = self.shared.cfg.machine.link_params(self.core, dst_core);
        let mut beta = link.beta_ns_per_byte;
        let mut extra_delay = 0.0;
        let mut duplicates = 0u32;
        let mut wire_seq = None;
        if let Some(inj) = &self.injector {
            self.pre_op();
            let scale = inj.link_bandwidth_scale(self.world_rank, dst_world);
            if scale != 1.0 {
                beta /= scale;
            }
            let op_index = {
                let mut link_op = self.link_op.borrow_mut();
                let next = link_op.entry(dst_world).or_insert(0);
                let i = *next;
                *next += 1;
                i
            };
            wire_seq = Some(op_index);
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
                        extra_delay = extra_delay_ns;
                        duplicates = d;
                        break;
                    }
                    SendOutcome::Drop => {
                        if attempt + 1 >= fault::RETRY_MAX_ATTEMPTS {
                            break;
                        }
                        let backoff = fault::backoff_ns(attempt);
                        self.clock
                            .tick(self.shared.cfg.send_overhead_ns + beta * bytes as f64 + backoff);
                        self.retries.set(self.retries.get() + 1);
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
        }
        let busy = beta * bytes as f64;
        self.clock.tick(self.shared.cfg.send_overhead_ns + busy);
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
        let env = Envelope {
            src_world: self.world_rank,
            dst_world,
            comm_id: comm.id(),
            ctx,
            tag,
            kind,
            payload,
            sent_at_ns: sent_at,
            arrival_ns: sent_at + cost + extra_delay,
            wire_seq,
            src_inc: self.incarnation,
            dst_inc: self.peer_inc.borrow().get(&dst_world).copied().unwrap_or(0),
        };
        // Duplicate-delivery faults: extra copies trail the primary by one
        // latency each; the receiver's sequence filter drops every copy
        // after the first it sees.  They carry no PML/trace events — the
        // logical message was already recorded once.
        let dups: Vec<Envelope> = (0..duplicates)
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
        for h in self.shared.global_hooks.read().iter() {
            h.on_send(ev);
        }
    }

    pub(crate) fn wire_recv(&self, comm: &Comm, src: SrcSel, tag: TagSel, ctx: Ctx) -> Envelope {
        let src_sel = match src {
            SrcSel::Any => mailbox::SrcSel::Any,
            SrcSel::Rank(r) => mailbox::SrcSel::World(comm.world_rank_of(r)),
        };
        let pat = MatchPattern { comm_id: comm.id(), ctx, src: src_sel, tag };
        self.mailbox_recv(&pat)
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
    fn finish_recv(&self, env: Envelope, uq_depth: usize) -> Envelope {
        self.clock.advance_to(env.arrival_ns);
        self.clock.tick(self.shared.cfg.recv_overhead_ns);
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

    /// Nonblocking probe against a raw pattern (no time cost).
    pub(crate) fn mailbox_iprobe(&self, pat: &MatchPattern) -> bool {
        self.mailbox.borrow_mut().iprobe(pat)
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

    /// Epoch-checked send: like [`Rank::send`], but deterministically
    /// rejected when `comm`'s membership has been superseded by a
    /// `comm_shrink` / `comm_grow` this rank performed or observed.  The
    /// check is sender-side and purely local, so a stale send fails the
    /// same way on every executor and every run — rather than being
    /// misdelivered into a communicator whose membership has moved on.
    pub fn send_checked<T: Scalar>(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u32,
        data: &[T],
    ) -> Result<(), StaleEpoch> {
        if comm.epoch() < self.membership_epoch.get() {
            return Err(StaleEpoch {
                comm_epoch: comm.epoch(),
                current_epoch: self.membership_epoch.get(),
            });
        }
        self.send(comm, dst, tag, data);
        Ok(())
    }

    /// Send a size-only synthetic message (classified as user p2p traffic).
    pub fn send_synthetic(&self, comm: &Comm, dst: usize, tag: u32, bytes: u64) {
        self.wire_send(comm, dst, tag, Ctx::Pt2pt, MsgKind::P2pUser, Payload::Synthetic(bytes));
    }

    /// Receive a synthetic message; returns its status.
    pub fn recv_synthetic(&self, comm: &Comm, src: SrcSel, tag: TagSel) -> Status {
        status_of(comm, &self.wire_recv(comm, src, tag, Ctx::Pt2pt))
    }

    /// Combined send + receive (safe under the eager-send model).
    pub fn sendrecv<T: Scalar>(
        &self,
        comm: &Comm,
        dst: usize,
        send_tag: u32,
        data: &[T],
        src: SrcSel,
        recv_tag: TagSel,
    ) -> (Vec<T>, Status) {
        self.send(comm, dst, send_tag, data);
        self.recv(comm, src, recv_tag)
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
        let data = MatchPattern {
            comm_id: comm.id(),
            ctx,
            src: mailbox::SrcSel::World(src_world),
            tag: TagSel::Is(tag),
        };
        let known_dead = self.failed_peers.borrow().get(&src_world).copied();
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
            self.failed_peers.borrow_mut().insert(src_world, env.sent_at_ns);
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
            let failed = self.failed_peers.borrow();
            for (r, a) in alive.iter_mut().enumerate() {
                if r != me && failed.contains_key(&comm.world_rank_of(r)) {
                    *a = false;
                }
            }
        }
        for (r, &a) in alive.iter().enumerate() {
            if r != me && a {
                self.fault_send(comm.world_rank_of(r), fault::FAULT_TAG_PING);
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

    /// ULFM-style `MPI_Comm_shrink`, purely local: derive the surviving
    /// sub-communicator from a liveness bitmap (indexed by `comm` rank).
    /// Every survivor folds the same `(parent id, bitmap)` into the same
    /// derived id, so no collective round over a half-dead communicator is
    /// needed; the top bit keeps derived ids out of the allocator's range.
    pub fn comm_shrink(&self, comm: &Comm, alive: &[bool]) -> Comm {
        assert_eq!(alive.len(), comm.size(), "liveness bitmap must cover the communicator");
        assert!(alive[comm.rank()], "a dead rank cannot shrink a communicator");
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ comm.id();
        for (i, &a) in alive.iter().enumerate() {
            h = (h ^ (((i as u64) << 1) | u64::from(a))).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let id = h | (1 << 63);
        let group: Vec<usize> =
            (0..comm.size()).filter(|&r| alive[r]).map(|r| comm.world_rank_of(r)).collect();
        let my_rank = (0..comm.rank()).filter(|&r| alive[r]).count();
        let epoch = comm.epoch() + 1;
        self.note_epoch(epoch);
        let shrunk = Comm::new_at_epoch(id, Group::new(group), my_rank, epoch);
        self.record_trace(
            self.clock.now_ns(),
            TraceData::EpochBump { comm: shrunk.id(), epoch, size: shrunk.size() },
        );
        shrunk
    }

    /// The dual of [`Rank::comm_shrink`]: grow a communicator by admitted
    /// joiners, purely locally.  Every member folds the same
    /// `(parent id, parent epoch, joiners)` into the same derived id, so no
    /// collective round is needed; joiners are appended after the parent's
    /// order, sorted by world rank.  Bumps this rank's membership epoch:
    /// [`Rank::send_checked`] traffic against the parent is rejected from
    /// here on.
    pub fn comm_grow(&self, comm: &Comm, joiners: &[usize]) -> Comm {
        assert!(!joiners.is_empty(), "comm_grow needs at least one joiner");
        let mut js = joiners.to_vec();
        js.sort_unstable();
        js.dedup();
        for &j in &js {
            assert!(j < self.capacity(), "comm_grow: joiner {j} is outside the universe");
            assert!(!comm.contains_world(j), "comm_grow: joiner {j} is already a member");
        }
        let (id, group, epoch) = grow_comm_parts(comm, &js);
        self.note_epoch(epoch);
        let grown = Comm::new_at_epoch(id, Group::new(group), comm.rank(), epoch);
        self.record_trace(
            self.clock.now_ns(),
            TraceData::EpochBump { comm: grown.id(), epoch, size: grown.size() },
        );
        grown
    }

    /// Grow `comm` by one joiner *and* send it the admission notice — the
    /// sponsor side of the join protocol.  The other members call
    /// [`Rank::comm_grow`] with the same arguments (deriving the identical
    /// communicator); the joiner receives it via [`Rank::join_comm`]
    /// (latent slot) or [`Rank::recv_admission`] (reborn rank).
    pub fn admit(&self, comm: &Comm, joiner: usize) -> Comm {
        let grown = self.comm_grow(comm, &[joiner]);
        self.send_admission(&grown, joiner);
        grown
    }

    /// Retransmissions this rank issued (0 without an injector).
    pub fn retry_count(&self) -> u64 {
        self.retries.get()
    }

    /// Envelopes this rank's mailbox dropped as duplicate deliveries.
    pub fn duplicates_dropped(&self) -> u64 {
        self.mailbox.borrow().duplicates_dropped()
    }

    // ----- collectives (delegating to `collectives`) --------------------------

    /// Barrier (dissemination algorithm).
    pub fn barrier(&self, comm: &Comm) {
        let _span = self.coll_span("barrier_dissemination", comm);
        collectives::barrier(self, comm)
    }

    /// Broadcast from `root` (binomial tree).
    pub fn bcast<T: Scalar>(&self, comm: &Comm, root: usize, data: &mut Vec<T>) {
        let _span = self.coll_span("bcast_binomial", comm);
        collectives::bcast_binomial(self, comm, root, data)
    }

    /// Reduce to `root` (binomial tree); `Some(result)` at the root.
    pub fn reduce<T: Scalar>(
        &self,
        comm: &Comm,
        root: usize,
        data: &[T],
        op: impl Fn(T, T) -> T,
    ) -> Option<Vec<T>> {
        let _span = self.coll_span("reduce_binomial", comm);
        collectives::reduce_binomial(self, comm, root, data, op)
    }

    /// Allreduce (recursive doubling with non-power-of-two folding).
    pub fn allreduce<T: Scalar>(&self, comm: &Comm, data: &[T], op: impl Fn(T, T) -> T) -> Vec<T> {
        let _span = self.coll_span("allreduce_recursive_doubling", comm);
        collectives::allreduce_recursive_doubling(self, comm, data, op)
    }

    /// Gather equal-size contributions at `root` (linear).
    pub fn gather<T: Scalar>(&self, comm: &Comm, root: usize, data: &[T]) -> Option<Vec<T>> {
        let _span = self.coll_span("gather_linear", comm);
        collectives::gather_linear(self, comm, root, data)
    }

    /// Gather variable-size `u64` contributions at `root` along a k-ary
    /// tree laid over an explicit rank `order` (`order[0]` must be `root`;
    /// all ranks must pass identical `order` and `arity`).  Returns one row
    /// per communicator rank at the root, `None` elsewhere.  Used by the
    /// monitoring plane to aggregate sparse traffic rows along the machine
    /// topology instead of funnelling every row through the root's mailbox.
    ///
    /// # Errors
    /// At the root, the listed ranks whose frame did not arrive because
    /// they, or a rank on their path to the root, died mid-gather (see
    /// [`collectives::gather_tree_kary`]).
    ///
    /// # Panics
    /// Panics when `arity < 2` — validated *here*, before the collective
    /// allocates its tag or opens its span, so a bad arity fails every rank
    /// with the same message instead of desynchronizing the collective
    /// sequence mid-flight.
    pub fn gather_tree(
        &self,
        comm: &Comm,
        root: usize,
        arity: usize,
        order: &[usize],
        data: &[u64],
    ) -> Result<Option<Vec<Vec<u64>>>, Vec<usize>> {
        assert!(
            arity >= 2,
            "gather_tree: arity must be at least 2, got {arity} (rank {}); every caller \
             must pass the same arity >= 2 on every rank — a k-ary tree with k < 2 has \
             no parent/child structure",
            self.world_rank
        );
        let _span = self.coll_span("gather_tree_kary", comm);
        collectives::gather_tree_kary(self, comm, root, arity, order, data)
    }

    /// Allgather equal-size contributions (ring).
    pub fn allgather<T: Scalar>(&self, comm: &Comm, data: &[T]) -> Vec<T> {
        let _span = self.coll_span("allgather_ring", comm);
        collectives::allgather_ring(self, comm, data)
    }

    /// Scatter equal-size chunks from `root` (linear).
    pub fn scatter<T: Scalar>(&self, comm: &Comm, root: usize, data: Option<&[T]>) -> Vec<T> {
        let _span = self.coll_span("scatter_linear", comm);
        collectives::scatter_linear(self, comm, root, data)
    }

    /// All-to-all personalized exchange (ring-offset pairwise).
    pub fn alltoall<T: Scalar>(&self, comm: &Comm, data: &[T]) -> Vec<T> {
        let _span = self.coll_span("alltoall_pairwise", comm);
        collectives::alltoall_pairwise(self, comm, data)
    }

    /// Reduce-scatter with equal blocks (recursive halving / fallback).
    pub fn reduce_scatter<T: Scalar>(
        &self,
        comm: &Comm,
        data: &[T],
        op: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        let _span = self.coll_span("reduce_scatter_block", comm);
        collectives::reduce_scatter_block(self, comm, data, op)
    }

    /// Inclusive prefix scan (`MPI_Scan`).
    pub fn scan<T: Scalar>(&self, comm: &Comm, data: &[T], op: impl Fn(T, T) -> T) -> Vec<T> {
        let _span = self.coll_span("scan_inclusive", comm);
        collectives::scan_inclusive(self, comm, data, op)
    }

    /// Segmented (pipelined) binary-tree broadcast; returns the number of
    /// segments used.
    pub fn bcast_segmented<T: Scalar>(
        &self,
        comm: &Comm,
        root: usize,
        data: &mut Vec<T>,
        seg_items: usize,
    ) -> usize {
        let _span = self.coll_span("bcast_binary_segmented", comm);
        collectives::bcast_binary_segmented(self, comm, root, data, seg_items)
    }

    // ----- communicator management -------------------------------------------

    /// `MPI_Comm_split`: members with equal `color` form a new communicator,
    /// ordered by `(key, parent rank)`.  Collective over `comm`.
    pub fn comm_split(&self, comm: &Comm, color: i64, key: i64) -> Comm {
        let _span = self.coll_span("comm_split", comm);
        // Gather (color, key) from every member: 16 bytes each, so the
        // log-step exchange, not the ring.
        let all = collectives::allgather_bruck(self, comm, &[color, key]);
        let n = comm.size();
        let mut distinct: Vec<i64> = (0..n).map(|r| all[2 * r]).collect();
        distinct.sort_unstable();
        distinct.dedup();
        // Rank 0 allocates one globally unique id per color group; everyone
        // derives its own from the broadcast base.
        let mut base = vec![if comm.rank() == 0 {
            self.shared.alloc_ids(distinct.len() as u64) as i64
        } else {
            0
        }];
        collectives::bcast_binomial(self, comm, 0, &mut base);
        let color_idx = distinct.binary_search(&color).unwrap();
        let id = base[0] as u64 + color_idx as u64;
        // Build my group, ordered by (key, parent rank).
        let mut members: Vec<(i64, usize)> =
            (0..n).filter(|&r| all[2 * r] == color).map(|r| (all[2 * r + 1], r)).collect();
        members.sort_unstable();
        let group: Vec<usize> = members.iter().map(|&(_, r)| comm.world_rank_of(r)).collect();
        let my_rank = members.iter().position(|&(_, r)| r == comm.rank()).unwrap();
        Comm::new(id, Group::new(group), my_rank)
    }

    /// Duplicate a communicator (same group, fresh matching id).
    pub fn comm_dup(&self, comm: &Comm) -> Comm {
        self.comm_split(comm, 0, comm.rank() as i64)
    }
}

/// Completion status of a received envelope, its sender as a rank of `comm`.
fn status_of(comm: &Comm, env: &Envelope) -> Status {
    Status {
        src: comm.rank_of_world(env.src_world).expect("sender not in communicator"),
        tag: env.tag,
        bytes: env.payload.len_bytes(),
    }
}

/// The one typed completion: decode a received envelope's payload and
/// pair it with its [`Status`].
fn typed<T: Scalar>(comm: &Comm, env: Envelope) -> (Vec<T>, Status) {
    let status = status_of(comm, &env);
    (T::from_bytes(&env.payload.expect_bytes()), status)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn small_universe(n: usize) -> Universe {
        let machine = Machine::cluster(2, 2, 4); // 16 cores
        Universe::new(UniverseConfig::new(machine, Placement::packed(n)))
    }

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

    #[test]
    fn comm_split_even_odd() {
        let u = small_universe(6);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = rank.world_rank();
            let sub = rank.comm_split(&world, (me % 2) as i64, me as i64);
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), me / 2);
            assert_eq!(sub.world_rank_of(sub.rank()), me);
            // Traffic on the sub-communicator stays inside it.
            let gathered = rank.allgather(&sub, &[me as u64]);
            let expect: Vec<u64> = (0..6).filter(|w| w % 2 == me % 2).map(|w| w as u64).collect();
            assert_eq!(gathered, expect);
        });
    }

    #[test]
    fn comm_split_reorders_by_key() {
        let u = small_universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = rank.world_rank();
            // Reverse the ranks: key = n - 1 - me.
            let rev = rank.comm_split(&world, 0, (3 - me) as i64);
            assert_eq!(rev.rank(), 3 - me);
            assert_eq!(rev.world_rank_of(0), 3);
        });
    }

    #[test]
    fn comm_split_message_budget() {
        // One Bruck allgather of the (color, key) pairs — ⌈log₂ n⌉ messages
        // per rank — plus the id broadcast's n − 1: nothing else may reach
        // the wire.
        struct Count(AtomicU64);
        impl PmlHook for Count {
            fn on_send(&self, _ev: &PmlEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        for n in [2usize, 3, 8, 24, 100] {
            let u = Universe::new(UniverseConfig::new(
                Machine::cluster(4, 1, 25),
                Placement::packed(n),
            ));
            let count = Arc::new(Count(AtomicU64::new(0)));
            u.add_global_hook(count.clone());
            u.launch(|rank| {
                let world = rank.comm_world();
                let me = world.rank();
                let sub = rank.comm_split(&world, (me % 3) as i64, -(me as i64));
                assert_eq!(sub.size(), (n - me % 3).div_ceil(3));
            });
            let rounds = u64::from(n.next_power_of_two().trailing_zeros());
            let n = n as u64;
            assert_eq!(count.0.load(Ordering::Relaxed), n * rounds + (n - 1), "n={n}");
        }
    }

    #[test]
    fn comm_dup_isolates_traffic() {
        let u = small_universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            let dup = rank.comm_dup(&world);
            assert_ne!(dup.id(), world.id());
            if rank.world_rank() == 0 {
                rank.send(&world, 1, 5, &[1u8]);
                rank.send(&dup, 1, 5, &[2u8]);
            } else {
                // Receive from the dup first: matching must not steal the
                // world message even though it arrived earlier.
                let (v, _) = rank.recv::<u8>(&dup, SrcSel::Any, TagSel::Any);
                assert_eq!(v, vec![2]);
                let (v, _) = rank.recv::<u8>(&world, SrcSel::Any, TagSel::Any);
                assert_eq!(v, vec![1]);
            }
        });
    }

    #[test]
    fn deadline_env_override() {
        // Use a generous value: tests run in parallel and another test
        // constructing a config while the variable is set must not end up
        // with a deadline short enough to trip its deadlock detector.
        std::env::set_var("MIM_DEADLINE_MS", "123456");
        let cfg = UniverseConfig::new(Machine::cluster(1, 1, 2), Placement::packed(2));
        std::env::remove_var("MIM_DEADLINE_MS");
        assert_eq!(cfg.deadline, Duration::from_millis(123_456));
        let cfg = UniverseConfig::new(Machine::cluster(1, 1, 2), Placement::packed(2));
        assert_eq!(cfg.deadline, Duration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "launched once")]
    fn double_launch_panics() {
        let u = small_universe(1);
        u.launch(|_| ());
        u.launch(|_| ());
    }

    // ----- fault injection ---------------------------------------------------

    /// Drop the first `n` attempts of every message.
    #[derive(Debug)]
    struct DropFirstN(u32);
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
    struct DupAll;
    impl FaultInjector for DupAll {
        fn on_attempt(&self, _link: &LinkCtx, _attempt: u32) -> SendOutcome {
            SendOutcome::Deliver { extra_delay_ns: 0.0, duplicates: 2 }
        }
    }

    /// Crash one rank at a wire-op count; everything else is clean.
    #[derive(Debug)]
    struct CrashAtOps {
        world: usize,
        ops: u64,
    }
    impl FaultInjector for CrashAtOps {
        fn on_attempt(&self, _link: &LinkCtx, _attempt: u32) -> SendOutcome {
            SendOutcome::CLEAN
        }
        fn crash_point(&self, world: usize) -> Option<CrashPoint> {
            (world == self.world).then_some(CrashPoint::OpCount(self.ops))
        }
    }

    fn faulty_universe(n: usize, inj: Arc<dyn FaultInjector>) -> Universe {
        let machine = Machine::cluster(2, 2, 4);
        let cfg = UniverseConfig::new(machine, Placement::packed(n)).with_injector(inj);
        Universe::new(cfg)
    }

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
    fn launch_faulty_reports_crash_and_preserves_survivors() {
        let u = faulty_universe(2, Arc::new(CrashAtOps { world: 1, ops: 0 }));
        let results = u.launch_faulty(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                let err = rank
                    .recv_or_failure::<u64>(&world, 1, 9)
                    .expect_err("peer crashed before sending");
                assert_eq!(err.world, 1);
            } else {
                // First wire op: dies in the send prologue.
                rank.send(&world, 0, 9, &[1u64]);
            }
            rank.world_rank()
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Err(RankFailure::Crashed { at_ns: 0.0, ops: 0 }));
        assert_eq!(u.alive(), vec![true, false]);
    }

    #[test]
    #[should_panic(expected = "use Universe::launch_faulty to recover")]
    fn strict_launch_rejects_scheduled_crash() {
        let u = faulty_universe(2, Arc::new(CrashAtOps { world: 1, ops: 0 }));
        u.launch(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                let _ = rank.recv_or_failure::<u64>(&world, 1, 9);
            } else {
                rank.send(&world, 0, 9, &[1u64]);
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

    #[test]
    fn shrunk_comm_ids_are_deterministic_and_distinct() {
        let u = small_universe(4);
        u.launch(|rank| {
            if rank.world_rank() == 2 {
                return; // "dead" in bitmap a; shrink asserts own liveness
            }
            let world = rank.comm_world();
            let a = rank.comm_shrink(&world, &[true, true, false, true]);
            let b = rank.comm_shrink(&world, &[true, true, false, true]);
            assert_eq!(a.id(), b.id(), "same bitmap must derive the same id");
            if rank.world_rank() != 3 {
                let c = rank.comm_shrink(&world, &[true, true, true, false]);
                assert_ne!(a.id(), c.id(), "different bitmaps must not collide");
            }
            let expect = match rank.world_rank() {
                0 => 0,
                1 => 1,
                _ => 2,
            };
            assert_eq!(a.rank(), expect);
        });
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
