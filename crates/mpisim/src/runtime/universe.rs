//! The universe: job configuration, the shared delivery funnel every
//! envelope is posted through, the two rank engines, the one per-slot
//! driver they run and the two launches.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mim_trace::Tracer;
use mim_util::channel::{unbounded, Receiver, Sender};
use mim_util::env_u64;
use mim_util::hash::IdMap;
use mim_util::sync::Mutex;

use mim_topology::{Machine, Placement};

use super::membership::wait_for_admission;
use super::{Rank, RankAborted};
use crate::comm::{Group, Groups};
use crate::envelope::Envelope;
use crate::exec::{self, ExecShared, ExecStats, ExecutorKind};
use crate::fault::{self, FaultInjector, RankFailure};
use crate::nic::NicCounters;
use crate::pml::PmlHook;
use crate::sched::PolicyHandle;

/// Stack size of rank threads (Threads mode).
const THREAD_STACK_SIZE: usize = 4 << 20;

/// Job configuration.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// The machine to simulate.
    pub machine: Machine,
    /// Process → core placement; its length is the number of ranks.
    pub placement: Placement,
    /// Per-message protocol header counted by the simulated NIC (bytes).
    pub nic_header_bytes: u64,
    /// Wall-clock bound on a single blocking receive (deadlock detector).
    pub deadline: Duration,
    /// Which engine hosts rank code: one OS thread per rank
    /// ([`ExecutorKind::Threads`], the default and the equivalence oracle)
    /// or M:N rank tasks on a fixed worker pool
    /// ([`ExecutorKind::Tasks`], the 10k-rank engine).  Defaults from
    /// `MIM_EXECUTOR`; both modes produce bit-identical virtual-time
    /// results (see `tests/executor_equivalence.rs`).  A schedule policy
    /// (`sched`) overrides it: [`Universe::new`] sets it to `Tasks`, and
    /// `MIM_EXECUTOR` is ignored.
    pub executor: ExecutorKind,
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
    /// Optional schedule policy (see [`crate::SchedulePolicy`] and the `mim-explore`
    /// crate): takes over the runtime's two nondeterminism points —
    /// wildcard matching and task resume order.  A policy overrides
    /// `executor`: the universe runs the tasks engine on one worker, so
    /// the policy's answers are the only source of interleaving, and
    /// [`Universe::new`] panics where stackful fibers are not supported.
    /// `None` keeps every hook a single branch-on-`Option`; the canonical
    /// policy is bit-identical to `None`.
    pub sched: Option<PolicyHandle>,
    /// Elastic universes: the number of trailing placement slots reserved
    /// for ranks that may *join* the universe mid-run.  The initial world
    /// (`MPI_COMM_WORLD`) is every placement slot but the last
    /// `latent_ranks`; latent slots are wired (channel + task/thread) at
    /// launch but stay parked — no `Rank`, no mailbox, no trace track — until a
    /// sponsor admits them (see [`Universe::launch_faulty`], the only
    /// launch that hosts them).  0 (the default) is the classic static
    /// universe.
    pub latent_ranks: usize,
}

impl UniverseConfig {
    /// Standard configuration: one process per core of `machine`, packed
    /// placement.
    ///
    /// The deadlock-detector deadline defaults to 30 s of wall clock but can
    /// be raised (or lowered) via `MIM_DEADLINE_MS` — an overloaded CI
    /// runner can stall a rank thread long enough to trip a fixed deadline
    /// and report a false "deadlock".
    ///
    /// # Panics
    /// Panics when the placement outnumbers the machine's cores, and on a
    /// `MIM_DEADLINE_MS` that is not a decimal or `0x`-hex number.
    pub fn new(machine: Machine, placement: Placement) -> Self {
        assert!(
            placement.as_slice().len() <= machine.num_cores(),
            "placement has more processes than the machine has cores"
        );
        let deadline =
            env_u64("MIM_DEADLINE_MS").map_or(Duration::from_secs(30), Duration::from_millis);
        Self {
            machine,
            placement,
            nic_header_bytes: 0,
            deadline,
            executor: ExecutorKind::from_env(),
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
    /// wildcard matches and task resume order, and its decision log rides
    /// along in deadlock panics.  It overrides `executor`: a policed
    /// universe runs the tasks engine on one worker, whatever
    /// [`with_executor`](Self::with_executor) or `MIM_EXECUTOR` says.
    ///
    /// # Panics
    /// [`Universe::new`] panics on a policed config where stackful fibers
    /// are not supported (`mim_util::fiber::SUPPORTED` is false): schedule
    /// policies need the tasks engine, which runs on x86_64 unix only.
    pub fn with_schedule_policy(mut self, policy: PolicyHandle) -> Self {
        self.sched = Some(policy);
        self
    }

    /// Reserve the *last* `n` placement slots for latent joiners (builder
    /// style; see the `latent_ranks` field).  Only
    /// [`Universe::launch_faulty`] runs such a universe; a strict
    /// [`Universe::launch`] rejects it.
    pub fn with_latent_ranks(mut self, n: usize) -> Self {
        assert!(
            n < self.nprocs(),
            "latent_ranks ({n}) must leave at least one initial rank \
             (placement has {} slots)",
            self.nprocs()
        );
        self.latent_ranks = n;
        self
    }

    /// Number of rank slots in the job (initial world + latent joiners).
    pub(crate) fn nprocs(&self) -> usize {
        self.placement.as_slice().len()
    }

    /// Size of the initial world (`MPI_COMM_WORLD`): every slot that is not
    /// a latent joiner.
    pub(crate) fn initial(&self) -> usize {
        self.nprocs() - self.latent_ranks
    }
}

/// Shared buffer of one rank's one-sided window.
pub(crate) type WindowBuf = Arc<Mutex<Vec<u8>>>;

pub(crate) struct Shared {
    pub(crate) cfg: UniverseConfig,
    pub(crate) senders: Vec<Sender<Envelope>>,
    /// The global PML hooks, frozen at launch: every wire message reads
    /// them, and nothing writes them while ranks run.
    pub(crate) global_hooks: OnceLock<Box<[Arc<dyn PmlHook>]>>,
    next_comm_id: AtomicU64,
    /// One-sided window registry: (window id, comm rank) → shared buffer.
    pub(crate) windows: Mutex<IdMap<(u64, usize), WindowBuf>>,
    /// The simulated NIC (also the first global hook); kept here so the
    /// wire layer can count retransmissions without a hook round-trip.
    pub(crate) nic: Arc<NicCounters>,
    /// Per-slot admission state (elastic universes): initial-world slots are
    /// born admitted; a latent slot flips when a sponsor admits it.  The
    /// sponsor's epilogue retires every slot still unadmitted.
    pub(crate) admitted: Vec<AtomicBool>,
    /// Set by the recoverable launch, `launch_faulty`: sends to a gone
    /// mailbox drop silently instead of unwinding the sender
    /// (`RankAborted`), and a plan crash may restart its slot.
    pub(crate) faulty: AtomicBool,
    /// M:N scheduler state, present iff the universe runs in
    /// [`ExecutorKind::Tasks`] mode.  Senders notify it after every
    /// delivery so a parked destination task gets rescheduled.
    pub(crate) exec: Option<Arc<ExecShared>>,
    /// `MPI_COMM_WORLD`'s group, built once: every rank's world
    /// communicator shares it.
    pub(super) world_group: Arc<Group>,
    /// Every other communicator's group, one per id (`comm_split`,
    /// `comm_shrink`, `comm_grow`, admission).
    pub(crate) groups: Groups,
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
    /// out.  Returns whether the channel accepted the envelope.  What a post
    /// costs the host is proportional to the message: the channel and the
    /// executor issue a condvar wake only to a thread that is asleep (no
    /// rank task ever is), and the sender keeps its worker unless this post
    /// spends its per-resume budget on a queued peer.
    pub(crate) fn post(&self, dst: usize, env: Envelope) -> bool {
        let delivered = self.senders[dst].send(env).is_ok();
        if delivered {
            if let Some(exec) = &self.exec {
                exec.notify(dst);
                // Fairness: once the sender's post budget is spent, a
                // destination still waiting for a worker gets ours (no-op
                // off the executor).
                exec.maybe_yield_to(dst);
            }
        }
        delivered
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
    /// Global hooks registered so far; moved into `Shared` at launch.
    hooks: Mutex<Vec<Arc<dyn PmlHook>>>,
}

impl Universe {
    /// Wire a universe for `cfg.nprocs()` ranks.  A schedule policy selects
    /// the tasks engine: [`Universe::config`] then reports
    /// [`ExecutorKind::Tasks`], whatever `cfg.executor` said.
    ///
    /// # Panics
    /// Panics on an empty placement, and on a config with a schedule
    /// policy where stackful fibers are not supported.
    pub fn new(mut cfg: UniverseConfig) -> Self {
        let n = cfg.nprocs();
        assert!(n > 0, "universe needs at least one rank");
        if cfg.sched.is_some() {
            // Replay needs a run's questions to depend on its answers
            // alone: only one rank may run at a time.
            cfg.executor = ExecutorKind::Tasks;
        }
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let core_to_node =
            (0..cfg.machine.num_cores()).map(|c| cfg.machine.node_of_core(c)).collect();
        let nic = Arc::new(NicCounters::new(core_to_node, cfg.nic_header_bytes));
        let exec = match cfg.executor {
            // A schedule policy makes dispatch single-worker and resume
            // order the policy's.
            ExecutorKind::Tasks if mim_util::fiber::SUPPORTED => {
                Some(ExecShared::new(n, cfg.sched.clone()))
            }
            ExecutorKind::Tasks => {
                assert!(
                    cfg.sched.is_none(),
                    "schedule policies need the tasks engine (stackful fibers: x86_64 unix only)"
                );
                eprintln!(
                    "mim-mpisim: MIM_EXECUTOR=tasks needs stackful fibers \
                     (x86_64 unix only); falling back to thread-per-rank"
                );
                None
            }
            ExecutorKind::Threads => None,
        };
        let shared = Arc::new(Shared {
            senders,
            global_hooks: OnceLock::new(),
            next_comm_id: AtomicU64::new(1), // id 0 is MPI_COMM_WORLD
            windows: Mutex::new(IdMap::default()),
            nic,
            admitted: (0..n).map(|i| AtomicBool::new(i < cfg.initial())).collect(),
            faulty: AtomicBool::new(false),
            exec,
            world_group: Group::new((0..cfg.initial()).collect()),
            groups: Groups::default(),
            cfg,
        });
        let hooks = Mutex::new(vec![Arc::clone(&shared.nic) as Arc<dyn PmlHook>]);
        Self { shared, receivers: Mutex::new(Some(receivers)), hooks }
    }

    /// The simulated NIC counters (inspect after [`Universe::launch`]).
    pub fn nic(&self) -> &NicCounters {
        &self.shared.nic
    }

    /// Register an additional global PML hook.
    ///
    /// # Panics
    /// Panics once the universe has been launched: the hooks are frozen at
    /// launch, so the wire reads them without a lock.
    pub fn add_global_hook(&self, hook: Arc<dyn PmlHook>) {
        assert!(
            self.shared.global_hooks.get().is_none(),
            "add_global_hook on a launched universe: global PML hooks are frozen at launch; \
             register them before Universe::launch"
        );
        self.hooks.lock().push(hook);
    }

    /// What the tasks engine's scheduler did over the launch — dispatches,
    /// run-next hits, steals, parks, stall wakes, fairness yields — summed
    /// over its workers.  `None` on the threads engine, and before launch.
    pub fn exec_stats(&self) -> Option<ExecStats> {
        self.shared.exec.as_ref()?.stats()
    }

    /// Job configuration.
    pub fn config(&self) -> &UniverseConfig {
        &self.shared.cfg
    }

    /// Run the per-slot driver ([`run_slot`]) once per slot — on its own OS
    /// thread or as an M:N rank task, per `cfg.executor` — and pair each
    /// slot's result with its own panic payload (by slot index).  The one
    /// engine under both launches.
    fn run_slots<F, R>(&self, f: F) -> Vec<Result<R, Box<dyn Any + Send>>>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        let receivers = self.receivers.lock().take().expect("a universe can only be launched once");
        let hooks = std::mem::take(&mut *self.hooks.lock());
        let _ = self.shared.global_hooks.set(hooks.into_boxed_slice());
        let n = receivers.len();
        // Each slot's wiring, taken by its driver.  The `Arc`s are cloned
        // here, on the launching thread: cloned by the workers as their
        // ranks start, the refcount's cache line bounces between them,
        // which cost a 10k-rank bare ring ~10 % of its wall time on a
        // 2-core host.
        let wiring: Vec<_> = receivers
            .into_iter()
            .map(|rx| Mutex::new(Some((Arc::clone(&self.shared), rx))))
            .collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // The one launch body: slot `world_rank`'s driver.
        let body = |world_rank: usize| {
            let Some((shared, rx)) = wiring[world_rank].lock().take() else {
                panic!("slot {world_rank} started twice");
            };
            let result = run_slot(world_rank, shared, rx, &f);
            *results[world_rank].lock() = Some(result);
        };
        let body: &(dyn Fn(usize) + Sync) = &body;
        let payloads = match &self.shared.exec {
            // M:N engine: each slot is a fiber task on a fixed worker pool
            // (`crate::exec`).  Blocking receives park the rank's *task* (the
            // mailbox holds its `ParkerHandle`), so a handful of workers can
            // carry a 10k-rank universe.
            Some(exec) => {
                // SAFETY: lifetime erasure only.  `exec::run_tasks` joins its
                // worker pool (a `thread::scope`) before returning, and drops
                // every fiber — each holding this reference — inside it, so
                // no task outlives this call's borrow of `body` (nor of `f`,
                // `wiring` or `results`).
                let body = unsafe {
                    std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                        body,
                    )
                };
                exec::run_tasks(exec, n, body, self.shared.cfg.deadline)
            }
            // Thread-per-rank engine: one scoped OS thread per slot, joined in
            // slot order.
            None => std::thread::scope(|scope| {
                let threads: Vec<_> = (0..n)
                    .map(|world_rank| {
                        std::thread::Builder::new()
                            .name(format!("rank-{world_rank}"))
                            .stack_size(THREAD_STACK_SIZE)
                            .spawn_scoped(scope, move || body(world_rank))
                            .expect("failed to spawn rank thread")
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().err()).collect()
            }),
        };
        if let Some(t) = &self.shared.cfg.tracer {
            t.flush();
        }
        results
            .into_iter()
            .map(Mutex::into_inner)
            .zip(payloads)
            .map(|(r, p)| match p {
                Some(payload) => Err(payload),
                None => Ok(r.expect("rank produced no result")),
            })
            .collect()
    }

    /// Run `f` once per rank — on its own OS thread or as an M:N rank task,
    /// per `cfg.executor` — and collect the per-rank results in rank order.
    ///
    /// # Panics
    /// Panics if any rank panics (the first panic is propagated; a plan
    /// crash, restart plan or not, is reported as such), when the universe
    /// declares latent slots, or when called a second time on the same
    /// universe.  [`Universe::launch_faulty`] recovers from all but the
    /// last.
    pub fn launch<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        assert!(
            self.shared.cfg.latent_ranks == 0,
            "Universe::launch cannot host latent slots ({} declared): they park until \
             admitted or retired, which only Universe::launch_faulty does",
            self.shared.cfg.latent_ranks
        );
        let mut results = Vec::new();
        let mut panics: Vec<Box<dyn Any + Send>> = Vec::new();
        for r in self.run_slots(f) {
            match r {
                Ok(v) => results.push(v),
                Err(p) => panics.push(p),
            }
        }
        if !panics.is_empty() {
            // A plan-scheduled crash is an error in strict mode: report it
            // in the clear instead of unwinding an internal payload.
            if let Some(c) = panics.iter().find_map(|p| p.downcast_ref::<fault::RankCrashed>()) {
                panic!(
                    "rank {} crashed by fault injection at {:.0} ns after {} wire ops \
                     (use Universe::launch_faulty to recover)",
                    c.world, c.at_ns, c.ops
                );
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
                Err(p) => resume_unwind(p),
            }
        }
        results
    }

    /// The recoverable launch: failures are *data*.  Each slot yields
    /// `Ok(result)` or the [`RankFailure`] that ended it, and a send to a
    /// dead rank's mailbox drops silently instead of unwinding the sender,
    /// so survivors keep their results when peers die — the mode the
    /// self-healing reorder loop runs under.  What the plan and the config
    /// state beyond crashes is honoured here too:
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
    ///   communicator it was admitted into.  When the sponsor's slot (world
    ///   rank 0) ends for good — returned, or died without a restart —
    ///   every slot never admitted is retired and yields
    ///   [`RankFailure::Retired`].
    /// - **Stale-epoch hygiene.**  In-flight messages addressed to a dead
    ///   incarnation are dropped deterministically (see
    ///   [`Rank::stale_dropped`]), and [`Rank::send_checked`] rejects sends
    ///   on superseded communicators.
    pub fn launch_faulty<F, R>(&self, f: F) -> Vec<Result<R, RankFailure>>
    where
        F: Fn(&Rank) -> R + Sync,
        R: Send,
    {
        self.shared.faulty.store(true, Ordering::Relaxed);
        self.run_slots(f).into_iter().map(|r| r.map_err(RankFailure::classify)).collect()
    }
}

/// The one per-slot driver every launch runs.  A latent slot first parks
/// until the sponsor admits it, or unwinds as retired.  Then each
/// incarnation gets a fresh [`Rank`] and runs `f`; a plan crash the
/// injector covers, under the recoverable launch, starts the next
/// incarnation.  When world rank 0's slot ends for good — `f` returned, or
/// died with no restart to follow — the sponsor's epilogue retires every
/// latent slot still unadmitted, so none waits out the deadline.  Returns
/// the last incarnation's result, or unwinds with what ended it.
fn run_slot<F, R>(
    world_rank: usize,
    mut shared: Arc<Shared>,
    mut rx: Receiver<Envelope>,
    f: &F,
) -> R
where
    F: Fn(&Rank) -> R + Sync,
{
    let (join, peer_incs, mut stash) = if world_rank < shared.cfg.initial() {
        (None, Vec::new(), Vec::new())
    } else {
        match wait_for_admission(world_rank, &shared, &rx) {
            Some((comm, at_ns, incs, pre)) => (Some((comm, at_ns)), incs, pre),
            None => resume_unwind(Box::new(fault::RankRetired)),
        }
    };
    let mut incarnation = 0u32;
    loop {
        let rank = Rank::new_with(world_rank, shared, rx, incarnation, join.clone());
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
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&rank)));
        let crashed = outcome.as_ref().is_err_and(|p| p.is::<fault::RankCrashed>());
        let injector = rank.shared.cfg.injector.as_ref();
        let restart = crashed
            && rank.shared.faulty.load(Ordering::Relaxed)
            && injector.is_some_and(|i| i.restart_after_crash(world_rank, incarnation));
        if !restart {
            if world_rank == 0 {
                rank.retire_latents();
            }
            return outcome.unwrap_or_else(|payload| resume_unwind(payload));
        }
        // The next incarnation takes over the slot's channel; the rest of
        // this one's mailbox, unexpected queue included, dies with it.
        shared = rank.shared;
        rx = rank.mailbox.into_inner().into_receiver();
        incarnation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{faulty_universe, small_universe, CrashAtOps, RestartAtOps};
    use super::*;

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

    #[test]
    #[should_panic(expected = "add_global_hook on a launched universe")]
    fn adding_a_global_hook_after_launch_panics() {
        struct Nop;
        impl PmlHook for Nop {
            fn on_send(&self, _ev: &crate::pml::PmlEvent) {}
        }
        let u = small_universe(2);
        u.add_global_hook(Arc::new(Nop));
        u.launch(|_| ());
        u.add_global_hook(Arc::new(Nop));
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
    }

    /// A plan crash is a hard error under the strict launch, with or
    /// without a restart scheduled after it: only the recoverable launch
    /// reboots a rank.
    #[test]
    fn strict_launch_rejects_scheduled_crash() {
        let crash = CrashAtOps { world: 1, ops: 0 };
        let plans: [Arc<dyn FaultInjector>; 2] = [Arc::new(crash), Arc::new(RestartAtOps(crash))];
        for plan in plans {
            let u = faulty_universe(2, plan);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                u.launch(|rank| {
                    let world = rank.comm_world();
                    if rank.world_rank() == 0 {
                        let _ = rank.recv_or_failure::<u64>(&world, 1, 9);
                    } else {
                        rank.send(&world, 0, 9, &[1u64]);
                    }
                })
            }))
            .expect_err("a plan crash must fail the strict launch");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains("crashed by fault injection"), "{msg}");
            assert!(msg.contains("use Universe::launch_faulty to recover"), "{msg}");
        }
    }

    #[test]
    #[should_panic(expected = "which only Universe::launch_faulty does")]
    fn strict_launch_rejects_latent_slots() {
        let cfg = UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(3));
        Universe::new(cfg.with_latent_ranks(1)).launch(|_| ());
    }
}
