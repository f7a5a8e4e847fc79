//! The M:N rank executor: every simulated rank is a resumable *task* (a
//! stackful fiber, `mim_util::fiber`) multiplexed onto a fixed pool of
//! worker threads, each with **its own FIFO run queue** (a
//! `mim_util::deque::Injector`).
//!
//! # Home queues
//!
//! A task's *home* is the worker that last ran it.  At launch the homes are
//! a block partition — task `i` of `n` on worker `i·W/n` — so ring and
//! halo neighbours start on one worker.  `ExecShared::notify` and stall
//! wakes push a task to the back of its home queue, and a fairness yield
//! to the back of the yielder's own.  A worker runs its *run-next slot*
//! first (a task that asked to park after a notify token had already
//! landed on it), then the front of its own queue; with both empty it
//! steals from the front of another worker's queue, and the stolen task's
//! home becomes the thief.  Under a schedule policy the pool is one worker
//! with one queue, so every queued task is on the policy's slate.
//!
//! So a wire message writes what belongs to its destination — the
//! channel, the task slot and, when the task was parked, its home queue,
//! which for a neighbour is the sender's own worker's — plus the global
//! `parked` count (and the simulated NIC's per-node counters, which are
//! the model's, not the executor's).  Nothing else is written by two workers:
//! the watchdog heartbeat is one padded counter per worker, the wake epoch
//! is a load on dispatch and advances only when a worker is idle, and the
//! PML hooks and the NIC's event-log switch are read-only after launch.
//! Each worker counts what it did in its own memory ([`ExecStats`], summed
//! at join; `Universe::exec_stats`).  Over whole `mim-ledger` runs of the
//! six live workloads (seed 1, 3 s each, 2 workers) they counted 8 017 008
//! dispatches, 201 172 of them steals (2.5 %: 1–3 % per workload, 10.5 %
//! on `farm_wildcard`'s fan-in), 222 946 run-next hits and 6 551 259 parks
//! (EXPERIMENTS.md has the table).
//!
//! Thread-per-rank ([`ExecutorKind::Threads`]) remains the always-available
//! equivalence oracle; this module only changes *where* rank code runs, not
//! *what* it computes — the virtual-clock DES is scheduling-independent, so
//! completion times, monitoring matrices, NIC counters and per-rank trace
//! streams are bit-identical across the two modes and every worker count
//! (property-tested in `tests/executor_equivalence.rs`).
//!
//! # Park/unpark protocol
//!
//! A rank that blocks in its mailbox parks its *task*, not a thread:
//!
//! 1. **Fiber side** (`ParkerHandle::park`): record the requested
//!    deadline, raise `park_pending`, and `fiber::suspend()` back to the
//!    worker.
//! 2. **Worker side** (scheduler-side publish): only after the fiber has
//!    fully switched out does the worker publish the parked state with
//!    `CAS(Running → Parked)`.  A concurrent `ExecShared::notify` that
//!    caught the task still `Running` left a `Notified` token instead; the
//!    failed CAS observes it and the worker keeps the task in its run-next
//!    slot — the wakeup is never lost, and a resumed fiber can never race
//!    its own suspension.
//! 3. **Sender side**: `Shared::post` delivers the envelope, then calls
//!    `notify(dst)`, which CASes `Parked → Runnable` (pushing the task to
//!    its home queue, and waking the idle workers if there are any) or
//!    `Running → Notified`.  `notify` never touches a `Notified` task, so a
//!    task is never enqueued twice.
//!
//! # Deterministic stall resolution
//!
//! Thread-per-rank relies on wall-clock `recv_timeout` to detect
//! application deadlock.  Here, when every worker is idle — provably
//! quiescent: notifications only originate from running task code — the
//! last idler checks for a stall: all live tasks parked and every run
//! queue empty (a worker only idles with an empty slot).  It then wakes
//! exactly one task — smallest `(deadline, world rank)` — with
//! `ParkWake::Deadline`, which surfaces in the mailbox as the same
//! `Timeout` the wall clock would have produced, minus the wait.
//!
//! A task that never parks cannot be preempted (fibers are cooperative), so
//! the launching thread keeps watch while the workers run and reports
//! *starvation* — no scheduler progress for a full deadline while
//! runnable/parked tasks wait behind a spinning one — by aborting the
//! process (exit 107): the honest analogue of the deadline panic a parked
//! thread would have raised, for a fault that cannot be unwound from
//! outside.  It sleeps whole deadlines and compares the sum of the
//! workers' heartbeats; between one and two deadlines pass before a hog is
//! reported.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mim_util::deque::Injector;
use mim_util::env_u64;
use mim_util::fiber::{self, Fiber, Resume};
use mim_util::sync::{Mutex, Notifier};

use crate::sched::{clamp_choice, Decision, PolicyHandle};

/// Which engine a universe's two launches (`launch`, `launch_faulty`) use
/// to host the per-slot driver and the rank code it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// One OS thread per rank (the seed model; the equivalence oracle).
    Threads,
    /// M:N — ranks are fibers on a fixed worker pool.
    Tasks,
}

impl ExecutorKind {
    /// Read `MIM_EXECUTOR` (`threads` | `tasks`); default [`Threads`].
    /// Unrecognised values fall back to the default with a warning.
    ///
    /// [`Threads`]: ExecutorKind::Threads
    pub fn from_env() -> Self {
        match std::env::var("MIM_EXECUTOR").ok().as_deref() {
            Some("tasks") => ExecutorKind::Tasks,
            Some("threads") | None => ExecutorKind::Threads,
            Some(other) => {
                eprintln!("mim-mpisim: unknown MIM_EXECUTOR={other:?}; using threads");
                ExecutorKind::Threads
            }
        }
    }
}

/// Identity of the rank task the calling thread is currently executing:
/// the scheduler instance (universes are process-unique) plus the task's
/// world rank.  The *task-local storage key* for per-rank state that was
/// per-thread under thread-per-rank — `mim-core`'s C-API environment keys
/// its per-process monitoring slot by this, so a session opened before a
/// park is found again after the task resumes on a different worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    /// Process-unique id of the owning scheduler (`ExecShared`).
    pub exec: u64,
    /// Task index == world rank within that scheduler.
    pub index: usize,
}

thread_local! {
    /// The task this worker thread is currently running (`None` on
    /// non-worker threads and between tasks).
    static CURRENT_TASK: Cell<Option<TaskId>> = const { Cell::new(None) };
}

/// The rank task the calling thread is executing, if any.  `None` under
/// thread-per-rank (callers fall back to genuinely thread-local state).
///
/// Never inlined, for the reason `mim_util::fiber`'s own accessor gives: a
/// rank task that parks between two calls may resume on another worker, and
/// an inlined thread-local read would reuse the first worker's slot address.
#[inline(never)]
pub fn current_task() -> Option<TaskId> {
    CURRENT_TASK.with(Cell::get)
}

/// Envelopes a rank task may post per resume before a post to a queued peer
/// costs it its worker (see [`ExecShared::maybe_yield_to`]).  Not delicate.
/// Medians of four alternating `mim-ledger` runs each, 2 workers, budget
/// 1 (the yield per send this replaced) / 8 / 64 / 512: `farm_wildcard`
/// 0.335 / 0.087 / 0.053 / 0.053 s, `stencil_loop` 1.50 / 0.95 / 0.96 /
/// 0.98 s, `cg_windowed` 0.99 / 0.62 / 0.63 / 0.63 s, `ring_scale` 0.105 /
/// 0.047 / 0.047 / 0.048 s.  At 64 the yield is what it should be, a
/// backstop off the common path: the only rank of those workloads that
/// spends budgets is `farm_wildcard`'s master, which acknowledges results
/// for as long as its mailbox holds any (795 yields in 104 048 posts).
const POST_BUDGET: u32 = 64;

/// Stack size of a rank task's fiber.  Much smaller than a rank thread's:
/// simulated rank bodies are shallow, and every rank alive at once — all of
/// them, in a bulk-synchronous phase — holds one.  A task takes its stack
/// from `mim_util::fiber`'s pool at its first dispatch and returns it when
/// it finishes, so a launch whose ranks end one after another runs on a
/// handful of stacks, and the next launch faults in no fresh pages.
const TASK_STACK_SIZE: usize = 256 << 10;

thread_local! {
    /// Posts left to the task this worker is running.  Worker-local, so
    /// private to the one task a worker runs at a time and on no cache line
    /// another worker writes (`TaskSlot`s sit four to a line under foreign
    /// CASes); [`run_one`] refills it at every resume, so it never carries
    /// over from the task that ran here before.
    static POSTS_LEFT: Cell<u32> = const { Cell::new(POST_BUDGET) };
}

/// Count one post against the running task's budget; true once it is spent
/// (and until the next resume refills it).  Never inlined, as
/// [`current_task`]: the caller may have resumed on another worker since
/// its last post.
#[inline(never)]
fn post_budget_spent() -> bool {
    POSTS_LEFT.with(|left| {
        let n = left.get().saturating_sub(1);
        left.set(n);
        n == 0
    })
}

thread_local! {
    /// This worker thread's index in its pool (`usize::MAX` on any thread
    /// that never was a worker): whose heartbeat a notify bumps, and which
    /// queue is "here" to the fairness yield.
    static CURRENT_WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The pool index of the worker running the caller.  Never inlined, as
/// [`current_task`].
#[inline(never)]
fn current_worker() -> usize {
    CURRENT_WORKER.with(Cell::get)
}

/// What the tasks engine's scheduler did over one launch, summed over its
/// workers when they join (`Universe::exec_stats`).  Each worker counts in
/// its own memory, with no atomic on the dispatch path.  Scheduling, not
/// virtual time: with two or more workers the counts vary from run to run;
/// on one worker they repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Task resumes.
    pub dispatches: u64,
    /// Parks a notify token beat: the task stayed runnable in its worker's
    /// run-next slot (and, without a schedule policy, ran next).
    pub run_next_hits: u64,
    /// Resumes of a task taken from another worker's queue.
    pub steals: u64,
    /// Parks published: the task waits for a notify or a stall wake.
    pub parks: u64,
    /// Deadline wakes issued by the stall resolver.
    pub stall_wakes: u64,
    /// Fairness yields: a post made with the budget spent gave up the
    /// worker to a destination queued on it.
    pub fairness_yields: u64,
}

impl std::ops::AddAssign for ExecStats {
    fn add_assign(&mut self, o: ExecStats) {
        self.dispatches += o.dispatches;
        self.run_next_hits += o.run_next_hits;
        self.steals += o.steals;
        self.parks += o.parks;
        self.stall_wakes += o.stall_wakes;
        self.fairness_yields += o.fairness_yields;
    }
}

/// Alignment to a cache-line pair (adjacent-line prefetch fetches two), so
/// what one worker writes shares no line with what another does.
#[repr(align(128))]
#[derive(Default)]
struct Padded<T>(T);

/// Allocator for [`TaskId::exec`].
static NEXT_EXEC_ID: AtomicU64 = AtomicU64::new(0);

// Task lifecycle states (`TaskSlot::state`).
const RUNNABLE: u8 = 0;
const RUNNING: u8 = 1;
const NOTIFIED: u8 = 2;
const PARKED: u8 = 3;
const DONE: u8 = 4;

// Wake reasons (`TaskSlot::wake`).
const WAKE_NONE: u8 = 0;
const WAKE_MESSAGE: u8 = 1;
const WAKE_DEADLINE: u8 = 2;

/// Why a parked task was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkWake {
    /// A message (or a spurious token) arrived; re-poll the channel.
    Message,
    /// Deterministic stall resolution: report the wait as timed out.
    Deadline,
}

/// Per-task scheduler state.
struct TaskSlot {
    state: AtomicU8,
    wake: AtomicU8,
    /// Deadline (ms) the task's current park asked for; the stall resolver
    /// wakes the smallest `(deadline_ms, world rank)` first, so recoverable
    /// short-deadline waits resolve before long ones panic.
    deadline_ms: AtomicU64,
    /// Set by the fiber just before suspending; consumed by the worker to
    /// distinguish a park request from a bare yield.
    park_pending: AtomicBool,
    /// The worker whose queue a notify or stall wake pushes the task to:
    /// the one that last ran it (written at dispatch, only when it moves).
    /// `Relaxed`: the store precedes the resume that ends in a park, and a
    /// notifier reads it after its CAS has read that park.
    home: AtomicU32,
}

/// Scheduler state shared between the universe, its rank tasks (via
/// [`ParkerHandle`]) and the worker pool.
pub(crate) struct ExecShared {
    /// Process-unique scheduler id (the `exec` half of [`TaskId`]).
    id: u64,
    tasks: Vec<TaskSlot>,
    /// Pool size, fixed when the universe is built.
    workers: usize,
    /// One FIFO run queue per worker (see the module doc).
    queues: Box<[Padded<Injector>]>,
    /// The starvation watchdog's signs of life: one counter per worker,
    /// written by that worker alone — after every resume returns (park,
    /// yield, completion), on every stall resolution, and on every
    /// [`notify`](ExecShared::notify) *attempt*, whatever its outcome: a
    /// rank spin-sending to a starved peer is slow, not stuck; only a task
    /// burning its worker with *no* scheduler interaction at all is
    /// starvation.  The watchdog sums them once per window: nothing on the
    /// message path ever wakes that thread.
    beats: Box<[Padded<AtomicU64>]>,
    /// Wakes idle workers (epoch-counted; see `mim_util::sync::Notifier`).
    notifier: Notifier,
    parked: Padded<AtomicUsize>,
    /// Workers between going idle and resuming work; read by every push
    /// (see [`ExecShared::push`]).
    idle: Padded<AtomicUsize>,
    live: AtomicUsize,
    shutdown: AtomicBool,
    /// Serialises stall checks (belt and braces: quiescence already makes
    /// them exclusive).
    stall_lock: Mutex<()>,
    /// Installed schedule policy: the pool is one worker and every resume
    /// choice with several queued tasks is the policy's.  `None` keeps the
    /// multi-worker FIFO default.
    policy: Option<PolicyHandle>,
    /// The pool's counters, summed when the launch joins.
    stats: OnceLock<ExecStats>,
}

impl ExecShared {
    /// Scheduler state for `n` rank tasks (created with the universe so the
    /// wire layer can hold it before launch).  Under a schedule `policy`
    /// dispatch must be sequential — one worker — so the policy's resume
    /// choices are the *only* source of interleaving.
    pub(crate) fn new(n: usize, policy: Option<PolicyHandle>) -> Arc<ExecShared> {
        let workers = if policy.is_some() { 1 } else { worker_count(n) };
        ExecShared::with_workers(n, workers, policy)
    }

    /// [`ExecShared::new`] with the pool size given (tests pin it).
    fn with_workers(n: usize, workers: usize, policy: Option<PolicyHandle>) -> Arc<ExecShared> {
        // Worker indices are stored as `TaskSlot::home`.
        assert!(
            u32::try_from(workers).is_ok(),
            "{workers} executor workers do not fit a u32 index"
        );
        Arc::new(ExecShared {
            id: NEXT_EXEC_ID.fetch_add(1, Ordering::Relaxed),
            tasks: (0..n)
                .map(|_| TaskSlot {
                    state: AtomicU8::new(RUNNABLE),
                    wake: AtomicU8::new(WAKE_NONE),
                    deadline_ms: AtomicU64::new(u64::MAX),
                    park_pending: AtomicBool::new(false),
                    home: AtomicU32::new(0),
                })
                .collect(),
            workers,
            queues: (0..workers).map(|_| Padded::default()).collect(),
            beats: (0..workers).map(|_| Padded::default()).collect(),
            notifier: Notifier::new(),
            parked: Padded::default(),
            idle: Padded::default(),
            live: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stall_lock: Mutex::new(()),
            policy,
            stats: OnceLock::new(),
        })
    }

    /// The pool's counters once a launch has joined.
    pub(crate) fn stats(&self) -> Option<ExecStats> {
        self.stats.get().copied()
    }

    /// A park handle for task `index` (installed into its rank's mailbox).
    pub(crate) fn parker(self: &Arc<Self>, index: usize) -> ParkerHandle {
        ParkerHandle { exec: Arc::clone(self), index }
    }

    /// Wake task `dst` because a message was just delivered to its channel.
    /// Safe to call from any thread, any number of times; never lost, never
    /// double-enqueues (see the module-level protocol).
    pub(crate) fn notify(&self, dst: usize) {
        self.beat(current_worker());
        let slot = &self.tasks[dst];
        loop {
            match slot.state.load(Ordering::Acquire) {
                PARKED => {
                    if slot
                        .state
                        .compare_exchange(PARKED, RUNNABLE, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        slot.wake.store(WAKE_MESSAGE, Ordering::Release);
                        self.parked.0.fetch_sub(1, Ordering::SeqCst);
                        self.push(dst);
                        return;
                    }
                }
                RUNNING => {
                    if slot
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Runnable (already queued), Notified (token pending) or
                // Done: nothing to do — the message sits in the channel and
                // will be seen at the next poll, if any.
                _ => return,
            }
        }
    }

    /// Queue runnable `task` at the back of its home worker's queue, and
    /// wake the idle workers if there are any (one may steal it).  `idle`
    /// is read after the push; an idler raises it before its last look at
    /// the queues (`worker_loop`), so either that look finds the task or
    /// this read finds the idler and advances the epoch it sleeps on.
    fn push(&self, task: usize) {
        let home = self.tasks[task].home.load(Ordering::Relaxed) as usize;
        self.queues[home].0.push(task);
        if self.idle.0.load(Ordering::SeqCst) > 0 {
            self.notifier.notify();
        }
    }

    /// One sign of life from worker `wid` (no-op off the pool).  A plain
    /// load and store: no other thread writes this counter.
    fn beat(&self, wid: usize) {
        if let Some(beat) = self.beats.get(wid) {
            beat.0.store(beat.0.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
        }
    }

    /// The sum of the workers' heartbeats.
    fn heartbeat(&self) -> u64 {
        self.beats.iter().map(|b| b.0.load(Ordering::Relaxed)).fold(0, u64::wrapping_add)
    }

    /// Whether task `dst` is queued waiting for *this* worker (racy
    /// snapshot; used only as a fairness hint by [`maybe_yield_to`]).  A
    /// peer queued on another worker gets its turn there whatever this
    /// task does, so yielding to it would only cost this task its slice.
    ///
    /// [`maybe_yield_to`]: ExecShared::maybe_yield_to
    fn is_queued_here(&self, dst: usize) -> bool {
        let slot = &self.tasks[dst];
        slot.state.load(Ordering::Relaxed) == RUNNABLE
            && slot.home.load(Ordering::Relaxed) as usize == current_worker()
    }

    /// Fairness yield, budgeted: a rank task may post [`POST_BUDGET`]
    /// envelopes per resume; the post that exhausts the budget — or any
    /// later one — to a peer queued on this worker gives up the worker (to
    /// the *back* of its own queue) so the peer gets a turn.  A send is not
    /// a context switch: yielding after *every* post to a queued peer (the
    /// rule until PR 18) fired on ≈ 125 000 of the 127 357 posts of one
    /// `stencil_loop` repetition — with 1024 ranks on 2 workers every peer
    /// is always queued — and ran each rank's iteration as four or five
    /// slices on a cold cache.  What the yield is for survives: a
    /// send-and-never-block loop still cannot starve its destination on a
    /// small pool (the fiber analogue of the OS preemption thread-per-rank
    /// gets for free), and the backlog it can build unread is bounded by
    /// the budget.  Purely a scheduling choice: virtual clocks, matrices
    /// and traces are interleaving-independent.
    pub(crate) fn maybe_yield_to(&self, dst: usize) {
        if post_budget_spent() && self.is_queued_here(dst) && fiber::is_fiber() {
            fiber::suspend();
        }
    }

    /// All-workers-idle stall check (runs quiescent: every notify source is
    /// task code, no task is running, and a worker only idles with an empty
    /// run-next slot), by worker `wid`.  Shut down when nothing is live;
    /// otherwise, if every live task is parked and every run queue is
    /// empty, resolve the stall by waking one task with a deadline signal.
    fn stall_check(&self, wid: usize, stats: &mut ExecStats) {
        let _guard = self.stall_lock.lock();
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let live = self.live.load(Ordering::SeqCst);
        if live == 0 {
            self.shutdown.store(true, Ordering::Release);
            self.notifier.notify();
            return;
        }
        if self.parked.0.load(Ordering::SeqCst) != live || self.queued() {
            return;
        }
        // Deterministic order: smallest requested deadline, then smallest
        // world rank.  Waking exactly one task keeps the resolution
        // sequential — if it unblocks the job, everyone else proceeds; if
        // the job is truly deadlocked, each wake ends in the same
        // "deadlock:" panic the wall clock would have produced.
        let victim = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state.load(Ordering::SeqCst) == PARKED)
            .min_by_key(|(i, t)| (t.deadline_ms.load(Ordering::SeqCst), *i))
            .map(|(i, _)| i);
        if let Some(i) = victim {
            if self.tasks[i]
                .state
                .compare_exchange(PARKED, RUNNABLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.tasks[i].wake.store(WAKE_DEADLINE, Ordering::Release);
                self.parked.0.fetch_sub(1, Ordering::SeqCst);
                // This worker counts as idle, so the push wakes the pool.
                self.push(i);
                self.beat(wid);
                stats.stall_wakes += 1;
            }
        }
    }

    /// Whether any run queue holds a task (racy; exact when quiescent).
    fn queued(&self) -> bool {
        self.queues.iter().any(|q| !q.0.is_empty())
    }
}

/// Mailbox-side handle: parks the *calling fiber* until notified.
pub(crate) struct ParkerHandle {
    exec: Arc<ExecShared>,
    index: usize,
}

impl std::fmt::Debug for ParkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkerHandle").field("index", &self.index).finish()
    }
}

impl ParkerHandle {
    /// Suspend the calling task until a message notification or a stall
    /// resolution targets it.  `deadline` is not waited for — it is the
    /// priority key the stall resolver orders deadline wakes by.
    pub(crate) fn park(&self, deadline: Duration) -> ParkWake {
        let slot = &self.exec.tasks[self.index];
        let ms = u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX);
        slot.deadline_ms.store(ms, Ordering::SeqCst);
        slot.park_pending.store(true, Ordering::Release);
        fiber::suspend();
        match slot.wake.swap(WAKE_NONE, Ordering::AcqRel) {
            WAKE_DEADLINE => ParkWake::Deadline,
            _ => ParkWake::Message,
        }
    }
}

/// Worker count for an `n`-task run: every core (`MIM_WORKERS` overrides;
/// a malformed value panics), never more workers than tasks.
fn worker_count(n: usize) -> usize {
    let cpus = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let w = env_u64("MIM_WORKERS").map_or(cpus, |w| w as usize);
    w.clamp(1, n.max(1))
}

/// A panic payload, as `thread::JoinHandle::join` returns it.
type Payload = Box<dyn std::any::Any + Send>;

/// Where a task's fiber is between dispatches.
enum TaskFiber {
    /// Never dispatched: no fiber and no stack yet.
    Unmade,
    /// Suspended, waiting for its next dispatch.
    Suspended(Fiber),
    /// Out with the worker resuming it.
    Running,
    /// Finished, with its panic payload if the body unwound.
    Done(Option<Payload>),
}

/// One launch as its workers see it: the body every task runs, with its
/// own index, and each task's fiber.
struct Launch {
    body: &'static (dyn Fn(usize) + Sync),
    fibers: Vec<Mutex<TaskFiber>>,
}

/// Run tasks `0..n` (one per rank, indexed by world rank) to completion on
/// the worker pool, task `i` running `body(i)` on a fiber made at its first
/// dispatch.  Returns each task's panic payload slot, in task order — the
/// same shape `thread::JoinHandle::join` gives the thread-per-rank engine.
/// `body` must outlive nothing but this call: every fiber is dropped, and
/// the pool joined, before it returns.
pub(crate) fn run_tasks(
    exec: &Arc<ExecShared>,
    n: usize,
    body: &'static (dyn Fn(usize) + Sync),
    deadline: Duration,
) -> Vec<Option<Payload>> {
    assert_eq!(n, exec.tasks.len(), "one task per task slot");
    let launch = Launch { body, fibers: (0..n).map(|_| Mutex::new(TaskFiber::Unmade)).collect() };
    exec.live.store(n, Ordering::SeqCst);
    exec.parked.0.store(0, Ordering::SeqCst);
    exec.idle.0.store(0, Ordering::SeqCst);
    exec.shutdown.store(false, Ordering::SeqCst);
    for (i, slot) in exec.tasks.iter().enumerate() {
        // A block partition: ring and halo neighbours share a home.
        let home = i * exec.workers / n;
        slot.home.store(home as u32, Ordering::Relaxed);
        slot.state.store(RUNNABLE, Ordering::SeqCst);
        exec.queues[home].0.push(i);
    }
    // Notified by each worker as it returns — which it only does once the
    // run is shut down — so the watchdog below never sleeps out its window
    // on a finished run.
    let exited = Notifier::new();
    let stats = std::thread::scope(|scope| {
        let pool: Vec<_> = (0..exec.workers)
            .map(|wid| {
                let exec = Arc::clone(exec);
                let (launch, exited) = (&launch, &exited);
                std::thread::Builder::new()
                    .name(format!("mim-exec-{wid}"))
                    .spawn_scoped(scope, move || {
                        let stats = worker_loop(&exec, wid, launch);
                        exited.notify();
                        stats
                    })
                    .unwrap_or_else(|e| panic!("failed to spawn executor worker: {e}"))
            })
            .collect();
        // The launching thread has nothing to do until the workers are
        // done: it keeps watch.
        watchdog_loop(exec, &exited, deadline);
        let mut sum = ExecStats::default();
        for worker in pool {
            sum += worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
        sum
    });
    let _ = exec.stats.set(stats);
    // The run shut down with nothing live: every task finished.
    (launch.fibers.into_iter().enumerate())
        .map(|(task, fiber)| match fiber.into_inner() {
            TaskFiber::Done(payload) => payload,
            _ => panic!("executor: task {task} had not finished when the pool shut down"),
        })
        .collect()
}

/// Find worker `wid`'s next runnable task: its run-next slot, its own
/// queue, then the oldest task of another worker's queue (a steal).  With a
/// schedule policy installed, the policy picks instead.
fn next_task(
    exec: &ExecShared,
    wid: usize,
    run_next: &mut Option<usize>,
    stats: &mut ExecStats,
) -> Option<usize> {
    if let Some(policy) = &exec.policy {
        return next_task_policed(&exec.queues[wid].0, run_next, policy);
    }
    if let Some(task) = run_next.take().or_else(|| exec.queues[wid].0.pop()) {
        return Some(task);
    }
    let task = (1..exec.workers).find_map(|k| exec.queues[(wid + k) % exec.workers].0.pop())?;
    stats.steals += 1;
    Some(task)
}

/// Deterministic dispatch under a schedule policy (the pool runs a single
/// worker with a single queue): gather every queued task — the run-next
/// slot first, then the queue in FIFO order — and let the policy pick
/// which resumes.  The slate is offered in canonical dispatch order (index
/// 0 = what the un-policed scheduler would run next); unchosen tasks return
/// to the queue in slate order, so the next decision sees them in a stable
/// order.
fn next_task_policed(
    queue: &Injector,
    run_next: &mut Option<usize>,
    policy: &PolicyHandle,
) -> Option<usize> {
    let mut cands: Vec<usize> = run_next.take().into_iter().collect();
    while let Some(t) = queue.pop() {
        cands.push(t);
    }
    let i = match cands.len() {
        0 => return None,
        1 => 0,
        n => clamp_choice(policy.choose(Decision::TaskResume { candidates: &cands }), n),
    };
    let chosen = cands.remove(i);
    for t in cands {
        queue.push(t);
    }
    Some(chosen)
}

fn worker_loop(exec: &Arc<ExecShared>, wid: usize, launch: &Launch) -> ExecStats {
    CURRENT_WORKER.with(|w| w.set(wid));
    let mut stats = ExecStats::default();
    // The task this worker resumes next, ahead of its queue (see
    // `run_one`); visible to no other worker, and empty whenever it idles.
    let mut run_next = None;
    loop {
        let mut task = next_task(exec, wid, &mut run_next, &mut stats);
        if task.is_none() {
            // Going idle.  Raise `idle` before the wake-epoch snapshot and
            // the last look at the queues (see `ExecShared::push`), and
            // snapshot the epoch before that look and the shutdown check:
            // any store-then-notify landing after the snapshot advances the
            // epoch, so the wait below returns at once.
            let idlers = exec.idle.0.fetch_add(1, Ordering::SeqCst) + 1;
            let seen = exec.notifier.epoch();
            if exec.shutdown.load(Ordering::Acquire) {
                exec.idle.0.fetch_sub(1, Ordering::SeqCst);
                return stats;
            }
            task = next_task(exec, wid, &mut run_next, &mut stats);
            if task.is_none() {
                if idlers == exec.workers {
                    exec.stall_check(wid, &mut stats);
                }
                exec.notifier.wait_while_epoch(seen);
            }
            exec.idle.0.fetch_sub(1, Ordering::SeqCst);
        }
        if let Some(task) = task {
            run_one(exec, wid, task, &mut run_next, launch, &mut stats);
        }
    }
}

/// Resume one task on worker `wid` — making its fiber, at its first
/// dispatch — and publish its new state (see the module-level protocol: the
/// publish happens strictly after the fiber switched out).
fn run_one(
    exec: &ExecShared,
    wid: usize,
    task: usize,
    run_next: &mut Option<usize>,
    launch: &Launch,
    stats: &mut ExecStats,
) {
    stats.dispatches += 1;
    let slot = &exec.tasks[task];
    // A task's home is where it last ran: a stolen one moves in here.
    if slot.home.load(Ordering::Relaxed) as usize != wid {
        slot.home.store(wid as u32, Ordering::Relaxed);
    }
    slot.state.store(RUNNING, Ordering::SeqCst);
    let fiber = std::mem::replace(&mut *launch.fibers[task].lock(), TaskFiber::Running);
    let mut fiber = match fiber {
        TaskFiber::Suspended(fiber) => fiber,
        TaskFiber::Unmade => {
            let body = launch.body;
            Fiber::new(TASK_STACK_SIZE, Box::new(move || body(task)))
        }
        // A task id can only be queued once, and never once it finished.
        TaskFiber::Running | TaskFiber::Done(_) => {
            panic!("executor: task {task} dispatched while running or after it finished")
        }
    };
    CURRENT_TASK.with(|c| c.set(Some(TaskId { exec: exec.id, index: task })));
    POSTS_LEFT.with(|left| left.set(POST_BUDGET));
    let resumed = fiber.resume();
    CURRENT_TASK.with(|c| c.set(None));
    exec.beat(wid);
    match resumed {
        Resume::Done => {
            let payload = fiber.take_panic();
            // The stack goes back to the pool now, for this worker's next
            // first dispatch to take: a launch whose ranks end one after
            // another runs on a few stacks, not one per rank.
            drop(fiber);
            *launch.fibers[task].lock() = TaskFiber::Done(payload);
            slot.state.store(DONE, Ordering::SeqCst);
            if exec.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                exec.shutdown.store(true, Ordering::Release);
                exec.notifier.notify();
            }
        }
        Resume::Suspended => {
            // The fiber must be back in its slot before any publish: a
            // concurrent notify may re-dispatch the task to another worker
            // the instant the CAS lands.
            *launch.fibers[task].lock() = TaskFiber::Suspended(fiber);
            if slot.park_pending.swap(false, Ordering::AcqRel) {
                // Count the park *before* publishing it, so the notifier's
                // decrement (which can only follow a successful publish)
                // never observes the counter early.
                exec.parked.0.fetch_add(1, Ordering::SeqCst);
                if slot
                    .state
                    .compare_exchange(RUNNING, PARKED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    stats.parks += 1;
                } else {
                    // A notify token landed while the task was still
                    // Running: consume it and keep the task runnable — on
                    // this worker, next, since its message is already there.
                    exec.parked.0.fetch_sub(1, Ordering::SeqCst);
                    slot.wake.store(WAKE_MESSAGE, Ordering::Release);
                    slot.state.store(RUNNABLE, Ordering::SeqCst);
                    *run_next = Some(task);
                    stats.run_next_hits += 1;
                }
            } else {
                // Fairness yield: to the *back* of this worker's own queue
                // (the task's home is here now; the run-next slot would run
                // the yielder again first, defeating the yield's point).
                stats.fairness_yields += 1;
                slot.state.store(RUNNABLE, Ordering::SeqCst);
                exec.push(task);
            }
        }
    }
}

/// Starvation watchdog: if the scheduler makes no progress for a full
/// `deadline` while some task is running and others wait (parked or
/// queued), a fiber is hogging its worker without yielding.  Cooperative
/// scheduling cannot preempt or unwind it, so report and abort — the
/// analogue of the deadline panic the waiting ranks would have raised under
/// thread-per-rank.
///
/// An installed [`crate::sched`] policy suspends the abort: it may
/// legitimately hold tasks parked (or a running task un-resumed) for many
/// wall-clock deadlines while it explores a schedule, which is
/// indistinguishable from starvation out here.  The deterministic stall
/// resolver — virtual order, no wall clock — still fires deadline wakes, so
/// real deadlocks keep surfacing as `deadlock:` panics.
fn watchdog_loop(exec: &ExecShared, exited: &Notifier, deadline: Duration) {
    loop {
        // Epoch before flag, as in `worker_loop`: a worker that returns
        // after the check has advanced the epoch by the time we sleep.
        let epoch = exited.epoch();
        let seen = exec.heartbeat();
        if exec.shutdown.load(Ordering::Acquire) {
            return;
        }
        // A whole window asleep unless the run ends: no park, unpark or
        // completion wakes this thread, it only reads their count afterwards.
        if exited.wait_timeout_epoch(epoch, deadline) || exec.heartbeat() != seen {
            continue;
        }
        let running: Vec<usize> = exec
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state.load(Ordering::SeqCst) == RUNNING)
            .map(|(i, _)| i)
            .collect();
        let waiting = exec.parked.0.load(Ordering::SeqCst) > 0 || exec.queued();
        if !running.is_empty() && waiting && exec.policy.is_none() {
            eprintln!(
                "mim-mpisim: starvation: rank task(s) {running:?} ran for {deadline:?} \
                 without yielding while other ranks wait; a fiber cannot be preempted \
                 — aborting (exit 107)"
            );
            std::process::exit(107);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CanonicalPolicy, SrcSel, TagSel, Universe, UniverseConfig};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executor_kind_from_env() {
        std::env::remove_var("MIM_EXECUTOR");
        assert_eq!(ExecutorKind::from_env(), ExecutorKind::Threads);
        std::env::set_var("MIM_EXECUTOR", "tasks");
        assert_eq!(ExecutorKind::from_env(), ExecutorKind::Tasks);
        std::env::set_var("MIM_EXECUTOR", "threads");
        assert_eq!(ExecutorKind::from_env(), ExecutorKind::Threads);
        std::env::remove_var("MIM_EXECUTOR");
    }

    /// [`run_tasks`] over every task slot of `exec`.  The body must outlive
    /// the launch, so it is leaked: a few bytes per test.
    fn run(
        exec: &Arc<ExecShared>,
        deadline_s: u64,
        body: impl Fn(usize) + Sync + 'static,
    ) -> Vec<Option<Payload>> {
        let n = exec.tasks.len();
        run_tasks(exec, n, Box::leak(Box::new(body)), Duration::from_secs(deadline_s))
    }

    /// The raw engine, no mailboxes: tasks park themselves and are woken by
    /// explicit notifies from other tasks — a pure protocol exercise.
    #[test]
    fn park_notify_chain_runs_to_completion() {
        const N: usize = 8;
        let exec = ExecShared::new(N, None);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (e, o) = (Arc::clone(&exec), Arc::clone(&order));
        let payloads = run(&exec, 30, move |i| {
            // Every task > 0 parks until its predecessor wakes it.  The
            // predecessor's notify may land before the park (token) or
            // after (unpark): both must work.
            if i > 0 {
                let parker = e.parker(i);
                while !o.lock().contains(&(i - 1)) {
                    let _ = parker.park(Duration::from_secs(600));
                }
            }
            o.lock().push(i);
            if i + 1 < N {
                e.notify(i + 1);
            }
        });
        assert!(payloads.iter().all(|p| p.is_none()));
        assert_eq!(*order.lock(), (0..N).collect::<Vec<_>>());
    }

    /// The watchdog sleeps whole deadlines, so the end of the run must wake
    /// it: a lost wake-up shows as a launch that outlives its tasks by the
    /// rest of the window (a minute here) — which no other test would see.
    #[test]
    fn finished_run_does_not_wait_out_the_watchdog_window() {
        const N: usize = 16;
        let exec = ExecShared::new(N, None);
        let (body, passes) = baton(&exec, 4);
        let started = std::time::Instant::now();
        let payloads = run(&exec, 60, body);
        assert!(payloads.iter().all(|p| p.is_none()));
        assert_eq!(passes.load(Ordering::SeqCst), 4 * N);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "launch returned {:?} after start: the watchdog slept on",
            started.elapsed()
        );
    }

    /// Two ranks on the tasks engine with a single worker (a schedule
    /// policy forces sequential dispatch; the canonical one is otherwise
    /// bit-identical to none), so who runs when is the fairness yield's
    /// doing alone.
    fn two_ranks_one_worker() -> Universe {
        use mim_topology::{Machine, Placement};
        let cfg = UniverseConfig::new(Machine::cluster(1, 1, 2), Placement::packed(2))
            .with_executor(ExecutorKind::Tasks)
            .with_schedule_policy(Arc::new(CanonicalPolicy));
        Universe::new(cfg)
    }

    /// The fairness bound, in both directions.  Rank 0 streams to rank 1 and
    /// counts its completed posts; rank 1 reads the count at its first
    /// completed receive.  A yield per send loses the worker inside the very
    /// first send (count 0); no yield at all lets the whole stream through.
    #[test]
    fn post_budget_bounds_a_streaming_sender() {
        let budget = POST_BUDGET as usize;
        let posted = AtomicUsize::new(0);
        let seen = two_ranks_one_worker().launch(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                for _ in 0..10 * budget {
                    rank.send_synthetic(&world, 1, 0, 8);
                    posted.fetch_add(1, Ordering::SeqCst);
                }
                return 0;
            }
            rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(0));
            let seen = posted.load(Ordering::SeqCst);
            for _ in 1..10 * budget {
                rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(0));
            }
            seen
        })[1];
        assert!(seen >= 2, "the sender lost its worker after {seen} post(s): a yield per send");
        assert!(seen <= budget, "{seen} posts before the receiver ran: budget {budget} not held");
    }

    /// The budget is per resume: a sender that parks mid-stream (a receive
    /// that must wait) comes back with a full one, not the remainder.
    #[test]
    fn post_budget_restarts_when_the_sender_parks() {
        let budget = POST_BUDGET as usize;
        let half = budget / 2;
        let posted = AtomicUsize::new(0);
        let seen = two_ranks_one_worker().launch(|rank| {
            let world = rank.comm_world();
            if rank.world_rank() == 0 {
                for _ in 0..half {
                    rank.send_synthetic(&world, 1, 0, 8);
                }
                // Rank 1 answers only after draining the first half.
                rank.recv_synthetic(&world, SrcSel::Rank(1), TagSel::Is(1));
                for _ in 0..10 * budget {
                    rank.send_synthetic(&world, 1, 0, 8);
                    posted.fetch_add(1, Ordering::SeqCst);
                }
                return 0;
            }
            for _ in 0..half {
                rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(0));
            }
            rank.send_synthetic(&world, 0, 1, 8);
            rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(0));
            let seen = posted.load(Ordering::SeqCst);
            for _ in 1..10 * budget {
                rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(0));
            }
            seen
        })[1];
        assert!(
            seen > budget - half,
            "{seen} posts after the park: the {half} before it were still counted"
        );
        assert!(seen <= budget, "{seen} posts before the receiver ran: budget {budget} not held");
    }

    /// A baton around a ring of every task of `exec`, `laps` times: everyone
    /// parks until its predecessor has passed it on, then wakes its
    /// successor.  Returns the body and the count of passes.
    fn baton(
        exec: &Arc<ExecShared>,
        laps: usize,
    ) -> (impl Fn(usize) + Sync + 'static, Arc<AtomicUsize>) {
        let n = exec.tasks.len();
        let passes = Arc::new(AtomicUsize::new(0));
        let (exec, p) = (Arc::clone(exec), Arc::clone(&passes));
        let body = move |i| {
            let parker = exec.parker(i);
            for lap in 0..laps {
                while p.load(Ordering::SeqCst) < lap * n + i {
                    let _ = parker.park(Duration::from_secs(600));
                }
                p.fetch_add(1, Ordering::SeqCst);
                exec.notify((i + 1) % n);
            }
        };
        (body, passes)
    }

    /// One worker has nobody to steal from, and runs the same schedule
    /// every time: its counters repeat exactly.
    #[test]
    fn one_worker_counts_repeat_and_never_steal() {
        const N: usize = 12;
        let launch = || {
            let exec = ExecShared::with_workers(N, 1, None);
            let payloads = run(&exec, 60, baton(&exec, 3).0);
            assert!(payloads.iter().all(|p| p.is_none()));
            exec.stats().unwrap_or_else(|| panic!("a joined launch has counters"))
        };
        let first = launch();
        assert_eq!(first.steals, 0);
        assert!(first.dispatches >= N as u64 && first.parks > 0, "{first:?}");
        assert_eq!(first.dispatches, first.parks + first.run_next_hits + N as u64, "{first:?}");
        for _ in 0..3 {
            assert_eq!(launch(), first);
        }
    }

    /// Launch homes are a block partition, and a worker whose queue is
    /// empty steals the front of another's and becomes the task's home.
    #[test]
    fn an_idle_worker_steals_and_rehomes() {
        let exec = ExecShared::with_workers(4, 2, None);
        // Tasks 0, 1 start on worker 0 and 2, 3 on worker 1.  Task 0 holds
        // its worker until task 1 has run, which takes the other worker:
        // whichever worker runs task 0, the other must steal.
        let ran_on: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(usize::MAX)).collect());
        let r = Arc::clone(&ran_on);
        let payloads = run(&exec, 60, move |i| {
            r[i].store(current_worker(), Ordering::SeqCst);
            while i == 0 && r[1].load(Ordering::SeqCst) == usize::MAX {
                std::thread::yield_now();
            }
        });
        assert!(payloads.iter().all(|p| p.is_none()));
        let stats = exec.stats().unwrap_or_else(|| panic!("a joined launch has counters"));
        let ran_on: Vec<usize> = ran_on.iter().map(|w| w.load(Ordering::SeqCst)).collect();
        let homes: Vec<usize> =
            exec.tasks.iter().map(|t| t.home.load(Ordering::Relaxed) as usize).collect();
        assert_eq!(homes, ran_on, "a task's home is the worker that ran it");
        assert_ne!(ran_on[0], ran_on[1]);
        let moved = ran_on.iter().zip([0, 0, 1, 1]).filter(|(w, launch)| **w != *launch).count();
        assert!(stats.steals >= 1, "{stats:?}");
        assert_eq!(stats.steals, moved as u64, "{stats:?}, ran on {ran_on:?}");
        assert_eq!(stats.dispatches, 4);
    }

    /// The universe's view of the counters: `None` on the threads engine
    /// and before a launch, the pool's sum after one.
    #[test]
    fn universe_reports_counters_of_the_tasks_engine_only() {
        use mim_topology::{Machine, Placement};
        let threads = Universe::new(
            UniverseConfig::new(Machine::cluster(1, 1, 4), Placement::packed(4))
                .with_executor(ExecutorKind::Threads),
        );
        threads.launch(|rank| rank.barrier(&rank.comm_world()));
        assert_eq!(threads.exec_stats(), None);
        let tasks = two_ranks_one_worker();
        assert_eq!(tasks.exec_stats(), None);
        tasks.launch(|rank| rank.barrier(&rank.comm_world()));
        let stats = tasks.exec_stats().unwrap_or_else(|| panic!("tasks engine has counters"));
        assert!(stats.dispatches >= 2 && stats.steals == 0, "{stats:?}");
    }

    /// All tasks park forever: the stall resolver must wake them in
    /// (deadline, rank) order, each observing `ParkWake::Deadline`.
    #[test]
    fn stall_resolution_wakes_in_deadline_order() {
        const N: usize = 4;
        let exec = ExecShared::new(N, None);
        let wake_order = Arc::new(Mutex::new(Vec::new()));
        let (e, w) = (Arc::clone(&exec), Arc::clone(&wake_order));
        let payloads = run(&exec, 30, move |i| {
            // Distinct deadlines, reverse of rank order.
            let parker = e.parker(i);
            let deadline = Duration::from_millis(((N - i) * 1000) as u64);
            loop {
                if parker.park(deadline) == ParkWake::Deadline {
                    w.lock().push(i);
                    return;
                }
            }
        });
        assert!(payloads.iter().all(|p| p.is_none()));
        // Smallest deadline first: rank N-1 parked with 1000 ms, and so on.
        assert_eq!(*wake_order.lock(), vec![3, 2, 1, 0]);
        assert_eq!(exec.stats().map(|s| s.stall_wakes), Some(N as u64));
    }

    /// A panicking task surfaces its payload in its own slot; others run on.
    #[test]
    fn panic_is_confined_to_its_task_slot() {
        let exec = ExecShared::new(3, None);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let payloads = run(&exec, 30, move |i| {
            if i == 1 {
                panic!("task 1 exploded");
            }
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert!(payloads[0].is_none());
        assert!(payloads[1].is_some());
        assert!(payloads[2].is_none());
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    /// More tasks than any realistic thread count, all parking once: the
    /// pool multiplexes them on a handful of workers.
    #[test]
    fn thousand_tasks_on_default_pool() {
        const N: usize = 1000;
        let exec = ExecShared::new(N, None);
        let sum = Arc::new(AtomicUsize::new(0));
        let (e, s) = (Arc::clone(&exec), Arc::clone(&sum));
        let payloads = run(&exec, 60, move |i| {
            // Ring notify: wake the next task, then park until woken
            // (token or unpark), then finish.
            e.notify((i + 1) % N);
            s.fetch_add(1, Ordering::SeqCst);
        });
        assert!(payloads.iter().all(|p| p.is_none()));
        assert_eq!(sum.load(Ordering::SeqCst), N);
    }

    /// One worker finishes each task at its first dispatch before it makes
    /// the next, so the stack one task returns to the pool is the one the
    /// next takes.  A task reads its stack from the page of a local, the
    /// same frame on every task.  Other tests of this binary take and return
    /// pool stacks meanwhile, which may hand a task one of theirs; an eager
    /// launch would show one stack per task.
    #[test]
    fn tasks_that_finish_at_first_dispatch_reuse_a_few_stacks() {
        const N: usize = 10_000;
        const PAGE: usize = 4096;
        let exec = ExecShared::with_workers(N, 1, None);
        let pages = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let p = Arc::clone(&pages);
        let payloads = run(&exec, 60, move |_| {
            let local = 0u8;
            let addr = std::hint::black_box(&local) as *const u8 as usize;
            p.lock().insert(addr & !(PAGE - 1));
        });
        assert!(payloads.iter().all(|p| p.is_none()));
        let stacks = pages.lock().len();
        assert!(stacks <= N / 100, "{N} tasks that never parked ran on {stacks} stacks");
    }

    /// The first launch fills the stack pool and the second runs on it: the
    /// clocks of a 4096-rank ring must not know which one they came from.
    #[test]
    fn back_to_back_ring_launches_give_identical_clocks() {
        use mim_topology::{Machine, Placement};
        const RANKS: usize = 4096;
        let ring = || {
            let cfg =
                UniverseConfig::new(Machine::cluster(RANKS / 64, 1, 64), Placement::packed(RANKS))
                    .with_executor(ExecutorKind::Tasks);
            Universe::new(cfg).launch(|rank| {
                let world = rank.comm_world();
                let (me, size) = (world.rank(), world.size());
                for round in 0..4 {
                    rank.send_synthetic(&world, (me + 1) % size, round, 256);
                    rank.recv_synthetic(
                        &world,
                        SrcSel::Rank((me + size - 1) % size),
                        TagSel::Is(round),
                    );
                }
                rank.now_ns().to_bits()
            })
        };
        let first = ring();
        assert!(first.iter().any(|&c| c != 0));
        assert_eq!(ring(), first);
    }
}
