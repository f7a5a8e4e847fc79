//! The M:N rank executor: every simulated rank is a resumable *task* (a
//! stackful fiber, `mim_util::fiber`) multiplexed onto a fixed pool of
//! worker threads over **one FIFO run queue** (the locked
//! `mim_util::deque::Injector`): launch, [`ExecShared::notify`], bare yields
//! and stall wakes all push there and any worker pops it, so tasks migrate
//! between workers.  The one thing a worker keeps to itself is a *run-next
//! slot*: a task that asked to park after a notify token had already landed
//! on it is resumed by the same worker straight away.  There is no work
//! stealing.  PR 6 built per-worker Chase–Lev deques for it; counted over
//! whole runs of the six live ledger workloads (seed 1, 3 s each, 2
//! workers) they served 6 355 974 dispatches as 6 110 844 injector pops,
//! 245 130 pops of the task the same worker had just pushed, and **0**
//! steals, retries or spills — the deque was only ever this slot.
//!
//! Thread-per-rank ([`ExecutorKind::Threads`]) remains the always-available
//! equivalence oracle; this module only changes *where* rank code runs, not
//! *what* it computes — the virtual-clock DES is scheduling-independent, so
//! completion times, monitoring matrices, NIC counters and per-rank trace
//! streams are bit-identical across the two modes (property-tested in
//! `tests/executor_equivalence.rs`).
//!
//! # Park/unpark protocol
//!
//! A rank that blocks in its mailbox parks its *task*, not a thread:
//!
//! 1. **Fiber side** ([`ParkerHandle::park`]): record the requested
//!    deadline, raise `park_pending`, and `fiber::suspend()` back to the
//!    worker.
//! 2. **Worker side** (scheduler-side publish): only after the fiber has
//!    fully switched out does the worker publish the parked state with
//!    `CAS(Running → Parked)`.  A concurrent [`ExecShared::notify`] that
//!    caught the task still `Running` left a `Notified` token instead; the
//!    failed CAS observes it and the worker keeps the task in its run-next
//!    slot — the wakeup is never lost, and a resumed fiber can never race
//!    its own suspension.
//! 3. **Sender side**: `Shared::post` delivers the envelope, then calls
//!    `notify(dst)`, which CASes `Parked → Runnable` (pushing the task to
//!    the injector and waking an idle worker) or `Running → Notified`.
//!    `notify` never touches a `Notified` task, so a task is never enqueued
//!    twice.
//!
//! # Deterministic stall resolution
//!
//! Thread-per-rank relies on wall-clock `recv_timeout` to detect
//! application deadlock.  Here, when every worker is idle — provably
//! quiescent: notifications only originate from running task code — the
//! last idler checks for a stall: all live tasks parked and the run queue
//! empty (a worker only idles with an empty slot).  It then wakes exactly
//! one task — smallest `(deadline, world rank)` — with
//! [`ParkWake::Deadline`], which surfaces in the mailbox as the same
//! `Timeout` the wall clock would have produced, minus the wait.
//!
//! A task that never parks cannot be preempted (fibers are cooperative), so
//! the launching thread keeps watch while the workers run and reports
//! *starvation* — no scheduler progress for a full deadline while
//! runnable/parked tasks wait behind a spinning one — by aborting the
//! process (exit 107): the honest analogue of the deadline panic a parked
//! thread would have raised, for a fault that cannot be unwound from
//! outside.  It sleeps whole deadlines and compares one counter; between
//! one and two deadlines pass before a hog is reported.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mim_util::deque::Injector;
use mim_util::fiber::{self, Fiber, Resume};
use mim_util::sync::{Mutex, Notifier};

use crate::sched::{clamp_choice, Decision, PolicyHandle};

/// Which engine a universe's launch family (`launch`, `launch_faulty`,
/// `launch_elastic`) uses to host rank code.
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
    /// Process-unique id of the owning scheduler ([`ExecShared`]).
    pub exec: u64,
    /// Task index == world rank within that scheduler.
    pub index: usize,
}

thread_local! {
    /// The task this worker thread is currently running (`None` on
    /// non-worker threads and between tasks).
    static CURRENT_TASK: std::cell::Cell<Option<TaskId>> =
        const { std::cell::Cell::new(None) };
}

/// The rank task the calling thread is executing, if any.  `None` under
/// thread-per-rank (callers fall back to genuinely thread-local state).
///
/// Never inlined, for the reason `mim_util::fiber`'s own accessor gives: a
/// rank task that parks between two calls may resume on another worker, and
/// an inlined thread-local read would reuse the first worker's slot address.
#[inline(never)]
pub fn current_task() -> Option<TaskId> {
    CURRENT_TASK.with(std::cell::Cell::get)
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
/// 10k ranks × this many bytes must fit comfortably in memory, and
/// simulated rank bodies are shallow.
const TASK_STACK_SIZE: usize = 256 << 10;

thread_local! {
    /// Posts left to the task this worker is running.  Worker-local, so
    /// private to the one task a worker runs at a time and on no cache line
    /// another worker writes (`TaskSlot`s sit four to a line under foreign
    /// CASes); [`run_one`] refills it at every resume, so it never carries
    /// over from the task that ran here before.
    static POSTS_LEFT: std::cell::Cell<u32> = const { std::cell::Cell::new(POST_BUDGET) };
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
}

/// Scheduler state shared between the universe, its rank tasks (via
/// [`ParkerHandle`]) and the worker pool.
pub(crate) struct ExecShared {
    /// Process-unique scheduler id (the `exec` half of [`TaskId`]).
    id: u64,
    tasks: Vec<TaskSlot>,
    injector: Injector,
    /// Wakes idle workers (epoch-counted; see `mim_util::sync::Notifier`).
    notifier: Notifier,
    /// The starvation watchdog's one sign of life: bumped on every park,
    /// completion and stall resolution, and on every
    /// [`notify`](ExecShared::notify) *attempt*, whatever its outcome — a
    /// rank spin-sending to a starved peer is slow, not stuck; only a task
    /// burning its worker with *no* scheduler interaction at all is
    /// starvation.  A plain counter the watchdog compares once per window:
    /// nothing on the message path ever wakes that thread.
    activity: AtomicU64,
    parked: AtomicUsize,
    live: AtomicUsize,
    idle: AtomicUsize,
    shutdown: AtomicBool,
    /// Serialises stall checks (belt and braces: quiescence already makes
    /// them exclusive).
    stall_lock: Mutex<()>,
    workers: AtomicUsize,
    /// Installed schedule policy: dispatch becomes single-worker and every
    /// resume choice with several queued tasks is the policy's.  Set once
    /// before launch; `None` keeps the multi-worker FIFO default.
    policy: OnceLock<PolicyHandle>,
}

impl ExecShared {
    /// Scheduler state for `n` rank tasks (created with the universe so the
    /// wire layer can hold it before launch).
    pub(crate) fn new(n: usize) -> Arc<ExecShared> {
        Arc::new(ExecShared {
            id: NEXT_EXEC_ID.fetch_add(1, Ordering::Relaxed),
            tasks: (0..n)
                .map(|_| TaskSlot {
                    state: AtomicU8::new(RUNNABLE),
                    wake: AtomicU8::new(WAKE_NONE),
                    deadline_ms: AtomicU64::new(u64::MAX),
                    park_pending: AtomicBool::new(false),
                })
                .collect(),
            injector: Injector::new(),
            notifier: Notifier::new(),
            activity: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stall_lock: Mutex::new(()),
            workers: AtomicUsize::new(0),
            policy: OnceLock::new(),
        })
    }

    /// Install a schedule policy before launch (later calls are ignored —
    /// a scheduler's policy cannot change mid-run).
    pub(crate) fn set_policy(&self, policy: PolicyHandle) {
        let _ = self.policy.set(policy);
    }

    /// A park handle for task `index` (installed into its rank's mailbox).
    pub(crate) fn parker(self: &Arc<Self>, index: usize) -> ParkerHandle {
        ParkerHandle { exec: Arc::clone(self), index }
    }

    /// Wake task `dst` because a message was just delivered to its channel.
    /// Safe to call from any thread, any number of times; never lost, never
    /// double-enqueues (see the module-level protocol).
    pub(crate) fn notify(&self, dst: usize) {
        self.activity.fetch_add(1, Ordering::Relaxed);
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
                        self.parked.fetch_sub(1, Ordering::SeqCst);
                        self.injector.push(dst);
                        self.notifier.notify();
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

    /// Whether task `dst` is queued waiting for a worker (racy snapshot;
    /// used only as a fairness hint by [`maybe_yield_to`]).
    ///
    /// [`maybe_yield_to`]: ExecShared::maybe_yield_to
    fn is_queued(&self, dst: usize) -> bool {
        self.tasks[dst].state.load(Ordering::Relaxed) == RUNNABLE
    }

    /// Fairness yield, budgeted: a rank task may post [`POST_BUDGET`]
    /// envelopes per resume; the post that exhausts the budget — or any
    /// later one — to a peer that is queued waiting for a worker gives up
    /// this worker (to the *back* of the global queue) so the peer gets a
    /// turn.  A send is not a context switch: yielding after *every* post
    /// to a queued peer (the rule until PR 18) fired on ≈ 125 000 of the
    /// 127 357 posts of one `stencil_loop` repetition — with 1024 ranks on
    /// 2 workers every peer is always queued — and ran each rank's
    /// iteration as four or five slices on a cold cache.  What the yield is
    /// for survives: a send-and-never-block loop still cannot starve its
    /// destination on a small pool (the fiber analogue of the OS preemption
    /// thread-per-rank gets for free), and the backlog it can build unread
    /// is bounded by the budget.  Purely a scheduling choice: virtual
    /// clocks, matrices and traces are interleaving-independent.
    pub(crate) fn maybe_yield_to(&self, dst: usize) {
        if post_budget_spent() && self.is_queued(dst) && fiber::is_fiber() {
            fiber::suspend();
        }
    }

    /// All-workers-idle stall check (runs quiescent: every notify source is
    /// task code, no task is running, and a worker only idles with an empty
    /// run-next slot).  Shut down when nothing is live; otherwise, if every
    /// live task is parked and the run queue is empty, resolve the stall by
    /// waking one task with a deadline signal.
    fn stall_check(&self) {
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
        if self.parked.load(Ordering::SeqCst) != live || !self.injector.is_empty() {
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
                self.parked.fetch_sub(1, Ordering::SeqCst);
                self.injector.push(i);
                self.activity.fetch_add(1, Ordering::Relaxed);
                self.notifier.notify();
            }
        }
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

/// Worker count for an `n`-task run: every core (`MIM_WORKERS` overrides),
/// never more workers than tasks.
fn worker_count(n: usize) -> usize {
    let cpus = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let w = std::env::var("MIM_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(cpus);
    w.clamp(1, n.max(1))
}

/// Run `bodies` (one per rank, indexed by world rank) to completion as
/// fibers on the worker pool.  Returns each task's panic payload slot, in
/// task order — the same shape `thread::JoinHandle::join` gives the
/// thread-per-rank engine.
pub(crate) fn run_tasks(
    exec: &Arc<ExecShared>,
    bodies: Vec<Box<dyn FnOnce() + Send>>,
    deadline: Duration,
) -> Vec<Option<Box<dyn std::any::Any + Send>>> {
    let n = bodies.len();
    assert_eq!(n, exec.tasks.len(), "one body per task slot");
    // Under a schedule policy dispatch must be sequential — one worker —
    // so the policy's resume choices are the *only* source of interleaving.
    let workers = if exec.policy.get().is_some() { 1 } else { worker_count(n) };
    let fibers: Vec<Mutex<Option<Fiber>>> =
        bodies.into_iter().map(|b| Mutex::new(Some(Fiber::new(TASK_STACK_SIZE, b)))).collect();
    let payloads: Vec<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    exec.workers.store(workers, Ordering::SeqCst);
    exec.live.store(n, Ordering::SeqCst);
    exec.parked.store(0, Ordering::SeqCst);
    exec.idle.store(0, Ordering::SeqCst);
    exec.shutdown.store(false, Ordering::SeqCst);
    for i in 0..n {
        exec.tasks[i].state.store(RUNNABLE, Ordering::SeqCst);
        exec.injector.push(i);
    }
    // Notified by each worker as it returns — which it only does once the
    // run is shut down — so the watchdog below never sleeps out its window
    // on a finished run.
    let exited = Notifier::new();
    std::thread::scope(|scope| {
        for wid in 0..workers {
            let exec = Arc::clone(exec);
            let (fibers, payloads, exited) = (&fibers, &payloads, &exited);
            std::thread::Builder::new()
                .name(format!("mim-exec-{wid}"))
                .spawn_scoped(scope, move || {
                    worker_loop(&exec, fibers, payloads);
                    exited.notify();
                })
                .unwrap_or_else(|e| panic!("failed to spawn executor worker: {e}"));
        }
        // The launching thread has nothing to do until the workers are
        // done: it keeps watch.
        watchdog_loop(exec, &exited, deadline);
    });
    payloads.into_iter().map(Mutex::into_inner).collect()
}

/// Find the next runnable task: the worker's run-next slot, then the run
/// queue.  With a schedule policy installed, the policy picks instead.
fn next_task(exec: &ExecShared, run_next: &mut Option<usize>) -> Option<usize> {
    if let Some(policy) = exec.policy.get() {
        return next_task_policed(exec, run_next, policy);
    }
    run_next.take().or_else(|| exec.injector.pop())
}

/// Deterministic dispatch under a schedule policy (the pool runs a single
/// worker): gather every queued task — the run-next slot first, then the
/// injector in FIFO order — and let the policy pick which resumes.  The
/// slate is offered in canonical dispatch order (index 0 = what the
/// un-policed scheduler would run next); unchosen tasks return to the
/// injector in slate order, so the next decision sees them in a stable order.
fn next_task_policed(
    exec: &ExecShared,
    run_next: &mut Option<usize>,
    policy: &PolicyHandle,
) -> Option<usize> {
    let mut cands: Vec<usize> = run_next.take().into_iter().collect();
    while let Some(t) = exec.injector.pop() {
        cands.push(t);
    }
    match cands.len() {
        0 => None,
        1 => Some(cands[0]),
        n => {
            let i = clamp_choice(policy.choose(Decision::TaskResume { candidates: &cands }), n);
            let chosen = cands.remove(i);
            for t in cands {
                exec.injector.push(t);
            }
            Some(chosen)
        }
    }
}

fn worker_loop(
    exec: &Arc<ExecShared>,
    fibers: &[Mutex<Option<Fiber>>],
    payloads: &[Mutex<Option<Box<dyn std::any::Any + Send>>>],
) {
    // The task this worker resumes next, ahead of the run queue (see
    // `run_one`); visible to no other worker, and empty whenever it idles.
    let mut run_next = None;
    loop {
        // Snapshot the wake epoch *before* every check (shutdown flag and
        // run queue): any store-then-notify landing after the snapshot
        // advances the epoch, so the wait below returns immediately — and a
        // snapshot taken after a notify is ordered after the store it
        // published, so the re-check on the next loop iteration sees it.
        let seen = exec.notifier.epoch();
        if exec.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = next_task(exec, &mut run_next) {
            run_one(exec, task, &mut run_next, fibers, payloads);
            continue;
        }
        let idlers = exec.idle.fetch_add(1, Ordering::SeqCst) + 1;
        if idlers == exec.workers.load(Ordering::SeqCst) {
            exec.stall_check();
        }
        exec.notifier.wait_while_epoch(seen);
        exec.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Resume one task and publish its new state (see the module-level
/// protocol: the publish happens strictly after the fiber switched out).
fn run_one(
    exec: &ExecShared,
    task: usize,
    run_next: &mut Option<usize>,
    fibers: &[Mutex<Option<Fiber>>],
    payloads: &[Mutex<Option<Box<dyn std::any::Any + Send>>>],
) {
    let slot = &exec.tasks[task];
    slot.state.store(RUNNING, Ordering::SeqCst);
    let fiber = fibers[task].lock().take();
    let Some(mut fiber) = fiber else {
        // A task id can only be queued once; a missing fiber means the
        // protocol was violated.
        panic!("executor: task {task} dispatched with no fiber");
    };
    CURRENT_TASK.with(|c| c.set(Some(TaskId { exec: exec.id, index: task })));
    POSTS_LEFT.with(|left| left.set(POST_BUDGET));
    let resumed = fiber.resume();
    CURRENT_TASK.with(|c| c.set(None));
    match resumed {
        Resume::Done => {
            if let Some(p) = fiber.take_panic() {
                *payloads[task].lock() = Some(p);
            }
            drop(fiber); // free the stack eagerly: 10k ranks, bounded RSS
            slot.state.store(DONE, Ordering::SeqCst);
            exec.activity.fetch_add(1, Ordering::Relaxed);
            if exec.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                exec.shutdown.store(true, Ordering::Release);
                exec.notifier.notify();
            }
        }
        Resume::Suspended => {
            // The fiber must be back in its slot before any publish: a
            // concurrent notify may re-dispatch the task to another worker
            // the instant the CAS lands.
            *fibers[task].lock() = Some(fiber);
            if slot.park_pending.swap(false, Ordering::AcqRel) {
                // Count the park *before* publishing it, so the notifier's
                // decrement (which can only follow a successful publish)
                // never observes the counter early.
                exec.parked.fetch_add(1, Ordering::SeqCst);
                exec.activity.fetch_add(1, Ordering::Relaxed);
                if slot
                    .state
                    .compare_exchange(RUNNING, PARKED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    // A notify token landed while the task was still
                    // Running: consume it and keep the task runnable — on
                    // this worker, next, since its message is already there.
                    exec.parked.fetch_sub(1, Ordering::SeqCst);
                    slot.wake.store(WAKE_MESSAGE, Ordering::Release);
                    slot.state.store(RUNNABLE, Ordering::SeqCst);
                    *run_next = Some(task);
                }
            } else {
                // Bare cooperative yield: to the *back* of the run queue
                // (the run-next slot would run the yielder again first,
                // defeating the fairness yield's whole point).
                slot.state.store(RUNNABLE, Ordering::SeqCst);
                exec.injector.push(task);
                exec.notifier.notify();
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
        let seen = exec.activity.load(Ordering::Relaxed);
        if exec.shutdown.load(Ordering::Acquire) {
            return;
        }
        // A whole window asleep unless the run ends: no park, unpark or
        // completion wakes this thread, it only reads their count afterwards.
        if exited.wait_timeout_epoch(epoch, deadline)
            || exec.activity.load(Ordering::Relaxed) != seen
        {
            continue;
        }
        let running: Vec<usize> = exec
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state.load(Ordering::SeqCst) == RUNNING)
            .map(|(i, _)| i)
            .collect();
        let waiting = exec.parked.load(Ordering::SeqCst) > 0 || !exec.injector.is_empty();
        if !running.is_empty() && waiting && exec.policy.get().is_none() {
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

    /// The raw engine, no mailboxes: tasks park themselves and are woken by
    /// explicit notifies from other tasks — a pure protocol exercise.
    #[test]
    fn park_notify_chain_runs_to_completion() {
        const N: usize = 8;
        let exec = ExecShared::new(N);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for i in 0..N {
            let exec = Arc::clone(&exec);
            let order = Arc::clone(&order);
            bodies.push(Box::new(move || {
                // Every task > 0 parks until its predecessor wakes it.  The
                // predecessor's notify may land before the park (token) or
                // after (unpark): both must work.
                if i > 0 {
                    let parker = exec.parker(i);
                    while !order.lock().contains(&(i - 1)) {
                        let _ = parker.park(Duration::from_secs(600));
                    }
                }
                order.lock().push(i);
                if i + 1 < N {
                    exec.notify(i + 1);
                }
            }));
        }
        let payloads = run_tasks(&exec, bodies, Duration::from_secs(30));
        assert!(payloads.iter().all(|p| p.is_none()));
        assert_eq!(*order.lock(), (0..N).collect::<Vec<_>>());
    }

    /// The watchdog sleeps whole deadlines, so the end of the run must wake
    /// it: a lost wake-up shows as a launch that outlives its tasks by the
    /// rest of the window (a minute here) — which no other test would see.
    #[test]
    fn finished_run_does_not_wait_out_the_watchdog_window() {
        const N: usize = 16;
        let exec = ExecShared::new(N);
        let passes = Arc::new(AtomicUsize::new(0));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for i in 0..N {
            let exec = Arc::clone(&exec);
            let passes = Arc::clone(&passes);
            bodies.push(Box::new(move || {
                // A baton around the ring, four laps: everyone parks until
                // its predecessor has passed it on, then wakes its successor.
                let parker = exec.parker(i);
                for lap in 0..4 {
                    while passes.load(Ordering::SeqCst) < lap * N + i {
                        let _ = parker.park(Duration::from_secs(600));
                    }
                    passes.fetch_add(1, Ordering::SeqCst);
                    exec.notify((i + 1) % N);
                }
            }));
        }
        let started = std::time::Instant::now();
        let payloads = run_tasks(&exec, bodies, Duration::from_secs(60));
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

    /// All tasks park forever: the stall resolver must wake them in
    /// (deadline, rank) order, each observing `ParkWake::Deadline`.
    #[test]
    fn stall_resolution_wakes_in_deadline_order() {
        const N: usize = 4;
        let exec = ExecShared::new(N);
        let wake_order = Arc::new(Mutex::new(Vec::new()));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for i in 0..N {
            let exec = Arc::clone(&exec);
            let wake_order = Arc::clone(&wake_order);
            bodies.push(Box::new(move || {
                // Distinct deadlines, reverse of rank order.
                let parker = exec.parker(i);
                let deadline = Duration::from_millis(((N - i) * 1000) as u64);
                loop {
                    if parker.park(deadline) == ParkWake::Deadline {
                        wake_order.lock().push(i);
                        return;
                    }
                }
            }));
        }
        let payloads = run_tasks(&exec, bodies, Duration::from_secs(30));
        assert!(payloads.iter().all(|p| p.is_none()));
        // Smallest deadline first: rank N-1 parked with 1000 ms, and so on.
        assert_eq!(*wake_order.lock(), vec![3, 2, 1, 0]);
    }

    /// A panicking task surfaces its payload in its own slot; others run on.
    #[test]
    fn panic_is_confined_to_its_task_slot() {
        let exec = ExecShared::new(3);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for i in 0..3 {
            let ran = Arc::clone(&ran);
            bodies.push(Box::new(move || {
                if i == 1 {
                    panic!("task 1 exploded");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let payloads = run_tasks(&exec, bodies, Duration::from_secs(30));
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
        let exec = ExecShared::new(N);
        let sum = Arc::new(AtomicUsize::new(0));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for i in 0..N {
            let exec = Arc::clone(&exec);
            let sum = Arc::clone(&sum);
            bodies.push(Box::new(move || {
                // Ring notify: wake the next task, then park until woken
                // (token or unpark), then finish.
                exec.notify((i + 1) % N);
                sum.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let payloads = run_tasks(&exec, bodies, Duration::from_secs(60));
        assert!(payloads.iter().all(|p| p.is_none()));
        assert_eq!(sum.load(Ordering::SeqCst), N);
    }
}
