//! Thin no-poison wrappers over `std::sync` locks (replace `parking_lot`).
//!
//! The call sites were written against `parking_lot`'s API, where `lock()`
//! returns the guard directly.  Lock poisoning is useless here: every lock
//! in the workspace protects plain data (counters, buffers, registries)
//! whose invariants hold between operations, and a rank-thread panic is
//! already propagated by `Universe::launch` — so a poisoned lock would only
//! turn one diagnosable panic into a cascade of opaque ones.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::PoisonError;

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
/// Guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A mutex whose `lock` never fails (poison is stripped).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A readers–writer lock whose accessors never fail (poison is stripped).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An epoch-counting condition variable: the blocking seam of the M:N rank
/// executor, and the one place its scheduler touches the wall clock (this
/// crate is outside the simulator's no-wall-clock lint scope by design).
///
/// Waiters snapshot [`epoch`](Notifier::epoch), re-check their predicate
/// (queues, shutdown flags), then sleep in
/// [`wait_while_epoch`](Notifier::wait_while_epoch) — the epoch read
/// *before* the predicate check makes the classic lost-wakeup race benign:
/// a notification between check and sleep advances the epoch, so the wait
/// returns immediately.
///
/// Nothing on the busy path takes a lock.  The epoch is an atomic:
/// [`epoch`](Notifier::epoch) is one load and [`notify`](Notifier::notify)
/// one add.  A waiter that must sleep first raises `sleepers`, then looks
/// at the epoch under the mutex; a notifier advances the epoch, then looks
/// at `sleepers`, and takes the mutex to wake the condvar only when it
/// reads a sleeper.  That is the store-buffering (Dekker) pattern: with
/// both raises and both looks `SeqCst` (`BUMP`, `LOOK`) at least one
/// side sees the other's raise — either the notifier wakes the waiter, or
/// the waiter sees the new epoch and never sleeps.  A notifier that reads
/// a sleeper takes the mutex the sleeper holds from its look until the
/// condvar releases it, so its wake cannot fall between the two.  The
/// exhaustive interleaving test below (`handshake_model_*`) checks exactly
/// this, for the orderings declared here.
#[derive(Debug, Default)]
pub struct Notifier {
    epoch: AtomicU64,
    /// Waiters between their raise and their return (asleep, or about to
    /// look): a notifier that reads 0 owes nobody a wake.
    sleepers: AtomicUsize,
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

/// The two raises of the sleep handshake: the notifier's epoch advance and
/// the waiter's `sleepers` increment.  Each is followed by a *look* at the
/// other side's variable, and a store followed by a load of another
/// location may be reordered unless both are `SeqCst`.
const BUMP: Ordering = Ordering::SeqCst;
/// The two looks of the handshake: the notifier's read of `sleepers` and
/// the waiter's epoch check under the mutex.
const LOOK: Ordering = Ordering::SeqCst;

impl Notifier {
    /// A notifier at epoch 0.
    pub fn new() -> Notifier {
        Notifier::default()
    }

    /// The current epoch.  `Acquire`: a snapshot that sees an advance also
    /// sees every store the notifier made before it (the predicate the
    /// caller re-checks next); one that does not see it was taken before
    /// the advance, so the wait that follows returns.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the epoch and wake every waiter.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, BUMP);
        if self.sleepers.load(LOOK) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_all();
        }
    }

    /// Block until the epoch differs from `seen`.
    pub fn wait_while_epoch(&self, seen: u64) {
        self.sleep_while_epoch(seen, None);
    }

    /// Block until the epoch differs from `seen` or `timeout` elapses.
    /// Returns `true` when the epoch advanced, `false` on timeout.
    pub fn wait_timeout_epoch(&self, seen: u64, timeout: std::time::Duration) -> bool {
        self.sleep_while_epoch(seen, Some(std::time::Instant::now() + timeout))
    }

    /// The waiter's half of the handshake, shared by both waits: raise,
    /// then look under the mutex, sleeping on the condvar (which releases
    /// the mutex) until a look sees the epoch move or `deadline` passes.
    fn sleep_while_epoch(&self, seen: u64, deadline: Option<std::time::Instant>) -> bool {
        self.sleepers.fetch_add(1, BUMP);
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let advanced = loop {
            if self.epoch.load(LOOK) != seen {
                break true;
            }
            guard = match deadline {
                None => self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    self.cv
                        .wait_timeout(guard, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        };
        drop(guard);
        // `Relaxed`: a notifier that still reads this waiter only takes
        // the mutex for nothing.
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        advanced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1; // parking_lot semantics: no Err, no panic
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn notifier_epoch_read_before_check_prevents_lost_wakeup() {
        let n = Arc::new(Notifier::new());
        let n2 = Arc::clone(&n);
        let seen = n.epoch();
        // Notify *before* the wait starts: the stale epoch makes the wait
        // return immediately instead of sleeping forever.  Nobody is asleep,
        // so this notify skips the condvar — but never the epoch, which is
        // what `worker_loop` and `watchdog_loop` read before their predicate.
        n2.notify();
        n.wait_while_epoch(seen);
        assert_eq!(n.epoch(), seen + 1);
    }

    #[test]
    fn notifier_wakes_a_sleeping_waiter() {
        let n = Arc::new(Notifier::new());
        let n2 = Arc::clone(&n);
        let seen = n.epoch();
        let waiter = std::thread::spawn(move || n2.wait_while_epoch(seen));
        std::thread::sleep(std::time::Duration::from_millis(10));
        n.notify();
        waiter.join().unwrap_or_else(|_| panic!("waiter panicked"));
    }

    /// Wakes are gated, never lost: one `notify` releases a sleeper of each
    /// kind (the executor's idle worker and its watchdog).
    #[test]
    fn one_notify_releases_both_kinds_of_sleeper() {
        let n = Arc::new(Notifier::new());
        let seen = n.epoch();
        let (n1, n2) = (Arc::clone(&n), Arc::clone(&n));
        let worker = std::thread::spawn(move || n1.wait_while_epoch(seen));
        let watchdog = std::thread::spawn(move || {
            n2.wait_timeout_epoch(seen, std::time::Duration::from_secs(30))
        });
        // Force the interleaving: both raised before the notify, so it
        // takes the mutex and wakes the condvar.
        while n.sleepers.load(Ordering::SeqCst) != 2 {
            std::thread::yield_now();
        }
        n.notify();
        worker.join().unwrap_or_else(|_| panic!("waiter panicked"));
        assert!(watchdog.join().unwrap_or_else(|_| panic!("waiter panicked")));
        assert_eq!(n.sleepers.load(Ordering::SeqCst), 0);
    }

    /// Two threads hand a baton back and forth through two notifiers, one
    /// side in each kind of wait, with nothing but the handshake between a
    /// store and its waiter.  A lost wakeup parks both sides for good: the
    /// timed side reports it, and the test thread gives up on the pair.
    #[test]
    fn notifier_ping_pong_stress_loses_no_wakeup() {
        let rounds: u64 = if cfg!(debug_assertions) { 20_000 } else { 200_000 };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ping = Arc::new((Notifier::new(), AtomicU64::new(0)));
            let pong = Arc::new((Notifier::new(), AtomicU64::new(0)));
            let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
            let echo = std::thread::spawn(move || {
                for i in 1..=rounds {
                    loop {
                        let seen = ping2.0.epoch();
                        if ping2.1.load(Ordering::Acquire) >= i {
                            break;
                        }
                        ping2.0.wait_while_epoch(seen);
                    }
                    pong2.1.store(i, Ordering::Release);
                    pong2.0.notify();
                }
            });
            for i in 1..=rounds {
                ping.1.store(i, Ordering::Release);
                ping.0.notify();
                loop {
                    let seen = pong.0.epoch();
                    if pong.1.load(Ordering::Acquire) >= i {
                        break;
                    }
                    let woke = pong.0.wait_timeout_epoch(seen, std::time::Duration::from_secs(20));
                    assert!(woke, "round {i}: lost wakeup");
                }
            }
            echo.join().unwrap_or_else(|_| panic!("echo thread panicked"));
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(std::time::Duration::from_secs(120)).is_ok(),
            "ping-pong stalled or panicked: a wakeup was lost"
        );
    }

    /// Explicit-state model of the sleep handshake (`notify` against
    /// `sleep_while_epoch`, the one body under both waits), explored over
    /// every interleaving of up to two notifiers and two waiters.
    ///
    /// Memory is sequentially consistent except for the one reordering the
    /// declared orderings can permit here: a raise (`BUMP`) may sit in its
    /// thread's store buffer past the thread's next look (`LOOK`) at the
    /// other variable unless both are `SeqCst` — a store followed by a load
    /// of another location is the pair C++ reorders otherwise.  A buffered
    /// raise drains nondeterministically, and at the latest before the
    /// thread's next release (unlock, condvar sleep, lower); a thread's own
    /// loads see its buffer.  A terminal state in which some waiter has not
    /// returned is a lost wakeup: every notifier has run, the epoch moved.
    mod handshake_model {
        use super::super::{BUMP, LOOK};
        use std::collections::HashSet;
        use std::sync::atomic::Ordering;

        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        enum Var {
            Epoch,
            Sleepers,
        }

        #[derive(Clone, PartialEq, Eq, Hash, Debug)]
        struct Thread {
            notifier: bool,
            pc: u8,
            /// A raise still in the store buffer.
            buffered: Option<Var>,
            asleep: bool,
        }

        #[derive(Clone, PartialEq, Eq, Hash, Debug)]
        struct State {
            epoch: i8,
            sleepers: i8,
            holder: Option<usize>,
            threads: Vec<Thread>,
        }

        // Notifier: 0 advance, 1 look at sleepers, 2 lock, 3 wake all,
        // 4 unlock, 5 done.  Waiter: 0 raise, 1 lock, 2 look at the epoch,
        // 3 sleep (releases the mutex), 4 relock and look again, 5 unlock,
        // 6 lower, 7 done.
        const NOTIFIER_DONE: u8 = 5;
        const WAITER_DONE: u8 = 7;

        impl State {
            fn read(&self, t: usize, var: Var) -> i8 {
                let own = i8::from(self.threads[t].buffered == Some(var));
                own + match var {
                    Var::Epoch => self.epoch,
                    Var::Sleepers => self.sleepers,
                }
            }

            fn apply(&mut self, var: Var) {
                match var {
                    Var::Epoch => self.epoch += 1,
                    Var::Sleepers => self.sleepers += 1,
                }
            }

            fn raise(&mut self, t: usize, var: Var, weak: bool) {
                if weak {
                    self.threads[t].buffered = Some(var);
                } else {
                    self.apply(var);
                }
            }

            fn done(&self, t: usize) -> bool {
                let th = &self.threads[t];
                th.buffered.is_none()
                    && th.pc == if th.notifier { NOTIFIER_DONE } else { WAITER_DONE }
            }

            /// Thread `t`'s next program step, if it is enabled.
            fn step(&self, t: usize, weak: bool) -> Option<State> {
                let mut s = self.clone();
                let th = &self.threads[t];
                let drained = th.buffered.is_none();
                let free = self.holder.is_none();
                let pc = match (th.notifier, th.pc) {
                    (true, 0) => {
                        s.raise(t, Var::Epoch, weak);
                        1
                    }
                    (true, 1) if self.read(t, Var::Sleepers) > 0 => 2,
                    (true, 1) => NOTIFIER_DONE,
                    (true, 2) | (false, 1) if free => {
                        s.holder = Some(t);
                        th.pc + 1
                    }
                    (true, 3) => {
                        for other in &mut s.threads {
                            other.asleep = false;
                        }
                        4
                    }
                    (true, 4) | (false, 5) if drained => {
                        s.holder = None;
                        th.pc + 1
                    }
                    (false, 0) => {
                        s.raise(t, Var::Sleepers, weak);
                        1
                    }
                    (false, 2) if self.read(t, Var::Epoch) != 0 => 5,
                    (false, 2) => 3,
                    (false, 3) if drained => {
                        s.holder = None;
                        s.threads[t].asleep = true;
                        4
                    }
                    (false, 4) if !th.asleep && free => {
                        s.holder = Some(t);
                        2
                    }
                    (false, 6) if drained => {
                        s.sleepers -= 1;
                        WAITER_DONE
                    }
                    _ => return None,
                };
                s.threads[t].pc = pc;
                Some(s)
            }

            fn successors(&self, weak: bool) -> Vec<State> {
                let mut next = Vec::new();
                for t in 0..self.threads.len() {
                    if let Some(var) = self.threads[t].buffered {
                        let mut s = self.clone();
                        s.threads[t].buffered = None;
                        s.apply(var);
                        next.push(s);
                    }
                    next.extend(self.step(t, weak));
                }
                next
            }
        }

        /// Explore every interleaving; `Ok(states visited)`, or the first
        /// terminal state that strands a waiter.
        fn explore(
            notifiers: usize,
            waiters: usize,
            bump: Ordering,
            look: Ordering,
        ) -> Result<usize, State> {
            let weak = !(bump == Ordering::SeqCst && look == Ordering::SeqCst);
            let thread = |notifier| Thread { notifier, pc: 0, buffered: None, asleep: false };
            let start = State {
                epoch: 0,
                sleepers: 0,
                holder: None,
                threads: (0..notifiers)
                    .map(|_| thread(true))
                    .chain((0..waiters).map(|_| thread(false)))
                    .collect(),
            };
            let mut seen = HashSet::from([start.clone()]);
            let mut stack = vec![start];
            while let Some(s) = stack.pop() {
                let next = s.successors(weak);
                if next.is_empty() && !(0..s.threads.len()).all(|t| s.done(t)) {
                    return Err(s);
                }
                for n in next {
                    if seen.insert(n.clone()) {
                        stack.push(n);
                    }
                }
            }
            Ok(seen.len())
        }

        #[test]
        fn handshake_model_finds_no_lost_wakeup_at_the_declared_orderings() {
            for (notifiers, waiters) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                match explore(notifiers, waiters, BUMP, LOOK) {
                    Ok(states) => assert!(states > 20, "{states} states: the model did not run"),
                    Err(s) => {
                        panic!("lost wakeup ({notifiers} notifiers, {waiters} waiters): {s:?}")
                    }
                }
            }
        }

        /// The model has teeth: weaken either half and it finds the lost
        /// wakeup the `SeqCst` pair rules out.
        #[test]
        fn handshake_model_catches_a_weakened_handshake() {
            use Ordering::{Acquire, Relaxed, Release, SeqCst};
            for (bump, look) in
                [(Release, Acquire), (SeqCst, Acquire), (Release, SeqCst), (Relaxed, Relaxed)]
            {
                assert!(
                    explore(1, 1, bump, look).is_err(),
                    "no lost wakeup found with raise {bump:?} / look {look:?}"
                );
            }
        }
    }

    #[test]
    fn notifier_timeout_reports_no_progress() {
        let n = Notifier::new();
        let seen = n.epoch();
        assert!(!n.wait_timeout_epoch(seen, std::time::Duration::from_millis(5)));
        n.notify();
        assert!(n.wait_timeout_epoch(seen, std::time::Duration::from_millis(5)));
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
