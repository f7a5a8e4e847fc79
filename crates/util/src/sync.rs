//! Thin no-poison wrappers over `std::sync` locks (replace `parking_lot`).
//!
//! The call sites were written against `parking_lot`'s API, where `lock()`
//! returns the guard directly.  Lock poisoning is useless here: every lock
//! in the workspace protects plain data (counters, buffers, registries)
//! whose invariants hold between operations, and a rank-thread panic is
//! already propagated by `Universe::launch` — so a poisoned lock would only
//! turn one diagnosable panic into a cascade of opaque ones.

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

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
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

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
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
/// [`notify`](Notifier::notify) always advances the epoch but issues the
/// condvar wake — a system call — only when a waiter is asleep: the count
/// of sleepers lives under the same mutex, raised before the wait releases
/// it and lowered once the wait has re-acquired it, so a notifier that
/// reads 0 owes nobody a wake (a waiter not yet counted still holds the
/// lock ahead of its own epoch check).  On the message path of a busy
/// executor no worker is idle, and a notify is a lock and an add.
#[derive(Debug, Default)]
pub struct Notifier {
    state: std::sync::Mutex<NotifierState>,
    cv: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct NotifierState {
    epoch: u64,
    sleepers: usize,
}

impl Notifier {
    /// A notifier at epoch 0.
    pub fn new() -> Notifier {
        Notifier::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, NotifierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.state().epoch
    }

    /// Advance the epoch and wake every waiter.
    pub fn notify(&self) {
        let mut st = self.state();
        st.epoch = st.epoch.wrapping_add(1);
        if st.sleepers > 0 {
            self.cv.notify_all();
        }
    }

    /// Block until the epoch differs from `seen`.
    pub fn wait_while_epoch(&self, seen: u64) {
        let mut st = self.state();
        while st.epoch == seen {
            st.sleepers += 1;
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.sleepers -= 1;
        }
    }

    /// Block until the epoch differs from `seen` or `timeout` elapses.
    /// Returns `true` when the epoch advanced, `false` on timeout.
    pub fn wait_timeout_epoch(&self, seen: u64, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.state();
        while st.epoch == seen {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            st.sleepers += 1;
            let (guard, _res) =
                self.cv.wait_timeout(st, deadline - now).unwrap_or_else(PoisonError::into_inner);
            st = guard;
            st.sleepers -= 1;
        }
        true
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
        // Force the interleaving: both asleep on the condvar before the notify.
        while n.state().sleepers != 2 {
            std::thread::yield_now();
        }
        n.notify();
        worker.join().unwrap_or_else(|_| panic!("waiter panicked"));
        assert!(watchdog.join().unwrap_or_else(|_| panic!("waiter panicked")));
        assert_eq!(n.state().sleepers, 0);
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
        assert_eq!(l.into_inner(), 6);
    }
}
