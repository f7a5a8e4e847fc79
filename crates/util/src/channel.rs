//! Unbounded channel with one receiver, on `std::sync::{Mutex, Condvar}`
//! (replaces `crossbeam::channel`).
//!
//! One mutex-protected `VecDeque` plus a condvar is plenty for the mpisim
//! wiring: each rank slot owns one receiver, which moves from incarnation
//! to incarnation, and the universe holds the one sender every other rank
//! posts through for its whole life.  So the only disconnection is the
//! receiver's: a send to a dropped receiver returns the value.  A receive
//! reports only "nothing yet" or "timed out", as `None`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the undelivered value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

struct State<T> {
    queue: VecDeque<T>,
    /// Cleared when the receiver drops; every send fails from then on.
    receiver_alive: bool,
    /// The receiver is asleep on `readable` right now.  Raised and lowered
    /// around the wait under this mutex, so a sender that reads `false`
    /// knows no wake is owed: a receiver not yet asleep has not released
    /// the lock, and will find the value in its own queue check first.
    sleeping: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    readable: Condvar,
}

impl<T> Inner<T> {
    fn state(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half; shared by reference, usable from many threads.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State { queue: VecDeque::new(), receiver_alive: true, sleeping: false }),
        readable: Condvar::new(),
    });
    (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks.  Fails only when the receiver has
    /// been dropped.  The condvar wake — a system call — is issued only when
    /// the receiver is asleep: under the M:N executor nobody ever sleeps on
    /// a rank's channel (ranks poll with `try_recv` and park their task).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.inner.state();
        if !st.receiver_alive {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        let wake = st.sleeping;
        drop(st);
        if wake {
            self.inner.readable.notify_one();
        }
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Blocking receive with a wall-clock bound: `None` once `timeout`
    /// passes with nothing queued.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Re-check on spurious wakeups; the loop re-evaluates the deadline.
            st.sleeping = true;
            let (guard, _timed_out) = self
                .inner
                .readable
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            st.sleeping = false;
        }
    }

    /// Non-blocking receive: `None` when nothing is queued.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.state().queue.pop_front()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.state().receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_one_sender() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.try_recv(), Some(i));
        }
    }

    #[test]
    fn try_recv_reports_empty_then_value() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), None);
        tx.send(7u8).unwrap();
        assert_eq!(rx.try_recv(), Some(7));
    }

    #[test]
    fn timeout_fires_without_traffic() {
        let (_tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    /// Wakes are gated, never lost: with the receiver asleep, a send
    /// delivers to it.  (Every other test here sends with nobody asleep,
    /// the path that skips the condvar.)
    #[test]
    fn gated_wake_reaches_every_sleeping_receiver() {
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(30)));
        // Spin until the receiver is asleep on the condvar — the
        // interleaving this test needs, forced instead of slept for.
        while !tx.inner.state().sleeping {
            std::thread::yield_now();
        }
        tx.send(1).unwrap();
        assert_eq!(h.join().unwrap(), Some(1));
        assert!(!tx.inner.state().sleeping);
    }

    #[test]
    fn send_fails_with_no_receiver() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5u8), Err(SendError(5)));
    }
}
