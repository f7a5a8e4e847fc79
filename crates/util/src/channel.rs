//! Unbounded MPMC channel on `std::sync::{Mutex, Condvar}` (replaces
//! `crossbeam::channel`).
//!
//! One mutex-protected `VecDeque` plus a condvar is plenty for the mpisim
//! wiring: each rank owns one receiver and the send side fans in from all
//! other ranks.  Senders and receivers are reference-counted so that the
//! usual disconnection semantics hold — a receive on an empty channel with
//! no senders left reports `Disconnected` instead of blocking forever, and
//! a send with no receivers left returns the value.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the undelivered value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with no message available.
    Timeout,
    /// Every sender disconnected and the queue is drained.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message currently queued.
    Empty,
    /// Every sender disconnected and the queue is drained.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers asleep on `readable` right now.  Raised and lowered around
    /// the wait under this mutex, so a sender that reads 0 knows no wake is
    /// owed: a receiver not yet counted has not released the lock, and will
    /// find the value in its own queue check before it sleeps.
    sleepers: usize,
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

/// The sending half; cheap to clone, usable from many threads.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half; cloning shares the same queue (MPMC).
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1, sleepers: 0 }),
        readable: Condvar::new(),
    });
    (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks.  Fails only when every receiver has
    /// been dropped.  The condvar wake — a system call — is issued only when
    /// a receiver is asleep: under the M:N executor nobody ever sleeps on a
    /// rank's channel (ranks poll with `try_recv` and park their task).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.inner.state();
        if st.receivers == 0 {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        let wake = st.sleepers > 0;
        drop(st);
        if wake {
            self.inner.readable.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state().senders += 1;
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Sender<T> {
    /// The last sender wakes every receiver asleep on the channel, so it
    /// can observe disconnection — and, as in [`Sender::send`], makes no
    /// system call when none is: a universe's teardown drops one channel
    /// per rank, and under the M:N executor nobody sleeps on any of them.
    fn drop(&mut self) {
        let mut st = self.inner.state();
        st.senders -= 1;
        let wake = st.senders == 0 && st.sleepers > 0;
        drop(st);
        if wake {
            self.inner.readable.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive with a wall-clock bound.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            // Re-check on spurious wakeups; the loop re-evaluates the deadline.
            st.sleepers += 1;
            let (guard, _timed_out) = self
                .inner
                .readable
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            st.sleepers -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.inner.state();
        if let Some(v) = st.queue.pop_front() {
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.state().receivers += 1;
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.state().receivers -= 1;
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
            assert_eq!(rx.try_recv(), Ok(i));
        }
    }

    #[test]
    fn try_recv_reports_empty_then_value() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7u8).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
    }

    #[test]
    fn timeout_fires_without_traffic() {
        let (_tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    /// Spin until exactly `n` receivers are asleep on the condvar — the
    /// interleaving the wake tests below need, forced instead of slept for.
    fn await_sleepers<T>(tx: &Sender<T>, n: usize) {
        while tx.inner.state().sleepers != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn disconnect_unblocks_receiver() {
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(10)));
        await_sleepers(&tx, 1);
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }

    /// Wakes are gated, never lost: with two receivers asleep, two sends
    /// deliver a value to each.  (Every other test here sends with nobody
    /// asleep, the path that skips the condvar.)
    #[test]
    fn gated_wake_reaches_every_sleeping_receiver() {
        let (tx, rx) = unbounded::<u8>();
        let rx2 = rx.clone();
        let a = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(30)));
        let b = std::thread::spawn(move || rx2.recv_timeout(Duration::from_secs(30)));
        await_sleepers(&tx, 2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let mut got = [a.join().unwrap().unwrap(), b.join().unwrap().unwrap()];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        assert_eq!(tx.inner.state().sleepers, 0);
    }

    #[test]
    fn queued_values_survive_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_with_no_receiver() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5u8), Err(SendError(5)));
    }
}
