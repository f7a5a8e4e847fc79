//! Work-stealing deques (replace `crossbeam::deque`).
//!
//! Two queue shapes.  The M:N rank executor uses only the [`Injector`], a
//! locked FIFO: one per worker, which that worker pops from the front,
//! any thread pushes to the back, and an idle worker steals from the front
//! of.
//!
//! The bounded single-owner Chase–Lev deque ([`deque`]) is no longer used
//! by the executor; it stays for `mim-ledger`'s two probe rows
//! (`util.deque.push_pop_ns`, `util.deque.steal_ns`) until a `benchmark`
//! PR drops them.  Its owner pushes and pops at the *bottom* (LIFO,
//! cache-warm); thieves steal from the *top* (FIFO, oldest first).  Items
//! are plain `usize` task indices, stored in `AtomicUsize` slots: the racy
//! slot read in `steal` — the subtle part of Chase–Lev, where a thief may
//! read a slot the owner is concurrently recycling — is an ordinary atomic
//! load here, not a torn read of a generic `T`.  A stale value is discarded
//! by the failed CAS on `top`.  It is bounded (no growth protocol):
//! [`WorkerQueue::push`] hands the item back when full.

use std::sync::atomic::{fence, AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;
use std::collections::VecDeque;

/// Result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; try again.
    Retry,
    /// Stole the oldest item.
    Success(usize),
}

struct Inner {
    /// Next slot thieves take from (only ever incremented).
    top: AtomicIsize,
    /// Next slot the owner pushes to (moves both ways).
    bottom: AtomicIsize,
    slots: Box<[AtomicUsize]>,
    mask: usize,
}

/// Owner handle: single-threaded `push`/`pop` at the bottom.
pub struct WorkerQueue {
    inner: Arc<Inner>,
}

/// Thief handle: `steal` from the top.  Cheap to clone and share.
#[derive(Clone)]
pub struct Stealer {
    inner: Arc<Inner>,
}

/// Create a deque holding at most `capacity` items (rounded up to a power
/// of two, minimum 4), returning the owner and one stealer.
pub fn deque(capacity: usize) -> (WorkerQueue, Stealer) {
    let cap = capacity.max(4).next_power_of_two();
    let slots = (0..cap).map(|_| AtomicUsize::new(0)).collect();
    let inner = Arc::new(Inner {
        top: AtomicIsize::new(0),
        bottom: AtomicIsize::new(0),
        slots,
        mask: cap - 1,
    });
    (WorkerQueue { inner: Arc::clone(&inner) }, Stealer { inner })
}

impl WorkerQueue {
    /// Push at the bottom.  Returns `Err(item)` when the deque is full.
    pub fn push(&mut self, item: usize) -> Result<(), usize> {
        let inner = &self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        if b.wrapping_sub(t) >= inner.slots.len() as isize {
            return Err(item);
        }
        inner.slots[(b as usize) & inner.mask].store(item, Ordering::Relaxed);
        // Publish the slot before the new bottom becomes visible to thieves.
        inner.bottom.store(b.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pop the most recently pushed item (LIFO).
    pub fn pop(&mut self) -> Option<usize> {
        let inner = &self.inner;
        let b = inner.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        inner.bottom.store(b, Ordering::Relaxed);
        // Order the bottom decrement before reading top, symmetric with the
        // fence in `steal`: at most one of a racing pop/steal pair can
        // believe it owns the last item.
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty; restore bottom.
            inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            return None;
        }
        let item = inner.slots[(b as usize) & inner.mask].load(Ordering::Relaxed);
        if t == b {
            // Last item: race thieves for it via top.
            let won = inner
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            if !won {
                return None;
            }
        }
        Some(item)
    }
}

impl Stealer {
    /// Try to steal the oldest item.
    pub fn steal(&self) -> Steal {
        let inner = &self.inner;
        let t = inner.top.load(Ordering::Acquire);
        // Order the top read before the bottom read, symmetric with `pop`.
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // May race with the owner recycling this slot; the value is only
        // trusted after the CAS on top confirms ownership.
        let item = inner.slots[(t as usize) & inner.mask].load(Ordering::Relaxed);
        if inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        Steal::Success(item)
    }
}

/// A locked FIFO of task indices: the executor keeps one per worker (see
/// the module doc).
#[derive(Default)]
pub struct Injector {
    q: Mutex<VecDeque<usize>>,
}

impl Injector {
    /// Enqueue at the back.
    pub fn push(&self, item: usize) {
        self.q.lock().push_back(item);
    }

    /// Dequeue from the front.
    pub fn pop(&self) -> Option<usize> {
        self.q.lock().pop_front()
    }

    /// Whether the injector is empty.
    pub fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn owner_sees_lifo_thief_sees_fifo() {
        let (mut w, s) = deque(8);
        for i in 1..=3 {
            assert!(w.push(i).is_ok());
        }
        assert_eq!(s.steal(), Steal::Success(1)); // oldest
        assert_eq!(w.pop(), Some(3)); // newest
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn push_reports_full_at_capacity() {
        let (mut w, _s) = deque(4);
        for i in 0..4 {
            assert!(w.push(i).is_ok());
        }
        assert_eq!(w.push(99), Err(99));
        assert_eq!(w.pop(), Some(3));
        assert!(w.push(99).is_ok());
    }

    #[test]
    fn wraparound_recycles_slots() {
        let (mut w, s) = deque(4);
        for round in 0..10 {
            for i in 0..4 {
                assert!(w.push(round * 10 + i).is_ok());
            }
            assert_eq!(s.steal(), Steal::Success(round * 10));
            assert_eq!(w.pop(), Some(round * 10 + 3));
            assert_eq!(w.pop(), Some(round * 10 + 2));
            assert_eq!(w.pop(), Some(round * 10 + 1));
            assert_eq!(w.pop(), None);
        }
    }

    #[test]
    fn concurrent_stealers_each_item_exactly_once() {
        const ITEMS: usize = 20_000;
        const THIEVES: usize = 3;
        let (mut w, s) = deque(256);
        let injector = Injector::default();
        let done = AtomicBool::new(false);
        let stolen: Vec<Mutex<Vec<usize>>> = (0..THIEVES).map(|_| Mutex::new(Vec::new())).collect();
        let mut popped = Vec::new();
        std::thread::scope(|scope| {
            for bucket in &stolen {
                let s = s.clone();
                let injector = &injector;
                let done = &done;
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => bucket.lock().push(v),
                        Steal::Retry => continue,
                        Steal::Empty => {
                            // Read `done` *before* the injector pop: every
                            // spill happens-before the done store, so
                            // done-then-empty means empty forever.
                            let finished = done.load(Ordering::Acquire);
                            if let Some(v) = injector.pop() {
                                bucket.lock().push(v);
                            } else if finished {
                                break;
                            }
                        }
                    }
                });
            }
            for i in 0..ITEMS {
                // 1-indexed so slot-zero initialisation can't mask a bug.
                if let Err(v) = w.push(i + 1) {
                    injector.push(v);
                }
                if i % 3 == 0 {
                    if let Some(v) = w.pop() {
                        popped.push(v);
                    }
                }
            }
            while let Some(v) = w.pop() {
                popped.push(v);
            }
            // Thieves drain any remaining injector spill before exiting.
            done.store(true, Ordering::Release);
        });
        let mut seen = HashSet::new();
        let mut count = 0usize;
        for v in popped {
            assert!(seen.insert(v), "duplicate item {v}");
            count += 1;
        }
        for bucket in &stolen {
            for &v in bucket.lock().iter() {
                assert!(seen.insert(v), "duplicate item {v}");
                count += 1;
            }
        }
        assert_eq!(count, ITEMS, "lost {} items", ITEMS - count);
        for i in 1..=ITEMS {
            assert!(seen.contains(&i), "missing item {i}");
        }
    }

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::default();
        assert!(inj.is_empty());
        inj.push(1);
        inj.push(2);
        assert!(!inj.is_empty());
        assert_eq!(inj.pop(), Some(1));
        assert_eq!(inj.pop(), Some(2));
        assert_eq!(inj.pop(), None);
    }
}
