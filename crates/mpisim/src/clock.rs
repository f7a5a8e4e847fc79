//! Per-rank virtual clock.

use std::cell::Cell;

/// A monotone virtual clock owned by one rank (nanoseconds as `f64`).
///
/// The clock only ever moves forward: `VirtualClock::advance_to` is a
/// no-op when the target is in the past, which is exactly the
/// `max(local, arrival)` rule of conservative timestamping.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: Cell<f64>,
}

impl VirtualClock {
    /// A clock starting at virtual time zero.
    pub(crate) fn new() -> Self {
        Self { now_ns: Cell::new(0.0) }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.now_ns.get()
    }

    /// Current virtual time in seconds.
    pub(crate) fn now_s(&self) -> f64 {
        self.now_ns.get() * 1e-9
    }

    /// Advance the clock by `delta_ns` (must be non-negative).
    pub(crate) fn tick(&self, delta_ns: f64) {
        debug_assert!(delta_ns >= 0.0, "clock cannot move backwards");
        self.now_ns.set(self.now_ns.get() + delta_ns);
    }

    /// Move the clock forward to `target_ns` if it is in the future.
    pub(crate) fn advance_to(&self, target_ns: f64) {
        if target_ns > self.now_ns.get() {
            self.now_ns.set(target_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_ticks() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0.0);
        c.tick(1500.0);
        assert_eq!(c.now_ns(), 1500.0);
        assert!((c.now_s() - 1.5e-6).abs() < 1e-15);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::new();
        c.tick(100.0);
        c.advance_to(50.0);
        assert_eq!(c.now_ns(), 100.0);
        c.advance_to(250.0);
        assert_eq!(c.now_ns(), 250.0);
    }
}
