//! PML interposition layer.
//!
//! Every message — user point-to-point, the point-to-point decomposition of a
//! collective, or a one-sided operation — passes through this layer on the
//! sender side just before it reaches the wire, which is exactly where the
//! Open MPI `pml_monitoring` MCA component sits ("the monitoring component is
//! plugged into the stack once messages are buffers to be sent to another MPI
//! process", paper Sec 2).
//!
//! Two hook flavours exist:
//!
//! * [`PmlHook`] — global, shared across all ranks (e.g. the simulated NIC
//!   hardware counters, which aggregate per node);
//! * [`LocalPmlHook`] — per-rank, registered on one rank's thread (the
//!   monitoring library, whose state — like the real component's MPI_T
//!   performance variables — is per MPI process).

use std::rc::Rc;

use crate::envelope::MsgKind;

/// One wire event, seen on the sender side.
#[derive(Debug, Clone, Copy)]
pub struct PmlEvent {
    /// World rank of the sender.
    pub src_world: usize,
    /// World rank of the receiver.
    pub dst_world: usize,
    /// Core hosting the sender.
    pub src_core: usize,
    /// Core hosting the receiver.
    pub dst_core: usize,
    /// Payload size in bytes (0-length messages are real events: barriers
    /// and other collectives generate them).
    pub bytes: u64,
    /// Monitoring classification.
    pub kind: MsgKind,
    /// Sender virtual time when the message hit the wire (ns).
    pub vtime_ns: f64,
}

/// A global hook, shared by every rank of the universe.
pub trait PmlHook: Send + Sync {
    /// Called on the sender's thread for every wire message.
    fn on_send(&self, ev: &PmlEvent);
}

/// A per-rank hook, owned by the rank's thread.
pub trait LocalPmlHook {
    /// Called for every wire message this rank sends.
    fn on_send(&self, ev: &PmlEvent);
}

impl<F: Fn(&PmlEvent)> LocalPmlHook for F {
    fn on_send(&self, ev: &PmlEvent) {
        self(ev)
    }
}

/// Handle returned by hook registration, used for removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalHookHandle(pub(crate) u64);

/// Per-rank hook table.
#[derive(Default)]
pub(crate) struct LocalHooks {
    next_id: u64,
    hooks: Vec<(u64, Rc<dyn LocalPmlHook>)>,
}

impl LocalHooks {
    pub(crate) fn add(&mut self, hook: Rc<dyn LocalPmlHook>) -> LocalHookHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.hooks.push((id, hook));
        LocalHookHandle(id)
    }

    pub(crate) fn remove(&mut self, handle: LocalHookHandle) -> bool {
        let before = self.hooks.len();
        self.hooks.retain(|(id, _)| *id != handle.0);
        self.hooks.len() != before
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }

    /// Run every hook on one event.  Called with the table borrowed, so a
    /// hook must not register or remove hooks from inside its callback
    /// (that would be a reentrancy bug; the monitoring library never does).
    pub(crate) fn dispatch(&self, ev: &PmlEvent) {
        for (_, h) in &self.hooks {
            h.on_send(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn local_hooks_add_remove() {
        let mut t = LocalHooks::default();
        let seen = Rc::new(Cell::new(0u64));
        let s = Rc::clone(&seen);
        let h = t.add(Rc::new(move |ev: &PmlEvent| s.set(s.get() + ev.bytes)));
        let ev = PmlEvent {
            src_world: 0,
            dst_world: 1,
            src_core: 0,
            dst_core: 1,
            bytes: 42,
            kind: MsgKind::P2pUser,
            vtime_ns: 0.0,
        };
        t.dispatch(&ev);
        assert_eq!(seen.get(), 42);
        assert!(t.remove(h));
        assert!(!t.remove(h));
        assert!(t.is_empty());
    }
}
