//! Simulated NIC hardware counters.
//!
//! Models the Infiniband/OmniPath per-port transmit counters the paper reads
//! from `/sys/class/infiniband/.../counters/port_xmit_data` (Sec 6.1): one
//! counter per *node*, incremented for every message that crosses the
//! network, counting payload plus a per-message protocol header.  Like the
//! real file — and unlike the introspection library — the counter carries no
//! sender/receiver rank semantics: it only knows bytes left the node.
//!
//! `port_xmit_data` is exposed in 4-byte units ("the number read in this file
//! has to be multiplied by the number of planes of the card (in general 4)").
//!
//! Executor independence: counters are charged at wire-send time, keyed on
//! node indices derived from the placement, and timestamped with the
//! *virtual* clock — nothing here knows whether the sending rank is an OS
//! thread or a parked/resumed task, which is why `executor_equivalence`
//! can require bit-identical NIC totals across both engines.  Each node's
//! transmit counters sit on a cache line of their own, so the executor's
//! workers charging different nodes do not contend for a line.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mim_util::sync::Mutex;

use crate::exec::Padded;
use crate::pml::{PmlEvent, PmlHook};

/// One timestamped counter increment, used by the Fig 2/3 sampling harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicEvent {
    /// Virtual time at which the bytes hit the wire (ns).
    pub vtime_ns: f64,
    /// Node whose transmit counter incremented.
    pub node: usize,
    /// Bytes counted (payload + header).
    pub wire_bytes: u64,
}

/// One node's transmit counters.
#[derive(Default)]
struct Xmit {
    bytes: AtomicU64,
    msgs: AtomicU64,
}

/// Per-node transmit counters, fed from the PML layer.
pub struct NicCounters {
    /// Node of each core (`core → node`), precomputed for hook speed.
    core_to_node: Vec<usize>,
    xmit: Vec<Padded<Xmit>>,
    retries: Vec<AtomicU64>,
    header_bytes: u64,
    /// Whether sends are logged to `events`: a flag every cross-node send
    /// reads, so the log's mutex is taken only while logging is on.
    logging: AtomicBool,
    events: Mutex<Vec<NicEvent>>,
}

impl NicCounters {
    /// Build counters for a machine with the given per-core node mapping and
    /// per-message header overhead (bytes added by the wire protocol).
    pub(crate) fn new(core_to_node: Vec<usize>, header_bytes: u64) -> Self {
        let nodes = core_to_node.iter().copied().max().map_or(0, |m| m + 1);
        Self {
            core_to_node,
            xmit: (0..nodes).map(|_| Padded::default()).collect(),
            retries: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            header_bytes,
            logging: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Start recording timestamped events (for sampling experiments).
    pub fn enable_event_log(&self) {
        self.events.lock().clear();
        self.logging.store(true, Ordering::Release);
    }

    /// Stop recording and return the log (sorted by virtual time).
    pub fn take_event_log(&self) -> Vec<NicEvent> {
        self.logging.store(false, Ordering::Release);
        let mut log = std::mem::take(&mut *self.events.lock());
        log.sort_by(|a, b| a.vtime_ns.total_cmp(&b.vtime_ns));
        log
    }

    /// Total bytes transmitted by a node's NIC (payload + headers).
    pub fn xmit_bytes(&self, node: usize) -> u64 {
        self.xmit[node].0.bytes.load(Ordering::Relaxed)
    }

    /// Number of messages transmitted by a node's NIC.
    pub fn xmit_msgs(&self, node: usize) -> u64 {
        self.xmit[node].0.msgs.load(Ordering::Relaxed)
    }

    /// The raw `port_xmit_data` value: byte count divided by 4, as read from
    /// the sysfs file before the ×4 lane correction.
    pub fn port_xmit_data(&self, node: usize) -> u64 {
        self.xmit_bytes(node) / 4
    }

    /// Number of nodes with counters.
    pub fn num_nodes(&self) -> usize {
        self.xmit.len()
    }

    /// Record one wire-level retransmission issued by a core on this node.
    ///
    /// Unlike `xmit_*` (which mirror `port_xmit_data` and only see
    /// cross-node traffic), retries count at *every* link: the retransmit
    /// timer lives in the sender's protocol engine, which fires whether or
    /// not the bytes would have left the node.
    pub(crate) fn count_retry(&self, src_core: usize) {
        self.retries[self.core_to_node[src_core]].fetch_add(1, Ordering::Relaxed);
    }

    /// Retransmissions issued by a node's cores.
    pub fn retries(&self, node: usize) -> u64 {
        self.retries[node].load(Ordering::Relaxed)
    }

    /// Total retransmissions across all nodes.
    pub fn retries_total(&self) -> u64 {
        self.retries.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl PmlHook for NicCounters {
    fn on_send(&self, ev: &PmlEvent) {
        let src_node = self.core_to_node[ev.src_core];
        let dst_node = self.core_to_node[ev.dst_core];
        if src_node == dst_node {
            return; // intra-node traffic never reaches the NIC
        }
        // One-sided gets travel target→origin on the wire but are *issued*
        // by the origin; the NIC still charges the node the data leaves from,
        // which for our eager model is the sender's node in every case.
        let wire = ev.bytes + self.header_bytes;
        let xmit = &self.xmit[src_node].0;
        xmit.bytes.fetch_add(wire, Ordering::Relaxed);
        xmit.msgs.fetch_add(1, Ordering::Relaxed);
        if self.logging.load(Ordering::Acquire) {
            let event = NicEvent { vtime_ns: ev.vtime_ns, node: src_node, wire_bytes: wire };
            self.events.lock().push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::MsgKind;

    fn ev(src_core: usize, dst_core: usize, bytes: u64, t: f64) -> PmlEvent {
        PmlEvent {
            src_world: 0,
            dst_world: 1,
            src_core,
            dst_core,
            bytes,
            kind: MsgKind::P2pUser,
            vtime_ns: t,
        }
    }

    /// 2 nodes × 2 cores.
    fn nic(header: u64) -> NicCounters {
        NicCounters::new(vec![0, 0, 1, 1], header)
    }

    #[test]
    fn intra_node_invisible() {
        let n = nic(0);
        n.on_send(&ev(0, 1, 1000, 0.0));
        assert_eq!(n.xmit_bytes(0), 0);
        assert_eq!(n.xmit_msgs(0), 0);
    }

    #[test]
    fn cross_node_counted_with_header() {
        let n = nic(64);
        n.on_send(&ev(0, 2, 1000, 0.0));
        n.on_send(&ev(1, 3, 500, 1.0));
        n.on_send(&ev(2, 0, 100, 2.0));
        assert_eq!(n.xmit_bytes(0), 1000 + 64 + 500 + 64);
        assert_eq!(n.xmit_msgs(0), 2);
        assert_eq!(n.xmit_bytes(1), 164);
        assert_eq!(n.port_xmit_data(0), (1000 + 64 + 500 + 64) / 4);
    }

    #[test]
    fn retries_counted_per_sender_node() {
        let n = nic(0);
        n.count_retry(0);
        n.count_retry(1); // same node as core 0
        n.count_retry(2);
        assert_eq!(n.retries(0), 2);
        assert_eq!(n.retries(1), 1);
        assert_eq!(n.retries_total(), 3);
        // Retries never leak into the sysfs-mirroring counters.
        assert_eq!(n.xmit_msgs(0), 0);
    }

    #[test]
    fn event_log_sorted() {
        let n = nic(0);
        n.enable_event_log();
        n.on_send(&ev(0, 2, 10, 5.0));
        n.on_send(&ev(0, 2, 20, 1.0));
        n.on_send(&ev(0, 1, 99, 0.0)); // intra-node: not logged
        let log = n.take_event_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].wire_bytes, 20);
        assert_eq!(log[1].wire_bytes, 10);
        // Log is consumed.
        assert!(n.take_event_log().is_empty());
    }
}
