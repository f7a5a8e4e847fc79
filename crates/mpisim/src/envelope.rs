//! Wire-level message representation.

/// Classification of a message for monitoring purposes.
///
/// Mirrors the three flag classes of the paper's library
/// (`MPI_M_P2P_ONLY`, `MPI_M_COLL_ONLY`, `MPI_M_OSC_ONLY`): user-issued
/// point-to-point traffic, the point-to-point decomposition of collective
/// operations (library-internal), and one-sided operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A user-issued point-to-point message.
    P2pUser,
    /// A point-to-point message generated by the decomposition of a
    /// collective operation (library-internal traffic).
    Collective,
    /// A one-sided operation (put / get / accumulate).
    OneSided,
}

impl MsgKind {
    /// Short stable label used by the trace event schema.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MsgKind::P2pUser => "p2p",
            MsgKind::Collective => "coll",
            MsgKind::OneSided => "osc",
        }
    }
}

/// Matching context: separates the point-to-point, collective, and one-sided
/// "message universes" of a communicator, like MPI context ids do, so a
/// collective's internal messages can never be stolen by a user `recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ctx {
    /// User point-to-point context.
    Pt2pt,
    /// Collective context.
    Coll,
    /// One-sided context.
    Osc,
    /// Fault-protocol context (death notices, liveness pings).  Carried on
    /// the reserved communicator id 0, invisible to monitoring and tracing.
    Fault,
}

/// Message payload: real bytes, or a synthetic size used by benchmarks that
/// replay paper-scale buffers without allocating them.  Both variants travel
/// through the same PML hooks and the same cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Actual data.
    Bytes(Vec<u8>),
    /// Size-only payload (logical length in bytes).
    Synthetic(u64),
}

impl Payload {
    /// Logical length in bytes (what the cost model and the monitor see).
    pub fn len_bytes(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Synthetic(n) => *n,
        }
    }

    /// The real bytes; panics on a synthetic payload.
    pub(crate) fn expect_bytes(self) -> Vec<u8> {
        match self {
            Payload::Bytes(b) => b,
            Payload::Synthetic(_) => panic!("expected real payload, got synthetic"),
        }
    }
}

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// World rank of the sender.
    pub src_world: usize,
    /// World rank of the receiver.
    pub dst_world: usize,
    /// Communicator the message was posted on.
    pub comm_id: u64,
    /// Matching context within the communicator.
    pub ctx: Ctx,
    /// User or internal tag.
    pub tag: u32,
    /// Monitoring classification.
    pub kind: MsgKind,
    /// Payload (real or synthetic).
    pub payload: Payload,
    /// Sender virtual time when the message hit the wire (ns).
    pub sent_at_ns: f64,
    /// Virtual arrival time at the receiver (ns): `sent_at + α + β·bytes`.
    pub arrival_ns: f64,
    /// Per-(src → dst) wire sequence number, assigned only when a fault
    /// injector is installed.  The receiver drops an envelope whose sequence
    /// is not newer than the last one admitted from the same sender, which
    /// deduplicates duplicate-delivery faults (sound because each sender's
    /// channel is FIFO).  `None` means "not sequenced, always admit".
    pub wire_seq: Option<u64>,
    /// Incarnation of the sender when the message hit the wire.  A rank that
    /// is restarted after a crash (elastic universes, `restart=` chaos plans)
    /// comes back with its incarnation bumped; stamping it here lets the
    /// receiver's dedup filter distinguish a reborn sender's fresh wire
    /// sequence 0 from a stale duplicate of the dead incarnation.
    pub src_inc: u32,
    /// Incarnation of the receiver the message was *addressed to* (the
    /// sender's current belief, updated by join notices).  A mailbox drops
    /// any non-fault envelope whose `dst_inc` differs from its own
    /// incarnation: a message in flight to a rank that has since crashed and
    /// been reborn is rejected deterministically instead of being
    /// misdelivered to the new incarnation.
    pub dst_inc: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::Bytes(vec![1, 2, 3]).len_bytes(), 3);
        assert_eq!(Payload::Synthetic(1 << 40).len_bytes(), 1 << 40);
    }

    #[test]
    fn expect_bytes_returns_data() {
        assert_eq!(Payload::Bytes(vec![9]).expect_bytes(), vec![9]);
    }

    #[test]
    #[should_panic]
    fn expect_bytes_rejects_synthetic() {
        Payload::Synthetic(8).expect_bytes();
    }
}
