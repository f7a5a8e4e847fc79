//! `mim-mpisim` — a virtual-time MPI-like message-passing runtime.
//!
//! Every rank of a simulated job runs its body on one of two engines
//! ([`ExecutorKind`]): an OS thread per rank, or an M:N rank task (a
//! stackful fiber) on a fixed worker pool over one FIFO run queue — the
//! engine that carries the 10k-rank universes, every bench and the ledger.  Both produce
//! bit-identical virtual-time results.  Ranks exchange messages through
//! per-rank mailboxes with MPI matching semantics (communicator, source,
//! tag, wildcards, non-overtaking per channel).  Time is *virtual*: each
//! rank carries its own clock; a send occupies the sender's link for
//! `β·bytes` (back-to-back sends serialize on one NIC, like real hardware)
//! and the message arrives `α` later, where `(α, β)` depend on the
//! topological distance between the cores hosting the two processes (see
//! `mim_topology`).  A receive advances the receiver clock to
//! `max(local, arrival)` — the classic conservative-timestamping scheme used
//! by SMPI-style simulators.
//!
//! Collectives ([`collectives`]) are implemented **on top of point-to-point
//! messages** (binomial broadcast, binary/binomial tree reduce,
//! recursive-doubling allreduce, dissemination barrier, ring and Bruck
//! allgather, …).  All wire traffic — including the point-to-point
//! decomposition of collectives and one-sided operations — funnels through
//! a single interposition point, the [`pml`] layer, which mirrors the
//! position of Open MPI's `pml_monitoring` MCA component: below the
//! collective engine, above the wire.  Monitoring libraries (`mim-core`)
//! and the simulated NIC hardware counters (`nic`) subscribe there.  In
//! the code that point is one function, `Rank::wire_send`
//! (`runtime/wire.rs`); `runtime` is split one module per decision around
//! it — wire, universe and delivery, the fault protocol, membership — so
//! each can change alone.
//!
//! Messages can carry real data or a *synthetic* size-only payload
//! ([`envelope::Payload::Synthetic`]); both traverse the same hooks and the
//! same cost model, which lets benchmarks replay paper-scale buffers
//! (2·10⁸ ints) without allocating them.

pub mod clock;
pub mod collectives;
mod comm;
mod datatype;
pub mod envelope;
pub mod exec;
pub mod fault;
pub mod mailbox;
mod nic;
mod nonblocking;
mod osc;
pub mod pml;
mod runtime;
mod sched;
pub mod schedule;

pub use comm::Comm;
pub use datatype::Scalar;
pub use envelope::{MsgKind, Payload};
pub use exec::{ExecStats, ExecutorKind};
pub use fault::{FaultPlan, LinkCtx, RankFailure, SendOutcome};
pub use mailbox::UnexpectedQueue;
pub use osc::Window;
pub use pml::{PmlEvent, PmlHook};
pub use runtime::{
    Rank, RankAborted, SrcSel, StaleEpoch, TagSel, Universe, UniverseConfig, RECV_OVERHEAD_NS,
    SEND_OVERHEAD_NS,
};
pub use sched::{CanonicalPolicy, Decision, SchedulePolicy};
pub use schedule::{Schedule, Step};

/// The tracing subsystem (re-exported so downstream crates need no direct
/// `mim-trace` dependency to inject a [`trace::Tracer`] into a universe).
pub use mim_trace as trace;
