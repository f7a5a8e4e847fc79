//! Nonblocking point-to-point operations (`MPI_Isend` / `MPI_Irecv` /
//! `MPI_Wait`).
//!
//! Sends are buffered-eager in this runtime, so an `isend` completes
//! immediately — its request exists for API symmetry.  An `irecv` captures
//! the matching pattern at post time and performs the match at
//! [`RecvRequest::wait`]; the virtual-time outcome is identical to a
//! blocking receive issued at the wait point (`max(local, arrival)`), which
//! models perfect communication/computation overlap.  Simplification vs
//! MPI: when several *pending* requests have overlapping wildcard patterns,
//! matching order is wait order, not post order.

use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::Ctx;
use crate::mailbox::MatchPattern;
use crate::runtime::{pattern, typed, Rank, SrcSel, Status, TagSel};

/// Handle of a nonblocking send (eager: already complete).
#[derive(Debug)]
#[must_use = "requests should be completed with wait()"]
pub struct SendRequest {
    _private: (),
}

impl SendRequest {
    /// Complete the send (a no-op under the eager model).
    pub fn wait(self, _rank: &Rank) {}
}

/// Handle of a posted nonblocking receive, borrowing the communicator it
/// was posted on: a clone would write the group's shared reference count
/// at every post and again at every wait.
#[derive(Debug)]
#[must_use = "an unposted wait() loses the message"]
pub struct RecvRequest<'c> {
    /// The communicator the receive was posted on (translates the sender
    /// back to a comm rank at completion).
    comm: &'c Comm,
    pat: MatchPattern,
}

impl RecvRequest<'_> {
    /// Block until a matching message arrives and return its data.
    pub fn wait<T: Scalar>(self, rank: &Rank) -> (Vec<T>, Status) {
        typed(self.comm, rank.mailbox_recv(&self.pat))
    }
}

impl Rank {
    /// Nonblocking typed send (completes immediately under the eager model,
    /// like a buffered `MPI_Ibsend`).
    pub fn isend<T: Scalar>(&self, comm: &Comm, dst: usize, tag: u32, data: &[T]) -> SendRequest {
        self.send(comm, dst, tag, data);
        SendRequest { _private: () }
    }

    /// Post a nonblocking receive; complete it with `RecvRequest::wait`.
    pub fn irecv<'c>(&self, comm: &'c Comm, src: SrcSel, tag: TagSel) -> RecvRequest<'c> {
        RecvRequest { comm, pat: pattern(comm, src, tag, Ctx::Pt2pt) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};

    fn universe(n: usize) -> Universe {
        Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(n)))
    }

    #[test]
    fn isend_irecv_roundtrip() {
        let u = universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            if world.rank() == 0 {
                let req = rank.isend(&world, 1, 5, &[1.5f64, 2.5]);
                req.wait(rank);
            } else {
                let req = rank.irecv(&world, SrcSel::Rank(0), TagSel::Is(5));
                let (v, st) = req.wait::<f64>(rank);
                assert_eq!(v, vec![1.5, 2.5]);
                assert_eq!(st.src, 0);
                assert_eq!(st.bytes, 16);
            }
        });
    }

    #[test]
    fn symmetric_exchange_cannot_deadlock() {
        // Classic head-to-head exchange that deadlocks with rendezvous
        // blocking sends; nonblocking makes the intent explicit.
        let u = universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank();
            let peer = 1 - me;
            let sreq = rank.isend(&world, peer, 1, &[me as u32; 1000]);
            let rreq = rank.irecv(&world, SrcSel::Rank(peer), TagSel::Is(1));
            let (v, _) = rreq.wait::<u32>(rank);
            sreq.wait(rank);
            assert_eq!(v, vec![peer as u32; 1000]);
        });
    }

    #[test]
    fn overlap_advances_clock_like_late_recv() {
        // Post early, compute, wait late: the receive costs only the wait-
        // point synchronization, i.e. compute/communication overlap.
        let u = universe(2);
        let times = u.launch(|rank| {
            let world = rank.comm_world();
            if world.rank() == 0 {
                rank.send(&world, 1, 1, &vec![0u8; 1 << 20]);
                0.0
            } else {
                let req = rank.irecv(&world, SrcSel::Rank(0), TagSel::Is(1));
                rank.compute_ns(1e9); // 1 virtual second of work
                let t0 = rank.now_ns();
                req.wait::<u8>(rank);
                rank.now_ns() - t0
            }
        });
        // The message arrived long before the wait: only the receive
        // overhead is paid at the wait point.
        assert!(times[1] < 1000.0, "wait cost {} ns, expected overhead only", times[1]);
    }

    #[test]
    fn waitall_completes_a_batch() {
        let u = universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank();
            for dst in 0..4 {
                if dst != me {
                    let _ = rank.isend(&world, dst, 2, &[me as u16]);
                }
            }
            let reqs: Vec<RecvRequest> = (0..4)
                .filter(|&src| src != me)
                .map(|src| rank.irecv(&world, SrcSel::Rank(src), TagSel::Is(2)))
                .collect();
            let got: Vec<u16> = reqs.into_iter().map(|r| r.wait::<u16>(rank).0[0]).collect();
            let expect: Vec<u16> = (0..4).filter(|&s| s != me).map(|s| s as u16).collect();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn irecv_isolated_per_communicator() {
        let u = universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            let dup = rank.comm_split(&world, 0, world.rank() as i64);
            if world.rank() == 0 {
                rank.send(&dup, 1, 3, &[1u8]);
                rank.send(&world, 1, 3, &[2u8]);
            } else {
                let (v, _) = rank.irecv(&world, SrcSel::Any, TagSel::Is(3)).wait::<u8>(rank);
                assert_eq!(v, vec![2]);
                let (v, _) = rank.irecv(&dup, SrcSel::Any, TagSel::Is(3)).wait::<u8>(rank);
                assert_eq!(v, vec![1]);
            }
        });
    }
}
