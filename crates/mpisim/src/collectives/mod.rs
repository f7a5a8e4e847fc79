//! Collective operations implemented on top of point-to-point messages.
//!
//! Every algorithm here decomposes into `wire_send`/`wire_recv` calls with
//! `MsgKind::Collective`, so the PML interposition layer — and therefore the
//! monitoring library — observes the *actual* per-pair traffic of the
//! collective, which is the paper's key capability ("we monitor communication
//! once a collective has been decomposed into its point-to-point messages").
//!
//! Who talks to whom, in what order, with how many blocks is written once,
//! in the private `pattern` module: each algorithm here walks its own
//! rank's steps of its pattern and adds only the data rule (what a send
//! carries, what a receive does to the buffer), and the
//! [`crate::schedule`] generator of the same name collects every rank's
//! steps — so the traffic the hook observes live and the traffic the DES
//! evaluator, the analyzer and Fig 5/6 reason about are one piece of code.
//!
//! Algorithms follow the classic MPICH/Open MPI implementations:
//!
//! * [`barrier`] — dissemination (zero-byte messages);
//! * [`bcast_binomial`] / [`bcast_binary`] — binomial / binary broadcast tree;
//! * [`reduce_binomial`] / [`reduce_binary`] — mirrored reduce trees
//!   (the paper's Fig 5a uses the binary tree);
//! * [`allreduce_recursive_doubling`] — with the standard fold-in step for
//!   non-power-of-two rank counts;
//! * [`gather_linear`], [`scatter_linear`], [`alltoall_pairwise`];
//! * [`allgather_ring`] for payloads (`Rank::allgather`), [`allgather_bruck`]
//!   for the small fixed-size exchange inside `Rank::comm_split`.

mod extra;
mod helpers;
pub(crate) mod pattern;
mod tree;
mod varcount;

pub use extra::{bcast_binary_segmented, reduce_scatter_block, scan_inclusive};
pub use helpers::{binomial_peers, combine, vrank_of, world_of_vrank};
pub use tree::gather_tree_kary;
pub use varcount::{allgatherv, gatherv, scatterv};

use std::sync::Arc;

use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::{Ctx, MsgKind, Payload};
use crate::runtime::{Rank, SrcSel, TagSel};
use crate::schedule::Step;

fn csend<T: Scalar>(rank: &Rank, comm: &Comm, dst: usize, tag: u32, data: &[T]) {
    rank.wire_send(
        comm,
        dst,
        tag,
        Ctx::Coll,
        MsgKind::Collective,
        Payload::Bytes(T::to_bytes(data)),
    );
}

fn crecv<T: Scalar>(rank: &Rank, comm: &Comm, src: usize, tag: u32) -> Vec<T> {
    let env = rank.wire_recv(comm, SrcSel::Rank(src), TagSel::Is(tag), Ctx::Coll);
    T::from_bytes(&env.payload.expect_bytes())
}

fn csend_zero(rank: &Rank, comm: &Comm, dst: usize, tag: u32) {
    rank.wire_send(comm, dst, tag, Ctx::Coll, MsgKind::Collective, Payload::Bytes(Vec::new()));
}

fn crecv_zero(rank: &Rank, comm: &Comm, src: usize, tag: u32) {
    rank.wire_recv(comm, SrcSel::Rank(src), TagSel::Is(tag), Ctx::Coll);
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds of zero-byte messages
/// (the zero-length point-to-point messages the paper warns about).
pub fn barrier(rank: &Rank, comm: &Comm) {
    let tag = rank.next_coll_tag(comm);
    for step in pattern::barrier(comm.rank(), comm.size()) {
        match step {
            Step::Send { peer, .. } => csend_zero(rank, comm, peer, tag),
            Step::Recv { peer } => crecv_zero(rank, comm, peer, tag),
        }
    }
}

/// A broadcast's data rule over one tree's `steps`: what arrives replaces
/// the buffer, which then goes to each child.
fn bcast_walk<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    tag: u32,
    steps: impl Iterator<Item = Step>,
    data: &mut Vec<T>,
) {
    for step in steps {
        match step {
            Step::Recv { peer } => *data = crecv(rank, comm, peer, tag),
            Step::Send { peer, .. } => csend(rank, comm, peer, tag, data),
        }
    }
}

/// A reduce's data rule over one tree's `steps`: what arrives is combined
/// into the accumulator, which goes up to the parent — or, at the root,
/// which has none, is the result.
fn reduce_walk<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    steps: impl Iterator<Item = Step>,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Option<Vec<T>> {
    let tag = rank.next_coll_tag(comm);
    let mut acc = data.to_vec();
    for step in steps {
        match step {
            Step::Recv { peer } => combine(&mut acc, &crecv::<T>(rank, comm, peer, tag), &op),
            Step::Send { peer, .. } => {
                csend(rank, comm, peer, tag, &acc);
                return None;
            }
        }
    }
    Some(acc)
}

/// Binomial-tree broadcast from `root` (the algorithm of the paper's Fig 5b).
pub fn bcast_binomial<T: Scalar>(rank: &Rank, comm: &Comm, root: usize, data: &mut Vec<T>) {
    let tag = rank.next_coll_tag(comm);
    bcast_walk(rank, comm, tag, pattern::bcast_binomial(comm.rank(), comm.size(), root, 0), data);
}

/// Binary-tree broadcast from `root` (ablation partner of the binomial tree).
pub fn bcast_binary<T: Scalar>(rank: &Rank, comm: &Comm, root: usize, data: &mut Vec<T>) {
    let tag = rank.next_coll_tag(comm);
    bcast_walk(rank, comm, tag, pattern::bcast_binary(comm.rank(), comm.size(), root, 0), data);
}

/// Binomial-tree reduce to `root` with a commutative `op`; returns the
/// result at the root, `None` elsewhere.
pub fn reduce_binomial<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Option<Vec<T>> {
    let steps = pattern::reduce_binomial(comm.rank(), comm.size(), root, 0);
    reduce_walk(rank, comm, steps, data, op)
}

/// Binary-tree reduce to `root` (the algorithm of the paper's Fig 5a).
pub fn reduce_binary<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Option<Vec<T>> {
    let steps = pattern::reduce_binary(comm.rank(), comm.size(), root, 0);
    reduce_walk(rank, comm, steps, data, op)
}

/// Recursive-doubling allreduce.  Non-power-of-two rank counts use the
/// standard fold: the first `2·rem` ranks pair up so `pow2` ranks run the
/// doubling, then results are pushed back to the folded ranks — whose one
/// receive is therefore the result itself, not a contribution.
pub fn allreduce_recursive_doubling<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let (me, n) = (comm.rank(), comm.size());
    let sits_out = pattern::sits_doubling_out(me, n);
    let mut acc = data.to_vec();
    for step in pattern::allreduce_recursive_doubling(me, n, 0) {
        match step {
            Step::Send { peer, .. } => csend(rank, comm, peer, tag, &acc),
            Step::Recv { peer } if sits_out => acc = crecv(rank, comm, peer, tag),
            Step::Recv { peer } => combine(&mut acc, &crecv::<T>(rank, comm, peer, tag), &op),
        }
    }
    acc
}

/// Linear gather of equal-size contributions; `Some(concatenation)` at root.
pub fn gather_linear<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: &[T],
) -> Option<Vec<T>> {
    gatherv(rank, comm, root, data).map(|(out, _)| out)
}

/// Linear scatter of equal-size chunks from `root`; `data` must be
/// `Some(n·chunk)` at the root and is ignored elsewhere.
pub fn scatter_linear<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: Option<&[T]>,
) -> Vec<T> {
    let n = comm.size();
    let chunks: Option<Vec<&[T]>> = (comm.rank() == root).then(|| {
        let data = data.expect("scatter root must provide data");
        assert!(data.len().is_multiple_of(n), "scatter buffer not divisible by communicator size");
        let chunk = data.len() / n;
        (0..n).map(|r| &data[r * chunk..(r + 1) * chunk]).collect()
    });
    scatterv(rank, comm, root, chunks.as_deref())
}

/// The equal-size contract of the allgathers, checked on every received
/// message — in release builds too, where a short contribution would
/// otherwise silently shift every later block.
fn check_blocks<T>(algo: &str, comm: &Comm, got: &[T], blocks: usize, block: usize) {
    assert_eq!(
        got.len(),
        blocks * block,
        "{algo}: allgather contributions must be equal-sized: communicator rank {} expected \
         {blocks} block(s) of {block} items and received {} items",
        comm.rank(),
        got.len()
    );
}

/// Ring allgather of equal-size contributions: `n-1` steps, each rank
/// forwarding one block to its right neighbour.
pub fn allgather_ring<T: Scalar>(rank: &Rank, comm: &Comm, data: &[T]) -> Vec<T> {
    let check = |got: &[T]| check_blocks("allgather_ring", comm, got, 1, data.len());
    varcount::ring_blocks(rank, comm, data, check).concat()
}

/// Bruck allgather of equal-size contributions, for any `n`: in round
/// `d = 1, 2, 4, … < n` every rank sends the first `min(d, n − d)` blocks it
/// holds to `(me − d) mod n` and appends as many from `(me + d) mod n`, so
/// after ⌈log₂ n⌉ rounds it holds blocks `me, me + 1, …` (mod `n`), which a
/// final rotation by `me` puts in rank order.  ⌈log₂ n⌉ messages per rank
/// instead of the ring's `n − 1`, the same `n(n − 1)` block-bytes in total:
/// the algorithm for payloads whose cost is latency, not bandwidth.
pub fn allgather_bruck<T: Scalar>(rank: &Rank, comm: &Comm, data: &[T]) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let (me, n) = (comm.rank(), comm.size());
    let block = data.len();
    let mut held = Vec::with_capacity(n * block);
    held.extend_from_slice(data);
    // With a unit of 1 a send's `bytes` is its block count, and a round
    // takes as many blocks as it has just shipped.
    let mut count = 0;
    for step in pattern::allgather_bruck(me, n, 1) {
        match step {
            Step::Send { peer, bytes } => {
                count = bytes as usize;
                csend(rank, comm, peer, tag, &held[..count * block]);
            }
            Step::Recv { peer } => {
                let got: Vec<T> = crecv(rank, comm, peer, tag);
                check_blocks("allgather_bruck", comm, &got, count, block);
                held.extend(got);
            }
        }
    }
    held.rotate_right(me * block);
    held
}

/// Pairwise (ring-offset) all-to-all: step `i` exchanges chunk with the
/// ranks at offset `±i` — chunk `peer` of `data` goes to `peer`, and what
/// `peer` sends lands as chunk `peer` of the result.
pub fn alltoall_pairwise<T: Scalar>(rank: &Rank, comm: &Comm, data: &[T]) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let (me, n) = (comm.rank(), comm.size());
    assert!(data.len().is_multiple_of(n), "alltoall buffer not divisible by communicator size");
    let chunk = data.len() / n;
    let chunk_of = |r: usize| &data[r * chunk..(r + 1) * chunk];
    let mut out = vec![Vec::new(); n];
    out[me] = chunk_of(me).to_vec();
    for step in pattern::alltoall_pairwise(me, n, 0) {
        match step {
            Step::Send { peer, .. } => csend(rank, comm, peer, tag, chunk_of(peer)),
            Step::Recv { peer } => out[peer] = crecv(rank, comm, peer, tag),
        }
    }
    out.concat()
}

// ----- the collective façade: `Rank` methods over the algorithms above ------

impl Rank {
    /// Barrier (dissemination algorithm).
    pub fn barrier(&self, comm: &Comm) {
        let _span = self.coll_span("barrier_dissemination", comm);
        barrier(self, comm)
    }

    /// Broadcast from `root` (binomial tree).
    pub fn bcast<T: Scalar>(&self, comm: &Comm, root: usize, data: &mut Vec<T>) {
        let _span = self.coll_span("bcast_binomial", comm);
        bcast_binomial(self, comm, root, data)
    }

    /// Reduce to `root` (binomial tree); `Some(result)` at the root.
    pub fn reduce<T: Scalar>(
        &self,
        comm: &Comm,
        root: usize,
        data: &[T],
        op: impl Fn(T, T) -> T,
    ) -> Option<Vec<T>> {
        let _span = self.coll_span("reduce_binomial", comm);
        reduce_binomial(self, comm, root, data, op)
    }

    /// Allreduce (recursive doubling with non-power-of-two folding).
    pub fn allreduce<T: Scalar>(&self, comm: &Comm, data: &[T], op: impl Fn(T, T) -> T) -> Vec<T> {
        let _span = self.coll_span("allreduce_recursive_doubling", comm);
        allreduce_recursive_doubling(self, comm, data, op)
    }

    /// Gather equal-size contributions at `root` (linear).
    pub fn gather<T: Scalar>(&self, comm: &Comm, root: usize, data: &[T]) -> Option<Vec<T>> {
        let _span = self.coll_span("gather_linear", comm);
        gather_linear(self, comm, root, data)
    }

    /// Gather variable-size `u64` contributions at `root` along a k-ary
    /// tree laid over an explicit rank `order` (`order[0]` must be `root`;
    /// all ranks must pass identical `order` and `arity`).  Returns one row
    /// per communicator rank at the root, `None` elsewhere.  Used by the
    /// monitoring plane to aggregate sparse traffic rows along the machine
    /// topology instead of funnelling every row through the root's mailbox.
    ///
    /// # Errors
    /// At the root, the listed ranks whose frame did not arrive because
    /// they, or a rank on their path to the root, died mid-gather (see
    /// [`gather_tree_kary`]).
    ///
    /// # Panics
    /// Panics when `arity < 2` — validated *here*, before the collective
    /// allocates its tag or opens its span, so a bad arity fails every rank
    /// with the same message instead of desynchronizing the collective
    /// sequence mid-flight.
    pub fn gather_tree(
        &self,
        comm: &Comm,
        root: usize,
        arity: usize,
        order: &[usize],
        data: &[u64],
    ) -> Result<Option<Vec<Vec<u64>>>, Vec<usize>> {
        assert!(
            arity >= 2,
            "gather_tree: arity must be at least 2, got {arity} (rank {}); every caller \
             must pass the same arity >= 2 on every rank — a k-ary tree with k < 2 has \
             no parent/child structure",
            self.world_rank()
        );
        let _span = self.coll_span("gather_tree_kary", comm);
        gather_tree_kary(self, comm, root, arity, order, data)
    }

    /// Communicator ranks sorted by machine position — `(node, core, rank)`
    /// — with `root` first: the order the monitoring plane lays its
    /// [`Rank::gather_tree`] over, so each node's members form a contiguous
    /// run that aggregates locally before one rank forwards across the
    /// network.  A function of the group, the machine and the placement
    /// alone, so it is built once per group and root and every member
    /// shares it.
    pub fn topology_order(&self, comm: &Comm, root: usize) -> Arc<[usize]> {
        comm.shared_group().order_for(root, || {
            let (machine, placement) = (self.machine(), self.placement());
            let mut order: Vec<usize> = (0..comm.size()).collect();
            order.sort_by_key(|&r| {
                let core = placement.core_of(comm.world_rank_of(r));
                (r != root, machine.node_of_core(core), core, r)
            });
            order
        })
    }

    /// Allgather equal-size contributions (ring).
    pub fn allgather<T: Scalar>(&self, comm: &Comm, data: &[T]) -> Vec<T> {
        let _span = self.coll_span("allgather_ring", comm);
        allgather_ring(self, comm, data)
    }

    /// Scatter equal-size chunks from `root` (linear).
    pub fn scatter<T: Scalar>(&self, comm: &Comm, root: usize, data: Option<&[T]>) -> Vec<T> {
        let _span = self.coll_span("scatter_linear", comm);
        scatter_linear(self, comm, root, data)
    }

    /// All-to-all personalized exchange (ring-offset pairwise).
    pub fn alltoall<T: Scalar>(&self, comm: &Comm, data: &[T]) -> Vec<T> {
        let _span = self.coll_span("alltoall_pairwise", comm);
        alltoall_pairwise(self, comm, data)
    }

    /// Reduce-scatter with equal blocks (recursive halving / fallback).
    pub fn reduce_scatter<T: Scalar>(
        &self,
        comm: &Comm,
        data: &[T],
        op: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        let _span = self.coll_span("reduce_scatter_block", comm);
        reduce_scatter_block(self, comm, data, op)
    }

    /// Inclusive prefix scan (`MPI_Scan`).
    pub fn scan<T: Scalar>(&self, comm: &Comm, data: &[T], op: impl Fn(T, T) -> T) -> Vec<T> {
        let _span = self.coll_span("scan_inclusive", comm);
        scan_inclusive(self, comm, data, op)
    }

    /// Segmented (pipelined) binary-tree broadcast; returns the number of
    /// segments used.
    pub fn bcast_segmented<T: Scalar>(
        &self,
        comm: &Comm,
        root: usize,
        data: &mut Vec<T>,
        seg_items: usize,
    ) -> usize {
        let _span = self.coll_span("bcast_binary_segmented", comm);
        bcast_binary_segmented(self, comm, root, data, seg_items)
    }
}

#[cfg(test)]
mod tests;
