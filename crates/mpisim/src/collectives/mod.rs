//! Collective operations implemented on top of point-to-point messages.
//!
//! Every algorithm here decomposes into `wire_send`/`wire_recv` calls with
//! `MsgKind::Collective`, so the PML interposition layer — and therefore the
//! monitoring library — observes the *actual* per-pair traffic of the
//! collective, which is the paper's key capability ("we monitor communication
//! once a collective has been decomposed into its point-to-point messages").
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
mod tree;
mod varcount;

pub use extra::{bcast_binary_segmented, reduce_scatter_block, scan_inclusive};
pub use helpers::{binomial_peers, combine, vrank_of, world_of_vrank};
pub use tree::gather_tree_kary;
pub use varcount::{allgatherv, gatherv, scatterv};

use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::{Ctx, MsgKind, Payload};
use crate::runtime::{Rank, SrcSel, TagSel};

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
    let n = comm.size();
    let me = comm.rank();
    let mut dist = 1;
    while dist < n {
        let to = (me + dist) % n;
        let from = (me + n - dist % n) % n;
        csend_zero(rank, comm, to, tag);
        crecv_zero(rank, comm, from, tag);
        dist <<= 1;
    }
}

/// Binomial-tree broadcast from `root` (the algorithm of the paper's Fig 5b).
pub fn bcast_binomial<T: Scalar>(rank: &Rank, comm: &Comm, root: usize, data: &mut Vec<T>) {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    if n == 1 {
        return;
    }
    let me = comm.rank();
    let vrank = vrank_of(me, root, n);
    // Receive once from the parent...
    let mut mask = 1;
    while mask < n {
        if vrank & mask != 0 {
            let parent = world_of_vrank(vrank - mask, root, n);
            *data = crecv(rank, comm, parent, tag);
            break;
        }
        mask <<= 1;
    }
    // ...then forward to children, widest subtree first.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < n {
            let child = world_of_vrank(vrank + mask, root, n);
            csend(rank, comm, child, tag, data);
        }
        mask >>= 1;
    }
}

/// Binary-tree broadcast from `root` (ablation partner of the binomial tree).
pub fn bcast_binary<T: Scalar>(rank: &Rank, comm: &Comm, root: usize, data: &mut Vec<T>) {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    if n == 1 {
        return;
    }
    let me = comm.rank();
    let vrank = vrank_of(me, root, n);
    if vrank != 0 {
        let parent = world_of_vrank((vrank - 1) / 2, root, n);
        *data = crecv(rank, comm, parent, tag);
    }
    for child_v in [2 * vrank + 1, 2 * vrank + 2] {
        if child_v < n {
            csend(rank, comm, world_of_vrank(child_v, root, n), tag, data);
        }
    }
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
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    let vrank = vrank_of(me, root, n);
    let mut acc = data.to_vec();
    let mut mask = 1;
    while mask < n {
        if vrank & mask == 0 {
            let peer_v = vrank | mask;
            if peer_v < n {
                let other: Vec<T> = crecv(rank, comm, world_of_vrank(peer_v, root, n), tag);
                combine(&mut acc, &other, &op);
            }
        } else {
            let parent = world_of_vrank(vrank & !mask, root, n);
            csend(rank, comm, parent, tag, &acc);
            return None;
        }
        mask <<= 1;
    }
    Some(acc)
}

/// Binary-tree reduce to `root` (the algorithm of the paper's Fig 5a).
pub fn reduce_binary<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Option<Vec<T>> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    let vrank = vrank_of(me, root, n);
    let mut acc = data.to_vec();
    for child_v in [2 * vrank + 1, 2 * vrank + 2] {
        if child_v < n {
            let other: Vec<T> = crecv(rank, comm, world_of_vrank(child_v, root, n), tag);
            combine(&mut acc, &other, &op);
        }
    }
    if vrank == 0 {
        Some(acc)
    } else {
        let parent = world_of_vrank((vrank - 1) / 2, root, n);
        csend(rank, comm, parent, tag, &acc);
        None
    }
}

/// Recursive-doubling allreduce.  Non-power-of-two rank counts use the
/// standard fold: the first `2·rem` ranks pair up so `pow2` ranks run the
/// doubling, then results are pushed back to the folded ranks.
pub fn allreduce_recursive_doubling<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    let mut acc = data.to_vec();
    if n == 1 {
        return acc;
    }
    let pow2 = n.next_power_of_two() >> usize::from(!n.is_power_of_two());
    let rem = n - pow2;
    // Fold phase: ranks [0, 2*rem) pair up (even sends to odd).
    let newrank: Option<usize> = if me < 2 * rem {
        if me.is_multiple_of(2) {
            csend(rank, comm, me + 1, tag, &acc);
            None
        } else {
            let other: Vec<T> = crecv(rank, comm, me - 1, tag);
            combine(&mut acc, &other, &op);
            Some(me / 2)
        }
    } else {
        Some(me - rem)
    };
    // Recursive doubling among `pow2` participants.
    if let Some(nr) = newrank {
        let to_old = |r: usize| if r < rem { 2 * r + 1 } else { r + rem };
        let mut mask = 1;
        while mask < pow2 {
            let peer = to_old(nr ^ mask);
            csend(rank, comm, peer, tag, &acc);
            let other: Vec<T> = crecv(rank, comm, peer, tag);
            combine(&mut acc, &other, &op);
            mask <<= 1;
        }
    }
    // Unfold: odd folded ranks push the result back to their even partner.
    if me < 2 * rem {
        if me.is_multiple_of(2) {
            acc = crecv(rank, comm, me + 1, tag);
        } else {
            csend(rank, comm, me - 1, tag, &acc);
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
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    if me != root {
        csend(rank, comm, root, tag, data);
        return None;
    }
    let mut out = Vec::with_capacity(data.len() * n);
    for r in 0..n {
        if r == root {
            out.extend_from_slice(data);
        } else {
            out.extend(crecv::<T>(rank, comm, r, tag));
        }
    }
    Some(out)
}

/// Linear scatter of equal-size chunks from `root`; `data` must be
/// `Some(n·chunk)` at the root and is ignored elsewhere.
pub fn scatter_linear<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: Option<&[T]>,
) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    if me == root {
        let data = data.expect("scatter root must provide data");
        assert!(data.len().is_multiple_of(n), "scatter buffer not divisible by communicator size");
        let chunk = data.len() / n;
        for r in 0..n {
            if r != root {
                csend(rank, comm, r, tag, &data[r * chunk..(r + 1) * chunk]);
            }
        }
        data[root * chunk..(root + 1) * chunk].to_vec()
    } else {
        crecv(rank, comm, root, tag)
    }
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
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    let block = data.len();
    let mut out = Vec::with_capacity(n * block);
    let mut blocks: Vec<Option<Vec<T>>> = vec![None; n];
    blocks[me] = Some(data.to_vec());
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    for step in 0..n.saturating_sub(1) {
        let send_idx = (me + n - step) % n;
        let recv_idx = (me + n - step - 1) % n;
        let to_send = blocks[send_idx].as_ref().expect("ring block not yet received");
        csend(rank, comm, right, tag, to_send);
        let got: Vec<T> = crecv(rank, comm, left, tag);
        check_blocks("allgather_ring", comm, &got, 1, block);
        blocks[recv_idx] = Some(got);
    }
    for b in blocks {
        out.extend(b.expect("missing allgather block"));
    }
    out
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
    let n = comm.size();
    let me = comm.rank();
    let block = data.len();
    let mut held = Vec::with_capacity(n * block);
    held.extend_from_slice(data);
    let mut d = 1;
    while d < n {
        let count = d.min(n - d);
        csend(rank, comm, (me + n - d) % n, tag, &held[..count * block]);
        let got: Vec<T> = crecv(rank, comm, (me + d) % n, tag);
        check_blocks("allgather_bruck", comm, &got, count, block);
        held.extend(got);
        d <<= 1;
    }
    held.rotate_right(me * block);
    held
}

/// Pairwise (ring-offset) all-to-all: step `i` exchanges chunk with the
/// ranks at offset `±i`.
pub fn alltoall_pairwise<T: Scalar>(rank: &Rank, comm: &Comm, data: &[T]) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    assert!(data.len().is_multiple_of(n), "alltoall buffer not divisible by communicator size");
    let chunk = data.len() / n;
    let mut out = vec![None; n];
    out[me] = Some(data[me * chunk..(me + 1) * chunk].to_vec());
    for step in 1..n {
        let to = (me + step) % n;
        let from = (me + n - step) % n;
        csend(rank, comm, to, tag, &data[to * chunk..(to + 1) * chunk]);
        out[from] = Some(crecv(rank, comm, from, tag));
    }
    out.into_iter().flat_map(|b| b.expect("missing alltoall chunk")).collect()
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
