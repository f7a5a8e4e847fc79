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
//! * `barrier` — dissemination (zero-byte messages);
//! * `bcast_binomial` / [`bcast_binary`] — binomial / binary broadcast tree;
//! * [`reduce_binomial`] / [`reduce_binary`] — mirrored reduce trees
//!   (the paper's Fig 5a uses the binary tree);
//! * [`allreduce_recursive_doubling`] — with the standard fold-in step for
//!   non-power-of-two rank counts;
//! * `gather_linear` (`Rank::gather`) and `gather_tree_kary`
//!   (`Rank::gather_tree`, variable-size rows along a k-ary tree);
//! * [`allgather_ring`] for payloads (`Rank::allgather`), [`allgather_bruck`]
//!   for the small fixed-size exchange inside `Rank::comm_split`.

mod helpers;
pub(crate) mod pattern;
mod tree;

use tree::gather_tree_kary;

use std::sync::Arc;

use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::{Ctx, MsgKind, Payload};
use crate::runtime::{Rank, SrcSel, TagSel};
use crate::schedule::Step;

/// Post already-encoded `bytes` on the collective context.
fn cpost(rank: &Rank, comm: &Comm, dst: usize, tag: u32, bytes: Vec<u8>) {
    rank.wire_send(comm, dst, tag, Ctx::Coll, MsgKind::Collective, Payload::Bytes(bytes));
}

fn csend<T: Scalar>(rank: &Rank, comm: &Comm, dst: usize, tag: u32, data: &[T]) {
    cpost(rank, comm, dst, tag, T::to_bytes(data));
}

/// The envelope's bytes, undecoded: each data rule decodes them once,
/// where the data ends up.
fn crecv(rank: &Rank, comm: &Comm, src: usize, tag: u32) -> Vec<u8> {
    rank.wire_recv(comm, SrcSel::Rank(src), TagSel::Is(tag), Ctx::Coll).payload.expect_bytes()
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds of zero-byte messages
/// (the zero-length point-to-point messages the paper warns about).
pub(crate) fn barrier(rank: &Rank, comm: &Comm) {
    let tag = rank.next_coll_tag(comm);
    for step in pattern::barrier(comm.rank(), comm.size()) {
        match step {
            Step::Send { peer, .. } => cpost(rank, comm, peer, tag, Vec::new()),
            Step::Recv { peer } => drop(crecv(rank, comm, peer, tag)),
        }
    }
}

/// A broadcast's data rule over one tree's `steps`: what arrives replaces
/// `data`, decoded into its capacity, and `data` then goes to each child.
fn bcast_walk<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    steps: impl Iterator<Item = Step>,
    data: &mut Vec<T>,
) {
    let tag = rank.next_coll_tag(comm);
    for step in steps {
        match step {
            Step::Recv { peer } => {
                data.clear();
                data.extend(T::decode(&crecv(rank, comm, peer, tag)));
            }
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
            Step::Recv { peer } => T::fold_bytes(&mut acc, &crecv(rank, comm, peer, tag), &op),
            Step::Send { peer, .. } => {
                csend(rank, comm, peer, tag, &acc);
                return None;
            }
        }
    }
    Some(acc)
}

/// Binomial-tree broadcast from `root` (the algorithm of the paper's Fig 5b).
pub(crate) fn bcast_binomial<T: Scalar>(rank: &Rank, comm: &Comm, root: usize, data: &mut Vec<T>) {
    let steps = pattern::bcast_binomial(comm.rank(), comm.size(), root, 0);
    bcast_walk(rank, comm, steps, data);
}

/// Binary-tree broadcast from `root` (ablation partner of the binomial tree).
pub fn bcast_binary<T: Scalar>(rank: &Rank, comm: &Comm, root: usize, data: &mut Vec<T>) {
    let steps = pattern::bcast_binary(comm.rank(), comm.size(), root, 0);
    bcast_walk(rank, comm, steps, data);
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
            Step::Recv { peer } if sits_out => {
                T::fold_bytes(&mut acc, &crecv(rank, comm, peer, tag), |_, got| got)
            }
            Step::Recv { peer } => T::fold_bytes(&mut acc, &crecv(rank, comm, peer, tag), &op),
        }
    }
    acc
}

/// Linear gather of equal-size contributions; `Some(concatenation)` at root.
pub(crate) fn gather_linear<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: &[T],
) -> Option<Vec<T>> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    if comm.rank() != root {
        csend(rank, comm, root, tag, data);
        return None;
    }
    let mut out = Vec::with_capacity(n * data.len());
    for r in 0..n {
        if r == root {
            out.extend_from_slice(data);
        } else {
            out.extend(T::decode(&crecv(rank, comm, r, tag)));
        }
    }
    Some(out)
}

/// The equal-size contract of the allgathers, checked on every received
/// message (`got` items) — in release builds too, where a short
/// contribution would otherwise silently shift every later block.
fn check_blocks(algo: &str, comm: &Comm, got: usize, blocks: usize, block: usize) {
    assert_eq!(
        got,
        blocks * block,
        "{algo}: allgather contributions must be equal-sized: communicator rank {} expected \
         {blocks} block(s) of {block} items and received {got} items",
        comm.rank(),
    );
}

/// Ring allgather of equal-size contributions: `n − 1` times, forward the
/// block last received (at first, `data`) to the right neighbour and take
/// the next from the left, so the blocks arrive from ranks `me − 1,
/// me − 2, …` (mod `n`).  Every block has its place from the start —
/// zeroed, which `calloc` skips on fresh pages — is decoded there as it
/// arrives, and goes on in the bytes it came in: what encoding its decoded
/// copy would give, without the copy.
pub fn allgather_ring<T: Scalar>(rank: &Rank, comm: &Comm, data: &[T]) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let (me, n) = (comm.rank(), comm.size());
    let block = data.len();
    let mut out = vec![T::default(); n * block];
    out[me * block..][..block].copy_from_slice(data);
    let (mut src, mut last) = (me, None);
    for step in pattern::allgather_ring(me, n, 0) {
        match step {
            Step::Send { peer, .. } => match last.take() {
                None => csend(rank, comm, peer, tag, data),
                Some(bytes) => cpost(rank, comm, peer, tag, bytes),
            },
            Step::Recv { peer } => {
                let got = crecv(rank, comm, peer, tag);
                src = (src + n - 1) % n;
                check_blocks("allgather_ring", comm, T::decode(&got).len(), 1, block);
                T::fold_bytes(&mut out[src * block..][..block], &got, |_, got| got);
                last = Some(got);
            }
        }
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
                let got = crecv(rank, comm, peer, tag);
                check_blocks("allgather_bruck", comm, T::decode(&got).len(), count, block);
                held.extend(T::decode(&got));
            }
        }
    }
    held.rotate_right(me * block);
    held
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
    /// tree laid over an explicit rank `order` (a permutation of the
    /// communicator's ranks with `order[0] == root`; all ranks must pass
    /// identical `order` and `arity`).  Returns one row per communicator
    /// rank at the root, `None` elsewhere.  Used by the monitoring plane to
    /// aggregate sparse traffic rows along the machine topology instead of
    /// funnelling every row through the root's mailbox.
    ///
    /// # Errors
    /// At the root, the ranks whose frame did not arrive because they, or a
    /// rank on their path to the root, died mid-gather (see
    /// `gather_tree_kary`).
    ///
    /// # Panics
    /// Panics when `arity < 2` — validated *here*, before the collective
    /// allocates its tag or opens its span, so a bad arity fails every rank
    /// with the same message instead of desynchronizing the collective
    /// sequence mid-flight — and when `order` is not a permutation starting
    /// with `root`.
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
}

#[cfg(test)]
mod tests;
