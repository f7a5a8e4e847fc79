//! Each collective's *pattern* — who talks to whom, in what order, with how
//! many blocks — written once.
//!
//! One function per algorithm, from a rank's position (`me` of `n`, a `root`
//! where there is one) to that rank's [`Step`]s, as an iterator that never
//! allocates.  Both halves of the crate consume them: a live algorithm in
//! [`super`] walks its own rank's steps and applies only its data rule (what
//! a send carries, what a receive does to the buffer), and a
//! [`crate::schedule`] generator collects every rank's steps.  The
//! decomposition the PML hook observes and the one the DES evaluator
//! predicts are therefore the same code.  The pairwise all-to-all and the
//! segmented broadcast have no live algorithm: only their schedules exist,
//! and `schedule::execute` runs those on the wire.
//!
//! `unit` is the size of one block in whatever the caller counts — bytes for
//! a schedule, `1` for a live walk that needs to know how many blocks a send
//! carries; a send's `bytes` is `unit` times its block count.

use super::helpers::{
    binary_children, binary_parent, binomial_children, binomial_parent, vrank_of, world_of_vrank,
};
use crate::schedule::Step;

/// ⌈log₂ n⌉: the rounds of a doubling exchange over `n` ranks.
fn rounds(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Down a tree: receive from the parent, then send to each child in the
/// order given.
fn down(
    parent: Option<usize>,
    children: impl Iterator<Item = usize>,
    bytes: u64,
) -> impl Iterator<Item = Step> {
    let recv = parent.map(|peer| Step::Recv { peer });
    recv.into_iter().chain(children.map(move |peer| Step::Send { peer, bytes }))
}

/// Up the same tree: receive from each child in the order given, then send
/// to the parent.
fn up(
    parent: Option<usize>,
    children: impl Iterator<Item = usize>,
    bytes: u64,
) -> impl Iterator<Item = Step> {
    children.map(|peer| Step::Recv { peer }).chain(parent.map(|peer| Step::Send { peer, bytes }))
}

/// Steps written in virtual ranks (the tree's root is 0), as the
/// communicator sees them when the root is `root`.
fn rooted_at(
    root: usize,
    n: usize,
    steps: impl Iterator<Item = Step>,
) -> impl Iterator<Item = Step> {
    steps.map(move |step| match step {
        Step::Send { peer, bytes } => Step::Send { peer: world_of_vrank(peer, root, n), bytes },
        Step::Recv { peer } => Step::Recv { peer: world_of_vrank(peer, root, n) },
    })
}

/// Binomial-tree broadcast: children widest subtree first.
pub(crate) fn bcast_binomial(
    me: usize,
    n: usize,
    root: usize,
    bytes: u64,
) -> impl Iterator<Item = Step> {
    let v = vrank_of(me, root, n);
    rooted_at(root, n, down(binomial_parent(v), binomial_children(v, n).rev(), bytes))
}

/// Binomial-tree reduce: the broadcast's tree, children narrowest first.
pub(crate) fn reduce_binomial(
    me: usize,
    n: usize,
    root: usize,
    bytes: u64,
) -> impl Iterator<Item = Step> {
    let v = vrank_of(me, root, n);
    rooted_at(root, n, up(binomial_parent(v), binomial_children(v, n), bytes))
}

/// Binary-tree broadcast.
pub(crate) fn bcast_binary(
    me: usize,
    n: usize,
    root: usize,
    bytes: u64,
) -> impl Iterator<Item = Step> {
    let v = vrank_of(me, root, n);
    rooted_at(root, n, down(binary_parent(v), binary_children(v, n), bytes))
}

/// Binary-tree reduce (the paper's Fig 5a algorithm).
pub(crate) fn reduce_binary(
    me: usize,
    n: usize,
    root: usize,
    bytes: u64,
) -> impl Iterator<Item = Step> {
    let v = vrank_of(me, root, n);
    rooted_at(root, n, up(binary_parent(v), binary_children(v, n), bytes))
}

/// Segmented binary-tree broadcast: [`bcast_binary`]'s steps once per
/// segment, the last segment carrying the remainder.
pub(crate) fn bcast_binary_segmented(
    me: usize,
    n: usize,
    root: usize,
    bytes: u64,
    seg_bytes: u64,
) -> impl Iterator<Item = Step> {
    let nsegs = bytes.div_ceil(seg_bytes).max(1);
    (0..nsegs).flat_map(move |s| {
        let seg = if s + 1 == nsegs { bytes - (nsegs - 1) * seg_bytes } else { seg_bytes };
        bcast_binary(me, n, root, seg)
    })
}

/// Dissemination barrier: round `k` signals the rank `2ᵏ` above and hears
/// from the rank `2ᵏ` below, in zero-byte messages.
pub(crate) fn barrier(me: usize, n: usize) -> impl Iterator<Item = Step> {
    (0..rounds(n)).map(|k| 1 << k).flat_map(move |dist: usize| {
        [Step::Send { peer: (me + dist) % n, bytes: 0 }, Step::Recv { peer: (me + n - dist) % n }]
    })
}

/// The largest power of two `≤ n`: how many ranks run the doubling of
/// [`allreduce_recursive_doubling`].
fn doubling_ranks(n: usize) -> usize {
    n.next_power_of_two() >> usize::from(!n.is_power_of_two())
}

/// Whether `me` sits that doubling out: with `rem` ranks too many for a
/// power of two, the first `2·rem` pair up, and the even one of each pair
/// only hands its contribution over and waits for the result.
pub(crate) fn sits_doubling_out(me: usize, n: usize) -> bool {
    me < 2 * (n - doubling_ranks(n)) && me.is_multiple_of(2)
}

/// Recursive-doubling allreduce with the standard fold for a rank count
/// that is no power of two: the even rank of each folded pair sends to the
/// odd one, `pow2` ranks run the doubling, and the odd ranks push the
/// result back to their partners.
pub(crate) fn allreduce_recursive_doubling(
    me: usize,
    n: usize,
    bytes: u64,
) -> impl Iterator<Item = Step> {
    let pow2 = doubling_ranks(n);
    let rem = n - pow2;
    let (folded, sits_out) = (me < 2 * rem, sits_doubling_out(me, n));
    let send = move |peer: usize| Step::Send { peer, bytes };
    let recv = |peer: usize| Step::Recv { peer };
    let partner = me ^ 1; // within a folded pair
    let (fold, unfold) = match (folded, sits_out) {
        (false, _) => (None, None),
        (true, true) => (Some(send(partner)), Some(recv(partner))),
        (true, false) => (Some(recv(partner)), Some(send(partner))),
    };
    // Position among the `pow2` doubling ranks, and back.
    let newrank = if folded { me / 2 } else { me - rem };
    let to_old = move |r: usize| if r < rem { 2 * r + 1 } else { r + rem };
    let doubling = (!sits_out).then(|| {
        (0..rounds(pow2))
            .map(move |k| to_old(newrank ^ (1 << k)))
            .flat_map(move |peer| [send(peer), recv(peer)])
    });
    fold.into_iter().chain(doubling.into_iter().flatten()).chain(unfold)
}

/// Ring allgather: `n − 1` steps, each forwarding one block to the right
/// neighbour and taking one from the left.
pub(crate) fn allgather_ring(me: usize, n: usize, unit: u64) -> impl Iterator<Item = Step> {
    (1..n).flat_map(move |_| {
        [Step::Send { peer: (me + 1) % n, bytes: unit }, Step::Recv { peer: (me + n - 1) % n }]
    })
}

/// Bruck allgather: round `d = 1, 2, 4, … < n` ships `min(d, n − d)` blocks
/// to the rank `d` below and takes as many from the rank `d` above.
pub(crate) fn allgather_bruck(me: usize, n: usize, unit: u64) -> impl Iterator<Item = Step> {
    (0..rounds(n)).map(|k| 1 << k).flat_map(move |d: usize| {
        let bytes = d.min(n - d) as u64 * unit;
        [Step::Send { peer: (me + n - d) % n, bytes }, Step::Recv { peer: (me + d) % n }]
    })
}

/// Pairwise (ring-offset) all-to-all: step `i` sends to the rank `i` above
/// and receives from the rank `i` below.
pub(crate) fn alltoall_pairwise(me: usize, n: usize, unit: u64) -> impl Iterator<Item = Step> {
    (1..n).flat_map(move |i| {
        [Step::Send { peer: (me + i) % n, bytes: unit }, Step::Recv { peer: (me + n - i) % n }]
    })
}
