//! K-ary tree gather of variable-size contributions along an explicit rank
//! order.
//!
//! The monitoring library's root gather used to be a star: every rank sends
//! its row straight to the root, an O(n) serial hotspot at the root's
//! mailbox.  This collective routes the same data along a k-ary tree laid
//! over a caller-chosen rank order — the monitoring plane passes an order
//! sorted by machine topology, so subtrees aggregate within a node before
//! one member forwards the combined buffer across the network.

use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::envelope::Ctx;
use crate::runtime::Rank;

use super::csend;

/// Position `p`'s parent in the implicit k-ary heap over `order`.
fn parent_pos(p: usize, arity: usize) -> usize {
    (p - 1) / arity
}

/// Gather each rank's `data` (any length, possibly empty) to `root`,
/// routing along the k-ary tree induced by `order`: `order[0]` must be
/// `root`, and the rank at position `p` is the child of the rank at
/// position `(p-1)/arity`.  Every rank frames its contribution as
/// `[comm_rank, len, payload…]`, appends its children's subtree buffers and
/// forwards the lot to its parent; the root returns `Ok(Some(rows))` with
/// `rows[r]` = rank `r`'s contribution, everyone else `Ok(None)`.
///
/// `order` lists every rank of the communicator exactly once: membership
/// is the communicator, so a gather over survivors runs on a shrunk one.
///
/// Every child is received with the failure-aware wait — its buffer or its
/// death notice — so a rank that dies mid-gather is skipped rather than
/// waited on: its subtree's frames evaporate with it, exactly as sends to
/// a dead rank do under the recoverable `launch_faulty`, and every other
/// rank still returns.
///
/// # Errors
/// At the root only: the ranks that contributed no frame, in rank order
/// (the dead rank and whatever part of its subtree it had not forwarded).
///
/// # Panics
/// Panics when `arity < 2`, `order` is not a permutation of the
/// communicator's ranks, the root is not first, or (at the root) a
/// contribution frame is malformed — all programming errors of the caller,
/// which must pass identical `order`/`arity` on every rank.
pub(crate) fn gather_tree_kary(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    arity: usize,
    order: &[usize],
    data: &[u64],
) -> Result<Option<Vec<Vec<u64>>>, Vec<usize>> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    assert!(arity >= 2, "gather tree arity must be at least 2");
    let mut pos_of = vec![usize::MAX; n];
    for (p, &r) in order.iter().enumerate() {
        assert!(r < n && pos_of[r] == usize::MAX, "order must be a permutation of 0..{n}");
        pos_of[r] = p;
    }
    assert_eq!(order.len(), n, "order must be a permutation of 0..{n}");
    assert_eq!(order[0], root, "order[0] must be the gather root");
    let pos = pos_of[me];

    // Own frame first, then each child's subtree buffer in position order —
    // a deterministic concatenation, so the traffic shape is identical on
    // every run.
    let mut buf = Vec::with_capacity(2 + data.len());
    buf.push(me as u64);
    buf.push(data.len() as u64);
    buf.extend_from_slice(data);
    let first_child = pos * arity + 1;
    for &child_rank in order.iter().skip(first_child).take(arity) {
        if let Ok(env) = rank.recv_or_death(comm, child_rank, tag, Ctx::Coll) {
            buf.extend(u64::decode(&env.payload.expect_bytes()));
        }
    }

    if pos != 0 {
        csend(rank, comm, order[parent_pos(pos, arity)], tag, &buf);
        return Ok(None);
    }

    // Root: unpack the concatenated frames into per-rank rows.
    let mut rows: Vec<Option<Vec<u64>>> = vec![None; n];
    let mut at = 0;
    while at < buf.len() {
        assert!(at + 2 <= buf.len(), "truncated gather frame header");
        let src = buf[at] as usize;
        let len = buf[at + 1] as usize;
        at += 2;
        assert!(src < n && rows[src].is_none(), "duplicate or out-of-range gather frame");
        assert!(at + len <= buf.len(), "truncated gather frame payload");
        rows[src] = Some(buf[at..at + len].to_vec());
        at += len;
    }
    let missing: Vec<usize> = (0..n).filter(|&r| rows[r].is_none()).collect();
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(Some(rows.into_iter().map(Option::unwrap_or_default).collect()))
}
