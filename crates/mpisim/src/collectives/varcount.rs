//! Variable-count collectives (`MPI_Gatherv` / `MPI_Scatterv` /
//! `MPI_Allgatherv`): ranks contribute or receive blocks of different sizes.
//!
//! Message sizes carry their own length in this runtime, so no explicit
//! count arrays are needed on the receive side — the API stays idiomatic
//! while the wire traffic matches the MPI originals.

use super::{cpost, crecv, csend, pattern};
use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::runtime::Rank;
use crate::schedule::Step;

/// Gather variable-size contributions at `root`, concatenated in rank
/// order; `Some(data, displacements)` at the root (displacements index the
/// start of each rank's block), `None` elsewhere.
pub fn gatherv<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: &[T],
) -> Option<(Vec<T>, Vec<usize>)> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    if me != root {
        csend(rank, comm, root, tag, data);
        return None;
    }
    // Room for `n` blocks like the root's own: exact for `gather_linear`.
    let mut out = Vec::with_capacity(n * data.len());
    let mut displs = Vec::with_capacity(n);
    for r in 0..n {
        displs.push(out.len());
        if r == root {
            out.extend_from_slice(data);
        } else {
            out.extend(T::decode(&crecv(rank, comm, r, tag)));
        }
    }
    Some((out, displs))
}

/// Scatter variable-size chunks from `root`: the root provides one slice
/// per rank, everyone receives theirs.
///
/// # Panics
/// Panics when the root's chunk list does not match the communicator size.
pub fn scatterv<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    chunks: Option<&[&[T]]>,
) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    if me == root {
        let chunks = chunks.expect("scatterv root must provide chunks");
        assert_eq!(chunks.len(), n, "one chunk per rank required");
        for (r, chunk) in chunks.iter().enumerate() {
            if r != root {
                csend(rank, comm, r, tag, chunk);
            }
        }
        chunks[root].to_vec()
    } else {
        T::from_bytes(&crecv(rank, comm, root, tag))
    }
}

/// The one ring walk, for blocks of any size: `n − 1` times, forward the
/// block last received (at first, `data`) to the right neighbour and take
/// the next from the left.  The blocks arrive from ranks `me − 1, me − 2,
/// …` (mod `n`); each is handed to `land` with its rank, then goes on in
/// the bytes it came in — what encoding its decoded copy would give,
/// without the copy.
pub(super) fn ring<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    data: &[T],
    mut land: impl FnMut(usize, &[u8]),
) {
    let tag = rank.next_coll_tag(comm);
    let (me, n) = (comm.rank(), comm.size());
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
                land(src, &got);
                last = Some(got);
            }
        }
    }
}

/// Allgather of variable-size contributions: everyone receives the
/// rank-ordered concatenation and the per-rank displacements.
/// Ring algorithm; the equal-count [`super::allgather_ring`] is the same
/// walk with a size check on every block.  No block's place is known
/// before the last arrives, so the walk stages the bytes in arrival order
/// (one growing buffer) and each block is decoded once, in rank order,
/// straight into the result.
pub fn allgatherv<T: Scalar>(rank: &Rank, comm: &Comm, data: &[T]) -> (Vec<T>, Vec<usize>) {
    let (mut staged, mut spans) = (Vec::new(), vec![0..0; comm.size()]);
    ring(rank, comm, data, |src, got| {
        spans[src] = staged.len()..staged.len() + got.len();
        staged.extend_from_slice(got);
    });
    let mut out = Vec::with_capacity(data.len() + staged.len() / T::SIZE);
    let mut displs = Vec::with_capacity(comm.size());
    for (r, span) in spans.into_iter().enumerate() {
        displs.push(out.len());
        if r == comm.rank() {
            out.extend_from_slice(data);
        } else {
            out.extend(T::decode(&staged[span]));
        }
    }
    (out, displs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_topology::{Machine, Placement};

    use crate::runtime::{Universe, UniverseConfig};

    fn universe(n: usize) -> Universe {
        Universe::new(UniverseConfig::new(Machine::cluster(2, 2, 4), Placement::packed(n)))
    }

    /// Rank r contributes r+1 values of value r.
    fn contribution(r: usize) -> Vec<u32> {
        vec![r as u32; r + 1]
    }

    fn expected_concat(n: usize) -> (Vec<u32>, Vec<usize>) {
        let mut out = Vec::new();
        let mut displs = Vec::new();
        for r in 0..n {
            displs.push(out.len());
            out.extend(contribution(r));
        }
        (out, displs)
    }

    #[test]
    fn gatherv_concatenates_unequal_blocks() {
        for n in [1usize, 2, 5, 8, 11] {
            let root = n / 2;
            let u = universe(n);
            u.launch(move |rank| {
                let world = rank.comm_world();
                let mine = contribution(world.rank());
                let out = gatherv(rank, &world, root, &mine);
                if world.rank() == root {
                    let (data, displs) = out.expect("root receives");
                    let (edata, edispls) = expected_concat(n);
                    assert_eq!(data, edata, "n={n}");
                    assert_eq!(displs, edispls);
                } else {
                    assert!(out.is_none());
                }
            });
        }
    }

    #[test]
    fn scatterv_distributes_unequal_chunks() {
        for n in [1usize, 3, 6, 9] {
            let u = universe(n);
            u.launch(move |rank| {
                let world = rank.comm_world();
                let storage: Vec<Vec<u32>> = (0..n).map(contribution).collect();
                let chunks: Vec<&[u32]> = storage.iter().map(Vec::as_slice).collect();
                let mine =
                    scatterv(rank, &world, 0, (world.rank() == 0).then_some(chunks.as_slice()));
                assert_eq!(mine, contribution(world.rank()), "n={n}");
            });
        }
    }

    #[test]
    fn allgatherv_everyone_gets_everything() {
        for n in [1usize, 2, 4, 7, 10] {
            let u = universe(n);
            u.launch(move |rank| {
                let world = rank.comm_world();
                let mine = contribution(world.rank());
                let (data, displs) = allgatherv(rank, &world, &mine);
                let (edata, edispls) = expected_concat(n);
                assert_eq!(data, edata, "n={n}");
                assert_eq!(displs, edispls);
            });
        }
    }

    #[test]
    fn empty_contributions_are_fine() {
        let u = universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let mine: Vec<u64> = if world.rank() == 2 { vec![7, 8] } else { vec![] };
            let (data, displs) = allgatherv(rank, &world, &mine);
            assert_eq!(data, vec![7, 8]);
            assert_eq!(displs, vec![0, 0, 0, 2]);
        });
    }
}
