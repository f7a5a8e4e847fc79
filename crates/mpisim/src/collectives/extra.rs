//! Additional collective algorithms: reduce-scatter, scan, and segmented
//! (pipelined) broadcast.
//!
//! The segmented broadcast matters for the Fig 5 discussion: production
//! MPI libraries never ship an 800 MB buffer as one message — they chunk it
//! so tree levels pipeline, which changes how much a bad rank order hurts.

use super::{bcast_walk, crecv, csend, pattern};
use crate::comm::Comm;
use crate::datatype::Scalar;
use crate::runtime::Rank;

/// Reduce-scatter with equal blocks: every rank contributes `n·block` items
/// and receives the element-wise reduction of block `rank`.  Implemented as
/// recursive halving for power-of-two sizes, with a reduce + scatter
/// fallback otherwise (the classic MPICH structure).
pub fn reduce_scatter_block<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    let n = comm.size();
    assert!(
        data.len().is_multiple_of(n),
        "reduce_scatter buffer not divisible by communicator size"
    );
    let block = data.len() / n;
    let me = comm.rank();
    if n == 1 {
        return data.to_vec();
    }
    if !n.is_power_of_two() {
        // Fallback: binomial reduce to rank 0, then linear scatter.
        let reduced = super::reduce_binomial(rank, comm, 0, data, &op);
        return super::scatter_linear(rank, comm, 0, reduced.as_deref());
    }
    // Recursive halving: at each step exchange the half of the buffer the
    // peer is responsible for, and keep reducing the half we own.
    let tag = rank.next_coll_tag(comm);
    let mut acc = data.to_vec();
    // Owned block range, in blocks.
    let (mut lo, mut hi) = (0usize, n);
    let mut mask = n / 2;
    while mask > 0 {
        let peer = me ^ mask;
        let mid = (lo + hi) / 2;
        let (send_range, keep_range) = if me & mask == 0 {
            // Peer owns the upper half.
            ((mid * block)..(hi * block), (lo * block)..(mid * block))
        } else {
            ((lo * block)..(mid * block), (mid * block)..(hi * block))
        };
        csend(rank, comm, peer, tag, &acc[send_range]);
        T::fold_bytes(&mut acc[keep_range], &crecv(rank, comm, peer, tag), &op);
        if me & mask == 0 {
            hi = mid;
        } else {
            lo = mid;
        }
        mask >>= 1;
    }
    debug_assert_eq!(hi - lo, 1);
    debug_assert_eq!(lo, me);
    acc[lo * block..hi * block].to_vec()
}

/// Inclusive scan (`MPI_Scan`): rank `r` receives
/// `op(data₀, …, data_r)` element-wise.  Linear chain algorithm.
pub fn scan_inclusive<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    data: &[T],
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    let tag = rank.next_coll_tag(comm);
    let n = comm.size();
    let me = comm.rank();
    let mut acc = data.to_vec();
    if me > 0 {
        // acc = op(prefix, mine): fold the predecessor's prefix in front.
        T::fold_bytes(&mut acc, &crecv(rank, comm, me - 1, tag), |mine, pre| op(pre, mine));
    }
    if me + 1 < n {
        csend(rank, comm, me + 1, tag, &acc);
    }
    acc
}

/// Segmented (pipelined) binary-tree broadcast: the buffer is cut into
/// `ceil(len / seg_items)` segments, each forwarded down the same binary
/// tree; interior ranks forward segment `s` while segment `s+1` is still in
/// flight, so the tree pipelines.  Production MPIs use exactly this shape
/// (chain/binary trees) for large-message broadcasts — a binomial tree
/// cannot pipeline, because the root's own send serialization already
/// dominates its makespan.  With `seg_items >= len` this degenerates to the
/// plain binary-tree broadcast.
pub fn bcast_binary_segmented<T: Scalar>(
    rank: &Rank,
    comm: &Comm,
    root: usize,
    data: &mut Vec<T>,
    seg_items: usize,
) -> usize {
    assert!(seg_items > 0, "segment size must be positive");
    let tag = rank.next_coll_tag(comm);
    let (me, n) = (comm.rank(), comm.size());
    if n == 1 {
        return 0;
    }
    // One binary-tree broadcast after another under the one tag: first of
    // the segment count, which only the root knows (a tiny header message
    // per tree edge; elsewhere the initial value is replaced on arrival),
    // then of each segment in turn, which lands on the tail of a non-root's
    // `data` and is forwarded from there.
    let tree = || pattern::bcast_binary(me, n, root, 0);
    let mut hdr = vec![data.len().div_ceil(seg_items).max(1) as u64];
    bcast_walk(rank, comm, tag, tree(), &mut hdr, 0..1);
    let nsegs = hdr[0] as usize;
    if me != root {
        data.clear();
    }
    for s in 0..nsegs {
        let span = if me == root {
            s * seg_items..((s + 1) * seg_items).min(data.len())
        } else {
            data.len()..data.len()
        };
        bcast_walk(rank, comm, tag, tree(), data, span);
    }
    nsegs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_topology::{Machine, Placement};

    use crate::runtime::{Universe, UniverseConfig};

    fn universe(n: usize) -> Universe {
        Universe::new(UniverseConfig::new(Machine::cluster(4, 2, 4), Placement::packed(n)))
    }

    const SIZES: &[usize] = &[1, 2, 3, 4, 6, 8, 12, 16];

    #[test]
    fn reduce_scatter_sums_blocks() {
        for &n in SIZES {
            let u = universe(n);
            u.launch(|rank| {
                let world = rank.comm_world();
                let me = world.rank() as u64;
                // data[j*2..j*2+2] is my contribution to rank j's block.
                let data: Vec<u64> =
                    (0..n).flat_map(|j| [me + j as u64, 2 * me + j as u64]).collect();
                let out = reduce_scatter_block(rank, &world, &data, |a, b| a + b);
                let ranks_sum: u64 = (0..n as u64).sum();
                let j = world.rank() as u64;
                assert_eq!(
                    out,
                    vec![ranks_sum + n as u64 * j, 2 * ranks_sum + n as u64 * j],
                    "n={n}"
                );
            });
        }
    }

    #[test]
    fn scan_computes_prefixes() {
        for &n in SIZES {
            let u = universe(n);
            u.launch(|rank| {
                let world = rank.comm_world();
                let me = world.rank() as i64;
                let out = scan_inclusive(rank, &world, &[me, 1], |a, b| a + b);
                let prefix: i64 = (0..=me).sum();
                assert_eq!(out, vec![prefix, me + 1], "n={n}");
            });
        }
    }

    #[test]
    fn segmented_bcast_delivers_and_segments() {
        for &n in SIZES {
            for seg in [1usize, 3, 7, 100] {
                let u = universe(n);
                u.launch(move |rank| {
                    let world = rank.comm_world();
                    let payload: Vec<i32> = (0..17).collect();
                    let mut data = if world.rank() == 0 { payload.clone() } else { vec![] };
                    let nsegs = bcast_binary_segmented(rank, &world, 0, &mut data, seg);
                    assert_eq!(data, payload, "n={n} seg={seg}");
                    if n > 1 {
                        assert_eq!(nsegs, 17usize.div_ceil(seg), "n={n} seg={seg}");
                    }
                });
            }
        }
    }

    #[test]
    fn segmented_bcast_pipelines_in_virtual_time() {
        // Deep tree path over slow cross-node links: with segments, interior
        // ranks forward chunk s while chunk s+1 is in flight, so the last
        // rank finishes earlier than with one huge message.  (Segmenting
        // only pays when the transfer time dwarfs per-message overheads —
        // exactly the regime of the paper's 800 MB Fig 5 buffers.)
        let n = 16;
        let items = 1 << 20; // 4 MiB of i32
        let time_with_seg = |seg: usize| {
            let machine = Machine::cluster(2, 1, 8);
            let tree = machine.tree.clone();
            let placement = Placement::cyclic_by_level(&tree, n, machine.node_level);
            let u = Universe::new(UniverseConfig::new(machine, placement));
            let times = u.launch(move |rank| {
                let world = rank.comm_world();
                let mut data = if world.rank() == 0 { vec![1i32; items] } else { vec![] };
                bcast_binary_segmented(rank, &world, 0, &mut data, seg);
                rank.now_ns()
            });
            times.into_iter().fold(0.0f64, f64::max)
        };
        let chunked = time_with_seg(items / 8);
        let whole = time_with_seg(items + 1);
        assert!(chunked < whole, "pipelining should help: chunked {chunked} vs whole {whole}");
    }

    #[test]
    fn non_power_of_two_reduce_scatter_falls_back() {
        let u = universe(6);
        u.launch(|rank| {
            let world = rank.comm_world();
            let data = vec![1.0f64; 6];
            let out = reduce_scatter_block(rank, &world, &data, |a, b| a + b);
            assert_eq!(out, vec![6.0]);
        });
    }
}
