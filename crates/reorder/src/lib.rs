//! `mim-reorder` — dynamic rank reordering driven by introspection
//! monitoring (the paper's Fig. 1 algorithm and Sec. 5).
//!
//! The idea: an iterative application has the same communication pattern at
//! every iteration.  Monitor the first iteration with `mim-core`, gather the
//! byte matrix at rank 0, compute a topology-aware permutation `k` with
//! TreeMatch, broadcast it, and build an *optimized communicator* via
//! `comm_split(color = 0, key = k[my_rank])` in which the process holding
//! old rank `i` holds new rank `k[i]`.  Remaining iterations run on the
//! optimized communicator; optionally, data is redistributed first
//! ("any useful data is sent from rank `k[i]` to rank `i` in the original
//! communicator").
//!
//! Only rank 0 keeps `k`: every other rank reads its own entry as its rank
//! in the optimized communicator, whose one group all members share.
//!
//! Processes never move: only the rank labels rotate, so a rank-based
//! communication pattern lands on topologically closer core pairs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mim_core::{Flags, GatheredData, Monitoring};
use mim_mpisim::{Comm, Rank, SrcSel, TagSel};
use mim_topology::{inverse_permutation, CommMatrix, Machine, Placement};
use mim_treematch::place_constrained;

/// Result of a monitored reordering.
pub struct ReorderOutcome {
    /// The optimized communicator (old rank `i` → new rank `k[i]`).
    pub comm: Comm,
    /// The permutation at rank 0 of the reordered communicator: `k[i]` is
    /// the new rank of the process holding old rank `i`.  Empty on every
    /// other rank, whose own entry is `comm.rank()`.
    pub k: Vec<usize>,
    /// Virtual time spent on the whole reordering step (gather + mapping +
    /// broadcast + split), in nanoseconds — the `t2` of the paper's Fig. 6
    /// gain formula.
    pub reorder_cost_ns: f64,
}

/// Compute the reordering permutation `k` from a gathered byte matrix.
///
/// `group[r]` is the world rank currently holding communicator rank `r`.
/// The available slots are exactly the cores those processes occupy, so the
/// constrained TreeMatch variant is used.  Returns `k` with `k[i]` = new
/// rank for old rank `i`.
pub fn compute_mapping(
    machine: &Machine,
    placement: &Placement,
    group: &[usize],
    sizes: &CommMatrix,
) -> Vec<usize> {
    assert_eq!(group.len(), sizes.order(), "matrix order must match communicator size");
    // Slot r = the core hosting old rank r.
    let slots: Vec<usize> = group.iter().map(|&w| placement.core_of(w)).collect();
    // sigma[role] = slot for pattern role `role`; the rank-based pattern
    // means role r is whatever the process with (new) rank r does.
    let sigma = place_constrained(machine, &slots, sizes);
    // New rank r must be held by the process at slot sigma[r], i.e. by old
    // rank sigma[r]:  k[sigma[r]] = r  ⇔  k = sigma⁻¹.
    inverse_permutation(&sigma)
}

/// What one TreeMatch call costs rank 0 on the virtual clock (part of the
/// `t2` of Fig. 6's gain formula): a function of the matrix the mapper is
/// handed and of nothing the host does, so the same run leaves the same
/// clocks.  A call costs a fixed amount — its scratch vectors, touched
/// cold in the middle of an application — and, at every level of the
/// topology, searches every pair of groups by walking their members'
/// non-zero entries: a number of walks per entry that grows with the order.
/// Calibrated against `place_constrained` on dense matrices from 12 to 4096
/// ranks (EXPERIMENTS.md, Fig 6).
const MAPPING_CALL_NS: f64 = 9_000.0;
const MAPPING_WALK_NS: f64 = 0.5;

fn mapping_charge_ns(sizes: &CommMatrix) -> f64 {
    MAPPING_CALL_NS + MAPPING_WALK_NS * (sizes.order() * sizes.nnz()) as f64
}

/// The tail every reorder loop ends with: rank 0 of `comm` turns `sizes`
/// (the matrix it holds, or why it holds none; not read on the other ranks)
/// into the permutation `k` plus any trailer words (`root_maps`) and is
/// charged the mapping's cost on the virtual clock, one broadcast ships
/// `k ‖ trailer`, and `comm_split` keyed by `k` builds the optimized
/// communicator.  Returns it with `k` (rank 0 only, empty elsewhere: a
/// rank keeps its own key, not the broadcast copy) and the trailer every
/// rank received; the wire shape is whatever the root built, so a loop
/// with more to tell the others appends words instead of adding a path.
fn map_and_split<E>(
    rank: &Rank,
    comm: &Comm,
    sizes: Result<&CommMatrix, E>,
    root_maps: impl FnOnce(Result<&CommMatrix, E>) -> (Vec<usize>, Vec<u64>),
) -> (Comm, Vec<usize>, Vec<u64>) {
    let mut buf: Vec<u64> = Vec::new();
    let mut k = Vec::new();
    if comm.rank() == 0 {
        // The mapping computation takes time on rank 0: charge it so the
        // reordering cost is honest (Fig. 6).
        rank.compute_ns(sizes.as_ref().map_or(0.0, |sizes| mapping_charge_ns(sizes)));
        let (root_k, trailer) = root_maps(sizes);
        buf.extend(root_k.iter().map(|&ki| ki as u64).chain(trailer));
        k = root_k;
    }
    rank.bcast(comm, 0, &mut buf);
    let trailer = buf.split_off(comm.size());
    let key = buf[comm.rank()] as i64;
    drop(buf);
    let opt_comm = rank.comm_split(comm, 0, key);
    (opt_comm, k, trailer)
}

/// [`map_and_split`] under the strict failure policy: TreeMatch on the
/// byte matrix rank 0 holds (`None` elsewhere), no trailer, a mapping
/// failure panics.
fn map_and_split_strict(rank: &Rank, comm: &Comm, sizes: Option<CommMatrix>) -> (Comm, Vec<usize>) {
    let (opt_comm, k, _) = map_and_split(rank, comm, sizes.as_ref().ok_or(()), |sizes| {
        let sizes = sizes.expect("rank 0 holds the monitored matrix");
        (compute_mapping(rank.machine(), rank.placement(), comm.group(), sizes), Vec::new())
    });
    (opt_comm, k)
}

/// The paper's Fig. 1 algorithm: run `monitored` (typically the first
/// iteration) under a fresh session on `comm`, then gather the byte matrix
/// at rank 0, compute `k`, broadcast it, and split.  The returned
/// communicator has the same group with reordered ranks.
///
/// `flags` selects which traffic builds the matrix (the paper's Fig. 1 uses
/// `MPI_M_P2P_ONLY`; collective-optimization experiments monitor
/// `COLL_ONLY`).
///
/// # Panics
/// Panics if any monitoring call fails (programming error in the caller's
/// session discipline).
pub fn monitored_reorder(
    rank: &Rank,
    mon: &Monitoring,
    comm: &Comm,
    flags: Flags,
    monitored: impl FnOnce(&Comm),
) -> ReorderOutcome {
    let id = mon.start(rank, comm).expect("start monitoring session");
    monitored(comm);
    mon.suspend(id).expect("suspend monitoring session");
    let t0 = rank.now_ns();
    let gathered =
        mon.rootgather_data(rank, id, 0, flags).expect("gather monitored matrix at rank 0");
    let (opt_comm, k) = map_and_split_strict(rank, comm, gathered.map(|data| data.sizes));
    let reorder_cost_ns = rank.now_ns() - t0;
    mon.free(id).expect("free monitoring session");
    ReorderOutcome { comm: opt_comm, k, reorder_cost_ns }
}

/// Windowed variant of [`monitored_reorder`]: the session stays **active**
/// for the whole monitored phase — no suspend barrier ever interrupts the
/// application.  After each of `nwindows` monitored iterations the sealed
/// epoch window is gathered at rank 0 along the topology-ordered tree
/// ([`Monitoring::gather_window`]) and accumulated into the byte matrix;
/// the permutation is then computed from the accumulated matrix exactly as
/// in the strict path.  With the same traffic, one window and the strict
/// suspend-then-gather path produce the same matrix, hence the same `k`.
///
/// `monitored_window(comm, w)` runs window `w`'s slice of the application
/// (typically one iteration).
///
/// # Panics
/// Panics if `nwindows == 0` or any monitoring call fails (caller-side
/// session-discipline error).
pub fn monitored_reorder_windowed(
    rank: &Rank,
    mon: &Monitoring,
    comm: &Comm,
    flags: Flags,
    nwindows: usize,
    mut monitored_window: impl FnMut(&Comm, usize),
) -> ReorderOutcome {
    assert!(nwindows > 0, "at least one monitored window is required");
    let id = mon.start(rank, comm).expect("start monitoring session");
    let n = comm.size();
    let mut acc = if comm.rank() == 0 { Some(CommMatrix::zeros(n)) } else { None };
    // The gathers are interleaved with application windows; their cost is
    // part of the reordering overhead (Fig. 6's t2), the windows are not.
    let mut gather_cost_ns = 0.0;
    for w in 0..nwindows {
        monitored_window(comm, w);
        let t = rank.now_ns();
        let gw = mon.gather_window(rank, id, 0, flags).expect("gather window at rank 0");
        gather_cost_ns += rank.now_ns() - t;
        if let (Some(acc), Some(data)) = (acc.as_mut(), gw.data) {
            for i in 0..n {
                for &(j, bytes) in data.sizes.row(i) {
                    acc.add(i, j, bytes);
                }
            }
        }
    }
    let t0 = rank.now_ns();
    let (opt_comm, k) = map_and_split_strict(rank, comm, acc);
    let reorder_cost_ns = rank.now_ns() - t0 + gather_cost_ns;
    mon.suspend(id).expect("suspend monitoring session");
    mon.free(id).expect("free monitoring session");
    ReorderOutcome { comm: opt_comm, k, reorder_cost_ns }
}

/// How a resilient reordering degraded, if it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReorderFallback {
    /// The full reordering went through: every rank alive, mapping computed.
    None,
    /// The gather or the mapping failed — a rank died inside the gather, or
    /// TreeMatch panicked; the loop fell back to the identity permutation
    /// (the optimized communicator equals the working one, shrunk around
    /// every dead rank; see [`ResilientOutcome::alive`]).  Carries the
    /// reason — on non-root ranks a generic marker, since only the root
    /// observes the failure.
    Identity(String),
    /// Ranks crashed: reordering proceeded ULFM-style on the shrunk
    /// communicator.  `crashed` holds their *original* communicator ranks.
    Shrunk { crashed: Vec<usize> },
}

/// Result of a fault-tolerant reordering
/// ([`monitored_reorder_resilient`]).
pub struct ResilientOutcome {
    /// The optimized communicator over the surviving ranks.
    pub comm: Comm,
    /// The permutation over the *working* (possibly shrunk) communicator,
    /// at its rank 0: `k[i]` is the new rank of the process holding working
    /// rank `i`.  Empty on every other rank, whose own entry is
    /// `comm.rank()`.
    pub k: Vec<usize>,
    /// Liveness by original communicator rank, as agreed by the survivors.
    pub alive: Vec<bool>,
    /// Virtual time spent on the recovery + reordering step, in ns.
    pub reorder_cost_ns: f64,
    /// Whether and how the loop degraded.
    pub fallback: ReorderFallback,
    /// The survivors' matrices, one row and column per rank of the working
    /// communicator — root only, and only when the gather succeeded.
    pub gathered: Option<GatheredData>,
}

/// [`compute_mapping`], demoted to the identity permutation when it panics
/// (degenerate matrix, TreeMatch invariant failure): the reorder loop must
/// never die for want of an optimization.
fn mapping_or_identity(
    machine: &Machine,
    placement: &Placement,
    group: &[usize],
    sizes: &CommMatrix,
) -> (Vec<usize>, Option<String>) {
    let n = sizes.order();
    match catch_unwind(AssertUnwindSafe(|| compute_mapping(machine, placement, group, sizes))) {
        Ok(k) => (k, None),
        Err(p) => {
            let why = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&'static str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "opaque mapping panic".into());
            ((0..n).collect(), Some(why))
        }
    }
}

/// Self-healing variant of [`monitored_reorder`]: the paper's Fig. 1 loop,
/// hardened so that neither a crashed rank nor a failed gather/mapping can
/// take the application down with it.
///
/// After the monitored section the survivors agree on who is alive
/// (`Rank::liveness_exchange`); when anyone died they shrink the
/// communicator ULFM-style (`Rank::comm_shrink`) and rebind the session
/// onto it (`Monitoring::rebind_session`, which drops the dead ranks'
/// columns), so the gather runs over the survivors alone and hands the root
/// their matrix.  They then agree once more: a rank that died inside the
/// gather fails it, and the tail must not run over a dead member.  A gather
/// or TreeMatch failure demotes the permutation to identity instead of
/// panicking.  The returned communicator is always usable.
///
/// The `monitored` closure must itself be fault-aware when running under
/// fault injection (use `Rank::recv_or_failure` rather than plain `recv`),
/// or a survivor can block on a message its dead peer never sent.
///
/// # Panics
/// Panics only on caller-side session-discipline errors (as
/// [`monitored_reorder`]) — never on peer failure.
pub fn monitored_reorder_resilient(
    rank: &Rank,
    mon: &Monitoring,
    comm: &Comm,
    flags: Flags,
    monitored: impl FnOnce(&Comm),
) -> ResilientOutcome {
    let id = mon.start(rank, comm).expect("start monitoring session");
    monitored(comm);
    mon.suspend(id).expect("suspend monitoring session");
    let t0 = rank.now_ns();

    // Membership is the communicator: shrink around the dead and rebind
    // the session before gathering.
    let listed = rank.liveness_exchange(comm);
    let gather_comm = if listed.iter().all(|&a| a) {
        comm.clone()
    } else {
        let shrunk = rank.comm_shrink(comm, &listed);
        mon.rebind_session(id, &shrunk).expect("rebind the session to the survivors");
        shrunk
    };
    let gathered = mon.rootgather_data(rank, id, 0, flags);
    // A rank can still die inside the gather — the root then holds the
    // error, everyone else nothing — so the survivors agree once more.
    let alive = rank.liveness_exchange(comm);
    let crashed: Vec<usize> = (0..comm.size()).filter(|&r| !alive[r]).collect();
    let died_in_gather = alive != listed;
    let work = if died_in_gather { rank.comm_shrink(comm, &alive) } else { gather_comm };
    let m = work.size();

    // What the root maps: the survivors' matrix, or why it has none.
    let gathered = match gathered {
        Ok(Some(_)) if died_in_gather => Err("a rank died inside the gather".to_string()),
        Ok(Some(data)) => Ok(data),
        Ok(None) => Err("no matrix at root".to_string()),
        Err(e) => Err(format!("gather failed: {e}")),
    };
    // Resilient failure policy: identity instead of a panic, and a one-word
    // identity-fallback flag trailing `k` so every survivor learns how the
    // loop degraded.
    let mut why = None;
    let sizes = gathered.as_ref().map(|data| &data.sizes);
    let (opt_comm, k, flag) = map_and_split(rank, &work, sizes, |sizes| {
        let (k, fail) = match sizes {
            Ok(sizes) => mapping_or_identity(rank.machine(), rank.placement(), work.group(), sizes),
            Err(why) => ((0..m).collect(), Some(why.clone())),
        };
        let flag = vec![u64::from(fail.is_some())];
        why = fail;
        (k, flag)
    });
    let reorder_cost_ns = rank.now_ns() - t0;
    mon.free(id).expect("free monitoring session");

    let fallback = if flag[0] == 1 {
        ReorderFallback::Identity(why.unwrap_or_else(|| "mapping failed on root".into()))
    } else if !crashed.is_empty() {
        ReorderFallback::Shrunk { crashed }
    } else {
        ReorderFallback::None
    };
    let gathered = gathered.ok();
    ResilientOutcome { comm: opt_comm, k, alive, reorder_cost_ns, fallback, gathered }
}

/// Redistribute per-role data after a reordering: old rank `i` receives the
/// data of its new role `k[i]` from old rank `k[i]`, and ships its own to
/// old rank `k⁻¹[i]` (paper: "data is sent from rank `k[i]` to rank `i` in
/// the original communicator").  `reordered` is the communicator the
/// reordering split from `original_comm` ([`ReorderOutcome::comm`]), so no
/// rank needs `k` itself.
///
/// # Panics
/// Panics when `reordered` does not hold `original_comm`'s members.
pub fn redistribute<T: mim_mpisim::Scalar>(
    rank: &Rank,
    original_comm: &Comm,
    reordered: &Comm,
    data: Vec<T>,
) -> Vec<T> {
    let me = original_comm.rank();
    let (from, to) = redistribute_partners(original_comm, reordered);
    if (from, to) == (me, me) {
        return data;
    }
    const REDIST_TAG: u32 = 0x00F1_0000;
    rank.send(original_comm, to, REDIST_TAG, &data);
    let (new_data, _) = rank.recv::<T>(original_comm, SrcSel::Rank(from), TagSel::Is(REDIST_TAG));
    new_data
}

/// `(k[i], k⁻¹[i])` for this process's old rank `i`: `k[i]` is its rank in
/// `reordered`, and `k⁻¹[i]` the old rank of whoever holds new rank `i` —
/// one O(log n) member lookup.
fn redistribute_partners(original: &Comm, reordered: &Comm) -> (usize, usize) {
    assert_eq!(original.size(), reordered.size(), "redistribute: not a reordering");
    let holder = reordered.world_rank_of(original.rank());
    let to = original.rank_of_world(holder).expect("redistribute: not a reordering");
    (reordered.rank(), to)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use mim_mpisim::{Universe, UniverseConfig};
    use mim_topology::TopologyTree;

    /// 8 ranks spread cyclically over 2 nodes, so consecutive ranks live on
    /// different nodes — the worst case for a pattern of (2i, 2i+1) pairs.
    fn cyclic_universe() -> Universe {
        let machine = Machine::cluster(2, 1, 8);
        let tree = TopologyTree::new(vec![2, 1, 8]);
        let placement = Placement::cyclic_by_level(&tree, 8, 1);
        Universe::new(UniverseConfig::new(machine, placement))
    }

    /// One "iteration": each even rank exchanges a large buffer with its
    /// odd neighbour (rank-based pattern).
    fn pair_exchange(rank: &Rank, comm: &Comm, bytes: u64) {
        let me = comm.rank();
        let peer = if me.is_multiple_of(2) { me + 1 } else { me - 1 };
        rank.send_synthetic(comm, peer, 9, bytes);
        rank.recv_synthetic(comm, SrcSel::Rank(peer), TagSel::Is(9));
    }

    #[test]
    fn compute_mapping_pairs_heavy_partners() {
        let machine = Machine::cluster(2, 1, 8);
        let tree = TopologyTree::new(vec![2, 1, 8]);
        let placement = Placement::cyclic_by_level(&tree, 8, 1);
        let group: Vec<usize> = (0..8).collect();
        let mut sizes = CommMatrix::zeros(8);
        for i in (0..8).step_by(2) {
            sizes.set(i, i + 1, 1 << 20);
            sizes.set(i + 1, i, 1 << 20);
        }
        let k = compute_mapping(&machine, &placement, &group, &sizes);
        // k is a permutation.
        let _ = inverse_permutation(&k);
        // After reordering, the processes holding new ranks 2i and 2i+1 must
        // share a node: new rank r is held by old rank inv_k[r], whose core
        // is placement.core_of(inv_k[r]).
        let inv = inverse_permutation(&k);
        for i in (0..8).step_by(2) {
            let core_a = placement.core_of(inv[i]);
            let core_b = placement.core_of(inv[i + 1]);
            assert_eq!(
                machine.node_of_core(core_a),
                machine.node_of_core(core_b),
                "pattern pair ({i}, {}) split across nodes; k = {k:?}",
                i + 1
            );
        }
    }

    /// A matrix of the given order whose first `nnz` cells are non-zero.
    fn with_nonzeros(order: usize, nnz: usize) -> CommMatrix {
        let mut m = CommMatrix::zeros(order);
        (0..nnz).for_each(|cell| m.set(cell / order, cell % order, 64));
        m
    }

    #[test]
    fn mapping_charge_is_pinned_at_the_calibration_sizes() {
        // (order, non-zeros, charge in ns) of EXPERIMENTS.md's calibration
        // table: Fig 6's 12-rank ring, the 8-cliques on PlaFRIM nodes,
        // Fig 7's CG at NP = 256 and the 1024- and 4096-rank halo exchanges.
        for (order, nnz, charge_ns) in [
            (12, 12, 9_072.0),
            (48, 336, 17_064.0),
            (96, 672, 41_256.0),
            (192, 1344, 138_024.0),
            (256, 2176, 287_528.0),
            (1024, 3968, 2_040_616.0),
            (4096, 16128, 33_039_144.0),
        ] {
            assert_eq!(mapping_charge_ns(&with_nonzeros(order, nnz)), charge_ns, "order {order}");
        }
    }

    #[test]
    fn mapping_charge_grows_with_order_and_with_nonzeros() {
        for order in [2usize, 12, 64, 256] {
            // With nothing to walk, a call costs what a call costs.
            assert_eq!(mapping_charge_ns(&CommMatrix::zeros(order)), MAPPING_CALL_NS);
            for nnz in [1, order, order * order - 1] {
                let here = mapping_charge_ns(&with_nonzeros(order, nnz));
                assert!(mapping_charge_ns(&with_nonzeros(order, nnz - 1)) < here, "{order} {nnz}");
                assert!(mapping_charge_ns(&with_nonzeros(order + 1, nnz)) > here, "{order} {nnz}");
            }
        }
    }

    #[test]
    fn monitored_reorder_improves_iteration_time() {
        let u = cyclic_universe();
        let (before, after): (Vec<f64>, Vec<f64>) = {
            let results = u.launch(|rank| {
                let world = rank.comm_world();
                let mon = Monitoring::init(rank).unwrap();
                let bytes = 4 << 20;
                // Monitor one iteration and reorder.
                let outcome = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
                    pair_exchange(rank, comm, bytes)
                });
                // Time one iteration on the original communicator...
                rank.barrier(&world);
                let t0 = rank.now_ns();
                pair_exchange(rank, &world, bytes);
                rank.barrier(&world);
                let t_before = rank.now_ns() - t0;
                // ...and one on the optimized communicator.
                let t1 = rank.now_ns();
                pair_exchange(rank, &outcome.comm, bytes);
                rank.barrier(&world);
                let t_after = rank.now_ns() - t1;
                mon.finalize(rank).unwrap();
                (t_before, t_after)
            });
            results.into_iter().unzip()
        };
        let worst_before = before.iter().cloned().fold(0.0, f64::max);
        let worst_after = after.iter().cloned().fold(0.0, f64::max);
        assert!(
            worst_after < worst_before,
            "reordering should shrink the exchange: {worst_before} -> {worst_after}"
        );
    }

    /// Every loop: `k` is a full permutation at rank 0, empty on every
    /// other rank, and each rank's new rank is its entry of the root's `k`.
    #[test]
    fn opt_comm_assigns_rank_k() {
        for which in 0..3 {
            let u = cyclic_universe();
            let results = u.launch(|rank| {
                let world = rank.comm_world();
                let mon = Monitoring::init(rank).unwrap();
                let iteration = |comm: &Comm| pair_exchange(rank, comm, 1 << 20);
                let flags = Flags::P2P_ONLY;
                let (comm, k, cost_ns) = match which {
                    0 => {
                        let out = monitored_reorder(rank, &mon, &world, flags, iteration);
                        (out.comm, out.k, out.reorder_cost_ns)
                    }
                    1 => {
                        let out =
                            monitored_reorder_windowed(rank, &mon, &world, flags, 2, |c, _| {
                                iteration(c)
                            });
                        (out.comm, out.k, out.reorder_cost_ns)
                    }
                    _ => {
                        let out = monitored_reorder_resilient(rank, &mon, &world, flags, iteration);
                        (out.comm, out.k, out.reorder_cost_ns)
                    }
                };
                assert_eq!(comm.size(), world.size());
                assert!(cost_ns > 0.0);
                mon.finalize(rank).unwrap();
                (comm.rank(), k)
            });
            let root_k = &results[0].1;
            let _ = inverse_permutation(root_k);
            assert_eq!(root_k.len(), 8, "loop {which}");
            for (i, (new_rank, k)) in results.iter().enumerate() {
                assert_eq!(*new_rank, root_k[i], "loop {which}, old rank {i}");
                assert!(i == 0 || k.is_empty(), "loop {which}: rank {i} holds k = {k:?}");
            }
        }
    }

    #[test]
    fn windowed_reorder_matches_strict_on_same_traffic() {
        let u = cyclic_universe();
        u.launch(|rank| {
            let world = rank.comm_world();
            let mon = Monitoring::init(rank).unwrap();
            let bytes = 4 << 20;
            // Strict path: suspend barrier, dense star-era gather semantics.
            let strict = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
                pair_exchange(rank, comm, bytes)
            });
            // Windowed path, one window of identical traffic: the session
            // stays active through the gather, yet the accumulated matrix —
            // and hence the permutation — must come out the same.
            let windowed =
                monitored_reorder_windowed(rank, &mon, &world, Flags::P2P_ONLY, 1, |comm, _w| {
                    pair_exchange(rank, comm, bytes)
                });
            assert_eq!(windowed.k, strict.k, "one window of the same traffic must map alike");
            assert_eq!(windowed.comm.rank(), strict.comm.rank());
            assert!(windowed.reorder_cost_ns > 0.0);
            mon.finalize(rank).unwrap();
        });
    }

    #[test]
    fn windowed_reorder_accumulates_across_windows() {
        let u = cyclic_universe();
        u.launch(|rank| {
            let world = rank.comm_world();
            let mon = Monitoring::init(rank).unwrap();
            // Each window exchanges with the pair partner; three windows
            // accumulate into the same shape as one bigger exchange.
            let outcome =
                monitored_reorder_windowed(rank, &mon, &world, Flags::P2P_ONLY, 3, |comm, _w| {
                    pair_exchange(rank, comm, 1 << 20)
                });
            assert_eq!(outcome.comm.size(), world.size());
            // The pattern pairs must land on shared nodes, as in the strict
            // path's mapping test.
            if world.rank() == 0 {
                let inv = inverse_permutation(&outcome.k);
                let machine = rank.machine();
                let placement = rank.placement();
                for i in (0..8).step_by(2) {
                    assert_eq!(
                        machine.node_of_core(placement.core_of(inv[i])),
                        machine.node_of_core(placement.core_of(inv[i + 1])),
                        "pattern pair ({i}, {}) split across nodes; k = {:?}",
                        i + 1,
                        outcome.k
                    );
                }
            }
            mon.finalize(rank).unwrap();
        });
    }

    #[test]
    fn resilient_without_faults_matches_strict_shape() {
        let u = cyclic_universe();
        u.launch(|rank| {
            let world = rank.comm_world();
            let mon = Monitoring::init(rank).unwrap();
            let outcome =
                monitored_reorder_resilient(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
                    pair_exchange(rank, comm, 4 << 20)
                });
            assert_eq!(outcome.fallback, ReorderFallback::None);
            assert_eq!(outcome.alive, vec![true; 8]);
            assert_eq!(outcome.comm.size(), world.size());
            assert!(outcome.reorder_cost_ns > 0.0);
            if world.rank() == 0 {
                let g = outcome.gathered.as_ref().expect("root holds the matrices");
                assert!((0..8).any(|i| (0..8).any(|j| g.sizes.get(i, j) > 0)));
            } else {
                assert!(outcome.gathered.is_none());
            }
            // Fault-free, the resilient loop maps exactly like the strict
            // one on the same traffic.
            let strict = monitored_reorder(rank, &mon, &world, Flags::P2P_ONLY, |comm| {
                pair_exchange(rank, comm, 4 << 20)
            });
            assert_eq!(outcome.k, strict.k, "fault-free resilient k must equal the strict k");
            assert_eq!(outcome.comm.rank(), strict.comm.rank());
            mon.finalize(rank).unwrap();
        });
    }

    #[test]
    fn rank_dying_inside_the_gather_demotes_to_identity() {
        use mim_mpisim::{ExecutorKind, FaultPlan};
        use std::time::Instant;

        for kind in [ExecutorKind::Threads, ExecutorKind::Tasks] {
            let machine = Machine::cluster(2, 1, 8);
            // Rank 5 answers the liveness pings, then dies at its first wire
            // operation of the gather: `start`'s barrier (a send and a
            // receive per dissemination round) and the exchange's one op
            // come first.
            let cfg = UniverseConfig::new(machine, Placement::packed(8))
                .with_executor(kind)
                .with_injector(FaultPlan::new(0).crash_at_ops(5, 2 * 3 + 1));
            let deadline = cfg.deadline;
            let wall = Instant::now();
            let results = Universe::new(cfg).launch_faulty(|rank| {
                let world = rank.comm_world();
                let mon = Monitoring::init(rank).unwrap();
                let out = monitored_reorder_resilient(rank, &mon, &world, Flags::P2P_ONLY, |_| {});
                // The communicator is usable: the seven survivors reduce on it.
                let sum = rank.allreduce(&out.comm, &[rank.world_rank() as u64], |a, b| a + b)[0];
                mon.finalize(rank).unwrap();
                (out.fallback, out.alive, out.k, out.comm.size(), sum)
            });
            assert!(wall.elapsed() < deadline, "{kind:?}: a wait slept out the deadline");
            for (w, r) in results.iter().enumerate() {
                if w == 5 {
                    assert!(matches!(r, Err(mim_mpisim::RankFailure::Crashed { ops: 7, .. })));
                    continue;
                }
                let (fallback, alive, k, size, sum) = r.as_ref().expect("survivor");
                let ReorderFallback::Identity(why) = fallback else {
                    panic!("{kind:?} rank {w}: expected the identity fallback, got {fallback:?}");
                };
                if w == 0 {
                    assert!(why.contains("incomplete gather"), "unexpected reason: {why}");
                }
                assert_eq!(alive, &(0..8).map(|r| r != 5).collect::<Vec<_>>());
                let root_k: Vec<usize> = if w == 0 { (0..7).collect() } else { Vec::new() };
                assert_eq!((k, *size, *sum), (&root_k, 7, 28 - 5));
            }
        }
    }

    #[test]
    fn mapping_failure_demotes_to_identity() {
        let machine = Machine::cluster(2, 1, 8);
        let placement = Placement::packed(8);
        // Group larger than the matrix: compute_mapping's own assertion
        // fires, and the wrapper must catch it.
        let group: Vec<usize> = (0..8).collect();
        let sizes = CommMatrix::zeros(4);
        let (k, why) = mapping_or_identity(&machine, &placement, &group, &sizes);
        assert_eq!(k, vec![0, 1, 2, 3]);
        let why = why.expect("mapping must report its failure");
        assert!(why.contains("matrix order"), "unexpected reason: {why}");
    }

    #[test]
    fn redistribute_moves_roles() {
        let u = cyclic_universe();
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank();
            // A fixed non-trivial permutation.
            let k: Vec<usize> = vec![3, 0, 1, 2, 5, 4, 7, 6];
            let reordered = rank.comm_split(&world, 0, k[me] as i64);
            let data = vec![me as u64; 4];
            let new_data = redistribute(rank, &world, &reordered, data);
            // I now perform role k[me], whose data lived at old rank k[me].
            assert_eq!(new_data, vec![k[me] as u64; 4]);
        });
    }

    #[test]
    fn redistribute_identity_is_noop() {
        let u = cyclic_universe();
        u.launch(|rank| {
            let world = rank.comm_world();
            let same = rank.comm_split(&world, 0, world.rank() as i64);
            let data = vec![world.rank() as u32];
            assert_eq!(redistribute(rank, &world, &same, data.clone()), data);
        });
    }

    mim_util::props! {
        /// The partners `redistribute` finds from the two communicators
        /// are the ones the permutation names: `k[i]` and `k⁻¹[i]`, for
        /// every old rank of a random group under a random permutation and
        /// under the identity.
        fn redistribute_partners_follow_k(g) {
            let n = g.gen_range(1usize..40);
            let universe = n + g.gen_range(0usize..20);
            let mut group = g.permutation(universe);
            group.truncate(n);
            for k in [g.permutation(n), (0..n).collect()] {
                let inv = inverse_permutation(&k);
                let mut reordered_group = vec![0; n];
                for (i, &ki) in k.iter().enumerate() {
                    reordered_group[ki] = group[i];
                }
                let (group, reordered_group) = (Arc::new(group.clone()), Arc::new(reordered_group));
                for i in 0..n {
                    let original = Comm::from_raw(1, Arc::clone(&group), i);
                    let reordered = Comm::from_raw(2, Arc::clone(&reordered_group), k[i]);
                    assert_eq!(redistribute_partners(&original, &reordered), (k[i], inv[i]), "k = {k:?}");
                }
            }
        }
    }
}
