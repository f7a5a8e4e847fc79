//! Constrained placement: processes may only occupy a given slot set.
//!
//! Dynamic rank reordering cannot move processes to idle cores — the only
//! freedom is to permute the ranks over the cores the job already occupies,
//! which in general do not form a balanced subtree (think a random initial
//! mapping).  This module solves that constrained problem with top-down
//! recursive partitioning, the dual of bottom-up TreeMatch (and the approach
//! of TreeMatchConstraints): split the processes across the most expensive
//! topology level first, honouring the exact per-subtree slot occupancies,
//! then recurse inside each subtree.
//!
//! Every step reads the affinity through a per-process neighbour list built
//! once per call, never through `weight(p, q)` over all members of a group:
//! the matrices HPC codes produce are nearest-neighbour, a few entries per
//! row.  Per level, with `g` groups of `s` processes of degree `deg`, growth
//! costs `O(g · (edges + s · pool))`; refinement searches every pair of
//! groups for its best swap, once per pass and once more per swap found, at
//! `O(s · deg + s²)` a search — `O(g² · (s · deg + s²))` per pass at worst.
//! The `s²` term is the candidate scan, and a bound on each row's best gain
//! skips the rows that cannot hold the answer: on sparse inputs nearly all.
//! Two one-process groups are never searched, which is the whole core level.

use std::cmp::Reverse;

use mim_topology::{CommMatrix, Machine, TopologyTree};

/// Assign each process to one of `slots` (core ids, all distinct):
/// returns `sigma` with `sigma[p]` = index into `slots`.
///
/// Keeps heavily-communicating processes under cheap common ancestors.
/// Requires `affinity.order() <= slots.len()`; spare slots stay empty.
///
/// # Panics
/// Panics when there are more processes than slots.
pub fn place_constrained(machine: &Machine, slots: &[usize], affinity: &CommMatrix) -> Vec<usize> {
    let n = affinity.order();
    assert!(n <= slots.len(), "{n} processes cannot fit in {} slots", slots.len());
    let mut partitioner = Partitioner::new(&machine.tree, slots, n, &affinity.pairs());
    let mut slot_idx: Vec<(usize, usize)> = (0..slots.len()).map(|s| (0, s)).collect();
    partitioner.recurse(0, (0..n).collect(), &mut slot_idx);
    debug_assert!(partitioner.sigma.iter().all(|&s| s != NONE));
    partitioner.sigma
}

/// Tag of a process the running step does not own; also an unassigned slot.
const NONE: usize = usize::MAX;

/// Kernighan–Lin passes over all group pairs before giving up on a fixpoint.
const MAX_PASSES: usize = 4;

struct Partitioner<'a> {
    tree: &'a TopologyTree,
    slots: &'a [usize],
    /// The neighbours of `p` with their weights: `edges[start[p]..start[p + 1]]`.
    start: Vec<usize>,
    edges: Vec<(usize, u64)>,
    /// Per process: its position in the pool while groups are extracted, its
    /// group's index while they are refined, `NONE` otherwise — so a walk
    /// over a neighbour list sees which neighbours take part in the step.
    tag: Vec<usize>,
    /// Weight between a pool process and the group being grown.
    conn: Vec<u64>,
    /// Cut weight a refined process would remove by changing sides.
    d: Vec<i64>,
    sigma: Vec<usize>,
}

impl<'a> Partitioner<'a> {
    fn new(
        tree: &'a TopologyTree,
        slots: &'a [usize],
        n: usize,
        pairs: &[(usize, usize, u64)],
    ) -> Self {
        // Count, turn the counts into each row's end, then fill every row
        // from its end down: `start[p]` finishes on the row's first edge.
        let mut start = vec![0; n + 1];
        for &(i, j, _) in pairs {
            start[i] += 1;
            start[j] += 1;
        }
        for p in 1..=n {
            start[p] += start[p - 1];
        }
        let mut edges = vec![(0, 0); 2 * pairs.len()];
        for &(i, j, w) in pairs {
            start[i] -= 1;
            edges[start[i]] = (j, w);
            start[j] -= 1;
            edges[start[j]] = (i, w);
        }
        Self {
            tree,
            slots,
            start,
            edges,
            tag: vec![NONE; n],
            conn: vec![0; n],
            d: vec![0; n],
            sigma: vec![NONE; n],
        }
    }

    /// Place `procs` on slots that share a subtree rooted at `level`.
    /// `slot_idx` lists them as `(key, index into slots)`; the key is
    /// scratch, rewritten at each level to the subtree being split on.
    fn recurse(&mut self, level: usize, procs: Vec<usize>, slot_idx: &mut [(usize, usize)]) {
        if procs.is_empty() {
            return;
        }
        if level == self.tree.depth() || slot_idx.len() == 1 {
            // Leaves (or a single slot): assign in order.
            for (p, &(_, s)) in procs.into_iter().zip(slot_idx.iter()) {
                self.sigma[p] = s;
            }
            return;
        }
        // Bucket the slots by their subtree at `level + 1`: key each by it,
        // sort, cut where the key changes.  Slot indices stay ascending
        // inside a bucket.
        for (subtree, s) in slot_idx.iter_mut() {
            *subtree = self.tree.ancestor(self.slots[*s], level + 1);
        }
        slot_idx.sort_unstable();
        let mut buckets: Vec<&mut [(usize, usize)]> =
            slot_idx.chunk_by_mut(|a, b| a.0 == b.0).collect();
        if buckets.len() == 1 {
            self.recurse(level + 1, procs, slot_idx);
            return;
        }
        // Fill buckets to capacity, largest first (then in subtree order),
        // so processes pack into as few subtrees as possible.
        buckets.sort_unstable_by_key(|b| (Reverse(b.len()), b[0].0));
        for (pos, &p) in procs.iter().enumerate() {
            self.tag[p] = pos;
        }
        let mut pool = procs;
        let mut groups = Vec::with_capacity(buckets.len());
        for bucket in &buckets {
            if pool.is_empty() {
                break;
            }
            let take = bucket.len().min(pool.len());
            groups.push(self.extract_cohesive_group(&mut pool, take));
        }
        debug_assert!(pool.is_empty());
        // Greedy growth is weak on uniform-weight patterns (it grows in index
        // order): refine the partition with Kernighan–Lin swaps before
        // committing to subtrees.
        self.refine_partition(&mut groups);
        for (group, bucket) in groups.into_iter().zip(buckets) {
            self.recurse(level + 1, group, bucket);
        }
    }

    /// Remove and return a group of `size` processes from `pool`, grown
    /// greedily around the heaviest internal edge to maximize intra-group
    /// affinity.  Clears the tag of every process it takes.
    fn extract_cohesive_group(&mut self, pool: &mut Vec<usize>, size: usize) -> Vec<usize> {
        debug_assert!(size <= pool.len());
        if size == pool.len() {
            for &p in pool.iter() {
                self.tag[p] = NONE;
            }
            return std::mem::take(pool);
        }
        // Seed with the heaviest pair inside the pool, the first such pair in
        // pool order (fall back to the first process when there is no
        // traffic at all).
        let mut seed: Option<(usize, usize, u64)> = None;
        for &i in pool.iter() {
            for &(j, w) in &self.edges[self.start[i]..self.start[i + 1]] {
                let (x, y) = (self.tag[i], self.tag[j]);
                // Each pool edge once, from its earlier end.
                if y == NONE || y < x {
                    continue;
                }
                let earlier = |(si, sj, _)| (x, y) < (self.tag[si], self.tag[sj]);
                if seed.is_none_or(|s| w > s.2 || (w == s.2 && earlier(s))) {
                    seed = Some((i, j, w));
                }
            }
        }
        let mut group = Vec::with_capacity(size);
        self.join(&mut group, pool, seed.map_or(pool[0], |s| s.0));
        if size > 1 {
            if let Some((_, j, _)) = seed {
                self.join(&mut group, pool, j);
            }
        }
        // Grow: repeatedly pull the pool process with max affinity to the
        // group, the first in pool order among equals.
        while group.len() < size {
            let mut best = pool[0];
            for &p in pool.iter() {
                if self.conn[p] > self.conn[best] {
                    best = p;
                }
            }
            self.join(&mut group, pool, best);
        }
        for &g in &group {
            for &(q, _) in &self.edges[self.start[g]..self.start[g + 1]] {
                self.conn[q] = 0;
            }
        }
        group
    }

    /// Move `p` from `pool` to `group` and credit its pool neighbours.
    fn join(&mut self, group: &mut Vec<usize>, pool: &mut Vec<usize>, p: usize) {
        // The pool keeps its original order, which the tags number.
        let pos = pool.binary_search_by_key(&self.tag[p], |&q| self.tag[q]);
        pool.remove(pos.expect("a joining process is in the pool"));
        self.tag[p] = NONE;
        group.push(p);
        for &(q, w) in &self.edges[self.start[p]..self.start[p + 1]] {
            if self.tag[q] != NONE {
                self.conn[q] += w;
            }
        }
    }

    /// Kernighan–Lin-style pairwise refinement: swap processes across groups
    /// while any swap reduces the weight cut by the partition.
    fn refine_partition(&mut self, groups: &mut [Vec<usize>]) {
        if groups.len() < 2 {
            return;
        }
        for (g, members) in groups.iter().enumerate() {
            for &p in members {
                self.tag[p] = g;
            }
        }
        for _ in 0..MAX_PASSES {
            let mut improved = false;
            for ga in 0..groups.len() {
                for gb in ga + 1..groups.len() {
                    // Swapping two whole groups only renames them.
                    if groups[ga].len() == 1 && groups[gb].len() == 1 {
                        continue;
                    }
                    while let Some((ia, ib)) = self.best_swap(&groups[ga], &groups[gb]) {
                        let (a, b) = (groups[ga][ia], groups[gb][ib]);
                        groups[ga][ia] = b;
                        groups[gb][ib] = a;
                        self.tag.swap(a, b);
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        for &p in groups.iter().flatten() {
            self.tag[p] = NONE;
        }
    }

    /// Positions `(ia, ib)` of the single swap between two tagged groups
    /// that removes the most cut weight, the first such in `(ia, ib)` order;
    /// `None` when no swap removes any.
    fn best_swap(&mut self, group_a: &[usize], group_b: &[usize]) -> Option<(usize, usize)> {
        let (ga, gb) = (self.tag[group_a[0]], self.tag[group_b[0]]);
        for &p in group_a.iter().chain(group_b) {
            let mut d = 0;
            for &(q, w) in &self.edges[self.start[p]..self.start[p + 1]] {
                if self.tag[q] == self.tag[p] {
                    d -= w as i64;
                } else if self.tag[q] == ga || self.tag[q] == gb {
                    d += w as i64;
                }
            }
            self.d[p] = d;
        }
        let max_d_b = group_b.iter().map(|&b| self.d[b]).max().expect("groups are non-empty");
        let mut best: Option<(i64, usize, usize)> = None;
        for (ia, &a) in group_a.iter().enumerate() {
            // gain(a, b) = d[a] + d[b] − 2·w(a, b) with w ≥ 0, and only a
            // strictly greater gain replaces the best: a row whose bound
            // cannot do that holds nothing the full scan would have picked.
            if self.d[a] + max_d_b <= best.map_or(0, |b| b.0) {
                continue;
            }
            // Scan the row with the −2·w(a, b) term folded into d[b] for the
            // few b that are neighbours of a.
            let row = self.start[a]..self.start[a + 1];
            for &(q, w) in &self.edges[row.clone()] {
                if self.tag[q] == gb {
                    self.d[q] -= 2 * w as i64;
                }
            }
            for (ib, &b) in group_b.iter().enumerate() {
                let gain = self.d[a] + self.d[b];
                if gain > best.map_or(0, |b| b.0) {
                    best = Some((gain, ia, ib));
                }
            }
            for &(q, w) in &self.edges[row] {
                if self.tag[q] == gb {
                    self.d[q] += 2 * w as i64;
                }
            }
        }
        best.map(|(_, ia, ib)| (ia, ib))
    }
}

/// The body this file had before it walked neighbour lists: every step
/// asks `weight(p, q)` of every member of a group.  Kept as the reference
/// [`place_constrained`] must equal element for element.
#[cfg(test)]
mod oracle {
    use super::{CommMatrix, Machine};

    /// The symmetric weight the member walk asks for.
    fn weight(affinity: &CommMatrix, i: usize, j: usize) -> u64 {
        affinity.get(i, j) + affinity.get(j, i)
    }

    pub fn place_constrained(
        machine: &Machine,
        slots: &[usize],
        affinity: &CommMatrix,
    ) -> Vec<usize> {
        let n = affinity.order();
        let mut sigma = vec![usize::MAX; n];
        let procs: Vec<usize> = (0..n).collect();
        let slot_idx: Vec<usize> = (0..slots.len()).collect();
        recurse(machine, slots, affinity, 0, procs, slot_idx, &mut sigma);
        sigma
    }

    fn recurse(
        machine: &Machine,
        slots: &[usize],
        affinity: &CommMatrix,
        level: usize,
        procs: Vec<usize>,
        slot_idx: Vec<usize>,
        sigma: &mut [usize],
    ) {
        if procs.is_empty() {
            return;
        }
        if level == machine.tree.depth() || slot_idx.len() == 1 {
            // Leaves (or a single slot): assign in order.
            for (p, s) in procs.into_iter().zip(slot_idx) {
                sigma[p] = s;
            }
            return;
        }
        // Bucket the slots by their subtree at `level + 1`.
        let mut buckets: Vec<(usize, Vec<usize>)> = Vec::new();
        for &s in &slot_idx {
            let anc = machine.tree.ancestor(slots[s], level + 1);
            match buckets.iter_mut().find(|(a, _)| *a == anc) {
                Some((_, b)) => b.push(s),
                None => buckets.push((anc, vec![s])),
            }
        }
        if buckets.len() == 1 {
            recurse(machine, slots, affinity, level + 1, procs, slot_idx, sigma);
            return;
        }
        // Fill buckets to capacity, largest first, so processes pack into as
        // few subtrees as possible.
        buckets.sort_unstable_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let mut remaining = procs;
        let mut assignments: Vec<(Vec<usize>, Vec<usize>)> = Vec::with_capacity(buckets.len());
        for (_, bucket) in buckets {
            if remaining.is_empty() {
                break;
            }
            let take = bucket.len().min(remaining.len());
            let group = extract_cohesive_group(affinity, &mut remaining, take);
            assignments.push((group, bucket));
        }
        debug_assert!(remaining.is_empty());
        // Greedy growth is weak on uniform-weight patterns (it grows in index
        // order): refine the partition with Kernighan–Lin swaps before
        // committing to subtrees.
        refine_partition(affinity, &mut assignments);
        for (group, bucket) in assignments {
            recurse(machine, slots, affinity, level + 1, group, bucket, sigma);
        }
    }

    /// Kernighan–Lin-style pairwise refinement: swap processes across groups
    /// while any swap reduces the weight cut by the partition.
    fn refine_partition(affinity: &CommMatrix, groups: &mut [(Vec<usize>, Vec<usize>)]) {
        if groups.len() < 2 {
            return;
        }
        // Connection of process p to group g.
        let conn = |p: usize, g: &[usize]| -> i64 {
            g.iter().map(|&q| if q == p { 0 } else { weight(affinity, p, q) as i64 }).sum()
        };
        let max_passes = 4;
        for _ in 0..max_passes {
            let mut improved = false;
            for ga in 0..groups.len() {
                for gb in ga + 1..groups.len() {
                    loop {
                        // Best single swap between groups ga and gb.
                        let mut best: Option<(i64, usize, usize)> = None;
                        for (ia, &a) in groups[ga].0.iter().enumerate() {
                            let d_a = conn(a, &groups[gb].0) - conn(a, &groups[ga].0);
                            for (ib, &b) in groups[gb].0.iter().enumerate() {
                                let d_b = conn(b, &groups[ga].0) - conn(b, &groups[gb].0);
                                let gain = d_a + d_b - 2 * weight(affinity, a, b) as i64;
                                if gain > 0 && best.is_none_or(|(g, _, _)| gain > g) {
                                    best = Some((gain, ia, ib));
                                }
                            }
                        }
                        let Some((_, ia, ib)) = best else { break };
                        let tmp = groups[ga].0[ia];
                        groups[ga].0[ia] = groups[gb].0[ib];
                        groups[gb].0[ib] = tmp;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Remove and return a group of `size` processes from `pool`, grown greedily
    /// around the heaviest internal edge to maximize intra-group affinity.
    fn extract_cohesive_group(
        affinity: &CommMatrix,
        pool: &mut Vec<usize>,
        size: usize,
    ) -> Vec<usize> {
        debug_assert!(size <= pool.len());
        if size == pool.len() {
            return std::mem::take(pool);
        }
        let mut group = Vec::with_capacity(size);
        // Seed with the heaviest pair inside the pool (fall back to the first
        // process when there is no traffic at all).
        let mut seed = (pool[0], None, 0u64);
        for (x, &i) in pool.iter().enumerate() {
            for &j in &pool[x + 1..] {
                let w = weight(affinity, i, j);
                if w > seed.2 {
                    seed = (i, Some(j), w);
                }
            }
        }
        take_from(pool, seed.0);
        group.push(seed.0);
        if size > 1 {
            if let Some(j) = seed.1 {
                take_from(pool, j);
                group.push(j);
            }
        }
        // Grow: repeatedly pull the pool process with max affinity to the group.
        while group.len() < size {
            let (pos, _) = pool
                .iter()
                .enumerate()
                .map(|(pos, &p)| (pos, group.iter().map(|&g| weight(affinity, p, g)).sum::<u64>()))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("pool cannot be empty while group is short");
            group.push(pool.remove(pos));
        }
        group
    }

    fn take_from(pool: &mut Vec<usize>, value: usize) {
        let pos = pool.iter().position(|&p| p == value).expect("value must be in pool");
        pool.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::from_pairs;
    use crate::cost::mapping_distance_cost;
    use mim_topology::{CommMatrix, Machine, Placement};
    use mim_util::props;

    fn assert_valid(sigma: &[usize], nslots: usize) {
        let mut seen = vec![false; nslots];
        for &s in sigma {
            assert!(s < nslots && !seen[s]);
            seen[s] = true;
        }
    }

    #[test]
    fn pairs_share_a_node_when_possible() {
        let machine = Machine::cluster(2, 1, 4);
        // Slots: 2 cores on node 0, 2 on node 1.
        let slots = vec![0, 1, 4, 5];
        let mut m = CommMatrix::zeros(4);
        // 0↔2 and 1↔3 are the heavy pairs; identity would split both.
        m.set(0, 2, 100);
        m.set(1, 3, 100);
        let sigma = place_constrained(&machine, &slots, &m);
        assert_valid(&sigma, 4);
        let node = |p: usize| machine.node_of_core(slots[sigma[p]]);
        assert_eq!(node(0), node(2));
        assert_eq!(node(1), node(3));
        assert_ne!(node(0), node(1));
    }

    #[test]
    fn respects_uneven_occupancy() {
        let machine = Machine::cluster(2, 1, 4);
        // 3 slots on node 0, 1 slot on node 1.
        let slots = vec![0, 1, 2, 4];
        let mut m = CommMatrix::zeros(4);
        m.set(0, 1, 50);
        m.set(1, 2, 50);
        m.set(0, 2, 50); // clique 0-1-2; process 3 is isolated
        let sigma = place_constrained(&machine, &slots, &m);
        assert_valid(&sigma, 4);
        let node = |p: usize| machine.node_of_core(slots[sigma[p]]);
        assert_eq!(node(0), node(1));
        assert_eq!(node(1), node(2));
        assert_ne!(node(3), node(0), "the isolated process takes the lone remote slot");
    }

    #[test]
    fn improves_on_identity_for_scattered_slots() {
        let machine = Machine::plafrim(2); // 48 cores
                                           // Random-ish slot set across both nodes.
        let slots = vec![0, 3, 7, 11, 25, 29, 33, 40];
        let mut m = CommMatrix::zeros(8);
        // Two cliques interleaved over the slot order.
        for &(a, b) in &[(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5), (6, 7)] {
            m.set(a, b, 10);
        }
        let sigma = place_constrained(&machine, &slots, &m);
        assert_valid(&sigma, 8);
        let cores: Vec<usize> = (0..8).map(|p| slots[sigma[p]]).collect();
        let identity: Vec<usize> = slots.clone();
        assert!(
            mapping_distance_cost(&machine.tree, &cores, &m)
                <= mapping_distance_cost(&machine.tree, &identity, &m)
        );
    }

    #[test]
    fn fewer_processes_than_slots_pack_together() {
        let machine = Machine::cluster(4, 1, 4);
        let slots: Vec<usize> = (0..16).collect();
        let mut m = CommMatrix::zeros(4);
        m.set(0, 1, 5);
        m.set(2, 3, 5);
        m.set(1, 2, 5);
        let sigma = place_constrained(&machine, &slots, &m);
        assert_valid(&sigma, 16);
        // All four processes fit on one node; a chain this tight should not
        // be spread over more than one.
        let nodes: std::collections::HashSet<usize> =
            (0..4).map(|p| machine.node_of_core(slots[sigma[p]])).collect();
        assert_eq!(nodes.len(), 1, "sigma = {sigma:?}");
    }

    #[test]
    fn zero_affinity_still_valid() {
        let machine = Machine::cluster(2, 2, 2);
        let slots: Vec<usize> = (0..8).collect();
        let m = CommMatrix::zeros(8);
        let sigma = place_constrained(&machine, &slots, &m);
        assert_valid(&sigma, 8);
    }

    #[test]
    #[should_panic]
    fn too_many_processes_panic() {
        let machine = Machine::cluster(1, 1, 2);
        let m = CommMatrix::zeros(3);
        place_constrained(&machine, &[0, 1], &m);
    }

    props! {
        /// The tentpole's equivalence oracle: random machines, scattered
        /// slot sets and matrices — weights from `{1}`, `1..=3` and
        /// `1..=1000`, because ties are where a neighbour walk and a member
        /// walk can diverge — place identically, as built or rebuilt from
        /// its pairs.
        fn adjacency_walk_equals_member_walk_oracle(g, cases = 256) {
            let machine =
                Machine::cluster(g.gen_range(1usize..6), g.gen_range(1usize..4), g.gen_range(1usize..7));
            let mut cores: Vec<usize> = (0..machine.num_cores()).collect();
            g.shuffle(&mut cores);
            let slots = &cores[..g.gen_range(1..cores.len() + 1)];
            let n = g.gen_range(1..slots.len() + 1);
            let max_w = *g.choose(&[1u64, 3, 1000]);
            let mut dense = CommMatrix::zeros(n);
            for _ in 0..g.gen_range(0..3 * n + 1) {
                let (i, j) = (g.index(n), g.index(n));
                if i != j {
                    dense.add(i, j, g.gen_range(1..max_w + 1));
                }
            }
            let sparse = from_pairs(n, dense.pairs());
            let expected = oracle::place_constrained(&machine, slots, &dense);
            assert_eq!(place_constrained(&machine, slots, &dense), expected, "dense input");
            assert_eq!(place_constrained(&machine, slots, &sparse), expected, "sparse input");
        }
    }

    /// A `prows × pcols` process grid with `mim-apps`' stencil halos (16 KiB
    /// to the ranks ± 1, 32 B to the ranks ± `pcols`, each way) on the cores a
    /// node-cyclic placement gives it over `nodes × 2 × 32`.
    fn stencil_instance(
        prows: usize,
        pcols: usize,
        nodes: usize,
    ) -> (Machine, Vec<usize>, CommMatrix) {
        let machine = Machine::cluster(nodes, 2, 32);
        let n = prows * pcols;
        let slots =
            Placement::cyclic_by_level(&machine.tree, n, machine.node_level).as_slice().to_vec();
        let mut pairs = Vec::new();
        for i in 0..n {
            if (i + 1) % pcols != 0 {
                pairs.push((i, i + 1, 2 * (16 << 10)));
            }
            if i + pcols < n {
                pairs.push((i, i + pcols, 2 * 32));
            }
        }
        (machine, slots, from_pairs(n, pairs))
    }

    /// FNV-1a over `sigma`, eight little-endian bytes per element.
    fn fnv(sigma: &[usize]) -> u64 {
        sigma.iter().flat_map(|&s| (s as u64).to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Pinned at the commit before the neighbour walk (the oracle needs
    /// seconds for these in a debug build): `mim-ledger`'s `stencil_loop`
    /// instance, and the same stencil at 4096 ranks on 64 nodes.
    #[test]
    fn golden_sigma_on_1024_and_4096_rank_stencils() {
        let (machine, slots, affinity) = stencil_instance(32, 32, 16);
        assert_eq!(fnv(&place_constrained(&machine, &slots, &affinity)), 0x7b9d_b8db_b512_3625);
        let (machine, slots, affinity) = stencil_instance(64, 64, 64);
        assert_eq!(fnv(&place_constrained(&machine, &slots, &affinity)), 0x5c6d_ee77_71ac_ed25);
    }
}
