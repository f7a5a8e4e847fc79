//! Communicators: ordered groups of world ranks with a private matching id.

use std::sync::Arc;

/// An ordered member list (communicator rank → world rank) plus its
/// inverse, built once and shared by every handle cloned from it.
///
/// Identity groups (`group[r] == r` — `MPI_COMM_WORLD`, duplicates of it)
/// carry no table: the inverse is one compare.  Any other group keeps its
/// communicator ranks sorted by world rank, so a lookup is a binary search —
/// O(log n), 4 bytes per member, no hashing.
#[derive(Debug)]
pub(crate) struct Group {
    members: Vec<usize>,
    /// Communicator ranks ordered by their world rank; empty for identity
    /// groups.
    by_world: Vec<u32>,
}

impl Group {
    pub(crate) fn new(members: Vec<usize>) -> Arc<Self> {
        assert!(u32::try_from(members.len()).is_ok(), "group of {} ranks", members.len());
        let mut by_world = Vec::new();
        if members.iter().enumerate().any(|(r, &w)| r != w) {
            by_world.extend(0..members.len() as u32);
            // Stable (run-merging) sort: the groups churn derives — a shrink
            // of an ascending parent, a grow appending sorted joiners — are
            // one or two ascending runs, which it orders in O(n).
            by_world.sort_by_key(|&r| members[r as usize]);
            debug_assert!(
                by_world.windows(2).all(|p| members[p[0] as usize] != members[p[1] as usize]),
                "a world rank appears twice in {members:?}"
            );
        }
        Arc::new(Self { members, by_world })
    }

    fn rank_of_world(&self, world: usize) -> Option<usize> {
        if self.by_world.is_empty() {
            return (world < self.members.len()).then_some(world);
        }
        let i = self.by_world.binary_search_by_key(&world, |&r| self.members[r as usize]).ok()?;
        Some(self.by_world[i] as usize)
    }
}

/// A communicator handle.
///
/// Cheap to clone (the group is shared).  Each communicator owns a globally
/// unique id used for message matching, so traffic on different communicators
/// never mixes, and three matching contexts (point-to-point / collective /
/// one-sided) within the id, like MPI context ids.
#[derive(Debug, Clone)]
pub struct Comm {
    id: u64,
    /// `group[r]` = world rank of communicator rank `r`, and the inverse.
    group: Arc<Group>,
    /// This process's rank inside the communicator.
    my_rank: usize,
    /// Membership epoch: 0 for communicators whose membership was never
    /// churned; each `comm_shrink` / `comm_grow` derives a communicator one
    /// epoch newer than its parent.  `Rank::send_checked` uses it to reject
    /// sends on a communicator whose membership has been superseded.
    epoch: u64,
}

impl Comm {
    pub(crate) fn new(id: u64, group: Arc<Group>, my_rank: usize) -> Self {
        Self::new_at_epoch(id, group, my_rank, 0)
    }

    pub(crate) fn new_at_epoch(id: u64, group: Arc<Group>, my_rank: usize, epoch: u64) -> Self {
        debug_assert!(my_rank < group.members.len());
        Self { id, group, my_rank, epoch }
    }

    /// Build a communicator from raw parts, outside the runtime.
    ///
    /// Only meant for tests of code that stores communicators; a communicator
    /// made this way cannot carry messages (its id is not registered).
    #[doc(hidden)]
    pub fn from_raw(id: u64, group: Arc<Vec<usize>>, my_rank: usize) -> Self {
        Self::new(id, Group::new(Arc::unwrap_or_clone(group)), my_rank)
    }

    /// Unique communicator id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Membership epoch (0 = never churned; see [`Comm::new_at_epoch`]'s
    /// field docs and `Rank::send_checked`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.group.members.len()
    }

    /// This process's rank in the communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// World rank of communicator rank `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.group.members[r]
    }

    /// Communicator rank of a world rank, if it is a member: O(1) on an
    /// identity group, O(log n) otherwise.
    pub fn rank_of_world(&self, world: usize) -> Option<usize> {
        self.group.rank_of_world(world)
    }

    /// The ordered member list (communicator rank → world rank).
    pub fn group(&self) -> &[usize] {
        &self.group.members
    }

    /// True when the given world rank belongs to this communicator.
    pub fn contains_world(&self, world: usize) -> bool {
        self.rank_of_world(world).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};

    fn comm() -> Comm {
        Comm::from_raw(3, Arc::new(vec![4, 2, 7]), 1)
    }

    #[test]
    fn rank_translation() {
        let c = comm();
        assert_eq!(c.size(), 3);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.world_rank_of(0), 4);
        assert_eq!(c.world_rank_of(2), 7);
        assert_eq!(c.rank_of_world(7), Some(2));
        assert_eq!(c.rank_of_world(5), None);
        assert!(c.contains_world(2));
        assert!(!c.contains_world(0));
    }

    /// The index against the linear scan it replaced, for every world rank
    /// of the universe and a few beyond it.
    fn assert_index_matches_scan(c: &Comm, universe: usize) {
        for w in 0..universe + 3 {
            let scan = c.group().iter().position(|&m| m == w);
            assert_eq!(c.rank_of_world(w), scan, "world {w} in {:?}", c.group());
            assert_eq!(c.contains_world(w), scan.is_some(), "world {w} in {:?}", c.group());
        }
    }

    mim_util::props! {
        /// Identity, permuted and sparse groups: lookups equal the scan.
        fn index_matches_linear_scan(g) {
            let universe = g.gen_range(1usize..80);
            let identity: Vec<usize> = (0..universe).collect();
            let permuted = g.permutation(universe);
            let mut sparse = g.permutation(universe);
            sparse.truncate(g.gen_range(1usize..universe + 1));
            let mut ascending = sparse.clone();
            ascending.sort_unstable();
            for group in [identity, permuted, sparse, ascending] {
                let me = g.index(group.len());
                assert_index_matches_scan(&Comm::from_raw(9, Arc::new(group), me), universe);
            }
        }

        /// The same after membership churn: `comm_shrink` by a random
        /// liveness bitmap, then `comm_grow` by some of the departed (both
        /// are purely local, so rank 0 alone derives them).
        fn index_survives_shrink_and_grow(g, cases = 24) {
            let n = g.gen_range(2usize..40);
            let mut alive: Vec<bool> = (0..n).map(|_| g.any_bool()).collect();
            alive[0] = true;
            let mut joiners: Vec<usize> = (0..n).filter(|&r| !alive[r] && g.any_bool()).collect();
            g.shuffle(&mut joiners);
            let u = Universe::new(UniverseConfig::new(
                Machine::cluster(5, 2, 4),
                Placement::packed(n),
            ));
            u.launch(move |rank| {
                if rank.world_rank() != 0 {
                    return;
                }
                let world = rank.comm_world();
                assert_index_matches_scan(&world, n);
                let shrunk = rank.comm_shrink(&world, &alive);
                assert_index_matches_scan(&shrunk, n);
                if !joiners.is_empty() {
                    assert_index_matches_scan(&rank.comm_grow(&shrunk, &joiners), n);
                }
            });
        }
    }
}
