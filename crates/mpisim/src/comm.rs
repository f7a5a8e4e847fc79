//! Communicators: ordered groups of world ranks with a private matching id.

use std::sync::{Arc, Weak};

use mim_util::hash::IdMap;
use mim_util::sync::Mutex;

use crate::collectives::{allgather_bruck, bcast_binomial};
use crate::runtime::Rank;

/// An ordered member list (communicator rank → world rank) plus its
/// inverse, built once and shared by every handle cloned from it.
///
/// Identity groups (`group[r] == r` — `MPI_COMM_WORLD`, duplicates of it)
/// carry no table: the inverse is one compare.  Any other group keeps its
/// communicator ranks sorted by world rank, so a lookup is a binary search —
/// O(log n), 4 bytes per member, no hashing.
///
/// Every member of a communicator shares one `Group`: the world's lives in
/// `Shared`, every other one in the universe's [`Groups`] registry.  Aligned
/// to a cache-line pair, so the `Arc` counts every member's communicator
/// clones and drops share no line with the members every translation reads.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Group {
    members: Vec<usize>,
    /// Communicator ranks ordered by their world rank; empty for identity
    /// groups.
    by_world: Vec<u32>,
    /// The gather orders asked of this group so far, one per root (see
    /// [`Rank::topology_order`]).
    orders: Mutex<Vec<(usize, Arc<[usize]>)>>,
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
        Arc::new(Self { members, by_world, orders: Mutex::new(Vec::new()) })
    }

    /// The order cached for `root`, or the one `build` makes, cached for
    /// every later caller.
    pub(crate) fn order_for(
        &self,
        root: usize,
        build: impl FnOnce() -> Vec<usize>,
    ) -> Arc<[usize]> {
        let mut orders = self.orders.lock();
        if let Some((_, order)) = orders.iter().find(|(r, _)| *r == root) {
            return Arc::clone(order);
        }
        let order: Arc<[usize]> = build().into();
        orders.push((root, Arc::clone(&order)));
        order
    }

    pub(crate) fn rank_of_world(&self, world: usize) -> Option<usize> {
        if self.by_world.is_empty() {
            return (world < self.members.len()).then_some(world);
        }
        let i = self.by_world.binary_search_by_key(&world, |&r| self.members[r as usize]).ok()?;
        Some(self.by_world[i] as usize)
    }
}

/// Smallest registry size at which [`Groups`] sweeps out dead entries.
const SWEEP_FLOOR: usize = 64;

/// The universe's registry of non-world groups: one `Arc<Group>` per
/// communicator id, so the n members of a communicator hold one member
/// table between them, not n.  Entries are weak, so a group dies with the
/// last communicator handle on it; dead entries are swept once the map
/// holds twice the entries the last sweep kept (and at least
/// [`SWEEP_FLOOR`]).
#[derive(Debug)]
pub(crate) struct Groups(Mutex<Registry>);

#[derive(Debug)]
struct Registry {
    by_id: IdMap<u64, Weak<Group>>,
    sweep_at: usize,
}

impl Default for Groups {
    fn default() -> Self {
        Self(Mutex::new(Registry { by_id: IdMap::default(), sweep_at: SWEEP_FLOOR }))
    }
}

impl Groups {
    /// The group of communicator `id`: the first member to ask builds it
    /// from `members`, every later one shares it (and, in debug builds,
    /// checks that its own member list agrees).
    pub(crate) fn get_or_build(&self, id: u64, members: impl FnOnce() -> Vec<usize>) -> Arc<Group> {
        let mut reg = self.0.lock();
        if let Some(group) = reg.by_id.get(&id).and_then(Weak::upgrade) {
            drop(reg);
            debug_assert_eq!(group.members, members(), "two member lists for communicator {id}");
            return group;
        }
        let group = Group::new(members());
        if reg.by_id.len() >= reg.sweep_at {
            reg.by_id.retain(|_, g| g.strong_count() > 0);
            reg.sweep_at = (2 * reg.by_id.len()).max(SWEEP_FLOOR);
        }
        reg.by_id.insert(id, Arc::downgrade(&group));
        group
    }

    /// Entries held, live or dead.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.lock().by_id.len()
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

    /// The shared group behind this handle.
    pub(crate) fn shared_group(&self) -> &Group {
        &self.group
    }

    /// The same group under another matching id: a private duplicate that
    /// needs no exchange because `id` is already agreed (a window's fences).
    pub(crate) fn with_id(&self, id: u64) -> Self {
        Self { id, ..self.clone() }
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

    /// Membership epoch (0 = never churned; see `Comm::new_at_epoch`'s
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

impl Rank {
    /// `MPI_Comm_split`: members with equal `color` form a new communicator,
    /// ordered by `(key, parent rank)`.  Collective over `comm`.
    pub fn comm_split(&self, comm: &Comm, color: i64, key: i64) -> Comm {
        let _span = self.coll_span("comm_split", comm);
        // Gather (color, key) from every member: 16 bytes each, so the
        // log-step exchange, not the ring.
        let all = allgather_bruck(self, comm, &[color, key]);
        let n = comm.size();
        let (colors, color_idx) = {
            let mut distinct: Vec<i64> = (0..n).map(|r| all[2 * r]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            (distinct.len(), distinct.binary_search(&color).unwrap())
        };
        // Rank 0 allocates one globally unique id per color group; everyone
        // derives its own from the broadcast base.
        let mut base =
            vec![if comm.rank() == 0 { self.shared().alloc_ids(colors as u64) as i64 } else { 0 }];
        bcast_binomial(self, comm, 0, &mut base);
        let id = base[0] as u64 + color_idx as u64;
        // The first member of my color to get here builds the group, ordered
        // by (key, parent rank); every other member shares it.
        let group = self.shared().groups.get_or_build(id, || {
            let mut members: Vec<(i64, usize)> =
                (0..n).filter(|&r| all[2 * r] == color).map(|r| (all[2 * r + 1], r)).collect();
            members.sort_unstable();
            members.into_iter().map(|(_, r)| comm.world_rank_of(r)).collect()
        });
        let my_rank = group.rank_of_world(self.world_rank()).expect("a member of its own color");
        Comm::new(id, group, my_rank)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::pml::{PmlEvent, PmlHook};
    use crate::runtime::tests::small_universe;
    use crate::runtime::{SrcSel, TagSel, Universe, UniverseConfig};
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

    #[test]
    fn comm_split_even_odd() {
        let u = small_universe(6);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = rank.world_rank();
            let sub = rank.comm_split(&world, (me % 2) as i64, me as i64);
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), me / 2);
            assert_eq!(sub.world_rank_of(sub.rank()), me);
            // Traffic on the sub-communicator stays inside it.
            let gathered = rank.allgather(&sub, &[me as u64]);
            let expect: Vec<u64> = (0..6).filter(|w| w % 2 == me % 2).map(|w| w as u64).collect();
            assert_eq!(gathered, expect);
        });
    }

    #[test]
    fn comm_split_reorders_by_key() {
        let u = small_universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let me = rank.world_rank();
            // Reverse the ranks: key = n - 1 - me.
            let rev = rank.comm_split(&world, 0, (3 - me) as i64);
            assert_eq!(rev.rank(), 3 - me);
            assert_eq!(rev.world_rank_of(0), 3);
        });
    }

    #[test]
    fn comm_split_message_budget() {
        // One Bruck allgather of the (color, key) pairs — ⌈log₂ n⌉ messages
        // per rank — plus the id broadcast's n − 1: nothing else may reach
        // the wire.
        struct Count(AtomicU64);
        impl PmlHook for Count {
            fn on_send(&self, _ev: &PmlEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        for n in [2usize, 3, 8, 24, 100] {
            let u = Universe::new(UniverseConfig::new(
                Machine::cluster(4, 1, 25),
                Placement::packed(n),
            ));
            let count = Arc::new(Count(AtomicU64::new(0)));
            u.add_global_hook(count.clone());
            u.launch(|rank| {
                let world = rank.comm_world();
                let me = world.rank();
                let sub = rank.comm_split(&world, (me % 3) as i64, -(me as i64));
                assert_eq!(sub.size(), (n - me % 3).div_ceil(3));
            });
            let rounds = u64::from(n.next_power_of_two().trailing_zeros());
            let n = n as u64;
            assert_eq!(count.0.load(Ordering::Relaxed), n * rounds + (n - 1), "n={n}");
        }
    }

    #[test]
    fn members_of_one_color_share_one_group() {
        let u = small_universe(12);
        let seen = u.launch(|rank| {
            let world = rank.comm_world();
            let me = world.rank();
            let sub = rank.comm_split(&world, (me % 3) as i64, -(me as i64));
            let shrunk = (me != 5).then(|| {
                let alive: Vec<bool> = (0..12).map(|r| r != 5).collect();
                rank.comm_shrink(&world, &alive)
            });
            // Every handle is still held here, so no group can have died.
            rank.barrier(&world);
            let shrunk = shrunk.map(|c| c.group().as_ptr() as usize);
            (me % 3, sub.group().as_ptr() as usize, shrunk)
        });
        for (color, group, shrunk) in &seen {
            for (other_color, other, other_shrunk) in &seen {
                assert_eq!(
                    color == other_color,
                    group == other,
                    "colors {color} and {other_color}"
                );
                if let (Some(a), Some(b)) = (shrunk, other_shrunk) {
                    assert_eq!(a, b, "one shrunk group");
                }
            }
        }
    }

    #[test]
    fn comm_dups_in_a_loop_leave_the_registry_bounded() {
        let u = small_universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            // One color, the old ranks as keys: a duplicate of `world`.
            for _ in 0..10_000 {
                let dup = rank.comm_split(&world, 0, world.rank() as i64);
                assert_eq!(dup.group(), world.group());
            }
            let held = rank.shared().groups.len();
            assert!(held <= SWEEP_FLOOR, "{held} registry entries after 10 000 dups");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two member lists for communicator 7")]
    fn registry_hit_checks_the_members() {
        let groups = Groups::default();
        let _held = groups.get_or_build(7, || vec![0, 1, 2]);
        let _ = groups.get_or_build(7, || vec![0, 2, 1]);
    }

    #[test]
    fn comm_dup_isolates_traffic() {
        let u = small_universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            // Same group, fresh matching id.
            let dup = rank.comm_split(&world, 0, world.rank() as i64);
            assert_ne!(dup.id(), world.id());
            if rank.world_rank() == 0 {
                rank.send(&world, 1, 5, &[1u8]);
                rank.send(&dup, 1, 5, &[2u8]);
            } else {
                // Receive from the dup first: matching must not steal the
                // world message even though it arrived earlier.
                let (v, _) = rank.recv::<u8>(&dup, SrcSel::Any, TagSel::Any);
                assert_eq!(v, vec![2]);
                let (v, _) = rank.recv::<u8>(&world, SrcSel::Any, TagSel::Any);
                assert_eq!(v, vec![1]);
            }
        });
    }
}
