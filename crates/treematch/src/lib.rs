//! `mim-treematch` — topology-aware process placement.
//!
//! Implementation of the TreeMatch algorithm (Jeannot, Mercier & Tessier,
//! IEEE TPDS 25(4), 2014) used by the paper for rank reordering: given a
//! process-affinity matrix and a hierarchical machine topology, compute a
//! process → core assignment that keeps heavily-communicating processes
//! topologically close.
//!
//! Two entry points:
//!
//! * [`tree_match`] — the classic bottom-up algorithm on a *balanced* tree
//!   (per-level arities): at each level, processes/groups are clustered into
//!   groups of the level's arity so as to maximize intra-group traffic, the
//!   matrix is aggregated, and the next level up is processed.  Grouping is
//!   greedy pair-merging over the sorted edge list (scales to the paper's
//!   Table 1 sizes, order 65 536, on sparse matrices) or exhaustive
//!   best-disjoint-groups for small instances ([`GroupingStrategy`]).
//! * [`place_constrained`] — top-down recursive partitioning for the
//!   *constrained* case where processes may only occupy a given slot set
//!   (the occupied cores of a live job — what dynamic rank reordering needs,
//!   cf. TreeMatchConstraints).  Partitions at the most expensive level
//!   first, honouring exact per-subtree occupancies; reads the affinity
//!   through `CommMatrix::pairs()` only — one neighbour list per process,
//!   no `weight(p, q)` over the members of a group.
//!
//! Both read a `mim_topology::CommMatrix`, the one traffic matrix type; the
//! mapping-cost evaluator is [`mapping_distance_cost`].

pub mod affinity;
mod algorithm;
mod constrained;
mod cost;
pub mod grouping;

pub use algorithm::{tree_match, tree_match_with, GroupingStrategy};
pub use constrained::place_constrained;
pub use cost::mapping_distance_cost;
