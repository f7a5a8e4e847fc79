//! Hierarchical machine topology, link cost model and process placements.
//!
//! This crate models the *machine* side of the reproduction: a cluster is a
//! balanced tree (cluster → node → socket → core) in which every leaf is a
//! core that can host one process.  Communication cost between two processes
//! depends only on the depth of the lowest common ancestor (LCA) of the two
//! cores hosting them — the classic structural assumption behind TreeMatch
//! and topology-aware rank reordering.
//!
//! The three building blocks are:
//!
//! * [`TopologyTree`] — a balanced tree described by its per-level arities,
//!   with O(depth) LCA queries between leaves;
//! * `CostModel` / [`Machine`] — a Hockney (`α + β·m`) link model keyed by
//!   LCA depth, bundled with a tree into a named machine preset;
//! * [`Placement`] — an injective map from process id to core (leaf) with the
//!   standard initial layouts used in the paper's experiments (packed /
//!   "round-robin", cyclic-by-node, random) and permutation support for rank
//!   reordering.

mod affinity;
mod cost;
mod machine;
mod placement;
mod tree;

pub use affinity::CommMatrix;
pub use machine::Machine;
pub use placement::{inverse_permutation, Placement};
pub use tree::TopologyTree;
