//! The built-in plan table: every collective schedule generator and app
//! kernel in the workspace, lowered to a `mim-analyze` [`Program`] from a
//! shared [`Shape`].
//!
//! Both command-line front-ends — `mim-analyze` (static verification) and
//! `mim-explore` (schedule exploration) — resolve plan names through this
//! one table, so a plan added here is immediately analyzable *and*
//! explorable, and the two tools can never disagree about what
//! `bcast_binomial --n 48` means.

use mim_analyze::{CommPlan, Program};
use mim_mpisim::schedule;

use crate::collbench::CollectiveKind;
use crate::plan::{CgPlan, CollectivePlan, GroupedAllgatherPlan};
use crate::stencil::StencilConfig;

/// Shape parameters shared by every built-in plan.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Number of ranks.
    pub n: usize,
    /// Root for rooted plans.
    pub root: usize,
    /// Payload size.
    pub bytes: u64,
    /// Segment size for segmented plans.
    pub seg: u64,
}

impl Default for Shape {
    fn default() -> Self {
        Shape { n: 8, root: 0, bytes: 4096, seg: 1024 }
    }
}

/// Names [`built_in`] resolves, in presentation order.
pub const PLANS: &[&str] = &[
    "bcast_binomial",
    "bcast_binary",
    "bcast_binary_segmented",
    "reduce_binomial",
    "reduce_binary",
    "allgather_ring",
    "allgather_bruck",
    "barrier_dissemination",
    "allreduce_recursive_doubling",
    "alltoall_pairwise",
    "stencil",
    "cg",
    "grouped_allgather",
    "collbench_reduce_binary",
    "collbench_bcast_binomial",
];

/// Largest divisor of `n` not exceeding `limit` (always ≥ 1).
fn divisor_at_most(n: usize, limit: usize) -> usize {
    (1..=limit.min(n)).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1)
}

/// Lower one named built-in plan at the given shape.
///
/// Fails on an unknown name or a shape the plan cannot take (e.g. a root
/// outside `0..n`).
pub fn built_in(name: &str, s: &Shape) -> Result<Program, String> {
    let (n, root, bytes) = (s.n, s.root, s.bytes);
    if n == 0 {
        return Err("plans need at least 1 rank".into());
    }
    if root >= n {
        return Err(format!("--root {root} out of range for --n {n}"));
    }
    let plan = match name {
        "bcast_binomial" => schedule::bcast_binomial(n, root, bytes).lower(),
        "bcast_binary" => schedule::bcast_binary(n, root, bytes).lower(),
        "bcast_binary_segmented" => schedule::bcast_binary_segmented(n, root, bytes, s.seg).lower(),
        "reduce_binomial" => schedule::reduce_binomial(n, root, bytes).lower(),
        "reduce_binary" => schedule::reduce_binary(n, root, bytes).lower(),
        "allgather_ring" => schedule::allgather_ring(n, bytes).lower(),
        "allgather_bruck" => schedule::allgather_bruck(n, bytes).lower(),
        "barrier_dissemination" => schedule::barrier_dissemination(n).lower(),
        "allreduce_recursive_doubling" => schedule::allreduce_recursive_doubling(n, bytes).lower(),
        "alltoall_pairwise" => schedule::alltoall_pairwise(n, bytes).lower(),
        "stencil" => {
            // Factor n into the squarest process grid and give each rank a
            // 4x4 block.
            let prows = divisor_at_most(n, n.isqrt());
            let pcols = n / prows;
            StencilConfig { rows: prows * 4, cols: pcols * 4, prows, pcols, iters: 3 }.lower()
        }
        "cg" => CgPlan { nprocs: n, iters: 25 }.lower(),
        "grouped_allgather" => {
            // Prefer several small groups; a prime n falls back to one
            // group of n (a group of 1 would ring zero messages).
            let d = divisor_at_most(n, 4.max(n.isqrt()));
            let group_size = if d > 1 { d } else { n };
            GroupedAllgatherPlan { nprocs: n, group_size, block_bytes: bytes }.lower()
        }
        "collbench_reduce_binary" => {
            CollectivePlan { kind: CollectiveKind::ReduceBinary, nprocs: n, bytes }.lower()
        }
        "collbench_bcast_binomial" => {
            CollectivePlan { kind: CollectiveKind::BcastBinomial, nprocs: n, bytes }.lower()
        }
        other => return Err(format!("unknown plan '{other}' (try --list)")),
    };
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_plan_lowers() {
        let s = Shape::default();
        for name in PLANS {
            let p = built_in(name, &s).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(p.total_ops() > 0, "{name} lowered to an empty program");
        }
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(built_in("bcast_binomial", &Shape { root: 9, ..Shape::default() }).is_err());
        assert!(built_in("no_such_plan", &Shape::default()).is_err());
        assert!(built_in("cg", &Shape { n: 0, ..Shape::default() }).is_err());
    }
}
