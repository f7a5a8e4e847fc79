//! Static communication plans for the app kernels: each workload lowers its
//! communication outline into a `mim-analyze` [`Program`] so the analyzer
//! (and the `mim-analyze` CLI / CI gate) can verify it without running a
//! single rank thread.
//!
//! The lowerings mirror what the live kernels actually do on the wire —
//! same peers, same tags, same operation order per rank — with the data
//! erased.  Nonblocking halo exchange is lowered conservatively: every send
//! of an iteration before any receive, which is exactly the order the
//! kernels post them in.

use mim_analyze::{CollKind, CommPlan, Op, Program, Src, Tag, WORLD};
use mim_mpisim::{schedule, Step};

use crate::collbench::CollectiveKind;
use crate::stencil::{StencilConfig, HALO_TAG_BASE};

/// The 2-D Jacobi stencil *is* a communication plan: per iteration each
/// rank exchanges halos with its grid neighbours (row halos on the
/// iteration tag, column halos on the `+0x1000` tag), then one global
/// allreduce produces the checksum.
impl CommPlan for StencilConfig {
    fn plan_name(&self) -> String {
        format!("stencil[{}x{} grid, {} iters]", self.prows, self.pcols, self.iters)
    }

    fn lower(&self) -> Program {
        let n = self.prows * self.pcols;
        let (br, bc) = (self.block_rows() as u64, self.block_cols() as u64);
        let mut p = Program::new(self.plan_name(), n);
        for me in 0..n {
            let [up, down, left, right] = self.neighbours(me);
            let sides = [
                (up, bc * 8, 0u32),
                (down, bc * 8, 0),
                (left, br * 8, 0x1000),
                (right, br * 8, 0x1000),
            ];
            for it in 0..self.iters {
                let tag = HALO_TAG_BASE + it as u32;
                // The kernel completes each isend eagerly before posting the
                // matching irecv; all four receives are only *waited on*
                // after the last post, so: sends first, then the receives in
                // posted order.
                for (peer, bytes, dtag) in sides {
                    if let Some(dst) = peer {
                        p.push(me, Op::Send { comm: WORLD, dst, tag: tag + dtag, bytes });
                    }
                }
                for (peer, _, dtag) in sides {
                    if let Some(src) = peer {
                        p.push(
                            me,
                            Op::Recv { comm: WORLD, src: Src::Rank(src), tag: Tag::Is(tag + dtag) },
                        );
                    }
                }
            }
            p.push(me, Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None });
        }
        p
    }
}

/// Communication outline of a distributed CG run ([`crate::cg::run_cg`]):
/// one allreduce for the initial `ρ`, then per iteration an allgather of
/// the search direction and two dot-product allreduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgPlan {
    /// Communicator size.
    pub nprocs: usize,
    /// CG iterations.
    pub iters: usize,
}

impl CommPlan for CgPlan {
    fn plan_name(&self) -> String {
        format!("cg[{} ranks, {} iters]", self.nprocs, self.iters)
    }

    fn lower(&self) -> Program {
        let mut p = Program::new(self.plan_name(), self.nprocs);
        let allreduce = Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None };
        let allgather = Op::Coll { comm: WORLD, kind: CollKind::Allgather, root: None };
        for r in 0..self.nprocs {
            p.push(r, allreduce);
            for _ in 0..self.iters {
                p.push(r, allgather);
                p.push(r, allreduce);
                p.push(r, allreduce);
            }
        }
        p
    }
}

/// The grouped-allgather micro-benchmark's combined plan
/// ([`crate::groups::grouped_allgather_gain`]): groups of `group_size`
/// consecutive ranks each ring-allgather on their *own sub-communicator*,
/// all groups concurrently — the sub-communicators carry the matching
/// scope, so identical local step sequences in different groups can never
/// cross-match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedAllgatherPlan {
    /// Total ranks (a multiple of `group_size`).
    pub nprocs: usize,
    /// Ranks per group.
    pub group_size: usize,
    /// Allgather block size per member.
    pub block_bytes: u64,
}

impl CommPlan for GroupedAllgatherPlan {
    fn plan_name(&self) -> String {
        format!("grouped_allgather[{} ranks / groups of {}]", self.nprocs, self.group_size)
    }

    fn lower(&self) -> Program {
        assert!(
            self.nprocs.is_multiple_of(self.group_size),
            "{} ranks not divisible into {}-groups",
            self.nprocs,
            self.group_size
        );
        let ring = schedule::allgather_ring(self.group_size, self.block_bytes);
        let mut p = Program::new(self.plan_name(), self.nprocs);
        for base in (0..self.nprocs).step_by(self.group_size) {
            let comm = p.add_comm((base..base + self.group_size).collect());
            for local in 0..self.group_size {
                for s in ring.rank_steps(local) {
                    p.push(
                        base + local,
                        match *s {
                            Step::Send { peer, bytes } => {
                                Op::Send { comm, dst: base + peer, tag: 0, bytes }
                            }
                            Step::Recv { peer } => {
                                Op::Recv { comm, src: Src::Rank(base + peer), tag: Tag::Is(0) }
                            }
                        },
                    );
                }
            }
        }
        p
    }
}

/// A Fig 5 collective under analysis: the point-to-point decomposition of
/// [`CollectiveKind`] at a given size, as a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectivePlan {
    /// Which collective/algorithm.
    pub kind: CollectiveKind,
    /// Number of ranks (rooted at 0, like the benchmark).
    pub nprocs: usize,
    /// Payload bytes.
    pub bytes: u64,
}

impl CommPlan for CollectivePlan {
    fn plan_name(&self) -> String {
        format!("collbench[{}, {} ranks, {} B]", self.kind.label(), self.nprocs, self.bytes)
    }

    fn lower(&self) -> Program {
        let lowered = self.kind.schedule(self.nprocs, self.bytes).lower();
        let mut p = Program::new(self.plan_name(), self.nprocs);
        for r in 0..self.nprocs {
            for &op in lowered.rank_ops(r) {
                p.push(r, op);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_analyze::{analyze, Verdict};

    #[test]
    fn app_plans_are_deadlock_free() {
        let plans: Vec<Program> = vec![
            StencilConfig { rows: 16, cols: 16, prows: 2, pcols: 4, iters: 3 }.lower(),
            StencilConfig { rows: 8, cols: 8, prows: 1, pcols: 1, iters: 2 }.lower(),
            CgPlan { nprocs: 8, iters: 25 }.lower(),
            GroupedAllgatherPlan { nprocs: 12, group_size: 4, block_bytes: 256 }.lower(),
            CollectivePlan { kind: CollectiveKind::ReduceBinary, nprocs: 16, bytes: 4096 }.lower(),
            CollectivePlan { kind: CollectiveKind::BcastBinomial, nprocs: 16, bytes: 4096 }.lower(),
        ];
        for plan in plans {
            let report = analyze(&plan);
            assert!(matches!(report.verdict, Verdict::DeadlockFree), "{}: {report}", report.plan);
            assert!(report.is_clean(), "{}: {report}", report.plan);
        }
    }

    #[test]
    fn stencil_plan_message_volume_matches_grid() {
        // 2x2 grid, 1 iteration: each interior edge of the process grid
        // carries two messages (one each way) -> 4 edges * 2 = 8 sends.
        let cfg = StencilConfig { rows: 8, cols: 8, prows: 2, pcols: 2, iters: 1 };
        let p = cfg.lower();
        let sends: usize = (0..p.nranks())
            .map(|r| p.rank_ops(r).iter().filter(|op| matches!(op, Op::Send { .. })).count())
            .sum();
        assert_eq!(sends, 8);
    }

    #[test]
    #[should_panic(expected = "prows: 0, pcols: 2, iters: 1 }: every block needs a row")]
    fn stencil_plan_rejects_an_empty_process_grid() {
        StencilConfig { rows: 8, cols: 8, prows: 0, pcols: 2, iters: 1 }.lower();
    }

    #[test]
    fn grouped_plan_scopes_channels_per_group() {
        let p = GroupedAllgatherPlan { nprocs: 8, group_size: 4, block_bytes: 64 }.lower();
        assert_eq!(p.ncomms(), 3); // world + two groups
        let report = analyze(&p);
        // Each group: 4 ranks * 3 blocks around the ring.
        assert_eq!(report.channels.len(), 8);
        assert!(report.channels.iter().all(|c| c.messages == 3 && c.bytes == 192));
    }
}
