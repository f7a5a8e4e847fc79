//! `mim-apps` — example applications and experiment workloads.
//!
//! * [`cg`] — an NPB-style distributed conjugate-gradient solver (the
//!   paper's Sec 6.5 application), with real sparse SPD numerics and a
//!   rank-based per-iteration communication pattern;
//! * [`sparse`] — seeded sparse SPD matrix generation (à la NPB `makea`)
//!   and a sequential CG reference;
//! * [`stencil`] — a 2-D Jacobi heat-diffusion solver with nonblocking halo
//!   exchange (the nearest-neighbour pattern the paper's intro motivates);
//! * [`groups`] — the grouped-allgather micro-benchmark of Sec 6.4 (Fig 6);
//! * [`collbench`] — the collective-optimization pipeline of Sec 6.3 (Fig 5);
//! * [`netpredict`] — network-utilization sampling and prediction (the
//!   paper's Sec 7 outlook);
//! * `plan` — static communication plans: the app kernels lowered into
//!   `mim-analyze` programs for ahead-of-run verification;
//! * [`builtin`] — the named plan table shared by the `mim-analyze` and
//!   `mim-explore` command-line front-ends;
//! * [`stats`] — means, confidence intervals, Welch's t-test (Fig 4's
//!   statistics);
//! * [`output`] — CSV and ASCII-chart emitters for the benchmark harness;
//! * [`scenario`] — the bodies of the `quickstart`, `stencil_reorder`,
//!   `chaos_stencil` and `elastic_stencil` examples, which the determinism
//!   tests run on both engines.

pub mod builtin;
pub mod cg;
pub mod collbench;
pub mod groups;
pub mod netpredict;
pub mod output;
mod plan;
pub mod scenario;
pub mod sparse;
pub mod stats;
pub mod stencil;
