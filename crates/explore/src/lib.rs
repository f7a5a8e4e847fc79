//! `mim-explore` — deterministic schedule exploration with replayable
//! witnesses.
//!
//! The static analyzer (`mim-analyze`) stops at [`PotentialDeadlock`] the
//! moment a plan contains a wildcard receive: whether the program hangs
//! then depends on which message the wildcard happens to match, i.e. on
//! the *schedule*.  This crate closes that gap.  It re-executes the same
//! per-rank [`Program`] outline — on the analyzer's own plan interpreter,
//! `mim_analyze::interp::State`, so both tools read a plan one way —
//! under an explicit scheduler whose every
//! nondeterministic choice — which runnable rank resumes, which eligible
//! channel a wildcard receive takes — is delegated to a pluggable
//! [`policy::RecordingPolicy`], then searches the space of those choices:
//!
//! 1. the **canonical** schedule first (always pick index 0 — the exact
//!    behavior of the live runtime's default policy);
//! 2. a **DPOR-lite** depth-first pass: at each recorded decision the
//!    policy also reports the *persistent set* of alternatives that could
//!    change the outcome (other eligible wildcard channels; other runnable
//!    ranks whose next op races with a wildcard match, computed from the
//!    plan's channel match graph), and the explorer backtracks through
//!    exactly those;
//! 3. a **randomized** tail over per-schedule seeds split off a base seed,
//!    for plans whose branch space exceeds the budget.
//!
//! The first schedule that wedges yields a [`Witness`]: the decision log
//! that steers a byte-for-byte replay, the normalized event trace, the
//! per-rank stuck states, and a flight-recorder excerpt (`mim-trace`).
//! [`replay`] re-runs the witness and fails loudly unless the reproduction
//! is *identical* — a witness that does not replay is a bug, not a result.
//! The verdict is thereby upgraded: `PotentialDeadlock` becomes
//! [`Outcome::DefiniteDeadlock`] (with the witness) or
//! [`Outcome::ExploredClean`] (with the number of schedules that survived).
//!
//! The same [`policy`] types implement `mim_mpisim::SchedulePolicy`, so a
//! recorded decision log can also steer the *live* runtime through its
//! scheduling seams (task resume order, wildcard matching); a policed
//! universe always runs the serialised (one-worker) tasks engine.
//!
//! [`PotentialDeadlock`]: mim_analyze::Verdict::PotentialDeadlock
//! [`Program`]: mim_analyze::Program

pub mod explore;
pub mod model;
pub mod plans;
pub mod policy;

pub use explore::{explore, replay, Budget, Outcome, Witness};
pub use model::{run_model, RunOutput};
pub use policy::{parse_log, RecordingPolicy, ReplayPolicy};
