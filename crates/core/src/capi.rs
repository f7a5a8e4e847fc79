//! C-shaped compatibility layer: the paper's API, name for name.
//!
//! The paper's library is C with per-process global state and integer
//! return codes.  Each simulated rank is a thread, so a thread-local slot
//! plays the role of the per-process environment exactly, and the paper's
//! Listing 2 ports line by line:
//!
//! ```
//! use mim_core::capi::*;
//! use mim_mpisim::{Universe, UniverseConfig};
//! use mim_topology::{Machine, Placement};
//!
//! let universe = Universe::new(UniverseConfig::new(
//!     Machine::cluster(2, 1, 4),
//!     Placement::packed(8),
//! ));
//! let dir = std::env::temp_dir().join(format!("mim-capi-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let base = dir.join("barrier").to_string_lossy().into_owned();
//! universe.launch(|rank| {
//!     // MPI_Init is the universe launch itself.
//!     assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
//!     let mut id = MPI_M_MSID_NULL;
//!     assert_eq!(MPI_M_start(rank, &rank.comm_world(), &mut id), MPI_SUCCESS);
//!     rank.barrier(&rank.comm_world());
//!     assert_eq!(MPI_M_suspend(id), MPI_SUCCESS);
//!     assert_eq!(MPI_M_rootflush(rank, id, 0, &base, MPI_M_COLL_ONLY), MPI_SUCCESS);
//!     assert_eq!(MPI_M_free(id), MPI_SUCCESS);
//!     assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
//! });
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! All functions return [`MPI_SUCCESS`] or one of the paper's error
//! constants.  Output parameters are `&mut` slots, sized according to
//! [`MPI_M_get_info`], as in C.

#![allow(non_snake_case)]

use std::cell::RefCell;

use mim_mpisim::{exec, Comm, Rank};
use mim_util::hash::IdMap;

use crate::api::{GatheredData, Monitoring};
use crate::error::MonError;
use crate::flags::Flags;
use crate::session::Msid;

/// Success return value (the paper reuses MPI's constant).
pub const MPI_SUCCESS: i32 = 0;
/// `MPI_M_INTERNAL_FAIL`: an internal error occurred.
pub const MPI_M_INTERNAL_FAIL: i32 = 1;
/// `MPI_M_MPIT_FAIL`: an MPI or MPI_T function failed.
pub const MPI_M_MPIT_FAIL: i32 = 2;
/// `MPI_M_MISSING_INIT`: no call to `MPI_M_init` has been done.
pub const MPI_M_MISSING_INIT: i32 = 3;
/// `MPI_M_SESSION_STILL_ACTIVE`: at least one session was not suspended.
pub const MPI_M_SESSION_STILL_ACTIVE: i32 = 4;
/// `MPI_M_SESSION_NOT_SUSPENDED`: the session has not been suspended.
pub const MPI_M_SESSION_NOT_SUSPENDED: i32 = 5;
/// `MPI_M_INVALID_MSID`: the msid does not refer to a live session.
pub const MPI_M_INVALID_MSID: i32 = 6;
/// `MPI_M_SESSION_OVERFLOW`: the maximum number of sessions is reached.
pub const MPI_M_SESSION_OVERFLOW: i32 = 7;
/// `MPI_M_MULTIPLE_CALL`: init/continue (resp. suspend) called twice.
pub const MPI_M_MULTIPLE_CALL: i32 = 8;
/// `MPI_M_INVALID_ROOT`: the root parameter is invalid.
pub const MPI_M_INVALID_ROOT: i32 = 9;

/// Act on all live sessions (the paper's `MPI_M_ALL_MSID`).
pub const MPI_M_ALL_MSID: Msid = Msid::ALL;
/// A never-valid session id to initialize `MPI_M_msid` variables with.
pub const MPI_M_MSID_NULL: Msid = Msid::ALL;

/// Monitor point-to-point communications only.
pub const MPI_M_P2P_ONLY: Flags = Flags::P2P_ONLY;
/// Monitor collective communications only.
pub const MPI_M_COLL_ONLY: Flags = Flags::COLL_ONLY;
/// Monitor one-sided communications only.
pub const MPI_M_OSC_ONLY: Flags = Flags::OSC_ONLY;
/// Monitor all communications.
pub const MPI_M_ALL_COMM: Flags = Flags::ALL_COMM;

thread_local! {
    /// The per-process monitoring environment under thread-per-rank
    /// (each rank is a thread).
    static ENV: RefCell<Option<Monitoring>> = const { RefCell::new(None) };
}

/// The monitoring environment of a rank *task* under the M:N executor,
/// where "per-process" state cannot be thread-local: several ranks share
/// each worker thread, and a parked rank may resume on a different one.
///
/// SAFETY (`Send`): `Monitoring` is `!Send` (it shares `Rc`s with its
/// `Rank`), but rank and environment live in the same fiber task, which the
/// scheduler runs on one worker at a time with a happens-before edge across
/// every migration — the exact argument that makes the suspended fiber
/// itself `Send`.  This wrapper only lets the registry hold the value
/// *between* capi calls made by that same task.
struct TaskEnv(Monitoring);
unsafe impl Send for TaskEnv {}

/// Task-keyed twin of [`ENV`].  Entries are taken out for the duration of
/// each capi call (never locked across user code, which may park the task)
/// and reinserted afterwards.
static TASK_ENVS: std::sync::LazyLock<std::sync::Mutex<IdMap<exec::TaskId, TaskEnv>>> =
    std::sync::LazyLock::new(|| std::sync::Mutex::new(IdMap::default()));

/// Run `f` on the calling rank's environment slot — the fiber task's
/// registry entry under the M:N executor, the thread-local otherwise.
///
/// [`ENV`] is consulted only *off* the executor, where `f` runs on an OS
/// thread that cannot migrate; a rank task never reaches it, so no
/// thread-local address is ever live across a fiber switch here (`f` may
/// park: `MPI_M_start` runs a barrier).  `exec::current_task` is the read
/// that must stay out of line, and is.
fn with_env_slot<R>(f: impl FnOnce(&mut Option<Monitoring>) -> R) -> R {
    let Some(tid) = exec::current_task() else {
        return ENV.with(|env| f(&mut env.borrow_mut()));
    };
    let mut slot = TASK_ENVS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&tid)
        .map(|e| e.0);
    let r = f(&mut slot);
    if let Some(mon) = slot {
        TASK_ENVS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(tid, TaskEnv(mon));
    }
    r
}

fn code(e: MonError) -> i32 {
    match e {
        MonError::InternalFail(_) => MPI_M_INTERNAL_FAIL,
        MonError::MpitFail(_) => MPI_M_MPIT_FAIL,
        MonError::MissingInit => MPI_M_MISSING_INIT,
        MonError::SessionStillActive => MPI_M_SESSION_STILL_ACTIVE,
        MonError::SessionNotSuspended => MPI_M_SESSION_NOT_SUSPENDED,
        MonError::InvalidMsid => MPI_M_INVALID_MSID,
        MonError::SessionOverflow => MPI_M_SESSION_OVERFLOW,
        MonError::MultipleCall => MPI_M_MULTIPLE_CALL,
        MonError::InvalidRoot => MPI_M_INVALID_ROOT,
    }
}

/// The C return value of a call's outcome.
fn status(r: Result<(), MonError>) -> i32 {
    r.map_or_else(code, |()| MPI_SUCCESS)
}

fn with_env<F: FnOnce(&Monitoring) -> Result<(), MonError>>(f: F) -> i32 {
    with_env_slot(|slot| match slot.as_ref() {
        None => MPI_M_MISSING_INIT,
        Some(mon) => status(f(mon)),
    })
}

/// A C `root` argument as a communicator rank: negative values are rejected
/// here, before any cast could wrap them into a huge `usize`.
fn checked_root(root: i32) -> Result<usize, MonError> {
    usize::try_from(root).map_err(|_| MonError::InvalidRoot)
}

/// Copy gathered matrices, row-major, into caller buffers of at least
/// `array_size²` words each.  `None` is a rooted gather's result off the
/// root: nothing to copy, any buffers do.
fn copy_out(
    data: Option<GatheredData>,
    matrix_counts: &mut [u64],
    matrix_sizes: &mut [u64],
) -> Result<(), MonError> {
    let Some(data) = data else {
        return Ok(());
    };
    let n = data.counts.order();
    if matrix_counts.len() < n * n || matrix_sizes.len() < n * n {
        return Err(MonError::InternalFail("output buffer too small".into()));
    }
    for (out, matrix) in [(matrix_counts, &data.counts), (matrix_sizes, &data.sizes)] {
        out[..n * n].fill(0);
        for i in 0..n {
            for &(j, v) in matrix.row(i) {
                out[i * n + j] = v;
            }
        }
    }
    Ok(())
}

/// Set the monitoring environment (paper: `MPI_M_init`).
pub fn MPI_M_init(rank: &Rank) -> i32 {
    with_env_slot(|slot| {
        if slot.is_some() {
            return MPI_M_MULTIPLE_CALL; // environments must not overlap
        }
        status(Monitoring::init(rank).map(|mon| *slot = Some(mon)))
    })
}

/// Finalize the monitoring environment (paper: `MPI_M_finalize`).
pub fn MPI_M_finalize(rank: &Rank) -> i32 {
    with_env_slot(|slot| match slot.as_ref() {
        None => MPI_M_MISSING_INIT,
        Some(mon) => status(mon.finalize(rank).map(|()| *slot = None)),
    })
}

/// Create and start a monitoring session (paper: `MPI_M_start`).
pub fn MPI_M_start(rank: &Rank, comm: &Comm, msid: &mut Msid) -> i32 {
    with_env(|mon| {
        *msid = mon.start(rank, comm)?;
        Ok(())
    })
}

/// Suspend a monitoring session (paper: `MPI_M_suspend`).
pub fn MPI_M_suspend(msid: Msid) -> i32 {
    with_env(|mon| mon.suspend(msid))
}

/// Restart a suspended session (paper: `MPI_M_continue`).
pub fn MPI_M_continue(msid: Msid) -> i32 {
    with_env(|mon| mon.resume(msid))
}

/// Reset the data of a suspended session (paper: `MPI_M_reset`).
pub fn MPI_M_reset(msid: Msid) -> i32 {
    with_env(|mon| mon.reset(msid))
}

/// Free a suspended session (paper: `MPI_M_free`).
pub fn MPI_M_free(msid: Msid) -> i32 {
    with_env(|mon| mon.free(msid))
}

/// Session information (paper: `MPI_M_get_info`).
pub fn MPI_M_get_info(msid: Msid, provided: &mut i32, array_size: &mut i32) -> i32 {
    with_env(|mon| {
        let info = mon.get_info(msid)?;
        *provided = info.provided;
        *array_size = info.array_size as i32;
        Ok(())
    })
}

/// Copy this process's row into caller buffers (paper: `MPI_M_get_data`).
/// Buffers must be at least `array_size` long (see [`MPI_M_get_info`]).
pub fn MPI_M_get_data(
    msid: Msid,
    msg_counts: &mut [u64],
    msg_sizes: &mut [u64],
    flags: Flags,
) -> i32 {
    with_env(|mon| {
        let row = mon.get_data(msid, flags)?;
        if msg_counts.len() < row.counts.len() || msg_sizes.len() < row.sizes.len() {
            return Err(MonError::InternalFail("output buffer too small".into()));
        }
        msg_counts[..row.counts.len()].copy_from_slice(&row.counts);
        msg_sizes[..row.sizes.len()].copy_from_slice(&row.sizes);
        Ok(())
    })
}

/// Gather the full matrices on every process (paper: `MPI_M_allgather_data`).
/// Matrix buffers are row-major, at least `array_size²` long.
pub fn MPI_M_allgather_data(
    rank: &Rank,
    msid: Msid,
    matrix_counts: &mut [u64],
    matrix_sizes: &mut [u64],
    flags: Flags,
) -> i32 {
    with_env(|mon| {
        copy_out(Some(mon.allgather_data(rank, msid, flags)?), matrix_counts, matrix_sizes)
    })
}

/// Gather the full matrices at `root` only (paper: `MPI_M_rootgather_data`).
/// Non-roots may pass empty buffers.
pub fn MPI_M_rootgather_data(
    rank: &Rank,
    msid: Msid,
    root: i32,
    matrix_counts: &mut [u64],
    matrix_sizes: &mut [u64],
    flags: Flags,
) -> i32 {
    with_env(|mon| {
        let data = mon.rootgather_data(rank, msid, checked_root(root)?, flags)?;
        copy_out(data, matrix_counts, matrix_sizes)
    })
}

/// Seal the session's current epoch window and report its totals (epoch
/// index, events, bytes).  Legal on an **active** session — the live
/// introspection primitive; recording continues into the next window.
/// Local call; see [`crate::Monitoring::advance_window`].
pub fn MPI_M_window_advance(msid: Msid, epoch: &mut u64, events: &mut u64, bytes: &mut u64) -> i32 {
    with_env(|mon| {
        let delta = mon.advance_window(msid)?;
        *epoch = delta.epoch;
        *events = delta.events;
        *bytes = delta.bytes;
        Ok(())
    })
}

/// Seal every member's window and gather the deltas' matrices at `root`
/// (live counterpart of [`MPI_M_rootgather_data`]; collective on an
/// **active** session).  Root buffers must be at least `array_size²` long;
/// non-roots may pass empty buffers.  `epoch` receives the sealed window's
/// index on every rank.
pub fn MPI_M_gather_window(
    rank: &Rank,
    msid: Msid,
    root: i32,
    epoch: &mut u64,
    matrix_counts: &mut [u64],
    matrix_sizes: &mut [u64],
    flags: Flags,
) -> i32 {
    with_env(|mon| {
        let win = mon.gather_window(rank, msid, checked_root(root)?, flags)?;
        *epoch = win.epoch;
        copy_out(win.data, matrix_counts, matrix_sizes)
    })
}

/// Flush this process's data to `filename.[rank].prof` (paper: `MPI_M_flush`).
pub fn MPI_M_flush(msid: Msid, filename: &str, flags: Flags) -> i32 {
    with_env(|mon| mon.flush(msid, filename, flags))
}

/// Root flushes all data to `filename_{counts,sizes}.[rank].prof`
/// (paper: `MPI_M_rootflush`).
pub fn MPI_M_rootflush(rank: &Rank, msid: Msid, root: i32, filename: &str, flags: Flags) -> i32 {
    with_env(|mon| mon.rootflush(rank, msid, checked_root(root)?, filename, flags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_mpisim::{Universe, UniverseConfig};
    use mim_topology::{Machine, Placement};

    fn universe(n: usize) -> Universe {
        Universe::new(UniverseConfig::new(Machine::cluster(2, 1, 4), Placement::packed(n)))
    }

    #[test]
    fn listing2_barrier_decomposition() {
        // The paper's Listing 2, line by line.
        let dir = std::env::temp_dir().join(format!("mim-capi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("barrier").to_string_lossy().into_owned();
        let u = universe(4);
        let base2 = base.clone();
        u.launch(move |rank| {
            assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
            let mut id = MPI_M_MSID_NULL;
            let world = rank.comm_world();
            assert_eq!(MPI_M_start(rank, &world, &mut id), MPI_SUCCESS);
            rank.barrier(&world);
            assert_eq!(MPI_M_suspend(id), MPI_SUCCESS);
            assert_eq!(MPI_M_rootflush(rank, id, 0, &base2, MPI_M_COLL_ONLY), MPI_SUCCESS);
            assert_eq!(MPI_M_free(id), MPI_SUCCESS);
            assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
        });
        let counts = std::fs::read_to_string(format!("{base}_counts.0.prof")).unwrap();
        let total: u64 =
            counts.lines().flat_map(|l| l.split(',')).map(|v| v.parse::<u64>().unwrap()).sum();
        assert_eq!(total, 8, "4-rank dissemination barrier: 2 rounds x 4 messages");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_codes_follow_the_paper() {
        let u = universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            // Everything before init fails with MISSING_INIT.
            assert_eq!(MPI_M_suspend(MPI_M_ALL_MSID), MPI_M_MISSING_INIT);
            assert_eq!(MPI_M_finalize(rank), MPI_M_MISSING_INIT);
            assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
            // Overlapping environments are rejected.
            assert_eq!(MPI_M_init(rank), MPI_M_MULTIPLE_CALL);
            let mut id = MPI_M_MSID_NULL;
            assert_eq!(MPI_M_start(rank, &world, &mut id), MPI_SUCCESS);
            // Data access while active / double suspend.
            let (mut c, mut s) = ([0u64; 2], [0u64; 2]);
            assert_eq!(
                MPI_M_get_data(id, &mut c, &mut s, MPI_M_ALL_COMM),
                MPI_M_SESSION_NOT_SUSPENDED
            );
            assert_eq!(MPI_M_continue(id), MPI_M_MULTIPLE_CALL);
            // Finalize with an active session.
            assert_eq!(MPI_M_finalize(rank), MPI_M_SESSION_STILL_ACTIVE);
            assert_eq!(MPI_M_suspend(id), MPI_SUCCESS);
            assert_eq!(MPI_M_suspend(id), MPI_M_MULTIPLE_CALL);
            // Invalid root.
            let (mut mc, mut ms) = (vec![0u64; 4], vec![0u64; 4]);
            assert_eq!(
                MPI_M_rootgather_data(rank, id, 99, &mut mc, &mut ms, MPI_M_ALL_COMM),
                MPI_M_INVALID_ROOT
            );
            assert_eq!(MPI_M_free(id), MPI_SUCCESS);
            assert_eq!(MPI_M_free(id), MPI_M_INVALID_MSID);
            assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
            // A second environment may follow a finalized one.
            assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
            assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
        });
    }

    #[test]
    fn negative_root_is_rejected_before_any_cast() {
        // Regression guard: a negative C root must return INVALID_ROOT from
        // every root-taking entry point instead of wrapping to a huge usize.
        let u = universe(2);
        u.launch(|rank| {
            let world = rank.comm_world();
            assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
            let mut id = MPI_M_MSID_NULL;
            assert_eq!(MPI_M_start(rank, &world, &mut id), MPI_SUCCESS);
            let mut epoch = 0u64;
            let (mut mc, mut ms) = (vec![0u64; 4], vec![0u64; 4]);
            for bad_root in [-1, i32::MIN] {
                assert_eq!(
                    MPI_M_gather_window(
                        rank,
                        id,
                        bad_root,
                        &mut epoch,
                        &mut mc,
                        &mut ms,
                        MPI_M_ALL_COMM
                    ),
                    MPI_M_INVALID_ROOT
                );
            }
            assert_eq!(MPI_M_suspend(id), MPI_SUCCESS);
            for bad_root in [-1, i32::MIN] {
                assert_eq!(
                    MPI_M_rootgather_data(rank, id, bad_root, &mut mc, &mut ms, MPI_M_ALL_COMM),
                    MPI_M_INVALID_ROOT
                );
                assert_eq!(
                    MPI_M_rootflush(
                        rank,
                        id,
                        bad_root,
                        "/nonexistent/never-written",
                        MPI_M_ALL_COMM
                    ),
                    MPI_M_INVALID_ROOT
                );
            }
            assert_eq!(MPI_M_free(id), MPI_SUCCESS);
            assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
        });
    }

    #[test]
    fn windows_work_on_an_active_session() {
        // The live-query path: windows advance and gather with NO suspend.
        let u = universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            let n = world.size();
            assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
            let mut id = MPI_M_MSID_NULL;
            assert_eq!(MPI_M_start(rank, &world, &mut id), MPI_SUCCESS);
            // ALL is rejected in slot-addressed paths with a typed error.
            let (mut e, mut ev, mut b) = (0u64, 0u64, 0u64);
            assert_eq!(
                MPI_M_window_advance(MPI_M_ALL_MSID, &mut e, &mut ev, &mut b),
                MPI_M_INVALID_MSID
            );

            rank.barrier(&world);
            let mut epoch = 0u64;
            let (mut mc, mut ms) = (vec![0u64; n * n], vec![0u64; n * n]);
            assert_eq!(
                MPI_M_gather_window(rank, id, 0, &mut epoch, &mut mc, &mut ms, MPI_M_COLL_ONLY),
                MPI_SUCCESS
            );
            assert_eq!(epoch, 1, "first sealed window");
            if world.rank() == 0 {
                assert_eq!(mc.iter().sum::<u64>(), 8, "4-rank barrier: 2 rounds x 4 msgs");
            }
            // The gather's own control traffic was muted: a second,
            // traffic-free window is empty at every rank.
            rank.barrier(&world); // this barrier IS recorded (window 2)
            assert_eq!(MPI_M_window_advance(id, &mut e, &mut ev, &mut b), MPI_SUCCESS);
            assert_eq!(e, 2);
            assert_eq!(ev, 2, "window 2 holds only the second barrier's sends");
            // Session stays active and its totals keep both windows.
            assert_eq!(MPI_M_suspend(id), MPI_SUCCESS);
            let (mut c, mut s) = (vec![0u64; n], vec![0u64; n]);
            assert_eq!(MPI_M_get_data(id, &mut c, &mut s, MPI_M_COLL_ONLY), MPI_SUCCESS);
            assert_eq!(c.iter().sum::<u64>(), 4, "two barriers, gather traffic muted");
            assert_eq!(MPI_M_free(id), MPI_SUCCESS);
            assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
        });
    }

    #[test]
    fn get_info_and_data_buffers() {
        let u = universe(4);
        u.launch(|rank| {
            let world = rank.comm_world();
            assert_eq!(MPI_M_init(rank), MPI_SUCCESS);
            let mut id = MPI_M_MSID_NULL;
            assert_eq!(MPI_M_start(rank, &world, &mut id), MPI_SUCCESS);
            let (mut provided, mut n) = (0, 0);
            assert_eq!(MPI_M_get_info(id, &mut provided, &mut n), MPI_SUCCESS);
            assert_eq!(n, 4);
            assert_eq!(provided, 3);
            rank.barrier(&world);
            assert_eq!(MPI_M_suspend(id), MPI_SUCCESS);
            let mut counts = vec![0u64; n as usize];
            let mut sizes = vec![0u64; n as usize];
            assert_eq!(MPI_M_get_data(id, &mut counts, &mut sizes, MPI_M_COLL_ONLY), MPI_SUCCESS);
            assert_eq!(counts.iter().sum::<u64>(), 2, "2 dissemination rounds");
            let mut mc = vec![0u64; (n * n) as usize];
            let mut ms = vec![0u64; (n * n) as usize];
            assert_eq!(
                MPI_M_allgather_data(rank, id, &mut mc, &mut ms, MPI_M_COLL_ONLY),
                MPI_SUCCESS
            );
            assert_eq!(mc.iter().sum::<u64>(), 8);
            assert_eq!(MPI_M_free(id), MPI_SUCCESS);
            assert_eq!(MPI_M_finalize(rank), MPI_SUCCESS);
        });
    }
}
